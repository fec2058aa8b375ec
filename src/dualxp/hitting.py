"""Exact minimal-hitting-set solver used by the dual enumeration engine.

`HittingSetSolver` maps the universe to bit positions once and works on
Python `int` masks.  Sets to hit and blocked sets (sets the answer may not
cover) are added one at a time, and `next()` returns a subset-minimal
hitting set that covers no blocked set.  An explicit-stack depth-first
search branches on the unhit set with the fewest still-allowed elements
(ties go to the lowest set index): its allowed elements are tried in
universe order, and each later sibling excludes the earlier ones, so no
hitting set is reached twice.  A state is pruned when some unhit set has no
allowed element left, and a child that covers a blocked set is dropped.
The first hitting set found is shrunk to a subset-minimal one by dropping
elements in universe order.  With `smallest=True` the search is instead
repeated under a growing cap on the chosen set's size (iterative
deepening), with no shrink needed.

One depth-first search serves every `next()` call: it resumes from the
saved stack, which still holds the last answer's own state on top.  The
search stops at the first hitting set, so every region it has left held no
hitting set of the sets known then, and more sets to hit or block cannot
add one.  A saved state that misses a newly added set branches on it when
popped.  `add_blocked` drops every saved state that covers the new set, so
no saved state covers a blocked set.  With `smallest=True` the cap of the
last answer carries over, so each answer is still of minimum size.  Once a
set to hit is added after an answer, later answers may come in another
order than a fresh search would give, but the family is the same.

Exact and deterministic for fixed input order.  The node budget counts the
states popped by one `next()` call (a resumed call counts only its own), and
guards against desk-scale blowups.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

DEFAULT_NODE_BUDGET = 10 ** 7


class BudgetExceeded(Exception):
    """Search node budget exhausted."""


@dataclass(frozen=True)
class HittingSetInstance:
    """Universe of element ids, sets to hit, and sets the answer may not cover."""

    universe: tuple[int, ...]
    to_hit: tuple[frozenset[int], ...]
    blocked: tuple[frozenset[int], ...] = ()

    def __post_init__(self) -> None:
        elems = set(self.universe)
        for s in self.to_hit + self.blocked:
            if not s <= elems:
                raise ValueError("set contains elements outside the universe")


class HittingSetSolver:
    """Incremental search for minimal hitting sets over a fixed universe."""

    def __init__(self, universe: Iterable[int], smallest: bool = False,
                 budget: int = DEFAULT_NODE_BUDGET) -> None:
        self.universe = tuple(universe)
        self.smallest = smallest
        self.budget = budget
        self._bit = {e: 1 << i for i, e in enumerate(self.universe)}
        self._sets: list[int] = []  # masks to hit, in the order added
        # element bit -> blocked masks containing it; a child adds one
        # element, so only these can become covered
        self._blocked_with: dict[int, list[int]] = {}
        self._empty = False  # an empty set to hit or to block: no answer
        # pending (chosen, allowed) states of the one search, kept across
        # every add and next(), none covering a blocked set
        self._stack = [self._root()]
        self._cap = 0  # smallest mode: the size cap of the current search

    def _mask(self, s: Iterable[int]) -> int:
        m = 0
        try:
            for e in s:
                m |= self._bit[e]
        except KeyError:
            raise ValueError("set contains elements outside the universe") from None
        return m

    def add_to_hit(self, s: Iterable[int]) -> None:
        """Require every later answer to hit `s`."""
        m = self._mask(s)
        self._empty = self._empty or not m  # an empty set can never be hit
        self._sets.append(m)

    def add_blocked(self, s: Iterable[int]) -> None:
        """Forbid every later answer to cover `s`."""
        m = self._mask(s)
        self._empty = self._empty or not m  # every set covers the empty set
        self._stack = [st for st in self._stack if st[0] & m != m]
        rest = m
        while rest:
            low = rest & -rest
            rest ^= low
            self._blocked_with.setdefault(low, []).append(m)

    def next(self) -> Optional[frozenset[int]]:
        """A subset-minimal hitting set of the sets to hit that covers no
        blocked set, or None when no such set exists.  With `smallest=True`
        it is additionally of minimum cardinality."""
        if self._empty:
            return None
        found = self._search()
        if found is None:
            return None
        if not self.smallest:
            found = _shrink(found, self._sets)
        universe = self.universe
        out = []
        while found:
            low = found & -found
            found ^= low
            out.append(universe[low.bit_length() - 1])
        return frozenset(out)

    def _root(self) -> tuple[int, int]:
        return 0, (1 << len(self.universe)) - 1

    def _search(self) -> Optional[int]:
        """Pop states until the first hitting set in search order, or None.
        In smallest mode, each time the stack runs dry the search starts
        again from the root under the next cap."""
        stack = self._stack
        sets = self._sets
        blocked_with = self._blocked_with
        cap = self._cap if self.smallest else None
        budget = self.budget
        more = len(self.universe) + 1  # more than any set's allowed elements
        nodes = 0
        while True:
            if not stack:
                if cap is None or cap >= len(self.universe):
                    return None
                cap = self._cap = cap + 1
                stack.append(self._root())
            if nodes >= budget:
                raise BudgetExceeded(f"hitting-set search exceeded {budget} nodes")
            nodes += 1
            chosen, allowed = stack.pop()
            # one pass over the sets to hit, branching on the first unhit set
            # with the fewest allowed elements.  An unhit set with none left
            # has the fewest, so such a dead state branches into no children
            # (the branching rule never makes one: the k-th child excludes
            # k - 1 elements, fewer than any unhit set had allowed)
            branch = None
            fewest = more
            for s in sets:
                if not s & chosen:
                    s &= allowed
                    size = s.bit_count()
                    if size < fewest:
                        branch, fewest = s, size
            if branch is None:
                # every set is hit; kept, so that asking again with nothing
                # added repeats it
                stack.append((chosen, allowed))
                return chosen
            if cap is not None and chosen.bit_count() >= cap:
                continue
            children = []
            while branch:
                low = branch & -branch
                branch ^= low
                child = chosen | low
                if not _covers(blocked_with.get(low, ()), child):
                    children.append((child, allowed))
                allowed ^= low  # later siblings exclude this element
            stack.extend(reversed(children))


def _covers(family: Iterable[int], mask: int) -> bool:
    """True iff `mask` covers some mask in `family`.  A plain loop: on these
    short lists the generator frame of `any()` costs more than the tests."""
    for k in family:
        if k & mask == k:
            return True
    return False


def _shrink(chosen: int, sets: list[int]) -> int:
    """Drop elements in universe order while the set still hits everything.

    Shrinking can only shed supersets, so blocked-avoidance is preserved.
    """
    rest = chosen
    while rest:
        low = rest & -rest
        rest ^= low
        trial = chosen ^ low
        for s in sets:
            if not s & trial:
                break
        else:
            chosen = trial
    return chosen


def minimal_hitting_set(instance: HittingSetInstance, smallest: bool = False,
                        budget: int = DEFAULT_NODE_BUDGET) -> Optional[frozenset[int]]:
    """A subset-minimal hitting set of `to_hit` that covers no blocked set,
    or None if there is none; with `smallest=True`, of minimum cardinality."""
    solver = HittingSetSolver(instance.universe, smallest, budget)
    for s in instance.to_hit:
        solver.add_to_hit(s)
    for b in instance.blocked:
        solver.add_blocked(b)
    return solver.next()
