"""Exact minimal-hitting-set solver used by the dual enumeration engine.

`HittingSetSolver` takes sets and returns answers as Python `int` masks
over n positions, bit i standing for position i (the enumeration gives
feature `order[i]` position i).  Sets to hit and blocked sets (sets the
answer may not cover) are added one at a time, and `next()` returns a
subset-minimal hitting set that covers no blocked set.  An
explicit-stack depth-first search branches on the unhit set with the
fewest still-allowed elements (ties go to the lowest set index): its
allowed elements are tried in ascending position, and each later sibling
excludes the earlier ones, so no hitting set is reached twice.  A state is
pruned when some unhit set has no allowed element left, and a child that
covers a blocked set is dropped.  The first hitting set found is shrunk to
a subset-minimal one by dropping elements in ascending position.  With
`smallest=True` the search is instead repeated under a growing cap on the
chosen set's size (iterative deepening), with no shrink needed.

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

from typing import Iterable, Optional

DEFAULT_NODE_BUDGET = 10 ** 7


class BudgetExceeded(Exception):
    """Search node budget exhausted."""


class HittingSetSolver:
    """Incremental search for minimal hitting sets, as masks over `n` positions."""

    def __init__(self, n: int, smallest: bool = False,
                 budget: int = DEFAULT_NODE_BUDGET) -> None:
        self.n = n
        self.smallest = smallest
        self.budget = budget
        self._sets: list[int] = []  # masks to hit, in the order added
        # element bit -> blocked masks containing it; a child adds one
        # element, so only these can become covered
        self._blocked_with: dict[int, list[int]] = {}
        self._empty = False  # an empty set to hit or to block: no answer
        # pending (chosen, allowed) states of the one search, kept across
        # every add and next(), none covering a blocked set
        self._stack = [self._root()]
        self._cap = 0  # smallest mode: the size cap of the current search

    def _check(self, m: int) -> None:
        if m >> self.n:
            raise ValueError(f"mask {m} has a bit at position {self.n} or above")

    def add_to_hit(self, m: int) -> None:
        """Require every later answer to hit the mask `m`."""
        self._check(m)
        self._empty = self._empty or not m  # an empty set can never be hit
        self._sets.append(m)

    def add_blocked(self, m: int) -> None:
        """Forbid every later answer to cover the mask `m`."""
        self._check(m)
        self._empty = self._empty or not m  # every set covers the empty set
        self._stack = [st for st in self._stack if st[0] & m != m]
        rest = m
        while rest:
            low = rest & -rest
            rest ^= low
            self._blocked_with.setdefault(low, []).append(m)

    def next(self) -> Optional[int]:
        """The mask of a subset-minimal hitting set of the sets to hit that
        covers no blocked set, or None when no such set exists.  With
        `smallest=True` it is additionally of minimum cardinality."""
        if self._empty:
            return None
        found = self._search()
        if found is None or self.smallest:
            return found
        return _shrink(found, self._sets)

    def _root(self) -> tuple[int, int]:
        return 0, (1 << self.n) - 1

    def _search(self) -> Optional[int]:
        """Pop states until the first hitting set in search order, or None.
        In smallest mode, each time the stack runs dry the search starts
        again from the root under the next cap."""
        stack = self._stack
        sets = self._sets
        blocked_with = self._blocked_with
        cap = self._cap if self.smallest else None
        budget = self.budget
        more = self.n + 1  # more than any set's allowed elements
        nodes = 0
        while True:
            if not stack:
                if cap is None or cap >= self.n:
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
    """Drop elements in ascending position while the set still hits everything.

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


def minimal_hitting_set(n: int, to_hit: Iterable[int], blocked: Iterable[int] = (),
                        smallest: bool = False,
                        budget: int = DEFAULT_NODE_BUDGET) -> Optional[int]:
    """The first answer of a `HittingSetSolver(n, smallest, budget)` given
    the masks `to_hit` and `blocked`.  The library calls the solver itself;
    this name stays for the benchmark's tracer (`perfbench/tracing.py`),
    which patches it here and in `dualxp.dual`."""
    solver = HittingSetSolver(n, smallest, budget)
    for m in to_hit:
        solver.add_to_hit(m)
    for m in blocked:
        solver.add_blocked(m)
    return solver.next()
