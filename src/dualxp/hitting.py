"""Exact minimal-hitting-set solver used by the dual enumeration engine.

Each call maps the universe to bit positions once and works on Python `int`
masks.  An explicit-stack depth-first search branches on the unhit set with
the fewest still-allowed elements (ties go to the lowest set index): its
allowed elements are tried in universe order, and each later sibling
excludes the earlier ones, so no hitting set is reached twice.  A state is
pruned when some unhit set has no allowed element left, and a child that
covers a blocked set is dropped.  The first hitting set found is shrunk to
a subset-minimal one by dropping elements in universe order.  With
`smallest=True` the search is instead repeated under a growing cap on the
chosen set's size (iterative deepening), with no shrink needed.  Exact and
deterministic for fixed input order; a node budget (one node per popped
search state) guards against desk-scale blowups.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

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


def minimal_hitting_set(instance: HittingSetInstance, smallest: bool = False,
                        budget: int = DEFAULT_NODE_BUDGET) -> Optional[frozenset[int]]:
    """A subset-minimal hitting set of `to_hit` that is a superset of no
    blocked set, or None when no such set exists.

    With `smallest=True` the result is additionally of minimum cardinality.
    """
    if any(not s for s in instance.to_hit):
        return None  # an empty set can never be hit
    if any(not b for b in instance.blocked):
        return None  # every set is a superset of the empty blocked set
    universe = instance.universe
    bit = {e: 1 << i for i, e in enumerate(universe)}

    def mask(s: frozenset[int]) -> int:
        m = 0
        for e in s:
            m |= bit[e]
        return m

    sets = [mask(s) for s in instance.to_hit]
    # element bit -> blocked masks containing it; a child adds one element,
    # so only these can become covered
    blocked_with: dict[int, list[int]] = {}
    for b in map(mask, instance.blocked):
        rest = b
        while rest:
            low = rest & -rest
            rest ^= low
            blocked_with.setdefault(low, []).append(b)
    nodes = 0

    def search(cap: Optional[int]) -> Optional[int]:
        """First hitting set in search order with at most `cap` elements."""
        nonlocal nodes
        stack = [(0, (1 << len(universe)) - 1)]  # (chosen, allowed) masks
        while stack:
            chosen, allowed = stack.pop()
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"hitting-set search exceeded {budget} nodes")
            unhit = [s & allowed for s in sets if not s & chosen]
            if not unhit:
                return chosen
            if not all(unhit):
                continue  # an unhit set has no allowed element left
            if cap is not None and chosen.bit_count() >= cap:
                continue
            branch = min(unhit, key=int.bit_count)  # first of the fewest
            children = []
            while branch:
                low = branch & -branch
                branch ^= low
                child = chosen | low
                if not any(b & child == b for b in blocked_with.get(low, ())):
                    children.append((child, allowed))
                allowed ^= low  # later siblings exclude this element
            stack.extend(reversed(children))
        return None

    if smallest:
        for cap in range(len(universe) + 1):
            found = search(cap)
            if found is not None:
                break
    else:
        found = search(None)
        if found is not None:
            found = _shrink(found, sets)
    if found is None:
        return None
    return frozenset(e for e, b in bit.items() if found & b)


def _shrink(chosen: int, sets: list[int]) -> int:
    """Drop elements in universe order while the set still hits everything.

    Shrinking can only shed supersets, so blocked-avoidance is preserved.
    """
    rest = chosen
    while rest:
        low = rest & -rest
        rest ^= low
        trial = chosen ^ low
        if all(s & trial for s in sets):
            chosen = trial
    return chosen


def iterate_minimal_hitting_sets(instance: HittingSetInstance, smallest: bool = False,
                                 budget: int = DEFAULT_NODE_BUDGET) -> Iterator[frozenset[int]]:
    """Enumerate the complete family of minimal hitting sets by iterated
    blocking: each reported set is added to `blocked`, which excludes exactly
    its supersets and therefore no other minimal hitting set."""
    blocked = list(instance.blocked)
    while True:
        found = minimal_hitting_set(
            HittingSetInstance(instance.universe, instance.to_hit, tuple(blocked)),
            smallest=smallest, budget=budget,
        )
        if found is None:
            return
        yield found
        blocked.append(found)
