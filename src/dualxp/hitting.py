"""Exact minimal-hitting-set search used by the dual enumeration engine.

`minimal_hitting_sets` lists the minimal hitting sets of a family of sets,
taken and given as Python `int` masks over n positions, bit i standing for
position i (the enumeration gives feature `order[i]` position i).  It is
MMCS (Murakami and Uno, *Efficient algorithms for dualizing large-scale
hypergraphs*, Discrete Applied Mathematics 2014): an explicit-stack
depth-first search that branches on the first unhit set with the fewest
elements still allowed, and tries those elements in ascending position.

A state is `(chosen, cand, uncov, crit, seen)`: the chosen mask, the mask
of elements it may still add, the mask of the indices of the sets it has
not hit, per chosen element in ascending position the mask of the indices
of the sets that only that element hits, and the number of sets those
masks account for.  `hits[e]`, the mask of the indices of the sets that
hold position e, updates both masks.  A child whose new element would
leave some chosen element with no set of its own is dropped, since no
superset of it is minimal, so every state with no set left to hit is a
minimal hitting set, yielded as it is popped.  A child may add the branch
elements tried before its own but none tried after, so each minimal
hitting set is reached once, under the last branch element it holds.
With `smallest=True` the search runs in passes under a growing cap on the
chosen set's size.  A pass yields only answers of exactly its cap, since
smaller ones came in earlier passes, and the search stops after the first
pass in which no state reached the cap.

The family may grow.  The search reads the caller's own list, and after an
answer the caller may append sets that the answer misses: a decision tree
passes its whole CXp family and appends nothing, an ensemble starts from
no set and appends each CXp it grows from an answer that is not an AXp.
A state popped with `seen` behind the list is refreshed first: each newer
set it misses joins `uncov`, and each it hits at exactly one element joins
that element's `crit`.  If the caller appended a set the answer misses,
the search goes on from the answer's state; if not, the answer is final.

Why that is exact, in short.  Let the appended sets be members of a fixed
family H, and call a set sufficient if it hits every set of H, so that
supersets of sufficient sets are sufficient.  Refreshing keeps `uncov` and
`crit` exact for the sets known when a state is popped, so the only
decision that can be stale is a `crit` prune: a child S+e dropped because
every known set that S hits only at its element s also holds e.  Suppose
a minimal sufficient T lay in that child's region, and let Q be the
ancestor that added s by branching on the set F.  If T and F meet only at
s, F keeps the child.  Otherwise T-s, which is not sufficient, lies in the
region of Q's child for d, the largest element of T and F below s, and
that region finished before Q's child for s was popped, since children pop
in ascending position and none adds a branch element above its own.  By
induction on finishing time, every set that is not sufficient in a
finished region misses some known set.  That set meets T only at s, so it
too keeps the child.  At the root the same invariant gives every set of H
(the complement of a minimal member C is not sufficient, so a known set
lies inside C, and equals it), and a pass capped at k gives every minimal
sufficient set of size k, since a state cut at the cap misses a set it has
not hit.  So in smallest mode a leaf below the cap is an earlier pass's
answer: had it not been sufficient, it would have missed a known set since
the end of the pass of its size.  `scripts/check_dualization.py` checks
every choice of appended set on every family over a few elements.

Exact and deterministic for fixed input order.  The node budget counts the
states popped while looking for one answer (between two answers, or after
the last), and guards against desk-scale blowups.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Optional

DEFAULT_NODE_BUDGET = 10 ** 7


class BudgetExceeded(Exception):
    """Search node budget exhausted."""


def minimal_hitting_sets(n: int, sets: list[int], smallest: bool = False,
                         budget: int = DEFAULT_NODE_BUDGET) -> Iterator[int]:
    """Yield every minimal hitting set of the masks in `sets` over `n`
    positions exactly once, by MMCS (see the module docstring), in
    depth-first order; with `smallest=True` by size, then in that order.
    After an answer the caller may append to `sets` masks that the answer
    misses, and the search goes on from it.  An empty family yields the
    empty mask, and a family holding the empty mask yields nothing.
    BudgetExceeded when more than `budget` states are popped while looking
    for one answer, or for the end; ValueError for a mask with a bit at
    position `n` or above."""
    hits = [0] * n  # per position, a bit for each set index that holds it
    indexed: list[tuple[int, int]] = []  # (1 << j, sets[j]) per set learnt
    _learn(n, sets, indexed, hits)
    known = len(indexed)
    cap = 0 if smallest else n
    more = n + 1  # more than any set's candidates
    nodes = 0
    while True:
        cut = False  # a state of this pass stopped at the cap
        stack = [(0, (1 << n) - 1, (1 << known) - 1, (), known)]
        push = stack.append
        while stack:
            if nodes >= budget:
                raise BudgetExceeded(f"hitting-set search exceeded {budget} nodes")
            nodes += 1
            chosen, cand, uncov, crit, seen = stack.pop()
            if seen < known:
                uncov, crit = _refresh(chosen, uncov, crit, indexed[seen:])
            if not uncov:
                # a leaf below the cap is an earlier pass's answer (see the
                # module docstring)
                if smallest and len(crit) < cap:
                    continue
                yield chosen
                nodes = 0
                if len(sets) > known:
                    _learn(n, sets, indexed, hits)
                    if any(not s & chosen for _, s in indexed[known:]):
                        # not final: the search goes on from the answer
                        push((chosen, cand, uncov, crit, known))
                    known = len(indexed)
                continue
            if len(crit) >= cap:
                cut = True
                continue
            # branch on the first uncovered set with the fewest candidates.
            # The scan stops at one with a single candidate, which is forced:
            # a later set with none left kills its one child as it would
            # have killed this state, so only the node count differs
            branch = None
            fewest = more
            for bit, s in indexed:
                if uncov & bit:
                    s &= cand
                    size = s.bit_count()
                    if size < fewest:
                        branch, fewest = s, size
                        if size < 2:
                            break
            # children are pushed from the highest element down, so they pop
            # in ascending position.  Each may add the branch elements below
            # its own but none above: an answer comes under the highest
            # branch element it holds, so no answer comes twice
            rest = cand & ~branch
            while branch:
                top = 1 << (branch.bit_length() - 1)
                branch ^= top
                h = hits[top.bit_length() - 1]
                # every chosen element must keep a set that only it hits
                kept = [c & ~h for c in crit]
                if 0 not in kept:
                    kept.insert((chosen & (top - 1)).bit_count(), uncov & h)
                    push((chosen | top, rest | branch, uncov & ~h, tuple(kept),
                          known))
        if not (smallest and cut):
            return
        cap += 1


def _learn(n: int, sets: list[int], indexed: list[tuple[int, int]],
           hits: list[int]) -> None:
    """Index the masks of `sets` past the `len(indexed)` already indexed."""
    for j in range(len(indexed), len(sets)):
        s = sets[j]
        _check(n, s)
        bit = 1 << j
        indexed.append((bit, s))
        while s:
            low = s & -s
            s ^= low
            hits[low.bit_length() - 1] |= bit


def _refresh(chosen: int, uncov: int, crit: tuple[int, ...],
             newer: list[tuple[int, int]]) -> tuple[int, tuple[int, ...]]:
    """`uncov` and `crit` of the state `chosen` with the `newer` indexed sets
    accounted for.  `crit` lists the chosen elements in ascending position,
    so the one with bit b has index `(chosen & (b - 1)).bit_count()`."""
    out = list(crit)
    for bit, s in newer:
        s &= chosen
        if not s:
            uncov |= bit
        elif not s & (s - 1):  # hit at one chosen element only
            out[(chosen & (s - 1)).bit_count()] |= bit
    return uncov, tuple(out)


def _check(n: int, m: int) -> None:
    if m >> n:
        raise ValueError(f"mask {m} has a bit at position {n} or above")


def _covers(family: Iterable[int], mask: int) -> bool:
    """True iff `mask` covers some mask in `family`.  A plain loop: on these
    short lists the generator frame of `any()` costs more than the tests."""
    for k in family:
        if k & mask == k:
            return True
    return False


def minimal_hitting_set(n: int, to_hit: Iterable[int], blocked: Iterable[int] = (),
                        smallest: bool = False,
                        budget: int = DEFAULT_NODE_BUDGET) -> Optional[int]:
    """The first answer of `minimal_hitting_sets(n, to_hit, smallest,
    budget)` that covers no mask in `blocked`, or None.  That is exact: a
    hitting set that covers no blocked mask contains a minimal one that
    covers none either.  The budget holds for each answer in turn.  The
    library iterates the generator itself; this name stays for the
    benchmark's tracer (`perfbench/tracing.py`), which patches it here and
    in `dualxp.dual`."""
    blocked = list(blocked)
    for m in blocked:
        _check(n, m)
    return next((h for h in minimal_hitting_sets(n, list(to_hit), smallest, budget)
                 if not _covers(blocked, h)), None)
