import collections
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualxp.dual import minimal_transversals
from dualxp.hitting import (
    DEFAULT_NODE_BUDGET,
    BudgetExceeded,
    HittingSetSolver,
    minimal_hitting_set,
)

# The solver works on int masks over positions; these tests state their
# cases as sets of element ids over a `universe`, in which element
# `universe[i]` has position i, and convert at this boundary.
Problem = collections.namedtuple("Problem", "universe to_hit blocked")


def hs(universe, to_hit, blocked=()):
    return Problem(
        tuple(universe),
        tuple(frozenset(s) for s in to_hit),
        tuple(frozenset(b) for b in blocked),
    )


def to_mask(universe, s):
    return sum(1 << universe.index(e) for e in set(s))


def to_elements(universe, mask):
    return None if mask is None else frozenset(
        e for i, e in enumerate(universe) if mask >> i & 1)


class ElementSolver:
    """`HittingSetSolver` over the elements of `universe`: sets go in and
    answers come out as frozensets of elements."""

    def __init__(self, universe, smallest=False, budget=DEFAULT_NODE_BUDGET):
        self.universe = tuple(universe)
        self.solver = HittingSetSolver(len(self.universe), smallest, budget)

    def add_to_hit(self, s):
        self.solver.add_to_hit(to_mask(self.universe, s))

    def add_blocked(self, s):
        self.solver.add_blocked(to_mask(self.universe, s))

    def next(self):
        return to_elements(self.universe, self.solver.next())


def mhs(inst, smallest=False, budget=DEFAULT_NODE_BUDGET):
    """`minimal_hitting_set` on the masks of `inst`, as a set of elements."""
    u = inst.universe
    return to_elements(u, minimal_hitting_set(
        len(u), [to_mask(u, s) for s in inst.to_hit],
        [to_mask(u, b) for b in inst.blocked], smallest, budget))


def every_minimal_hitting_set(inst, smallest=False, budget=DEFAULT_NODE_BUDGET):
    """One solver driven as the enumeration loop drives it: each answer is
    blocked, which excludes exactly its supersets, and the search resumes."""
    solver = ElementSolver(inst.universe, smallest, budget)
    for s in inst.to_hit:
        solver.add_to_hit(s)
    for b in inst.blocked:
        solver.add_blocked(b)
    found = []
    while (h := solver.next()) is not None:
        found.append(h)
        solver.add_blocked(h)
    return found


def exhaustive_minimal_hitting_sets(universe, to_hit):
    hitting = [
        frozenset(c)
        for r in range(len(universe) + 1)
        for c in itertools.combinations(universe, r)
        if all(frozenset(c) & s for s in to_hit)
    ]
    return {h for h in hitting if not any(o < h for o in hitting)}


def test_forced_singleton():
    assert mhs(hs([0, 1], [{0}])) == frozenset({0})


def test_golden_pair_with_blocking():
    # elements named after the worked example: A=0, T=1, L=2, W=3;
    # universe ordered by first appearance (L, T, A, W) decides ties
    inst = hs([2, 1, 0, 3], [{2}, {1, 0}])
    assert mhs(inst) == frozenset({2, 1})
    blocked = hs([2, 1, 0, 3], [{2}, {1, 0}], blocked=[{2, 1}])
    assert mhs(blocked) == frozenset({2, 0})
    # declaration order prefers A over T instead; still deterministic
    assert mhs(hs([0, 1, 2, 3], [{2}, {1, 0}])) == frozenset({0, 2})


def test_empty_to_hit_blocked_empty_set():
    assert mhs(hs([0, 1], [], blocked=[set()])) is None
    assert mhs(hs([0, 1], [])) == frozenset()


def test_unhittable():
    assert mhs(hs([0, 1], [set()])) is None
    assert mhs(hs([0, 1], [{0}], blocked=[{0}])) is None


def test_outside_universe_rejected():
    # a mask with a bit at position n or above names no element
    for add in (HittingSetSolver(1).add_to_hit, HittingSetSolver(1).add_blocked):
        for mask in (0b10, 0b11, -1):
            with pytest.raises(ValueError):
                add(mask)
    with pytest.raises(ValueError):
        minimal_hitting_set(2, [0b100])


def test_budget():
    universe = list(range(20))
    sets = [set(universe[i:i + 10]) for i in range(10)]
    with pytest.raises(BudgetExceeded):
        mhs(hs(universe, sets), budget=3)


def test_smallest_mode():
    inst = hs([0, 1, 2, 3], [{0, 1}, {1, 2}, {2, 3}])
    assert mhs(inst, smallest=True) == frozenset({0, 2})
    # a case where subset-minimal-first and minimum-cardinality differ
    chain = hs([0, 1, 2], [{0, 1}, {0, 2}])
    assert mhs(chain) in ({frozenset({0})} | {frozenset({1, 2})})
    assert mhs(chain, smallest=True) == frozenset({0})


def test_iterated_enumeration_matches_exhaustive():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 12)
        universe = list(range(n))
        to_hit = [
            set(rng.sample(universe, rng.randint(1, n)))
            for _ in range(rng.randint(1, 10))
        ]
        expected = exhaustive_minimal_hitting_sets(universe, to_hit)
        found = every_minimal_hitting_set(hs(universe, to_hit))
        assert len(found) == len(expected) and set(found) == expected
        assert minimal_transversals([frozenset(s) for s in to_hit]) == expected


@given(st.data())
def test_result_is_minimal_and_hits(data):
    n = data.draw(st.integers(1, 8))
    universe = list(range(n))
    to_hit = data.draw(st.lists(
        st.sets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=6
    ))
    found = mhs(hs(universe, to_hit))
    assert found is not None
    assert all(found & s for s in map(frozenset, to_hit))
    for e in found:
        assert not all((found - {e}) & s for s in map(frozenset, to_hit))


def test_smallest_is_minimum_cardinality():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 10)
        universe = list(range(n))
        to_hit = [
            set(rng.sample(universe, rng.randint(1, n)))
            for _ in range(rng.randint(1, 6))
        ]
        smallest = mhs(hs(universe, to_hit), smallest=True)
        family = exhaustive_minimal_hitting_sets(universe, to_hit)
        assert len(smallest) == min(len(h) for h in family)


def test_large_universe_needs_no_recursion():
    # a search with one stack frame per element would pass the
    # interpreter's recursion limit here
    universe = list(range(1500))
    to_hit = [{e, e + 700} for e in range(0, 1500 - 700, 100)] + [{1499}]
    found = mhs(hs(universe, to_hit))
    assert found is not None
    assert all(found & frozenset(s) for s in to_hit)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_blocked_search_matches_berge_reference(data):
    n = data.draw(st.integers(1, 20))
    universe = data.draw(st.permutations(range(n)))
    subsets = st.sets(st.integers(0, n - 1), min_size=1, max_size=10)
    to_hit = [frozenset(s) for s in data.draw(st.lists(subsets, min_size=1, max_size=10))]
    blocked = [frozenset(b) for b in data.draw(st.lists(subsets, min_size=1, max_size=6))]
    inst = hs(universe, to_hit, blocked)
    allowed = {
        t for t in minimal_transversals(to_hit)
        if not any(b <= t for b in blocked)
    }
    found = mhs(inst)
    smallest = mhs(inst, smallest=True)
    if not allowed:
        assert found is None and smallest is None
        return
    assert found in allowed
    assert smallest in allowed
    assert len(smallest) == min(len(t) for t in allowed)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_solver_matches_fresh_search_after_every_step(data):
    # one solver driven through random interleavings of adds and next().
    # Each answer is a minimal transversal of the sets to hit that covers no
    # blocked set, of minimum size with smallest=True, and None only when
    # there is none.  While every set to hit came before the first next(),
    # as on a tree, each answer equals a fresh search on everything added so
    # far.  After each block no saved state covers a blocked set
    n = data.draw(st.integers(1, 16))
    universe = data.draw(st.permutations(range(n)))
    smallest = data.draw(st.booleans())
    solver = ElementSolver(universe, smallest=smallest)
    subsets = st.frozensets(st.integers(0, n - 1), min_size=1, max_size=6)
    to_hit, blocked = [], []
    transversals = {frozenset()}
    found = None
    asked = hit_after_asking = False
    for _ in range(data.draw(st.integers(1, 25), label="steps")):
        ops = data.draw(st.lists(st.sampled_from(["hit", "block", "block found"]),
                                 max_size=3), label="ops")
        for op in ops:
            if op == "hit":
                to_hit.append(data.draw(subsets))
                solver.add_to_hit(to_hit[-1])
                transversals = minimal_transversals(to_hit)
                hit_after_asking = asked
            elif op == "block" or found is None:
                blocked.append(data.draw(subsets))
                solver.add_blocked(blocked[-1])
            else:  # the enumeration loop blocks each answer it accepts
                blocked.append(found)
                solver.add_blocked(found)
            if op != "hit":
                masks = [to_mask(solver.universe, b) for b in blocked]
                assert not any(m & chosen == m for chosen, _ in solver.solver._stack
                               for m in masks)
        found = solver.next()
        asked = True
        allowed = {t for t in transversals if not any(b <= t for b in blocked)}
        if not allowed:
            assert found is None
        else:
            assert found in allowed
            if smallest:
                assert len(found) == min(len(t) for t in allowed)
        if not hit_after_asking:
            assert found == mhs(hs(universe, to_hit, blocked), smallest=smallest)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_enumeration_loop_blocks_every_minimal_transversal_once(data):
    # the solver driven as `iterate_explanations` drives it on an ensemble,
    # against a hidden family: an answer that hits every hidden set is
    # blocked, as an AXp is; otherwise a hidden set disjoint from it is
    # added, as a CXp is.  The blocked answers are exactly the minimal
    # transversals of the hidden family, each blocked once, and with
    # smallest=True they come in non-decreasing size
    n = data.draw(st.integers(1, 12))
    universe = data.draw(st.permutations(range(n)))
    hidden = data.draw(st.lists(
        st.frozensets(st.integers(0, n - 1), min_size=1, max_size=6),
        min_size=1, max_size=10))
    smallest = data.draw(st.booleans())
    solver = ElementSolver(universe, smallest=smallest)
    blocked = []
    while (found := solver.next()) is not None:
        missed = [s for s in hidden if not s & found]
        if missed:
            solver.add_to_hit(data.draw(st.sampled_from(missed)))
        else:
            blocked.append(found)
            solver.add_blocked(found)
    assert len(blocked) == len(set(blocked))
    assert set(blocked) == minimal_transversals(hidden)
    if smallest:
        assert [len(b) for b in blocked] == sorted(len(b) for b in blocked)


def fewest_nodes(run):
    """The smallest node budget under which `run(budget)` finishes; the
    budget counts the states one `next()` call pops, so more is never worse."""
    lo, hi = 0, 1
    while True:
        try:
            run(hi)
            break
        except BudgetExceeded:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            run(mid)
            hi = mid
        except BudgetExceeded:
            lo = mid
    return hi


# per case: the fewest nodes for the first answer and for a whole iterated
# enumeration (the most any one next() pops), without and with smallest=True
PINNED_NODES = [
    (6, 11, 22, 904), (4, 4, 15, 107), (4, 4, 9, 216), (2, 2, 29, 29),
    (7, 11, 49, 828), (5, 5, 16, 350), (4, 5, 13, 121), (6, 6, 34, 250),
    (6, 10, 52, 1459), (4, 4, 14, 99),
]


def test_node_counts_are_pinned():
    # how many states the search pops is its branching and pruning; the
    # fresh-search comparison above cannot see a change there, because its
    # reference runs the same search
    rng = random.Random(2024)
    for i, pinned in enumerate(PINNED_NODES):
        n = rng.randint(10, 18)
        universe = rng.sample(range(n), n)
        to_hit = [rng.sample(range(n), rng.randint(2, 6))
                  for _ in range(rng.randint(6, 14))]
        blocked = [] if i % 2 == 0 else [rng.sample(range(n), rng.randint(1, 4))
                                         for _ in range(rng.randint(2, 8))]
        inst = hs(universe, to_hit, blocked)
        counts = []
        for smallest in (False, True):
            def first(budget):
                mhs(inst, smallest, budget)

            def every(budget):
                every_minimal_hitting_set(inst, smallest, budget)

            for run in (first, every):
                k = fewest_nodes(run)
                with pytest.raises(BudgetExceeded):
                    run(k - 1)
                counts.append(k)
        assert tuple(counts) == pinned
