import collections
import importlib.util
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualxp.dual import minimal_transversals
from dualxp.hitting import (
    DEFAULT_NODE_BUDGET,
    BudgetExceeded,
    minimal_hitting_set,
    minimal_hitting_sets,
)

CHECK_DUALIZATION = Path(__file__).resolve().parents[1] / "scripts" / "check_dualization.py"

# The search works on int masks over positions; these tests state their
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


def mhs(inst, smallest=False, budget=DEFAULT_NODE_BUDGET):
    """`minimal_hitting_set` on the masks of `inst`, as a set of elements."""
    u = inst.universe
    return to_elements(u, minimal_hitting_set(
        len(u), [to_mask(u, s) for s in inst.to_hit],
        [to_mask(u, b) for b in inst.blocked], smallest, budget))


def fixed_family_hitting_sets(inst, smallest=False, budget=DEFAULT_NODE_BUDGET):
    """Every answer of `minimal_hitting_sets` on the masks of `inst.to_hit`,
    in the order it yields them, as sets of elements."""
    u = inst.universe
    return [to_elements(u, m) for m in minimal_hitting_sets(
        len(u), [to_mask(u, s) for s in inst.to_hit], smallest, budget)]


def every_minimal_hitting_set(inst, smallest=False, budget=DEFAULT_NODE_BUDGET):
    """`minimal_hitting_sets` driven as the enumeration loop drives it on an
    ensemble, with `inst.to_hit` as the hidden family: the search starts
    from no set, an answer that hits every hidden set is kept, and otherwise
    the first hidden set it misses is appended.  The kept answers, in order,
    as sets of elements."""
    u = inst.universe
    hidden = [to_mask(u, s) for s in inst.to_hit]
    sets, found = [], []
    for h in minimal_hitting_sets(len(u), sets, smallest, budget):
        missed = [s for s in hidden if not s & h]
        if missed:
            sets.append(missed[0])
        else:
            found.append(to_elements(u, h))
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
    # a mask with a bit at position n or above names no element, whether it
    # is given at the start, appended after an answer, or blocked
    for mask in (0b10, 0b11, -1):
        sets = [0b1]
        answers = minimal_hitting_sets(1, sets)
        assert next(answers) == 0b1
        sets.append(mask)
        with pytest.raises(ValueError):
            next(answers)
        with pytest.raises(ValueError):
            minimal_hitting_set(1, [0b1], [mask])
    with pytest.raises(ValueError):
        minimal_hitting_set(2, [0b100])
    with pytest.raises(ValueError):
        list(minimal_hitting_sets(2, [0b01, 0b100]))


def test_budget():
    # ten disjoint pairs: the first answer takes one state per pair and the root
    universe = list(range(20))
    sets = [set(universe[i:i + 2]) for i in range(0, 20, 2)]
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
    inst = hs(universe, to_hit)
    found = mhs(inst)
    assert found is not None
    assert all(found & frozenset(s) for s in to_hit)
    every = fixed_family_hitting_sets(inst)
    assert len(every) == len(set(every))
    assert set(every) == minimal_transversals(inst.to_hit)


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
def test_fixed_family_search_matches_berge_reference(data):
    # MMCS on a fixed family, as a tree's enumeration runs it: every minimal
    # transversal once, by size with smallest=True.  Sets may be empty: an
    # empty family has the one empty answer, and one holding the empty set
    # has none
    n = data.draw(st.integers(1, 12))
    universe = data.draw(st.permutations(range(n)))
    to_hit = data.draw(st.lists(st.frozensets(st.integers(0, n - 1), max_size=6),
                                max_size=10))
    expected = minimal_transversals(to_hit)
    for smallest in (False, True):
        found = fixed_family_hitting_sets(hs(universe, to_hit), smallest)
        assert len(found) == len(set(found))
        assert set(found) == expected
        if smallest:
            assert [len(h) for h in found] == sorted(len(h) for h in found)
        assert list(minimal_hitting_sets(n, [], smallest)) == [0]
        masks = [to_mask(universe, s) for s in to_hit]
        assert list(minimal_hitting_sets(n, masks + [0], smallest)) == []


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_enumeration_loop_blocks_every_minimal_transversal_once(data):
    # the search driven as `iterate_explanations` drives it on an ensemble,
    # against a hidden family: it starts from no set, an answer that hits
    # every hidden set is accepted, as an AXp is, and otherwise a hidden set
    # disjoint from it is appended, as a CXp is.  The accepted answers are
    # exactly the minimal transversals of the hidden family, each accepted
    # once, and with smallest=True they come in non-decreasing size
    n = data.draw(st.integers(1, 12))
    universe = data.draw(st.permutations(range(n)))
    hidden = data.draw(st.lists(
        st.frozensets(st.integers(0, n - 1), min_size=1, max_size=6),
        min_size=1, max_size=10))
    smallest = data.draw(st.booleans())
    sets = []
    accepted = []
    for h in minimal_hitting_sets(n, sets, smallest):
        found = to_elements(universe, h)
        missed = [s for s in hidden if not s & found]
        if missed:
            sets.append(to_mask(universe, data.draw(st.sampled_from(missed))))
        else:
            accepted.append(found)
    assert len(accepted) == len(set(accepted))
    assert set(accepted) == minimal_transversals(hidden)
    if smallest:
        assert [len(b) for b in accepted] == sorted(len(b) for b in accepted)


def fewest_nodes(run):
    """The smallest node budget under which `run(budget)` finishes; the
    budget counts the states popped between two answers, so more is never
    worse."""
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


# per family: the fewest nodes for the first answer of `minimal_hitting_sets`
# and for all of them (the most popped between two answers, or after the
# last), without and with smallest=True
PINNED_FIXED_FAMILY_NODES = [
    (8, 8, 119, 119), (4, 4, 22, 33), (7, 7, 37, 99), (5, 5, 18, 18),
    (5, 5, 19, 109), (5, 5, 22, 127), (7, 7, 41, 72), (6, 6, 38, 38),
    (3, 4, 8, 20), (5, 5, 11, 52),
]


def test_fixed_family_node_counts_are_pinned():
    rng = random.Random(2025)
    counts = []
    for _ in range(10):
        n = rng.randint(10, 18)
        universe = rng.sample(range(n), n)
        inst = hs(universe, [rng.sample(range(n), rng.randint(2, 6))
                             for _ in range(rng.randint(6, 14))])
        family = []
        for smallest in (False, True):
            def first(budget):
                answers = minimal_hitting_sets(
                    n, [to_mask(universe, s) for s in inst.to_hit], smallest, budget)
                next(answers)

            def every(budget):
                fixed_family_hitting_sets(inst, smallest, budget)

            for run in (first, every):
                k = fewest_nodes(run)
                with pytest.raises(BudgetExceeded):
                    run(k - 1)
                family.append(k)
        counts.append(tuple(family))
    assert counts == PINNED_FIXED_FAMILY_NODES


# per hidden family: the fewest nodes for the whole growing search as
# `every_minimal_hitting_set` drives it (the most popped between two
# answers, or after the last), without and with smallest=True
PINNED_GROWING_FAMILY_NODES = [
    (2, 10), (7, 33), (5, 95), (4, 24), (7, 53), (2, 7), (4, 34), (4, 19),
    (6, 48), (4, 39),
]


def test_growing_family_node_counts_are_pinned():
    # how many states the search pops is its branching, its pruning and its
    # refreshing of saved states; the Berge comparisons cannot see a change
    # there
    rng = random.Random(2026)
    counts = []
    for _ in range(10):
        n = rng.randint(10, 18)
        universe = rng.sample(range(n), n)
        inst = hs(universe, [rng.sample(range(n), rng.randint(2, 6))
                             for _ in range(rng.randint(6, 14))])
        family = []
        for smallest in (False, True):
            def every(budget):
                every_minimal_hitting_set(inst, smallest, budget)

            k = fewest_nodes(every)
            with pytest.raises(BudgetExceeded):
                every(k - 1)
            family.append(k)
        counts.append(tuple(family))
    assert counts == PINNED_GROWING_FAMILY_NODES


def _check_dualization():
    spec = importlib.util.spec_from_file_location("check_dualization", CHECK_DUALIZATION)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_oracle_choice_on_every_small_clutter(capsys):
    # scripts/check_dualization.py at 4 elements: every choice of appended
    # set, on every clutter, in both modes, against Berge
    check = _check_dualization()
    assert check.main(["4"]) == 0
    assert capsys.readouterr().out == "n=4: 167 clutters, 1656 runs, all match Berge\n"
    # a search that never yields {0, 1} fails on the clutter {{0}, {1}}
    search = check.minimal_hitting_sets
    check.minimal_hitting_sets = lambda *args: (h for h in search(*args) if h != 0b11)
    assert check.main(["2"]) == 1
    assert capsys.readouterr().out.startswith("FAIL: clutter [1, 2], smallest=False")
