import itertools

import pytest

from conftest import A, L, T, W
from dualxp.dual import (
    EnumerationState,
    TooLarge,
    brute_force_explanations,
    enumerate_all,
    iterate_explanations,
    verify_duality,
)
from dualxp.explain import CXp, check_axp, check_cxp, make_problem
from dualxp.model import Instance
from dualxp.oracle import Oracle


def problem_for(classifier, instance):
    return make_problem(Oracle(classifier), instance)


def cxps_found(problem):
    return [e.features for e in iterate_explanations(problem) if isinstance(e, CXp)]


def test_enumerate_cxps_goldens(poole, e1, e2):
    # CXp-only enumeration is the joint loop's CXps, in discovery order
    assert cxps_found(problem_for(poole, e1)) == [frozenset({L})]
    assert cxps_found(problem_for(poole, e2)) == [
        frozenset({L}), frozenset({T, A}),
    ]


def test_iterate_explanations_stops_early(poole, e2):
    state = EnumerationState()
    first = next(iterate_explanations(problem_for(poole, e2), state=state))
    assert state.iterations == 1
    assert state.axps + state.cxps == [first]


def test_iterate_explanations_continues_from_state(small_corpus):
    # a new call on a state that already holds explanations picks up the
    # enumeration exactly where the first call stopped
    for tree, instance in small_corpus[:20]:
        problem = problem_for(tree, instance)
        for smallest in (False, True):
            full = list(iterate_explanations(problem, smallest=smallest))
            for stop in range(len(full) + 1):
                state = EnumerationState()
                head = list(itertools.islice(
                    iterate_explanations(problem, smallest=smallest, state=state), stop))
                tail = list(iterate_explanations(problem, smallest=smallest, state=state))
                assert head + tail == full


def test_enumerate_all_goldens(poole, e1, e2):
    axps, cxps = enumerate_all(problem_for(poole, e2))
    assert {a.features for a in axps} == {frozenset({L, T}), frozenset({L, A})}
    assert {c.features for c in cxps} == {frozenset({L}), frozenset({T, A})}

    axps, cxps = enumerate_all(problem_for(poole, e1))
    assert {a.features for a in axps} == {frozenset({L})}
    assert {c.features for c in cxps} == {frozenset({L})}


def test_enumerate_all_constant(constant_tree):
    axps, cxps = enumerate_all(problem_for(constant_tree, Instance((0, 0))))
    assert [a.features for a in axps] == [frozenset()]
    assert cxps == []


def test_enumerate_all_outputs_pass_checkers(small_corpus):
    for tree, instance in small_corpus[:40]:
        problem = problem_for(tree, instance)
        axps, cxps = enumerate_all(problem)
        for a in axps:
            assert check_axp(problem, a) == []
        for c in cxps:
            assert check_cxp(problem, c) == []
        # no reported set contains another
        afs = [a.features for a in axps]
        cfs = [c.features for c in cxps]
        for fam in (afs, cfs):
            for x in fam:
                assert not any(y < x for y in fam)
        assert len(set(afs)) == len(afs)
        assert len(set(cfs)) == len(cfs)


def test_enumerate_all_matches_brute_force(small_corpus):
    for tree, instance in small_corpus:
        axps, cxps = enumerate_all(problem_for(tree, instance))
        bf_axps, bf_cxps = brute_force_explanations(tree, instance)
        assert {a.features for a in axps} == set(bf_axps)
        assert {c.features for c in cxps} == set(bf_cxps)


def test_enumerate_all_smallest_mode(poole, e2):
    axps, cxps = enumerate_all(problem_for(poole, e2), smallest=True)
    sizes = [len(a.features) for a in axps]
    assert sizes == sorted(sizes)
    assert {a.features for a in axps} == {frozenset({L, T}), frozenset({L, A})}


def test_enumerate_all_iteration_bound(small_corpus):
    # the main loop runs once per reported explanation plus the final failure
    for tree, instance in small_corpus[:40]:
        problem = problem_for(tree, instance)
        state = EnumerationState()
        axps, cxps = enumerate_all(problem, state=state)
        assert state.iterations <= len(axps) + len(cxps) + 1


def test_verify_duality_pass(poole, e1, e2):
    for inst in (e1, e2):
        axps, cxps = enumerate_all(problem_for(poole, inst))
        report = verify_duality([a.features for a in axps],
                                [c.features for c in cxps])
        assert report.ok, report.violations


def test_verify_duality_detects_violation():
    report = verify_duality([frozenset({0})], [frozenset({1})])
    assert not report.ok
    assert any("does not hit" in v for v in report.violations)


def test_verify_duality_detects_non_minimal():
    report = verify_duality(
        [frozenset({0}), frozenset({0, 1})], [frozenset({0})]
    )
    assert not report.ok


def test_brute_force_goldens(poole, e1, e2):
    axps, cxps = brute_force_explanations(poole, e1)
    assert (set(axps), set(cxps)) == ({frozenset({L})}, {frozenset({L})})
    axps, cxps = brute_force_explanations(poole, e2)
    assert set(axps) == {frozenset({L, T}), frozenset({L, A})}
    assert set(cxps) == {frozenset({L}), frozenset({T, A})}


def test_brute_force_constant(constant_tree):
    axps, cxps = brute_force_explanations(constant_tree, Instance((0, 0)))
    assert axps == [frozenset()]
    assert cxps == []


def test_brute_force_cap():
    import random

    from dualxp.synth import random_instance, random_space, random_tree

    rng = random.Random(0)
    space = random_space(rng, 17, (2, 2))
    tree = random_tree(rng, space, 2)
    with pytest.raises(TooLarge):
        brute_force_explanations(tree, random_instance(rng, space))


def test_duality_holds_on_brute_force_outputs(small_corpus):
    for tree, instance in small_corpus[:60]:
        axps, cxps = brute_force_explanations(tree, instance)
        assert verify_duality(axps, cxps).ok
