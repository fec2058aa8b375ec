import itertools
import random

import pytest

from conftest import (A, L, SKIPS, T, W, random_shared_tree, shared_chain,
                      shared_children_tree)
from dualxp.bundled import synthetic_ensemble_model, synthetic_instances_csv
from dualxp.dual import (
    EnumerationState,
    TooLarge,
    brute_force_corrections,
    brute_force_explanations,
    enumerate_all,
    iterate_explanations,
    verify_duality,
)
from dualxp.explain import AXp, CXp, check_axp, check_cxp, make_problem
from dualxp.model import DecisionTree, Instance, ModelError
from dualxp.modelio import parse_instances
from dualxp.oracle import Oracle
from dualxp.reporting import collect_stats
from dualxp.synth import (random_instance, random_space, random_tree,
                          synthetic_ensemble)


def problem_for(classifier, instance):
    return make_problem(Oracle(classifier), instance)


def cxps_found(problem):
    return [e.features for e in iterate_explanations(problem) if isinstance(e, CXp)]


def test_enumerate_cxps_goldens(poole, e1, e2):
    # CXp-only enumeration is the full enumeration's CXps; Poole is a tree,
    # so they come from its path walk, by size and then feature order
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
    # enumeration where the first call stopped: it reports each explanation
    # the first call did not, once.  A tree's walk and its solver's answers
    # do not depend on where the first call stopped, so there the second
    # call reports exactly the rest of a full run.  On an ensemble, a full
    # run's solver resumes its search after each CXp, while the second call
    # seeds a new solver with the first call's CXps, so the order may differ
    shared = shared_children_tree()
    ensemble = synthetic_ensemble(n_features=5, trees_per_class=3)
    rng = random.Random(5)
    inputs = small_corpus[:20] + [
        (shared, Instance((1, 0, 1))), (shared, Instance((0, 2, 0))),
    ] + [(ensemble, random_instance(rng, ensemble.space)) for _ in range(3)]
    for seed in (0, 1):
        wider = synthetic_ensemble(seed, n_features=8, trees_per_class=4, depth=3)
        inputs += [(wider, random_instance(rng, wider.space)) for _ in range(3)]
    for model, instance in inputs:
        problem = problem_for(model, instance)
        for smallest in (False, True):
            full = list(iterate_explanations(problem, smallest=smallest))
            for stop in range(len(full) + 1):
                state = EnumerationState()
                head = list(itertools.islice(
                    iterate_explanations(problem, smallest=smallest, state=state), stop))
                tail = list(iterate_explanations(problem, smallest=smallest, state=state))
                if isinstance(model, DecisionTree):
                    assert head + tail == full
                else:
                    assert len(set(head + tail)) == len(head + tail)
                    assert set(head + tail) == set(full)


def test_bundled_ensemble_enumeration_is_pinned():
    # the family sizes and the oracle calls that found them, over the 100
    # bundled rows: a change to the ensemble's witness sequence moves the
    # call count even when the families stay the same
    ensemble = synthetic_ensemble_model()
    report = collect_stats(ensemble,
                           parse_instances(synthetic_instances_csv(), ensemble.space))
    assert len(report.rows) == 100
    assert (report.total_axps, report.total_cxps, report.total_oracle_calls) == (
        737, 848, 4819)


def _tree_reference_inputs():
    """Random trees above the brute-force cap and trees whose splits share
    children, with instances and, on three classes, a targeted question."""
    rng = random.Random(17)
    models = [shared_children_tree(), shared_chain(12)]
    for _ in range(12):
        space = random_space(rng, rng.randint(17, 24), (2, 3))
        models.append(random_tree(rng, space, rng.randint(2, 3), max_depth=9,
                                  leaf_prob=0.1))
    for _ in range(25):
        space = random_space(rng, rng.randint(3, 10), (2, 3))
        models.append(random_shared_tree(rng, space, rng.randint(2, 3),
                                         rng.randint(3, 30)))
    for model in models:
        for _ in range(4):
            instance = random_instance(rng, model.space)
            basic = make_problem(Oracle(model), instance)
            yield basic
            if model.n_classes > 2:
                other = (basic.predicted + 1) % model.n_classes
                yield make_problem(Oracle(model), instance, targets={other})


def test_tree_enumeration_matches_joint_loop():
    # the path walk and the hitting-set phase, under a random feature order,
    # against checks that share no code with either: Berge dualization and
    # direct oracle queries.  Together they pin the whole family: a missing
    # CXp would be a hitting set of the reported AXps, so it would contain a
    # reported CXp, which minimality forbids; and the exact dual of the
    # complete CXp family is every AXp
    rng = random.Random(3)
    for problem in _tree_reference_inputs():
        order = list(range(problem.n_features))
        rng.shuffle(order)
        for smallest in (False, True):
            calls = problem.oracle.stats.total_calls
            found = list(iterate_explanations(problem, order, smallest))
            assert problem.oracle.stats.total_calls == calls  # no queries
            axps = [e.features for e in found if isinstance(e, AXp)]
            cxps = [e.features for e in found if isinstance(e, CXp)]
            assert len(set(axps)) == len(axps)
            assert len(set(cxps)) == len(cxps)
            report = verify_duality(axps, cxps)
            assert report.ok, report.violations
            # every CXp first, by size and then by position in `order`
            kinds = [isinstance(e, CXp) for e in found]
            assert kinds == sorted(kinds, reverse=True)
            rank = {f: i for i, f in enumerate(order)}
            keys = [(len(c), sorted(rank[f] for f in c)) for c in cxps]
            assert keys == sorted(keys)
            for e in found:
                check = check_cxp if isinstance(e, CXp) else check_axp
                assert check(problem, e) == []


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
    shared = shared_children_tree()
    ensemble = synthetic_ensemble(n_features=5, trees_per_class=3)
    rng = random.Random(11)
    inputs = small_corpus[:40] + [
        (shared, Instance((1, 0, 1))), (shared, Instance((0, 2, 0))),
    ] + [(ensemble, random_instance(rng, ensemble.space)) for _ in range(5)]
    for model, instance in inputs:
        for smallest in (False, True):
            state = EnumerationState()
            axps, cxps = enumerate_all(problem_for(model, instance), smallest=smallest,
                                       state=state)
            assert state.iterations == len(axps) + len(cxps) + 1


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


def test_brute_force_rejects_instances_that_do_not_fit(poole):
    # a negative value would index a child from the end and describe a point
    # that does not exist
    for values in ((0, 0, -1, 0), (0, 0, 2, 0), (0, 0), (0, 0, 0, 0, 0)):
        with pytest.raises(ModelError):
            brute_force_explanations(poole, Instance(values))
        with pytest.raises(ModelError):
            brute_force_corrections(poole, Instance(values), frozenset({SKIPS}))


def test_duality_holds_on_brute_force_outputs(small_corpus):
    for tree, instance in small_corpus[:60]:
        axps, cxps = brute_force_explanations(tree, instance)
        assert verify_duality(axps, cxps).ok
