import itertools

import pytest

from conftest import A, L, READS, SKIPS, T, W
from dualxp.model import Instance, PartialAssignment
from dualxp.oracle import Oracle, OracleStats, SearchSpaceExceeded, raw_predict
from dualxp.synth import synthetic_ensemble


def test_predict_goldens(poole, e1, e2):
    oracle = Oracle(poole)
    assert oracle.predict(e1) == SKIPS
    assert oracle.predict(e2) == READS


def test_predict_constant(constant_tree):
    oracle = Oracle(constant_tree)
    for values in itertools.product(range(2), range(2)):
        assert oracle.predict(Instance(values)) == 0


def test_entails_goldens(poole):
    oracle = Oracle(poole)
    assert oracle.entails(PartialAssignment.of([(L, 1), (T, 0)]), READS)
    # L=short alone is not sufficient: T=followUp, A=unknown reaches skips
    assert not oracle.entails(PartialAssignment.of([(L, 1)]), READS)
    assert oracle.entails(PartialAssignment.of([(L, 0)]), SKIPS)
    assert not oracle.entails(PartialAssignment.empty(), READS)
    assert not oracle.entails(PartialAssignment.empty(), SKIPS)


def test_find_counterexample_goldens(poole, e2):
    oracle = Oracle(poole)
    cex = oracle.find_counterexample(e2.restrict({A, T, W}), frozenset({SKIPS}))
    # L=long forces skips; lexicographically first completion keeps W=work
    assert cex == Instance((0, 0, 0, 1))
    assert oracle.find_counterexample(
        e2.restrict({L, T}), frozenset({SKIPS})
    ) is None
    assert oracle.find_counterexample(
        e2.assignment(), frozenset({READS})
    ) == e2


def test_find_counterexample_lexicographic(poole):
    # free features take the first domain value that keeps the target reachable
    oracle = Oracle(poole)
    cex = oracle.find_counterexample(PartialAssignment.empty(), frozenset({SKIPS}))
    assert cex == Instance((0, 0, 0, 0))
    cex = oracle.find_counterexample(PartialAssignment.empty(), frozenset({READS}))
    assert cex == Instance((0, 0, 1, 0))


def _brute_entails(tree, sigma, target):
    space = tree.space
    fixed = {l.feature: l.value for l in sigma.literals}
    free = [f for f in range(space.n_features) if f not in fixed]
    for combo in itertools.product(*(range(space.domain_size(f)) for f in free)):
        values = [fixed.get(f) for f in range(space.n_features)]
        for f, v in zip(free, combo):
            values[f] = v
        if raw_predict(tree, tuple(values)) != target:
            return False
    return True


def test_tree_oracle_matches_brute_force(small_corpus):
    for tree, instance in small_corpus:
        oracle = Oracle(tree)
        pi = oracle.predict(instance)
        for keep in itertools.combinations(range(instance.n_features), 2):
            sigma = instance.restrict(keep)
            assert oracle.entails(sigma, pi) == _brute_entails(tree, sigma, pi)


def test_entails_iff_no_counterexample(small_corpus):
    for tree, instance in small_corpus[:60]:
        oracle = Oracle(tree)
        pi = oracle.predict(instance)
        others = frozenset(range(tree.n_classes)) - {pi}
        for r in range(instance.n_features + 1):
            sigma = instance.restrict(range(r))
            assert oracle.entails(sigma, pi) == (
                oracle.find_counterexample(sigma, others) is None
            )


def test_entailment_anti_monotone(small_corpus):
    for tree, instance in small_corpus[:60]:
        oracle = Oracle(tree)
        pi = oracle.predict(instance)
        for r in range(instance.n_features):
            smaller = instance.restrict(range(r))
            larger = instance.restrict(range(r + 1))
            if oracle.entails(smaller, pi):
                assert oracle.entails(larger, pi)


def test_stats_counting(poole, e2):
    stats = OracleStats()
    oracle = Oracle(poole, stats)
    oracle.predict(e2)
    oracle.entails(e2.assignment(), READS)
    oracle.find_counterexample(PartialAssignment.empty(), frozenset({SKIPS}))
    assert stats.predict_calls == 1
    assert stats.entailment_calls == 1
    assert stats.witness_calls == 1
    assert stats.total_calls == 3


def test_ensemble_predict_deterministic_ties():
    from dualxp.model import (AdditiveEnsemble, FeatureSpace, Leaf,
                              TreeStructure, validated)

    space = FeatureSpace(("x",), (("a", "b"),))
    # identical scores for both classes: tie broken toward class 0
    tie = validated(AdditiveEnsemble(
        space, ("c0", "c1"),
        ((TreeStructure((Leaf(5),), 0),), (TreeStructure((Leaf(5),), 0),)),
        scale=1,
    ))
    assert Oracle(tie).predict(Instance((0,))) == 0


def test_ensemble_oracle_matches_brute_force():
    ensemble = synthetic_ensemble(n_features=6, trees_per_class=3)
    oracle = Oracle(ensemble)
    instance = Instance((0, 1, 0, 1, 1, 0))
    pi = oracle.predict(instance)
    others = frozenset(range(2)) - {pi}
    for keep in itertools.combinations(range(6), 3):
        sigma = instance.restrict(keep)
        assert oracle.entails(sigma, pi) == _brute_entails(ensemble, sigma, pi)
        assert oracle.entails(sigma, pi) == (
            oracle.find_counterexample(sigma, others) is None
        )


def test_ensemble_cap():
    ensemble = synthetic_ensemble(n_features=10)
    oracle = Oracle(ensemble, completion_cap=16)
    with pytest.raises(SearchSpaceExceeded):
        oracle.entails(PartialAssignment.empty(), 0)
