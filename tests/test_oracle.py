import itertools

import pytest

from conftest import A, L, READS, SKIPS, T, W
from dualxp.model import (DecisionTree, FeatureSpace, Instance, Leaf, Split,
                          TreeStructure, validated)
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


def test_entails_goldens(poole, e2):
    oracle = Oracle(poole)
    # L=short, T=new; A and W are not kept, so their values do not matter
    short_new = Instance((0, 0, 1, 0))
    assert oracle.entails(short_new, {L, T}, READS)
    # L=short alone is not sufficient: T=followUp, A=unknown reaches skips
    assert not oracle.entails(short_new, {L}, READS)
    assert oracle.entails(Instance((0, 0, 0, 0)), {L}, SKIPS)
    assert not oracle.entails(e2, set(), READS)
    assert not oracle.entails(e2, set(), SKIPS)


def test_find_counterexample_goldens(poole, e2):
    oracle = Oracle(poole)
    cex = oracle.find_counterexample(e2, {A, T, W}, frozenset({SKIPS}))
    # L=long forces skips; lexicographically first completion keeps W=work
    assert cex == Instance((0, 0, 0, 1))
    assert oracle.find_counterexample(e2, {L, T}, frozenset({SKIPS})) is None
    assert oracle.find_counterexample(e2, {A, T, L, W}, frozenset({READS})) == e2


def test_find_counterexample_lexicographic(poole, e2):
    # free features take the first domain value that keeps the target reachable
    oracle = Oracle(poole)
    cex = oracle.find_counterexample(e2, set(), frozenset({SKIPS}))
    assert cex == Instance((0, 0, 0, 0))
    cex = oracle.find_counterexample(e2, set(), frozenset({READS}))
    assert cex == Instance((0, 0, 1, 0))


def _completions(classifier, instance, kept):
    """Every completion of the kept features of `instance`, in lexicographic
    order, with its raw prediction."""
    space = classifier.space
    domains = [
        (instance.values[f],) if f in kept else range(space.domain_size(f))
        for f in range(space.n_features)
    ]
    for values in itertools.product(*domains):
        yield values, raw_predict(classifier, values)


def _brute_entails(classifier, instance, kept, target):
    return all(p == target for _, p in _completions(classifier, instance, kept))


def _shared_children_tree():
    """A tree whose splits share children, built without the parser: node 3
    is reached three ways and node 4 two ways, so a search that does not
    remember visited nodes expands them again."""
    space = FeatureSpace(("X", "Y", "Z"), (("a", "b"), ("0", "1", "2"), ("p", "q")))
    return validated(DecisionTree(space, ("k0", "k1", "k2"), TreeStructure((
        Split(0, (1, 2)),
        Split(1, (3, 4, 3)),
        Split(1, (4, 3, 5)),
        Split(2, (6, 7)),
        Leaf(2),
        Leaf(0),
        Leaf(0),
        Leaf(1),
    ), 0)))


def test_tree_oracle_matches_brute_force(small_corpus):
    # every kept subset and every non-empty target set, against exhaustive
    # enumeration of the completions in lexicographic order
    shared = _shared_children_tree()
    corpus = small_corpus + [
        (shared, Instance(values))
        for values in itertools.product(range(2), range(3), range(2))
    ]
    for tree, instance in corpus:
        oracle = Oracle(tree)
        classes = range(tree.n_classes)
        target_sets = [
            frozenset(ts) for r in range(1, tree.n_classes + 1)
            for ts in itertools.combinations(classes, r)
        ]
        for r in range(instance.n_features + 1):
            for kept in map(set, itertools.combinations(range(instance.n_features), r)):
                completions = list(_completions(tree, instance, kept))
                for c in classes:
                    assert oracle.entails(instance, kept, c) == _brute_entails(
                        tree, instance, kept, c)
                for targets in target_sets:
                    first = next(
                        (Instance(v) for v, p in completions if p in targets), None)
                    assert oracle.find_counterexample(instance, kept, targets) == first


def test_entails_iff_no_counterexample(small_corpus):
    for tree, instance in small_corpus[:60]:
        oracle = Oracle(tree)
        pi = oracle.predict(instance)
        others = frozenset(range(tree.n_classes)) - {pi}
        for r in range(instance.n_features + 1):
            kept = set(range(r))
            assert oracle.entails(instance, kept, pi) == (
                oracle.find_counterexample(instance, kept, others) is None
            )


def test_entailment_anti_monotone(small_corpus):
    for tree, instance in small_corpus[:60]:
        oracle = Oracle(tree)
        pi = oracle.predict(instance)
        for r in range(instance.n_features):
            if oracle.entails(instance, set(range(r)), pi):
                assert oracle.entails(instance, set(range(r + 1)), pi)


def test_stats_counting(poole, e2):
    stats = OracleStats()
    oracle = Oracle(poole, stats)
    oracle.predict(e2)
    oracle.entails(e2, {A, T, L, W}, READS)
    oracle.find_counterexample(e2, set(), frozenset({SKIPS}))
    assert stats.predict_calls == 1
    assert stats.entailment_calls == 1
    assert stats.witness_calls == 1
    assert stats.total_calls == 3


def test_ensemble_predict_deterministic_ties():
    from dualxp.model import AdditiveEnsemble

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
    for kept in map(set, itertools.combinations(range(6), 3)):
        assert oracle.entails(instance, kept, pi) == _brute_entails(
            ensemble, instance, kept, pi)
        assert oracle.entails(instance, kept, pi) == (
            oracle.find_counterexample(instance, kept, others) is None
        )


def test_ensemble_cap():
    ensemble = synthetic_ensemble(n_features=10)
    oracle = Oracle(ensemble, completion_cap=16)
    with pytest.raises(SearchSpaceExceeded):
        oracle.entails(Instance((0,) * 10), set(), 0)
