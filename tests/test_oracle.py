import functools
import itertools
import random

import pytest

from conftest import (A, L, READS, SKIPS, T, W, random_shared_tree,
                      shared_chain, shared_children_tree)
from dualxp.model import (AdditiveEnsemble, DecisionTree, FeatureSpace,
                          Instance, Leaf, ModelError, Split, TreeStructure,
                          validated)
from dualxp.oracle import (Oracle, SearchSpaceExceeded, _tree_disagreement_sets,
                           raw_predict)
from dualxp.synth import (random_instance, random_space, random_tree,
                          synthetic_ensemble)


def test_predict_goldens(poole, e1, e2):
    oracle = Oracle(poole)
    assert oracle.predict(e1) == SKIPS
    assert oracle.predict(e2) == READS


def test_predict_rejects_instances_that_do_not_fit(poole):
    # a negative value would index a child from the end, and a short
    # instance would end in an IndexError inside the walk
    oracle = Oracle(poole)
    for values in ((0, 0, -1, 0), (0, 0, 2, 0), (0, 0), (0, 0, 0, 0, 0)):
        with pytest.raises(ModelError):
            oracle.predict(Instance(values))


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


def _node_walk(tree, values):
    """Leaf value reached by `values`, walking the Leaf/Split node objects."""
    node = tree.nodes[tree.root]
    while isinstance(node, Split):
        node = tree.nodes[node.children[values[node.feature]]]
    return node.value


def _reference_predict(classifier, values):
    """Class index of a full assignment: the tree's leaf class, or the
    ensemble's highest summed score, ties to the lowest class index."""
    if isinstance(classifier, DecisionTree):
        return _node_walk(classifier.tree, values)
    scores = [sum(_node_walk(tree, values) for tree in group)
              for group in classifier.trees]
    return max(range(len(scores)), key=lambda c: (scores[c], -c))


def _completions(classifier, instance, kept):
    """Every completion of the kept features of `instance`, in lexicographic
    order, with its prediction by the reference walk."""
    space = classifier.space
    domains = [
        (instance.values[f],) if f in kept else range(space.domain_size(f))
        for f in range(space.n_features)
    ]
    for values in itertools.product(*domains):
        yield values, _reference_predict(classifier, values)


def _target_sets(n_classes):
    return [frozenset(ts) for r in range(1, n_classes + 1)
            for ts in itertools.combinations(range(n_classes), r)]


def _check_against_completions(classifier, instance):
    """Over every kept subset: `entails` for every class and
    `find_counterexample` for every non-empty target set against the
    lexicographically ordered completions."""
    oracle = Oracle(classifier)
    n = instance.n_features
    for kept in map(set, itertools.chain.from_iterable(
            itertools.combinations(range(n), r) for r in range(n + 1))):
        completions = list(_completions(classifier, instance, kept))
        for c in range(classifier.n_classes):
            assert oracle.entails(instance, kept, c) == all(
                p == c for _, p in completions)
        for targets in _target_sets(classifier.n_classes):
            first = next(
                (Instance(v) for v, p in completions if p in targets), None)
            assert oracle.find_counterexample(instance, kept, targets) == first


def test_tree_oracle_matches_brute_force(small_corpus):
    # every kept subset and every non-empty target set, against exhaustive
    # enumeration of the completions in lexicographic order
    shared = shared_children_tree()
    corpus = small_corpus + [
        (shared, Instance(values))
        for values in itertools.product(range(2), range(3), range(2))
    ]
    for tree, instance in corpus:
        _check_against_completions(tree, instance)


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


def test_reaches_iff_counterexample(small_corpus):
    # every non-empty target set, on trees and on a small ensemble, with
    # one entailment query counted per call
    rng = random.Random(4)
    ensemble = synthetic_ensemble(n_features=5, trees_per_class=3)
    inputs = small_corpus[:30] + [
        (ensemble, random_instance(rng, ensemble.space)) for _ in range(5)]
    for model, instance in inputs:
        oracle = Oracle(model)
        for r in range(1, model.n_classes + 1):
            for targets in map(frozenset, itertools.combinations(range(model.n_classes), r)):
                kept = {f for f in range(instance.n_features) if rng.random() < 0.5}
                before = oracle.stats.entailment_calls
                assert oracle.reaches(instance, kept, targets) == (
                    oracle.find_counterexample(instance, kept, targets) is not None)
                assert oracle.stats.entailment_calls == before + 1


def test_entailment_anti_monotone(small_corpus):
    for tree, instance in small_corpus[:60]:
        oracle = Oracle(tree)
        pi = oracle.predict(instance)
        for r in range(instance.n_features):
            if oracle.entails(instance, set(range(r)), pi):
                assert oracle.entails(instance, set(range(r + 1)), pi)


def test_stats_counting(poole, e2):
    oracle = Oracle(poole)
    stats = oracle.stats
    oracle.predict(e2)
    oracle.entails(e2, {A, T, L, W}, READS)
    oracle.find_counterexample(e2, set(), frozenset({SKIPS}))
    assert stats.predict_calls == 1
    assert stats.entailment_calls == 1
    assert stats.witness_calls == 1
    assert stats.total_calls == 3


def test_minimal_sufficient_rejects_non_feature_candidates(poole, e2):
    # a tree walk would index past its features or from the end, and an
    # ensemble's would ignore the entry
    ensemble = synthetic_ensemble(n_features=6, trees_per_class=3)
    for model, instance in ((poole, e2), (ensemble, Instance((0,) * 6))):
        oracle = Oracle(model)
        n = model.space.n_features
        targets = frozenset(range(model.n_classes)) - {oracle.predict(instance)}
        assert oracle.minimal_sufficient(instance, range(n), targets) is not None
        for bad in (99, n, -1):
            with pytest.raises(ModelError, match=rf"candidates \[{bad}\]"):
                oracle.minimal_sufficient(instance, [0, bad, 1], targets)


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


def _small_ensemble(rng, n_features, trees_per_class, n_classes=3):
    """A random ensemble over domains of 2 to 4 values whose leaf scores
    are 0 to 2, so that class scores often tie."""
    space = random_space(rng, n_features, (2, 4))
    return validated(AdditiveEnsemble(
        space, tuple(f"c{i}" for i in range(n_classes)),
        tuple(tuple(random_tree(rng, space, 3).tree
                    for _ in range(trees_per_class))
              for _ in range(n_classes)),
        scale=1,
    ))


def test_ensemble_oracle_matches_brute_force():
    rng = random.Random(3)
    cases = [(synthetic_ensemble(n_features=6, trees_per_class=3), 4),
             (_small_ensemble(rng, 4, 3), 5)]
    for ensemble, n_instances in cases:
        for _ in range(n_instances):
            _check_against_completions(
                ensemble, random_instance(rng, ensemble.space))


def test_compiled_walk_matches_node_walk(monkeypatch):
    built = []
    lazy = TreeStructure.__dict__["arrays"]

    def counted(tree):
        built.append(tree)
        return lazy.func(tree)

    counting = functools.cached_property(counted)
    counting.__set_name__(TreeStructure, "arrays")
    monkeypatch.setattr(TreeStructure, "arrays", counting)

    rng = random.Random(11)
    models = [shared_children_tree()]
    for _ in range(30):
        space = random_space(rng, rng.randint(2, 6), (2, 4))
        models.append(random_tree(rng, space, 3, max_depth=5))
    for _ in range(10):
        models.append(_small_ensemble(rng, rng.randint(2, 6), rng.randint(1, 4)))
    ties = 0
    for model in models:
        trees = ([model.tree] if isinstance(model, DecisionTree)
                 else [t for group in model.trees for t in group])
        assert not any("arrays" in t.__dict__ for t in trees)
        first, second = Oracle(model), Oracle(model)
        points = [random_instance(rng, model.space) for _ in range(40)]
        for i, point in enumerate(points):
            expected = _reference_predict(model, point.values)
            assert raw_predict(model, point.values) == expected
            assert (first if i % 2 else second).predict(point) == expected
            if isinstance(model, AdditiveEnsemble):
                scores = [sum(_node_walk(t, point.values) for t in group)
                          for group in model.trees]
                ties += scores.count(max(scores)) > 1
        # compiled once per tree object, and shared by both oracles
        assert sorted(map(id, built)) == sorted(map(id, trees))
        built.clear()
    assert ties > 0


def test_ensemble_cap():
    ensemble = synthetic_ensemble(n_features=10)
    oracle = Oracle(ensemble, completion_cap=16)
    with pytest.raises(SearchSpaceExceeded):
        oracle.entails(Instance((0,) * 10), set(), 0)

    # the cap bounds the product of the free features' domain sizes (2, 3,
    # 1 and 4 here); a product equal to the cap is answered, and kept
    # features count for nothing
    rng = random.Random(5)
    space = FeatureSpace(("a", "b", "c", "d"), (("0", "1"), ("0", "1", "2"),
                                                ("0",), ("0", "1", "2", "3")))
    mixed = validated(AdditiveEnsemble(
        space, ("c0", "c1"),
        tuple(tuple(random_tree(rng, space, 3).tree for _ in range(2))
              for _ in range(2)),
        scale=1))
    point = Instance((1, 2, 0, 3))
    both = frozenset({0, 1})
    oracle = Oracle(mixed, completion_cap=8)
    for kept in ({1}, {1, 2}, {0, 1, 2, 3}):  # free product 8, 8 and 1
        assert oracle.reaches(point, kept, both)
        assert oracle.find_counterexample(point, kept, both) is not None
    too_many = r"free-feature product exceeds the completion cap \(8\)"
    for kept in ({2}, set()):  # b freed as well: 24
        with pytest.raises(SearchSpaceExceeded, match=too_many):
            oracle.reaches(point, kept, both)
        with pytest.raises(SearchSpaceExceeded, match=too_many):
            oracle.find_counterexample(point, kept, both)
    with pytest.raises(SearchSpaceExceeded):
        Oracle(mixed, completion_cap=7).reaches(point, {1}, both)


def _naive_disagreement_sets(tree, values, targets):
    """The disagreement set of every root-to-target-leaf path, by plain
    recursion over the node objects, keeping the subset-minimal ones."""
    sets = set()

    def walk(node_id, differs):
        node = tree.nodes[node_id]
        if isinstance(node, Leaf):
            if node.value in targets:
                sets.add(differs)
            return
        for v, kid in enumerate(node.children):
            walk(kid, differs if v == values[node.feature] else differs | {node.feature})

    walk(tree.root, frozenset())
    return {s for s in sets if not any(o < s for o in sets)}


def test_disagreement_walk_matches_naive_reference():
    # every non-empty target set that excludes the prediction, on trees
    # whose splits share children; the walk's order is free, so compare sets
    rng = random.Random(29)
    cases = [(shared_children_tree(), list(itertools.product(range(2), range(3), range(2))))]
    chain = shared_chain(12)
    cases.append((chain, [random_instance(rng, chain.space).values for _ in range(6)]))
    for _ in range(40):
        space = random_space(rng, rng.randint(3, 10), (2, 3))
        model = random_shared_tree(rng, space, rng.randint(2, 3), rng.randint(3, 30))
        cases.append((model, [random_instance(rng, space).values for _ in range(4)]))
    for model, points in cases:
        for values in points:
            others = set(range(model.n_classes)) - {raw_predict(model, values)}
            for r in range(1, len(others) + 1):
                for targets in map(frozenset, itertools.combinations(sorted(others), r)):
                    found = _tree_disagreement_sets(model.tree, values, targets)
                    assert len(set(found)) == len(found)
                    assert set(found) == _naive_disagreement_sets(model.tree, values, targets)
