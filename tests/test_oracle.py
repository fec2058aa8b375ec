import dataclasses
import functools
import gc
import itertools
import math
import random

import pytest

from conftest import (A, L, READS, SKIPS, T, W, ascending_ranges,
                      first_target_path, random_shared_tree, shared_chain,
                      shared_children_tree)
from dualxp.dual import enumerate_all
from dualxp.explain import AXp, check_cxp, extract_axp, extract_cxp, make_problem
from dualxp.hitting import BudgetExceeded
import dualxp.model as model_module
from dualxp.model import (INLINE_DEPTH, AdditiveEnsemble, DecisionTree,
                          FeatureSpace, Instance, Leaf, ModelError, Split,
                          TreeStructure, _tree_expression, validated)
from dualxp.oracle import (Oracle, SearchSpaceExceeded, _tree_disagreement_sets,
                           _tree_target, raw_predict)
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
    for values in ((0, 0, -1, 0), (0, 0, 2, 0), (0, 0, 0.5, 0), (0, 0),
                   (0, 0, 0, 0, 0)):
        with pytest.raises(ModelError):
            oracle.predict(Instance(values))


_QUERIES = {
    "reaches": lambda o, x: o.reaches(x, {0, 1}, frozenset({1})),
    "entails": lambda o, x: o.entails(x, {0, 1}, 0),
    "find_counterexample": lambda o, x: o.find_counterexample(x, {0, 1},
                                                              frozenset({1})),
    "minimal_sufficient": lambda o, x: o.minimal_sufficient(x, range(4),
                                                            frozenset({1})),
    "maximal_reaching": lambda o, x: o.maximal_reaching(x, (), range(4),
                                                        frozenset({1})),
}


@pytest.mark.parametrize("query", list(_QUERIES))
def test_queries_reject_instances_that_do_not_fit(poole, query):
    # as `predict` does, on a tree and on an ensemble, before counting
    ensemble = synthetic_ensemble(n_features=4, trees_per_class=2)
    for model in (poole, ensemble):
        oracle = Oracle(model)
        for values in ((-1,) * 4, (0, 0, 2, 0), (0, 0), (0, 0, 0, 0, 0)):
            with pytest.raises(ModelError):
                _QUERIES[query](oracle, Instance(values))
        assert oracle.stats.total_calls == 0


def test_loops_read_their_features_once(poole, e2):
    # a generator of candidates or of the grow order serves as a list does
    ensemble = synthetic_ensemble(n_features=6, trees_per_class=3)
    for model in (poole, ensemble):
        n = model.space.n_features
        instance = Instance((0,) * n)
        oracle = Oracle(model)
        targets = frozenset(range(model.n_classes)) - {oracle.predict(instance)}
        kept = oracle.minimal_sufficient(instance, (f for f in range(n)), targets)
        assert kept == oracle.minimal_sufficient(instance, list(range(n)), targets)
        if model is poole:
            assert kept == {L}
        grown = oracle.maximal_reaching(instance, (), (f for f in range(n)), targets)
        assert grown == oracle.maximal_reaching(instance, (), list(range(n)), targets)
        assert len(grown) > 0
    # so does a generator of the order given to the extract and enumerate
    # calls, which check it before they run their loops on it
    problem = make_problem(Oracle(poole), e2)
    for call in (extract_axp, extract_cxp, enumerate_all):
        assert call(problem, (f for f in range(4))) == call(problem, list(range(4)))
    assert extract_axp(problem, list(range(4))) == AXp(frozenset({T, L}))


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


def test_find_counterexample_poole_witnesses(poole, e2):
    # pins the two witnesses of Poole's tree at e2 with every feature free;
    # first_target_path checks the general contract on random trees
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
    ranges = ascending_ranges(classifier.space, instance, kept)
    for values in itertools.product(*ranges):
        yield values, _reference_predict(classifier, values)


def _target_sets(n_classes):
    return [frozenset(ts) for r in range(1, n_classes + 1)
            for ts in itertools.combinations(range(n_classes), r)]


def _check_against_completions(classifier, instance):
    """Over every kept subset: `entails` for every class against the
    completions, and `find_counterexample` for every non-empty target set
    against the lexicographically first target completion on an ensemble,
    and on a tree against `first_target_path`'s over ascending ranges."""
    oracle = Oracle(classifier)
    n = instance.n_features
    for kept in map(set, itertools.chain.from_iterable(
            itertools.combinations(range(n), r) for r in range(n + 1))):
        completions = list(_completions(classifier, instance, kept))
        for c in range(classifier.n_classes):
            assert oracle.entails(instance, kept, c) == all(
                p == c for _, p in completions)
        for targets in _target_sets(classifier.n_classes):
            if isinstance(classifier, DecisionTree):
                path = first_target_path(
                    classifier.tree,
                    ascending_ranges(classifier.space, instance, kept), targets)
                assert (path is None) == all(p not in targets
                                             for _, p in completions)
                first = None if path is None else Instance(path)
            else:
                first = next(
                    (Instance(v) for v, p in completions if p in targets), None)
            assert oracle.find_counterexample(instance, kept, targets) == first


def test_tree_oracle_matches_brute_force(small_corpus):
    # every kept subset and every non-empty target set: entailment against
    # exhaustive enumeration of the completions, and the witness against a
    # plain preorder walk of the tree's node objects
    shared = shared_children_tree()
    corpus = small_corpus + [
        (shared, Instance(values))
        for values in itertools.product(range(2), range(3), range(2))
    ]
    for tree, instance in corpus:
        _check_against_completions(tree, instance)


def _random_ranges(rng, space, values):
    """Per feature, a range of one of the kinds the oracle's loops search:
    the whole domain ascending or reordered, the instance's value alone or
    first, the domain without the instance's value, or a random subset."""
    ranges = []
    for f, v in enumerate(values):
        domain = list(range(space.domain_size(f)))
        others = [w for w in domain if w != v]
        rng.shuffle(others)
        kind = rng.randrange(6)
        if kind == 0:
            r = domain
        elif kind == 1:
            r = rng.sample(domain, len(domain))
        elif kind == 2 or not others:
            r = [v]
        elif kind == 3:
            r = [v] + sorted(others)
        elif kind == 4:
            r = others
        else:
            r = rng.sample(domain, rng.randint(1, len(domain)))
        ranges.append(tuple(r))
    return ranges


def test_tree_target_matches_brute_force():
    # the path search finds a completion exactly when one of the product
    # of the ranges reaches the targets, and what it finds is such a one:
    # the first target path of a plain preorder walk over the ranges
    rng = random.Random(53)
    trees = [shared_chain(6), shared_children_tree()]
    for _ in range(30):
        space = random_space(rng, rng.randint(2, 6), (2, 4))
        trees.append(random_tree(rng, space, rng.randint(2, 3), max_depth=5))
        space = random_space(rng, rng.randint(2, 6), (2, 4))
        trees.append(random_shared_tree(rng, space, rng.randint(2, 3),
                                        rng.randint(2, 16)))
    outcomes = {"found": 0, "none": 0}
    for tree in trees:
        for _ in range(12):
            values = random_instance(rng, tree.space).values
            ranges = _random_ranges(rng, tree.space, values)
            targets = frozenset(rng.sample(range(tree.n_classes),
                                           rng.randint(1, tree.n_classes)))
            reaching = {full for full in itertools.product(*ranges)
                        if raw_predict(tree, full) in targets}
            found = _tree_target(tree.tree, ranges, targets)
            if found is None:
                assert not reaching
                outcomes["none"] += 1
            else:
                assert found in reaching
                assert found == first_target_path(tree.tree, ranges, targets)
                outcomes["found"] += 1
    assert min(outcomes.values()) > 100, outcomes


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


def _count_builds(monkeypatch, owner, name, built):
    """Make `owner.name`, a cached property, append each object it is
    built for to `built`."""
    lazy = owner.__dict__[name]

    def counted(obj):
        built.append(obj)
        return lazy.func(obj)

    counting = functools.cached_property(counted)
    counting.__set_name__(owner, name)
    monkeypatch.setattr(owner, name, counting)


def test_compiled_walk_matches_node_walk(monkeypatch):
    built = []
    _count_builds(monkeypatch, TreeStructure, "linked", built)
    _count_builds(monkeypatch, AdditiveEnsemble, "scorer", built)

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
        assert not any("linked" in t.__dict__ for t in trees)
        assert "scorer" not in model.__dict__
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
        # a decision tree compiles its linked form once, and an ensemble its
        # scorer, which reads no linked form; both oracles share it
        compiled = model.tree if isinstance(model, DecisionTree) else model
        assert list(map(id, built)) == [id(compiled)]
        built.clear()
    assert ties > 0


def test_ensemble_cap():
    # the cap bounds the completions one search visits, in lexicographic
    # order, not the size of its product.  Over features of 2, 3, 1 and 4
    # values, class c1 wins only where d=3 (a tie goes to c0), so with
    # every feature free the first c1 completion is the fourth of 24
    space = FeatureSpace(("a", "b", "c", "d"), (("0", "1"), ("0", "1", "2"),
                                                ("0",), ("0", "1", "2", "3")))
    c1 = TreeStructure((Split(3, (1, 1, 1, 2)), Leaf(0), Leaf(1)), 0)
    ensemble = validated(AdditiveEnsemble(
        space, ("c0", "c1"), ((TreeStructure((Leaf(0),), 0),), (c1,)), scale=1))
    point = Instance((1, 2, 0, 0))
    to_c1 = frozenset({1})
    for cap in (4, 5, 24, 25):
        oracle = Oracle(ensemble, completion_cap=cap)
        assert oracle.reaches(point, set(), to_c1)
        assert oracle.find_counterexample(point, set(), to_c1) == Instance((0, 0, 0, 3))
    # the first completion predicts c0, so one visit answers over 24
    oracle = Oracle(ensemble, completion_cap=1)
    assert oracle.find_counterexample(point, set(), frozenset({0})) == Instance((0,) * 4)
    assert not oracle.entails(point, set(), 1)
    # with d kept at 0 no completion predicts c1: a search that refutes
    # visits its whole product, 6, and raises when that is above the cap;
    # kept features count for nothing
    for cap in (6, 7):
        oracle = Oracle(ensemble, completion_cap=cap)
        assert not oracle.reaches(point, {3}, to_c1)
        assert oracle.find_counterexample(point, {2, 3}, to_c1) is None
    assert not Oracle(ensemble, completion_cap=1).reaches(point, {0, 1, 2, 3}, to_c1)
    for cap, kept in ((3, set()), (5, {3}), (5, {2, 3})):
        too_many = rf"visited {cap} completions, the completion cap, with no target"
        oracle = Oracle(ensemble, completion_cap=cap)
        with pytest.raises(SearchSpaceExceeded, match=too_many):
            oracle.reaches(point, kept, to_c1)
        with pytest.raises(SearchSpaceExceeded, match=too_many):
            oracle.find_counterexample(point, kept, to_c1)


def test_cap_hit_is_a_budget_error_not_a_model_error():
    # one `except BudgetExceeded` catches both budgets, and a caller's
    # `except ModelError` for bad input no longer catches a cap hit
    assert issubclass(SearchSpaceExceeded, BudgetExceeded)
    assert not issubclass(SearchSpaceExceeded, ModelError)
    ensemble = synthetic_ensemble(n_features=6, trees_per_class=3)
    oracle = Oracle(ensemble, completion_cap=1)
    point = random_instance(random.Random(2), ensemble.space)
    with pytest.raises(BudgetExceeded, match="the completion cap"):
        oracle.entails(point, set(), oracle.predict(point))


def test_capped_queries_raise_or_give_the_uncapped_answer():
    # a capped query answers as an uncapped one, query counts included,
    # unless one of its searches visits the cap with no target and more to
    # go; it never raises when its largest product is within the cap.  A
    # single search raises exactly when its product is above the cap and
    # its first target, if any, is not among the first `cap` completions
    rng = random.Random(23)
    outcomes = {"raised": 0, "answered above the cap": 0, "answered within": 0}
    for _ in range(40):
        model = _small_ensemble(rng, rng.randint(2, 5), rng.randint(1, 3))
        space = model.space
        n = space.n_features
        sizes = [space.domain_size(f) for f in range(n)]
        whole = math.prod(sizes)
        for _ in range(5):
            instance = random_instance(rng, space)
            kept = {f for f in range(n) if rng.random() < 0.4}
            targets = rng.choice(_target_sets(model.n_classes))
            order = rng.sample(range(n), n)
            free = math.prod(sizes[f] for f in range(n) if f not in kept)
            first = next((i for i, (_, p) in enumerate(
                _completions(model, instance, kept)) if p in targets), None)
            queries = {
                "reaches": (lambda o: o.reaches(instance, kept, targets), free),
                "find_counterexample": (
                    lambda o: o.find_counterexample(instance, kept, targets), free),
                "minimal_sufficient": (
                    lambda o: o.minimal_sufficient(instance, order, targets), whole),
                "maximal_reaching": (
                    lambda o: o.maximal_reaching(instance, kept, order, targets),
                    free),
            }
            for name, (query, largest) in queries.items():
                uncapped = Oracle(model, completion_cap=whole)
                expected = query(uncapped), uncapped.stats
                for cap in {1, 2, 3, rng.randint(1, whole), rng.randint(1, whole)}:
                    oracle = Oracle(model, completion_cap=cap)
                    try:
                        answer = query(oracle), oracle.stats
                    except SearchSpaceExceeded:
                        assert cap < largest, (name, cap, largest)
                        outcomes["raised"] += 1
                        raised = True
                    else:
                        assert answer == expected, name
                        outcomes["answered above the cap" if cap < largest
                                 else "answered within"] += 1
                        raised = False
                    if name in ("reaches", "find_counterexample"):
                        assert raised == (free > cap and (first is None
                                                          or first >= cap))
    assert min(outcomes.values()) > 300, outcomes


def test_ensemble_cxp_with_22_features():
    # the empty kept set's product, 2^22, is above the default cap, but
    # each search of the grow loop finds a target well within it
    ensemble = synthetic_ensemble(n_features=22, trees_per_class=10, depth=4)
    rng = random.Random(7)
    for _ in range(5):
        problem = make_problem(Oracle(ensemble), random_instance(rng, ensemble.space))
        cxp = extract_cxp(problem)
        assert cxp is not None and check_cxp(problem, cxp) == []


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
            # the walk's masks give feature f the bit of a shuffled position
            n = len(values)
            position = rng.sample(range(n), n)
            bits = [1 << p for p in position]
            others = set(range(model.n_classes)) - {raw_predict(model, values)}
            for r in range(1, len(others) + 1):
                for targets in map(frozenset, itertools.combinations(sorted(others), r)):
                    masks = _tree_disagreement_sets(model.tree, values, targets, bits)
                    found = [frozenset(f for f in range(n) if m & bits[f]) for m in masks]
                    assert len(set(found)) == len(found)
                    assert set(found) == _naive_disagreement_sets(model.tree, values, targets)


def _shared_ensemble(rng, n_features, trees_per_class, n_classes):
    """A random ensemble whose regressor trees share children, over domains
    of 2 to 4 values, with leaf scores 0 to 2 so that class scores often
    tie."""
    space = random_space(rng, n_features, (2, 4))
    return validated(AdditiveEnsemble(
        space, tuple(f"c{i}" for i in range(n_classes)),
        tuple(tuple(random_shared_tree(rng, space, 3, rng.randint(1, 12)).tree
                    for _ in range(trees_per_class))
              for _ in range(n_classes)),
        scale=1,
    ))


def _count_linked_nodes(root):
    """The number of distinct linked node objects reachable from `root`."""
    seen = {id(root)}
    stack = [root]
    while stack:
        f, x = stack.pop()
        if f >= 0:
            for kid in x:
                if id(kid) not in seen:
                    seen.add(id(kid))
                    stack.append(kid)
    return len(seen)


def _child_references(tree):
    """The root reference plus one per child slot of each split."""
    return 1 + sum(len(node.children) for node in tree.nodes
                   if isinstance(node, Split))


def _assert_expression_linear(tree):
    """The scorer's expression for `tree` writes at most one conditional
    and one node, a leaf literal or a walk call, per child reference, so
    shared children are not copied."""
    refs = _child_references(tree)
    expression = _tree_expression(tree, "t0", [], "tree")
    assert expression.count(" if v[") < refs
    assert expression.count("walk(") < refs
    assert len(expression) <= 64 * refs


def test_linked_ensemble_walk_matches_node_walk():
    # every point of each space, on decision trees and ensembles, most of
    # whose trees share children
    rng = random.Random(19)
    models = [synthetic_ensemble(n_features=6, trees_per_class=3)]
    for n_classes in (2, 3):
        for _ in range(12):
            models.append(_shared_ensemble(rng, rng.randint(2, 4),
                                           rng.randint(1, 4), n_classes))
    models.append(shared_children_tree())
    for _ in range(12):
        space = random_space(rng, rng.randint(2, 4), (2, 4))
        models.append(random_tree(rng, space, 3, max_depth=5))
        models.append(random_shared_tree(rng, space, 3, rng.randint(1, 12)))
    ties = 0
    for model in models:
        trees = ([model.tree] if isinstance(model, DecisionTree)
                 else [t for group in model.trees for t in group])
        # nothing built before a prediction
        assert "scorer" not in model.__dict__
        assert not any("linked" in t.__dict__ for t in trees)
        first, second = Oracle(model), Oracle(model)
        domains = [range(model.space.domain_size(f))
                   for f in range(model.space.n_features)]
        for i, values in enumerate(itertools.product(*domains)):
            expected = _reference_predict(model, values)
            assert raw_predict(model, values) == expected
            if i == 0:
                built = (model.scorer if isinstance(model, AdditiveEnsemble)
                         else model.tree.linked)
            assert (first if i % 2 else second).predict(Instance(values)) == expected
            if isinstance(model, AdditiveEnsemble):
                scores = [sum(_node_walk(t, values) for t in group)
                          for group in model.trees]
                ties += scores.count(max(scores)) > 1
        # one compiled form per classifier, shared by both oracles: a
        # tree's linked form, with one linked node at most per node id, or an
        # ensemble's scorer, with no linked form, whose code for each tree is
        # linear in its nodes; so shared children stay shared
        if isinstance(model, AdditiveEnsemble):
            assert model.scorer is built
            assert not any("linked" in t.__dict__ for t in trees)
            for tree in trees:
                _assert_expression_linear(tree)
        else:
            assert model.tree.linked is built
            assert _count_linked_nodes(built) <= len(model.tree.nodes)
    assert ties > 0


def test_linked_walk_of_deep_chains():
    # 16 binary splits with both children on the next one: 2^15 paths
    # through 18 nodes, where an unshared linked form has 2^17 - 1 nodes
    rng = random.Random(23)
    binary = shared_chain(16)
    shared = validated(AdditiveEnsemble(
        binary.space, ("c0", "c1"),
        ((binary.tree,), (TreeStructure((Leaf(1),), 0),)), scale=1))
    for _ in range(8):
        point = random_instance(rng, shared.space)
        assert raw_predict(shared, point.values) == _reference_predict(shared, point.values)
    _assert_expression_linear(binary.tree)
    # a ladder: a split, then 15 levels of two splits on one feature, each
    # with the two nodes of the next level as children, so 2^16 paths
    # through 33 nodes, where every split from the third level on is
    # reached along two edges
    width = 16
    ladder_space = FeatureSpace(tuple(f"x{i}" for i in range(width)),
                                (("a", "b"),) * width)
    nodes = [Split(0, (1, 2))]
    for level in range(1, width):
        below = (2 * level + 1, 2 * level + 2) if level < width - 1 else (
            2 * width - 1, 2 * width)
        nodes += [Split(level, below), Split(level, below[::-1])]
    nodes += [Leaf(0), Leaf(1)]
    ladder = validated(AdditiveEnsemble(
        ladder_space, ("c0", "c1"),
        ((TreeStructure(tuple(nodes), 0),), (TreeStructure((Leaf(0),), 0),)),
        scale=1))
    for _ in range(64):
        point = random_instance(rng, ladder.space)
        assert raw_predict(ladder, point.values) == _reference_predict(ladder, point.values)
    _assert_expression_linear(ladder.trees[0][0])

    # 3,000 splits on one-value features, then one split on x: class 0
    # scores 0 at x=a and 1 at x=b, class 1 always 1, ties to class 0
    depth = 3000
    space = FeatureSpace(tuple(f"f{i}" for i in range(depth)) + ("x",),
                         (("a",),) * depth + (("a", "b"),))
    nodes = [Split(i, (i + 1,)) for i in range(depth)]
    nodes += [Split(depth, (depth + 1, depth + 2)), Leaf(0), Leaf(1)]
    chain = validated(AdditiveEnsemble(
        space, ("c0", "c1"),
        ((TreeStructure(tuple(nodes), 0),), (TreeStructure((Leaf(1),), 0),)),
        scale=1))
    for x in (0, 1):
        values = (0,) * depth + (x,)
        assert raw_predict(chain, values) == _reference_predict(chain, values) == 1 - x
    problem = make_problem(Oracle(chain), Instance((0,) * (depth + 1)))
    assert extract_axp(problem).features == {depth}
    assert extract_cxp(problem).features == {depth}
    del shared, chain, problem
    gc.collect()


def _spy_on_compiled_sources(monkeypatch):
    """Record every source the scorer builder compiles: each chunk's lambda,
    which it evaluates, and the `score` function, which it executes."""
    sources = []

    def spy(run):
        def record(source, namespace):
            sources.append(source)
            return run(source, namespace)
        return record

    monkeypatch.setattr(model_module, "eval", spy(eval), raising=False)
    monkeypatch.setattr(model_module, "exec", spy(exec), raising=False)
    return sources


def _scorer_ensemble(rng, n_features, n_classes):
    """A random ensemble over domains of 1 to 6 values whose trees share
    children, with leaf scores 0 to 2 so that class scores often tie."""
    space = random_space(rng, n_features, (1, 6))
    return validated(AdditiveEnsemble(
        space, tuple(f"c{i}" for i in range(n_classes)),
        tuple(tuple(random_shared_tree(rng, space, 3, rng.randint(1, 10)).tree
                    for _ in range(rng.randint(1, 9)))
              for _ in range(n_classes)),
        scale=1,
    ))


def test_scorer_matches_node_walk_at_every_point():
    rng = random.Random(31)
    # (model, index of its class with no trees, or None)
    cases = [(_scorer_ensemble(rng, rng.randint(1, 4), n_classes), None)
             for n_classes in (2, 3) for _ in range(15)]
    # a class with no trees scores 0, first, in the middle or last
    for n_classes in (2, 3):
        for empty in range(n_classes):
            model = _scorer_ensemble(rng, 3, n_classes)
            trees = model.trees[:empty] + ((),) + model.trees[empty + 1:]
            cases.append((validated(dataclasses.replace(model, trees=trees)), empty))
    ties = empty_wins = 0
    for model, empty in cases:
        domains = [range(len(d)) for d in model.space.domains]
        for values in itertools.product(*domains):
            predicted = model.scorer(values)
            assert predicted == _reference_predict(model, values)
            scores = [sum(_node_walk(t, values) for t in group)
                      for group in model.trees]
            ties += scores.count(max(scores)) > 1
            empty_wins += predicted == empty
    assert ties > 0 and empty_wins > 0


def test_scorer_matches_node_walk_on_the_deep_ensemble():
    # the generator of the ensemble-deep benchmark workload: 100 trees of
    # depth 6 over 10 binary features
    model = synthetic_ensemble(n_features=10, trees_per_class=50, depth=6, seed=1)
    rng = random.Random(37)
    for _ in range(2000):
        values = random_instance(rng, model.space).values
        assert raw_predict(model, values) == _reference_predict(model, values)


def test_scorer_of_a_deep_comb(monkeypatch):
    # 2,000 binary splits in a row, each with a leaf scoring its depth on
    # one side: the scorer inlines the first INLINE_DEPTH levels and walks
    # the rest, with no recursion or parser limit
    sources = _spy_on_compiled_sources(monkeypatch)
    depth = 2000
    space = FeatureSpace(tuple(f"f{i}" for i in range(depth)), (("a", "b"),) * depth)
    nodes = []
    for i in range(depth):
        nodes += [Split(i, (2 * i + 1, 2 * i + 2)), Leaf(i)]
    nodes.append(Leaf(-1))  # with every feature at b
    comb = validated(AdditiveEnsemble(
        space, ("c0", "c1"),
        ((TreeStructure(tuple(nodes), 0),), (TreeStructure((Leaf(40),), 0),)),
        scale=1))
    oracle = Oracle(comb)
    for stop in (0, 1, INLINE_DEPTH - 1, INLINE_DEPTH, INLINE_DEPTH + 1, 1500,
                 depth - 1, depth):
        values = (1,) * stop + (0,) * (depth - stop)
        expected = _reference_predict(comb, values)
        assert expected == (stop < 40 or stop == depth)
        assert raw_predict(comb, values) == expected
        assert oracle.predict(Instance(values)) == expected
    assert "walk(" in sources[0]
    assert sum(map(len, sources)) <= 64 * _child_references(comb.trees[0][0])


def test_scorer_source_holds_no_text_of_the_model(monkeypatch):
    # hand-built ensembles, never validated: a str leaf is refused, and a
    # bool, an int too long to write or an int whose text is spoofed is read
    # from a constant, so it scores as the node walk does; no leaf's text
    # enters a source
    sources = _spy_on_compiled_sources(monkeypatch)
    space = FeatureSpace(("x",), (("a", "b"),))

    def ensemble(leaf):
        tree = TreeStructure((Split(0, (1, 2)), Leaf(leaf), Leaf(0)), 0)
        return AdditiveEnsemble(space, ("c0", "c1"),
                                ((tree,), (TreeStructure((Leaf(0),), 0),)), 1)

    payload = "__import__('os').getcwd()"

    class Spoofed(int):
        def __str__(self):
            return payload

        __repr__ = __str__

        def __format__(self, spec):
            return payload

    for leaf in (payload, "1", 1.5):
        model = ensemble(leaf)
        with pytest.raises(ModelError, match="class 0 tree 0: leaf 1 score is not an integer"):
            raw_predict(model, (0,))
        with pytest.raises(ModelError):
            Oracle(model).predict(Instance((0,)))
    huge = 10 ** 5000
    for leaf in (True, False, huge, -huge, 2 ** 63, -(2 ** 63), Spoofed(7)):
        model = ensemble(leaf)
        for values in ((0,), (1,)):
            assert raw_predict(model, values) == _reference_predict(model, values)
    # and no feature's or node id's own text: a split feature that is not an
    # int is refused, and a node id is written as its digits
    split = TreeStructure((Split(payload, (1, 1)), Leaf(0)), 0)
    bad_feature = AdditiveEnsemble(space, ("c0", "c1"), ((split,), (split,)), 1)
    with pytest.raises(ModelError, match="class 0 tree 0: node 0 feature is not an integer"):
        raw_predict(bad_feature, (0,))
    # split 2 is the second reference to split 1, which it reaches by a walk
    i = [Spoofed(k) for k in range(5)]
    spoofed = TreeStructure((Split(0, (i[2], i[1])), Split(1, (i[3], i[4])),
                             Split(1, (i[1], i[4])), Leaf(1), Leaf(0)), i[0])
    two = FeatureSpace(("x", "y"), (("a", "b"),) * 2)
    model = AdditiveEnsemble(two, ("c0", "c1"),
                             ((spoofed,), (TreeStructure((Leaf(0),), 0),)), 1)
    for values in itertools.product((0, 1), repeat=2):
        assert raw_predict(model, values) == _reference_predict(model, values)
    text = "".join(sources)
    assert "walk(t0, 1, v)" in text
    assert payload not in text and "True" not in text and "False" not in text
    assert "9223372036854775808" not in text
