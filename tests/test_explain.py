import itertools
import random

import pytest

from conftest import (A, L, READS, SKIPS, T, W, e3_fixture, random_shared_tree,
                      shared_chain)
from dualxp.bundled import synthetic_ensemble_model, synthetic_instances_csv
from dualxp.dual import (_completion_predictions, brute_force_corrections,
                         brute_force_explanations)
from dualxp.explain import (
    CXp,
    TargetUnreachable,
    check_axp,
    check_cxp,
    cxp_witness,
    extract_axp,
    extract_cxp,
    make_problem,
    targeted_cxp,
)
from dualxp.model import (AdditiveEnsemble, DecisionTree, FeatureSpace, Instance,
                          ModelError, PartialAssignment, validated)
from dualxp.modelio import parse_instances
from dualxp.oracle import Oracle, SearchSpaceExceeded, _tree_path, raw_predict
from dualxp.synth import (random_instance, random_space, random_tree,
                          synthetic_ensemble)


def problem_for(classifier, instance, targets=None):
    return make_problem(Oracle(classifier), instance, targets=targets)


def test_make_problem_checks(poole, e2):
    with pytest.raises(ModelError):
        make_problem(Oracle(poole), e2, targets={READS})
    problem = make_problem(Oracle(poole), e2)
    assert problem.predicted == READS
    assert problem.targets == frozenset({SKIPS})


def test_make_problem_rejects_targets_that_are_not_classes(poole, e2, three_class_tree):
    # an unknown class would make every set sufficient and no CXp reachable
    for targets in ([5], [-1], [SKIPS, 2]):
        with pytest.raises(ModelError, match="not class indices"):
            make_problem(Oracle(poole), e2, targets=targets)
    problem = make_problem(Oracle(three_class_tree), Instance((0, 0)), targets=[2])
    assert problem.targets == frozenset({2})
    with pytest.raises(ModelError, match="not class indices"):
        make_problem(Oracle(three_class_tree), Instance((0, 0)), targets=[1, 3])


def test_make_problem_rejects_instances_that_do_not_fit(poole):
    # a negative value would index a child from the end, and a short
    # instance would end in an IndexError inside the walk
    for values in ((0, 0, -1, 0), (0, 0, 2, 0), (0, 0), (0, 0, 0, 0, 0)):
        with pytest.raises(ModelError):
            make_problem(Oracle(poole), Instance(values))


def test_axp_goldens(poole, e1, e2):
    assert extract_axp(problem_for(poole, e2)).features == frozenset({L, T})
    assert extract_axp(problem_for(poole, e1)).features == frozenset({L})


def test_axp_constant(constant_tree):
    problem = problem_for(constant_tree, Instance((0, 0)))
    assert extract_axp(problem).features == frozenset()


def test_axp_order_sensitivity(poole, e2):
    # dropping T before A lands on the other minimal sufficient set
    axp = extract_axp(problem_for(poole, e2), order=[T, A, L, W])
    assert axp.features == frozenset({L, A})
    # both outcomes are exactly the brute-force family
    axps, _ = brute_force_explanations(poole, e2)
    assert set(axps) == {frozenset({L, T}), frozenset({L, A})}


def test_axp_call_count(poole, e2):
    problem = make_problem(Oracle(poole), e2)
    stats = problem.oracle.stats
    before = stats.entailment_calls
    extract_axp(problem)
    # one sufficiency check of all features plus exactly one deletion probe per feature
    assert stats.entailment_calls - before == e2.n_features + 1


def test_cxp_goldens(poole, e1, e2):
    assert extract_cxp(problem_for(poole, e1)).features == frozenset({L})
    assert extract_cxp(problem_for(poole, e2)).features == frozenset({L})


def test_cxp_constant(constant_tree):
    problem = problem_for(constant_tree, Instance((0, 0)))
    assert extract_cxp(problem) is None


def test_cxp_call_count(poole, e2):
    problem = make_problem(Oracle(poole), e2)
    stats = problem.oracle.stats
    before = stats.witness_calls
    extract_cxp(problem)
    # one seed feasibility check plus at most one grow probe per feature
    assert stats.witness_calls - before <= e2.n_features + 1


def test_checkers(poole, e2):
    problem = problem_for(poole, e2)
    assert check_axp(problem, extract_axp(problem)) == []
    assert check_cxp(problem, extract_cxp(problem)) == []
    from dualxp.explain import AXp, CXp
    assert check_axp(problem, AXp(frozenset({A}))) != []
    assert check_axp(problem, AXp(frozenset({L, T, A}))) != []
    assert check_cxp(problem, CXp(frozenset({W}), problem.targets)) != []
    assert check_cxp(problem, CXp(frozenset({L, W}), problem.targets)) != []


def test_targeted_three_class(three_class_tree):
    tau = Instance((0, 0))
    for targets in [{2}, {1}, {1, 2}]:
        problem = problem_for(three_class_tree, tau, targets=targets)
        cxp = targeted_cxp(problem)
        assert cxp.features == frozenset({0})
        family = brute_force_corrections(three_class_tree, tau,
                                         frozenset(targets))
        assert cxp.features in family
        witness = cxp_witness(problem, cxp)
        assert witness.witness_class in targets


def test_check_axp_on_targeted_questions():
    # X: a -> split Y (0 -> k1, 1 -> k3), b -> k2, c -> k1.  At (a, 0) the
    # AXp against {k2} is {X}, although X alone does not entail k1
    from dualxp.dual import iterate_explanations
    from dualxp.explain import AXp
    from dualxp.model import (DecisionTree, FeatureSpace, Leaf, Split,
                              TreeStructure, validated)
    space = FeatureSpace(("X", "Y"), (("a", "b", "c"), ("0", "1")))
    tree = validated(DecisionTree(space, ("k1", "k2", "k3"), TreeStructure((
        Split(0, (1, 4, 5)), Split(1, (2, 3)), Leaf(0), Leaf(2), Leaf(1), Leaf(0),
    ), 0)))
    tau = Instance((0, 0))
    problem = problem_for(tree, tau, targets={1})
    axps = [e for e in iterate_explanations(problem) if isinstance(e, AXp)]
    assert [a.features for a in axps] == [frozenset({0})]
    assert check_axp(problem, axps[0]) == []
    # sets that are not AXps against {k2} are still rejected
    assert check_axp(problem, AXp(frozenset())) == [
        "not sufficient for the prediction"]
    assert check_axp(problem, AXp(frozenset({0, 1}))) == ["feature 1 is redundant"]
    # against {k3} only Y keeps the targets out
    problem = problem_for(tree, tau, targets={2})
    assert check_axp(problem, AXp(frozenset({1}))) == []
    assert check_axp(problem, AXp(frozenset({0}))) == [
        "not sufficient for the prediction"]


def test_extract_axp_on_targeted_questions(small_corpus):
    # an extracted AXp keeps the problem's own targets out, as check_axp and
    # the enumeration judge it, not every other class
    from dualxp.dual import enumerate_all
    from dualxp.model import (DecisionTree, FeatureSpace, Leaf, Split,
                              TreeStructure, validated)
    from dualxp.synth import synthetic_ensemble, synthetic_instances
    space = FeatureSpace(("X", "Y"), (("a", "b", "c"), ("0", "1")))
    tree = validated(DecisionTree(space, ("k1", "k2", "k3"), TreeStructure((
        Split(0, (1, 4, 5)), Split(1, (2, 3)), Leaf(0), Leaf(2), Leaf(1), Leaf(0),
    ), 0)))
    ensemble = synthetic_ensemble(seed=5, n_features=6, trees_per_class=3,
                                  n_classes=3)
    pairs = [(tree, Instance((0, 0)))] + [
        (m, i) for m, i in small_corpus if m.n_classes == 3] + [
        (ensemble, i) for i in synthetic_instances(ensemble.space, 8, seed=6)]
    asked = 0
    for model, instance in pairs:
        predicted = raw_predict(model, instance.values)
        for other in sorted(set(range(3)) - {predicted}):
            problem = problem_for(model, instance, targets={other})
            axp = extract_axp(problem)
            assert check_axp(problem, axp) == []
            axps, _ = enumerate_all(problem)
            assert axp in axps
            asked += 1
    assert extract_axp(problem_for(tree, Instance((0, 0)), targets={1})).features == {0}
    assert asked > 200


def test_targeted_unreachable(three_class_tree):
    # a class list can mention classes no leaf carries
    from dualxp.model import (DecisionTree, FeatureSpace, Leaf, Split,
                              TreeStructure, validated)
    space = FeatureSpace(("X",), (("a", "b"),))
    tree = validated(DecisionTree(
        space, ("k1", "k2", "k3"),
        TreeStructure((Split(0, (1, 2)), Leaf(0), Leaf(1)), 0),
    ))
    problem = problem_for(tree, Instance((0,)), targets={2})
    with pytest.raises(TargetUnreachable):
        targeted_cxp(problem)


def test_targeted_binary_equals_basic(small_corpus):
    for tree, instance in small_corpus:
        if tree.n_classes != 2:
            continue
        basic = extract_cxp(problem_for(tree, instance))
        oracle = Oracle(tree)
        pi = oracle.predict(instance)
        other = 1 - pi
        problem = make_problem(oracle, instance, targets={other})
        try:
            targeted = targeted_cxp(problem)
        except TargetUnreachable:
            assert basic is None
            continue
        assert basic is not None
        assert check_cxp(problem, targeted) == []
        assert targeted.features == basic.features


def test_cxp_witness_goldens(poole, e2):
    problem = problem_for(poole, e2)
    space = poole.space

    cxp = extract_cxp(problem)
    witness = cxp_witness(problem, cxp)
    assert witness.replacement == PartialAssignment.of(
        [(L, space.value_index(L, "long"))]
    )
    assert witness.witness_class == SKIPS

    cxp2 = CXp(frozenset({T, A}), problem.targets)
    witness2 = cxp_witness(problem, cxp2)
    assert witness2.replacement == PartialAssignment.of([
        (T, space.value_index(T, "followUp")),
        (A, space.value_index(A, "unknown")),
    ])


def test_cxp_witness_replacement_reaches_witness_class(small_corpus):
    ensemble = synthetic_ensemble_model()
    rows = parse_instances(synthetic_instances_csv(), ensemble.space)[:5]
    pairs = small_corpus[:80] + [(ensemble, row) for row in rows]
    for classifier, instance in pairs:
        problem = problem_for(classifier, instance)
        cxp = extract_cxp(problem)
        if cxp is None:
            continue
        witness = cxp_witness(problem, cxp)
        replaced = {l.feature: l.value for l in witness.replacement.literals}
        assert set(replaced) == cxp.features
        values = list(instance.values)
        for f, v in replaced.items():
            values[f] = v
        assert raw_predict(classifier, tuple(values)) == witness.witness_class
        assert witness.witness_class in problem.targets


def test_extracted_explanations_pass_checkers(small_corpus):
    for tree, instance in small_corpus[:80]:
        problem = problem_for(tree, instance)
        assert check_axp(problem, extract_axp(problem)) == []
        cxp = extract_cxp(problem)
        if cxp is not None:
            stats = problem.oracle.stats
            witness_calls, entailment_calls = stats.witness_calls, stats.entailment_calls
            assert check_cxp(problem, cxp) == []
            # one `reaches` per query: whether a completion gets there, not which
            assert stats.witness_calls == witness_calls
            assert stats.entailment_calls == entailment_calls + 1 + len(cxp.features)


def _reference_cxp(classifier, instance, targets, order):
    """The linear grow with no oracle: keep each feature in `order` while
    some completion of the kept ones, predicted one by one, hits `targets`."""
    def reaches(kept):
        return any(p in targets for p in
                   _completion_predictions(classifier, instance, frozenset(kept)))

    if not reaches(()):
        return None
    kept = set()
    for f in order:
        if reaches(kept | {f}):
            kept.add(f)
    return frozenset(range(instance.n_features)) - kept


def _first_target_completion(classifier, instance, fixed, targets):
    """The lexicographically first completion of the `fixed` features that
    predicts into `targets`, by trying every completion in order."""
    space = classifier.space
    ranges = [(v,) if f in fixed else range(space.domain_size(f))
              for f, v in enumerate(instance.values)]
    return next(full for full in itertools.product(*ranges)
                if raw_predict(classifier, full) in targets)


def test_cxp_grow_matches_brute_force_reference():
    # the grow accepts any target completion as its witness; the CXp must
    # still be the one a plain grow deciding each step by brute force finds,
    # and the printed witness still the lexicographically first
    rng = random.Random(29)
    models = [shared_chain(6)]
    for _ in range(120):
        space = random_space(rng, rng.randint(2, 7), (2, 3))
        models.append(random_tree(rng, space, rng.randint(2, 3), max_depth=5))
        space = random_space(rng, rng.randint(2, 7), (2, 3))
        models.append(random_shared_tree(rng, space, rng.randint(2, 3),
                                         rng.randint(2, 20)))
    checked = 0
    for model in models:
        for _ in range(3):
            instance = random_instance(rng, model.space)
            order = list(range(instance.n_features))
            rng.shuffle(order)
            predicted = raw_predict(model, instance.values)
            others = sorted(set(range(model.n_classes)) - {predicted})
            chosen = set(rng.sample(others, rng.randint(1, len(others))))
            for targets in (None, chosen):
                problem = problem_for(model, instance, targets=targets)
                cxp = extract_cxp(problem, order)
                expected = _reference_cxp(model, instance, problem.targets, order)
                if cxp is None:
                    assert expected is None
                    continue
                assert cxp.features == expected
                witness = cxp_witness(problem, cxp)
                first = _first_target_completion(
                    model, instance, set(order) - cxp.features, problem.targets)
                assert witness.replacement == PartialAssignment.of(
                    (f, first[f]) for f in cxp.features)
                assert witness.witness_class == raw_predict(model, first)
                checked += 1
    assert checked > 900


def _reference_axp(oracle, instance, targets, candidates):
    """The deletion loop over plain `reaches` queries, one per candidate
    after the check of them all; None if the candidates reach `targets`."""
    kept = set(candidates)
    if oracle.reaches(instance, kept, targets):
        return None
    for f in candidates:
        if not oracle.reaches(instance, kept - {f}, targets):
            kept.discard(f)
    return frozenset(kept)


def test_axp_region_walk_matches_reaches_loop():
    # a tree's deletion loop is one growing region walk; it must give the
    # AXp, or the None, and the query count of the plain loop
    rng = random.Random(37)
    models = [shared_chain(12)]
    for _ in range(60):
        space = random_space(rng, rng.randint(2, 8), (2, 3))
        models.append(random_tree(rng, space, rng.randint(2, 3), max_depth=6,
                                  leaf_prob=0.15))
        space = random_space(rng, rng.randint(2, 8), (2, 3))
        models.append(random_shared_tree(rng, space, rng.randint(2, 3),
                                         rng.randint(2, 30)))
    outcomes = {"axp": 0, "kept after a drop": 0, "not sufficient": 0}
    for model in models:
        n = model.space.n_features
        for _ in range(4):
            instance = random_instance(rng, model.space)
            predicted = raw_predict(model, instance.values)
            others = sorted(set(range(model.n_classes)) - {predicted})
            for size in range(1, len(others) + 1):
                for targets in itertools.combinations(others, size):
                    order = list(range(n))
                    rng.shuffle(order)
                    for subset in (set(range(n)), set(),
                                   set(rng.sample(range(n), rng.randint(1, n)))):
                        problem = problem_for(model, instance, targets=targets)
                        oracle = Oracle(model)
                        probed = [f for f in order if f in subset]
                        expected = _reference_axp(oracle, instance, problem.targets,
                                                  probed)
                        before = problem.oracle.stats.entailment_calls
                        kept = problem.oracle.minimal_sufficient(instance, probed,
                                                                 problem.targets)
                        assert kept == expected
                        if expected is None:
                            outcomes["not sufficient"] += 1
                        else:
                            outcomes["axp"] += 1
                            # only a probe that keeps its feature after another
                            # was dropped shows whether it left the region as it was
                            if any(f not in expected and g in expected
                                   for f, g in itertools.combinations(probed, 2)):
                                outcomes["kept after a drop"] += 1
                        assert (problem.oracle.stats.entailment_calls - before
                                == oracle.stats.entailment_calls)
    assert min(outcomes.values()) > 300, outcomes


def _random_ensemble(rng, space, n_classes, trees_per_class):
    """An ensemble of random trees whose leaf scores are 0 to 2, so that
    class scores often tie."""
    return validated(AdditiveEnsemble(
        space, tuple(f"c{i}" for i in range(n_classes)),
        tuple(tuple(random_tree(rng, space, 3).tree
                    for _ in range(trees_per_class))
              for _ in range(n_classes)),
        scale=1))


def test_ensemble_deletion_loop_matches_reaches_loop():
    # an ensemble's probe searches only the completions that move its
    # feature off the instance's value; it must give the AXp, or the None,
    # and the query count of the plain loop, also when a candidate repeats
    rng = random.Random(43)
    models = []
    for _ in range(30):
        space = random_space(rng, rng.randint(2, 5), (2, 4))
        models.append(_random_ensemble(rng, space, rng.randint(2, 3),
                                       rng.randint(1, 3)))
    for seed in range(30):
        # score ranges of 1 and 2 make class scores tie often
        models.append(synthetic_ensemble(
            seed=seed, n_features=rng.randint(3, 6),
            trees_per_class=rng.randint(1, 3), depth=3,
            n_classes=2 + seed % 2, score_range=1 + seed // 2 % 2))
    outcomes = {"axp": 0, "kept after a drop": 0, "not sufficient": 0,
                "repeated": 0}
    for model in models:
        n = model.space.n_features
        for _ in range(4):
            instance = random_instance(rng, model.space)
            predicted = raw_predict(model, instance.values)
            others = sorted(set(range(model.n_classes)) - {predicted})
            chosen = rng.sample(others, rng.randint(1, len(others)))
            for targets in (others, chosen):
                order = list(range(n))
                rng.shuffle(order)
                subset = set(rng.sample(range(n), rng.randint(1, n)))
                repeated = [f for f in order if f in subset]
                repeated.insert(rng.randint(0, len(repeated)), rng.choice(repeated))
                for probed in (order, [], [f for f in order if f in subset],
                               repeated):
                    problem = problem_for(model, instance, targets=targets)
                    oracle = Oracle(model)
                    expected = _reference_axp(oracle, instance, problem.targets,
                                              probed)
                    before = problem.oracle.stats.entailment_calls
                    kept = problem.oracle.minimal_sufficient(instance, probed,
                                                             problem.targets)
                    assert kept == expected
                    assert (problem.oracle.stats.entailment_calls - before
                            == oracle.stats.entailment_calls)
                    if expected is None:
                        outcomes["not sufficient"] += 1
                        continue
                    outcomes["axp"] += 1
                    if any(f not in expected and g in expected
                           for f, g in itertools.combinations(probed, 2)):
                        outcomes["kept after a drop"] += 1
                    if probed is repeated:
                        outcomes["repeated"] += 1
    assert min(outcomes.values()) > 200, outcomes


def _reference_grow(oracle, instance, kept, order, targets, witness):
    """The grow loop as a plain loop of searches, and the number of searches
    it made: a feature joins when the current witness agrees with the
    instance on it, or when a search with it kept finds a new witness.  A
    search is `find_counterexample` on an ensemble, and on a tree the first
    path search in ascending branch order, completed with the instance's
    values off the path."""
    tau = instance.values

    def search(fixed):
        if not isinstance(oracle.classifier, DecisionTree):
            return oracle.find_counterexample(instance, fixed, targets)
        values = [v if f in fixed else None for f, v in enumerate(tau)]
        path = _tree_path(oracle.classifier.tree, values, targets)
        if path is None:
            return None
        return Instance(tuple(path.get(f, v) for f, v in enumerate(tau)))

    kept = set(kept)
    searches = 0
    if witness is None:
        searches += 1
        witness = search(kept)
        if witness is None:
            return None, searches
    for f in order:
        if f in kept:
            continue
        if witness.values[f] == tau[f]:
            kept.add(f)
            continue
        searches += 1
        found = search(kept | {f})
        if found is not None:
            kept.add(f)
            witness = found
    return frozenset(kept), searches


def test_maximal_reaching_matches_grow_loop():
    # the oracle's grow loop must keep what the plain loop keeps; an
    # ensemble makes the same searches, and a tree, whose searches try the
    # instance's own branch first, no more of them
    rng = random.Random(41)
    models = [shared_chain(7)]
    for _ in range(40):
        space = random_space(rng, rng.randint(2, 7), (2, 3))
        models.append(random_tree(rng, space, rng.randint(2, 3), max_depth=5))
        space = random_space(rng, rng.randint(2, 7), (2, 3))
        models.append(random_shared_tree(rng, space, rng.randint(2, 3),
                                         rng.randint(2, 20)))
    for seed in range(30):
        # score ranges of 1 and 2 make class scores tie often
        models.append(synthetic_ensemble(
            seed=seed, n_features=rng.randint(3, 6),
            trees_per_class=rng.randint(1, 3), depth=3,
            n_classes=2 + seed % 2, score_range=(1, 2, 250000)[seed % 3]))
    outcomes = {(kind, outcome): 0 for kind in ("tree", "ensemble")
                for outcome in ("unreachable", "grown", "seeded")}
    tree_searches = {"oracle": 0, "reference": 0}
    for model in models:
        n = model.space.n_features
        kind = "tree" if isinstance(model, DecisionTree) else "ensemble"
        for _ in range(4):
            instance = random_instance(rng, model.space)
            predicted = raw_predict(model, instance.values)
            others = sorted(set(range(model.n_classes)) - {predicted})
            chosen = frozenset(rng.sample(others, rng.randint(1, len(others))))
            for targets in (frozenset(others), chosen):
                order = list(range(n))
                rng.shuffle(order)
                oracle = Oracle(model)
                candidate = set(rng.sample(range(n), rng.randint(0, n)))
                seeds = [(set(), None), (candidate, None)]
                # the seed `iterate_explanations` passes: a candidate's
                # lexicographic witness and every feature it agrees on
                witness = oracle.find_counterexample(instance, candidate, targets)
                if witness is not None:
                    seeds.append(({f for f in range(n)
                                   if witness.values[f] == instance.values[f]},
                                  witness))
                for kept, seed_witness in seeds:
                    expected, searches = _reference_grow(
                        oracle, instance, kept, order, targets, seed_witness)
                    before = oracle.stats.witness_calls
                    grown = oracle.maximal_reaching(instance, kept, order, targets,
                                                    seed_witness)
                    made = oracle.stats.witness_calls - before
                    assert grown == expected
                    if kind == "tree":
                        assert made <= n + 1
                        tree_searches["oracle"] += made
                        tree_searches["reference"] += searches
                    else:
                        assert made == searches
                    if grown is None:
                        outcomes[kind, "unreachable"] += 1
                    else:
                        assert grown >= kept
                        outcomes[kind, "seeded" if seed_witness else "grown"] += 1
    # trying the instance's own branch first saves searches over the corpus
    assert tree_searches["oracle"] < tree_searches["reference"], tree_searches
    assert min(outcomes.values()) > 80, outcomes


def test_ensemble_loops_raise_where_the_plain_loops_raise():
    # each probe of the deletion loop is checked against the completions of
    # the kept set without its feature, though it searches only those that
    # move the feature; both loops must raise SearchSpaceExceeded at the
    # query where the loops of plain `reaches` and `find_counterexample`
    # queries raise, and count the same queries up to it
    rng = random.Random(47)
    space = FeatureSpace(("a", "b", "c", "d", "e"),
                         (("0", "1"), ("0", "1", "2"), ("0",),
                          ("0", "1", "2", "3"), ("0", "1")))
    models = [_random_ensemble(rng, space, 2 + i % 2, 2) for i in range(6)]
    n = space.n_features
    raised = {"axp": 0, "grow": 0}
    answered = {"axp": 0, "grow": 0}

    def outcome(query, oracle, kind):
        try:
            answer = query()
        except SearchSpaceExceeded:
            raised[kind] += 1
            answer = "raised"
        else:
            answered[kind] += 1
        return answer, oracle.stats.entailment_calls, oracle.stats.witness_calls

    for model in models:
        for _ in range(5):
            instance = random_instance(rng, space)
            predicted = raw_predict(model, instance.values)
            targets = frozenset(range(model.n_classes)) - {predicted}
            order = list(range(n))
            rng.shuffle(order)
            repeated = order + [3, rng.randrange(n)]
            witness = Oracle(model).find_counterexample(instance, (), targets)
            seeds = [(set(), None), ({0, 2}, None)]
            if witness is not None:
                seeds.append(({f for f in range(n)
                               if witness.values[f] == instance.values[f]},
                              witness))
            for cap in range(1, 50):
                for probed in (order, repeated):
                    plain, loop = (Oracle(model, completion_cap=cap)
                                   for _ in range(2))
                    assert outcome(
                        lambda: _reference_axp(plain, instance, targets, probed),
                        plain, "axp") == outcome(
                        lambda: loop.minimal_sufficient(instance, probed, targets),
                        loop, "axp")
                for kept, seed_witness in seeds:
                    plain, loop = (Oracle(model, completion_cap=cap)
                                   for _ in range(2))
                    reference = outcome(
                        lambda: _reference_grow(plain, instance, kept, order,
                                                targets, seed_witness)[0],
                        plain, "grow")
                    assert reference == outcome(
                        lambda: loop.maximal_reaching(instance, kept, order,
                                                      targets, seed_witness),
                        loop, "grow")
    assert min(raised.values()) > 1000 and min(answered.values()) > 1000, (
        raised, answered)
