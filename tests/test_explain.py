import pytest

from conftest import A, L, READS, SKIPS, T, W, e3_fixture
from dualxp.bundled import synthetic_ensemble_model, synthetic_instances_csv
from dualxp.dual import brute_force_corrections, brute_force_explanations
from dualxp.explain import (
    CXp,
    SeedNotSufficient,
    TargetUnreachable,
    check_axp,
    check_cxp,
    cxp_witness,
    extract_axp,
    extract_cxp,
    make_problem,
    targeted_cxp,
)
from dualxp.model import Instance, ModelError, PartialAssignment
from dualxp.modelio import parse_instances
from dualxp.oracle import Oracle, raw_predict


def problem_for(classifier, instance, targets=None):
    return make_problem(Oracle(classifier), instance, targets=targets)


def test_make_problem_checks(poole, e2):
    with pytest.raises(ModelError):
        make_problem(Oracle(poole), e2, expected=SKIPS)
    with pytest.raises(ModelError):
        make_problem(Oracle(poole), e2, targets={READS})
    problem = make_problem(Oracle(poole), e2, expected=READS)
    assert problem.targets == frozenset({SKIPS})


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


def test_axp_seed(poole, e2):
    axp = extract_axp(problem_for(poole, e2), seed={L, T, A})
    assert axp.features == frozenset({L, T})
    with pytest.raises(SeedNotSufficient):
        extract_axp(problem_for(poole, e2), seed={A, W})
    with pytest.raises(ModelError):
        extract_axp(problem_for(poole, Instance((0, 0, 0, 0))), seed=[0, 1, 2, 3, 99])
    with pytest.raises(ModelError):
        extract_axp(problem_for(poole, e2), seed={L, T, -1})


def test_axp_call_count(poole, e2):
    problem = make_problem(Oracle(poole), e2)
    stats = problem.oracle.stats
    before = stats.entailment_calls
    extract_axp(problem)
    # one seed sufficiency check plus exactly one deletion probe per feature
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
