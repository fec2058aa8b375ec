import random

import pytest

from conftest import L, shared_chain
from dualxp.dual import enumerate_all, verify_duality
from dualxp.explain import (check_axp, check_cxp, cxp_witness, extract_axp,
                            extract_cxp, make_problem)
from dualxp.model import (
    DecisionTree,
    FeatureSpace,
    InconsistentAssignment,
    Leaf,
    Literal,
    ModelError,
    PartialAssignment,
    Split,
    TreeStructure,
    validate,
)
from dualxp.oracle import Oracle
from dualxp.synth import random_instance, random_space, random_tree


def test_feature_space_basics(poole):
    space = poole.space
    assert space.n_features == 4
    assert space.feature_index("L") == L
    assert space.value_index(L, "short") == 1
    with pytest.raises(ModelError):
        space.feature_index("Z")
    with pytest.raises(ModelError):
        space.value_index(L, "LONG")


def test_feature_space_rejects_bad_shapes():
    with pytest.raises(ModelError):
        FeatureSpace(("a", "a"), (("x",), ("y",)))
    with pytest.raises(ModelError):
        FeatureSpace(("a",), ((),))
    with pytest.raises(ModelError):
        FeatureSpace(("a",), (("x", "x"),))


def test_feature_space_size_cap():
    # no cap on the size of the instance space: no query's cost depends on
    # it, so 4^63 instances are accepted, and a 100-feature tree, 2^100
    # instances or more, is explained end to end
    names = tuple(f"f{i}" for i in range(63))
    assert FeatureSpace(names, tuple(("a", "b", "c", "d") for _ in names))
    rng = random.Random(3)
    space = random_space(rng, 100, (2, 4))
    tree = random_tree(rng, space, 3, max_depth=8)
    for _ in range(3):
        problem = make_problem(Oracle(tree), random_instance(rng, space))
        axp, cxp = extract_axp(problem), extract_cxp(problem)
        assert check_axp(problem, axp) == [] and check_cxp(problem, cxp) == []
        assert cxp_witness(problem, cxp).witness_class in problem.targets
        axps, cxps = enumerate_all(problem)
        assert axp in axps and cxp in cxps
        assert verify_duality([a.features for a in axps],
                              [c.features for c in cxps]).ok


def test_partial_assignment_consistency():
    pa = PartialAssignment.of([(0, 1), (2, 0)])
    assert pa.literals == frozenset({Literal(0, 1), Literal(2, 0)})
    with pytest.raises(InconsistentAssignment):
        PartialAssignment.of([(0, 1), (0, 2)])


def test_validate_poole_ok(poole):
    assert validate(poole) == []


def test_validate_non_total_children(poole):
    space = poole.space
    # split on L with a single child: the 'short' branch is missing
    bad = DecisionTree(space, ("reads", "skips"),
                       TreeStructure((Split(L, (1,)), Leaf(0)), 0))
    problems = validate(bad)
    assert any("non-total children" in p for p in problems)


def test_validate_single_leaf_ok(constant_tree):
    assert validate(constant_tree) == []


def test_validate_repeated_feature(poole):
    space = poole.space
    bad = DecisionTree(space, ("reads", "skips"), TreeStructure(
        (Split(L, (1, 2)), Split(L, (3, 3)), Leaf(0), Leaf(1)), 0
    ))
    problems = validate(bad)
    assert any("repeats on the path" in p for p in problems)


def test_validate_shared_children():
    # node 3 is reached from X=a through Y and from X=b through a split on
    # Z: Z repeats on one of its paths only, which the walk meets second
    space = FeatureSpace(("X", "Y", "Z"), (("a", "b"),) * 3)
    bad = DecisionTree(space, ("c0", "c1"), TreeStructure((
        Split(0, (1, 2)), Split(1, (3, 3)), Split(2, (3, 4)),
        Split(2, (4, 5)), Leaf(0), Leaf(1),
    ), 0))
    assert validate(bad) == ["tree: feature 'Z' repeats on the path to node 3"]
    # shared children are legal, and each node is checked once: a chain
    # of 60 splits has 2^59 paths
    assert validate(shared_chain(60)) == []


def test_validate_class_out_of_range(poole):
    bad = DecisionTree(poole.space, ("reads", "skips"),
                       TreeStructure((Leaf(5),), 0))
    problems = validate(bad)
    assert any("out of range" in p for p in problems)


def test_validate_unreachable_node(poole):
    bad = DecisionTree(poole.space, ("reads", "skips"),
                       TreeStructure((Leaf(0), Leaf(1)), 0))
    problems = validate(bad)
    assert any("unreachable" in p for p in problems)


def test_unique_feasible_path(small_corpus):
    # every full instance reaches exactly one leaf: walking is deterministic
    # and the reached leaf agrees with feasible-leaf enumeration
    from dualxp.oracle import Oracle

    for tree, instance in small_corpus[:50]:
        oracle = Oracle(tree)
        predicted = oracle.predict(instance)
        feasible = {
            c for c in range(tree.n_classes)
            if oracle.find_counterexample(
                instance, set(range(instance.n_features)), frozenset({c}))
        }
        assert feasible == {predicted}
