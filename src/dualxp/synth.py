"""Deterministic generators for random trees, instances, and the bundled
synthetic ensemble used by the desk-scale statistics harness."""
from __future__ import annotations

import random
from typing import Callable, Optional

from .model import (
    AdditiveEnsemble,
    DecisionTree,
    FeatureSpace,
    Instance,
    Leaf,
    Node,
    Split,
    TreeStructure,
)


def random_space(rng: random.Random, n_features: int,
                 domain_sizes: tuple[int, int] = (2, 3)) -> FeatureSpace:
    names = tuple(f"f{i}" for i in range(n_features))
    domains = tuple(
        tuple(f"v{j}" for j in range(rng.randint(*domain_sizes)))
        for _ in range(n_features)
    )
    return FeatureSpace(names, domains)


def _random_structure(rng: random.Random, space: FeatureSpace, max_depth: int,
                      leaf_value: Callable[[], int],
                      leaf_prob: Optional[float] = None) -> TreeStructure:
    """A random tree in which features never repeat on a path.  A branch
    ends in a leaf carrying `leaf_value()` at `max_depth`, when no feature is
    left, or, if `leaf_prob` is given, with that probability at each node."""
    nodes: list[Node] = []

    def build(available: list[int], depth: int) -> int:
        if (not available or depth >= max_depth
                or (leaf_prob is not None and rng.random() < leaf_prob)):
            nodes.append(Leaf(leaf_value()))
            return len(nodes) - 1
        feature = rng.choice(available)
        rest = [f for f in available if f != feature]
        children = tuple(
            build(rest, depth + 1) for _ in range(space.domain_size(feature))
        )
        nodes.append(Split(feature, children))
        return len(nodes) - 1

    root = build(list(range(space.n_features)), 0)
    return TreeStructure(tuple(nodes), root)


def random_tree(rng: random.Random, space: FeatureSpace, n_classes: int,
                max_depth: int = 4, leaf_prob: float = 0.3) -> DecisionTree:
    """A random decision tree.  The result may be constant or ignore
    features entirely, both of which are legal."""
    tree = _random_structure(rng, space, max_depth,
                             lambda: rng.randrange(n_classes), leaf_prob)
    classes = tuple(f"c{i}" for i in range(n_classes))
    return DecisionTree(space, classes, tree)


def random_instance(rng: random.Random, space: FeatureSpace) -> Instance:
    return Instance(tuple(
        rng.randrange(space.domain_size(f)) for f in range(space.n_features)
    ))


def synthetic_ensemble(seed: int = 20240817, n_features: int = 10,
                       trees_per_class: int = 5, depth: int = 3,
                       n_classes: int = 2, scale: int = 100000,
                       score_range: int = 250000) -> AdditiveEnsemble:
    """The bundled desk-scale ensemble: binary features, integer scores."""
    rng = random.Random(seed)
    space = FeatureSpace(
        tuple(f"f{i}" for i in range(n_features)),
        tuple(("0", "1") for _ in range(n_features)),
    )
    def score() -> int:
        return rng.randint(-score_range, score_range)

    groups = tuple(
        tuple(
            _random_structure(rng, space, depth, score)
            for _ in range(trees_per_class)
        )
        for _ in range(n_classes)
    )
    classes = tuple(f"c{i}" for i in range(n_classes))
    return AdditiveEnsemble(space, classes, groups, scale)


def synthetic_instances(space: FeatureSpace, count: int,
                        seed: int = 20240818) -> list[Instance]:
    rng = random.Random(seed)
    return [random_instance(rng, space) for _ in range(count)]
