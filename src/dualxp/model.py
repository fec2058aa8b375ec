"""Domain types: categorical feature spaces, literals, instances and tree classifiers.

All types are frozen dataclasses and safe to share across workers once validated.
Trees are built and validated as `Leaf`/`Split` node objects; every walk reads
the flat arrays of `TreeStructure.arrays` instead, compiled lazily on first use
and cached on the tree object, so every oracle over one classifier shares them.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

MAX_SPACE_SIZE = 2 ** 62


class ModelError(Exception):
    """Base class for model construction / validation failures."""


class InconsistentAssignment(ModelError):
    """Two literals on the same feature with different values."""


class ValidationError(ModelError):
    """A classifier failed structural validation; carries the full report."""

    def __init__(self, problems: Sequence[str]):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


@dataclass(frozen=True)
class FeatureSpace:
    """Ordered categorical features, each with a finite non-empty domain."""

    names: tuple[str, ...]
    domains: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.domains):
            raise ModelError("feature names and domains differ in length")
        if len(set(self.names)) != len(self.names):
            raise ModelError("duplicate feature names")
        size = 1
        for name, dom in zip(self.names, self.domains):
            if not dom:
                raise ModelError(f"feature '{name}' has an empty domain")
            if len(set(dom)) != len(dom):
                raise ModelError(f"feature '{name}' has duplicate category names")
            size *= len(dom)
            if size > MAX_SPACE_SIZE:
                raise ModelError(f"instance space larger than 2^62")

    @property
    def n_features(self) -> int:
        return len(self.names)

    def domain_size(self, feature: int) -> int:
        return len(self.domains[feature])

    def space_size(self) -> int:
        return math.prod(len(d) for d in self.domains)

    def feature_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ModelError(f"unknown feature '{name}'") from None

    def value_index(self, feature: int, category: str) -> int:
        try:
            return self.domains[feature].index(category)
        except ValueError:
            raise ModelError(
                f"unknown category '{category}' for feature '{self.names[feature]}'"
            ) from None


@dataclass(frozen=True)
class Literal:
    """A single (feature = value) pair, both stored as indices."""

    feature: int
    value: int


@dataclass(frozen=True)
class PartialAssignment:
    """A consistent set of literals: at most one per feature (a cube).  The
    type of `CxpWitness.replacement`; explanations themselves are feature-index
    sets read against their instance."""

    literals: frozenset[Literal]

    def __post_init__(self) -> None:
        feats = [l.feature for l in self.literals]
        if len(set(feats)) != len(feats):
            raise InconsistentAssignment("two literals on the same feature")

    @staticmethod
    def of(pairs: Iterable[tuple[int, int]]) -> "PartialAssignment":
        return PartialAssignment(frozenset(Literal(f, v) for f, v in pairs))


@dataclass(frozen=True)
class Instance:
    """A full assignment: one value index per feature, in feature order."""

    values: tuple[int, ...]

    @property
    def n_features(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Leaf:
    """Terminal node; `value` is a class index for decision trees and an
    integer fixed-point score for ensemble regressors."""

    value: int


@dataclass(frozen=True)
class Split:
    """Internal node: one child id per category of `feature` (total map)."""

    feature: int
    children: tuple[int, ...]


Node = Union[Leaf, Split]


@dataclass(frozen=True)
class TreeStructure:
    """A node array plus root id; shared by classifiers and regressors."""

    nodes: tuple[Node, ...]
    root: int

    @functools.cached_property
    def arrays(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...],
                              tuple[int, ...]]:
        """Per node id: its split feature (-1 for a leaf), its children (empty
        for a leaf) and its leaf value (0 for a split)."""
        return (
            tuple(-1 if isinstance(n, Leaf) else n.feature for n in self.nodes),
            tuple(() if isinstance(n, Leaf) else n.children for n in self.nodes),
            tuple(n.value if isinstance(n, Leaf) else 0 for n in self.nodes),
        )


@dataclass(frozen=True)
class DecisionTree:
    space: FeatureSpace
    classes: tuple[str, ...]
    tree: TreeStructure

    @property
    def n_classes(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class AdditiveEnsemble:
    """Per-class regressor trees with integer leaf scores.

    Prediction is the argmax over classes of the summed scores, ties broken
    by the lowest class index.  `scale` records the fixed-point factor the
    scores were multiplied by; the arithmetic itself stays exact.
    """

    space: FeatureSpace
    classes: tuple[str, ...]
    trees: tuple[tuple[TreeStructure, ...], ...]
    scale: int

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @functools.cached_property
    def class_arrays(self) -> tuple[tuple[tuple, ...], ...]:
        """Per class, per tree: its `TreeStructure.arrays` followed by its
        root, as (feature, children, value, root)."""
        return tuple(
            tuple((*tree.arrays, tree.root) for tree in group)
            for group in self.trees
        )


Classifier = Union[DecisionTree, AdditiveEnsemble]


def _check_tree(space: FeatureSpace, tree: TreeStructure, where: str,
                leaf_check, problems: list[str]) -> None:
    n = len(tree.nodes)
    if not (0 <= tree.root < n):
        problems.append(f"{where}: root id {tree.root} out of range")
        return
    # DFS from root with an explicit stack; detect cycles, repeated path
    # features, non-total children.  Entries are (parent, node); a split's
    # id and feature stay on the path until its (split, None) entry is
    # popped, after all its descendants.
    visited: set[int] = set()
    on_path: set[int] = set()
    path_feats = [0] * space.n_features  # splits on each feature along the path
    stack: list[tuple[int, Optional[int]]] = [(-1, tree.root)]
    while stack:
        parent, node_id = stack.pop()
        if node_id is None:
            on_path.discard(parent)
            path_feats[tree.nodes[parent].feature] -= 1
            continue
        if not (0 <= node_id < n):
            problems.append(f"{where}: node {parent} child id {node_id} out of range")
            continue
        if node_id in on_path:
            problems.append(f"{where}: cycle through node {node_id}")
            continue
        visited.add(node_id)
        node = tree.nodes[node_id]
        if isinstance(node, Leaf):
            leaf_check(node_id, node)
            continue
        if not (0 <= node.feature < space.n_features):
            problems.append(f"{where}: node {node_id} feature index out of range")
            continue
        if path_feats[node.feature]:
            problems.append(
                f"{where}: feature '{space.names[node.feature]}' repeats on the "
                f"path to node {node_id}"
            )
        if len(node.children) != space.domain_size(node.feature):
            problems.append(
                f"{where}: node {node_id} non-total children map for feature "
                f"'{space.names[node.feature]}' "
                f"({len(node.children)} of {space.domain_size(node.feature)})"
            )
            continue
        on_path.add(node_id)
        path_feats[node.feature] += 1
        stack.append((node_id, None))
        stack.extend((node_id, child) for child in reversed(node.children))
    unreachable = set(range(n)) - visited
    if unreachable:
        problems.append(
            f"{where}: nodes unreachable from root: {sorted(unreachable)}"
        )


def validate(classifier: Classifier) -> list[str]:
    """Structural validation; returns the list of problems (empty means ok)."""
    problems: list[str] = []
    space = classifier.space
    if len(classifier.classes) < 2:
        problems.append("fewer than two classes")
    if isinstance(classifier, DecisionTree):
        def leaf_check(node_id: int, leaf: Leaf) -> None:
            if not (0 <= leaf.value < len(classifier.classes)):
                problems.append(f"tree: leaf {node_id} class index {leaf.value} out of range")

        _check_tree(space, classifier.tree, "tree", leaf_check, problems)
    else:
        if len(classifier.trees) != len(classifier.classes):
            problems.append(
                f"ensemble: {len(classifier.trees)} tree groups for "
                f"{len(classifier.classes)} classes"
            )
        if classifier.scale < 1:
            problems.append("ensemble: scale must be a positive integer")
        for ci, group in enumerate(classifier.trees):
            for ti, tree in enumerate(group):
                def leaf_check(node_id: int, leaf: Leaf, _w=f"class {ci} tree {ti}") -> None:
                    if not isinstance(leaf.value, int) or isinstance(leaf.value, bool):
                        problems.append(f"{_w}: leaf {node_id} score is not an integer")

                _check_tree(space, tree, f"class {ci} tree {ti}", leaf_check, problems)
    return problems


def validated(classifier: Classifier) -> Classifier:
    """Raise ValidationError unless `classifier` is structurally sound."""
    problems = validate(classifier)
    if problems:
        raise ValidationError(problems)
    return classifier
