"""Domain types: categorical feature spaces, literals, instances and tree classifiers.

All types are frozen dataclasses and safe to share across workers once validated.
Trees are built and validated as `Leaf`/`Split` node objects; every walk reads
the flat arrays of `TreeStructure.arrays` instead, compiled lazily on first use
and cached on the tree object, so every oracle over one classifier shares them.
Splits may share children, so a tree's nodes form a DAG; validation checks
each node once and requires only that no feature repeats on any path.
`Leaf` and `Split` use slots, since a large tree holds tens of thousands of
them.  `Leaf` objects and `Split.children` tuples may be shared:
`modelio.parse_model` gives the leaves of one model that carry the same value
one `Leaf`, and its splits with equal child ids one tuple, so a node's id is
its position in `TreeStructure.nodes`, never the identity of its object.
"""
from __future__ import annotations

import functools
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

    @functools.cached_property
    def value_ranges(self) -> tuple[tuple[int, ...], ...]:
        """Per feature, the tuple of its value indices, built on first use
        and kept, so an ensemble query builds no ranges of its own."""
        return tuple(tuple(range(len(dom))) for dom in self.domains)

    def feature_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ModelError(f"unknown feature '{name}'") from None

    def check_instance(self, instance: "Instance") -> None:
        """Raise ModelError unless `instance` has one in-domain value per
        feature.  The walks index children by value and trust it, so every
        entry point that takes an instance from a caller checks it here."""
        if len(instance.values) != len(self.domains):
            raise ModelError(f"instance has {len(instance.values)} values, "
                             f"the model has {len(self.domains)} features")
        for f, v in enumerate(instance.values):
            if not 0 <= v < len(self.domains[f]):
                raise ModelError(f"value {v} is outside the domain of feature "
                                 f"'{self.names[f]}'")

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


@dataclass(frozen=True, slots=True)
class Leaf:
    """Terminal node; `value` is a class index for decision trees and an
    integer fixed-point score for ensemble regressors."""

    value: int


@dataclass(frozen=True, slots=True)
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
                n_classes: Optional[int], problems: list[str]) -> None:
    """Append `tree`'s structural problems to `problems`, in depth-first
    order from the root.  A leaf's value must be a class index below
    `n_classes`, or, when that is None, an integer score.  Splits may share
    children, so the nodes form a DAG; each node is checked once, however
    many paths reach it.  A split's feature "repeats on the path" when some
    ancestor splits on it too, so no feature repeats on any path of a valid
    tree."""
    n = len(tree.nodes)
    n_features = space.n_features
    sizes = [len(d) for d in space.domains]
    if not (0 <= tree.root < n):
        problems.append(f"{where}: root id {tree.root} out of range")
        return
    # DFS from root with an explicit stack; detect cycles, non-total
    # children and out-of-range ids.  Entries are (parent, node, mask of
    # the features split on along the path); a split's id stays on the
    # path until its (split, None, 0) entry is popped, after all its
    # descendants.  A split's repeat verdict needs the features of all its
    # ancestors, known only once every path to it is walked: its place
    # among the messages is held by its node id until then.
    visited = bytearray(n)
    on_path: set[int] = set()
    back_edges: set[tuple[int, int]] = set()  # (split, child) closing a cycle
    rejoined = False  # some node is reached along a second path
    finished: list[int] = []  # splits whose descendants are all walked, in order
    above = [0] * n  # per node, the features its ancestors split on, as bits
    found: list = []  # messages, and split ids whose verdict is pending
    stack: list[tuple[int, Optional[int], int]] = [(-1, tree.root, 0)]
    while stack:
        parent, node_id, mask = stack.pop()
        if node_id is None:
            on_path.discard(parent)
            finished.append(parent)
            continue
        if not (0 <= node_id < n):
            found.append(f"{where}: node {parent} child id {node_id} out of range")
            continue
        if node_id in on_path:
            found.append(f"{where}: cycle through node {node_id}")
            back_edges.add((parent, node_id))
            continue
        if visited[node_id]:
            rejoined = True
            continue
        visited[node_id] = 1
        node = tree.nodes[node_id]
        if isinstance(node, Leaf):
            v = node.value
            if n_classes is None:
                if not isinstance(v, int) or isinstance(v, bool):
                    found.append(f"{where}: leaf {node_id} score is not an integer")
            elif not 0 <= v < n_classes:
                found.append(f"{where}: leaf {node_id} class index {v} out of range")
            continue
        above[node_id] = mask
        f = node.feature
        if not 0 <= f < n_features:
            found.append(f"{where}: node {node_id} feature index out of range")
            continue
        found.append(node_id)
        children = node.children
        if len(children) != sizes[f]:
            found.append(
                f"{where}: node {node_id} non-total children map for feature "
                f"'{space.names[f]}' ({len(children)} of {sizes[f]})"
            )
            continue
        on_path.add(node_id)
        stack.append((node_id, None, 0))
        mask |= 1 << f
        for child in reversed(children):
            stack.append((node_id, child, mask))
    if rejoined:
        # add the features above every other path to a node.  Without its
        # back edges the walk is acyclic, and a split finishes after
        # everything below it: in reverse finishing order every split's
        # ancestors come before it.
        for split in reversed(finished):
            node = tree.nodes[split]
            mask = above[split] | 1 << node.feature
            for child in node.children:
                if 0 <= child < n and (split, child) not in back_edges:
                    above[child] |= mask
    for entry in found:
        if isinstance(entry, str):
            problems.append(entry)
        elif above[entry] >> tree.nodes[entry].feature & 1:
            problems.append(
                f"{where}: feature '{space.names[tree.nodes[entry].feature]}' "
                f"repeats on the path to node {entry}"
            )
    if 0 in visited:
        unreachable = [i for i in range(n) if not visited[i]]
        problems.append(f"{where}: nodes unreachable from root: {unreachable}")


def validate(classifier: Classifier) -> list[str]:
    """Structural validation; returns the list of problems (empty means ok)."""
    problems: list[str] = []
    space = classifier.space
    if len(classifier.classes) < 2:
        problems.append("fewer than two classes")
    if isinstance(classifier, DecisionTree):
        _check_tree(space, classifier.tree, "tree", len(classifier.classes),
                    problems)
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
                _check_tree(space, tree, f"class {ci} tree {ti}", None, problems)
    return problems


def validated(classifier: Classifier) -> Classifier:
    """Raise ValidationError unless `classifier` is structurally sound."""
    problems = validate(classifier)
    if problems:
        raise ValidationError(problems)
    return classifier
