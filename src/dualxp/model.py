"""Domain types: categorical feature spaces, literals, instances and tree classifiers.

All types are frozen dataclasses and safe to share across workers once validated.
Trees are built and validated as `Leaf`/`Split` node objects.  Predictions
and searches read one compiled form per classifier instead, built from the
node objects on first use and cached on the object, so every oracle over
one classifier shares it:
- a decision tree's walks read `TreeStructure.linked`, the tree's root as a
  linked node.  A split is (feature, tuple of its child nodes by value) and
  a leaf (-1, value), so each step of a walk is one subscript by value and
  one unpack.  The walks search over ranges of values, not single points;
- an ensemble predicts a point through `AdditiveEnsemble.scorer`, Python
  code generated from its trees' nodes and compiled, in which each tree is
  one expression of nested conditionals, each class's sum is one statement
  per chunk of trees, and the argmax is a chain of compares
  (`_compile_scorer`).
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
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union


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
        for name, dom in zip(self.names, self.domains):
            if not dom:
                raise ModelError(f"feature '{name}' has an empty domain")
            if len(set(dom)) != len(dom):
                raise ModelError(f"feature '{name}' has duplicate category names")

    @property
    def n_features(self) -> int:
        return len(self.names)

    def domain_size(self, feature: int) -> int:
        return len(self.domains[feature])

    @functools.cached_property
    def value_ranges(self) -> tuple[tuple[int, ...], ...]:
        """Per feature, the tuple of its value indices, built on first use
        and kept, so an oracle query builds no ranges of its own."""
        return tuple(tuple(range(len(dom))) for dom in self.domains)

    @functools.cached_property
    def own_first_ranges(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per feature and value v, the feature's value indices with v first
        and the rest ascending: the range a CXp grow search tries at a free
        feature whose instance value is v.  Built on first use and kept."""
        return tuple(tuple((v,) + r[:v] + r[v + 1:] for v in r)
                     for r in self.value_ranges)

    def feature_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ModelError(f"unknown feature '{name}'") from None

    def check_instance(self, instance: "Instance") -> None:
        """Raise ModelError unless `instance` has one in-domain value per
        feature.  The walks index children by value and trust it, so every
        entry point that takes an instance from a caller checks it here.
        Each oracle query does, so the common case is one `map` in C."""
        values = instance.values
        if len(values) != len(self.domains):
            raise ModelError(f"instance has {len(values)} values, "
                             f"the model has {len(self.domains)} features")
        ranges = self.value_ranges
        if not all(map(operator.contains, ranges, values)):
            f = next(f for f, v in enumerate(values) if v not in ranges[f])
            raise ModelError(f"value {values[f]} is outside the domain of "
                             f"feature '{self.names[f]}'")

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
    def linked(self) -> tuple:
        """The root as a linked node, built on first use and kept.  A split
        is (feature, tuple of its child nodes by value) and a leaf (-1,
        value), so a walk from the root is `while f >= 0: f, x = x[values[f]]`,
        one unpack per step.  There is one linked node per node id, and one
        linked leaf per leaf value, so shared children stay shared and,
        while the tree lives, a walk may key the nodes it has visited on
        their `id`.  Each split is pushed once, with an iterator over its
        children: a leaf child is linked on the spot, the first unlinked
        split child is pushed on top, and the split is linked once its
        iterator runs out.  No recursion limits the depth."""
        nodes = self.nodes
        root = nodes[self.root]
        if isinstance(root, Leaf):
            return (-1, root.value)
        linked: list[Optional[tuple]] = [None] * len(nodes)
        leaves: dict[int, tuple] = {}
        stack = [(self.root, iter(root.children))]
        while stack:
            node_id, rest = stack[-1]
            for kid in rest:
                if linked[kid] is None:
                    node = nodes[kid]
                    if isinstance(node, Leaf):
                        linked[kid] = leaves.setdefault(node.value, (-1, node.value))
                    else:
                        stack.append((kid, iter(node.children)))
                        break
            else:
                stack.pop()
                node = nodes[node_id]
                linked[node_id] = (node.feature,
                                   tuple([linked[kid] for kid in node.children]))
        return linked[self.root]


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
    scores were multiplied by; the arithmetic itself stays exact.  Points
    are predicted by `scorer`, straight-line code compiled once from the
    trees' nodes, in which a tree is one expression of nested conditionals
    and a class with no trees scores 0; no linked form of its trees is
    built.
    """

    space: FeatureSpace
    classes: tuple[str, ...]
    trees: tuple[tuple[TreeStructure, ...], ...]
    scale: int

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @functools.cached_property
    def scorer(self) -> Callable[[Sequence[int]], int]:
        """The compiled prediction: a full value tuple's class index, built
        from the trees' nodes on the first prediction and kept, so every
        oracle over one ensemble object shares it (`_compile_scorer`).  It
        trusts its values to lie in their domains."""
        return _compile_scorer(self)


Classifier = Union[DecisionTree, AdditiveEnsemble]


INLINE_DEPTH = 32     # nested conditionals a tree's expression inlines
TREES_PER_CHUNK = 4   # trees summed by one compiled function
_LITERAL_BOUND = 2 ** 63  # leaf scores smaller in magnitude are written as literals


def _walk_from(nodes: Sequence[Node], node_id: int, values: Sequence[int]) -> int:
    """The value of the leaf that `values` reaches from node `node_id`: what
    the scorer's code calls for a split nested deeper than INLINE_DEPTH, or
    for one it has already inlined."""
    node = nodes[node_id]
    while isinstance(node, Split):
        node = nodes[node.children[values[node.feature]]]
    return node.value


def _tree_expression(tree: TreeStructure, name: str, constants: list[int],
                     where: str) -> str:
    """`tree`'s leaf score at the value tuple `v`, as one Python expression
    in which `name` is bound to `tree.nodes`.

    A run of equal children is that child, so a split with one child is its
    child.  A binary split is `(hi if v[f] else lo)`, and a wider one tests
    `v[f] < m` at the middle of its children, so it takes about log2 of
    their number compares.  A leaf is an integer literal; another int (a
    bool, or one too large to write) is read from `constants`, and a node id
    is written by `%d`, so no model value's own text enters the source; a
    leaf or a split feature that is not an int raises ModelError.
    Each split is inlined at its first reference within INLINE_DEPTH nested
    conditionals.  Deeper, and at any later reference, the expression calls
    `walk(name, node id, v)` (`_walk_from`), so the text stays linear in the
    nodes however many paths share them.  The text is written in order from
    an explicit stack, so no recursion limits the depth."""
    nodes = tree.nodes
    inlined: set[int] = set()
    out: list[str] = []
    # entries: text; (node id, depth) for a node; (split id, lo, hi, depth)
    # for its children lo to hi - 1, where lo <= v[f] < hi is known.  The
    # depth is the number of conditionals the entry is nested in
    stack: list = [(tree.root, 0)]
    while stack:
        entry = stack.pop()
        if isinstance(entry, str):
            out.append(entry)
            continue
        node_id, depth = entry[0], entry[-1]
        node = nodes[node_id]
        if isinstance(node, Leaf):
            value = node.value
            if type(value) is int and -_LITERAL_BOUND < value < _LITERAL_BOUND:
                out.append(str(value))
            elif isinstance(value, int):
                constants.append(value)
                out.append(f"k[{len(constants) - 1}]")
            else:
                raise ModelError(f"{where}: leaf {node_id} score is not an integer")
            continue
        kids = node.children
        walk = "walk(%s, %d, v)" % (name, node_id)  # %d writes an int's digits
        if len(entry) == 2:
            if node_id in inlined or depth >= INLINE_DEPTH:
                out.append(walk)
            elif type(node.feature) is not int:
                raise ModelError(f"{where}: node {node_id} feature is not an integer")
            else:
                inlined.add(node_id)
                stack.append((node_id, 0, len(kids), depth))
            continue
        _, lo, hi, _ = entry
        if kids[lo:hi] == (kids[lo],) * (hi - lo):
            stack.append((kids[lo], depth))
        elif depth >= INLINE_DEPTH:
            out.append(walk)
        elif hi - lo == len(kids) == 2:
            stack += [")", (kids[0], depth + 1), f" if v[{node.feature}] else\n",
                      (kids[1], depth + 1), "("]
        else:
            mid = (lo + hi) // 2
            stack += [")", (node_id, mid, hi, depth + 1),
                      f" if v[{node.feature}] < {mid} else\n",
                      (node_id, lo, mid, depth + 1), "("]
    return "".join(out)


def _compile_scorer(ensemble: AdditiveEnsemble) -> Callable[[Sequence[int]], int]:
    """Build `AdditiveEnsemble.scorer`.  Each class's trees are summed in
    chunks of TREES_PER_CHUNK, each chunk one `lambda v:` over the trees'
    expressions (`_tree_expression`), compiled on its own so that no one
    source or syntax tree grows with the trees.  One more function,
    `score(v)`, sums each class's chunks exactly, as integers, with one
    statement per chunk call (`s0 = c0(v)`, `s0 += c1(v)`, ..., and
    `s1 = 0` for a class with no trees), so its source nests no deeper
    however many chunks there are.  It then returns the class with the
    highest sum by compare and branch, ties to the lowest class index.
    ModelError if a leaf score or a split feature is not an int."""
    chunks: dict[str, Callable[[Sequence[int]], int]] = {}
    lines = ["def score(v):"]
    for ci, group in enumerate(ensemble.trees):
        calls = []
        for start in range(0, len(group), TREES_PER_CHUNK):
            constants: list[int] = []
            namespace = {"walk": _walk_from, "k": constants}
            terms = []
            for ti, tree in enumerate(group[start:start + TREES_PER_CHUNK], start):
                name = f"t{ti - start}"
                namespace[name] = tree.nodes
                terms.append(_tree_expression(tree, name, constants,
                                              f"class {ci} tree {ti}"))
            chunk = f"c{len(chunks)}"
            chunks[chunk] = eval("lambda v: " + " + ".join(terms), namespace)
            calls.append(f"{chunk}(v)")
        lines.append(f"    s{ci} = {calls[0] if calls else 0}")
        lines += [f"    s{ci} += {call}" for call in calls[1:]]
    # the best sum so far is `m`, of class `r`; a later class takes over
    # only with a strictly higher sum
    last = len(ensemble.trees) - 1
    lines.append("    m, r = s0, 0")
    lines += [f"    if s{ci} > m: m, r = s{ci}, {ci}" for ci in range(1, last)]
    lines.append(f"    return {last} if s{last} > m else r")
    exec("\n".join(lines), chunks)
    return chunks["score"]


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
