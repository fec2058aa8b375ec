"""Exact entailment and counterexample queries against a tree classifier.

A query fixes the features in a kept set to their values in an instance and
leaves the rest free.  Decision trees are answered by one iterative search
for a feasible path to a leaf of the wanted classes.  A counterexample is
by default the lexicographically first completion, built feature by feature
on the last path found; asked for any completion, a tree gives the one that
follows the first path found and agrees with the instance off it, after that
single search.  Additive ensembles are answered by one loop over the
`itertools.product` of per-feature value ranges (a free feature's domain, a
kept feature's instance value), which yields full value tuples in
lexicographic order; the product of the range lengths is capped first.
Each completion not yet in the prediction cache is scored by `raw_predict`.
Every walk, predictions and path searches alike, reads the flat node arrays
that each tree compiles once (`TreeStructure.arrays`,
`AdditiveEnsemble.class_arrays`).
Every public query bumps the per-session OracleStats exactly once, except
`minimal_sufficient`, which counts the entailment queries of the deletion
loop it stands for.

An AXp's deletion loop on a decision tree asks no separate path searches:
`_tree_minimal_sufficient` grows one region of reachable nodes as features
are dropped, and a probe explores only the nodes that dropping its feature
frees, so every node joins the region at most once.

Tree enumeration asks no queries: `_tree_disagreement_sets` finds every CXp
of an instance in one walk of the same arrays.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import AbstractSet, Optional, Sequence

from .hitting import _covers
from .model import (
    AdditiveEnsemble,
    Classifier,
    DecisionTree,
    Instance,
    ModelError,
    TreeStructure,
)

DEFAULT_COMPLETION_CAP = 2 ** 20


class SearchSpaceExceeded(ModelError):
    """The free-feature product of an ensemble query exceeds the cap."""


@dataclass
class OracleStats:
    """Query counters for one explanation session."""

    predict_calls: int = 0
    entailment_calls: int = 0
    witness_calls: int = 0

    @property
    def total_calls(self) -> int:
        return self.predict_calls + self.entailment_calls + self.witness_calls


def raw_predict(classifier: Classifier, values: tuple[int, ...]) -> int:
    """Class index for a full assignment, bypassing any oracle bookkeeping."""
    if isinstance(classifier, DecisionTree):
        feature, children, value = classifier.tree.arrays
        node = classifier.tree.root
        f = feature[node]
        while f >= 0:
            node = children[node][values[f]]
            f = feature[node]
        return value[node]
    scores = []
    for group in classifier.class_arrays:
        score = 0
        for feature, children, value, node in group:
            f = feature[node]
            while f >= 0:
                node = children[node][values[f]]
                f = feature[node]
            score += value[node]
        scores.append(score)
    # ties go to the lowest class index
    return scores.index(max(scores))


def _tree_path(tree: TreeStructure, values: list[Optional[int]],
               targets: frozenset[int]) -> Optional[dict[int, int]]:
    """Branch values of the free features (None in `values`) on the first
    path, depth first with children in ascending value order, to a leaf with
    class in `targets` that is feasible under `values`; None if there is none.

    Each node is expanded at most once: whether a target leaf is reachable
    from a node does not depend on the path to it, because no feature
    repeats on a path.
    """
    feature, children, value = tree.arrays
    seen: set[int] = set()
    # entries are (node id, link); a link is (parent link, feature, value)
    # for the free-feature branches taken on the way down, or None
    stack: list[tuple[int, Optional[tuple]]] = [(tree.root, None)]
    while stack:
        node_id, link = stack.pop()
        if node_id in seen:
            continue
        seen.add(node_id)
        f = feature[node_id]
        if f < 0:
            if value[node_id] in targets:
                path = {}
                while link is not None:
                    link, f, v = link
                    path[f] = v
                return path
            continue
        fixed = values[f]
        if fixed is not None:
            stack.append((children[node_id][fixed], link))
            continue
        kids = children[node_id]
        for v in range(len(kids) - 1, -1, -1):
            stack.append((kids[v], (link, f, v)))
    return None


def _tree_minimal_sufficient(tree: TreeStructure, values: tuple[int, ...],
                             candidates: Sequence[int],
                             targets: frozenset[int]) -> Optional[frozenset[int]]:
    """The deletion loop of `Oracle.minimal_sufficient` as one growing
    region walk; None if the `candidates` kept at `values` reach `targets`.

    The region R holds the nodes reachable while the kept set is fixed at
    `values`, and `splits` the splits in R of each kept feature.  Dropping
    f frees only the other children of f's splits in R, so a probe explores
    from those alone, skips nodes in R, and stops at the first target leaf.
    If it reaches none, f is dropped and the nodes it found join R;
    otherwise they are discarded and f stays kept.  The leaves below a node
    do not depend on the path to it, because no feature repeats on a path,
    so every node joins R at most once and a probe finds no split on f.
    """
    feature, children, value = tree.arrays
    kept = set(candidates)
    fixed: list[Optional[int]] = [v if f in kept else None
                                  for f, v in enumerate(values)]
    region: set[int] = set()
    splits: dict[int, list[int]] = {f: [] for f in kept}

    def grow(stack: list[int]) -> bool:
        # add to R the nodes reachable from `stack`; if that reaches a
        # target leaf, leave R as it was and return False
        found = []
        while stack:
            node = stack.pop()
            if node in region:
                continue
            region.add(node)
            found.append(node)
            f = feature[node]
            if f < 0:
                if value[node] in targets:
                    region.difference_update(found)
                    return False
                continue
            v = fixed[f]
            if v is None:
                stack.extend(children[node])
            else:
                stack.append(children[node][v])
        for node in found:
            f = feature[node]
            if f >= 0 and fixed[f] is not None:
                splits[f].append(node)
        return True

    if not grow([tree.root]):
        return None
    for f in candidates:
        v = values[f]
        fixed[f] = None
        if grow([kid for node in splits[f]
                 for w, kid in enumerate(children[node]) if w != v]):
            kept.discard(f)
        else:
            fixed[f] = v
    return frozenset(kept)


def _tree_disagreement_sets(tree: TreeStructure, values: tuple[int, ...],
                            targets: frozenset[int]) -> list[frozenset[int]]:
    """The subset-minimal disagreement sets of the paths to leaves with class
    in `targets`, where a path's disagreement set holds the features on it
    whose branch differs from `values`.  For the instance `values` these are
    exactly its CXps into `targets` (Izza, Ignatiev and Marques-Silva, *On
    Explaining Decision Trees*, 2020).

    One walk carries the bit mask of the disagreeing features, and handles
    its states in level order, where a state's level is the number of bits
    in its mask: a disagreeing child is one level deeper, and each state
    follows its agreeing children down at its own level.  So every mask
    that reaches a target leaf is appended to `found` after all smaller
    ones, and `found` is an antichain by construction.  A mask that covers
    a set already found cannot lead to a minimal one and is dropped, both
    when a split would push its disagreeing children and when a state is
    taken up, since sets of the level it was pushed from may have been
    found since.  So is a state whose mask covers one already expanded at
    the same node: the leaves below a node, and the disagreements below it,
    do not depend on the path to it, because no feature repeats on a path.
    That rule keeps splits that share children polynomial, where
    remembering only equal masks would not.
    """
    feature, children, value = tree.arrays
    found: list[int] = []
    expanded: dict[int, list[int]] = {}  # node id -> masks expanded there
    level = [(tree.root, 0)]
    while level:
        deeper = []
        for node_id, mask in level:
            if _covers(found, mask):
                continue
            f = feature[node_id]
            while f >= 0:
                seen = expanded.get(node_id)
                if seen is None:
                    expanded[node_id] = [mask]
                elif _covers(seen, mask):
                    break
                else:
                    seen.append(mask)
                kids = children[node_id]
                agree = values[f]
                differs = mask | 1 << f
                if not _covers(found, differs):
                    for v, kid in enumerate(kids):
                        if v != agree:
                            deeper.append((kid, differs))
                node_id = kids[agree]
                f = feature[node_id]
            if f < 0 and value[node_id] in targets:
                found.append(mask)
        level = deeper
    return [frozenset(f for f in range(mask.bit_length()) if mask >> f & 1)
            for mask in found]


def _kept_values(instance: Instance,
                 kept: AbstractSet[int]) -> list[Optional[int]]:
    """The instance's values with every feature outside `kept` set to None."""
    return [v if f in kept else None for f, v in enumerate(instance.values)]


class Oracle:
    """Stateful query interface over an immutable classifier.

    `entails`, `reaches` and `find_counterexample` take an instance and the
    set of its features kept at their instance values; every other feature
    is free.
    On a decision tree each is one iterative path search, plus one more per
    value tried below the last path's branch when building the
    lexicographically first counterexample.  `minimal_sufficient` runs a
    whole AXp deletion loop, on a tree as one region walk.

    One Oracle per explanation session: the stats object and the prediction
    cache are its only mutable state.  The cache is keyed on full value
    tuples and is exact, so sharing it within a session is safe.  The
    classifier stays immutable and safe to share: the node arrays every
    walk reads are compiled on its first query and cached on the classifier,
    so all oracles over one classifier object share them.
    """

    def __init__(self, classifier: Classifier,
                 completion_cap: int = DEFAULT_COMPLETION_CAP):
        self.classifier = classifier
        self.stats = OracleStats()
        self.completion_cap = completion_cap
        self._cache: dict[tuple[int, ...], int] = {}

    @property
    def space(self):
        return self.classifier.space

    @property
    def n_classes(self) -> int:
        return self.classifier.n_classes

    def predict(self, instance: Instance) -> int:
        """Class index of `instance`; ModelError if it does not fit the model."""
        self.space.check_instance(instance)
        self.stats.predict_calls += 1
        return self._predict(instance.values)

    def entails(self, instance: Instance, kept: AbstractSet[int],
                target_class: int) -> bool:
        """True iff every completion of the `kept` features of `instance`
        predicts `target_class`."""
        others = frozenset(range(self.n_classes)) - {target_class}
        return not self.reaches(instance, kept, others)

    def reaches(self, instance: Instance, kept: AbstractSet[int],
                targets: frozenset[int]) -> bool:
        """True iff some completion of the `kept` features of `instance`
        predicts into `targets`.  It builds no completion, and it counts as
        an entailment query."""
        self.stats.entailment_calls += 1
        values = _kept_values(instance, kept)
        if isinstance(self.classifier, DecisionTree):
            return _tree_path(self.classifier.tree, values, targets) is not None
        return self._ensemble_completion(values, targets) is not None

    def minimal_sufficient(self, instance: Instance, candidates: Sequence[int],
                           targets: frozenset[int]) -> Optional[frozenset[int]]:
        """The deletion loop over `candidates`, or None if keeping all of them
        still reaches `targets`.  Each feature, in the given order, is
        dropped when the kept set without it no longer reaches `targets`; what
        stays is a subset-minimal set whose completions all miss them.

        It counts one entailment query for the check of all candidates and
        one per candidate probed, as the same loop over `reaches` would.  On
        a decision tree it is one growing region walk
        (`_tree_minimal_sufficient`); an ensemble runs that `reaches` loop.
        ModelError if a candidate is not a feature index."""
        features = range(self.space.n_features)
        if bad := [f for f in candidates if f not in features]:
            raise ModelError(f"candidates {bad} are not feature indices")
        if isinstance(self.classifier, DecisionTree):
            kept = _tree_minimal_sufficient(self.classifier.tree, instance.values,
                                            candidates, targets)
            self.stats.entailment_calls += 1 if kept is None else 1 + len(candidates)
            return kept
        kept = set(candidates)
        if self.reaches(instance, kept, targets):
            return None
        for f in candidates:
            if not self.reaches(instance, kept - {f}, targets):
                kept.discard(f)
        return frozenset(kept)

    def find_counterexample(self, instance: Instance, kept: AbstractSet[int],
                            targets: frozenset[int], *,
                            first: bool = True) -> Optional[Instance]:
        """A completion of the `kept` features of `instance` that predicts
        into `targets`, or None if there is none.

        With `first` it is the lexicographically first one.  Without it, any
        one will do: on a decision tree that is the completion taking the
        branch values of the first feasible path found and the instance's
        values elsewhere, after one path search; an ensemble still gives the
        first, which its search finds first anyway."""
        if not targets:
            raise ValueError("targets must be non-empty")
        self.stats.witness_calls += 1
        values = _kept_values(instance, kept)
        targets = frozenset(targets)
        if not isinstance(self.classifier, DecisionTree):
            return self._ensemble_completion(values, targets)
        if first:
            return self._tree_completion(values, targets)
        path = _tree_path(self.classifier.tree, values, targets)
        if path is None:
            return None
        # the path holds only free features, so the kept ones keep their values
        return Instance(tuple(path.get(f, v) for f, v in enumerate(instance.values)))

    # internal machinery (not counted in stats)

    def _predict(self, values: tuple[int, ...]) -> int:
        cached = self._cache.get(values)
        if cached is None:
            cached = raw_predict(self.classifier, values)
            self._cache[values] = cached
        return cached

    def _tree_completion(self, values: list[Optional[int]],
                         targets: frozenset[int]) -> Optional[Instance]:
        tree = self.classifier.tree
        path = _tree_path(tree, values, targets)
        if path is None:
            return None
        # fix the free features in order, each to its least value that keeps
        # a target leaf reachable.  The last path found stays feasible, so
        # its branch value w (0 off the path) needs no search; only the
        # values below w do, and a path found for one of them replaces it.
        for f in range(len(values)):
            if values[f] is not None:
                continue
            w = path.get(f, 0)
            for v in range(w):
                values[f] = v
                found = _tree_path(tree, values, targets)
                if found is not None:
                    path = found
                    break
            else:
                values[f] = w
        return Instance(tuple(values))

    def _ensemble_completion(self, sigma_values: list[Optional[int]],
                             targets: frozenset[int]) -> Optional[Instance]:
        ranges = [range(self.space.domain_size(f)) if v is None else (v,)
                  for f, v in enumerate(sigma_values)]
        if math.prod(map(len, ranges)) > self.completion_cap:
            raise SearchSpaceExceeded(
                f"free-feature product exceeds the completion cap "
                f"({self.completion_cap}); fix more features or use a "
                f"smaller model"
            )
        for full in itertools.product(*ranges):
            if self._predict(full) in targets:
                return Instance(full)
        return None
