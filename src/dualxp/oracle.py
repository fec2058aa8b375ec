"""Exact entailment and counterexample queries against a tree classifier.

A query fixes the features in a kept set to their values in an instance and
leaves the rest free.  Decision trees are answered by one iterative search
for a feasible path to a leaf of the wanted classes.  A counterexample is
the lexicographically first completion, built feature by feature on the
last path found.  Additive ensembles are answered by one completion loop,
`Oracle._first_target`, over the `itertools.product` of per-feature value
ranges (a free feature's domain, kept once on the `FeatureSpace`, or a kept
feature's instance value), which yields full value tuples in lexicographic
order.  Each completion not yet in the prediction cache is scored by
`raw_predict`.  Every query's number of completions, the product of its
range lengths, is checked against the completion cap before its search.
The deletion and grow loops keep one ranges list and update it in place as
features are dropped or fixed.  A deletion probe of feature f searches only
the completions that move f off its instance value, because those that keep
it were refuted under the last kept set; it is still capped as the whole
kept set without f.
Every walk, predictions and path searches alike, reads the flat node arrays
that each tree compiles once (`TreeStructure.arrays`,
`AdditiveEnsemble.class_arrays`).
Every public query bumps the per-session OracleStats exactly once, except
`minimal_sufficient` and `maximal_reaching`, which count the queries of the
deletion and grow loops they stand for.

An AXp's deletion loop on a decision tree asks no separate path searches:
`_tree_minimal_sufficient` grows one region of reachable nodes as features
are dropped, and a probe explores only the nodes that dropping its feature
frees, so every node joins the region at most once.

A CXp's grow loop on a decision tree (`_tree_maximal_reaching`) keeps one
list of fixed values and the last path found as its witness, and each of
its path searches tries the instance's own branch first at every free
split, so the witness agrees with the instance on as many features as that
search allows and those features join with no search of their own.

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
               targets: frozenset[int],
               prefer: Optional[Sequence[int]] = None) -> Optional[dict[int, int]]:
    """Branch values of the free features (None in `values`) on the first
    path, depth first, to a leaf with class in `targets` that is feasible
    under `values`; None if there is none.

    A free split tries its children in ascending value order, or, given
    `prefer`, its child for the preferred value first and then the rest in
    ascending order; the path then leaves out the free features whose
    branch is the preferred one.  A kept split is followed on the spot.

    Each node is expanded at most once: whether a target leaf is reachable
    from a node does not depend on the path to it, because no feature
    repeats on a path.
    """
    feature, children, value = tree.arrays
    seen: set[int] = set()
    # entries are (node id, link); a link is (parent link, feature, value)
    # for the free-feature branches recorded on the way down, or None
    stack: list[tuple[int, Optional[tuple]]] = [(tree.root, None)]
    while stack:
        node_id, link = stack.pop()
        while node_id not in seen:
            seen.add(node_id)
            f = feature[node_id]
            if f < 0:
                if value[node_id] in targets:
                    path = {}
                    while link is not None:
                        link, f, v = link
                        path[f] = v
                    return path
                break
            fixed = values[f]
            if fixed is not None:
                node_id = children[node_id][fixed]
                continue
            kids = children[node_id]
            own = -1 if prefer is None else prefer[f]
            for v in range(len(kids) - 1, -1, -1):
                if v != own:
                    stack.append((kids[v], (link, f, v)))
            if own >= 0:
                stack.append((kids[own], link))
            break
    return None


def _tree_maximal_reaching(tree: TreeStructure, values: tuple[int, ...],
                           kept: AbstractSet[int], order: Sequence[int],
                           targets: frozenset[int],
                           witness: Optional[Instance]) -> tuple[Optional[frozenset[int]], int]:
    """The grow loop of `Oracle.maximal_reaching` on a decision tree, and
    the number of path searches it made.

    One `fixed` list holds the kept features at `values`, and the last path
    found stands for the witness: it takes its branch values on the path
    and `values` off it.  Each search tries the instance's own branch first
    at every free split, so the path leaves out the features on which the
    witness agrees with the instance, and more features join with no search.
    """
    fixed: list[Optional[int]] = [v if f in kept else None
                                  for f, v in enumerate(values)]
    if witness is None:
        path = _tree_path(tree, fixed, targets, values)
        if path is None:
            return None, 1
        searches = 1
    else:
        path = {f: w for f, (w, v) in enumerate(zip(witness.values, values))
                if w != v}
        searches = 0
    for f in order:
        if fixed[f] is not None:
            continue
        v = fixed[f] = values[f]
        if path.get(f, v) == v:
            continue
        searches += 1
        found = _tree_path(tree, fixed, targets, values)
        if found is None:
            fixed[f] = None
        else:
            path = found
    return frozenset(f for f, v in enumerate(fixed) if v is not None), searches


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
    whole AXp deletion loop, on a tree as one region walk, and
    `maximal_reaching` a whole CXp grow loop, on a tree as one path search
    per feature the last witness disagrees on.

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
        if isinstance(self.classifier, DecisionTree):
            return _tree_path(self.classifier.tree, _kept_values(instance, kept),
                              targets) is not None
        ranges = self._ranges(instance, kept)
        self._capped(math.prod(map(len, ranges)))
        return self._first_target(ranges, targets) is not None

    def minimal_sufficient(self, instance: Instance, candidates: Sequence[int],
                           targets: frozenset[int]) -> Optional[frozenset[int]]:
        """The deletion loop over `candidates`, or None if keeping all of them
        still reaches `targets`.  Each feature, in the given order, is
        dropped when the kept set without it no longer reaches `targets`; what
        stays is a subset-minimal set whose completions all miss them.

        It counts one entailment query for the check of all candidates and
        one per candidate probed, as the same loop over `reaches` would, and
        raises SearchSpaceExceeded at the same query.  On a decision tree it
        is one growing region walk (`_tree_minimal_sufficient`).  On an
        ensemble the probe of f searches only the completions with f off its
        instance value, since those with f at it were just refuted; a
        repeated candidate, already dropped, needs no search.
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
        self.stats.entailment_calls += 1
        ranges = self._ranges(instance, kept)
        size = self._capped(math.prod(map(len, ranges)))
        if self._first_target(ranges, targets) is not None:
            return None
        domains = self.space.value_ranges
        for f in candidates:
            self.stats.entailment_calls += 1
            if f not in kept:
                continue  # dropped by an earlier copy of it in `candidates`
            domain = domains[f]
            # checked as the whole kept set without f, though the completions
            # that keep f at its value were refuted and are not searched again
            self._capped(size * len(domain))
            own = ranges[f]
            v = own[0]
            ranges[f] = domain[:v] + domain[v + 1:]
            if self._first_target(ranges, targets) is None:
                kept.discard(f)
                ranges[f] = domain
                size *= len(domain)
            else:
                ranges[f] = own
        return frozenset(kept)

    def maximal_reaching(self, instance: Instance, kept: AbstractSet[int],
                         order: Sequence[int], targets: frozenset[int],
                         witness: Optional[Instance] = None,
                         ) -> Optional[frozenset[int]]:
        """The grow loop over `order`, or None if no completion of the `kept`
        features reaches `targets`.  Each feature not yet kept, in the given
        order, joins when the targets stay reachable with it kept too; what
        is kept at the end is a maximal set whose completions still reach
        them, and the features outside it form a CXp.

        `witness`, if given, must be a completion of `kept` that predicts
        into `targets`; otherwise one search establishes it.  A feature on
        which the current witness agrees with the instance joins with no
        search; each other feature costs one, whose completion, if there is
        one, becomes the witness.  It counts one witness query per search.
        On a decision tree each search is one path search that tries the
        instance's own branch first, so the witness agrees with the instance
        on more features; an ensemble searches its completions in
        lexicographic order.  ModelError if a feature in `order` is not a
        feature index."""
        features = range(self.space.n_features)
        if bad := [f for f in order if f not in features]:
            raise ModelError(f"order {bad} are not feature indices")
        targets = frozenset(targets)
        if isinstance(self.classifier, DecisionTree):
            grown, searches = _tree_maximal_reaching(
                self.classifier.tree, instance.values, kept, order, targets, witness)
            self.stats.witness_calls += searches
            return grown
        tau = instance.values
        fixed = [f in kept for f in range(len(tau))]
        ranges = self._ranges(instance, kept)
        size = math.prod(map(len, ranges))
        if witness is None:
            self.stats.witness_calls += 1
            self._capped(size)
            witness = self._first_target(ranges, targets)
            if witness is None:
                return None
        else:
            witness = witness.values
        domains = self.space.value_ranges
        for f in order:
            if fixed[f]:
                continue
            fixed[f] = True
            v = tau[f]
            ranges[f] = (v,)
            size //= len(domains[f])
            if witness[f] == v:
                continue
            self.stats.witness_calls += 1
            self._capped(size)
            found = self._first_target(ranges, targets)
            if found is None:
                fixed[f] = False
                ranges[f] = domains[f]
                size *= len(domains[f])
            else:
                witness = found
        return frozenset(f for f, k in enumerate(fixed) if k)

    def find_counterexample(self, instance: Instance, kept: AbstractSet[int],
                            targets: frozenset[int]) -> Optional[Instance]:
        """The lexicographically first completion of the `kept` features of
        `instance` that predicts into `targets`, or None if there is none."""
        if not targets:
            raise ValueError("targets must be non-empty")
        self.stats.witness_calls += 1
        targets = frozenset(targets)
        if isinstance(self.classifier, DecisionTree):
            return self._tree_completion(_kept_values(instance, kept), targets)
        ranges = self._ranges(instance, kept)
        self._capped(math.prod(map(len, ranges)))
        found = self._first_target(ranges, targets)
        return None if found is None else Instance(found)

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

    def _ranges(self, instance: Instance,
                kept: AbstractSet[int]) -> list[tuple[int, ...]]:
        """Per feature, the instance's value alone if it is in `kept`, else
        the feature's whole domain."""
        domains = self.space.value_ranges
        return [(v,) if f in kept else domains[f]
                for f, v in enumerate(instance.values)]

    def _capped(self, size: int) -> int:
        """`size`, the number of completions a query stands for, unless it
        exceeds the completion cap."""
        if size > self.completion_cap:
            raise SearchSpaceExceeded(
                f"free-feature product exceeds the completion cap "
                f"({self.completion_cap}); fix more features or use a "
                f"smaller model"
            )
        return size

    def _first_target(self, ranges: Sequence[tuple[int, ...]],
                      targets: AbstractSet[int]) -> Optional[tuple[int, ...]]:
        """The first completion in `itertools.product(*ranges)`, which is
        lexicographic, that predicts into `targets`; None if there is none.
        A completion not yet in the prediction cache is scored by
        `raw_predict`, looked up in this module on every miss."""
        cache = self._cache
        classifier = self.classifier
        for full in itertools.product(*ranges):
            predicted = cache.get(full)
            if predicted is None:
                predicted = cache[full] = raw_predict(classifier, full)
            if predicted in targets:
                return full
        return None
