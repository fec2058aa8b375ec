"""Exact entailment and counterexample queries against a tree classifier.

A query fixes the features in a kept set to their values in an instance and
leaves the rest free, and asks whether some completion reaches the target
classes.  Every search describes that by per-feature value ranges: the
tuple of values each feature may take, in the order they are tried (a kept
feature's instance value alone, a free feature's domain, kept once on the
`FeatureSpace`).  One method, `Oracle._first_target`, answers it and
returns the first target completion as a full value tuple: on a decision
tree by one depth-first path search, `_tree_target`, on an additive
ensemble by one completion loop over the `itertools.product` of the ranges.
The ranges are ascending for `reaches`, `minimal_sufficient` and
`find_counterexample`, and instance-first for the grow loop of
`maximal_reaching`, whose free ranges list the instance's value before the
rest of the domain (`FeatureSpace.own_first_ranges`).  The deletion and
grow loops keep one ranges list and update it in place as features are
dropped or fixed.

An ensemble's product yields completions in the order of the ranges, so
its first target is the lexicographically first one.  Each completion not
yet in the prediction cache is scored by `raw_predict`.  The completion cap
bounds the completions one search visits: the loop raises
SearchSpaceExceeded once it has visited that many with no target and more
to go, so a search whose first target comes early answers however large its
product is, and a search that refutes pays up to the cap before it raises.
A deletion probe of feature f searches only the completions that move f off
its instance value, because those that keep it were refuted under the last
kept set.
A tree's path search takes each split's range in listed order, so it is
depth first, not lexicographic: `find_counterexample`'s witness follows
the first target path, each other free feature at its least value.
A decision tree's walks follow the linked nodes that the tree compiles once
(`TreeStructure.linked`): a split is (feature, child nodes) and a leaf (-1,
value), so each step is one subscript by value and one unpack.  The tree
walks below key the nodes they have visited on `id(node)`; the tree's cache
keeps every linked node alive, and there is one per node id, so a node is
expanded at most once however many paths reach it.  Equal leaves share one
linked leaf, which is sound because a leaf's verdict depends on its value
alone.  An ensemble walks no tree: `raw_predict` calls the scorer that the
ensemble compiles once (`AdditiveEnsemble.scorer`), generated code in which
each tree is one expression of nested conditionals on the values, so a
cache miss runs straight-line code instead of a loop per tree.
Every public query bumps the per-session OracleStats exactly once, except
`minimal_sufficient` and `maximal_reaching`, which count the queries of the
deletion and grow loops they stand for.

An AXp's deletion loop on a decision tree asks no separate path searches:
`_tree_minimal_sufficient` grows one region of reachable nodes as features
are dropped, and a probe explores only the nodes that dropping its feature
frees, so every node joins the region at most once.

A CXp's grow loop keeps the last target completion found as its witness,
and each of its searches tries the instance's own value first at every free
feature, so the witness agrees with the instance on as many features as
that search allows and those features join with no search of their own.

Tree enumeration asks no queries: `_tree_disagreement_sets` finds every CXp
of an instance, as a mask, in one walk of the same linked nodes.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import AbstractSet, Optional, Sequence

from .hitting import BudgetExceeded, _covers
from .model import Classifier, DecisionTree, Instance, ModelError, TreeStructure

DEFAULT_COMPLETION_CAP = 2 ** 20


class SearchSpaceExceeded(BudgetExceeded):
    """One ensemble search visited the completion cap's number of
    completions, found no target among them, and had more to visit."""


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
    """Class index for a full assignment of in-domain values, bypassing any
    oracle bookkeeping: a walk of a decision tree's linked nodes, or an
    ensemble's compiled scorer."""
    if isinstance(classifier, DecisionTree):
        # x is a split's child nodes, then the leaf's class once f < 0
        f, x = classifier.tree.linked
        while f >= 0:
            f, x = x[values[f]]
        return x
    return classifier.scorer(values)


def _tree_target(tree: TreeStructure, ranges: Sequence[tuple[int, ...]],
                 targets: AbstractSet[int]) -> Optional[tuple[int, ...]]:
    """The first path, depth first, to a leaf with class in `targets` whose
    branches all lie in `ranges`, as a full completion: its branch values
    on the path and each other feature's first listed value; None if there
    is none.

    A split tries its feature's range in listed order, so a range of one
    value is followed on the spot.  Each node is expanded at most once:
    whether a target leaf is reachable from a node does not depend on the
    path to it, because no feature repeats on a path.
    """
    seen: set[int] = set()  # ids of the linked nodes expanded
    # entries are (node, link); a link is (parent link, feature, value) for
    # each branch on the way down off its feature's first listed value, or
    # None
    stack: list[tuple[tuple, Optional[tuple]]] = [(tree.linked, None)]
    while stack:
        node, link = stack.pop()
        key = id(node)
        while key not in seen:
            seen.add(key)
            f, x = node
            if f < 0:
                if x in targets:
                    full = [r[0] for r in ranges]
                    while link is not None:
                        link, f, v = link
                        full[f] = v
                    return tuple(full)
                break
            # go on at the first listed value, which the completion takes
            # unless a link says otherwise; push the rest, last one first
            r = ranges[f]
            if len(r) > 1:
                for v in r[:0:-1]:
                    stack.append((x[v], (link, f, v)))
            node = x[r[0]]
            key = id(node)
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
    kept = set(candidates)
    fixed: list[Optional[int]] = [v if f in kept else None
                                  for f, v in enumerate(values)]
    region: set[int] = set()  # ids of the linked nodes in R
    splits: dict[int, list[tuple]] = {f: [] for f in kept}  # their children

    def grow(stack: list[tuple]) -> bool:
        # add to R the nodes reachable from `stack`; if that reaches a
        # target leaf, leave R as it was and return False
        found = []
        while stack:
            node = stack.pop()
            key = id(node)
            if key in region:
                continue
            region.add(key)
            found.append(node)
            f, x = node
            if f < 0:
                if x in targets:
                    region.difference_update(map(id, found))
                    return False
                continue
            v = fixed[f]
            if v is None:
                stack.extend(x)
            else:
                stack.append(x[v])
        for f, x in found:
            if f >= 0 and fixed[f] is not None:
                splits[f].append(x)
        return True

    if not grow([tree.linked]):
        return None
    for f in candidates:
        v = values[f]
        fixed[f] = None
        if grow([kid for kids in splits[f]
                 for w, kid in enumerate(kids) if w != v]):
            kept.discard(f)
        else:
            fixed[f] = v
    return frozenset(kept)


def _tree_disagreement_sets(tree: TreeStructure, values: tuple[int, ...],
                            targets: frozenset[int], bits: Sequence[int]) -> list[int]:
    """The subset-minimal disagreement sets of the paths to leaves with class
    in `targets`, where a path's disagreement set holds the features on it
    whose branch differs from `values`.  For the instance `values` these are
    exactly its CXps into `targets` (Izza, Ignatiev and Marques-Silva, *On
    Explaining Decision Trees*, 2020).  Each set is a mask made of the
    features' `bits`, one distinct single-bit int per feature.

    One walk carries the mask of the disagreeing features, and handles
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

    The two tests against `found` read it split in two: its one-feature
    sets OR-ed into one mask, `single`, since a mask covers a one-feature
    set exactly when it holds that feature, and its other sets as a list,
    `multi`.  So a test is one AND and a scan of the larger sets alone.
    """
    found: list[int] = []
    single = 0  # the one-feature sets of `found`, OR-ed into one mask
    multi: list[int] = []  # the other sets of `found`
    expanded: dict[int, list[int]] = {}  # linked node id -> masks expanded there
    level = [(tree.linked, 0)]
    while level:
        deeper = []
        for node, mask in level:
            if mask & single or _covers(multi, mask):
                continue
            f, x = node
            while f >= 0:
                seen = expanded.get(id(node))
                if seen is None:
                    expanded[id(node)] = [mask]
                elif _covers(seen, mask):
                    break
                else:
                    seen.append(mask)
                agree = values[f]
                differs = mask | bits[f]
                if not (differs & single or _covers(multi, differs)):
                    for v, kid in enumerate(x):
                        if v != agree:
                            deeper.append((kid, differs))
                node = x[agree]
                f, x = node
            if f < 0 and x in targets:
                found.append(mask)
                if mask and not mask & (mask - 1):
                    single |= mask
                else:
                    multi.append(mask)
        level = deeper
    return found


class Oracle:
    """Stateful query interface over an immutable classifier.

    `entails`, `reaches` and `find_counterexample` take an instance and the
    set of its features kept at their instance values; every other feature
    is free.  Every query checks its instance as `predict` does.
    Each is one search over per-feature value ranges (`_first_target`).
    `minimal_sufficient` runs a whole AXp deletion loop, on a tree as one
    region walk, and `maximal_reaching` a whole CXp grow loop, one search
    per feature the last witness disagrees on.

    An ensemble search raises SearchSpaceExceeded once it has visited
    `completion_cap` completions with no target and more to go; a tree's
    searches are not capped.

    One Oracle per explanation session: the stats object and the prediction
    cache are its only mutable state.  The cache is keyed on full value
    tuples and is exact, so sharing it within a session is safe.  The
    classifier stays immutable and safe to share: its compiled form, a
    decision tree's linked nodes or an ensemble's scorer, is built on the
    first query that needs it and cached on the classifier's objects, so
    all oracles over one classifier object share it.
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
        values = instance.values
        cached = self._cache.get(values)
        if cached is None:
            cached = self._cache[values] = raw_predict(self.classifier, values)
        return cached

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
        self.space.check_instance(instance)
        self.stats.entailment_calls += 1
        return self._first_target(self._ranges(instance, kept), targets) is not None

    def minimal_sufficient(self, instance: Instance, candidates: Sequence[int],
                           targets: frozenset[int]) -> Optional[frozenset[int]]:
        """The deletion loop over `candidates`, or None if keeping all of them
        still reaches `targets`.  Each feature, in the given order, is
        dropped when the kept set without it no longer reaches `targets`; what
        stays is a subset-minimal set whose completions all miss them.

        It counts one entailment query for the check of all candidates and
        one per candidate probed, as the same loop over `reaches` would.  On
        a decision tree it is one growing region walk
        (`_tree_minimal_sufficient`).  On an ensemble the probe of f searches
        only the completions with f off its instance value, since those with
        f at it were just refuted, so it visits no more completions than
        `reaches` on the kept set without f would, and raises
        SearchSpaceExceeded only where that loop would; a repeated
        candidate, already dropped, needs no search.
        ModelError if a candidate is not a feature index."""
        self.space.check_instance(instance)
        candidates = tuple(candidates)
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
        if self._first_target(ranges, targets) is not None:
            return None
        domains = self.space.value_ranges
        for f in candidates:
            self.stats.entailment_calls += 1
            if f not in kept:
                continue  # dropped by an earlier copy of it in `candidates`
            domain = domains[f]
            own = ranges[f]
            v = own[0]
            ranges[f] = domain[:v] + domain[v + 1:]
            if self._first_target(ranges, targets) is None:
                kept.discard(f)
                ranges[f] = domain
            else:
                ranges[f] = own
        return frozenset(kept)

    def maximal_reaching(self, instance: Instance, kept: AbstractSet[int],
                         order: Sequence[int], targets: frozenset[int],
                         ) -> Optional[frozenset[int]]:
        """The grow loop over `order`, or None if no completion of the `kept`
        features reaches `targets`.  Each feature not yet kept, in the given
        order, joins when the targets stay reachable with it kept too; what
        is kept at the end is a maximal set whose completions still reach
        them, and the features outside it form a CXp.

        One search finds a first witness, a completion of `kept` that
        predicts into `targets`.  A feature on which the current witness
        agrees with the instance joins with no search; each other feature
        costs one, whose completion, if there is one, becomes the witness.
        It counts one witness query per search.  Every search is over
        ranges that list the instance's value first at each free feature
        and the rest of its domain in ascending order, so the witness agrees
        with the instance on more features.
        ModelError if a feature in `order` is not a feature index."""
        self.space.check_instance(instance)
        order = tuple(order)
        features = range(self.space.n_features)
        if bad := [f for f in order if f not in features]:
            raise ModelError(f"order {bad} are not feature indices")
        fixed = [f in kept for f in features]
        if not self._grow(instance.values, fixed, order, frozenset(targets)):
            return None
        return frozenset(f for f, k in enumerate(fixed) if k)

    def _grow(self, tau: tuple[int, ...], fixed: list[bool],
              order: Sequence[int], targets: AbstractSet[int]) -> bool:
        """The grow loop of `maximal_reaching`, counted as it is, with no
        checks: `tau` must fit the model and `order` hold feature indices.
        `fixed` marks the kept features, and the loop grows it in place;
        False, with `fixed` untouched, if no completion of it reaches
        `targets`.  The enumeration, whose instance and order are checked
        once per call, runs it once per candidate."""
        ranges = [(v,) if k else by_value[v] for k, v, by_value
                  in zip(fixed, tau, self.space.own_first_ranges)]
        self.stats.witness_calls += 1
        witness = self._first_target(ranges, targets)
        if witness is None:
            return False
        for f in order:
            if fixed[f]:
                continue
            fixed[f] = True
            v = tau[f]
            own = ranges[f]
            ranges[f] = (v,)
            if witness[f] == v:
                continue
            self.stats.witness_calls += 1
            found = self._first_target(ranges, targets)
            if found is None:
                fixed[f] = False
                ranges[f] = own
            else:
                witness = found
        return True

    def find_counterexample(self, instance: Instance, kept: AbstractSet[int],
                            targets: frozenset[int]) -> Optional[Instance]:
        """The first completion of the `kept` features of `instance` that
        predicts into `targets` in one search over ascending ranges, or None
        if there is none.  On an ensemble that is the lexicographically first
        such completion; on a tree it follows the first target path that
        `_tree_target` finds, every other free feature at its least value."""
        self.space.check_instance(instance)
        if not targets:
            raise ValueError("targets must be non-empty")
        self.stats.witness_calls += 1
        found = self._first_target(self._ranges(instance, kept), targets)
        return None if found is None else Instance(found)

    # internal machinery (not counted in stats)

    def _ranges(self, instance: Instance,
                kept: AbstractSet[int]) -> list[tuple[int, ...]]:
        """Per feature, the instance's value alone if it is in `kept`, else
        the feature's whole domain."""
        domains = self.space.value_ranges
        return [(v,) if f in kept else domains[f]
                for f, v in enumerate(instance.values)]

    def _first_target(self, ranges: Sequence[tuple[int, ...]],
                      targets: AbstractSet[int]) -> Optional[tuple[int, ...]]:
        """A completion in `itertools.product(*ranges)`, which takes each
        range in its listed order, that predicts into `targets`; None if
        there is none.  On a decision tree it is the first that the path
        search `_tree_target` finds, on an ensemble the first in the product.
        An ensemble search raises SearchSpaceExceeded once it has visited
        `completion_cap` completions, none of them a target, and the product
        has more.  A completion not yet in the prediction cache is scored by
        `raw_predict`, looked up in this module on every miss."""
        classifier = self.classifier
        if isinstance(classifier, DecisionTree):
            return _tree_target(classifier.tree, ranges, targets)
        cache = self._cache
        completions = itertools.product(*ranges)
        for full in itertools.islice(completions, self.completion_cap):
            predicted = cache.get(full)
            if predicted is None:
                predicted = cache[full] = raw_predict(classifier, full)
            if predicted in targets:
                return full
        if next(completions, None) is None:
            return None
        raise SearchSpaceExceeded(
            f"an ensemble search visited {self.completion_cap} completions, "
            f"the completion cap, with no target; fix more features or use "
            f"a smaller model")
