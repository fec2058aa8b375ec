"""The enumerator of both explanation families, built on the AXp/CXp
hitting-set duality, plus the duality verifier and brute-force reference
implementations.

The AXps are exactly the minimal hitting sets of the CXps.  A decision tree
gets its complete CXp family from one walk of its paths (each CXp is a
minimal disagreement set of a path to a target leaf), so its AXps are the
minimal hitting sets of a fixed family: `hitting.minimal_hitting_sets`
lists them by MMCS, with no oracle query, no blocked sets and no shrink.
An ensemble's CXps are found one at a time, so one loop of the
implicit-hitting-set scheme enumerates both families: propose a minimal
hitting set of the CXps known so far that covers no AXp found so far, then
settle it.  One grow call settles it: the grow loop of
`Oracle.maximal_reaching` from the candidate kept, run without that
method's checks (`Oracle._grow`), since the instance and the order are
checked once per enumeration.  It finds no target completion if the
candidate is a new AXp, and otherwise grows it to a maximal kept set whose
complement is a new CXp disjoint from the candidate, guaranteeing
progress.  Its searches try the instance's value first;
`find_counterexample` is not called.
From the tree walk through the hitting-set search a feature set is an int
mask over the positions of the feature order, turned into features once,
when yielded.  `iterate_explanations` is the one entry point, a lazy
stream: a CXp-only enumeration is its output with the AXps left out, and
`enumerate_all` drains it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

from .explain import AXp, CXp, ExplanationProblem, _order
from .hitting import (DEFAULT_NODE_BUDGET, BudgetExceeded, HittingSetSolver,
                      minimal_hitting_sets)
from .hitting import minimal_hitting_set  # noqa: F401  (perfbench's tracer patches it here)
from .model import Classifier, DecisionTree, Instance, ModelError
from .oracle import _tree_disagreement_sets, raw_predict

DEFAULT_MAX_EXPLANATIONS = 10 ** 5
BRUTE_FORCE_MAX_FEATURES = 16


class TooLarge(ModelError):
    """Brute-force subset enumeration is infeasible for this model."""


@dataclass
class EnumerationState:
    """What one `enumerate_all` call reported: its AXps, its CXps, and the
    iterations it took, one per explanation plus the last, which finds that
    there are no more."""

    axps: list[AXp] = field(default_factory=list)
    cxps: list[CXp] = field(default_factory=list)
    iterations: int = 0


def iterate_explanations(problem: ExplanationProblem,
                         order: Optional[Sequence[int]] = None,
                         smallest: bool = False,
                         mhs_budget: int = DEFAULT_NODE_BUDGET,
                         ) -> Iterator[Union[AXp, CXp]]:
    """Yield every AXp and every basic CXp exactly once, each as it is found.

    The stream is lazy, so a caller that stops early pays only for what it
    took.  With `smallest=True` the AXps come out in non-decreasing size
    order.  `mhs_budget` caps the hitting-set states popped while looking
    for one answer.  BudgetExceeded once more than DEFAULT_MAX_EXPLANATIONS
    are reported.

    Feature sets stay masks, with bit i for feature `order[i]`, until an
    explanation is yielded.  A decision tree yields its CXps first, all
    taken from one walk of its paths and sorted by size, then by their
    features' positions in `order`; its AXps follow, the minimal hitting
    sets of those CXps in the depth-first order of
    `hitting.minimal_hitting_sets` (by size first with `smallest=True`).
    An ensemble runs one `HittingSetSolver`: each AXp is blocked in it and
    each CXp is added as a set to hit.  It asks the oracle about each
    answer, and yields the two kinds interleaved as it finds them.
    """
    tau = problem.instance
    oracle = problem.oracle
    oracle.space.check_instance(tau)
    ord_ = _order(problem, order)
    targets = problem.targets
    bits = [0] * len(ord_)  # per feature, the bit of its position in `ord_`
    for i, f in enumerate(ord_):
        bits[f] = 1 << i
    found: Iterator[Union[AXp, CXp]]
    if isinstance(oracle.classifier, DecisionTree):
        # the walk finds the complete CXp family, so the AXps are its
        # minimal hitting sets and no oracle query settles anything
        cxps = sorted(_tree_disagreement_sets(oracle.classifier.tree, tau.values,
                                              targets, bits),
                      key=lambda m: (m.bit_count(), _positions(m)))
        found = itertools.chain(
            (CXp(_features(m, ord_), targets) for m in cxps),
            (AXp(_features(m, ord_)) for m in minimal_hitting_sets(
                len(ord_), cxps, smallest, mhs_budget)))
    else:
        found = _ensemble_explanations(problem, ord_, bits, smallest, mhs_budget)
    for reported, explanation in enumerate(found, 1):
        if reported > DEFAULT_MAX_EXPLANATIONS:
            raise BudgetExceeded(
                f"more than {DEFAULT_MAX_EXPLANATIONS} explanations reported")
        yield explanation


def _ensemble_explanations(problem: ExplanationProblem, ord_: list[int],
                           bits: list[int], smallest: bool, mhs_budget: int,
                           ) -> Iterator[Union[AXp, CXp]]:
    """The implicit-hitting-set loop: each solver answer is settled by one
    grow call, as an AXp or as the seed of a new CXp."""
    values = problem.instance.values
    oracle = problem.oracle
    targets = problem.targets
    solver = HittingSetSolver(len(ord_), smallest, mhs_budget)
    while (candidate := solver.next()) is not None:
        fixed = [bool(candidate & b) for b in bits]
        if not oracle._grow(values, fixed, ord_, targets):
            # no completion of the candidate reaches the targets, and
            # minimality among hitting sets of the CXps found so far makes
            # it an AXp
            solver.add_blocked(candidate)
            yield AXp(_features(candidate, ord_))
        else:
            # the grow kept the candidate, so the CXp it leaves out is
            # disjoint from it: progress is guaranteed
            free = [f for f, k in enumerate(fixed) if not k]
            solver.add_to_hit(sum(bits[f] for f in free))
            yield CXp(frozenset(free), targets)


def _positions(mask: int) -> list[int]:
    """The positions of the bits set in `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return out


def _features(mask: int, order: Sequence[int]) -> frozenset[int]:
    """The features whose positions in `order` are set in `mask`."""
    return frozenset(order[i] for i in _positions(mask))


def enumerate_all(problem: ExplanationProblem,
                  order: Optional[Sequence[int]] = None,
                  smallest: bool = False,
                  mhs_budget: int = DEFAULT_NODE_BUDGET,
                  state: Optional[EnumerationState] = None,
                  ) -> tuple[list[AXp], list[CXp]]:
    """Complete enumeration of both explanation families, in discovery
    order within each family (see `iterate_explanations`).  A `state`
    passed in receives the families and the iterations taken; ValueError
    if it already holds anything."""
    if state is None:
        state = EnumerationState()
    elif state != EnumerationState():
        raise ValueError("enumerate_all needs a new EnumerationState")
    for found in iterate_explanations(problem, order, smallest, mhs_budget):
        (state.axps if isinstance(found, AXp) else state.cxps).append(found)
    state.iterations = len(state.axps) + len(state.cxps) + 1
    return state.axps, state.cxps


@dataclass
class DualityReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _format_set(s: frozenset[int]) -> str:
    return "{" + ", ".join(str(e) for e in sorted(s)) + "}"


def verify_duality(axps: Sequence[frozenset[int]],
                   cxps: Sequence[frozenset[int]]) -> DualityReport:
    """Check that two complete families are exact minimal-hitting-set duals."""
    report = DualityReport()
    _check_hits(axps, cxps, "AXp", "CXp", report)
    _check_hits(cxps, axps, "CXp", "AXp", report)
    # exact dualization both ways
    dual_of_cxps = minimal_transversals(cxps)
    if dual_of_cxps != set(axps):
        report.violations.append(
            f"AXp family is not the exact dual of the CXp family: "
            f"expected {sorted(map(_format_set, dual_of_cxps))}, "
            f"got {sorted(map(_format_set, axps))}"
        )
    dual_of_axps = minimal_transversals(axps)
    if dual_of_axps != set(cxps):
        report.violations.append(
            f"CXp family is not the exact dual of the AXp family: "
            f"expected {sorted(map(_format_set, dual_of_axps))}, "
            f"got {sorted(map(_format_set, cxps))}"
        )
    return report


def minimal_transversals(family: Sequence[frozenset[int]]) -> set[frozenset[int]]:
    """All minimal hitting sets of `family` by Berge's algorithm.

    Sets are added one at a time: every partial transversal that misses the
    new set is extended by each of its elements, then only the minimal
    ones are kept.  A reference dualizer that shares no code with the
    search in `hitting`.
    """
    transversals = {frozenset()}
    for s in family:
        grown = {t if t & s else t | {e} for t in transversals for e in s}
        transversals = {t for t in grown if not any(o < t for o in grown)}
    return transversals


def _check_hits(first: Sequence[frozenset[int]], second: Sequence[frozenset[int]],
                name_a: str, name_b: str, report: DualityReport) -> None:
    for a in first:
        for b in second:
            if not (a & b):
                report.violations.append(
                    f"{name_a} {_format_set(a)} does not hit {name_b} {_format_set(b)}"
                )
        for e in sorted(a):
            rest = a - {e}
            if all(rest & b for b in second) and second:
                report.violations.append(
                    f"{name_a} {_format_set(a)} is not minimal: "
                    f"element {e} is redundant"
                )
        if not second and a:
            report.violations.append(
                f"{name_a} {_format_set(a)} is not minimal against an empty "
                f"{name_b} family"
            )


def _completion_predictions(classifier: Classifier, instance: Instance,
                            keep: frozenset[int]) -> Iterator[int]:
    """Raw prediction of every completion of the features in `keep`, by
    exhaustive enumeration, independent of the traversal oracle."""
    space = classifier.space
    free = [f for f in range(space.n_features) if f not in keep]
    for combo in itertools.product(*(range(space.domain_size(f)) for f in free)):
        values = list(instance.values)
        for f, v in zip(free, combo):
            values[f] = v
        yield raw_predict(classifier, tuple(values))


def _minimal_family(candidates: list[frozenset[int]]) -> list[frozenset[int]]:
    return [
        c for c in candidates
        if not any(o < c for o in candidates)
    ]


def brute_force_explanations(classifier: Classifier, instance: Instance,
                             ) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """All AXps and basic CXps by checking every feature subset.

    This is the independent test oracle: sufficiency is decided by exhaustive
    completion enumeration over raw predictions, not by the traversal oracle.
    """
    n = classifier.space.n_features
    if n > BRUTE_FORCE_MAX_FEATURES:
        raise TooLarge(f"brute force is capped at {BRUTE_FORCE_MAX_FEATURES} features")
    classifier.space.check_instance(instance)
    predicted = raw_predict(classifier, instance.values)
    all_features = list(range(n))
    sufficient = []
    for r in range(n + 1):
        for combo in itertools.combinations(all_features, r):
            predictions = _completion_predictions(classifier, instance, frozenset(combo))
            if all(p == predicted for p in predictions):
                sufficient.append(frozenset(combo))
    axps = _minimal_family(sufficient)
    others = frozenset(range(classifier.n_classes)) - {predicted}
    return axps, brute_force_corrections(classifier, instance, others)


def brute_force_corrections(classifier: Classifier, instance: Instance,
                            targets: frozenset[int]) -> list[frozenset[int]]:
    """All minimal targeted correction sets by subset enumeration."""
    n = classifier.space.n_features
    if n > BRUTE_FORCE_MAX_FEATURES:
        raise TooLarge(f"brute force is capped at {BRUTE_FORCE_MAX_FEATURES} features")
    classifier.space.check_instance(instance)
    all_features = frozenset(range(n))
    found = []
    for r in range(1, n + 1):
        for combo in itertools.combinations(sorted(all_features), r):
            rho = frozenset(combo)
            predictions = _completion_predictions(classifier, instance, all_features - rho)
            if any(p in targets for p in predictions):
                found.append(rho)
    return _minimal_family(found)
