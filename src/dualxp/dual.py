"""Enumeration engines built on the AXp/CXp hitting-set duality, plus the
duality verifier and brute-force reference implementations.

The joint enumerator follows the implicit-hitting-set scheme: propose a
minimal hitting set of the correction sets found so far (avoiding supersets
of known sufficient sets); if it entails the prediction it is a new AXp,
otherwise the counterexample seeds the growth of a new CXp disjoint from the
candidate, guaranteeing progress.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .explain import AXp, CXp, ExplanationProblem, _grow_correction, _order, extract_cxp
from .hitting import (
    DEFAULT_NODE_BUDGET,
    BudgetExceeded,
    HittingSetInstance,
    minimal_hitting_set,
)
from .model import Classifier, Instance, ModelError
from .oracle import raw_predict

DEFAULT_MAX_EXPLANATIONS = 10 ** 5
BRUTE_FORCE_MAX_FEATURES = 16


class TooLarge(ModelError):
    """Brute-force subset enumeration is infeasible for this model."""


@dataclass
class EnumerationState:
    """Blocking collections of the joint enumerator: reported AXps (whose
    supersets the hitting-set solver must avoid) and reported CXps (which
    every new candidate must hit)."""

    axps: list[AXp] = field(default_factory=list)
    cxps: list[CXp] = field(default_factory=list)
    iterations: int = 0


def enumerate_cxps(problem: ExplanationProblem,
                   order: Optional[Sequence[int]] = None) -> Iterator[CXp]:
    """Every basic CXp exactly once, via iterated blocked extraction."""
    blocked: list[frozenset[int]] = []
    while True:
        cxp = extract_cxp(problem, blocked=blocked, order=order)
        if cxp is None:
            return
        yield cxp
        blocked.append(cxp.features)


def enumerate_all(problem: ExplanationProblem,
                  order: Optional[Sequence[int]] = None,
                  smallest: bool = False,
                  mhs_budget: int = DEFAULT_NODE_BUDGET,
                  max_explanations: int = DEFAULT_MAX_EXPLANATIONS,
                  state: Optional[EnumerationState] = None,
                  ) -> tuple[list[AXp], list[CXp]]:
    """Complete enumeration of both explanation families.

    With `smallest=True` candidates are minimum-cardinality hitting sets, so
    AXps come out in non-decreasing size order.
    """
    ord_ = _order(problem, order)
    tau = problem.instance
    oracle = problem.oracle
    if state is None:
        state = EnumerationState()
    while True:
        state.iterations += 1
        candidate = minimal_hitting_set(
            HittingSetInstance(
                tuple(ord_),
                tuple(c.features for c in state.cxps),
                tuple(a.features for a in state.axps),
            ),
            smallest=smallest,
            budget=mhs_budget,
        )
        if candidate is None:
            return state.axps, state.cxps
        witness = oracle.find_counterexample(tau.restrict(candidate), problem.targets)
        if witness is None:
            # candidate entails the prediction; minimality among hitting sets
            # of the full CXp family makes it a minimal sufficient set
            state.axps.append(AXp(candidate))
        else:
            # fix everything the witness agrees with (a superset of the
            # candidate's complement stays released), grow, and the resulting
            # CXp is disjoint from the candidate: progress is guaranteed
            kept = {f for f in ord_ if witness.values[f] == tau.values[f]}
            cxp = _grow_correction(problem, kept, ord_, witness)
            assert cxp is not None
            state.cxps.append(cxp)
        if len(state.axps) + len(state.cxps) > max_explanations:
            raise BudgetExceeded(
                f"more than {max_explanations} explanations reported"
            )


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


def _sufficient(classifier: Classifier, instance: Instance,
                keep: frozenset[int], predicted: int) -> bool:
    """Exhaustive completion check, independent of the traversal oracle."""
    space = classifier.space
    free = [f for f in range(space.n_features) if f not in keep]
    for combo in itertools.product(*(range(space.domain_size(f)) for f in free)):
        values = list(instance.values)
        for f, v in zip(free, combo):
            values[f] = v
        if raw_predict(classifier, tuple(values)) != predicted:
            return False
    return True


def _reaches(classifier: Classifier, instance: Instance,
             keep: frozenset[int], targets: frozenset[int]) -> bool:
    space = classifier.space
    free = [f for f in range(space.n_features) if f not in keep]
    for combo in itertools.product(*(range(space.domain_size(f)) for f in free)):
        values = list(instance.values)
        for f, v in zip(free, combo):
            values[f] = v
        if raw_predict(classifier, tuple(values)) in targets:
            return True
    return False


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
    predicted = raw_predict(classifier, instance.values)
    all_features = list(range(n))
    sufficient = []
    for r in range(n + 1):
        for combo in itertools.combinations(all_features, r):
            if _sufficient(classifier, instance, frozenset(combo), predicted):
                sufficient.append(frozenset(combo))
    axps = _minimal_family(sufficient)
    corrections = []
    for r in range(1, n + 1):
        for combo in itertools.combinations(all_features, r):
            rho = frozenset(combo)
            if not _sufficient(classifier, instance,
                               frozenset(all_features) - rho, predicted):
                corrections.append(rho)
    cxps = _minimal_family(corrections)
    return axps, cxps


def brute_force_corrections(classifier: Classifier, instance: Instance,
                            targets: frozenset[int]) -> list[frozenset[int]]:
    """All minimal targeted correction sets by subset enumeration."""
    n = classifier.space.n_features
    if n > BRUTE_FORCE_MAX_FEATURES:
        raise TooLarge(f"brute force is capped at {BRUTE_FORCE_MAX_FEATURES} features")
    all_features = frozenset(range(n))
    found = []
    for r in range(1, n + 1):
        for combo in itertools.combinations(sorted(all_features), r):
            rho = frozenset(combo)
            if _reaches(classifier, instance, all_features - rho, targets):
                found.append(rho)
    return _minimal_family(found)
