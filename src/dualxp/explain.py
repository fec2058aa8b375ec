"""Single-explanation extraction: sufficient-reason sets (AXps), correction
sets (CXps), targeted CXps, and CXp witnesses.

AXps come from a deletion loop (linear in the number of features); CXps from
a grow-to-maximal loop over the features kept fixed, reusing the last witness
to skip queries that cannot fail.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .model import Instance, ModelError, PartialAssignment
from .oracle import Oracle


class SeedNotSufficient(ModelError):
    """extract_axp was given a seed that does not entail the prediction."""


class TargetUnreachable(ModelError):
    """No instance at all predicts into the requested target classes."""


@dataclass(frozen=True, eq=False)
class ExplanationProblem:
    """One classifier / instance / prediction triple, with the contrast
    classes the explanation question is about (all other classes for the
    basic question, a chosen subset for targeted ones)."""

    oracle: Oracle
    instance: Instance
    predicted: int
    targets: frozenset[int]

    @property
    def n_features(self) -> int:
        return self.instance.n_features


def make_problem(oracle: Oracle, instance: Instance,
                 targets: Optional[Iterable[int]] = None,
                 expected: Optional[int] = None) -> ExplanationProblem:
    predicted = oracle.predict(instance)  # rejects an instance that does not fit
    if expected is not None and expected != predicted:
        raise ModelError(
            f"instance predicts class {predicted}, not the stated class {expected}"
        )
    if targets is None:
        target_set = frozenset(range(oracle.n_classes)) - {predicted}
    else:
        target_set = frozenset(targets)
        if predicted in target_set:
            raise ModelError("target classes must exclude the predicted class")
        if not target_set:
            raise ModelError("target class set is empty")
    return ExplanationProblem(oracle, instance, predicted, target_set)


@dataclass(frozen=True)
class AXp:
    """Subset-minimal set of instance features sufficient for the prediction."""

    features: frozenset[int]


@dataclass(frozen=True)
class CXp:
    """Subset-minimal set of instance features whose release lets the
    prediction move into `targets`."""

    features: frozenset[int]
    targets: frozenset[int]


@dataclass(frozen=True)
class CxpWitness:
    """Replacement values for a CXp's features, and the class they realize."""

    replacement: PartialAssignment
    witness_class: int


def _order(problem: ExplanationProblem, order: Optional[Sequence[int]]) -> list[int]:
    if order is None:
        return list(range(problem.n_features))
    if sorted(order) != list(range(problem.n_features)):
        raise ModelError("order must be a permutation of all feature indices")
    return list(order)


def extract_axp(problem: ExplanationProblem,
                seed: Optional[Iterable[int]] = None,
                order: Optional[Sequence[int]] = None) -> AXp:
    """Deletion-based extraction: exactly one entailment call per seed
    feature beyond the seed sufficiency check.  A set is sufficient when no
    completion of it reaches `problem.targets`, as in `check_axp`."""
    tau = problem.instance
    oracle = problem.oracle
    targets = problem.targets
    everything = set(range(problem.n_features))
    seed_set = everything if seed is None else set(seed)
    if not seed_set <= everything:
        raise ModelError("seed entries must be feature indices")
    if oracle.reaches(tau, seed_set, targets):
        raise SeedNotSufficient("the seed assignment does not entail the prediction")
    current = set(seed_set)
    for f in _order(problem, order):
        if f not in seed_set:
            continue
        if not oracle.reaches(tau, current - {f}, targets):
            current.discard(f)
    return AXp(frozenset(current))


def _grow_correction(problem: ExplanationProblem, kept: set[int],
                     order: Sequence[int],
                     witness: Optional[Instance]) -> Optional[CXp]:
    """Grow `kept` to a maximal set of fixed features that still admits a
    completion predicting into the targets; the complement is a CXp.

    `witness` must be a known target-class completion of the kept features
    (pass None to have it established with one query).  Features the current
    witness agrees with join for free; only disagreements cost a query.

    Any target completion serves as a witness, not only the lexicographically
    first, so each query asks for any (`first=False`; on a tree, one path
    search).  The CXp does not depend on which one comes back: in `order`, a
    feature joins exactly when the targets stay reachable with it kept too.
    A witness that agrees with the instance on the feature is itself a
    target completion of the grown set, so it only skips a query whose
    answer is already known to be yes.
    """
    tau = problem.instance
    oracle = problem.oracle
    if witness is None:
        witness = oracle.find_counterexample(tau, kept, problem.targets, first=False)
        if witness is None:
            return None
    for f in order:
        if f in kept:
            continue
        if witness.values[f] == tau.values[f]:
            kept.add(f)
            continue
        w = oracle.find_counterexample(tau, kept | {f}, problem.targets, first=False)
        if w is not None:
            kept.add(f)
            witness = w
    rho = frozenset(range(problem.n_features)) - frozenset(kept)
    return CXp(rho, problem.targets)


def extract_cxp(problem: ExplanationProblem,
                order: Optional[Sequence[int]] = None) -> Optional[CXp]:
    """One CXp into `problem.targets`, or None when no instance at all
    predicts into them.  Features are fixed to their instance values in
    `order` while the targets stay reachable; the rest form the CXp."""
    return _grow_correction(problem, set(), _order(problem, order), witness=None)


def targeted_cxp(problem: ExplanationProblem,
                 order: Optional[Sequence[int]] = None) -> CXp:
    """`extract_cxp` for a chosen target-class set, which may be unreachable."""
    cxp = extract_cxp(problem, order)
    if cxp is None:
        raise TargetUnreachable(
            "no instance predicts into the requested target classes"
        )
    return cxp


def cxp_witness(problem: ExplanationProblem, cxp: CXp) -> CxpWitness:
    """Deterministic replacement values for the CXp's features."""
    tau = problem.instance
    fixed = frozenset(range(problem.n_features)) - cxp.features
    w = problem.oracle.find_counterexample(tau, fixed, problem.targets)
    if w is None:
        raise ModelError("internal defect: no witness exists for a valid CXp")
    replacement = PartialAssignment.of((f, w.values[f]) for f in cxp.features)
    return CxpWitness(replacement, problem.oracle.predict(w))


def check_axp(problem: ExplanationProblem, axp: AXp) -> list[str]:
    """Sufficiency plus per-feature necessity, checked by direct oracle calls.

    A set is sufficient when no completion of it reaches `problem.targets`:
    on the basic question that is entailing the prediction, and on a
    targeted one keeping the targets out."""
    tau = problem.instance
    oracle = problem.oracle
    problems = []
    if oracle.reaches(tau, axp.features, problem.targets):
        problems.append("not sufficient for the prediction")
    for f in sorted(axp.features):
        if not oracle.reaches(tau, axp.features - {f}, problem.targets):
            problems.append(f"feature {f} is redundant")
    return problems


def check_cxp(problem: ExplanationProblem, cxp: CXp) -> list[str]:
    """Target reachability after release plus per-feature necessity, each
    one `reaches` query, which builds no counterexample."""
    tau = problem.instance
    oracle = problem.oracle
    everything = frozenset(range(problem.n_features))
    problems = []
    if not cxp.features:
        problems.append("empty correction set")
        return problems
    if not oracle.reaches(tau, everything - cxp.features, cxp.targets):
        problems.append("releasing the set does not reach the target classes")
    for f in sorted(cxp.features):
        if oracle.reaches(tau, everything - (cxp.features - {f}), cxp.targets):
            problems.append(f"feature {f} is redundant")
    return problems
