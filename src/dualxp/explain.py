"""Single-explanation extraction: sufficient-reason sets (AXps), correction
sets (CXps), targeted CXps, and CXp witnesses.

An AXp comes from one deletion pass over all features (one entailment query
per feature), which `Oracle.minimal_sufficient` runs, and a CXp from the
grow-to-maximal pass over the features kept fixed, which
`Oracle.maximal_reaching` runs, reusing the last witness to skip searches
that cannot fail; `dualxp.oracle` says how each loop searches.  A CXp's
printed witness, `cxp_witness`, is the completion that one
`Oracle.find_counterexample` search returns: the lexicographically first
on an ensemble, the first target path depth first on a tree.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .model import Instance, ModelError, PartialAssignment
from .oracle import Oracle


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
                 targets: Optional[Iterable[int]] = None) -> ExplanationProblem:
    predicted = oracle.predict(instance)  # rejects an instance that does not fit
    classes = frozenset(range(oracle.n_classes))
    if targets is None:
        target_set = classes - {predicted}
    else:
        target_set = frozenset(targets)
        if not target_set <= classes:
            raise ModelError(f"targets {sorted(target_set - classes)} are not class indices")
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
                order: Optional[Sequence[int]] = None) -> AXp:
    """Deletion-based extraction: one entailment call per feature beyond
    the check of all features, which never fails, because the instance
    predicts outside `problem.targets`.  A set is sufficient when no
    completion of it reaches them, as in `check_axp`.

    `Oracle.minimal_sufficient` runs the loop over the features in `order`.
    On a decision tree it is one growing region walk: the nodes reachable
    with the kept features fixed, to which a dropped feature's other
    branches add theirs, so no probe searches from the root again.
    `check_axp` stays on plain `reaches` queries and so checks it apart."""
    return AXp(problem.oracle.minimal_sufficient(
        problem.instance, _order(problem, order), problem.targets))


def extract_cxp(problem: ExplanationProblem,
                order: Optional[Sequence[int]] = None) -> Optional[CXp]:
    """One CXp into `problem.targets`, or None when no instance at all
    predicts into them.  Features are fixed to their instance values in
    `order` while the targets stay reachable; the rest form the CXp.

    `Oracle.maximal_reaching` runs the grow loop, which reuses the last
    witness to skip the searches whose answer is already known.  Any target
    completion serves as a witness, so the CXp does not depend on which one
    a search finds."""
    kept = problem.oracle.maximal_reaching(
        problem.instance, (), _order(problem, order), problem.targets)
    if kept is None:
        return None
    return CXp(frozenset(range(problem.n_features)) - kept, problem.targets)


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
    """Deterministic replacement values for the CXp's features, into the
    CXp's own `targets`, which `check_cxp` checks too."""
    tau = problem.instance
    fixed = frozenset(range(problem.n_features)) - cxp.features
    w = problem.oracle.find_counterexample(tau, fixed, cxp.targets)
    if w is None:
        raise RuntimeError("internal defect: no witness exists for a valid CXp")
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
