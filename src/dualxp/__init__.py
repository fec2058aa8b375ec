"""Rigorous abductive and contrastive explanations for tree-based
classifiers, linked by minimal-hitting-set duality."""

from .dual import (
    EnumerationState,
    brute_force_corrections,
    brute_force_explanations,
    enumerate_all,
    iterate_explanations,
    verify_duality,
)
from .explain import (
    AXp,
    CXp,
    CxpWitness,
    ExplanationProblem,
    check_axp,
    check_cxp,
    cxp_witness,
    extract_axp,
    extract_cxp,
    make_problem,
    targeted_cxp,
)
from .hitting import BudgetExceeded, HittingSetInstance, minimal_hitting_set
from .model import (
    AdditiveEnsemble,
    DecisionTree,
    FeatureSpace,
    Instance,
    Literal,
    ModelError,
    PartialAssignment,
    validate,
    validated,
)
from .modelio import ParseError, parse_instances, parse_model, serialize_model
from .oracle import Oracle, OracleStats, SearchSpaceExceeded

__all__ = [
    "AXp", "AdditiveEnsemble", "BudgetExceeded", "CXp", "CxpWitness",
    "DecisionTree", "EnumerationState", "ExplanationProblem", "FeatureSpace",
    "HittingSetInstance", "Instance", "Literal", "ModelError", "Oracle",
    "OracleStats", "ParseError", "PartialAssignment", "SearchSpaceExceeded",
    "brute_force_corrections", "brute_force_explanations", "check_axp",
    "check_cxp", "cxp_witness", "enumerate_all", "extract_axp",
    "extract_cxp", "iterate_explanations", "make_problem", "minimal_hitting_set",
    "parse_instances", "parse_model", "serialize_model", "targeted_cxp",
    "validate", "validated", "verify_duality",
]

__version__ = "0.1.0"
