"""Best proximity point solver toolkit.

Computes points x in A minimizing d(x, T(x)) for a map T : A -> B between
finite subsets of a metric space, by reducing to a fixed-point iteration of
the induced self-map on A0, with empirical contraction certification and a
brute-force oracle for verification.
"""

from .engine import (
    CONTRACTION,
    CONVERGED,
    CYCLE_DETECTED,
    NOT_CONTRACTION,
    BestProximityResult,
    ContractionCertificate,
    HypothesisViolation,
    InducedMap,
    IterationTrace,
    NonUniquePartner,
    ProximityMap,
    SolverError,
    StartNotInA0,
    banach_iterate,
    build_induced_map,
    certify_contraction,
    classify_partners,
    direct_iterate,
    verify_result,
)
from .geometry import (
    DuplicatePointError,
    PairGeometry,
    SetPair,
    default_eps_prox,
    proximal_subsets,
)
from .instance import (
    Instance,
    InstanceFormatError,
    dumps_instance,
    load_instance,
    make_instance,
    parse_instance,
    save_instance,
)
from .metric import (
    EUCLIDEAN,
    EXPLICIT_MATRIX,
    Check,
    Checklist,
    Metric,
    MetricValidation,
    distance,
    euclidean_metric,
    matrix_metric,
    paired_distances,
    pairwise_distances,
    validate_metric,
)
from .oracle import BruteForceSolution, GeneratorConfig, brute_force_solve, generate_instance
from .report import InstanceAssessment, assess_instance

__version__ = "0.1.0"

__all__ = [
    "BestProximityResult",
    "BruteForceSolution",
    "Check",
    "Checklist",
    "ContractionCertificate",
    "CONTRACTION",
    "CONVERGED",
    "CYCLE_DETECTED",
    "DuplicatePointError",
    "EUCLIDEAN",
    "EXPLICIT_MATRIX",
    "GeneratorConfig",
    "HypothesisViolation",
    "InducedMap",
    "Instance",
    "InstanceAssessment",
    "InstanceFormatError",
    "IterationTrace",
    "Metric",
    "MetricValidation",
    "NonUniquePartner",
    "NOT_CONTRACTION",
    "PairGeometry",
    "ProximityMap",
    "SetPair",
    "SolverError",
    "StartNotInA0",
    "assess_instance",
    "banach_iterate",
    "brute_force_solve",
    "build_induced_map",
    "certify_contraction",
    "classify_partners",
    "default_eps_prox",
    "direct_iterate",
    "distance",
    "dumps_instance",
    "euclidean_metric",
    "generate_instance",
    "load_instance",
    "make_instance",
    "matrix_metric",
    "paired_distances",
    "pairwise_distances",
    "parse_instance",
    "proximal_subsets",
    "save_instance",
    "validate_metric",
    "verify_result",
]
