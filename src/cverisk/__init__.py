"""CVE risk scoring and analytics toolkit built on CVSS v3.1 base vectors."""

from .vector import (
    AttackComplexity,
    AttackVector,
    CvssVector,
    ImpactLevel,
    PrivilegesRequired,
    Scope,
    UserInteraction,
    VectorError,
    parse_vector,
    serialize_vector,
)
from .encoding import DEFAULT_MAPS, FACTOR_NAMES, AttributeMaps, encode_factors
from .records import CveRecord
from .model import (
    ModelConfig,
    ModelWeights,
    ScoredRecord,
    Severity,
    SeverityThresholds,
    base_risk,
    classify,
    composite_score,
    impact_score,
    score_records,
)
from .calibration import calibrate_kappa, calibrate_weights, uniform_weights

__version__ = "0.1.0"

__all__ = [
    "AttackComplexity",
    "AttackVector",
    "AttributeMaps",
    "CveRecord",
    "CvssVector",
    "DEFAULT_MAPS",
    "FACTOR_NAMES",
    "ImpactLevel",
    "ModelConfig",
    "ModelWeights",
    "PrivilegesRequired",
    "Scope",
    "ScoredRecord",
    "Severity",
    "SeverityThresholds",
    "UserInteraction",
    "VectorError",
    "base_risk",
    "calibrate_kappa",
    "calibrate_weights",
    "classify",
    "composite_score",
    "encode_factors",
    "impact_score",
    "parse_vector",
    "score_records",
    "serialize_vector",
    "uniform_weights",
]
