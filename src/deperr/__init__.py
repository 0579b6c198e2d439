"""Reliability metrics for dependent series/parallel systems and the
relative error incurred by assuming independent components."""

from .errors import (
    AgingClass,
    ErrorCurve,
    ErrorPoint,
    classify_aging,
    closed_form_error,
    error_curve,
    lemma_g,
    lemma_h,
    relative_error,
)
from .exceptions import (
    CapabilityError,
    ConfigError,
    DepErrError,
    DomainError,
    SingularityError,
    ValidationError,
    ZeroDenominatorError,
)
from .grids import GridSpec, grid_points
from .models import (
    Family,
    MetricKind,
    ModelSpec,
    SubsetRates,
    ValidatedModel,
    independent_counterpart,
    joint_sf,
    series_hazard,
    series_metric,
    validate_model,
)
from .parallel import (
    ParallelResult,
    parallel_relative_error,
    parallel_sf_closed,
    parallel_sf_ie,
)
from .simulate import (
    RngPolicy,
    SimEstimate,
    estimate_system_sf,
    finite_diff_metric,
    sample_model,
)

__all__ = [
    "AgingClass",
    "CapabilityError",
    "ConfigError",
    "DepErrError",
    "DomainError",
    "ErrorCurve",
    "ErrorPoint",
    "Family",
    "GridSpec",
    "MetricKind",
    "ModelSpec",
    "ParallelResult",
    "RngPolicy",
    "SimEstimate",
    "SingularityError",
    "SubsetRates",
    "ValidatedModel",
    "ValidationError",
    "ZeroDenominatorError",
    "classify_aging",
    "closed_form_error",
    "error_curve",
    "estimate_system_sf",
    "finite_diff_metric",
    "grid_points",
    "independent_counterpart",
    "joint_sf",
    "lemma_g",
    "lemma_h",
    "parallel_relative_error",
    "parallel_sf_closed",
    "parallel_sf_ie",
    "relative_error",
    "sample_model",
    "series_hazard",
    "series_metric",
    "validate_model",
]

__version__ = "0.1.0"
