"""Gimbal regression: deterministic geometry-aware local linear regression.

Library surface for the realized estimator map (orientation quantities,
directional weight field with one-shot ESS safeguard, closed-form modulated
local solve), the seeded simulation harness, mechanism experiments, and
post-estimation diagnostics. The ``gimbal`` CLI wraps the batch workflows.
"""

__version__ = "0.1.0"

from .engine import (
    Dataset,
    FitResult,
    GimbalConfig,
    fit_all,
    fit_location,
    fit_rows,
    fit_variants,
    predict,
    residual_knn_correct,
)
from .experiments import MapSummary, WeightDiffSummary, run_experiment, summarize, weight_diff
from .simgen import SimSpec, generate


def active_backend():
    """The array backend the estimator runs on: always numpy."""
    return "numpy"


__all__ = [
    "Dataset",
    "FitResult",
    "GimbalConfig",
    "MapSummary",
    "SimSpec",
    "WeightDiffSummary",
    "__version__",
    "active_backend",
    "fit_all",
    "fit_location",
    "fit_rows",
    "fit_variants",
    "generate",
    "predict",
    "residual_knn_correct",
    "run_experiment",
    "summarize",
    "weight_diff",
]
