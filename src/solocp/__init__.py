"""Spike-and-slab change point detection.

Closed-form single-site marginal posteriors (fast path), a Gibbs-sampled
joint model, detection post-processing with delta-clustering, a dense
conjugate oracle for auditing, benchmark signal/noise generators, and the
evaluation metrics used to score detections.

The oracle's two exports load solocp.oracle on first use, since detect and
bench never run it.
"""
from .detect import SingleChangePoint, detect, select_changepoints, single_cp_locate
from .errors import (
    EmptySearchWindowError,
    EmptySetError,
    InvalidConfigError,
    InvalidHyperparameterError,
    LinearSolveFailureError,
    NonFiniteValueError,
    NonPositiveSigmaError,
    NumericOverflowError,
    ParseError,
    SingularCovarianceError,
    SolocpError,
    TooShortError,
    UnknownSignalError,
)
from .gibbs import GibbsConfig, gibbs_inclusion_probabilities
from .metrics import EvalReport, evaluate_sets, hausdorff
from .posterior import all_site_posteriors, posterior_mean_surface
from .signals import (
    NoiseSpec,
    SignalSpec,
    builtin_signal,
    estimate_sigma_mad,
    map_changepoints_to_bins,
    simulate,
    simulate_binned,
)
from .types import BinnedSeries, ChangePointSet, DetectionResult, Hyperparameters, TimeSeries

__all__ = [
    "BinnedSeries",
    "ChangePointSet",
    "DetectionResult",
    "EvalReport",
    "GibbsConfig",
    "Hyperparameters",
    "NoiseSpec",
    "SignalSpec",
    "SingleChangePoint",
    "TimeSeries",
    "all_site_posteriors",
    "builtin_signal",
    "detect",
    "estimate_sigma_mad",
    "evaluate_sets",
    "gibbs_inclusion_probabilities",
    "hausdorff",
    "map_changepoints_to_bins",
    "oracle_joint_marginal",
    "oracle_site_posterior",
    "posterior_mean_surface",
    "select_changepoints",
    "simulate",
    "simulate_binned",
    "single_cp_locate",
    # errors
    "SolocpError",
    "NonFiniteValueError",
    "TooShortError",
    "NonPositiveSigmaError",
    "InvalidHyperparameterError",
    "NumericOverflowError",
    "LinearSolveFailureError",
    "SingularCovarianceError",
    "InvalidConfigError",
    "UnknownSignalError",
    "EmptySearchWindowError",
    "EmptySetError",
    "ParseError",
]


def __getattr__(name):
    """The oracle's exports, imported from solocp.oracle on first access."""
    if name in ("oracle_joint_marginal", "oracle_site_posterior"):
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
