"""Shared domain types: observed series, hyperparameters, posterior summaries,
and change point sets.

All types are immutable after construction and safe to share across threads.
Sites are 1-based; a change point location is the FIRST index of the new
segment. Site 1 is the baseline increment and is never reported as a change
point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidHyperparameterError,
    NonFiniteValueError,
    NonPositiveSigmaError,
    TooShortError,
)


def _frozen_array(x, dtype=float) -> np.ndarray:
    a = np.array(x, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TimeSeries:
    """Observations y_1..y_T with one observation per time index.

    noise_sd is the (known or estimated) standard deviation of the i.i.d.
    noise; it is carried on the data, not on the hyperparameters.
    """

    values: np.ndarray
    noise_sd: float
    # one observation per time index: the same view BinnedSeries gives
    counts: np.ndarray = field(init=False, repr=False, compare=False)
    sums: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = _frozen_array(self.values)
        if v.ndim != 1 or v.size < 2:
            raise TooShortError(f"need at least 2 observations, got {v.size}")
        if not np.all(np.isfinite(v)):
            raise NonFiniteValueError("series contains non-finite values")
        if not (self.noise_sd > 0 and math.isfinite(self.noise_sd)):
            raise NonPositiveSigmaError(f"noise_sd must be positive, got {self.noise_sd}")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "counts", _frozen_array(np.ones(v.size)))
        object.__setattr__(self, "sums", v)

    @property
    def length(self) -> int:
        return self.values.size

    def to_binned(self) -> "BinnedSeries":
        """Equivalent series with every n_t = 1."""
        return BinnedSeries(bins=tuple(self.values[:, None]), noise_sd=self.noise_sd)


def split_groups(values: np.ndarray, starts) -> tuple[np.ndarray, ...]:
    """Views of the flat array `values` cut at the increasing group start
    offsets `starts` (starts[0] == 0)."""
    bounds = np.append(starts, values.size).tolist()
    return tuple(values[a:b] for a, b in zip(bounds, bounds[1:]))


@dataclass(frozen=True)
class BinnedSeries:
    """M groups of observations; group t holds the n_t >= 1 values recorded
    at time index t.

    Stored like TimeSeries: `values` is one flat, read-only array holding the
    groups back to back, `counts` holds each n_t and `sums` each group sum.
    `bins` is a tuple of read-only views into `values`, one per group.

    source_bins, when present, records the original grid index (1-based) of
    each surviving group after empty grid cells were merged away during
    simulation; it is metadata only.
    """

    bins: tuple[np.ndarray, ...]
    noise_sd: float
    source_bins: tuple[int, ...] | None = None
    values: np.ndarray = field(init=False, repr=False, compare=False)
    counts: np.ndarray = field(init=False, repr=False, compare=False)
    sums: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        groups = tuple(self.bins)
        if len(groups) < 2:
            raise TooShortError(f"need at least 2 groups, got {len(groups)}")
        values = np.concatenate(groups, dtype=float)
        sizes = np.fromiter(map(len, groups), dtype=np.intp, count=len(groups))
        if values.ndim != 1 or sizes.min() < 1:
            raise TooShortError("every group needs at least one observation")
        if not np.isfinite(values).all():
            raise NonFiniteValueError("series contains non-finite values")
        if not (self.noise_sd > 0 and math.isfinite(self.noise_sd)):
            raise NonPositiveSigmaError(f"noise_sd must be positive, got {self.noise_sd}")
        values.setflags(write=False)
        starts = np.cumsum(sizes) - sizes
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "bins", split_groups(values, starts))
        object.__setattr__(self, "counts", _frozen_array(sizes))
        object.__setattr__(self, "sums", _frozen_array(np.add.reduceat(values, starts)))

    @property
    def length(self) -> int:
        """Number of groups M."""
        return self.counts.size

    @property
    def total(self) -> int:
        """Total sample size T = sum of n_t."""
        return self.values.size

    def to_series(self) -> TimeSeries:
        """Inverse of TimeSeries.to_binned; requires every n_t = 1."""
        if self.total != self.length:
            raise ValueError("only a series with all n_t = 1 converts back")
        return TimeSeries(self.values, self.noise_sd)


def validate_series(raw_values, noise_sd: float) -> TimeSeries:
    """Validate raw observations into a TimeSeries."""
    return TimeSeries(np.asarray(raw_values, dtype=float), float(noise_sd))


@dataclass(frozen=True)
class Hyperparameters:
    """Prior knobs of the spike-and-slab models.

    Variances are sigma^2-scaled: the prior variance of an increment under
    the spike is sigma^2 * tau0_sq, etc. tau_sq is the shared shrinkage
    variance placed on all non-candidate increments by the single-site model.
    delta is the cluster radius of the detection post-processing.
    """

    tau0_sq: float
    tau1_sq: float
    tau_sq: float
    q: float
    delta: int = 2
    threshold: float = 0.5

    def __post_init__(self):
        for name in ("tau0_sq", "tau1_sq", "tau_sq"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise InvalidHyperparameterError(f"{name} must be positive, got {v}")
        if self.tau1_sq < self.tau0_sq:
            raise InvalidHyperparameterError("tau1_sq must be >= tau0_sq")
        if not 0.0 <= self.q <= 1.0:
            raise InvalidHyperparameterError(f"q must be in [0,1], got {self.q}")
        if not 0.0 < self.threshold < 1.0:
            raise InvalidHyperparameterError(
                f"threshold must be in (0,1), got {self.threshold}"
            )
        if self.delta < 0 or int(self.delta) != self.delta:
            raise InvalidHyperparameterError(
                f"delta must be a nonnegative integer, got {self.delta}"
            )

    @classmethod
    def solo_defaults(cls, length: int, **overrides) -> "Hyperparameters":
        """Benchmark defaults: tau0_sq=1/T, tau1_sq=T, q=0.1, threshold=0.5;
        (tau_sq, delta) = (2/sqrt(T), 5) for T > 500, else (2/T, 2)."""
        t = int(length)
        if t > 500:
            tau_sq, delta = 2.0 / math.sqrt(t), 5
        else:
            tau_sq, delta = 2.0 / t, 2
        params = dict(
            tau0_sq=1.0 / t, tau1_sq=float(t), tau_sq=tau_sq, q=0.1, delta=delta
        )
        params.update(overrides)
        return cls(**params)

    @classmethod
    def basad_defaults(cls, length: int, **overrides) -> "Hyperparameters":
        """Joint-model defaults: tau0_sq=1/(10T), tau1_sq=log T (scaled units)."""
        t = int(length)
        delta = 5 if t > 500 else 2
        params = dict(
            tau0_sq=1.0 / (10.0 * t),
            tau1_sq=math.log(t),
            tau_sq=2.0 / t,
            q=0.1,
            delta=delta,
        )
        params.update(overrides)
        return cls(**params)


def prior_log_odds(q: float) -> float:
    """log(q / (1 - q)), the prior log-odds of inclusion; -inf at q = 0 and
    +inf at q = 1."""
    with np.errstate(divide="ignore"):
        return np.log(q) - np.log1p(-q)


def inclusion_probability(log_odds):
    """P(Z_j=1 | Y, sigma^2) = 1 / (1 + exp(-log_odds)), elementwise; exactly
    0 and 1 at -inf and +inf.

    This is the single code path from log-odds (prior log-odds plus
    log w1 - log w0) to probabilities; posterior construction, recomputation,
    the oracle and the Gibbs indicator draw all route through it, so a stored
    value is reproducible bit for bit.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-log_odds))


@dataclass(frozen=True)
class PosteriorSiteSummary:
    """Per-site mixture posterior of the single-site model.

    mu and xi are the (spike, slab) posterior means and variances of the
    candidate increment; log_omega holds the log mixture weights (kept in log
    space because the exponent grows with T).
    """

    site: int
    mu: tuple[float, float]
    xi: tuple[float, float]
    log_omega: tuple[float, float]
    inclusion_prob: float

    def recompute_inclusion(self, q: float) -> float:
        lo = prior_log_odds(q) + self.log_omega[1] - self.log_omega[0]
        return float(inclusion_probability(lo))


@dataclass(frozen=True)
class ChangePointSet:
    """Strictly increasing change point locations (first index of each new
    segment, so every location is >= 2)."""

    locations: tuple[int, ...]

    def __post_init__(self):
        locs = tuple(int(x) for x in self.locations)
        if any(b <= a for a, b in zip(locs, locs[1:])):
            raise ValueError("locations must be strictly increasing")
        if locs and locs[0] < 2:
            raise ValueError("locations start at 2 (site 1 is the baseline)")
        object.__setattr__(self, "locations", locs)

    @property
    def count(self) -> int:
        return len(self.locations)

    def __iter__(self):
        return iter(self.locations)

    def __len__(self) -> int:
        return len(self.locations)


@dataclass(frozen=True)
class DetectionResult:
    """Full output of the detection pipeline.

    sites/probabilities cover candidate sites 2..M; raw_candidates is the
    thresholded set, clusters its partition into delta-linked groups, and
    selected keeps the highest-probability representative of each group.
    """

    sites: np.ndarray
    probabilities: np.ndarray
    raw_candidates: ChangePointSet
    clusters: tuple[tuple[int, ...], ...]
    selected: ChangePointSet
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "sites", _frozen_array(self.sites, dtype=int))
        object.__setattr__(self, "probabilities", _frozen_array(self.probabilities))
