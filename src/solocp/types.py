"""Shared domain types: observed series, hyperparameters, posterior summaries,
and change point sets.

All types are immutable after construction and safe to share across threads.
Those holding arrays (TimeSeries, BinnedSeries, DetectionResult) compare and
hash by identity, so == and hash never raise; the others compare by value.
Sites are 1-based; a change point location is the FIRST index of the new
segment. Site 1 is the baseline increment and is never reported as a change
point.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidConfigError,
    InvalidHyperparameterError,
    NonFiniteValueError,
    NonPositiveSigmaError,
    NumericOverflowError,
    TooShortError,
)


def checked_number(value, what: str, kind=numbers.Real):
    """value as an int (kind Integral) or a float (kind Real). A bool, a
    string, a fraction where an integer is due, an integer too large for a
    float where a real is due, or any other type raises InvalidConfigError
    instead of being converted."""
    noun = "an integer" if kind is numbers.Integral else "a real number"
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InvalidConfigError(f"{what} must be {noun}, got {value!r}")
    try:
        return int(value) if kind is numbers.Integral else float(value)
    except OverflowError:  # an int beyond the float range
        raise InvalidConfigError(f"{what} must be {noun} within the float range") from None


def checked_integer(value, what: str, low: int, high: int | None = None) -> int:
    """value as an int from low to high (unbounded above when high is None),
    else InvalidConfigError; a bool, a string or a fraction is rejected, not
    converted, as in checked_number."""
    n = checked_number(value, what, numbers.Integral)
    if not low <= n <= (n if high is None else high):
        bounds = f">= {low}" if high is None else f"from {low} to {high:,}"
        raise InvalidConfigError(f"{what} must be an integer {bounds}, got {n}")
    return n


def checked_size(value, what: str) -> int:
    """value as an int from 2 to 2**53, else InvalidConfigError: past 2**53 the
    positions i / size are no longer exact floats, and numpy fails on such a
    size with ValueError or OverflowError instead of MemoryError."""
    size = checked_number(value, what, numbers.Integral)
    if not 2 <= size <= 2**53:
        raise InvalidConfigError(f"{what} must be an integer from 2 to 2**53, got {size}")
    return size


def checked_indicators(z, length: int) -> np.ndarray:
    """z as a bool array of shape (length,), else InvalidConfigError; every
    entry must be 0 or 1 (a bool passes)."""
    z = np.asarray(z)
    if z.shape != (length,):
        raise InvalidConfigError(f"z must have length {length}")
    ones = z == 1
    if not (ones | (z == 0)).all():
        raise InvalidConfigError("z entries must be 0 or 1")
    return ones


def _entries(values, what: str) -> tuple:
    try:
        return tuple(values)
    except TypeError:
        raise InvalidConfigError(f"{what} must be a sequence, got {values!r}") from None


def checked_numbers(values, what: str, kind=numbers.Real) -> tuple:
    """checked_number of every entry of a sequence, as a tuple."""
    return tuple(checked_number(v, what, kind) for v in _entries(values, what))


def checked_locations(values) -> tuple[int, ...]:
    """Change point locations as ints. Whole numbers of any numeric type pass
    (3, np.int64(3), 3.0); a fraction, nan, inf, a bool or a string raises
    InvalidConfigError instead of being truncated, and so does a non-sequence."""
    locs = _entries(values, "change point locations")
    if not set(map(type, locs)) <= {int}:  # plain ints skip the per-item checks
        locs = checked_numbers(locs, "change point locations")
        if not all(x.is_integer() for x in locs):
            raise InvalidConfigError(f"locations must be whole numbers, got {values!r}")
    return tuple(map(int, locs))


def checked_cells(values, size=None) -> np.ndarray:
    """values, without a copy, as a 1-D array of strictly increasing integer
    (not bool) grid cells >= 1, `size` of them if given; else InvalidConfigError."""
    a = np.asarray(values)
    if not (a.dtype.kind in "iu" and a.ndim == 1 and a.size >= 1 and a[0] >= 1
            and (a[1:] > a[:-1]).all() and size in (None, a.size)):
        raise InvalidConfigError(f"need {size or 'some'} strictly increasing integer cells >= 1")
    return a


def checked_float_array(values, what: str) -> np.ndarray:
    """values as a float array, without a copy where numpy allows; an entry
    that does not convert (a string that is not a number, None) raises
    InvalidConfigError."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise InvalidConfigError(f"{what} must be real numbers") from None


def _frozen_array(x, dtype=float) -> np.ndarray:
    a = np.array(x, dtype=dtype)
    a.setflags(write=False)
    return a


def _observations(values, noise_sd) -> tuple[np.ndarray, float]:
    """The checks every series makes: at least 2 finite observations in one
    dimension, each converting to a float, and a positive real noise_sd.
    Returns the values read-only and noise_sd as a float."""
    v = _frozen_array(checked_float_array(values, "series values"))
    if v.ndim != 1 or v.size < 2:
        raise TooShortError(f"need at least 2 observations in one dimension, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise NonFiniteValueError("series contains non-finite values")
    sd = checked_number(noise_sd, "noise_sd")
    if not (sd > 0 and math.isfinite(sd)):
        raise NonPositiveSigmaError(f"noise_sd must be positive, got {sd}")
    return v, sd


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Observations y_1..y_T with one observation per time index.

    noise_sd is the (known or estimated) standard deviation of the i.i.d.
    noise; it is carried on the data, not on the hyperparameters.
    """

    values: np.ndarray
    noise_sd: float
    # one observation per time index: the same view BinnedSeries gives
    counts: np.ndarray = field(init=False, repr=False)
    sums: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        v, sd = _observations(self.values, self.noise_sd)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "noise_sd", sd)
        object.__setattr__(self, "counts", _frozen_array(np.ones(v.size)))
        object.__setattr__(self, "sums", v)

    @property
    def length(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class BinnedSeries:
    """M groups of observations; group t holds the n_t >= 1 values recorded
    at time index t.

    Stored like TimeSeries: `values` is one flat, read-only array holding the
    groups back to back (values.size is the total sample size), `counts`
    holds each n_t and `sums` each group sum; these three are the one view of
    the series. Two input forms give the same series: `BinnedSeries(groups,
    sd)` takes a sequence of 1-D arrays, one per group, and
    `BinnedSeries(values, sd, counts=sizes)` takes the flat array and the
    group sizes.

    source_bins, when present, is a read-only integer array: the original grid
    cell (1-based, strictly increasing) of each group left after simulation
    merged away the empty cells. It is metadata only.
    """

    values: np.ndarray
    noise_sd: float
    source_bins: np.ndarray | None = None
    counts: np.ndarray | None = field(default=None, repr=False)
    sums: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        values, counts = self.values, self.counts
        if counts is None:  # a sequence of groups
            try:
                groups = tuple(values)
                values = np.concatenate(groups) if groups else ()  # _observations converts
            except (TypeError, ValueError):  # not a sequence of sequences
                raise InvalidConfigError("groups must be sequences of real numbers") from None
            counts = [len(g) for g in groups]
        values, sd = _observations(values, self.noise_sd)
        counts = _frozen_array(checked_float_array(counts, "group sizes"))
        if not (
            counts.ndim == 1 and counts.size >= 2 and counts.sum() == values.size
            and counts.min() >= 1 and np.array_equal(counts, np.floor(counts))
        ):
            raise TooShortError(
                f"need at least 2 groups of whole sizes >= 1 adding up to {values.size}"
            )
        if self.source_bins is not None:  # one grid cell per group
            cells = checked_cells(self.source_bins, counts.size)
            object.__setattr__(self, "source_bins", _frozen_array(cells, None))
        starts = np.concatenate(([0], counts[:-1].cumsum())).astype(np.intp)
        with np.errstate(over="ignore"):  # checked next
            sums = _frozen_array(np.add.reduceat(values, starts))
        if not np.isfinite(sums).all():
            raise NumericOverflowError("group sums overflow; rescale the data")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "noise_sd", sd)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "sums", sums)

    @property
    def length(self) -> int:
        """Number of groups M."""
        return self.counts.size


@dataclass(frozen=True)
class Hyperparameters:
    """Prior knobs of the spike-and-slab models.

    Variances are sigma^2-scaled: the prior variance of an increment under
    the spike is sigma^2 * tau0_sq, etc. tau_sq is the shared shrinkage
    variance placed on all non-candidate increments by the single-site model.
    delta is the cluster radius of the detection post-processing. Every field
    is a real number and delta a whole one; bools and strings are rejected.
    """

    tau0_sq: float
    tau1_sq: float
    tau_sq: float
    q: float
    delta: int = 2
    threshold: float = 0.5

    def __post_init__(self):
        for name in ("tau0_sq", "tau1_sq", "tau_sq", "q", "delta", "threshold"):
            object.__setattr__(self, name, checked_number(getattr(self, name), name))
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
        if not (self.delta >= 0 and self.delta.is_integer()):
            raise InvalidHyperparameterError(
                f"delta must be a nonnegative integer, got {self.delta}"
            )
        object.__setattr__(self, "delta", int(self.delta))

    @classmethod
    def solo_defaults(cls, length: int, **overrides) -> "Hyperparameters":
        """Benchmark defaults: tau0_sq=1/T, tau1_sq=T, q=0.1, threshold=0.5;
        (tau_sq, delta) = (2/sqrt(T), 5) for T > 500, else (2/T, 2). length is
        a size (checked_size), as in the series it is for."""
        t = checked_size(length, "length")
        tau_sq = 2.0 / math.sqrt(t) if t > 500 else 2.0 / t
        return cls._defaults(t, overrides, tau0_sq=1.0 / t, tau1_sq=float(t), tau_sq=tau_sq)

    @classmethod
    def basad_defaults(cls, length: int, **overrides) -> "Hyperparameters":
        """Joint-model defaults: tau0_sq=1/(10T), tau1_sq=log T (scaled units);
        length as in solo_defaults."""
        t = checked_size(length, "length")
        return cls._defaults(
            t, overrides, tau0_sq=1.0 / (10.0 * t), tau1_sq=math.log(t), tau_sq=2.0 / t
        )

    @classmethod
    def _defaults(cls, t: int, overrides: dict, **variances) -> "Hyperparameters":
        """What both defaults share: q=0.1, delta 5 for T > 500 else 2, then the overrides."""
        return cls(**{**variances, "q": 0.1, "delta": 5 if t > 500 else 2, **overrides})


def noise_variance(series: TimeSeries | BinnedSeries) -> float:
    """noise_sd^2, the one place it is formed (for the solo posterior's xi and
    the oracle alike); NumericOverflowError where it leaves the float range."""
    sd = float(series.noise_sd)  # a Python float overflows to inf without a warning
    if not math.isfinite(sd * sd):
        raise NumericOverflowError(f"noise_sd^2 overflows at {series.noise_sd}")
    return sd * sd


def prior_log_odds(q: float) -> float:
    """log(q / (1 - q)), the prior log-odds of inclusion; -inf at q = 0 and
    +inf at q = 1."""
    with np.errstate(divide="ignore"):
        return np.log(q) - np.log1p(-q)


def inclusion_probability(log_odds):
    """P(Z_j=1 | Y, sigma^2) = 1 / (1 + exp(-log_odds)), elementwise; exactly
    0 and 1 at -inf and +inf.

    This is the single code path from log-odds (prior log-odds plus
    log w1 - log w0) to probabilities; the solo posterior and the oracle
    route through it, so a probability recomputed from a summary's log_omega
    matches the stored one bit for bit. The Gibbs indicator draw compares a
    uniform with it in rearranged form (see the gibbs module).
    """
    out = np.empty(np.shape(log_odds))
    with np.errstate(over="ignore"):  # exp(-log_odds) overflows below -709
        np.negative(log_odds, out=out)
        np.exp(out, out=out)
        np.add(out, 1.0, out=out)
        return np.divide(1.0, out, out=out)


# largest tolerated rounding error of a pivot's data part, relative to its count
_MAX_PIVOT_ERROR = 1e-3


def level_precision(counts, neg_weights):
    """(diag, off, build) of the level precision Q = diag(counts) + Delta'
    diag(w) Delta (sigma^2 units; Delta the first differences with f_1 - f_0
    included; w[..., j-1] the prior precision of increment j) from neg_weights
    = -w. off is the view neg_weights[..., 1:]; diag = counts - neg_weights,
    then diag[..., :-1] -= off, is bitwise the sum with w (x - (-y) is x + y).
    build() forms diag again from what neg_weights then holds, its views bound
    once: the Gibbs draw calls it per refactor; the solo posterior, never.

    The one range guard of the pivot form, for both models: the data parts of
    the pivots (the tail weights r_j = pi_j - w_j and the forward phi_j -
    w_{j+1}, see the posterior module) lose about eps * max(w) absolutely and
    are at least the smallest count, so NumericOverflowError is raised when
    eps * max(w) exceeds 1e-3 of that count (a tau^2 below about 2.2e-13 at
    unit counts). At any count a series can hold, that also keeps 2 * max(w),
    and so diag, finite. build() never checks: the Gibbs draw passes its
    largest precision here first."""
    w_max = -float(neg_weights.min())
    if not np.finfo(float).eps * w_max <= _MAX_PIVOT_ERROR * float(counts.min()):
        raise NumericOverflowError(
            f"a prior precision 1/tau^2={w_max:.3g} is too large for double precision: "
            "the pivots of the level precision cancel"
        )
    diag = np.empty_like(neg_weights)
    head, off, subtract = diag[..., :-1], neg_weights[..., 1:], np.subtract

    def build():
        subtract(counts, neg_weights, diag)
        subtract(head, off, head)  # an augmented assignment would copy head back
    build()
    return diag, off, build


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


@dataclass(frozen=True)
class ChangePointSet:
    """Strictly increasing change point locations (first index of each new
    segment, so every location is >= 2); others raise InvalidConfigError."""

    locations: tuple[int, ...]

    def __post_init__(self):
        locs = checked_locations(self.locations)
        if any(b <= a for a, b in zip(locs, locs[1:])):
            raise InvalidConfigError("locations must be strictly increasing")
        if locs and locs[0] < 2:
            raise InvalidConfigError("locations start at 2 (site 1 is the baseline)")
        object.__setattr__(self, "locations", locs)

    @property
    def count(self) -> int:
        return len(self.locations)

    def __iter__(self):
        return iter(self.locations)

    def __len__(self) -> int:
        return len(self.locations)


@dataclass(frozen=True, eq=False)
class DetectionResult:
    """Full output of the detection pipeline.

    probabilities[i] belongs to site i + 2, as in select_changepoints, so
    they cover sites 2..M; raw_candidates is the thresholded set, clusters
    its partition into delta-linked groups, and selected keeps the
    highest-scoring representative of each group.
    """

    probabilities: np.ndarray
    raw_candidates: ChangePointSet
    clusters: tuple[tuple[int, ...], ...]
    selected: ChangePointSet

    def __post_init__(self):
        object.__setattr__(self, "probabilities", _frozen_array(self.probabilities))
