"""Ground-truth signals and their binned change points, noise families,
benchmark dataset generation and the robust noise-scale estimator."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    InvalidConfigError,
    NumericOverflowError,
    TooShortError,
    UnknownSignalError,
)
from .types import (
    BinnedSeries, TimeSeries, checked_cells, checked_float_array, checked_integer, checked_number,
    checked_numbers, checked_size,
)


@dataclass(frozen=True)
class SignalSpec:
    """Piecewise-constant ground truth: levels[k] holds on the k-th segment,
    segments change at the listed (strictly increasing) first-new-index sites.
    length (from 2 to 2**53, types.checked_size) and change points are
    integers and levels finite real numbers; bools and strings are rejected,
    not converted."""

    length: int
    changepoints: tuple[int, ...]
    levels: tuple[float, ...]

    def __post_init__(self):
        length = checked_size(self.length, "signal length")
        cps = checked_numbers(self.changepoints, "changepoints", numbers.Integral)
        levels = checked_numbers(self.levels, "levels")
        if not all(map(math.isfinite, levels)):
            raise InvalidConfigError(f"levels must be finite, got {levels}")
        if len(levels) != len(cps) + 1:
            raise InvalidConfigError("need exactly one more level than changepoints")
        if any(b <= a for a, b in zip(cps, cps[1:])):
            raise InvalidConfigError("changepoints must be strictly increasing")
        if cps and not (1 < cps[0] and cps[-1] <= length):
            raise InvalidConfigError("changepoints must lie in (1, length]")
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "changepoints", cps)
        object.__setattr__(self, "levels", levels)

    def values(self) -> np.ndarray:
        """f_t for t = 1..length: site t sits at position (t - 1) / length."""
        return self.value_at_fraction(np.arange(self.length) / self.length)

    def value_at_fraction(self, x: np.ndarray) -> np.ndarray:
        """Signal level at positions x in [0, 1), a nondecreasing 1-D array of
        real numbers without NaN (else InvalidConfigError); segment eta begins
        at (eta - 1) / length."""
        x = checked_float_array(x, "positions")
        if x.ndim != 1 or np.isnan(x).any() or (x[1:] < x[:-1]).any():
            raise InvalidConfigError("positions must be a nondecreasing 1-D array without NaN")
        bounds = (np.asarray(self.changepoints, dtype=float) - 1.0) / self.length
        edges = np.zeros(len(self.levels) + 1, dtype=np.intp)  # segment k: x[edges[k]:edges[k+1]]
        edges[1:-1] = np.searchsorted(x, bounds)
        edges[-1] = x.size
        return np.repeat(np.asarray(self.levels, dtype=float), edges[1:] - edges[:-1])


# Appendix-style benchmark signals. BLOCKS2 is labeled with six change points
# in some summaries but lists five locations and six levels; the five listed
# locations are what the generator uses.
_BUILTINS = {
    "BLOCKS": SignalSpec(
        length=2048,
        changepoints=(205, 267, 308, 472, 512, 820, 902, 1332, 1557, 1598, 1659),
        levels=(0.0, 14.64, -3.66, 7.32, -7.32, 10.98, -4.39, 3.29, 19.03, 7.68, 15.37, 0.0),
    ),
    "TEETH": SignalSpec(
        length=140,
        changepoints=(31, 61, 91, 121),
        levels=(0.0, 1.0, 0.0, 1.0, 0.0),
    ),
    "BLOCKS2": SignalSpec(
        length=1024,
        changepoints=(102, 236, 410, 666, 829),
        levels=(0.0, 14.64, -7.32, 3.29, 19.03, 0.0),
    ),
}


def builtin_signal(name: str) -> SignalSpec:
    """Benchmark signal by name: BLOCKS, TEETH, or BLOCKS2, in any case."""
    if not (isinstance(name, str) and name.upper() in _BUILTINS):
        raise UnknownSignalError(f"unknown signal {name!r}; choose from {sorted(_BUILTINS)}")
    return _BUILTINS[name.upper()]


# the parameters each noise family reads; student_t's scale defaults to 1
_NOISE_PARAMS = {"gaussian": ("sd",), "laplace": ("scale",), "student_t": ("df", "scale"),
                 "gaussian_mixture": ("weights", "sds")}


@dataclass(frozen=True)
class NoiseSpec:
    """I.i.d. error distribution. Families: gaussian (sd), laplace (dispersion
    scale), student_t (df, scale 1 unless given), gaussian_mixture (weights,
    sds). A family takes exactly the parameters it reads, each a finite real
    number (not a bool or a string) stored as a float; the others are None."""

    family: str
    sd: float | None = None
    scale: float | None = None
    df: float | None = None
    weights: tuple[float, ...] | None = None
    sds: tuple[float, ...] | None = None

    def __post_init__(self):
        if not (isinstance(self.family, str) and self.family in _NOISE_PARAMS):
            raise InvalidConfigError(f"unknown noise family {self.family!r}")
        if self.family == "student_t" and self.scale is None:
            object.__setattr__(self, "scale", 1.0)
        params = _NOISE_PARAMS[self.family]
        given = {f.name for f in fields(self)[1:] if getattr(self, f.name) is not None}
        if given != set(params):
            raise InvalidConfigError(f"{self.family} noise takes {params}, got {sorted(given)}")
        if self.family == "gaussian_mixture":
            w = checked_numbers(self.weights, "mixture weights")
            s = checked_numbers(self.sds, "mixture sds")
            if not w or len(w) != len(s):
                raise InvalidConfigError("mixture needs matching weights and sds")
            if not (all(x >= 0 for x in w) and abs(sum(w) - 1.0) <= 1e-9):
                raise InvalidConfigError("mixture weights must be in [0,1] and sum to 1")
            if not all(x > 0 and math.isfinite(x) for x in s):
                raise InvalidConfigError("mixture sds must be positive and finite")
            object.__setattr__(self, "weights", w)
            object.__setattr__(self, "sds", s)
            return
        for name in params:
            value = checked_number(getattr(self, name), f"{self.family} {name}")
            if not (value > 0 and math.isfinite(value)):
                raise InvalidConfigError(f"{self.family} {name} must be positive and finite")
            object.__setattr__(self, name, value)

    @classmethod
    def gaussian(cls, sd: float) -> "NoiseSpec":
        return cls(family="gaussian", sd=sd)

    @classmethod
    def laplace(cls, scale: float) -> "NoiseSpec":
        return cls(family="laplace", scale=scale)

    @classmethod
    def student_t(cls, df: float, scale: float | None = None) -> "NoiseSpec":
        return cls(family="student_t", df=df, scale=scale)

    @classmethod
    def mixture(cls, weights, sds) -> "NoiseSpec":
        return cls(family="gaussian_mixture", weights=weights, sds=sds)

    @property
    def std(self) -> float:
        """Analytic standard deviation (infinite-variance t raises)."""
        if self.family == "gaussian":
            return self.sd
        if self.family == "laplace":
            return self.scale * math.sqrt(2.0)
        if self.family == "student_t":
            if self.df <= 2:
                raise InvalidConfigError(
                    f"student_t with df={self.df} has no finite variance; "
                    "supply an estimated noise_sd instead"
                )
            return self.scale * math.sqrt(self.df / (self.df - 2.0))
        var = sum(w * s * s for w, s in zip(self.weights, self.sds))
        return math.sqrt(var)

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if self.family == "gaussian":
            return rng.normal(0.0, self.sd, count)
        if self.family == "laplace":
            return rng.laplace(0.0, self.scale, count)
        if self.family == "student_t":
            return self.scale * rng.standard_t(self.df, count)
        comp = rng.choice(len(self.weights), size=count, p=np.asarray(self.weights))
        return rng.standard_normal(count) * np.asarray(self.sds)[comp]


def simulate(
    signal: SignalSpec, noise: NoiseSpec, seed: int, noise_sd: float | None = None
) -> TimeSeries:
    """One replication y_t = f_t + eps_t, seeded by an integer seed >= 0.
    noise_sd defaults to the family's analytic standard deviation, which
    student_t with df <= 2 lacks. A y that overflows raises
    NonFiniteValueError, from TimeSeries."""
    rng = np.random.default_rng(checked_integer(seed, "seed", 0))
    with np.errstate(over="ignore"):  # TimeSeries checks y is finite
        y = signal.values() + noise.draw(rng, signal.length)
    return TimeSeries(y, noise.std if noise_sd is None else noise_sd)


def simulate_binned(
    signal: SignalSpec, noise: NoiseSpec, n: int, grid: int, seed: int,
    noise_sd: float | None = None,
) -> BinnedSeries:
    """Sample n observation times uniformly on [0, 1), evaluate the signal at
    each, add noise, and group into a regular grid of `grid` cells.

    Grid cells that receive no observations are merged into their nearest
    nonempty left neighbour (leading empties merge right), so the returned
    series can have fewer than `grid` groups; source_bins, an integer array,
    records the surviving original cell indexes (1-based). noise_sd defaults
    as in simulate, and seed and an overflowing y are checked as there.
    """
    n, grid = checked_size(n, "n"), checked_size(grid, "grid")
    rng = np.random.default_rng(checked_integer(seed, "seed", 0))
    x = np.sort(rng.random(n))
    with np.errstate(over="ignore"):  # BinnedSeries checks y is finite
        y = signal.value_at_fraction(x) + noise.draw(rng, n)
    cell = np.minimum((x * grid).astype(int), grid - 1)
    sizes = np.bincount(cell, minlength=grid)  # x is sorted, so each cell's y are consecutive
    kept = np.flatnonzero(sizes)
    sd = noise.std if noise_sd is None else noise_sd
    return BinnedSeries(y, sd, kept + 1, counts=sizes[kept])


def map_changepoints_to_bins(
    signal: SignalSpec, grid: int, source_bins: np.ndarray | None = None
) -> tuple[int, ...]:
    """Ground-truth change locations in the index space of a binned series.

    Change point eta begins at position (eta - 1) / length, in grid cell
    floor((eta - 1) * grid / length) + 1 (1-based). Without merges these
    cells are the locations; with merges each original cell maps to its
    position among the surviving cells (a dropped cell maps to the neighbour
    that absorbed its interval); source_bins must be strictly increasing cells >= 1.
    """
    grid = checked_size(grid, "grid")
    cells = tuple(math.floor((eta - 1) * grid / signal.length) + 1 for eta in signal.changepoints)
    if source_bins is None:
        return cells
    pos = np.searchsorted(checked_cells(source_bins), cells, side="right")
    return tuple(np.maximum(pos, 1).tolist())


def _median(x: np.ndarray) -> np.float64:
    """np.median of a finite 1-D float array, bit for bit (value, sign of zero
    and type), without its NaN check."""
    n = x.size
    part = np.partition(x, [(n - 1) // 2, n // 2])
    return part[(n - 1) // 2 : n // 2 + 1].mean()


def estimate_sigma_mad(series: TimeSeries | BinnedSeries) -> float:
    """Robust noise-scale estimate: scaled median absolute deviation of the
    first differences, divided by sqrt(2).

    The medians come from _median, not np.median: np.median's NaN check
    imports all of numpy.ma (about 14 ms in a fresh process), and TimeSeries
    and BinnedSeries have already checked that their values are finite.
    """
    values = series.values
    if values.size < 3:
        raise TooShortError("need at least 3 observations to estimate sigma")
    with np.errstate(over="ignore"):  # checked next
        d = np.diff(values)
    if not np.isfinite(d).all():
        raise NumericOverflowError("first differences of the data overflow; rescale the data")
    mad = 1.4826 * _median(np.abs(d - _median(d)))
    return float(mad / math.sqrt(2.0))

