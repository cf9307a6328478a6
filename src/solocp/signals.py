"""Ground-truth signals, noise families, benchmark dataset generation and
the robust noise-scale estimator."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    InvalidConfigError,
    TooShortError,
    UnknownSignalError,
)
from .types import BinnedSeries, TimeSeries, checked_number, checked_numbers


@dataclass(frozen=True)
class SignalSpec:
    """Piecewise-constant ground truth: levels[k] holds on the k-th segment,
    segments change at the listed (strictly increasing) first-new-index sites.
    length (at least 2) and change points are integers and levels finite real
    numbers; bools and strings are rejected, not converted."""

    length: int
    changepoints: tuple[int, ...]
    levels: tuple[float, ...]

    def __post_init__(self):
        length = checked_number(self.length, "signal length", numbers.Integral)
        cps = checked_numbers(self.changepoints, "changepoints", numbers.Integral)
        levels = checked_numbers(self.levels, "levels")
        if length < 2:
            raise InvalidConfigError(f"signal length must be at least 2, got {length}")
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

    @property
    def count(self) -> int:
        return len(self.changepoints)

    def values(self) -> np.ndarray:
        """f_t for t = 1..length."""
        f = np.empty(self.length)
        bounds = (1,) + self.changepoints + (self.length + 1,)
        for level, lo, hi in zip(self.levels, bounds, bounds[1:]):
            f[lo - 1 : hi - 1] = level
        return f

    def value_at_fraction(self, x: np.ndarray) -> np.ndarray:
        """Signal level at continuous positions x in [0, 1); position
        (eta - 1) / length is where segment eta begins."""
        bounds = (np.asarray(self.changepoints, dtype=float) - 1.0) / self.length
        idx = np.searchsorted(bounds, np.asarray(x, dtype=float), side="right")
        return np.asarray(self.levels, dtype=float)[idx]

    def grid_changepoints(self, grid: int) -> tuple[int, ...]:
        """1-based grid cells containing each change position (for evaluating
        detections made on a regular grid over [0, 1))."""
        out = []
        for eta in self.changepoints:
            out.append(int(math.floor((eta - 1) * grid / self.length)) + 1)
        return tuple(out)


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
    """Benchmark signal by name: BLOCKS, TEETH, or BLOCKS2."""
    try:
        return _BUILTINS[name.upper()]
    except KeyError:
        raise UnknownSignalError(
            f"unknown signal {name!r}; choose from {sorted(_BUILTINS)}"
        ) from None


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
            w = np.array(checked_numbers(self.weights, "mixture weights"), dtype=float)
            s = np.array(checked_numbers(self.sds, "mixture sds"), dtype=float)
            if w.size == 0 or w.size != s.size:
                raise InvalidConfigError("mixture needs matching weights and sds")
            if not (np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-9):
                raise InvalidConfigError("mixture weights must be in [0,1] and sum to 1")
            if not np.all((s > 0) & np.isfinite(s)):
                raise InvalidConfigError("mixture sds must be positive and finite")
            object.__setattr__(self, "weights", tuple(float(x) for x in w))
            object.__setattr__(self, "sds", tuple(float(x) for x in s))
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


def simulate(signal: SignalSpec, noise: NoiseSpec, seed: int) -> TimeSeries:
    """One replication y_t = f_t + eps_t. noise_sd is the family's analytic
    standard deviation; callers may re-estimate and override."""
    rng = np.random.default_rng(seed)
    y = signal.values() + noise.draw(rng, signal.length)
    return TimeSeries(y, noise.std)


def simulate_binned(
    signal: SignalSpec, noise: NoiseSpec, n: int, grid: int, seed: int
) -> BinnedSeries:
    """Sample n observation times uniformly on [0, 1), evaluate the signal at
    each, add noise, and group into a regular grid of `grid` cells.

    Grid cells that receive no observations are merged into their nearest
    nonempty left neighbour (leading empties merge right), so the returned
    series can have fewer than `grid` groups; source_bins records the
    surviving original cell indexes (1-based).
    """
    if grid < 2:
        raise InvalidConfigError(f"grid must be >= 2, got {grid}")
    if n < 2:
        raise InvalidConfigError(f"need at least 2 points, got {n}")
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, n))
    y = signal.value_at_fraction(x) + noise.draw(rng, n)
    cell = np.minimum((x * grid).astype(int), grid - 1)
    kept, sizes = np.unique(cell, return_counts=True)  # x is sorted, so cells are too
    return BinnedSeries(y, noise.std, tuple((kept + 1).tolist()), counts=sizes)


def map_changepoints_to_bins(
    signal: SignalSpec, grid: int, source_bins: tuple[int, ...] | None = None
) -> tuple[int, ...]:
    """Ground-truth change locations in the index space of a binned series.

    Without merges this is grid_changepoints; with merges each original cell
    maps to its position among the surviving cells (a dropped cell maps to
    the neighbour that absorbed its interval).
    """
    cells = signal.grid_changepoints(grid)
    if source_bins is None:
        return cells
    pos = np.searchsorted(np.asarray(source_bins, dtype=int), cells, side="right")
    return tuple(np.maximum(pos, 1).tolist())


def estimate_sigma_mad(series: TimeSeries | BinnedSeries) -> float:
    """Robust noise-scale estimate: scaled median absolute deviation of the
    first differences, divided by sqrt(2)."""
    values = series.values
    if values.size < 3:
        raise TooShortError("need at least 3 observations to estimate sigma")
    d = np.diff(values)
    mad = 1.4826 * np.median(np.abs(d - np.median(d)))
    return float(mad / math.sqrt(2.0))

