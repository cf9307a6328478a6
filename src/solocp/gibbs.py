"""Two-block Gibbs sampler for the joint spike-and-slab model.

Block 1 draws the whole increment vector from its Gaussian full conditional
given the indicators; block 2 draws every indicator independently given its
increment. The increment draw is done in the cumulative (fitted-level) space,
where the posterior precision Q / sigma^2, Q = diag(n) + Delta' diag(w) Delta
(Delta the first-difference operator, w_t = 1/tau^2_{z_t}), is tridiagonal. LAPACK dpttrf factors
it as Q = L D L' (L unit lower bidiagonal) and dpttrs solves
Q f = sums + sigma L D^{1/2} eps, so one sweep is O(M) in two calls (Rue 2001).
With U = D^{1/2} L' the upper Cholesky factor of Q, Q^{-1} L D^{1/2} = U^{-1},
so f is the usual Q^{-1} sums + sigma U^{-1} eps draw from the same normals.

sigma^2 is fixed at series.noise_sd^2 throughout (known-variance treatment).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import InvalidConfigError, LinearSolveFailureError, NumericOverflowError
from .types import (
    BinnedSeries, Hyperparameters, TimeSeries, inclusion_probability, prior_log_odds
)


@dataclass(frozen=True)
class GibbsConfig:
    """Chain length bookkeeping: total sweeps, sweeps discarded, RNG seed."""

    iterations: int
    burn_in: int
    seed: int

    def __post_init__(self):
        if self.iterations < 1:
            raise InvalidConfigError(f"iterations must be >= 1, got {self.iterations}")
        if not 0 <= self.burn_in < self.iterations:
            raise InvalidConfigError(
                f"burn_in must lie in [0, iterations), got {self.burn_in}"
            )
        if self.seed < 0:
            raise InvalidConfigError("seed must be a nonnegative integer")


@dataclass
class GibbsState:
    """Current increments and indicators of one chain."""

    delta_f: np.ndarray
    z: np.ndarray


def _draw_increments(
    series: TimeSeries | BinnedSeries,
    hypers: Hyperparameters,
    z: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """One draw of the increments delta_f | z (block 1)."""
    noise = rng.standard_normal(series.length)
    weights = np.where(z == 1, 1.0 / hypers.tau1_sq, 1.0 / hypers.tau0_sq)
    diag = series.counts + weights
    diag[:-1] += weights[1:]
    d, e, info = dpttrf(diag, -weights[1:])
    if info == 0:
        s = np.sqrt(d) * noise
        s[1:] += e * s[:-1]
        f, info = dpttrs(d, e, series.sums + series.noise_sd * s)
    if info != 0:
        raise LinearSolveFailureError(
            f"level precision is not positive definite (LAPACK info {info})"
        )
    delta_f = f.copy()  # cheaper than f[1:] -= f[:-1], which copies on overlap
    delta_f[1:] -= f[:-1]
    return delta_f


def _log_odds_line(hypers: Hyperparameters, sigma: float) -> tuple[float, float] | None:
    """Intercept and slope of an indicator's log-odds as a function of
    delta_f^2, or None when q in {0, 1} fixes every indicator. Raises
    NumericOverflowError when either is not finite (sigma too small)."""
    q = hypers.q
    if q <= 0.0 or q >= 1.0:
        return None
    intercept = prior_log_odds(q) + 0.5 * (np.log(hypers.tau0_sq) - np.log(hypers.tau1_sq))
    with np.errstate(over="ignore", divide="ignore"):
        gap = 0.5 * (1.0 / hypers.tau0_sq - 1.0 / hypers.tau1_sq)
        slope = gap / np.square(np.float64(sigma))
    if not (np.isfinite(intercept) and np.isfinite(slope)):
        raise NumericOverflowError(
            f"indicator log-odds are not finite at sigma={sigma:.3g}; rescale the data"
        )
    return intercept, slope


def _draw_indicators(
    delta_f: np.ndarray,
    q: float,
    line: tuple[float, float] | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """Independent Bernoulli draws of every indicator (block 2). Raises
    NumericOverflowError when a log-odds is not finite (delta_f too large);
    callers silence the overflow warning that precedes it."""
    if line is None:
        return np.full(delta_f.size, q >= 1.0, dtype=np.int8)
    intercept, slope = line
    lo = intercept + slope * delta_f**2
    if not np.isfinite(lo).all():
        raise NumericOverflowError("indicator log-odds are not finite; rescale the data")
    return (rng.random(delta_f.size) < inclusion_probability(lo)).astype(np.int8)


def sample_deltaf_given_z(
    state: GibbsState,
    series: TimeSeries | BinnedSeries,
    hypers: Hyperparameters,
    rng: np.random.Generator,
) -> np.ndarray:
    """One exact draw of the increment vector from its full conditional."""
    return _draw_increments(series, hypers, state.z, rng)


def sample_z_given_deltaf(
    state: GibbsState,
    hypers: Hyperparameters,
    rng: np.random.Generator,
    sigma: float = 1.0,
) -> np.ndarray:
    """Independent Bernoulli draws of every indicator given its increment."""
    line = _log_odds_line(hypers, sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        return _draw_indicators(state.delta_f, hypers.q, line, rng)


def gibbs_inclusion_probabilities(
    series: TimeSeries | BinnedSeries,
    hypers: Hyperparameters,
    config: GibbsConfig,
) -> np.ndarray:
    """Post-burn-in average of the indicators, one entry per site 1..M.

    Deterministic given config.seed. Detection consumes entries 2..M; entry 1
    is the baseline-increment indicator.
    """
    rng = np.random.default_rng(config.seed)
    line = _log_odds_line(hypers, series.noise_sd)
    z = np.zeros(series.length, dtype=np.int8)
    z_total = np.zeros(series.length)
    with np.errstate(over="ignore", invalid="ignore"):
        for sweep in range(config.iterations):
            delta_f = _draw_increments(series, hypers, z, rng)
            z = _draw_indicators(delta_f, hypers.q, line, rng)
            if sweep >= config.burn_in:
                z_total += z
    return z_total / (config.iterations - config.burn_in)
