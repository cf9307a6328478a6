"""Two-block Gibbs sampler for the joint spike-and-slab model.

Block 1 draws the whole increment vector from its Gaussian full conditional
given the indicators; block 2 draws every indicator independently given its
increment. Every prior variance is sigma^2-scaled, so the chain runs in
sigma units and sees the data only through sums / sigma, formed once: scaling
the data and sigma by a power of two leaves every output bitwise the same.
The increment draw is done in the cumulative (fitted-level) space, where the
level precision Q = diag(n) + Delta' diag(w) Delta (Delta the first-difference
operator, w_t = 1/tau^2_{z_t}) is tridiagonal. types.level_precision builds
it; the solo posterior factors the same matrix with w_t = 1/tau^2 everywhere.
LAPACK dpttrf factors it as Q = L D L' (L unit lower bidiagonal) and dpttrs
solves Q f = sums / sigma + L D^{1/2} eps (eps standard normal), so one sweep
is O(M) in two calls (Rue 2001). With U = D^{1/2} L' the upper Cholesky factor
of Q, Q^{-1} L D^{1/2} = U^{-1}: f is the usual Q^{-1} sums / sigma + U^{-1} eps.

One kernel runs C >= 1 chains on the same series. Their level systems are
stacked into one block-diagonal tridiagonal system of size C*M, whose
off-diagonal is 0 where one chain ends and the next begins, so one
dpttrf/dpttrs pair per sweep draws every chain's levels. A zero coupling
leaves each block's factor and solution bitwise what it is for that chain
alone. Every per-sweep array is allocated once, before the first sweep,
and each step writes into it in place.

Randomness is drawn in blocks of _BLOCK sweeps. Chain k has two child
streams, SeedSequence(seeds[k]).spawn(2): one Generator for the normals of
the level draw and one for the uniforms of the indicator draw. One call per
stream fills a block, and the work that depends only on the draws is done
once per block: each uniform u becomes the log-odds cut
log(u) - log1p(-u) - intercept. An indicator is then drawn as
slope * delta^2 > cut, which is u < inclusion_probability(intercept +
slope * delta^2) rearranged, with no exp or divide per sweep. A running
maximum of slope * delta^2 stands in for a finiteness check on every sweep:
NaN and inf stay in it, so one check after the last sweep raises
NumericOverflowError. Each stream is consumed in sweep order, so a chain's
output depends neither on the block size nor on the chains stacked beside
it. q in {0, 1} fixes every indicator: such a run returns q at every site
without a chain, as oracle.enumerate_inclusion_probabilities does.

sigma^2 is fixed at series.noise_sd^2 throughout (known-variance treatment).
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import InvalidConfigError, LinearSolveFailureError, NumericOverflowError
from .types import (
    BinnedSeries, Hyperparameters, TimeSeries, checked_number, level_precision, prior_log_odds,
)


@dataclass(frozen=True)
class GibbsConfig:
    """Chain length bookkeeping: total sweeps, sweeps discarded, RNG seed.
    All three are integers; bools, strings and fractions are rejected."""

    iterations: int = 5000
    burn_in: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name in ("iterations", "burn_in", "seed"):
            value = checked_number(getattr(self, name), f"gibbs {name}", numbers.Integral)
            object.__setattr__(self, name, value)
        if self.iterations < 1:
            raise InvalidConfigError(f"iterations must be >= 1, got {self.iterations}")
        if not 0 <= self.burn_in < self.iterations:
            raise InvalidConfigError(
                f"burn_in must lie in [0, iterations), got {self.burn_in}"
            )
        if self.seed < 0:
            raise InvalidConfigError("seed must be a nonnegative integer")


def _log_odds_line(hypers: Hyperparameters) -> tuple[float, float]:
    """Intercept and slope of an indicator's log-odds as a function of
    delta_f^2, the squared increment in sigma units, for 0 < q < 1."""
    intercept = prior_log_odds(hypers.q) + 0.5 * (np.log(hypers.tau0_sq) - np.log(hypers.tau1_sq))
    return intercept, 0.5 * (1.0 / hypers.tau0_sq - 1.0 / hypers.tau1_sq)


# sweeps of normals and uniforms drawn per Generator call
_BLOCK = 128


class _LevelDraw:
    """Block 1 for C chains stacked into one block-diagonal level system:
    each call writes delta <- increments | z in sigma units, row k for chain
    k, from a (C, M) row of standard normals, into buffers allocated here,
    once."""

    def __init__(self, series: TimeSeries | BinnedSeries, hypers: Hyperparameters, z, delta):
        c, m = delta.shape
        # table[z] is the prior precision of an increment with indicator z
        self.table = np.array([1.0 / hypers.tau0_sq, 1.0 / hypers.tau1_sq])
        self.z = z
        self.counts = np.tile(series.counts, (c, 1))
        self.sums = np.tile(series.sums / series.noise_sd, (c, 1))
        self.weights, self.diag, self.levels = (np.empty((c, m)) for _ in range(3))
        # row k's last entry stays 0: it decouples chain k from chain k + 1
        coupling = np.zeros((c, m))
        self.off = coupling[:, :-1]
        self.carry = np.empty(c * m - 1)
        # views made once: slicing a 2-D array costs more than the work on
        # M = 140 sites it selects
        self.flat_diag, self.flat_off = self.diag.ravel(), coupling.ravel()[:-1]
        rhs = self.levels.ravel()
        self.rhs, self.heads, self.tails = rhs, rhs[:-1], rhs[1:]
        self.steps = (self.levels[:, 1:], self.levels[:, :-1], delta[:, 1:])
        self.firsts = (delta[:, 0], self.levels[:, 0])

    def __call__(self, noise) -> None:
        # mode "clip" spares the buffered copy that "raise" makes of out; z is 0 or 1
        self.table.take(self.z, out=self.weights, mode="clip")
        level_precision(self.counts, self.weights, self.diag, self.off)
        # overwrite flags passed by position: f2py parses keywords slowly
        d, e, info = dpttrf(self.flat_diag, self.flat_off, 1, 1)
        if info == 0:
            rhs, levels = self.rhs, self.levels
            np.sqrt(d, out=rhs)
            np.multiply(levels, noise, out=levels)
            np.multiply(e, self.heads, out=self.carry)
            np.add(self.tails, self.carry, out=self.tails)
            np.add(levels, self.sums, out=levels)
            _, info = dpttrs(d, e, rhs, 1)
        if info != 0:
            raise LinearSolveFailureError(
                f"level precision is not positive definite (LAPACK info {info})"
            )
        later, earlier, steps = self.steps
        np.subtract(later, earlier, out=steps)
        np.copyto(*self.firsts)


class _IndicatorDraw:
    """Block 2 for C chains: each call writes z <- independent Bernoulli
    draws given delta, row k for chain k, from a (C, M) row of log-odds cuts
    made by `cut`, into buffers allocated here, once. `peak` holds the
    running maximum of slope * delta^2, which stays NaN or inf once one
    score is not finite; the caller checks it after the last sweep."""

    def __init__(self, line: tuple[float, float], delta, z):
        self.line, self.delta, self.z = line, delta, z
        self.score, self.peak = np.empty(z.shape), np.zeros(z.shape)

    def cut(self, u):
        """Uniforms u turned, in place, into cuts log(u) - log1p(-u) - intercept."""
        odds = np.negative(u)
        np.log1p(odds, out=odds)
        np.log(u, out=u)
        np.subtract(u, odds, out=u)
        return np.subtract(u, self.line[0], out=u)

    def __call__(self, cut) -> None:
        score = self.score
        np.multiply(self.delta, self.delta, out=score)
        np.multiply(score, self.line[1], out=score)
        np.maximum(self.peak, score, out=self.peak)
        np.greater(score, cut, out=self.z)


def _run_chains(
    series: TimeSeries | BinnedSeries,
    hypers: Hyperparameters,
    iterations: int,
    burn_in: int,
    seeds,
) -> np.ndarray:
    """Post-burn-in averages of the indicators of one chain per seed, shape
    (len(seeds), M). Row k equals a single-chain run with seeds[k]."""
    c, m = len(seeds), series.length
    if hypers.q in (0.0, 1.0):  # the prior fixes every indicator
        return np.full((c, m), float(hypers.q))
    streams = [
        [np.random.default_rng(child) for child in np.random.SeedSequence(s).spawn(2)]
        for s in seeds
    ]
    z = np.zeros((c, m), dtype=bool)
    delta = np.empty(z.shape)
    draw_increments = _LevelDraw(series, hypers, z, delta)
    draw_indicators = _IndicatorDraw(_log_odds_line(hypers), delta, z)
    block = min(_BLOCK, iterations)
    normals, uniforms = np.empty((c, block, m)), np.empty((c, block, m))
    # per-sweep (C, M) rows, views made once into buffers refilled per block
    rows = [(normals[:, b], uniforms[:, b]) for b in range(block)]
    z_total = np.zeros(z.shape, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, iterations, block):
            n = min(block, iterations - start)
            for (normal, uniform), chain_normals, chain_uniforms in zip(streams, normals, uniforms):
                normal.standard_normal(out=chain_normals[:n])
                uniform.random(out=chain_uniforms[:n])
            draw_indicators.cut(uniforms[:, :n])
            for sweep, (noise, cut) in enumerate(rows[:n], start):
                draw_increments(noise)
                draw_indicators(cut)
                if sweep >= burn_in:
                    np.add(z_total, z, out=z_total)
    if not np.isfinite(draw_indicators.peak).all():
        raise NumericOverflowError("indicator log-odds are not finite; rescale the data")
    return z_total / (iterations - burn_in)


def gibbs_inclusion_probabilities(
    series: TimeSeries | BinnedSeries,
    hypers: Hyperparameters,
    config: GibbsConfig,
) -> np.ndarray:
    """Post-burn-in average of the indicators, one entry per site 1..M.

    Deterministic given config.seed. Detection consumes entries 2..M; entry 1
    is the baseline-increment indicator.
    """
    return _run_chains(series, hypers, config.iterations, config.burn_in, (config.seed,))[0]
