"""Two-block Gibbs sampler for the joint spike-and-slab model.

Block 1 draws the whole increment vector from its Gaussian full conditional
given the indicators; block 2 draws every indicator independently given its
increment. Every prior variance is sigma^2-scaled, so the chain runs in
sigma units and sees the data only through sums / sigma, formed once and
checked finite before the first sweep. Scaling the data and sigma by a power
of two leaves every output bitwise the same.
The increment draw is done in the cumulative (fitted-level) space, where the
level precision Q = diag(n) + Delta' diag(w) Delta (Delta the first-difference
operator, w_t = 1/tau^2_{z_t}) is tridiagonal. types.level_precision builds
it; posterior.forward_pass factors the same matrix, with w_t = 1/tau^2
everywhere for the solo posterior or with a given z for the collapsed one.
LAPACK dpttrf factors it as Q = L D L' (L unit lower bidiagonal) and dpttrs
solves Q f = sums / sigma + L D^{1/2} eps (eps standard normal), so one sweep
is O(M) in two calls (Rue 2001). With U = D^{1/2} L' the upper Cholesky factor
of Q, Q^{-1} L D^{1/2} = U^{-1}: f is the usual Q^{-1} sums / sigma + U^{-1} eps.
Both routines come from _lapack, which loads scipy's LAPACK extension without
importing scipy.linalg. The range guard of this pivot form lives in
level_precision, for the solo filter and this draw alike: it raises
NumericOverflowError when eps * max(w) exceeds 1e-3 of the smallest count
(tau0_sq below about 2.2e-13 at unit counts), where the draw drifts from the
dense conditional mean. Its first Q is built at the largest precision
1/tau0_sq, so that one check, before the first block, covers every z a chain
can visit and no sweep checks again.

One kernel runs C >= 1 chains on the same series. Their level systems are
stacked into one block-diagonal tridiagonal system of size C*M, whose
off-diagonal is 0 where one chain ends and the next begins, so one
dpttrf/dpttrs pair per sweep draws every chain's levels. A zero coupling
leaves each block's factor and solution bitwise what it is for that chain
alone. The chains' negated weights -w_t share one (C, M) buffer; with the
couplings (the first entries of chains 2..C) zeroed, its flat entries after
the first are the off-diagonal dpttrf factors in place. Every per-sweep array
is allocated once and written in place. Q depends only on z, as the counts
are fixed, so a sweep whose z (all C rows) equals the last factored z reuses
d, e and sqrt(d), which dpttrs does not overwrite: the reuse is exact. On
TEETH-like input (T = 140, MAD sigma, basad defaults) about 36% of sweeps do.
At M = 140 a sweep costs its calls, not its O(M) arithmetic: a reusing sweep
makes eleven, each bound to a local before the loop (z.tobytes, eight ufuncs
with out by position, dpttrs and one element assignment, cheaper than
np.copyto's Python wrapper); a refactoring sweep six more (take, the two
subtractions of level_precision's build, a couplings fill, dpttrf, sqrt).

Randomness is drawn in blocks of _BLOCK sweeps. Chain k has two child
streams, SeedSequence(seeds[k]).spawn(2): one Generator for the normals of
the level draw and one for the uniforms of the indicator draw. One call per
stream fills a block, and the work that depends only on the draws is done
once per block: each uniform u becomes the log-odds cut
log(u) - log1p(-u) - intercept. An indicator is then drawn as
slope * delta^2 > cut, which is u < inclusion_probability(intercept +
slope * delta^2) rearranged, with no exp or divide per sweep. Each sweep
writes its scores slope * delta^2 and its indicators into (block, C, M)
buffers, so the work that depends only on them is done once per block too:
one finiteness check of the scores raises NumericOverflowError if any is NaN
or inf, and one sum adds the block's kept indicators to the counts. Each
stream is consumed in sweep order, so a chain's output depends neither on
the block size nor on the chains stacked beside it. q in {0, 1} fixes every
indicator: such a run returns q at every site without a chain, as
oracle.enumerate_inclusion_probabilities does.

sigma^2 is fixed at series.noise_sd^2 throughout (known-variance treatment).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import dpttrf, dpttrs
from .errors import LinearSolveFailureError, NumericOverflowError
from .types import (
    BinnedSeries, Hyperparameters, TimeSeries, checked_integer, level_precision, prior_log_odds,
)


@dataclass(frozen=True)
class GibbsConfig:
    """Chain length bookkeeping: total sweeps, sweeps discarded, RNG seed.
    All three are integers (types.checked_integer): iterations >= 1, burn_in
    from 0 to iterations - 1 and seed >= 0; bools, strings and fractions are
    rejected."""

    iterations: int = 5000
    burn_in: int = 1000
    seed: int = 0

    def __post_init__(self):
        iterations = checked_integer(self.iterations, "gibbs iterations", 1)
        burn_in = checked_integer(self.burn_in, "gibbs burn_in", 0, iterations - 1)
        object.__setattr__(self, "iterations", iterations)
        object.__setattr__(self, "burn_in", burn_in)
        object.__setattr__(self, "seed", checked_integer(self.seed, "gibbs seed", 0))


def _log_odds_intercept(hypers: Hyperparameters) -> float:
    """Intercept of an indicator's log-odds as a line in delta_f^2, the
    squared increment in sigma units, for 0 < q < 1; _Sweeps holds the slope."""
    return prior_log_odds(hypers.q) + 0.5 * (np.log(hypers.tau0_sq) - np.log(hypers.tau1_sq))


def _cuts(u, intercept: float, scratch):
    """Uniforms u turned, in place, into log-odds cuts log(u) - log1p(-u) -
    intercept; scratch, an array of u's shape, holds -u."""
    odds = np.negative(u, out=scratch)
    np.log1p(odds, out=odds)
    np.log(u, out=u)
    np.subtract(u, odds, out=u)
    return np.subtract(u, intercept, out=u)


# sweeps of normals and uniforms drawn per Generator call
_BLOCK = 128


class _Sweeps:
    """The sweep loop of C chains stacked into one block-diagonal level
    system, with every buffer it writes allocated here, once.

    The caller fills normals[:, :n] with standard normals and cuts[:, :n]
    with log-odds cuts (_cuts), row k for chain k, and calls run(n). Sweep b
    reads the indicators z[b], writes the increments delta | z[b] in sigma
    units, the scores score[b] = slope * delta^2 and the indicators
    z[b + 1] = score[b] > cuts[:, b]. After the last sweep z[n] moves to z[0],
    where the next block starts; set z[0] before the first run to start the
    chains elsewhere than at all zeros. weights, the negated prior precisions
    taken from table by z, doubles as Q's off-diagonal and then holds e.
    """

    def __init__(self, series: TimeSeries | BinnedSeries, hypers: Hyperparameters,
                 chains: int, block: int):
        c, m = chains, series.length
        # table[z] is minus the prior precision of an increment with indicator z
        self.table = -np.array([1.0 / hypers.tau0_sq, 1.0 / hypers.tau1_sq])
        # a 0-d array: numpy multiplies by it faster than by a scalar
        self.slope = np.asarray(0.5 * (1.0 / hypers.tau0_sq - 1.0 / hypers.tau1_sq))
        self.counts = np.tile(series.counts, (c, 1))
        with np.errstate(over="ignore"):
            self.sums = np.tile(series.sums / series.noise_sd, (c, 1))
        if not np.isfinite(self.sums).all():
            raise NumericOverflowError(f"sums / sigma overflow at sigma={series.noise_sd:.3g}")
        # built first at the largest precision: level_precision's range guard
        # then covers every z, and the first sweep refactors from z[0] anyway
        self.weights = np.full((c, m), self.table.min())
        self.diag, _, self.build = level_precision(self.counts, self.weights)
        self.root, self.levels, self.delta = (np.empty((c, m)) for _ in range(3))
        self.carry = np.empty(c * m - 1)
        # odds is _cuts' buffer for -u, so no block allocates a temporary
        self.normals, self.cuts, self.odds = (np.empty((c, block, m)) for _ in range(3))
        self.z = np.zeros((block + 1, c, m), dtype=bool)
        self.score = np.empty((block, c, m))
        # d, e of the last LAPACK factorization and the bytes of the z it used
        self.last_factor = None, None, None
        # views made once: slicing a 2-D array costs more than the work on
        # M = 140 sites it selects
        rhs, weights = self.levels.ravel(), self.weights
        self.factor_views = (self.diag.ravel(), weights.ravel()[1:], self.root.ravel(),
                             weights[1:, 0])
        # the flat differences of the levels are each chain's increments,
        # once its first entry is overwritten with its first level
        self.rhs_views = rhs, rhs[:-1], rhs[1:], self.delta.ravel()[1:]
        self.firsts = self.delta[:, 0], self.levels[:, 0]
        zs = list(self.z)
        self.rows = list(zip(
            self.normals.swapaxes(0, 1), self.cuts.swapaxes(0, 1),
            [z.tobytes for z in zs], zs, zs[1:], self.score,
        ))

    def run(self, n: int) -> None:
        """Sweeps 0..n-1 of the block; Q is built and factored only in a
        sweep whose z differs from the z of the last factorization."""
        take, weights, build = self.table.take, self.weights, self.build
        (flat_diag, flat_off, flat_root, couplings), (rhs, heads, tails, steps) = (
            self.factor_views, self.rhs_views
        )
        first_delta, first_level = self.firsts
        root, levels, sums, carry, delta, slope = (
            self.root, self.levels, self.sums, self.carry, self.delta, self.slope
        )
        sqrt, multiply, add, subtract = np.sqrt, np.multiply, np.add, np.subtract
        greater, factor, solve = np.greater, dpttrf, dpttrs
        d, e, factored = self.last_factor
        with np.errstate(over="ignore", invalid="ignore"):
            for noise, cut, z_bytes, z, z_next, score in self.rows[:n]:
                key = z_bytes()
                if key != factored:
                    # mode "clip" spares the buffered copy that "raise" makes of out
                    take(z, None, weights, "clip")
                    build()
                    couplings.fill(0.0)
                    # overwrite flags passed by position: f2py parses keywords slowly
                    d, e, info = factor(flat_diag, flat_off, 1, 1)
                    if info != 0:
                        raise LinearSolveFailureError(
                            f"level precision is not positive definite (LAPACK info {info})"
                        )
                    sqrt(d, flat_root)
                    factored = key
                multiply(root, noise, levels)
                multiply(e, heads, carry)
                add(tails, carry, tails)
                add(levels, sums, levels)
                _, info = solve(d, e, rhs, 1)
                if info != 0:
                    raise LinearSolveFailureError(f"level solve failed (LAPACK info {info})")
                subtract(tails, heads, steps)
                first_delta[...] = first_level
                multiply(delta, delta, score)
                multiply(score, slope, score)
                greater(score, cut, z_next)
        self.last_factor = d, e, factored
        self.z[0] = self.z[n]
        # NaN and inf stay in the block's scores, so one check covers it
        if not np.isfinite(self.score[:n]).all():
            raise NumericOverflowError("indicator log-odds are not finite; rescale the data")


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
    intercept = _log_odds_intercept(hypers)
    block = min(_BLOCK, iterations)
    sweeps = _Sweeps(series, hypers, c, block)
    z_total = np.zeros((c, m), dtype=np.int64)
    for start in range(0, iterations, block):
        n = min(block, iterations - start)
        for (normal, uniform), normals, cuts in zip(streams, sweeps.normals, sweeps.cuts):
            normal.standard_normal(out=normals[:n])
            uniform.random(out=cuts[:n])
        with np.errstate(divide="ignore"):  # a uniform of 0 is a cut of -inf
            _cuts(sweeps.cuts[:, :n], intercept, sweeps.odds[:, :n])
        sweeps.run(n)
        # z[b + 1] holds the indicators of sweep start + b
        first_kept = max(burn_in - start, 0)
        if first_kept < n:
            z_total += sweeps.z[first_kept + 1 : n + 1].sum(axis=0)
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
