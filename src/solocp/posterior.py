"""Closed-form marginal posteriors for the spike-and-slab models.

The single-site model places a spike/slab prior on one candidate increment at
a time and a shared N(0, sigma^2 * tau_sq) prior on every other increment.
Marginalizing the nuisance increments reduces, for each candidate site j, to
two scalars:

    A_j  -- information the rest of the series carries about increment j
    B_j  -- the matching data functional

from which the mixture posterior follows:

    mu_k  = B_j / (A_j + 1/tau_k^2)
    xi_k  = sigma^2 / (A_j + 1/tau_k^2)            (posterior variance)
    log w_k = (B_j/sigma)^2 / (2 (A_j + 1/tau_k^2)) - log(tau_k^2 (A_j + 1/tau_k^2))/2

The joint model differs only in the nuisance priors: given indicators z,
increment t has prior variance sigma^2 * tau^2_{z_t} (tau1_sq where z_t = 1,
tau0_sq elsewhere). A_j and B_j never depend on increment j's own prior, so
with those priors the same formulas give the joint model's collapsed log-odds
log p(y | z_j=1, z_-j) - log p(y | z_j=0, z_-j) of every site in one pass
(collapsed Gibbs: Liu 1994).

A_j and B_j come from the two-filter smoother (Fraser & Potter 1969): a
backward information filter gives the weight r_j and data d_j that
observations j..M carry about the level f_j, and a forward Kalman filter the
mean m_j and variance v_j of f_{j-1} given observations 1..j-1 (f_0 = 0, so
m_1 = v_1 = 0). Then A_j = r_j / (1 + v_j r_j) and
B_j = (d_j - m_j r_j) / (1 + v_j r_j); every denominator is at least 1.
Both filters work with sigma^2 factored out, so sigma enters only the
formulas above: in xi_k, and in log w_k through B_j / sigma, formed once, so
scaling the data and sigma by a power of two leaves the weights bitwise equal.

Both filters are Gaussian elimination on the level precision
Q = diag(n) + Delta' diag(w) Delta, where w_t, the prior precision of
increment t, is 1/tau^2 or 1/tau^2_{z_t} (types.level_precision, shared with
the Gibbs level draw), so LAPACK calls replace them (Rue 2001; dpttrf and
dpttrs come from _lapack, which loads them without importing scipy.linalg):
dpttrf(Q) gives pivots phi_j, where phi_j - w_{j+1} = 1/v_{j+1} is the
precision of f_j given observations 1..j; dpttrf on Q reversed gives pivots
pi_j, where pi_j - w_j = r_j; and x = Q^{-1} sums is the posterior mean of the
levels. Row j of each elimination, phi_j x_j - w_{j+1} x_{j+1} = m_{j+1} / v_{j+1}
and pi_j x_j - w_j x_{j-1} = d_j (x_0 = 0), gives m and d.
B_j = (A_j + w_j)(x_j - x_{j-1}) would lose eps * w_j * |x| to the increments,
so a second dpttrs solves for x - c, c = x_M, as Q (c 1) = c n + c w_1 e_1:
the last level, farthest from the pin f_0 = 0, is near the others both at a
level offset and when a tiny tau^2 pins them to 0.

Precision: pi_j - w_j and phi_j - w_{j+1} lose about eps * max(w)
absolutely, and both are at least n_j (solo's phi_j - 1/tau^2 >= 1/(j tau^2)
does not cancel). Against the scalar recurrences, A_j agrees to about 1e-10
relative at tau^2 = 1e-6 and a few 1e-6 at 1e-11, and B_j to about 2e-10 of
|B_j| + sqrt(A_j) at level offsets up to 1e3. The guard lives in
types.level_precision, which builds Q for this filter and the Gibbs draw
alike: as both data parts are at least the smallest count, it raises
NumericOverflowError when eps * max(w) exceeds 1e-3 of that count (a tau^2
below about 2.2e-13 at unit counts) instead of returning wrong scalars. The
oracle module checks all of it against the dense conjugate computation.

Grouped data (n_t > 1 observations per time index) and plain data (n_t = 1)
share this one path through the series' counts and sums.
"""
from __future__ import annotations

import numpy as np

from ._lapack import dpttrf, dpttrs
from .errors import LinearSolveFailureError, NumericOverflowError
from .types import (
    BinnedSeries,
    Hyperparameters,
    PosteriorSiteSummary,
    TimeSeries,
    checked_indicators,
    inclusion_probability,
    level_precision,
    noise_variance,
    prior_log_odds,
)


def forward_pass(
    series: TimeSeries | BinnedSeries, hypers: Hyperparameters, z=None
) -> tuple[np.ndarray, np.ndarray]:
    """Both filters over the series; O(M). Returns (A, B), the site scalars
    A_j and B_j for sites 1..M, with the prior variance tau_sq on every
    increment, or given indicators z (one per site) tau1_sq where z_t = 1 and
    tau0_sq elsewhere. Raises InvalidConfigError unless z holds one 0 or 1 per
    site, NumericOverflowError when a prior variance is too small for the pivot
    form or A or B is not finite, and LinearSolveFailureError when LAPACK
    rejects Q."""
    counts = series.counts
    # w[j-1] is the prior precision of increment j: 1/tau_sq, or 1/tau^2_{z_j} given z
    if z is None:
        w = np.full(counts.size, 1.0 / float(hypers.tau_sq))
    else:
        w = np.where(checked_indicators(z, counts.size), 1.0 / hypers.tau1_sq, 1.0 / hypers.tau0_sq)
    diag, off, _ = level_precision(counts, -w)
    phi, e, info_fwd = dpttrf(diag, off)
    pivots, _, info_bwd = dpttrf(diag[::-1], off[::-1])
    x, info_solve = dpttrs(phi, e, series.sums)
    if info_fwd or info_bwd or info_solve:
        raise LinearSolveFailureError(
            "level precision is not positive definite "
            f"(LAPACK info {info_fwd}, {info_bwd}, {info_solve})"
        )
    tail_w = pivots[::-1] - w
    with np.errstate(over="ignore", invalid="ignore"):
        c = x[-1]  # Q (c 1) = c counts + c w_1 e_1
        rhs = series.sums - c * counts
        rhs[0] -= c * w[0]
        x_r = dpttrs(phi, e, rhs)[0]
        step, lead_var, lead_mean = np.empty(x_r.size), np.zeros(x_r.size), np.zeros(x_r.size)
        step[0] = x_r[0] - (-c)  # x_r's differences, with x_0 - c = -c
        np.subtract(x_r[1:], x_r[:-1], out=step[1:])
        x = x_r + c
        tail_d = tail_w * x + w * step
        np.divide(1.0, phi[:-1] - w[1:], out=lead_var[1:])  # lead_var, lead_mean are 0 at site 1
        np.subtract(x[:-1], w[1:] * step[1:] * lead_var[1:], out=lead_mean[1:])
        den = 1.0 + lead_var * tail_w
        info = tail_w / den
        data = (tail_d - lead_mean * tail_w) / den
    if not (np.isfinite(info).all() and np.isfinite(data).all()):
        raise NumericOverflowError("site scalars A/B are not finite; rescale the data")
    return info, data


def _site_mixture(series: TimeSeries | BinnedSeries, hypers: Hyperparameters, z=None):
    """(B, (spike, slab) precisions A + 1/tau_k^2, (spike, slab) log mixture
    weights, inclusion log-odds), each for sites 1..M: the one place the
    mixture posterior is formed, for both models. Given indicators z, the
    log-odds are the joint model's log p(z_j=1 | z_-j, y) / p(z_j=0 | z_-j, y).
    Raises NumericOverflowError when a log weight is not finite (data too
    large, or sigma too small, for double precision)."""
    info, data = forward_pass(series, hypers, z)
    dens, log_ws = [], []
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        b = data / series.noise_sd
        for tk in (hypers.tau0_sq, hypers.tau1_sq):
            den = info + 1.0 / tk
            dens.append(den)
            log_ws.append(b * b / (2.0 * den) - 0.5 * np.log(tk * den))
    if not all(np.isfinite(lw).all() for lw in log_ws):
        raise NumericOverflowError(
            f"log mixture weights are not finite at sigma={series.noise_sd:.3g}; "
            "rescale the data"
        )
    return data, dens, log_ws, prior_log_odds(hypers.q) + log_ws[1] - log_ws[0]


def inclusion_scores(
    series: TimeSeries | BinnedSeries, hypers: Hyperparameters
) -> tuple[np.ndarray, np.ndarray]:
    """(probabilities, log-odds) for candidate sites 2..M.

    Strong jumps saturate the probabilities to exactly 1.0 over several
    neighbouring sites; the log-odds carry the same ordering without the
    saturation, so ranking within a cluster stays well defined.
    """
    log_odds = _site_mixture(series, hypers)[3][1:]
    return inclusion_probability(log_odds), log_odds


def all_site_posteriors(
    series: TimeSeries | BinnedSeries, hypers: Hyperparameters
) -> list[PosteriorSiteSummary]:
    """Full mixture summaries for every site 1..M. Raises NumericOverflowError
    where noise_sd^2, the numerator of xi, overflows."""
    s2 = noise_variance(series)
    data, (den0, den1), (lw0, lw1), log_odds = _site_mixture(series, hypers)
    probs = inclusion_probability(log_odds)
    return [
        PosteriorSiteSummary(
            site=j + 1,
            mu=(float(data[j] / den0[j]), float(data[j] / den1[j])),
            xi=(float(s2 / den0[j]), float(s2 / den1[j])),
            log_omega=(float(lw0[j]), float(lw1[j])),
            inclusion_prob=float(probs[j]),
        )
        for j in range(data.size)
    ]


def posterior_mean_surface(
    series: TimeSeries | BinnedSeries, hypers: Hyperparameters
) -> np.ndarray:
    """Slab posterior means mu_{1,j} for all sites 1..M (the single-change-
    point criterion consumes these); no log weight is formed, so none is
    checked."""
    info, data = forward_pass(series, hypers)
    return data / (info + 1.0 / hypers.tau1_sq)
