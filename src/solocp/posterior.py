"""Closed-form marginal posteriors for the single-site spike-and-slab model.

The model places a spike/slab prior on one candidate increment at a time and
a shared N(0, sigma^2 * tau_sq) prior on every other increment. Marginalizing
the nuisance increments reduces, for each candidate site j, to two scalars:

    A_j  -- information the rest of the series carries about increment j
    B_j  -- the matching data functional

from which the mixture posterior follows:

    mu_k  = B_j / (A_j + 1/tau_k^2)
    xi_k  = sigma^2 / (A_j + 1/tau_k^2)            (posterior variance)
    log w_k = B_j^2 / (2 sigma^2 (A_j + 1/tau_k^2)) - log(tau_k^2 (A_j + 1/tau_k^2))/2

A_j and B_j come from the two-filter smoother (Fraser & Potter 1969), one
O(M) pass each way over the per-site counts and sums:

  * a backward information filter gives the weight w_j and data d_j that
    observations j..M carry about the level f_j;
  * a forward Kalman filter gives the mean m_j and variance v_j of the level
    f_{j-1} given observations 1..j-1 (f_0 = 0, so m_1 = v_1 = 0);

and then A_j = w_j / (1 + v_j w_j), B_j = (d_j - m_j w_j) / (1 + v_j w_j).
Every denominator is at least 1. Both filters work in sigma^2 units, so
sigma^2 enters only the formulas above. All quantities are validated against
the dense conjugate computation in the oracle module.

Grouped data (n_t > 1 observations per time index) and plain data (n_t = 1)
share this one path through the series' counts and sums.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericOverflowError
from .types import (
    BinnedSeries,
    Hyperparameters,
    PosteriorSiteSummary,
    TimeSeries,
    inclusion_probability,
    prior_log_odds,
)


@dataclass(frozen=True)
class ForwardCache:
    """Output of the two filters, one entry per site 1..M.

    tail_weight[j-1] / tail_data[j-1] are the information weight and data
    that observations j..M carry about the level f_j; info[j-1] and data[j-1]
    are the site scalars A_j and B_j.
    """

    tail_weight: np.ndarray
    tail_data: np.ndarray
    info: np.ndarray
    data: np.ndarray

    @property
    def length(self) -> int:
        return self.tail_weight.size


def forward_pass(series: TimeSeries | BinnedSeries, hypers: Hyperparameters) -> ForwardCache:
    """Both filters over the series; O(M). Raises NumericOverflowError when
    A or B is not finite."""
    tau_sq = hypers.tau_sq
    counts = series.counts.tolist()
    sums = series.sums.tolist()
    m = len(counts)
    tail_w = np.empty(m)
    tail_d = np.empty(m)
    w_carry = 0.0
    d_carry = 0.0
    for i in range(m - 1, -1, -1):
        w = counts[i] + w_carry
        d = sums[i] + d_carry
        tail_w[i] = w
        tail_d[i] = d
        den = tau_sq * w + 1.0
        # weight/data carried to the previous level through this site's increment
        w_carry = w / den
        d_carry = d / den
    lead_mean = np.empty(m)
    lead_var = np.empty(m)
    mean = 0.0
    var = 0.0
    for i in range(m):
        lead_mean[i] = mean
        lead_var[i] = var
        prior_var = var + tau_sq
        den = 1.0 + counts[i] * prior_var
        mean = (mean + prior_var * sums[i]) / den
        var = prior_var / den
    with np.errstate(over="ignore", invalid="ignore"):
        den = 1.0 + lead_var * tail_w
        info = tail_w / den
        data = (tail_d - lead_mean * tail_w) / den
    if not (np.isfinite(info).all() and np.isfinite(data).all()):
        raise NumericOverflowError("site scalars A/B are not finite; rescale the data")
    return ForwardCache(tail_weight=tail_w, tail_data=tail_d, info=info, data=data)


def _mixture_terms(
    fwd: ForwardCache, sigma: float, hypers: Hyperparameters
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Per-site precisions A_j + 1/tau_k^2 and log mixture weights, spike then
    slab. Raises NumericOverflowError when a log weight is not finite (data
    too large, or sigma too small, for double precision)."""
    s2 = sigma * sigma
    dens = []
    log_ws = []
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for tk in (hypers.tau0_sq, hypers.tau1_sq):
            den = fwd.info + 1.0 / tk
            dens.append(den)
            log_ws.append(fwd.data * fwd.data / (2.0 * s2 * den) - 0.5 * np.log(tk * den))
    if not all(np.isfinite(lw).all() for lw in log_ws):
        raise NumericOverflowError(
            f"log mixture weights are not finite at sigma={sigma:.3g}; rescale the data"
        )
    return (dens[0], dens[1]), (log_ws[0], log_ws[1])


def all_inclusion_probabilities(
    series: TimeSeries | BinnedSeries, hypers: Hyperparameters
) -> np.ndarray:
    """Inclusion probabilities for candidate sites 2..M (site 1 is baseline).

    One forward and one backward filter: O(M) total.
    """
    return inclusion_scores(series, hypers)[0]


def inclusion_scores(
    series: TimeSeries | BinnedSeries, hypers: Hyperparameters
) -> tuple[np.ndarray, np.ndarray]:
    """(probabilities, log-odds) for candidate sites 2..M.

    Strong jumps saturate the probabilities to exactly 1.0 over several
    neighbouring sites; the log-odds carry the same ordering without the
    saturation, so ranking within a cluster stays well defined.
    """
    fwd = forward_pass(series, hypers)
    _, (lw0, lw1) = _mixture_terms(fwd, series.noise_sd, hypers)
    log_odds = prior_log_odds(hypers.q) + lw1[1:] - lw0[1:]
    return inclusion_probability(log_odds), log_odds


def all_site_posteriors(
    series: TimeSeries | BinnedSeries, hypers: Hyperparameters
) -> list[PosteriorSiteSummary]:
    """Full mixture summaries for every site 1..M."""
    fwd = forward_pass(series, hypers)
    (den0, den1), (lw0, lw1) = _mixture_terms(fwd, series.noise_sd, hypers)
    s2 = series.noise_sd * series.noise_sd
    probs = inclusion_probability(prior_log_odds(hypers.q) + lw1 - lw0)
    return [
        PosteriorSiteSummary(
            site=j + 1,
            mu=(float(fwd.data[j] / den0[j]), float(fwd.data[j] / den1[j])),
            xi=(float(s2 / den0[j]), float(s2 / den1[j])),
            log_omega=(float(lw0[j]), float(lw1[j])),
            inclusion_prob=float(probs[j]),
        )
        for j in range(fwd.length)
    ]


def posterior_mean_surface(
    series: TimeSeries | BinnedSeries, hypers: Hyperparameters
) -> np.ndarray:
    """Slab posterior means mu_{1,j} for all sites 1..M (the single-change-
    point criterion consumes these)."""
    fwd = forward_pass(series, hypers)
    return fwd.data / (fwd.info + 1.0 / hypers.tau1_sq)
