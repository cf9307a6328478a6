"""Dense conjugate-Gaussian reference computations.

Everything here is deliberately brute force: build the cumulative-sum design
explicitly, form the marginal covariance sigma^2 (I + X D X'), and use dense
factorizations. No recursions, no cleverness. The fast recursion module is
tested against these results; the joint-model enumeration backs the Gibbs
sampler tests. Shipped in the library so users can audit the fast path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
import scipy.linalg

from .errors import EmptySetError, LinearSolveFailureError, SingularCovarianceError
from .types import BinnedSeries, Hyperparameters, TimeSeries, stable_inclusion_probability

_LOG_2PI = math.log(2.0 * math.pi)


def _as_binned(series) -> BinnedSeries:
    return series.to_binned() if isinstance(series, TimeSeries) else series


def _expanded_design(counts: np.ndarray) -> np.ndarray:
    """One row per observation: row r has ones in columns 1..bin(r)."""
    m = counts.size
    reps = counts.astype(int)
    cols = np.repeat(np.arange(m), reps)
    t = cols.size
    return (np.arange(m)[None, :] <= cols[:, None]).astype(float)


def _flat_observations(series: BinnedSeries) -> np.ndarray:
    return np.concatenate([np.asarray(b, dtype=float) for b in series.bins])


def _gaussian_logpdf_zero_mean(y: np.ndarray, cov: np.ndarray):
    """log N(y; 0, cov) plus the Cholesky factor used downstream."""
    try:
        chol = scipy.linalg.cho_factor(cov, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise SingularCovarianceError(str(exc)) from exc
    alpha = scipy.linalg.cho_solve(chol, y)
    logdet = 2.0 * np.sum(np.log(np.diag(chol[0])))
    logpdf = -0.5 * (y.size * _LOG_2PI + logdet + float(y @ alpha))
    return logpdf, chol, alpha


@dataclass(frozen=True)
class OracleResult:
    """Reference posterior quantities for one candidate site."""

    site: int
    mu: tuple[float, float]
    xi: tuple[float, float]
    log_marginal: tuple[float, float]
    inclusion_prob: float


def oracle_site_posterior(
    series: TimeSeries | BinnedSeries,
    j: int,
    hypers: Hyperparameters,
    max_size: int = 200,
) -> OracleResult:
    """Single-site model posterior at site j by dense Gaussian conditioning.

    Cost is O(T^3) per spike/slab component; refuses series longer than
    max_size observations.
    """
    binned = _as_binned(series)
    counts = binned.counts
    m = counts.size
    if not 1 <= j <= m:
        raise IndexError(f"site {j} outside 1..{m}")
    t = binned.total
    if t > max_size:
        raise ValueError(f"series of {t} observations exceeds oracle cap {max_size}")
    y = _flat_observations(binned)
    design = _expanded_design(counts)
    xj = design[:, j - 1]
    s2 = binned.noise_sd**2
    mus, xis, logms = [], [], []
    for tau_k in (hypers.tau0_sq, hypers.tau1_sq):
        d = np.full(m, hypers.tau_sq)
        d[j - 1] = tau_k
        cov = s2 * (np.eye(t) + (design * d) @ design.T)
        logm, chol, alpha = _gaussian_logpdf_zero_mean(y, cov)
        c = s2 * tau_k  # cov(increment_j, Y) = c * xj
        mus.append(c * float(xj @ alpha))
        xis.append(c - c * c * float(xj @ scipy.linalg.cho_solve(chol, xj)))
        logms.append(logm)
    prob = stable_inclusion_probability(hypers.q, logms[0], logms[1])
    return OracleResult(
        site=j,
        mu=(mus[0], mus[1]),
        xi=(xis[0], xis[1]),
        log_marginal=(logms[0], logms[1]),
        inclusion_prob=prob,
    )


def oracle_joint_marginal(
    series: TimeSeries | BinnedSeries,
    z,
    hypers: Hyperparameters,
    max_size: int = 20,
) -> float:
    """log marginal likelihood of the joint model under indicator vector z.

    z has one entry per time index; entry t selects the slab (1) or spike (0)
    variance for increment t.
    """
    binned = _as_binned(series)
    z = np.asarray(z, dtype=int)
    m = binned.counts.size
    if z.shape != (m,):
        raise ValueError(f"z must have length {m}")
    if binned.total > max_size:
        raise ValueError(f"series of {binned.total} observations exceeds cap {max_size}")
    y = _flat_observations(binned)
    design = _expanded_design(binned.counts)
    d = np.where(z == 1, hypers.tau1_sq, hypers.tau0_sq)
    cov = binned.noise_sd**2 * (np.eye(binned.total) + (design * d) @ design.T)
    logm, _, _ = _gaussian_logpdf_zero_mean(y, cov)
    return logm


def conditional_deltaf_moments(
    series: TimeSeries | BinnedSeries, z, hypers: Hyperparameters
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the increments given z, by a dense solve.

    The reference for the Gibbs sampler's tridiagonal level draw.
    """
    binned = _as_binned(series)
    design = _expanded_design(binned.counts)
    y = _flat_observations(binned)
    z = np.asarray(z, dtype=int)
    d_inv = np.where(z == 1, 1.0 / hypers.tau1_sq, 1.0 / hypers.tau0_sq)
    prec = design.T @ design + np.diag(d_inv)
    try:
        cov = np.linalg.inv(prec)
    except np.linalg.LinAlgError as exc:
        raise LinearSolveFailureError(str(exc)) from exc
    mean = cov @ (design.T @ y)
    return mean, series.noise_sd**2 * cov


def enumerate_inclusion_probabilities(
    series: TimeSeries | BinnedSeries, hypers: Hyperparameters, max_sites: int = 20
) -> np.ndarray:
    """Exact joint-model marginals P(Z_t = 1 | Y, sigma^2) for every site, by
    exhaustive enumeration of all 2^M indicator vectors."""
    binned = _as_binned(series)
    m = binned.counts.size
    if m > max_sites:
        raise ValueError(f"{m} sites would enumerate 2^{m} configurations")
    if not 0.0 < hypers.q < 1.0:
        # degenerate priors fix every indicator
        return np.full(m, float(hypers.q))
    log_q = math.log(hypers.q)
    log_1mq = math.log1p(-hypers.q)
    log_posts = np.empty(2**m)
    configs = np.empty((2**m, m))
    for idx, bits in enumerate(product((0, 1), repeat=m)):
        z = np.asarray(bits)
        logm = oracle_joint_marginal(binned, z, hypers, max_size=binned.total)
        log_posts[idx] = logm + z.sum() * log_q + (m - z.sum()) * log_1mq
        configs[idx] = z
    w = np.exp(log_posts - log_posts.max())
    w /= w.sum()
    return w @ configs


def exact_z_posterior(
    series: TimeSeries | BinnedSeries, hypers: Hyperparameters, max_sites: int = 12
) -> dict[tuple[int, ...], float]:
    """Full posterior over indicator configurations (small M only)."""
    binned = _as_binned(series)
    m = binned.counts.size
    if m > max_sites:
        raise ValueError(f"{m} sites would enumerate 2^{m} configurations")
    if not 0.0 < hypers.q < 1.0:
        raise EmptySetError("degenerate q leaves a single configuration")
    log_q = math.log(hypers.q)
    log_1mq = math.log1p(-hypers.q)
    keys = []
    vals = []
    for bits in product((0, 1), repeat=m):
        z = np.asarray(bits)
        logm = oracle_joint_marginal(binned, z, hypers, max_size=binned.total)
        keys.append(bits)
        vals.append(logm + z.sum() * log_q + (m - z.sum()) * log_1mq)
    vals = np.asarray(vals)
    w = np.exp(vals - vals.max())
    w /= w.sum()
    return dict(zip(keys, w))
