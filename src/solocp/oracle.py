"""Dense conjugate-Gaussian reference computations.

Everything here is deliberately brute force: build the cumulative-sum design
explicitly, form the marginal covariance sigma^2 (I + X D X'), and use dense
factorizations. No recursions, no cleverness. The fast recursion module is
tested against these results; the joint-model enumeration backs the Gibbs
sampler tests. Shipped in the library so users can audit the fast path.
LAPACK dpotrf/dpotrs from _lapack factor and solve with the arguments of
scipy.linalg.cho_factor(cov, lower=True) and cho_solve, bit for bit theirs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from ._lapack import dpotrf, dpotrs
from .errors import (
    EmptySetError, InvalidConfigError, LinearSolveFailureError, NumericOverflowError,
    SingularCovarianceError,
)
from .types import (
    BinnedSeries, Hyperparameters, TimeSeries, checked_indicators, checked_integer,
    inclusion_probability, noise_variance, prior_log_odds,
)

_LOG_2PI = math.log(2.0 * math.pi)


def _expanded_design(counts: np.ndarray) -> np.ndarray:
    """One row per observation: row r has ones in columns 1..bin(r)."""
    m = counts.size
    reps = counts.astype(int)
    cols = np.repeat(np.arange(m), reps)
    return (np.arange(m)[None, :] <= cols[:, None]).astype(float)


def _log_marginal(series: TimeSeries | BinnedSeries, variances: np.ndarray):
    """_gaussian_logpdf_zero_mean of the data under the dense marginal
    covariance sigma^2 (I + X diag(variances) X'), X the expanded design."""
    y, design = series.values, _expanded_design(series.counts)
    with np.errstate(over="ignore"):  # checked before it is factored
        cov = noise_variance(series) * (np.eye(y.size) + (design * variances) @ design.T)
    return _gaussian_logpdf_zero_mean(y, cov)


def _gaussian_logpdf_zero_mean(y: np.ndarray, cov: np.ndarray):
    """log N(y; 0, cov) plus the Cholesky factor and cov^-1 y used downstream.
    The other right-hand side, a design column, is finite by construction."""
    if not (np.isfinite(cov).all() and np.isfinite(y).all()):
        raise NumericOverflowError("covariance or data not finite; rescale noise_sd or data")
    chol, info = dpotrf(cov, lower=1, clean=0)
    if info > 0:
        raise SingularCovarianceError(f"leading minor {info} of the covariance is not positive")
    alpha = dpotrs(chol, y, lower=1)[0]
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        logpdf = -0.5 * (y.size * _LOG_2PI + logdet + float(y @ alpha))
    if not math.isfinite(logpdf):
        raise NumericOverflowError("log marginal likelihood is not finite; rescale the data")
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

    Cost is O(T^3) per spike/slab component; a site that is not an integer
    in 1..M, a max_size that is not an integer >= 1, or a series longer than
    max_size observations raises InvalidConfigError.
    """
    m, t = series.length, series.values.size
    j = checked_integer(j, "site", 1, m)
    if t > checked_integer(max_size, "max_size", 1):
        raise InvalidConfigError(f"series of {t} observations exceeds oracle cap {max_size}")
    xj = _expanded_design(series.counts)[:, j - 1]
    s2 = noise_variance(series)
    mus, xis, logms = [], [], []
    for tau_k in (hypers.tau0_sq, hypers.tau1_sq):
        d = np.full(m, hypers.tau_sq)
        d[j - 1] = tau_k
        logm, chol, alpha = _log_marginal(series, d)
        c = s2 * tau_k  # cov(increment_j, Y) = c * xj
        mus.append(c * float(xj @ alpha))
        xis.append(c - c * c * float(xj @ dpotrs(chol, xj, lower=1)[0]))
        logms.append(logm)
    if not all(map(math.isfinite, mus + xis)):  # (s2 * tau_k)^2 can overflow
        raise NumericOverflowError("posterior mean or variance is not finite; rescale the data")
    prob = float(inclusion_probability(prior_log_odds(hypers.q) + logms[1] - logms[0]))
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
    variance for increment t. A z that is not one 0 or 1 per time index, a
    max_size that is not an integer >= 1, or a series longer than max_size
    observations raises InvalidConfigError.
    """
    z, t = checked_indicators(z, series.length), series.values.size
    if t > checked_integer(max_size, "max_size", 1):
        raise InvalidConfigError(f"series of {t} observations exceeds cap {max_size}")
    return _log_marginal(series, np.where(z, hypers.tau1_sq, hypers.tau0_sq))[0]


def conditional_deltaf_moments(
    series: TimeSeries | BinnedSeries, z, hypers: Hyperparameters
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the increments given z, by a dense solve.

    The reference for the Gibbs sampler's tridiagonal level draw. A z that is
    not one 0 or 1 per time index raises InvalidConfigError.
    """
    z = checked_indicators(z, series.length)
    design = _expanded_design(series.counts)
    y = series.values
    d_inv = np.where(z, 1.0 / hypers.tau1_sq, 1.0 / hypers.tau0_sq)
    prec = design.T @ design + np.diag(d_inv)
    try:
        cov = np.linalg.inv(prec)
    except np.linalg.LinAlgError as exc:
        raise LinearSolveFailureError(str(exc)) from exc
    mean = cov @ (design.T @ y)
    return mean, noise_variance(series) * cov


def _enumerate(
    series: TimeSeries | BinnedSeries, hypers: Hyperparameters, max_sites: int
) -> tuple[np.ndarray, np.ndarray]:
    """All 2^M indicator vectors, one row each, and their normalized joint-model
    posterior weights. Raises EmptySetError when q in {0, 1} leaves a single
    configuration, InvalidConfigError when M exceeds max_sites or max_sites
    is not an integer >= 1."""
    m = series.length
    if m > checked_integer(max_sites, "max_sites", 1):
        raise InvalidConfigError(f"{m} sites would enumerate 2^{m} configurations")
    if not 0.0 < hypers.q < 1.0:
        raise EmptySetError("degenerate q leaves a single configuration")
    configs = np.array(list(product((0, 1), repeat=m)))
    log_posts = np.array([
        oracle_joint_marginal(series, z, hypers, max_size=series.values.size) for z in configs
    ])
    ones = configs.sum(axis=1)
    log_posts = log_posts + ones * math.log(hypers.q) + (m - ones) * math.log1p(-hypers.q)
    w = np.exp(log_posts - log_posts.max())
    w /= w.sum()
    return configs, w


def enumerate_inclusion_probabilities(
    series: TimeSeries | BinnedSeries, hypers: Hyperparameters, max_sites: int = 20
) -> np.ndarray:
    """Exact joint-model marginals P(Z_t = 1 | Y, sigma^2) for every site, by
    exhaustive enumeration of all 2^M indicator vectors."""
    try:
        configs, w = _enumerate(series, hypers, max_sites)
    except EmptySetError:  # degenerate priors fix every indicator
        return np.full(series.length, float(hypers.q))
    return w @ configs


def exact_z_posterior(
    series: TimeSeries | BinnedSeries, hypers: Hyperparameters, max_sites: int = 12
) -> dict[tuple[int, ...], float]:
    """Full posterior over indicator configurations (small M only)."""
    configs, w = _enumerate(series, hypers, max_sites)
    return dict(zip(map(tuple, configs.tolist()), w))
