import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import multivariate_normal

from solocp import (
    BinnedSeries, GibbsConfig, Hyperparameters, TimeSeries, gibbs_inclusion_probabilities,
    oracle, oracle_joint_marginal, oracle_site_posterior,
)
from solocp.errors import (
    EmptySetError, InvalidConfigError, NumericOverflowError, SingularCovarianceError,
)
from solocp.oracle import enumerate_inclusion_probabilities, exact_z_posterior


def _hyp(tau0, tau1, tau=0.5, q=0.2):
    return Hyperparameters(tau0_sq=tau0, tau1_sq=tau1, tau_sq=tau, q=q, delta=1)


def test_zero_data_zero_posterior_mean():
    ts = TimeSeries(np.zeros(2), 1.0)
    r = oracle_site_posterior(ts, 2, _hyp(0.1, 5.0))
    assert r.mu == (0.0, 0.0)
    assert r.xi[0] > 0 and r.xi[1] > 0


def test_equal_variances_give_prior_inclusion():
    rng = np.random.default_rng(0)
    ts = TimeSeries(rng.normal(0, 1, 6), 1.0)
    r = oracle_site_posterior(ts, 3, _hyp(0.4, 0.4, q=0.2))
    assert r.log_marginal[0] == pytest.approx(r.log_marginal[1], rel=1e-14)
    assert r.inclusion_prob == pytest.approx(0.2, rel=1e-12)


def test_joint_marginal_equal_variances_indifferent_to_z():
    rng = np.random.default_rng(1)
    ts = TimeSeries(rng.normal(0, 1, 5), 1.0)
    h = _hyp(0.4, 0.4)
    zeros = oracle_joint_marginal(ts, np.zeros(5, int), h)
    ones = oracle_joint_marginal(ts, np.ones(5, int), h)
    assert zeros == pytest.approx(ones, rel=1e-13)


def test_joint_marginal_matches_direct_density():
    # independent evaluation: assemble the same covariance and hand it to a
    # separately implemented multivariate normal density
    y = np.array([0.4, -1.1, 0.6])
    ts = TimeSeries(y, 0.9)
    h = _hyp(0.05, 3.0, tau=0.7)
    z = np.array([0, 1, 0])
    x = np.tril(np.ones((3, 3)))
    d = np.diag([0.05, 3.0, 0.05])
    cov = 0.9**2 * (np.eye(3) + x @ d @ x.T)
    expected = multivariate_normal(mean=np.zeros(3), cov=cov).logpdf(y)
    assert oracle_joint_marginal(ts, z, h) == pytest.approx(expected, rel=1e-12)


def test_joint_scale_equivariance_of_z_posterior():
    rng = np.random.default_rng(2)
    y = rng.normal(0, 1, 5)
    h = _hyp(0.02, 4.0, q=0.3)
    base = enumerate_inclusion_probabilities(TimeSeries(y, 1.0), h)
    scaled = enumerate_inclusion_probabilities(TimeSeries(3.0 * y, 3.0), h)
    assert np.allclose(base, scaled, rtol=1e-10)


def test_enumeration_normalizes_and_marginals_agree():
    rng = np.random.default_rng(3)
    ts = TimeSeries(rng.normal(0, 1, 5), 1.0)
    h = _hyp(0.02, 4.0, q=0.3)
    post = exact_z_posterior(ts, h)
    total = sum(post.values())
    assert total == pytest.approx(1.0, abs=1e-12)
    marg = enumerate_inclusion_probabilities(ts, h)
    for j in range(5):
        direct = sum(p for z, p in post.items() if z[j] == 1)
        assert marg[j] == pytest.approx(direct, abs=1e-12)
    assert np.all((marg >= 0) & (marg <= 1))


@pytest.mark.parametrize("q", [0.0, 1.0])
def test_degenerate_q_fixes_every_indicator(q):
    # a q of 0 or 1 leaves one configuration: the marginals are q itself,
    # as the sampler finds, and there is no posterior over configurations
    ts = TimeSeries(np.random.default_rng(5).normal(0, 1, 6), 1.0)
    h = _hyp(0.02, 4.0, q=q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        marg = enumerate_inclusion_probabilities(ts, h)
        np.testing.assert_array_equal(marg, np.full(6, q))
        gibbs = gibbs_inclusion_probabilities(ts, h, GibbsConfig(50, 10))
        np.testing.assert_array_equal(marg, gibbs)
        with pytest.raises(EmptySetError):
            exact_z_posterior(ts, h)


def test_size_caps():
    rng = np.random.default_rng(4)
    ts = TimeSeries(rng.normal(0, 1, 30), 1.0)
    with pytest.raises(InvalidConfigError):
        oracle_site_posterior(ts, 2, _hyp(0.1, 5.0), max_size=20)
    with pytest.raises(InvalidConfigError):
        oracle_joint_marginal(ts, np.zeros(30, int), _hyp(0.1, 5.0))
    with pytest.raises(InvalidConfigError):
        enumerate_inclusion_probabilities(ts, _hyp(0.1, 5.0))


@pytest.mark.parametrize("j", [0, 7])
def test_site_out_of_range_is_config_error(j):
    with pytest.raises(InvalidConfigError):
        oracle_site_posterior(TimeSeries(np.zeros(6), 1.0), j, _hyp(0.1, 5.0))


@pytest.mark.parametrize("z", [np.zeros(4, int), np.zeros(8, int), np.zeros((6, 1), int)])
def test_indicators_of_wrong_shape_are_config_errors(z):
    # a z of the wrong length used to reach conditional_deltaf_moments' dense
    # solve and fail there as a numpy broadcast error
    ts = TimeSeries(np.arange(6.0), 1.0)
    with pytest.raises(InvalidConfigError):
        oracle_joint_marginal(ts, z, _hyp(0.1, 5.0))
    with pytest.raises(InvalidConfigError):
        oracle.conditional_deltaf_moments(ts, z, _hyp(0.1, 5.0))


def _scipy_logpdf(y, cov):
    """log N(y; 0, cov), the factor and cov^-1 y as scipy.linalg's
    cho_factor(cov, lower=True) and cho_solve compute them: the reference for
    the oracle's own dpotrf/dpotrs calls."""
    chol = scipy.linalg.cho_factor(cov, lower=True)
    alpha = scipy.linalg.cho_solve(chol, y)
    logdet = 2.0 * np.sum(np.log(np.diag(chol[0])))
    return -0.5 * (y.size * math.log(2.0 * math.pi) + logdet + float(y @ alpha)), chol, alpha


def _random_series(rng, binned):
    """A plain series of 4-30 points or a binned one of 3-12 groups, each with
    a jump and a random scale."""
    scale, sd = 10.0 ** rng.uniform(-2, 2, size=2)
    if binned:
        counts = rng.integers(1, 4, size=rng.integers(3, 13))
        y = rng.normal(0, 1, counts.sum())
        y[counts.sum() // 2:] += 3.0
        return BinnedSeries(scale * y, sd, counts=counts)
    y = rng.normal(0, 1, rng.integers(4, 31))
    y[y.size // 2:] += 3.0
    return TimeSeries(scale * y, sd)


def _oracle_outputs(series, rng):
    """repr of every site posterior, joint marginals of three random z and,
    for short series, the enumerated marginals: repr keeps every bit."""
    h = Hyperparameters.solo_defaults(series.length)
    out = [oracle_site_posterior(series, j, h) for j in range(1, series.length + 1)]
    if series.values.size <= 20:
        out += [oracle_joint_marginal(series, rng.integers(0, 2, series.length), h)
                for _ in range(3)]
    if series.length <= 8 and series.values.size <= 20:
        out.append(enumerate_inclusion_probabilities(series, h).tolist())
    return repr(out)


@pytest.mark.parametrize("binned", [False, True], ids=["plain", "binned"])
def test_dense_factor_equals_scipy_cho_factor_bit_for_bit(monkeypatch, binned):
    rng = np.random.default_rng(11 + binned)
    series = [_random_series(rng, binned) for _ in range(20)]
    seeds = rng.integers(0, 2**32, size=len(series))
    got = [_oracle_outputs(s, np.random.default_rng(k)) for s, k in zip(series, seeds)]
    monkeypatch.setattr(oracle, "_gaussian_logpdf_zero_mean", _scipy_logpdf)
    # the site posterior's own solve, given _scipy_logpdf's (factor, lower) pair
    monkeypatch.setattr(oracle, "dpotrs", lambda chol, b, lower: (scipy.linalg.cho_solve(chol, b), 0))
    want = [_oracle_outputs(s, np.random.default_rng(k)) for s, k in zip(series, seeds)]
    assert got == want


def _oracle_calls(series):
    h = Hyperparameters.solo_defaults(series.length)
    return [
        lambda: oracle_site_posterior(series, 4, h),
        lambda: oracle_joint_marginal(series, np.zeros(series.length, int), h),
        lambda: enumerate_inclusion_probabilities(series, h),
    ]


# noise_sd^2 overflows; the covariance overflows; the quadratic form
# overflows; cov^-1 y overflows inside LAPACK
@pytest.mark.parametrize("scale, sd", [(1.0, 1e200), (1.0, 1.3e154), (1e300, 1.0), (1.0, 1e-160)],
                         ids=["sd_squared", "covariance", "data", "solve"])
def test_extreme_scales_raise_numeric_overflow(scale, sd):
    y = np.random.default_rng(5).normal(0, 1, 8) + np.repeat([0.0, 3.0], 4)
    for call in _oracle_calls(TimeSeries(scale * y, sd)):
        with pytest.raises(NumericOverflowError):
            call()


@pytest.mark.parametrize("scale", [1e70, 1e80])
def test_overflowing_posterior_variance_raises(scale):
    # at 1e80, (noise_sd^2 * tau1_sq)^2 overflows: xi came back as (-inf, -inf)
    # while the log marginals stayed finite
    y = np.where(np.arange(1, 13) >= 7, 3.0, 0.0) + np.random.default_rng(7).normal(0, 1, 12)
    series = TimeSeries(scale * y, scale)
    h = Hyperparameters.solo_defaults(12)
    if scale < 1e75:
        r = oracle_site_posterior(series, 6, h)
        assert all(map(math.isfinite, r.mu + r.xi)) and min(r.xi) > 0
    else:
        with pytest.raises(NumericOverflowError):
            oracle_site_posterior(series, 6, h)


def test_vanishing_noise_sd_is_a_singular_covariance():
    y = np.random.default_rng(6).normal(0, 1, 8)
    for call in _oracle_calls(TimeSeries(y, 1e-200)):  # noise_sd^2 underflows to 0
        with pytest.raises(SingularCovarianceError):
            call()
