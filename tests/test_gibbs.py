import numpy as np
import pytest

from solocp import (
    GibbsConfig,
    GibbsState,
    Hyperparameters,
    InvalidConfigError,
    TimeSeries,
    gibbs_inclusion_probabilities,
)
from solocp.gibbs import _LevelSampler, sample_deltaf_given_z, sample_z_given_deltaf
from solocp.oracle import (
    conditional_deltaf_moments,
    enumerate_inclusion_probabilities,
    exact_z_posterior,
)


def _hyp(tau0, tau1, q=0.2, tau=0.5):
    return Hyperparameters(tau0_sq=tau0, tau1_sq=tau1, tau_sq=tau, q=q, delta=1)


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        GibbsConfig(iterations=0, burn_in=0, seed=1)
    with pytest.raises(InvalidConfigError):
        GibbsConfig(iterations=100, burn_in=100, seed=1)
    with pytest.raises(InvalidConfigError):
        GibbsConfig(iterations=100, burn_in=200, seed=1)
    GibbsConfig(iterations=100, burn_in=0, seed=1)


def test_likelihood_dominance_interpolates():
    # prior variances are sigma^2-scaled, so the conditional mean
    # (X'X + D^-1)^-1 X'Y is sigma-free; likelihood dominance is the
    # wide-slab limit, where the fitted levels reproduce the data
    rng = np.random.default_rng(0)
    y = rng.normal(0, 1, 12)
    h = _hyp(0.5, 1e10)
    mean_small, _ = conditional_deltaf_moments(TimeSeries(y, 1e-5), np.ones(12, int), h)
    mean_unit, _ = conditional_deltaf_moments(TimeSeries(y, 1.0), np.ones(12, int), h)
    assert np.allclose(mean_small, mean_unit, rtol=1e-12)
    assert np.allclose(np.cumsum(mean_unit), y, atol=1e-6)


def test_conditional_draw_matches_analytic_mean():
    rng = np.random.default_rng(1)
    y = np.concatenate([rng.normal(0, 1, 5), rng.normal(3, 1, 5)])
    ts = TimeSeries(y, 1.0)
    h = _hyp(0.01, 4.0)
    z = np.array([0, 0, 0, 0, 0, 1, 0, 0, 0, 0])
    mean, cov = conditional_deltaf_moments(ts, z, h)
    draws = 100_000
    state = GibbsState(delta_f=np.zeros(10), z=z)
    rng_chain = np.random.default_rng(42)
    total = np.zeros(10)
    for _ in range(draws):
        total += sample_deltaf_given_z(state, ts, h, rng_chain)
    mc_mean = total / draws
    se = np.sqrt(np.diag(cov) / draws)
    assert np.all(np.abs(mc_mean - mean) <= 3.0 * se)


def test_spike_collapse():
    rng = np.random.default_rng(2)
    ts = TimeSeries(rng.normal(0, 1, 15), 1.0)
    h = Hyperparameters(tau0_sq=1e-10, tau1_sq=1.0, tau_sq=0.5, q=0.2, delta=1)
    state = GibbsState(delta_f=np.zeros(15), z=np.zeros(15, int))
    rng_chain = np.random.default_rng(0)
    for _ in range(20):
        df = sample_deltaf_given_z(state, ts, h, rng_chain)
        assert np.max(np.abs(df)) < 1e-3


def test_z_conditional_equal_variances_is_prior():
    h = _hyp(0.5, 0.5, q=0.3)
    state = GibbsState(delta_f=np.zeros(2000), z=np.zeros(2000, int))
    rng = np.random.default_rng(3)
    z = sample_z_given_deltaf(state, h, rng, sigma=1.0)
    freq = z.mean()
    se = np.sqrt(0.3 * 0.7 / 2000)
    assert abs(freq - 0.3) <= 4 * se


def test_z_conditional_slab_tail_dominance():
    h = _hyp(0.01, 10.0, q=0.2)
    state = GibbsState(delta_f=np.full(50, 100.0), z=np.zeros(50, int))
    z = sample_z_given_deltaf(state, h, np.random.default_rng(4), sigma=1.0)
    assert np.all(z == 1)


def test_z_conditional_q_zero():
    h = _hyp(0.01, 10.0, q=0.0)
    state = GibbsState(delta_f=np.full(50, 100.0), z=np.ones(50, int))
    z = sample_z_given_deltaf(state, h, np.random.default_rng(5), sigma=1.0)
    assert np.all(z == 0)


def test_reproducibility():
    rng = np.random.default_rng(6)
    ts = TimeSeries(rng.normal(0, 1, 20), 1.0)
    h = _hyp(0.01, 4.0)
    cfg = GibbsConfig(iterations=500, burn_in=100, seed=9)
    p1 = gibbs_inclusion_probabilities(ts, h, cfg)
    p2 = gibbs_inclusion_probabilities(ts, h, cfg)
    assert np.array_equal(p1, p2)
    p3 = gibbs_inclusion_probabilities(ts, h, GibbsConfig(500, 100, 10))
    assert not np.array_equal(p1, p3)


def test_dense_and_banded_paths_agree():
    rng = np.random.default_rng(7)
    counts = np.ones(10)
    sums = rng.normal(0, 1, 10)
    weights = rng.uniform(0.5, 5.0, 10)
    dense = _LevelSampler(counts, sums, 1.3)
    banded = _LevelSampler(counts, sums, 1.3)
    banded.dense = False
    f1 = dense.draw(weights, np.random.default_rng(11))
    f2 = banded.draw(weights, np.random.default_rng(11))
    assert np.allclose(f1, f2, rtol=1e-9, atol=1e-9)


def test_marginals_match_enumeration_smoke():
    rng = np.random.default_rng(8)
    y = np.array([0.0, 0.2, -0.1, 2.2, 2.0])
    ts = TimeSeries(y + rng.normal(0, 0.05, 5), 0.5)
    h = _hyp(0.01, 5.0, q=0.2)
    exact = enumerate_inclusion_probabilities(ts, h)
    est = gibbs_inclusion_probabilities(ts, h, GibbsConfig(40_000, 1000, 3))
    assert np.max(np.abs(exact - est)) < 0.02


def test_chain_visits_configurations_at_posterior_rates():
    # total-variation distance between the empirical distribution over z
    # configurations and the enumerated posterior, T=5
    rng = np.random.default_rng(9)
    y = np.array([0.1, -0.2, 1.8, 2.1, 1.7]) + rng.normal(0, 0.1, 5)
    ts = TimeSeries(y, 0.6)
    h = _hyp(0.02, 3.0, q=0.25)
    exact = exact_z_posterior(ts, h)
    iters, burn = 100_000, 1000
    state = GibbsState(delta_f=np.zeros(5), z=np.zeros(5, int))
    rng_chain = np.random.default_rng(12)
    counts: dict[tuple, int] = {}
    for sweep in range(iters):
        state.delta_f = sample_deltaf_given_z(state, ts, h, rng_chain)
        state.z = sample_z_given_deltaf(state, h, rng_chain, sigma=ts.noise_sd)
        if sweep >= burn:
            key = tuple(int(b) for b in state.z)
            counts[key] = counts.get(key, 0) + 1
    kept = iters - burn
    tv = 0.5 * sum(
        abs(counts.get(z, 0) / kept - p) for z, p in exact.items()
    )
    assert tv < 0.05
