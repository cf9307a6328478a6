from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from solocp import (
    BinnedSeries,
    GibbsConfig,
    GibbsState,
    Hyperparameters,
    InvalidConfigError,
    LinearSolveFailureError,
    NumericOverflowError,
    TimeSeries,
    detect,
    gibbs_inclusion_probabilities,
)
from solocp.gibbs import sample_deltaf_given_z, sample_z_given_deltaf
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


@pytest.mark.parametrize("unit_counts", [True, False], ids=["unit", "unequal"])
@pytest.mark.parametrize("m", [2, 8, 32, 33, 140])
def test_level_draw_matches_dense_cholesky(m, unit_counts):
    # Q f = sums + sigma L D^{1/2} eps must give the same draw as the dense
    # route Q^{-1} sums + sigma U^{-1} eps (U = upper Cholesky factor of Q)
    rng = np.random.default_rng(m)
    counts = np.ones(m, int) if unit_counts else rng.integers(1, 6, m)
    series = BinnedSeries(tuple(rng.normal(0, 1, n) for n in counts), 1.3)
    h = _hyp(0.05, 3.0)
    z = (rng.random(m) < 0.3).astype(int)
    weights = np.where(z == 1, 1.0 / h.tau1_sq, 1.0 / h.tau0_sq)
    diff = np.eye(m) - np.eye(m, k=-1)
    prec = np.diag(series.counts) + diff.T @ np.diag(weights) @ diff
    upper = np.linalg.cholesky(prec).T
    eps = np.random.default_rng(11).standard_normal(m)
    f = np.linalg.solve(prec, series.sums) + 1.3 * scipy.linalg.solve_triangular(upper, eps)
    state = GibbsState(delta_f=np.zeros(m), z=z)
    draw = sample_deltaf_given_z(state, series, h, np.random.default_rng(11))
    assert np.allclose(draw, diff @ f, rtol=1e-9, atol=1e-9)


def test_level_draw_rejects_nonpositive_precision():
    series = TimeSeries(np.zeros(6), 1.0)
    hypers = SimpleNamespace(tau0_sq=-0.1, tau1_sq=1.0)
    state = GibbsState(delta_f=np.zeros(6), z=np.zeros(6, int))
    with pytest.raises(LinearSolveFailureError):
        sample_deltaf_given_z(state, series, hypers, np.random.default_rng(0))


def test_chain_output_is_pinned():
    # counts of z_t = 1 over 800 kept sweeps, recorded from the banded and
    # dense Cholesky sampler this kernel replaced; the draws agree to
    # rounding, so the indicator chain must not move
    y = np.array([0.1, -0.3, 0.2, 1.9, 2.2, 1.6, 2.0, -0.4])
    h = _hyp(0.01, 4.0)
    p = gibbs_inclusion_probabilities(TimeSeries(y, 0.5), h, GibbsConfig(1000, 200, seed=17))
    assert np.array_equal(p, np.array([36, 91, 118, 800, 72, 107, 122, 787]) / 800)


@pytest.mark.parametrize(
    "step,sigma",
    [(5.0, 1e-160), (5.0, 1e-200), (1e200, 1.0)],
    ids=["small_sigma", "tiny_sigma", "huge_step"],
)
def test_basad_nonfinite_scores_raise(step, sigma):
    # once: NaN log-odds selected nothing, a ZeroDivisionError escaped, and
    # an overflowed delta_f^2 selected (2,)
    rng = np.random.default_rng(10)
    y = np.where(np.arange(1, 101) >= 50, step, 0.0) + rng.normal(0, 1, 100)
    with pytest.raises(NumericOverflowError):
        detect(
            TimeSeries(y, sigma),
            Hyperparameters.basad_defaults(100),
            method="basad",
            gibbs_config=GibbsConfig(200, 50, seed=0),
        )


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
