import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings, strategies as st

from solocp import (
    BinnedSeries,
    GibbsConfig,
    Hyperparameters,
    InvalidConfigError,
    LinearSolveFailureError,
    NumericOverflowError,
    TimeSeries,
    detect,
    gibbs_inclusion_probabilities,
)
from solocp import gibbs
from solocp._lapack import dpttrf, dpttrs
from solocp.gibbs import _Sweeps, _cuts, _log_odds_intercept, _run_chains
from solocp.oracle import (
    conditional_deltaf_moments,
    enumerate_inclusion_probabilities,
    exact_z_posterior,
)
from solocp.types import inclusion_probability, level_precision, prior_log_odds


def _hyp(tau0, tau1, q=0.2, tau=0.5):
    return Hyperparameters(tau0_sq=tau0, tau1_sq=tau1, tau_sq=tau, q=q, delta=1)


def _level_draws(series, hypers, z, noise):
    """The kernel's increments delta | z, one sweep per (C, M) row of noise.
    Cuts of -inf where z is 1 and +inf where it is 0 keep z as it is, so
    every sweep after the first reuses the first sweep's factor. Yields the
    kernel's one delta buffer, which the next sweep overwrites."""
    sweeps = _Sweeps(series, hypers, len(z), 1)
    sweeps.z[0] = z
    sweeps.cuts[:, 0] = np.where(z, -np.inf, np.inf)
    for eps in noise:
        sweeps.normals[:, 0] = eps
        sweeps.run(1)
        yield sweeps.delta


def _indicator_draw(series, hypers, z, uniforms):
    """One sweep of the kernel from indicators z with zero noise; returns
    the indicators it draws from the cuts the uniforms make."""
    sweeps = _Sweeps(series, hypers, len(z), 1)
    sweeps.z[0] = z
    sweeps.normals[:] = 0.0
    sweeps.cuts[:, 0] = _cuts(uniforms, _log_odds_intercept(hypers), np.empty_like(uniforms))
    sweeps.run(1)
    return sweeps.z[1]


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        GibbsConfig(iterations=0, burn_in=0, seed=1)
    with pytest.raises(InvalidConfigError):
        GibbsConfig(iterations=100, burn_in=100, seed=1)
    with pytest.raises(InvalidConfigError):
        GibbsConfig(iterations=100, burn_in=200, seed=1)
    GibbsConfig(iterations=100, burn_in=0, seed=1)
    # each field is an integer: fractions, bools and strings are rejected, not run
    for bad in ((10.5, 1, 0), (100, 10, 1.5), (100, 10.0, 1), (True, 0, 0), (100, False, 1),
                (100, 10, True), ("100", 10, 1), (100, "10", 1), (100, 10, "1"), (100, 10, -1)):
        with pytest.raises(InvalidConfigError):
            GibbsConfig(*bad)
    assert GibbsConfig(np.int64(100), np.int64(10), np.int64(1)) == GibbsConfig(100, 10, 1)
    assert GibbsConfig() == GibbsConfig(iterations=5000, burn_in=1000, seed=0)


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
    total = np.zeros(10)
    noise = np.random.default_rng(42).standard_normal((draws, 1, 10))
    for delta in _level_draws(ts, h, z[None], noise):
        total += delta[0]
    mc_mean = total / draws
    se = np.sqrt(np.diag(cov) / draws)
    assert np.all(np.abs(mc_mean - mean) <= 3.0 * se)


def test_spike_collapse():
    rng = np.random.default_rng(2)
    ts = TimeSeries(rng.normal(0, 1, 15), 1.0)
    h = Hyperparameters(tau0_sq=1e-10, tau1_sq=1.0, tau_sq=0.5, q=0.2, delta=1)
    noise = np.random.default_rng(0).standard_normal((20, 1, 15))
    for delta in _level_draws(ts, h, np.zeros((1, 15), bool), noise):
        assert np.max(np.abs(delta)) < 1e-3


def test_z_conditional_equal_variances_is_prior():
    h = _hyp(0.5, 0.5, q=0.3)
    series = TimeSeries(np.zeros(2000), 1.0)
    assert _Sweeps(series, h, 1, 1).slope == 0.0  # only the cut, that is u, decides
    start = np.zeros((1, 2000), dtype=bool)
    z = _indicator_draw(series, h, start, np.random.default_rng(3).random((1, 2000)))
    freq = z.mean()
    se = np.sqrt(0.3 * 0.7 / 2000)
    assert abs(freq - 0.3) <= 4 * se


def test_z_conditional_slab_tail_dominance():
    # from slab indicators, a step of 100 at every site gives increments
    # of about 100 sigma
    h = _hyp(0.01, 10.0, q=0.2)
    series = TimeSeries(100.0 * np.arange(1, 51), 1.0)
    start = np.ones((1, 50), dtype=bool)
    z = _indicator_draw(series, h, start, np.random.default_rng(4).random((1, 50)))
    assert np.all(z == 1)


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
    # Q f = sums / sigma + L D^{1/2} eps, in sigma units, must give the same
    # draw as the dense route Q^{-1} sums + sigma U^{-1} eps (U = upper
    # Cholesky factor of Q) divided by sigma
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
    (draw,) = _level_draws(series, h, z[None], [eps[None]])
    assert np.allclose(draw[0], diff @ f / 1.3, rtol=1e-9, atol=1e-9)


def _dense_chain(y, sigma, h, seed, iterations, burn_in):
    """The plain sampler, which factors afresh every sweep: the levels by
    dense Cholesky and each indicator as u < inclusion_probability(log-odds),
    on the kernel's two child streams. Returns the counts of z_t = 1 over the
    kept sweeps and the number of sweeps that drew the indicators they read."""
    m = len(y)
    normal, uniform = (np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(2))
    diff = np.eye(m) - np.eye(m, k=-1)
    z, counts, repeats = np.zeros(m, dtype=bool), np.zeros(m, dtype=int), 0
    for sweep in range(iterations):
        weights = np.where(z, 1.0 / h.tau1_sq, 1.0 / h.tau0_sq)
        prec = np.eye(m) + diff.T @ np.diag(weights) @ diff
        upper = np.linalg.cholesky(prec).T
        eps = normal.standard_normal(m)
        f = np.linalg.solve(prec, y) + sigma * scipy.linalg.solve_triangular(upper, eps)
        d = diff @ f
        slab, spike = (scipy.stats.norm.logpdf(d, scale=sigma * np.sqrt(t))
                       for t in (h.tau1_sq, h.tau0_sq))
        drawn = uniform.random(m) < inclusion_probability(prior_log_odds(h.q) + slab - spike)
        repeats += np.array_equal(drawn, z)
        z = drawn
        if sweep >= burn_in:
            counts += z
    return counts, repeats


_PINNED_Y = np.array([0.1, -0.3, 0.2, 1.9, 2.2, 1.6, 2.0, -0.4])


def test_chain_output_is_pinned():
    # counts of z_t = 1 over 800 kept sweeps, recorded from the plain
    # sampler. The kernel's draws agree with it to rounding, so its chain
    # must not move
    h, sigma = _hyp(0.01, 4.0), 0.5
    pinned = np.array([45, 101, 204, 723, 112, 69, 146, 591])
    counts, _ = _dense_chain(_PINNED_Y, sigma, h, 17, 1000, 200)
    assert np.array_equal(counts, pinned)
    cfg = GibbsConfig(1000, 200, seed=17)
    p = gibbs_inclusion_probabilities(TimeSeries(_PINNED_Y, sigma), h, cfg)
    assert np.array_equal(p, pinned / 800)


@pytest.mark.parametrize(
    "h,seed,repeats",
    [(_hyp(0.01, 4.0, q=0.01), 5, (950, 1000)), (_hyp(0.3, 0.5, q=0.5), 17, (0, 20))],
    ids=["rare_flips", "frequent_flips"],
)
def test_factor_reuse_is_exact(h, seed, repeats):
    # the kernel reuses its factor while z repeats; the plain sampler factors
    # every sweep. Equal counts in a chain where z rarely changes and in one
    # where it changes almost every sweep show the reuse changes nothing
    counts, same = _dense_chain(_PINNED_Y, 0.5, h, seed, 1000, 200)
    assert repeats[0] <= same <= repeats[1]
    assert 0 < counts.sum() < 800 * 8
    p = gibbs_inclusion_probabilities(TimeSeries(_PINNED_Y, 0.5), h, GibbsConfig(1000, 200, seed))
    assert np.array_equal(p, counts / 800)


_B = gibbs._BLOCK


def _indicator_rows(series, h, iterations, seeds):
    """Every sweep's indicators, shape (iterations, C, M), from one block
    holding all the sweeps, on the same streams as _run_chains."""
    sweeps = _Sweeps(series, h, len(seeds), iterations)
    for seed, normals, cuts in zip(seeds, sweeps.normals, sweeps.cuts):
        normal, uniform = (np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(2))
        normal.standard_normal(out=normals)
        uniform.random(out=cuts)
    with np.errstate(divide="ignore"):
        _cuts(sweeps.cuts, _log_odds_intercept(h), np.empty_like(sweeps.cuts))
    sweeps.run(iterations)
    return sweeps.z[1:].copy()


@pytest.mark.parametrize("iterations", [_B - 1, _B, _B + 1, 2 * _B + 3])
def test_output_does_not_depend_on_block_size(monkeypatch, iterations):
    # each stream is consumed in sweep order, so how many sweeps of draws
    # one Generator call makes leaves every row bitwise the same; the kept
    # sweeps are summed once per block, so burn-in may end on either side of
    # a block boundary, or at the last sweep
    rng = np.random.default_rng(13)
    series = TimeSeries(np.where(np.arange(12) >= 6, 1.5, 0.0) + rng.normal(0, 0.5, 12), 0.5)
    h, seeds = _hyp(0.01, 4.0), [3, 2**40]
    rows = _indicator_rows(series, h, iterations, seeds)
    for burn_in in sorted(b for b in {61, 0, _B - 1, _B, _B + 1, iterations - 1} if b < iterations):
        expected = rows[burn_in:].sum(axis=0) / (iterations - burn_in)
        for block in (1, 7, _B):
            monkeypatch.setattr(gibbs, "_BLOCK", block)
            assert np.array_equal(_run_chains(series, h, iterations, burn_in, seeds), expected)
    assert 0.0 < rows.mean() < 1.0


def test_nonfinite_score_in_last_partial_block_raises():
    # scores are checked once per block, over the sweeps it ran: one that
    # first turns non-finite in the last sweep of a short block still raises
    series = TimeSeries(np.random.default_rng(5).normal(0, 1, 12), 1.0)
    sweeps = _Sweeps(series, _hyp(0.01, 4.0), 2, 7)
    np.random.default_rng(6).standard_normal(out=sweeps.normals)
    sweeps.cuts[:] = 0.0
    sweeps.run(7)
    sweeps.run(2)
    sweeps.normals[1, 2, 5] = np.inf  # chain 1, sweep 2, site 6
    with pytest.raises(NumericOverflowError):
        sweeps.run(3)
    assert np.isfinite(sweeps.score[:2]).all()


@pytest.mark.parametrize("binned", [False, True], ids=["plain", "unequal"])
@pytest.mark.parametrize("m", [2, 8, 140])
def test_stacked_chains_equal_single_chains(m, binned):
    # the zero coupling between stacked blocks and the per-chain generators
    # leave every row bitwise equal to that chain run alone
    rng = np.random.default_rng(100 + m)
    level = np.where(np.arange(m) >= m // 2, 2.0, 0.0)
    if binned:
        counts = rng.integers(1, 6, m)
        series = BinnedSeries(np.repeat(level, counts) + rng.normal(0, 0.5, counts.sum()),
                              0.5, counts=counts)
    else:
        series = TimeSeries(level + rng.normal(0, 0.5, m), 0.5)
    h = _hyp(0.01, 4.0)
    seeds = [3, 17, 17, 2**40]
    rows = _run_chains(series, h, 300, 50, seeds)
    singles = [gibbs_inclusion_probabilities(series, h, GibbsConfig(300, 50, s)) for s in seeds]
    assert rows.shape == (4, m)
    assert np.array_equal(rows, np.vstack(singles))
    # one stacked level draw, on indicators that differ between chains
    z = rng.random((4, m)) < 0.3
    noise = np.vstack([np.random.default_rng(s).standard_normal(m) for s in seeds])
    (stacked,) = _level_draws(series, h, z, [noise])
    for k in range(len(seeds)):
        (single,) = _level_draws(series, h, z[k : k + 1], [noise[k : k + 1]])
        assert np.array_equal(stacked[k], single[0])


@pytest.mark.parametrize("q", [0.0, 1.0])
def test_stacked_chains_fixed_indicators(q):
    series = TimeSeries(np.random.default_rng(7).normal(0, 1, 12), 1.0)
    rows = _run_chains(series, _hyp(0.01, 4.0, q=q), 50, 10, [1, 2, 3])
    assert np.array_equal(rows, np.full((3, 12), q))


@pytest.mark.parametrize("seeds", [[0], [0, 1, 2]], ids=["1", "3"])
def test_chains_reject_nonpositive_precision(seeds):
    series = TimeSeries(np.zeros(6), 1.0)
    hypers = SimpleNamespace(tau0_sq=-0.1, tau1_sq=1.0)
    z = np.zeros((len(seeds), 6), dtype=bool)
    with pytest.raises(LinearSolveFailureError):
        next(_level_draws(series, hypers, z, [np.zeros((len(seeds), 6))]))


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


@pytest.mark.parametrize("sigma", [1e-320, 5e-324])
def test_overflowing_sums_raise_before_the_first_block(sigma):
    # sums / sigma overflowed with a RuntimeWarning, and only the first block's
    # scores raised
    y = np.where(np.arange(1, 41) >= 20, 5.0, 0.0)
    with pytest.raises(NumericOverflowError, match="sums / sigma"):
        _Sweeps(TimeSeries(y, sigma), Hyperparameters.basad_defaults(40), 1, 1)


def _jump_series(m=40):
    y = np.where(np.arange(1, m + 1) >= 21, 5.0, 0.0) + np.random.default_rng(0).normal(0, 1, m)
    return TimeSeries(y, 1.0)


@pytest.mark.parametrize("tau0_sq", [2e-13, 1e-16, 1e-310])
def test_spike_variance_below_the_pivot_range_raises_before_the_first_block(
    monkeypatch, tau0_sq
):
    # the level draw given slab sites 1 and 21 drifted from the dense mean
    # (a jump of 45.4 for 5.11 at 1e-16) before LAPACK failed at 1e-18
    monkeypatch.setattr(_Sweeps, "run", lambda self, n: pytest.fail("a block ran"))
    series, h = _jump_series(), Hyperparameters.basad_defaults(40, tau0_sq=tau0_sq)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflowError, match="too large for double precision"):
            gibbs_inclusion_probabilities(series, h, GibbsConfig(10, 1))
        with pytest.raises(NumericOverflowError, match="too large for double precision"):
            detect(series, h, method="basad", gibbs_config=GibbsConfig(10, 1))


def test_level_draw_at_the_smallest_accepted_spike_variance():
    # tau0_sq = 1e-12 is the accepted end of the range; without noise the
    # draw is the conditional mean
    series, h = _jump_series(), Hyperparameters.basad_defaults(40, tau0_sq=1e-12)
    z = np.zeros(40, dtype=bool)
    z[[0, 20]] = True
    mean, _ = conditional_deltaf_moments(series, z, h)
    (delta,) = _level_draws(series, h, z[None], [np.zeros((1, 40))])
    assert np.max(np.abs(delta[0] - mean)) <= 1e-5 * np.max(np.abs(mean))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(-1000, 1000), binned=st.booleans())
def test_scaling_data_and_sigma_by_power_of_two_is_bitwise_invariant(seed, k, binned):
    # the chain sees (y, sigma) only through sums / sigma, which a
    # power-of-two factor leaves bit for bit the same
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 30))
    counts = rng.integers(1, 4, m) if binned else np.ones(m, int)
    y = np.repeat(np.where(np.arange(m) >= m // 2, 2.0, 0.0), counts)
    y += rng.normal(0, 1, counts.sum())
    sigma = float(rng.uniform(0.3, 2.0))
    h, cfg = _hyp(0.01, 4.0), GibbsConfig(200, 50, seed=int(rng.integers(1000)))
    base, scaled = (BinnedSeries(y * 2.0**j, sigma * 2.0**j, counts=counts) for j in (0, k))
    p = gibbs_inclusion_probabilities(base, h, cfg)
    assert np.array_equal(gibbs_inclusion_probabilities(scaled, h, cfg), p)


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
    sweeps = _Sweeps(ts, h, 1, gibbs._BLOCK)
    normal, uniform = (np.random.default_rng(c) for c in np.random.SeedSequence(12).spawn(2))
    noise = normal.standard_normal((1, iters, 5))
    u = uniform.random((1, iters, 5))
    cuts = _cuts(u, _log_odds_intercept(h), np.empty_like(u))
    counts: dict[tuple, int] = {}
    for start in range(0, iters, gibbs._BLOCK):
        n = min(gibbs._BLOCK, iters - start)
        sweeps.normals[:, :n] = noise[:, start : start + n]
        sweeps.cuts[:, :n] = cuts[:, start : start + n]
        sweeps.run(n)
        for sweep, z in enumerate(sweeps.z[1 : n + 1], start):
            if sweep >= burn:
                key = tuple(z[0].tolist())  # bools: hash and compare equal to 0/1 keys
                counts[key] = counts.get(key, 0) + 1
    kept = iters - burn
    tv = 0.5 * sum(
        abs(counts.get(z, 0) / kept - p) for z, p in exact.items()
    )
    assert tv < 0.05


def _reference_sweep(series, hypers, z, eps, cut):
    """One sweep of one chain from indicators z, factored afresh: Q from
    level_precision, dpttrf, rhs = sums / sigma + L D^{1/2} eps, dpttrs, the
    differences of the levels and slope * delta^2 > cut. Returns (delta, z)."""
    table = np.array([1.0 / hypers.tau0_sq, 1.0 / hypers.tau1_sq])
    diag, off, _ = level_precision(series.counts, -table[z.astype(int)])
    d, e, info = dpttrf(diag, off)
    assert info == 0
    x = np.sqrt(d) * eps
    x[1:] += e * x[:-1]
    f, info = dpttrs(d, e, x + series.sums / series.noise_sd)
    assert info == 0
    delta = np.diff(f, prepend=0.0)
    return delta, delta * delta * (0.5 * (table[0] - table[1])) > cut


@pytest.mark.parametrize("binned", [False, True], ids=["plain", "unequal"])
@pytest.mark.parametrize("m", [2, 140])
@pytest.mark.parametrize("chains", [1, 3])
def test_kernel_matches_reference_sweep(chains, m, binned):
    # the kernel, fed the reference's normals and cuts, one sweep per run and
    # all sweeps in one block: every sweep's delta, scores and z bit for bit.
    # The cuts of every third sweep flip every indicator, so the next sweep
    # factors afresh, and those of the sweep after keep them, so the next
    # sweep reuses the kernel's factor
    rng = np.random.default_rng(10 * m + chains)
    level = np.where(np.arange(m) >= m // 2, 2.0, 0.0)
    counts = rng.integers(1, 6, m) if binned else np.ones(m, int)
    y = np.repeat(level, counts) + rng.normal(0, 0.5, counts.sum())
    series = BinnedSeries(y, 0.5, counts=counts)
    h, n = Hyperparameters.basad_defaults(m), 60
    noise = rng.standard_normal((n, chains, m))
    u = rng.random((n, chains, m))
    cuts = _cuts(u, _log_odds_intercept(h), np.empty_like(u))
    stepped, whole = _Sweeps(series, h, chains, 1), _Sweeps(series, h, chains, n)
    z, rows, scores, repeats = np.zeros((chains, m), dtype=bool), [], [], 0
    for b in range(n):
        if b % 3:
            cuts[b] = np.where(z, np.inf, -np.inf) if b % 3 == 1 else np.where(z, -np.inf, np.inf)
        deltas, z_next = map(np.array, zip(*(
            _reference_sweep(series, h, z[k], noise[b, k], cuts[b, k]) for k in range(chains)
        )))
        stepped.normals[:, 0], stepped.cuts[:, 0] = noise[b], cuts[b]
        stepped.run(1)
        assert stepped.delta.tobytes() == deltas.tobytes()
        assert np.array_equal(stepped.z[0], z_next)
        repeats += np.array_equal(z_next, z)
        z = z_next
        rows.append(z)
        scores.append(deltas * deltas * stepped.slope)
    assert 0 < repeats < n - 1
    whole.normals[:], whole.cuts[:] = noise.swapaxes(0, 1), cuts.swapaxes(0, 1)
    whole.run(n)
    assert np.array_equal(whole.z[0], z)
    assert np.array_equal(whole.z[1:], np.array(rows))
    assert whole.score.tobytes() == np.array(scores).tobytes()


@pytest.mark.parametrize("shape", [(1,), (9,), (1, 140), (3, 140)])
def test_level_precision_matches_the_weights_formula(shape):
    # Q's entries summed from the weights, diag = counts + w,
    # diag[..., :-1] += w[..., 1:] and off = -w[..., 1:], bit for bit
    rng = np.random.default_rng(len(shape) * 1000 + shape[-1])
    counts = rng.integers(1, 6, shape).astype(float)
    weights = 10.0 ** rng.uniform(-12, 12, shape)
    diag = counts + weights
    diag[..., :-1] += weights[..., 1:]
    neg = np.zeros(shape)
    got_diag, got_off, build = level_precision(counts, neg)
    assert got_off.base is neg  # a view, not a negated copy
    neg[...] = -weights
    build()  # the views bound in the first call see the new weights
    assert got_diag.tobytes() == diag.tobytes()
    assert got_off.tobytes() == (-weights[..., 1:]).tobytes()
    alone, off, _ = level_precision(counts, -weights)
    assert alone.tobytes() == diag.tobytes() and off.tobytes() == got_off.tobytes()


@pytest.mark.parametrize("counts, weight", [
    ((1.0, 1.0, 1.0), 1e308),  # 2w, a diagonal entry, overflows
    ((1.0, 1.0, 1.0), np.inf),
    ((1.0, 1.0, 1.0), 4.6e12),  # eps * w above 1e-3 of the smallest count
    ((5.0, 1.0, 5.0), 1e13),
    ((5.0, 5.0, 5.0), 2.3e13),
])
def test_level_precision_rejects_weights_beyond_the_pivot_range(counts, weight):
    # the weights formula test above takes weights up to 1e12 at counts >= 1
    neg = np.array([-1.0, -weight, -1.0])
    with pytest.raises(NumericOverflowError, match="too large for double precision"):
        level_precision(np.array(counts), neg)
    level_precision(np.full(3, 5.0), np.full(3, -2.2e13))  # eps * w below 1e-3 of 5
