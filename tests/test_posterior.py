import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solocp import (
    BinnedSeries,
    Hyperparameters,
    NumericOverflowError,
    TimeSeries,
    all_inclusion_probabilities,
    detect,
    oracle_site_posterior,
)
from solocp.posterior import all_site_posteriors, forward_pass, inclusion_scores
from solocp.types import inclusion_probability


def _hyp(tau0, tau1, tau, q=0.1):
    return Hyperparameters(tau0_sq=tau0, tau1_sq=tau1, tau_sq=tau, q=q, delta=1)


def _random_binned(rng, max_count=5, max_groups=10):
    m = int(rng.integers(3, max_groups + 1))
    counts = rng.integers(1, max_count + 1, size=m)
    bins = tuple(rng.normal(rng.normal(0, 2), 1.0, size=c) for c in counts)
    return BinnedSeries(bins, float(rng.uniform(0.3, 2.0)))


def test_forward_initialization_single_count():
    # the tail at the last site is the observation itself
    ts = TimeSeries(np.array([0.3, -0.1, 0.7]), 1.0)
    fwd = forward_pass(ts, _hyp(0.1, 1.0, 1.0))
    assert fwd.tail_weight[-1] == 1.0
    assert fwd.tail_data[-1] == pytest.approx(0.7)
    # one count at tau^2 = 1 leaves f_1 with variance 1/2 and mean y_1/2,
    # which the forward filter hands to site 2
    w, d = fwd.tail_weight[1], fwd.tail_data[1]
    assert fwd.info[1] == pytest.approx(w / (1.0 + 0.5 * w))
    assert fwd.data[1] == pytest.approx((d - 0.15 * w) / (1.0 + 0.5 * w))


def test_forward_shrinkage_limit():
    # tau^2 -> 0 pins every level to f_0 = 0: nothing is shrunk away and the
    # site scalars reduce to the remaining counts and sums
    y = np.arange(8, dtype=float)
    fwd = forward_pass(TimeSeries(y, 1.0), _hyp(1e-13, 1e-12, 1e-12))
    assert np.allclose(fwd.info, np.arange(8, 0, -1), rtol=1e-9)
    assert np.allclose(fwd.data, np.cumsum(y[::-1])[::-1], rtol=1e-9)


def test_forward_cache_is_site_independent():
    rng = np.random.default_rng(0)
    ts = TimeSeries(rng.normal(0, 1, 12), 1.0)
    h = _hyp(0.05, 20.0, 0.4)
    first = forward_pass(ts, h)
    again = forward_pass(ts, h)
    for name in ("tail_weight", "tail_data", "info", "data"):
        assert np.array_equal(getattr(first, name), getattr(again, name))


def test_site_one_scalars_are_tail_sums():
    # f_0 = 0 is known, so site 1 sees exactly the backward filter's output
    rng = np.random.default_rng(1)
    ts = TimeSeries(rng.normal(0, 1, 9), 1.0)
    fwd = forward_pass(ts, _hyp(0.05, 20.0, 0.4))
    assert fwd.data[0] == fwd.tail_data[0]
    assert fwd.info[0] == fwd.tail_weight[0]


def test_zero_data_gives_zero_site_data():
    fwd = forward_pass(TimeSeries(np.zeros(7), 1.0), _hyp(0.05, 20.0, 0.4))
    assert np.all(fwd.data == 0.0)


def test_equal_spike_slab_gives_prior_probability():
    rng = np.random.default_rng(2)
    ts = TimeSeries(rng.normal(0, 1, 10), 1.0)
    h = Hyperparameters(tau0_sq=0.7, tau1_sq=0.7, tau_sq=0.3, q=0.37, delta=1)
    for s in all_site_posteriors(ts, h):
        assert s.log_omega[0] == s.log_omega[1]
        assert s.inclusion_prob == 0.37


@pytest.mark.parametrize("q,expected", [(0.0, 0.0), (1.0, 1.0)])
def test_degenerate_prior_probability(q, expected):
    rng = np.random.default_rng(3)
    ts = TimeSeries(rng.normal(0, 3, 8), 1.0)
    h = Hyperparameters(tau0_sq=0.01, tau1_sq=10.0, tau_sq=0.3, q=q, delta=1)
    assert np.all(all_inclusion_probabilities(ts, h) == expected)


def test_probability_monotone_in_q():
    rng = np.random.default_rng(4)
    ts = TimeSeries(rng.normal(0, 1, 16), 1.0)
    prev = np.zeros(15)
    for q in (0.01, 0.1, 0.3, 0.6, 0.9, 0.99):
        h = Hyperparameters(tau0_sq=0.01, tau1_sq=10.0, tau_sq=0.3, q=q, delta=1)
        p = all_inclusion_probabilities(ts, h)
        assert np.all(p >= prev - 1e-15)
        prev = p


def test_probabilities_are_one_function_of_log_odds():
    rng = np.random.default_rng(21)
    for series in (TimeSeries(rng.normal(0, 1, 300), 0.7), _random_binned(rng, max_groups=60)):
        for q in (0.0, 0.1, 0.5, 1.0):
            h = _hyp(0.01, 10.0, 0.5, q=q)
            probs, log_odds = inclusion_scores(series, h)
            assert np.array_equal(probs, inclusion_probability(log_odds))
            summaries = all_site_posteriors(series, h)
            assert np.array_equal([s.inclusion_prob for s in summaries[1:]], probs)


def _assert_matches_oracle(series, h, rtol=1e-8):
    for s in all_site_posteriors(series, h):
        o = oracle_site_posterior(series, s.site, h)
        assert np.allclose(s.mu, o.mu, rtol=rtol, atol=1e-12)
        assert np.allclose(s.xi, o.xi, rtol=rtol, atol=1e-14)
        if min(s.inclusion_prob, o.inclusion_prob) > 1e-12 and max(
            s.inclusion_prob, o.inclusion_prob
        ) < 1.0 - 1e-12:
            assert s.inclusion_prob == pytest.approx(o.inclusion_prob, rel=rtol)
        else:
            # saturated regime: compare on the log-odds scale
            lo_s = np.log(h.q) - np.log1p(-h.q) + s.log_omega[1] - s.log_omega[0]
            lo_o = (
                np.log(h.q)
                - np.log1p(-h.q)
                + o.log_marginal[1]
                - o.log_marginal[0]
            )
            assert abs(lo_s - lo_o) <= rtol * max(1.0, abs(lo_o))


def test_oracle_equivalence_unbinned():
    rng = np.random.default_rng(5)
    for _ in range(12):
        t = int(rng.integers(4, 14))
        ts = TimeSeries(rng.normal(rng.normal(0, 2), 1.0, t), float(rng.uniform(0.3, 2)))
        t0, t1 = np.sort(10.0 ** rng.uniform(-3, 3, 2))
        h = _hyp(float(t0), float(t1), float(10.0 ** rng.uniform(-3, 3)), q=float(rng.uniform(0.05, 0.95)))
        _assert_matches_oracle(ts, h)


def test_oracle_equivalence_binned():
    rng = np.random.default_rng(6)
    for _ in range(12):
        bs = _random_binned(rng)
        t0, t1 = np.sort(10.0 ** rng.uniform(-3, 3, 2))
        h = _hyp(float(t0), float(t1), float(10.0 ** rng.uniform(-3, 3)), q=float(rng.uniform(0.05, 0.95)))
        _assert_matches_oracle(bs, h)


def test_unit_count_binned_path_matches_plain_path_exactly():
    rng = np.random.default_rng(7)
    y = rng.normal(0, 2, 25)
    ts = TimeSeries(y, 0.8)
    bs = ts.to_binned()
    h = _hyp(0.02, 50.0, 0.08)
    f1 = forward_pass(ts, h)
    f2 = forward_pass(bs, h)
    for name in ("tail_weight", "tail_data", "info", "data"):
        assert np.array_equal(getattr(f1, name), getattr(f2, name))
    p1, lo1 = inclusion_scores(ts, h)
    p2, lo2 = inclusion_scores(bs, h)
    assert np.array_equal(p1, p2)
    assert np.array_equal(lo1, lo2)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-30, 30),
    binned=st.booleans(),
)
def test_scaling_data_and_sigma_by_power_of_two_is_bitwise_invariant(seed, k, binned):
    # scores depend on (y, sigma) only through y/sigma; a power-of-two factor
    # is exact in binary floating point, so the invariance holds bit for bit
    rng = np.random.default_rng(seed)
    h = _hyp(0.02, 50.0, float(10.0 ** rng.uniform(-3, 3)), q=0.2)
    if binned:
        base = _random_binned(rng, max_groups=30)
        scaled = BinnedSeries(tuple(b * 2.0**k for b in base.bins), base.noise_sd * 2.0**k)
    else:
        y = rng.normal(rng.normal(0, 2), 1.0, int(rng.integers(3, 60)))
        base = TimeSeries(y, float(rng.uniform(0.3, 2.0)))
        scaled = TimeSeries(base.values * 2.0**k, base.noise_sd * 2.0**k)
    p1, lo1 = inclusion_scores(base, h)
    p2, lo2 = inclusion_scores(scaled, h)
    assert np.array_equal(p1, p2)
    assert np.array_equal(lo1, lo2)


def test_constant_series_stays_below_threshold():
    # level within the reach of the baseline prior; confirmed via the oracle
    ts = TimeSeries(np.full(30, 1.0), 1.0)
    h = Hyperparameters.solo_defaults(30)
    probs = all_inclusion_probabilities(ts, h)
    assert probs.max() < 0.5
    for j in (2, 15, 30):
        assert oracle_site_posterior(ts, j, h).inclusion_prob < 0.5


def test_large_jump_argmax_at_true_site():
    # kappa = 10 sigma saturates p to 1.0 near the jump; the argmax lives on
    # the log-odds scale and lands on the true site (oracle agrees there)
    rng = np.random.default_rng(0)
    f = np.where(np.arange(1, 101) >= 50, 10.0, 0.0)
    ts = TimeSeries(f + rng.normal(0, 1, 100), 1.0)
    h = Hyperparameters.solo_defaults(100)
    probs, log_odds = inclusion_scores(ts, h)
    sites = np.arange(2, 101)
    assert sites[np.argmax(log_odds)] == 50
    assert probs[sites.tolist().index(50)] == 1.0
    o49 = oracle_site_posterior(ts, 49, h)
    o50 = oracle_site_posterior(ts, 50, h)
    o51 = oracle_site_posterior(ts, 51, h)
    for o in (o49, o51):
        assert (o50.log_marginal[1] - o50.log_marginal[0]) > (
            o.log_marginal[1] - o.log_marginal[0]
        )


def test_shift_sensitivity_decays_with_shared_shrinkage():
    # the baseline increment carries a proper prior, so a level shift is NOT
    # neutral at benchmark settings; it becomes neutral as tau_sq grows
    rng = np.random.default_rng(9)
    y = rng.normal(0, 0.25, 60)
    diffs = []
    for tau in (2.0 / 60, 1e3, 1e6):
        h = _hyp(1.0 / 60, 60.0, tau)
        p0 = all_inclusion_probabilities(TimeSeries(y, 0.25), h)
        p5 = all_inclusion_probabilities(TimeSeries(y + 5.0, 0.25), h)
        diffs.append(np.max(np.abs(p5 - p0)))
    assert diffs[0] > 1e-3  # benchmark regime genuinely shifts
    assert diffs[1] < 1e-2
    assert diffs[2] < 1e-4
    assert diffs[2] < diffs[1] < diffs[0]


@pytest.mark.parametrize(
    "step,sigma", [(1e200, 1.0), (0.0, 1e-200)], ids=["huge_step", "tiny_sigma"]
)
def test_nonfinite_scores_raise(step, sigma):
    # both once gave all-NaN probabilities and silently selected nothing
    rng = np.random.default_rng(10)
    y = np.where(np.arange(1, 101) >= 50, step, 0.0) + rng.normal(0, 1, 100)
    ts = TimeSeries(y, sigma)
    with pytest.raises(NumericOverflowError):
        detect(ts, Hyperparameters.solo_defaults(100))
