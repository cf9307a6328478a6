import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solocp import (
    BinnedSeries,
    Hyperparameters,
    InvalidConfigError,
    NumericOverflowError,
    TimeSeries,
    detect,
    oracle_joint_marginal,
    oracle_site_posterior,
)
from solocp.posterior import (
    _site_mixture,
    all_site_posteriors,
    forward_pass,
    inclusion_scores,
    posterior_mean_surface,
)
from solocp.types import inclusion_probability, level_precision, prior_log_odds


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
    info, data = forward_pass(ts, _hyp(0.1, 1.0, 1.0))
    tail_w, tail_d, _, _ = _filter_recurrences([1.0] * 3, [0.3, -0.1, 0.7], 1.0)
    assert tail_w[-1] == 1.0
    assert tail_d[-1] == pytest.approx(0.7)
    # one count at tau^2 = 1 leaves f_1 with variance 1/2 and mean y_1/2,
    # which the forward filter hands to site 2
    w, d = tail_w[1], tail_d[1]
    assert info[1] == pytest.approx(w / (1.0 + 0.5 * w))
    assert data[1] == pytest.approx((d - 0.15 * w) / (1.0 + 0.5 * w))


def test_forward_shrinkage_limit():
    # tau^2 -> 0 pins every level to f_0 = 0: nothing is shrunk away and the
    # site scalars reduce to the remaining counts and sums
    y = np.arange(8, dtype=float)
    info, data = forward_pass(TimeSeries(y, 1.0), _hyp(1e-13, 1e-12, 1e-12))
    assert np.allclose(info, np.arange(8, 0, -1), rtol=1e-9)
    assert np.allclose(data, np.cumsum(y[::-1])[::-1], rtol=1e-9)


def _filter_recurrences(counts, sums, tau_sq):
    """The scalar two-filter smoother (Fraser & Potter 1969), one site at a
    time: the tail weights w_j and data d_j, then the site scalars A_j and B_j."""
    m = len(counts)
    tail_w, tail_d = np.empty(m), np.empty(m)
    w_carry = d_carry = 0.0
    for i in range(m - 1, -1, -1):
        tail_w[i] = w = counts[i] + w_carry
        tail_d[i] = d = sums[i] + d_carry
        den = tau_sq * w + 1.0
        w_carry, d_carry = w / den, d / den
    lead_mean, lead_var = np.empty(m), np.empty(m)
    mean = var = 0.0
    for i in range(m):
        lead_mean[i], lead_var[i] = mean, var
        prior_var = var + tau_sq
        den = 1.0 + counts[i] * prior_var
        mean, var = (mean + prior_var * sums[i]) / den, prior_var / den
    den = 1.0 + lead_var * tail_w
    return tail_w, tail_d, tail_w / den, (tail_d - lead_mean * tail_w) / den


def _recurrence_case(rng):
    """A plain or unequal-count binned series of up to 3000 sites: a level
    offset up to 1e3, a few jumps and unit noise; tau^2 in [1e-6, 1e3]."""
    m = int(rng.integers(2, 3001))
    levels = rng.uniform(-1e3, 1e3) + np.cumsum(rng.normal(0, 5, m) * (rng.random(m) < 0.01))
    if rng.random() < 0.5:
        series = TimeSeries(levels + rng.normal(0, 1, m), 1.0)
    else:
        counts = rng.integers(1, 6, m)
        series = BinnedSeries(tuple(rng.normal(lv, 1, n) for lv, n in zip(levels, counts)), 1.0)
    return series, float(10.0 ** rng.uniform(-6, 3))


def _recurrence_errors(series, tau_sq):
    """Worst error of forward_pass's A and B against the recurrences: A
    relative, B relative to |B| + sqrt(A)."""
    info, data = forward_pass(series, _hyp(1e-3, 1e3, tau_sq))
    _, _, a, b = _filter_recurrences(series.counts.tolist(), series.sums.tolist(), tau_sq)
    return (
        np.max(np.abs(info - a) / a),
        np.max(np.abs(data - b) / (np.abs(b) + np.sqrt(a))),
    )


# set from seeds 0-49 of _recurrence_case (2,000 series), whose worst was a
# B_j error of 2.3e-8 near tau^2 = 1e-6 (eps * p * |x| in the level increments)
# when the levels were solved directly, and is 1.8e-10 solved about the last level
_RECURRENCE_BOUND = 1e-7


def test_forward_pass_matches_filter_recurrences():
    # the pivots and the level solve reproduce both filters site by site
    rng = np.random.default_rng(2106)
    for _ in range(40):
        assert max(_recurrence_errors(*_recurrence_case(rng))) < _RECURRENCE_BOUND


def _offset_case(rng):
    """A plain or binned series of 1000-3000 sites at a level offset of
    +-1e3, with tau^2 in [1e-6, 1e-4], where p = 1/tau^2 is large."""
    m = int(rng.integers(1000, 3001))
    levels = rng.choice([-1, 1]) * 1e3 + np.cumsum(rng.normal(0, 5, m) * (rng.random(m) < 0.01))
    if rng.random() < 0.5:
        series = TimeSeries(levels + rng.normal(0, 1, m), 1.0)
    else:
        counts = rng.integers(1, 6, m)
        series = BinnedSeries(tuple(rng.normal(lv, 1, n) for lv, n in zip(levels, counts)), 1.0)
    return series, float(10.0 ** rng.uniform(-6, -4))


def test_level_offsets_keep_site_data_precise():
    # B_j = (A_j + p)(x_j - x_{j-1}): increments of levels near 1e3 lost up to
    # 3.1e-8 of |B_j| + sqrt(A_j) on seeds 100-149 of _offset_case (4 series
    # each); solved about the last level, the worst there is 1.3e-10
    rng = np.random.default_rng(2107)
    for _ in range(12):
        assert _recurrence_errors(*_offset_case(rng))[1] < 2e-9


@pytest.mark.parametrize("binned", [False, True])
@pytest.mark.parametrize("per_site", [False, True], ids=["scalar", "per_site"])
def test_level_precision_is_the_dense_precision(binned, per_site):
    rng = np.random.default_rng(4)
    if binned:
        series = _random_binned(rng, max_groups=40)
    else:
        series = TimeSeries(rng.normal(0, 1, 30), 1.0)
    m = series.length
    weights = rng.uniform(0.01, 100.0, m) if per_site else np.full(m, 1.0 / 0.3)
    diff = np.eye(m) - np.eye(m, k=-1)
    dense = np.diag(series.counts) + diff.T @ np.diag(weights) @ diff
    diag, off, _ = level_precision(series.counts, -weights)
    banded = np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)
    np.testing.assert_allclose(banded, dense, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("tau_sq", [3e-17, 1e-310])
def test_tau_sq_below_double_precision_raises(tau_sq):
    # 1/tau^2 overflows, or the tail weights pi_j - 1/tau^2 cancel to zero:
    # an error, never A = 0 at every site
    rng = np.random.default_rng(12)
    ts = TimeSeries(rng.normal(0, 1, 200), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflowError):
            detect(ts, _hyp(1.0 / 200, 200.0, tau_sq))


@pytest.mark.parametrize("counts, accepted, rejected", [
    ((1,) * 40, 2.3e-13, 2.2e-13),
    ((5, 5, 5, 5), 5e-14, 4e-14),
    # the smallest count bounds the range, wherever it stands: at the old
    # guard on the smallest tail weight, this series took 1e-13 and 5e-14
    ((1, 5, 5, 5), 2.3e-13, 1e-13),
], ids=["plain", "binned", "binned_small_first"])
def test_tau_sq_range_is_bounded_by_the_smallest_count(counts, accepted, rejected):
    rng = np.random.default_rng(13)
    series = BinnedSeries(tuple(rng.normal(0, 1, n) for n in counts), 1.0)
    if set(counts) == {1}:
        series = TimeSeries(series.values, 1.0)
    forward_pass(series, _hyp(0.1, 10.0, accepted))
    with pytest.raises(NumericOverflowError, match="too large for double precision"):
        forward_pass(series, _hyp(0.1, 10.0, rejected))


def test_overflowing_noise_variance_raises_in_the_summaries_and_the_oracle():
    # site 7's xi came back as (inf, inf), beside a finite mu and a
    # probability of 0.99994, where the oracle raised
    rng = np.random.default_rng(14)
    y = 1e160 * (np.repeat([0.0, 4.0], 6) + rng.normal(0, 1, 12))
    series, h = TimeSeries(y, 1e160), Hyperparameters.solo_defaults(12)
    for call in (lambda: all_site_posteriors(series, h),
                 lambda: oracle_site_posterior(series, 7, h)):
        with pytest.raises(NumericOverflowError, match="noise_sd\\^2 overflows"):
            call()


def test_forward_cache_is_site_independent():
    rng = np.random.default_rng(0)
    ts = TimeSeries(rng.normal(0, 1, 12), 1.0)
    h = _hyp(0.05, 20.0, 0.4)
    first = forward_pass(ts, h)
    again = forward_pass(ts, h)
    for a, b in zip(first, again):
        assert np.array_equal(a, b)


def test_site_one_scalars_are_tail_sums():
    # f_0 = 0 is known, so site 1's A and B are the backward filter's tail sums
    rng = np.random.default_rng(1)
    ts = TimeSeries(rng.normal(0, 1, 9), 1.0)
    info, data = forward_pass(ts, _hyp(0.05, 20.0, 0.4))
    tail_w, tail_d, _, _ = _filter_recurrences(ts.counts.tolist(), ts.sums.tolist(), 0.4)
    assert info[0] == pytest.approx(tail_w[0], rel=1e-12)
    assert data[0] == pytest.approx(tail_d[0], rel=1e-12)


def test_zero_data_gives_zero_site_data():
    _, data = forward_pass(TimeSeries(np.zeros(7), 1.0), _hyp(0.05, 20.0, 0.4))
    assert np.all(data == 0.0)


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
    assert np.all(inclusion_scores(ts, h)[0] == expected)


def test_probability_monotone_in_q():
    rng = np.random.default_rng(4)
    ts = TimeSeries(rng.normal(0, 1, 16), 1.0)
    prev = np.zeros(15)
    for q in (0.01, 0.1, 0.3, 0.6, 0.9, 0.99):
        h = Hyperparameters(tau0_sq=0.01, tau1_sq=10.0, tau_sq=0.3, q=q, delta=1)
        p = inclusion_scores(ts, h)[0]
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


@pytest.mark.parametrize("binned", [False, True])
def test_mean_surface_is_the_summaries_slab_mean(binned):
    # posterior_mean_surface skips the log weights but forms the same slab means
    rng = np.random.default_rng(22)
    for _ in range(10):
        if binned:
            series = _random_binned(rng, max_groups=80)
        else:
            series = TimeSeries(rng.normal(rng.normal(0, 2), 1.0, int(rng.integers(2, 300))), 0.7)
        h = _hyp(0.01, 10.0, float(10.0 ** rng.uniform(-3, 3)))
        slab = np.array([s.mu[1] for s in all_site_posteriors(series, h)])
        assert np.array_equal(posterior_mean_surface(series, h), slab)


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


def _collapsed_case(rng):
    """A plain or binned series of 2-12 sites with a few jumps, spike and slab
    variances tau0_sq in [1e-6, 1e-1] and tau1_sq in [1e-1, 1e3], and a random z."""
    m = int(rng.integers(2, 13))
    levels = rng.normal(0, 2) + np.cumsum(rng.normal(0, 3, m) * (rng.random(m) < 0.3))
    sd = float(rng.uniform(0.3, 2.0))
    if rng.random() < 0.5:
        series = TimeSeries(levels + rng.normal(0, sd, m), sd)
    else:
        counts = rng.integers(1, 4, m)
        series = BinnedSeries(tuple(rng.normal(lv, sd, n) for lv, n in zip(levels, counts)), sd)
    h = _hyp(float(10.0 ** rng.uniform(-6, -1)), float(10.0 ** rng.uniform(-1, 3)), 1.0,
             q=float(rng.uniform(0.05, 0.95)))
    return series, h, rng.integers(0, 2, m)


# set from seeds 0-5999 of _collapsed_case (30,000 series, one generator per
# seed), whose worst was 3.5e-9 of max(1, |ref|); a 50-digit dense computation
# puts that error on the pivot form (eps * max(w) at tau0_sq near 1e-6), not
# on the oracle, which came within 6.3e-13
_COLLAPSED_BOUND = 1e-8


def test_collapsed_log_odds_match_oracle_joint_marginal():
    # given z, every site's log-odds is the prior log-odds plus
    # log p(y | z_j=1, z_-j) - log p(y | z_j=0, z_-j) of the joint model
    rng = np.random.default_rng(8106)
    for _ in range(60):
        series, h, z = _collapsed_case(rng)
        log_odds = _site_mixture(series, h, z)[3]
        for j in range(z.size):
            z1, z0 = z.copy(), z.copy()
            z1[j], z0[j] = 1, 0
            ref = prior_log_odds(h.q) + (
                oracle_joint_marginal(series, z1, h, max_size=40)
                - oracle_joint_marginal(series, z0, h, max_size=40)
            )
            assert abs(log_odds[j] - ref) <= _COLLAPSED_BOUND * max(1.0, abs(ref))


@pytest.mark.parametrize("binned", [False, True])
def test_indicators_with_the_solo_variance_give_solo_bitwise(binned):
    # w_t = 1/tau^2 at every t, whatever z selects, is the solo filter bit for bit
    rng = np.random.default_rng(23)
    for _ in range(10):
        if binned:
            series = _random_binned(rng, max_groups=200)
        else:
            series = TimeSeries(rng.normal(rng.normal(0, 2), 1.0, int(rng.integers(2, 300))), 0.7)
        tau = float(10.0 ** rng.uniform(-4, 3))
        z = rng.integers(0, 2, series.length)
        cases = [(_hyp(tau, tau, tau), z), (_hyp(tau / 10.0, tau, tau), np.ones_like(z))]
        for h, zh in cases:
            for a, b in zip(forward_pass(series, h, zh), forward_pass(series, h)):
                assert np.array_equal(a, b)
        solo, given_z = _site_mixture(series, cases[0][0]), _site_mixture(series, cases[0][0], z)
        assert np.array_equal(solo[0], given_z[0])
        for a, b in zip([*solo[1], *solo[2], solo[3]], [*given_z[1], *given_z[2], given_z[3]]):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("tau0_sq", [1e-15, 1e-308, 1e-310])
def test_indicators_selecting_a_tiny_spike_variance_raise(tau0_sq):
    # the largest w = 1/tau0_sq makes the tail weights cancel, or 2w (a
    # diagonal entry of Q) overflows, or w itself does
    rng = np.random.default_rng(24)
    ts = TimeSeries(rng.normal(0, 1, 50), 1.0)
    h = _hyp(tau0_sq, 1.0, 1.0)
    z = np.ones(50, dtype=int)
    forward_pass(ts, h, z)  # every w is 1
    z[17] = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflowError):
            _site_mixture(ts, h, z)


@pytest.mark.parametrize("shape", [(4,), (6,), (5, 1)])
def test_indicators_of_another_shape_raise(shape):
    ts = TimeSeries(np.arange(5.0), 1.0)
    with pytest.raises(InvalidConfigError, match="z must have length 5"):
        forward_pass(ts, _hyp(0.1, 1.0, 1.0), np.zeros(shape, dtype=int))


def test_fractional_indicators_raise_in_the_filter_and_the_oracle():
    # forward_pass once read z_3 = 1.5 as the spike and the oracle as the
    # slab, so site 4's collapsed log-odds came out as -1.021 against -1.409
    ts = TimeSeries(np.array([0.0, 0.3, -0.2, 2.1, 1.8, 2.2]), 1.0)
    z = [0, 1, 1.5, 0, 0, 0]
    h = _hyp(0.01, 4.0, 1.0)
    with pytest.raises(InvalidConfigError, match="0 or 1"):
        forward_pass(ts, h, z)
    with pytest.raises(InvalidConfigError, match="0 or 1"):
        oracle_joint_marginal(ts, z, h)


def test_unit_count_binned_path_matches_plain_path_exactly():
    rng = np.random.default_rng(7)
    y = rng.normal(0, 2, 25)
    ts = TimeSeries(y, 0.8)
    bs = BinnedSeries(ts.values, ts.noise_sd, counts=ts.counts)
    h = _hyp(0.02, 50.0, 0.08)
    for a, b in zip(forward_pass(ts, h), forward_pass(bs, h)):
        assert np.array_equal(a, b)
    p1, lo1 = inclusion_scores(ts, h)
    p2, lo2 = inclusion_scores(bs, h)
    assert np.array_equal(p1, p2)
    assert np.array_equal(lo1, lo2)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-1000, 1000),
    binned=st.booleans(),
)
def test_scaling_data_and_sigma_by_power_of_two_is_bitwise_invariant(seed, k, binned):
    # scores depend on (y, sigma) only through y/sigma; a power-of-two factor
    # is exact in binary floating point, so the invariance holds bit for bit
    rng = np.random.default_rng(seed)
    h = _hyp(0.02, 50.0, float(10.0 ** rng.uniform(-3, 3)), q=0.2)
    if binned:
        base = _random_binned(rng, max_groups=30)
        scaled = BinnedSeries(base.values * 2.0**k, base.noise_sd * 2.0**k, counts=base.counts)
    else:
        y = rng.normal(rng.normal(0, 2), 1.0, int(rng.integers(3, 60)))
        base = TimeSeries(y, float(rng.uniform(0.3, 2.0)))
        scaled = TimeSeries(base.values * 2.0**k, base.noise_sd * 2.0**k)
    p1, lo1 = inclusion_scores(base, h)
    p2, lo2 = inclusion_scores(scaled, h)
    assert np.array_equal(p1, p2)
    assert np.array_equal(lo1, lo2)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), binned=st.booleans())
def test_negating_the_data_mirrors_site_data_and_keeps_scores(seed, binned):
    # every operation on the solo path is sign-symmetric, so negation flips
    # B_j bit for bit and leaves A_j, the scores and the selection unchanged
    rng = np.random.default_rng(seed)
    if binned:
        base = _random_binned(rng, max_groups=30)
        negated = BinnedSeries(-base.values, base.noise_sd, counts=base.counts)
    else:
        y = rng.normal(0, 1.0, int(rng.integers(3, 60)))
        y[int(rng.integers(1, y.size)):] += rng.normal(0, 4)
        base = TimeSeries(y, float(rng.uniform(0.3, 2.0)))
        negated = TimeSeries(-base.values, base.noise_sd)
    h = _hyp(0.02, 50.0, float(10.0 ** rng.uniform(-3, 3)), q=0.2)
    (a1, b1), (a2, b2) = forward_pass(base, h), forward_pass(negated, h)
    assert np.array_equal(b2, -b1)
    assert np.array_equal(a2, a1)
    for a, b in zip(inclusion_scores(base, h), inclusion_scores(negated, h)):
        assert np.array_equal(a, b)
    assert detect(negated, h).selected == detect(base, h).selected


def test_constant_series_stays_below_threshold():
    # level within the reach of the baseline prior; confirmed via the oracle
    ts = TimeSeries(np.full(30, 1.0), 1.0)
    h = Hyperparameters.solo_defaults(30)
    probs = inclusion_scores(ts, h)[0]
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
        p0 = inclusion_scores(TimeSeries(y, 0.25), h)[0]
        p5 = inclusion_scores(TimeSeries(y + 5.0, 0.25), h)[0]
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
