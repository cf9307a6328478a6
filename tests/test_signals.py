import numpy as np
import pytest
from scipy.stats import kurtosis

from solocp import (
    BinnedSeries,
    InvalidBlockCountError,
    TimeSeries,
    TooShortError,
    UnknownSignalError,
    block_aggregate,
    builtin_signal,
    estimate_sigma_mad,
    map_changepoints_to_bins,
    sample_noise,
    simulate,
    simulate_binned,
)
from solocp.signals import NoiseSpec, SignalSpec


def test_builtin_teeth():
    s = builtin_signal("TEETH")
    assert s.length == 140
    assert s.changepoints == (31, 61, 91, 121)
    assert s.levels == (0.0, 1.0, 0.0, 1.0, 0.0)
    assert s.count == 4


def test_builtin_blocks():
    s = builtin_signal("BLOCKS")
    assert s.length == 2048
    assert s.count == 11
    assert len(s.levels) == 12
    assert s.changepoints[0] == 205 and s.changepoints[-1] == 1659


def test_builtin_blocks2_lists_five_locations():
    s = builtin_signal("BLOCKS2")
    assert s.length == 1024
    assert s.changepoints == (102, 236, 410, 666, 829)
    assert len(s.levels) == 6


def test_builtin_unknown():
    with pytest.raises(UnknownSignalError):
        builtin_signal("STAIRS")


def test_signal_values_segments():
    s = SignalSpec(length=6, changepoints=(3, 5), levels=(0.0, 2.0, -1.0))
    assert s.values().tolist() == [0.0, 0.0, 2.0, 2.0, -1.0, -1.0]


def test_gaussian_noise_scale():
    draws = sample_noise(NoiseSpec.gaussian(1.0), 1_000_000, seed=0)
    assert abs(draws.std() - 1.0) < 0.01
    assert abs(draws.mean()) < 0.01


def test_mixture_variance_analytic():
    spec = NoiseSpec.mixture((0.95, 0.05), (7.0, 28.0))
    assert spec.std == pytest.approx(np.sqrt(85.75))
    draws = sample_noise(spec, 1_000_000, seed=1)
    assert abs(draws.var() - 85.75) / 85.75 < 0.03


def test_student_t_heavy_tails():
    t_draws = sample_noise(NoiseSpec.student_t(df=4.0), 200_000, seed=2)
    g_draws = sample_noise(NoiseSpec.gaussian(1.0), 200_000, seed=2)
    assert kurtosis(t_draws) > kurtosis(g_draws) + 0.5


def test_laplace_std():
    spec = NoiseSpec.laplace(7.0)
    assert spec.std == pytest.approx(7.0 * np.sqrt(2.0))
    draws = sample_noise(spec, 500_000, seed=3)
    assert abs(draws.std() - spec.std) / spec.std < 0.02


def test_simulate_zero_noise_limit():
    s = builtin_signal("TEETH")
    ts = simulate(s, NoiseSpec.gaussian(1e-12), seed=0)
    assert np.allclose(ts.values, s.values(), atol=1e-9)


def test_simulate_deterministic_per_seed():
    s = builtin_signal("TEETH")
    n = NoiseSpec.gaussian(0.25)
    a = simulate(s, n, seed=5)
    b = simulate(s, n, seed=5)
    c = simulate(s, n, seed=6)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.noise_sd == 0.25


def test_simulate_blocks_shape():
    ts = simulate(builtin_signal("BLOCKS"), NoiseSpec.gaussian(7.0), seed=0)
    assert ts.length == 2048


def test_simulate_binned_full_grid_seed():
    # seed 4 is a replication where every one of the 200 cells is occupied
    bs = simulate_binned(builtin_signal("BLOCKS2"), NoiseSpec.gaussian(7.0), 1024, 200, seed=4)
    assert bs.length == 200
    assert bs.total == 1024
    assert bs.source_bins == tuple(range(1, 201))


def test_simulate_binned_merges_empty_cells():
    bs = simulate_binned(builtin_signal("BLOCKS2"), NoiseSpec.gaussian(7.0), 1024, 200, seed=0)
    assert bs.length < 200
    assert bs.total == 1024  # no observation lost
    kept = np.asarray(bs.source_bins)
    assert np.all(np.diff(kept) > 0)
    truth = map_changepoints_to_bins(builtin_signal("BLOCKS2"), 200, bs.source_bins)
    assert len(truth) == 5
    assert all(1 <= t <= bs.length for t in truth)


def test_simulate_binned_sparse_grid_reduces_to_points():
    # a much finer grid than the sample size gives singleton groups whose
    # values replay the per-point simulation stream
    s = SignalSpec(length=100, changepoints=(51,), levels=(0.0, 3.0))
    noise = NoiseSpec.gaussian(0.1)
    bs = simulate_binned(s, noise, n=40, grid=4000, seed=7)
    assert all(b.size == 1 for b in bs.bins)
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(0.0, 1.0, 40))
    y = s.value_at_fraction(x) + noise.draw(rng, 40)
    assert np.allclose(np.concatenate(bs.bins), y)


@pytest.mark.parametrize(
    "n,grid", [(1024, 200), (300, 700), (40, 4000), (5000, 64), (8192, 2048)]
)
def test_simulate_binned_matches_per_cell_grouping(n, grid):
    # reference grouping built cell by cell from the same random stream
    signal, noise = builtin_signal("BLOCKS"), NoiseSpec.gaussian(3.0)
    rng = np.random.default_rng(5)
    x = np.sort(rng.uniform(0.0, 1.0, n))
    y = signal.value_at_fraction(x) + noise.draw(rng, n)
    cell = np.minimum((x * grid).astype(int), grid - 1)
    kept = [b for b in range(grid) if (cell == b).any()]
    bs = simulate_binned(signal, noise, n, grid, seed=5)
    assert bs.source_bins == tuple(b + 1 for b in kept)
    assert len(bs.bins) == len(kept)
    for group, b in zip(bs.bins, kept):
        assert np.array_equal(group, y[cell == b])
    truth = [max(int(np.searchsorted(bs.source_bins, c, side="right")), 1)
             for c in signal.grid_changepoints(grid)]
    assert map_changepoints_to_bins(signal, grid, bs.source_bins) == tuple(truth)


def test_binned_layout_is_one_flat_read_only_array():
    rng = np.random.default_rng(3)
    counts = rng.integers(1, 9, size=300)
    bs = BinnedSeries(tuple(rng.normal(0, 5, c) for c in counts), 1.0)
    assert np.array_equal(bs.values, np.concatenate(bs.bins))
    assert np.array_equal(bs.counts, counts)
    for group in bs.bins:
        assert group.base is bs.values
        with pytest.raises(ValueError):
            group[0] = 0.0
    with pytest.raises(ValueError):
        bs.values[0] = 0.0
    per_group = np.array([b.sum() for b in bs.bins])
    assert np.all(np.abs(bs.sums - per_group) <= 1e-12 * np.abs(bs.values).sum())


def test_mad_of_binned_equals_mad_of_its_values():
    bs = simulate_binned(builtin_signal("BLOCKS2"), NoiseSpec.gaussian(7.0), 1024, 200, seed=0)
    plain = TimeSeries(bs.values, bs.noise_sd)
    assert estimate_sigma_mad(bs) == estimate_sigma_mad(plain)


def test_simulate_binned_zero_noise_bin_means():
    s = SignalSpec(length=100, changepoints=(51,), levels=(0.0, 3.0))
    bs = simulate_binned(s, NoiseSpec.gaussian(1e-12), n=500, grid=10, seed=8)
    means = bs.sums / bs.counts
    # cells fully inside one segment carry the exact level
    assert np.allclose(means[:4], 0.0, atol=1e-9)
    assert np.allclose(means[6:], 3.0, atol=1e-9)


def test_grid_changepoints_convention():
    s = builtin_signal("BLOCKS2")
    assert s.grid_changepoints(200) == (20, 46, 80, 130, 162)


def test_mad_constant_series_zero():
    assert estimate_sigma_mad(TimeSeries(np.full(10, 3.0), 1.0)) == 0.0


def test_mad_pure_noise():
    rng = np.random.default_rng(9)
    ts = TimeSeries(rng.normal(0, 7.0, 2048), 7.0)
    est = estimate_sigma_mad(ts)
    assert abs(est - 7.0) / 7.0 < 0.10


def test_mad_robust_to_jumps():
    ts = simulate(builtin_signal("TEETH"), NoiseSpec.gaussian(0.25), seed=10)
    est = estimate_sigma_mad(ts)
    assert abs(est - 0.25) / 0.25 < 0.15


def test_mad_too_short():
    with pytest.raises(TooShortError):
        estimate_sigma_mad(TimeSeries(np.array([1.0, 2.0]), 1.0))


def test_block_aggregate_identity_and_total():
    rng = np.random.default_rng(10)
    ts = TimeSeries(rng.normal(0, 1, 12), 1.0)
    assert np.allclose(block_aggregate(ts, 12), ts.values)
    assert block_aggregate(ts, 1)[0] == pytest.approx(ts.values.sum() / np.sqrt(12))


def test_block_aggregate_constant_exact():
    ts = TimeSeries(np.full(32, 2.5), 1.0)
    agg = block_aggregate(ts, 8)
    assert np.allclose(agg, np.sqrt(4) * 2.5)


def test_block_aggregate_remainder_absorbed():
    ts = TimeSeries(np.full(10, 1.0), 1.0)
    agg = block_aggregate(ts, 3)
    # sizes 3,3,4: each block sums/sqrt(own size)
    assert agg.tolist() == pytest.approx([3 / np.sqrt(3), 3 / np.sqrt(3), 4 / np.sqrt(4)])


def test_block_aggregate_variance_preserved():
    rng = np.random.default_rng(3)
    ts = TimeSeries(rng.normal(0, 1.0, 2048), 1.0)
    agg = block_aggregate(ts, 64)
    assert abs(agg.var() - 1.0) < 0.10


def test_block_aggregate_bad_count():
    ts = TimeSeries(np.ones(8), 1.0)
    with pytest.raises(InvalidBlockCountError):
        block_aggregate(ts, 0)
    with pytest.raises(InvalidBlockCountError):
        block_aggregate(ts, 9)
