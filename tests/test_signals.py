import numpy as np
import pytest
from scipy.stats import kurtosis

from solocp import (
    BinnedSeries,
    InvalidConfigError,
    TimeSeries,
    TooShortError,
    UnknownSignalError,
    builtin_signal,
    estimate_sigma_mad,
    map_changepoints_to_bins,
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


# each of these was once converted silently (20.7 -> 20, "1" -> 1.0, True -> 1)
_MALFORMED_SPECS = {
    "length_fraction": lambda: SignalSpec(60.0, (20, 40), (0.0, 1.0, 0.0)),
    "changepoint_fraction": lambda: SignalSpec(60, (20.7, 40), (0.0, 1.0, 0.0)),
    "changepoint_bool": lambda: SignalSpec(60, (20, True), (0.0, 1.0, 0.0)),
    "level_string": lambda: SignalSpec(60, (20, 40), (0.0, "1", 0.0)),
    "level_bool": lambda: SignalSpec(60, (20, 40), (0.0, True, 0.0)),
    "gaussian_sd_bool": lambda: NoiseSpec.gaussian(True),
    "laplace_scale_string": lambda: NoiseSpec.laplace("0.5"),
    "student_t_df_string": lambda: NoiseSpec.student_t("3"),
    "student_t_scale_bool": lambda: NoiseSpec.student_t(3.0, scale=True),
    "mixture_weight_string": lambda: NoiseSpec.mixture(("0.5", 0.5), (1.0, 2.0)),
    "mixture_sd_bool": lambda: NoiseSpec.mixture((0.5, 0.5), (1.0, True)),
    "mixture_weights_scalar": lambda: NoiseSpec.mixture(1.0, (1.0,)),
    "family_list": lambda: NoiseSpec(["gaussian"]),
    # a family takes exactly the parameters it reads
    "gaussian_no_sd": lambda: NoiseSpec("gaussian"),
    "gaussian_foreign_scale": lambda: NoiseSpec("gaussian", sd=1.0, scale=2.0),
    "student_t_foreign_sd": lambda: NoiseSpec("student_t", df=3.0, sd=1.0),
    "mixture_no_sds": lambda: NoiseSpec("gaussian_mixture", weights=(1.0,)),
    # every parameter that is read must be finite, and a signal needs 2 sites
    "length_one": lambda: SignalSpec(1, (), (0.0,)),
    "level_infinite": lambda: SignalSpec(60, (20, 40), (0.0, float("inf"), 0.0)),
    "level_nan": lambda: SignalSpec(60, (20, 40), (0.0, float("nan"), 0.0)),
    "gaussian_sd_infinite": lambda: NoiseSpec.gaussian(float("inf")),
    "laplace_scale_nan": lambda: NoiseSpec.laplace(float("nan")),
    "student_t_df_infinite": lambda: NoiseSpec.student_t(float("inf")),
    "mixture_sd_infinite": lambda: NoiseSpec.mixture((0.5, 0.5), (1.0, float("inf"))),
    "mixture_weight_nan": lambda: NoiseSpec.mixture((float("nan"), 1.0), (1.0, 2.0)),
}


@pytest.mark.parametrize("case", _MALFORMED_SPECS)
def test_constructors_reject_rather_than_convert(case):
    with pytest.raises(InvalidConfigError):
        _MALFORMED_SPECS[case]()


def test_constructors_store_ints_and_floats():
    s = SignalSpec(np.int64(60), np.array([20, 40]), np.array([0, 1, 0]))
    assert s == SignalSpec(60, (20, 40), (0.0, 1.0, 0.0))
    assert [type(v) for v in (s.length, s.changepoints[0], s.levels[1])] == [int, int, float]
    t, mix = NoiseSpec.student_t(3, scale=2), NoiseSpec.mixture([0.5, 0.5], [1, 2])
    assert (t.df, t.scale, mix.sds) == (3.0, 2.0, (1.0, 2.0)) and type(t.df) is float
    # student_t's scale defaults to 1; the fields a family does not read stay None
    assert NoiseSpec("student_t", df=3) == NoiseSpec.student_t(3.0, 1.0)
    assert (t.sd, t.weights, mix.sd, mix.df, NoiseSpec.gaussian(2).scale) == (None,) * 5


def test_gaussian_noise_scale():
    draws = NoiseSpec.gaussian(1.0).draw(np.random.default_rng(0), 1_000_000)
    assert abs(draws.std() - 1.0) < 0.01
    assert abs(draws.mean()) < 0.01


def test_mixture_variance_analytic():
    spec = NoiseSpec.mixture((0.95, 0.05), (7.0, 28.0))
    assert spec.std == pytest.approx(np.sqrt(85.75))
    draws = spec.draw(np.random.default_rng(1), 1_000_000)
    assert abs(draws.var() - 85.75) / 85.75 < 0.03


def test_student_t_heavy_tails():
    t_draws = NoiseSpec.student_t(df=4.0).draw(np.random.default_rng(2), 200_000)
    g_draws = NoiseSpec.gaussian(1.0).draw(np.random.default_rng(2), 200_000)
    assert kurtosis(t_draws) > kurtosis(g_draws) + 0.5


def test_laplace_std():
    spec = NoiseSpec.laplace(7.0)
    assert spec.std == pytest.approx(7.0 * np.sqrt(2.0))
    draws = spec.draw(np.random.default_rng(3), 500_000)
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
