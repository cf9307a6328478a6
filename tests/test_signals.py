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
from solocp.signals import NoiseSpec, SignalSpec, _median


def test_builtin_teeth():
    s = builtin_signal("TEETH")
    assert s.length == 140
    assert s.changepoints == (31, 61, 91, 121)
    assert s.levels == (0.0, 1.0, 0.0, 1.0, 0.0)
    assert len(s.changepoints) == 4


def test_builtin_blocks():
    s = builtin_signal("BLOCKS")
    assert s.length == 2048
    assert len(s.changepoints) == 11
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


def _segment_values(spec):
    """f_t filled segment by segment, the loop values() once ran."""
    f = np.empty(spec.length)
    bounds = (1,) + spec.changepoints + (spec.length + 1,)
    for level, lo, hi in zip(spec.levels, bounds, bounds[1:]):
        f[lo - 1 : hi - 1] = level
    return f


def test_signal_values_are_segment_lookups_bit_for_bit():
    # values() reads each site's level through value_at_fraction; site t's
    # position (t - 1) / length lands on its segment, sign of zero included
    rng = np.random.default_rng(31)
    specs = [builtin_signal(name) for name in ("BLOCKS", "TEETH", "BLOCKS2")]
    specs += [
        SignalSpec(5, (3,), (-0.0, 0.0)),
        SignalSpec(9, tuple(range(2, 10)), tuple(float(v) for v in range(-4, 5))),
    ]
    for _ in range(200):
        length = int(2 ** rng.uniform(1, 21))
        k = int(rng.integers(0, min(length - 1, 40) + 1))
        cps = np.sort(rng.choice(np.arange(2, length + 1), size=k, replace=False))
        specs.append(SignalSpec(length, tuple(cps.tolist()), tuple(rng.normal(0, 5, k + 1).tolist())))
    for spec in specs:
        got, want = spec.values(), _segment_values(spec)
        assert got.tobytes() == want.tobytes(), spec.changepoints


def _lookup(spec, x):
    """Each position's level by a binary search of the segment starts."""
    starts = (np.asarray(spec.changepoints, dtype=float) - 1.0) / spec.length
    return np.asarray(spec.levels, dtype=float)[np.searchsorted(starts, x, side="right")]


def test_value_at_fraction_is_a_segment_start_search_bit_for_bit():
    # sorted positions, some exactly at a segment start and some repeated,
    # an empty array, and the signed-zero specs of the values() test
    rng = np.random.default_rng(17)
    specs = [builtin_signal(name) for name in ("BLOCKS", "TEETH", "BLOCKS2")]
    specs += [
        SignalSpec(5, (3,), (-0.0, 0.0)),
        SignalSpec(9, tuple(range(2, 10)), tuple(float(v) for v in range(-4, 5))),
        SignalSpec(7, (), (2.5,)),
    ]
    for spec in specs:
        starts = (np.asarray(spec.changepoints, dtype=float) - 1.0) / spec.length
        for n in (0, 1, 2, 50, 4000):
            x = np.concatenate((rng.uniform(0, 1, n), rng.choice(np.append(starts, 0.0), n // 2)))
            x = np.sort(np.concatenate((x, x[: n // 4])))  # repeated positions
            got = spec.value_at_fraction(x)
            assert got.dtype == float and got.tobytes() == _lookup(spec, x).tobytes()
        for t in (0, 1, 2, spec.length - 1):  # lone positions, sign of zero included
            x = np.array([t / spec.length])
            assert spec.value_at_fraction(x).tobytes() == _lookup(spec, x).tobytes()


@pytest.mark.parametrize("x", [[0.5, 0.2], [0.1, 0.3, 0.3, 0.2], [np.nan], [0.1, np.nan],
                               [np.nan, 0.1], 0.5, [[0.1, 0.2]]])
def test_value_at_fraction_rejects_unsorted_or_nan_positions(x):
    with pytest.raises(InvalidConfigError, match="nondecreasing"):
        builtin_signal("TEETH").value_at_fraction(np.asarray(x, dtype=float))


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
    # change points split (1, length] into one segment per level; mixture weights
    # and sds pair up
    "level_count": lambda: SignalSpec(60, (20, 40), (0.0, 1.0)),
    "changepoints_unordered": lambda: SignalSpec(60, (40, 20), (0.0, 1.0, 0.0)),
    "changepoint_at_one": lambda: SignalSpec(60, (1,), (0.0, 1.0)),
    "changepoint_past_length": lambda: SignalSpec(60, (61,), (0.0, 1.0)),
    "mixture_mismatched": lambda: NoiseSpec.mixture((0.5, 0.5), (1.0,)),
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


def test_student_t_std():
    assert NoiseSpec.student_t(3, 0.5).std == 0.5 * np.sqrt(3.0)


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
    assert bs.values.size == 1024
    assert bs.source_bins.tolist() == list(range(1, 201))


def test_simulate_binned_merges_empty_cells():
    bs = simulate_binned(builtin_signal("BLOCKS2"), NoiseSpec.gaussian(7.0), 1024, 200, seed=0)
    assert bs.length < 200
    assert bs.values.size == 1024  # no observation lost
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
    assert np.all(bs.counts == 1)
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(0.0, 1.0, 40))
    y = s.value_at_fraction(x) + noise.draw(rng, 40)
    assert np.allclose(bs.values, y)


# fixed cases, then random ones: a grid finer than n leaves cells empty
_BINNED_SIZES = [(1024, 200), (300, 700), (40, 4000), (5000, 64), (8192, 2048)] + [
    tuple(map(int, size)) for size in np.random.default_rng(11).integers(2, 3000, (6, 2))
]


@pytest.mark.parametrize("n,grid", _BINNED_SIZES)
def test_simulate_binned_matches_per_cell_grouping(n, grid):
    # reference grouping built cell by cell, and np.unique's, from the same random stream
    signal, noise = builtin_signal("BLOCKS"), NoiseSpec.gaussian(3.0)
    rng = np.random.default_rng(5)
    x = np.sort(rng.uniform(0.0, 1.0, n))
    y = signal.value_at_fraction(x) + noise.draw(rng, n)
    cell = np.minimum((x * grid).astype(int), grid - 1)
    kept = [b for b in range(grid) if (cell == b).any()]
    bs = simulate_binned(signal, noise, n, grid, seed=5)
    assert bs.source_bins.tolist() == [b + 1 for b in kept]
    unique, sizes = np.unique(cell, return_counts=True)
    assert bs.source_bins.tolist() == (unique + 1).tolist()
    assert np.array_equal(bs.counts, sizes)
    assert bs.length == len(kept)
    assert np.array_equal(bs.values, np.concatenate([y[cell == b] for b in kept]))
    truth = [max(int(np.searchsorted(bs.source_bins, c, side="right")), 1)
             for c in map_changepoints_to_bins(signal, grid)]
    assert map_changepoints_to_bins(signal, grid, bs.source_bins) == tuple(truth)


def test_binned_layout_is_one_flat_read_only_array():
    rng = np.random.default_rng(3)
    counts = rng.integers(1, 9, size=300)
    groups = tuple(rng.normal(0, 5, c) for c in counts)
    bs = BinnedSeries(groups, 1.0)
    assert np.array_equal(bs.values, np.concatenate(groups))
    assert np.array_equal(bs.counts, counts)
    for view in (bs.values, bs.counts, bs.sums):
        with pytest.raises(ValueError):
            view[0] = 0.0
    per_group = np.array([g.sum() for g in groups])
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


@pytest.mark.parametrize("cells", [
    (5, 3, 1), (1, 3, 3), (0, 1, 2), (-2, 4), (), (1.0, 2.0, 3.0), (True,), [[1, 2]],
])
def test_binned_truth_rejects_cells_that_are_not_increasing_integers(cells):
    # (5, 3, 1) once gave eleven 3s
    with pytest.raises(InvalidConfigError, match="strictly increasing integer cells"):
        map_changepoints_to_bins(builtin_signal("BLOCKS"), 2048, cells)


@pytest.mark.parametrize("grid", [-5, 1, 2**53 + 1, 20.0, True])
def test_binned_truth_rejects_a_grid_that_is_not_a_size(grid):
    # a grid of -5 once gave (-1, -2, -3, -4)
    with pytest.raises(InvalidConfigError, match="grid must be an integer"):
        map_changepoints_to_bins(builtin_signal("TEETH"), grid)


@pytest.mark.parametrize("n, grid", [(1, 20), (100, 1), (2**53 + 1, 20), (100, 10**30)])
def test_simulate_binned_rejects_sizes_out_of_range(n, grid):
    with pytest.raises(InvalidConfigError, match="must be an integer from 2 to 2\\*\\*53"):
        simulate_binned(builtin_signal("TEETH"), NoiseSpec.gaussian(1.0), n, grid, seed=0)


@pytest.mark.parametrize("cells", [
    (3, 1, 5), (1, 1, 2), (0, 2, 3), (1.0, 2.0, 3.0), (True, True, True), (1, 2), (1, 2, 3, 4),
    "123", np.array([[1, 2, 3]]),
])
def test_binned_series_rejects_source_bins_that_are_not_one_cell_per_group(cells):
    with pytest.raises(InvalidConfigError):
        BinnedSeries(np.arange(6.0), 1.0, cells, counts=(1, 2, 3))


def test_binned_series_source_bins_are_a_read_only_copy():
    cells = np.array([2, 5, 9])
    bs = BinnedSeries(np.arange(6.0), 1.0, cells, counts=(1, 2, 3))
    assert bs.source_bins.tolist() == [2, 5, 9] and bs.source_bins.dtype.kind == "i"
    with pytest.raises(ValueError):
        bs.source_bins[0] = 1
    cells[0] = 1  # the caller's array stays writable and unshared
    assert bs.source_bins[0] == 2
    from_tuple = BinnedSeries(np.arange(6.0), 1.0, (4, 7, 8), counts=(1, 2, 3))
    assert from_tuple.source_bins.tolist() == [4, 7, 8]
    # TEETH's change points fall in cells 3, 5, 7 and 9 of 10
    assert map_changepoints_to_bins(builtin_signal("TEETH"), 10, bs.source_bins) == (1, 2, 2, 3)


def test_grid_changepoints_convention():
    s = builtin_signal("BLOCKS2")
    assert map_changepoints_to_bins(s, 200) == (20, 46, 80, 130, 162)


@pytest.mark.parametrize("name", ["BLOCKS", "TEETH", "BLOCKS2"])
def test_binned_truth_is_the_cell_holding_each_change_position(name):
    # change point eta begins at (eta - 1) / length, inside 1-based cell k when
    # (k - 1) / grid <= (eta - 1) / length < k / grid; integer floor division
    # gives that k exactly, with no float rounding
    signal = builtin_signal(name)
    grids = [*range(2, 3000), *np.unique(np.geomspace(3000, 10**6, 400).astype(int))]
    for grid in grids:
        exact = tuple((eta - 1) * int(grid) // signal.length + 1 for eta in signal.changepoints)
        assert map_changepoints_to_bins(signal, grid) == exact


@pytest.mark.parametrize("n", [*range(1, 80), 139, 140, 2047, 2048])
def test_median_is_numpys_bit_for_bit(n):
    # value, sign of zero and type; ties, signed zeros, absolute values, extreme scales
    rng = np.random.default_rng(n)
    cases = [
        rng.normal(size=n),
        rng.integers(-3, 4, n).astype(float),
        rng.choice([-0.0, 0.0, 1.0, -1.0], n),
        np.abs(rng.normal(size=n)),
        *(rng.normal(size=n) * scale for scale in (1e-300, 1e-150, 1e150, 1e300)),
    ]
    for x in cases:
        want, got = np.median(x), _median(x)
        assert type(got) is type(want) and got.tobytes() == want.tobytes(), x


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
