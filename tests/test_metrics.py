import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solocp import (
    ChangePointSet,
    EmptySetError,
    Hyperparameters,
    InvalidConfigError,
    TimeSeries,
    detect,
    evaluate_sets,
    hausdorff,
    simulate,
)
from solocp.cli import _aggregate, _column_nanmeans
from solocp.metrics import EvalReport
from solocp.signals import NoiseSpec, builtin_signal


# One set inside the other zeroes one side of the Hausdorff sum, so these
# check each side alone: the distance from the extra points to the smaller set.
def test_one_sided_single_pair():
    assert hausdorff([3, 5], [3]) == 2
    assert hausdorff([3], [3, 5]) == 2


def test_one_sided_identity():
    assert hausdorff([4, 9], [4, 9]) == 0
    assert hausdorff([4, 9], [4, 6, 9]) == 2


def test_one_sided_by_definition():
    assert hausdorff([1, 4, 9, 10], [4, 9]) == 3
    assert hausdorff([4, 9], [1, 4, 9, 10]) == 3


def test_hausdorff_symmetric_sum():
    assert hausdorff([5], [3]) == 4
    assert hausdorff([3, 100], [3]) == 97  # overestimation penalized
    assert hausdorff([4, 9], [4, 9]) == 0


def test_histogram_trivials():
    # hist_true buckets the true points by their distance to the estimate
    same = evaluate_sets([10, 20, 30, 40], [10, 20, 30, 40], 50)
    assert same.hist_true.tolist() == same.hist_est.tolist() == [1, 0, 0, 0]
    assert evaluate_sets([12], [10], 50).hist_true.tolist() == [0, 0, 1, 0]
    report = evaluate_sets([10, 25], [10, 20], 50)
    assert report.hist_true.tolist() == [0.5, 0, 0, 0.5]
    assert report.hist_est.tolist() == [0.5, 0, 0, 0.5]


def test_empty_sets_raise():
    with pytest.raises(EmptySetError):
        hausdorff([], [3])
    with pytest.raises(EmptySetError):
        hausdorff([3], [])
    with pytest.raises(EmptySetError):
        hausdorff([], [])


def _brute_min_dists(ref, other):
    return [min(abs(r - o) for o in other) for r in ref]


@settings(max_examples=300, deadline=None)
@given(
    st.sets(st.integers(1, 200), min_size=1, max_size=10),
    st.sets(st.integers(1, 200), min_size=1, max_size=10),
)
def test_metrics_match_brute_force(a, b):
    a_sorted, b_sorted = sorted(a), sorted(b)
    brute_one = max(_brute_min_dists(b_sorted, a_sorted))
    assert hausdorff(a_sorted, b_sorted) == brute_one + max(
        _brute_min_dists(a_sorted, b_sorted)
    )
    assert hausdorff(a_sorted, b_sorted) == hausdorff(b_sorted, a_sorted)
    assert hausdorff(a_sorted, a_sorted) == 0
    # a inside the union leaves one side of the sum: brute_one
    assert hausdorff(sorted(a | b), a_sorted) == brute_one
    d = np.asarray(_brute_min_dists(a_sorted, b_sorted))
    expected = [
        np.mean(d == 0),
        np.mean(d == 1),
        np.mean(d == 2),
        np.mean(d >= 3),
    ]
    got = evaluate_sets(a_sorted, b_sorted, 200).hist_est  # a as the estimate
    assert got.tolist() == pytest.approx(expected)
    assert got.sum() == pytest.approx(1.0)
    assert np.all((got >= 0) & (got <= 1))


def _mean_histogram(d):
    # the histogram as the mean of each bucket's indicator
    return np.array([np.mean(d == 0), np.mean(d == 1), np.mean(d == 2), np.mean(d >= 3)])


@settings(max_examples=300, deadline=None)
@given(
    st.sets(st.integers(1, 200), max_size=10),
    st.sets(st.integers(1, 200), max_size=10),
    st.integers(1, 500),
)
def test_evaluate_sets_matches_the_separate_criteria(est, truth, domain):
    report = evaluate_sets(est, truth, domain)
    assert report.k_bias == len(truth) - len(est)
    if est and truth:
        assert not report.hausdorff_is_sentinel
        assert report.hausdorff == hausdorff(est, truth)
    else:
        assert report.hausdorff_is_sentinel == bool(est or truth)
        assert report.hausdorff == (domain if est or truth else 0.0)
    for hist, ref, other in ((report.hist_true, truth, est), (report.hist_est, est, truth)):
        if not ref:
            assert np.isnan(hist).all() and hist.shape == (4,)
            continue
        d = np.asarray(_brute_min_dists(sorted(ref), sorted(other)) if other else [3] * len(ref))
        assert hist.tobytes() == _mean_histogram(d).tobytes()


def test_evaluate_perfect_detection():
    signal = builtin_signal("TEETH")
    ts = simulate(signal, NoiseSpec.gaussian(0.05), seed=0)
    r = detect(ts, Hyperparameters.solo_defaults(140))
    report = evaluate_sets(r.selected, signal.changepoints, signal.length)
    assert report.k_bias == 0
    assert report.hausdorff == 0
    assert report.hist_true.tolist() == [1, 0, 0, 0]
    assert report.hist_est.tolist() == [1, 0, 0, 0]
    assert not report.hausdorff_is_sentinel


def test_evaluate_empty_estimate_sentinel():
    report = evaluate_sets([], (31, 61, 91, 121), 140)
    assert report.k_bias == 4
    assert report.hausdorff == 140
    assert report.hausdorff_is_sentinel
    assert report.hist_true.tolist() == [0, 0, 0, 1]
    assert np.all(np.isnan(report.hist_est))


def test_evaluate_both_empty():
    report = evaluate_sets([], (), 50)
    assert report.k_bias == 0
    assert report.hausdorff == 0
    assert not report.hausdorff_is_sentinel


def test_csv_row_layout():
    header = EvalReport.csv_header()
    assert header == [
        "true_zero", "true_one", "true_two", "true_ge3",
        "est_zero", "est_one", "est_two", "est_ge3",
        "k_bias", "hausdorff", "time_s",
    ]
    report = evaluate_sets([31, 62], (31, 61), 140)
    row = _aggregate([report], [0.125])  # the row the bench command writes
    assert len(row) == len(header)
    assert row[0] == "0.5"  # one of two true points matched exactly


def test_changepointset_inputs_accepted():
    a = ChangePointSet((5, 9))
    b = ChangePointSet((5, 11))
    assert hausdorff(a, b) == 4


@pytest.mark.parametrize("bad", [2.7, float("nan"), float("inf"), True, "3"])
def test_locations_that_are_not_whole_numbers_are_config_errors(bad):
    # a fraction is rejected, not truncated toward a whole location
    for call in (
        lambda: ChangePointSet((2, bad)),
        lambda: hausdorff([bad], [3]),
        lambda: evaluate_sets([bad, 9.9], [3, 10], 20),
        lambda: evaluate_sets([3], [bad], 20),
    ):
        with pytest.raises(InvalidConfigError, match="whole numbers|real number"):
            call()


def test_locations_that_are_not_a_sequence_are_config_errors():
    # an int was once iterated and raised a bare TypeError
    for call in (
        lambda: ChangePointSet(5),
        lambda: evaluate_sets([3], None, 10),
        lambda: hausdorff(3, [4]),
    ):
        with pytest.raises(InvalidConfigError, match="must be a sequence"):
            call()


def _nanmean(a):
    with warnings.catch_warnings():  # np.nanmean warns on an all-NaN column
        warnings.simplefilter("ignore", RuntimeWarning)
        return np.nanmean(a, axis=0)


@pytest.mark.parametrize("reps", range(1, 21))
def test_aggregate_histogram_means_are_nanmeans_bit_for_bit(reps):
    # random NaN patterns, all-NaN columns included, and no RuntimeWarning
    # (the test configuration turns one into an error)
    rng = np.random.default_rng(reps)
    for _ in range(50):
        hists = rng.uniform(0, 1, (reps, 8)) * 10.0 ** rng.integers(-3, 4, (reps, 8))
        hists[rng.uniform(size=(reps, 8)) < rng.uniform()] = np.nan
        want = _nanmean(hists)
        assert np.float64(_column_nanmeans(hists)).tobytes() == want.tobytes()
        reports = [EvalReport(1.0, False, 0, h[:4], h[4:]) for h in hists]
        assert _aggregate(reports, [0.0] * reps)[:8] == [f"{c:.6g}" for c in want]


@pytest.mark.parametrize("whole", [3, np.int64(3), np.int32(3), 3.0, np.float64(3.0)])
def test_whole_locations_of_any_numeric_type_are_accepted(whole):
    cps = ChangePointSet((2, whole))
    assert cps.locations == (2, 3) and type(cps.locations[1]) is int
    assert hausdorff([whole], [3]) == 0
    assert evaluate_sets([whole], np.array([whole]), 20).hausdorff == 0
