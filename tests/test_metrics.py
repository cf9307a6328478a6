import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solocp import (
    ChangePointSet,
    EmptySetError,
    Hyperparameters,
    TimeSeries,
    detect,
    distance_histogram,
    evaluate_sets,
    hausdorff,
    one_sided_hausdorff,
    simulate,
)
from solocp.cli import _aggregate
from solocp.metrics import EvalReport
from solocp.signals import NoiseSpec, builtin_signal


def test_one_sided_single_pair():
    assert one_sided_hausdorff([5], [3]) == 2


def test_one_sided_identity():
    assert one_sided_hausdorff([4, 9], [4, 9]) == 0


def test_one_sided_by_definition():
    assert one_sided_hausdorff([1, 10], [4, 9]) == 3


def test_hausdorff_symmetric_sum():
    assert hausdorff([5], [3]) == 4
    assert hausdorff([3, 100], [3]) == 97  # overestimation penalized
    assert hausdorff([4, 9], [4, 9]) == 0


def test_histogram_trivials():
    assert distance_histogram([10, 20, 30, 40], [10, 20, 30, 40]).tolist() == [1, 0, 0, 0]
    assert distance_histogram([10], [12]).tolist() == [0, 0, 1, 0]
    assert distance_histogram([10, 20], [10, 25]).tolist() == [0.5, 0, 0, 0.5]


def test_empty_sets_raise():
    with pytest.raises(EmptySetError):
        one_sided_hausdorff([], [3])
    with pytest.raises(EmptySetError):
        one_sided_hausdorff([3], [])
    with pytest.raises(EmptySetError):
        distance_histogram([], [3])


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
    assert one_sided_hausdorff(a_sorted, b_sorted) == brute_one
    assert hausdorff(a_sorted, b_sorted) == brute_one + max(
        _brute_min_dists(a_sorted, b_sorted)
    )
    assert hausdorff(a_sorted, b_sorted) == hausdorff(b_sorted, a_sorted)
    assert hausdorff(a_sorted, a_sorted) == 0
    assert hausdorff(a_sorted, b_sorted) >= one_sided_hausdorff(a_sorted, b_sorted)
    d = np.asarray(_brute_min_dists(a_sorted, b_sorted))
    expected = [
        np.mean(d == 0),
        np.mean(d == 1),
        np.mean(d == 2),
        np.mean(d >= 3),
    ]
    got = distance_histogram(a_sorted, b_sorted)
    assert got.tolist() == pytest.approx(expected)
    assert got.sum() == pytest.approx(1.0)
    assert np.all((got >= 0) & (got <= 1))


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
