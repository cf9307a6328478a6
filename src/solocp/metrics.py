"""Accuracy criteria comparing an estimated change point set against truth:
the symmetrized Hausdorff distance, the count bias, and the normalized
min-distance histograms."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySetError

_HIST_HEADER = ("zero", "one", "two", "ge3")


def _locations(s) -> np.ndarray:
    return np.asarray(sorted(int(x) for x in s), dtype=float)


def _min_distances(reference: np.ndarray, other: np.ndarray) -> np.ndarray:
    """For each reference point, distance to the nearest point of other.
    other is sorted; one searchsorted pass instead of the O(|a||b|) scan."""
    pos = np.searchsorted(other, reference)
    left = np.where(pos > 0, np.abs(reference - other[np.maximum(pos - 1, 0)]), np.inf)
    right = np.where(
        pos < other.size, np.abs(other[np.minimum(pos, other.size - 1)] - reference), np.inf
    )
    return np.minimum(left, right)


def one_sided_hausdorff(a, b) -> float:
    """max over points of b of the distance to the nearest point of a."""
    a = _locations(a)
    b = _locations(b)
    if a.size == 0 or b.size == 0:
        raise EmptySetError("one-sided distance needs both sets nonempty")
    return float(_min_distances(b, a).max())


def hausdorff(est, truth) -> float:
    """Order-invariant distance: d(est|truth) + d(truth|est)."""
    return one_sided_hausdorff(est, truth) + one_sided_hausdorff(truth, est)


def distance_histogram(reference, other) -> np.ndarray:
    """Proportion of reference points at distance 0, 1, 2, and >= 3 from the
    other set. An empty other set puts all mass in the >= 3 bucket."""
    ref = _locations(reference)
    if ref.size == 0:
        raise EmptySetError("reference set is empty")
    oth = _locations(other)
    if oth.size == 0:
        return np.array([0.0, 0.0, 0.0, 1.0])
    d = _min_distances(ref, oth)
    return np.array(
        [
            np.mean(d == 0),
            np.mean(d == 1),
            np.mean(d == 2),
            np.mean(d >= 3),
        ]
    )


@dataclass(frozen=True)
class EvalReport:
    """One replication's criteria.

    hist_true buckets |est - truth| per true point (normalized by K);
    hist_est the reverse (normalized by K-hat, NaN when nothing was
    detected). A sentinel Hausdorff equal to the domain length is reported,
    and flagged, when exactly one of the sets is empty.
    """

    hausdorff: float
    hausdorff_is_sentinel: bool
    k_bias: int
    hist_true: np.ndarray
    hist_est: np.ndarray

    @staticmethod
    def csv_header() -> list[str]:
        cols = [f"true_{h}" for h in _HIST_HEADER] + [f"est_{h}" for h in _HIST_HEADER]
        return cols + ["k_bias", "hausdorff", "time_s"]


def evaluate_sets(est, truth, domain_length: int) -> EvalReport:
    """Criteria for an estimated set against true locations on a domain of
    the given length (the signal length, or the group count of binned data)."""
    est_arr = _locations(est)
    truth_arr = _locations(truth)
    k_bias = truth_arr.size - est_arr.size
    if est_arr.size and truth_arr.size:
        d = hausdorff(est_arr, truth_arr)
        sentinel = False
    elif est_arr.size == 0 and truth_arr.size == 0:
        d, sentinel = 0.0, False
    else:
        d, sentinel = float(domain_length), True
    hist_true = (
        distance_histogram(truth_arr, est_arr) if truth_arr.size else np.full(4, np.nan)
    )
    hist_est = (
        distance_histogram(est_arr, truth_arr) if est_arr.size else np.full(4, np.nan)
    )
    return EvalReport(
        hausdorff=d,
        hausdorff_is_sentinel=sentinel,
        k_bias=int(k_bias),
        hist_true=hist_true,
        hist_est=hist_est,
    )
