"""Accuracy criteria comparing an estimated change point set against truth:
evaluate_sets gives the symmetrized Hausdorff distance, the count bias and
both min-distance histograms from one nearest-point pass per direction."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySetError
from .types import checked_integer, checked_locations

_HIST_HEADER = ("zero", "one", "two", "ge3")


def _locations(s) -> np.ndarray:
    return np.asarray(sorted(checked_locations(s)), dtype=float)


def _min_distances(reference: np.ndarray, other: np.ndarray) -> np.ndarray:
    """For each reference point, distance to the nearest point of other (inf
    when other is empty). other is sorted; one searchsorted pass instead of
    the O(|a||b|) scan."""
    if other.size == 0:
        return np.full(reference.size, np.inf)
    pos = np.searchsorted(other, reference)
    left = np.where(pos > 0, np.abs(reference - other[np.maximum(pos - 1, 0)]), np.inf)
    right = np.where(
        pos < other.size, np.abs(other[np.minimum(pos, other.size - 1)] - reference), np.inf
    )
    return np.minimum(left, right)


def _histogram(d: np.ndarray) -> np.ndarray:
    """Shares of the distances d at 0, 1, 2 and >= 3, as np.mean(d == k) gives them."""
    return np.bincount(np.minimum(d, 3).astype(int), minlength=4) / d.size


def hausdorff(est, truth) -> float:
    """Order-invariant distance: d(est|truth) + d(truth|est), where d(a|b) is
    the largest distance from a point of b to the nearest point of a."""
    est, truth = _locations(est), _locations(truth)
    if est.size == 0 or truth.size == 0:
        raise EmptySetError("the Hausdorff distance needs both sets nonempty")
    return float(_min_distances(truth, est).max()) + float(_min_distances(est, truth).max())


@dataclass(frozen=True, eq=False)
class EvalReport:
    """One replication's criteria.

    hist_true buckets |est - truth| per true point (normalized by K);
    hist_est the reverse (normalized by K-hat, NaN when nothing was
    detected). A sentinel Hausdorff equal to the domain length is reported,
    and flagged, when exactly one of the sets is empty. It holds arrays, so
    it compares and hashes by identity.
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
    the given length (the signal length, or the group count of binned data),
    an integer >= 1, else InvalidConfigError."""
    domain_length = checked_integer(domain_length, "domain_length", 1)
    est_arr = _locations(est)
    truth_arr = _locations(truth)
    to_est = _min_distances(truth_arr, est_arr)  # each true point to the nearest estimate
    to_truth = _min_distances(est_arr, truth_arr)
    if est_arr.size and truth_arr.size:
        d, sentinel = float(to_est.max()) + float(to_truth.max()), False
    elif est_arr.size == 0 and truth_arr.size == 0:
        d, sentinel = 0.0, False
    else:
        d, sentinel = float(domain_length), True
    return EvalReport(
        hausdorff=d,
        hausdorff_is_sentinel=sentinel,
        k_bias=truth_arr.size - est_arr.size,
        hist_true=_histogram(to_est) if truth_arr.size else np.full(4, np.nan),
        hist_est=_histogram(to_truth) if est_arr.size else np.full(4, np.nan),
    )
