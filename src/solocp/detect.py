"""Detection post-processing and the single-change-point locator.

select_changepoints thresholds the per-site inclusion probabilities, splits
the candidates into clusters wherever two consecutive ones lie more than delta
apart and keeps one representative per cluster, with array rules and no loop
over the candidates. Entry i of every per-site array belongs to site i + 2, so
the arrays cover sites 2..M. Also the symmetrized single-change-point location
criterion."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySearchWindowError, InvalidConfigError, NumericOverflowError
from .gibbs import GibbsConfig, gibbs_inclusion_probabilities
from .posterior import inclusion_scores, posterior_mean_surface
from .types import (
    BinnedSeries, ChangePointSet, DetectionResult, Hyperparameters, TimeSeries,
    checked_float_array, checked_number,
)


def select_changepoints(probs, scores, hypers: Hyperparameters) -> DetectionResult:
    """The DetectionResult of probs: the candidates, the sites whose
    probability strictly exceeds hypers.threshold, their clusters and one
    representative per cluster.

    probs[i] and scores[i] belong to site i + 2. A gap greater than
    hypers.delta between consecutive candidates starts a new cluster: on a
    line this is the transitive closure of the pairwise |a - b| <= delta
    linkage. Each cluster keeps its highest-scoring member, the smallest site
    on ties. scores are the probabilities or any monotone transform of them
    (the solo path passes log-odds, which rank identically but do not
    saturate when several sites sit at probability 1.0 in double precision).
    probs and scores must be real numbers, probs 1-D and scores of its
    shape, else InvalidConfigError; a NaN probability, or a NaN score at a
    candidate, raises NumericOverflowError.
    """
    probs, scores = checked_float_array(probs, "probs"), checked_float_array(scores, "scores")
    if probs.ndim != 1 or scores.shape != probs.shape:
        raise InvalidConfigError(
            f"probs must be 1-D and scores the same shape, got {probs.shape} and {scores.shape}"
        )
    keep = probs > hypers.threshold
    ranking = scores[keep]
    if np.isnan(probs).any() or np.isnan(ranking).any():
        raise NumericOverflowError("inclusion probabilities or candidate scores are NaN")
    sites = np.flatnonzero(keep) + 2
    # clusters open at the first candidate and after each gap wider than delta,
    # which is never subtracted: a valid delta can exceed int64
    starts = np.flatnonzero(np.concatenate(([sites.size > 0], np.diff(sites) > hypers.delta)))
    best = np.maximum.reduceat(ranking, starts).tolist()
    bounds, sites, ranking = [*starts.tolist(), sites.size], sites.tolist(), ranking.tolist()
    spans = list(zip(bounds, bounds[1:]))
    clusters = tuple(tuple(sites[a:b]) for a, b in spans)
    # index finds the first member that reaches the best score: ties go to the smallest site
    selected = [sites[ranking.index(top, a, b)] for (a, b), top in zip(spans, best)]
    return DetectionResult(probs, ChangePointSet(sites), clusters, ChangePointSet(selected))


def detect(
    series: TimeSeries | BinnedSeries,
    hypers: Hyperparameters,
    method: str = "solo",
    gibbs_config: GibbsConfig = GibbsConfig(),
) -> DetectionResult:
    """Run the full detection pipeline on a series.

    method "solo" uses the closed-form single-site marginals; "basad" uses
    the Gibbs-sampled joint model, run with gibbs_config. Candidate sites
    are 2..M; deterministic given (series, hypers) and, for basad, the seed.
    """
    if method == "solo":
        probs, scores = inclusion_scores(series, hypers)
    elif method == "basad":
        probs = gibbs_inclusion_probabilities(series, hypers, gibbs_config)[1:]
        scores = probs
    else:
        raise InvalidConfigError(f"unknown method {method!r}")
    return select_changepoints(probs, scores, hypers)


@dataclass(frozen=True)
class SingleChangePoint:
    """Location estimate under the exactly-one-change-point assumption.

    criterion is the maximized statistic; low_confidence flags criteria below
    the noise floor 2 sigma sqrt(log T / T), where no-change data cannot be
    distinguished from a genuine jump.
    """

    site: int
    criterion: float
    low_confidence: bool


def checked_edge_fraction(edge_fraction) -> float:
    """edge_fraction as a float in (0, 1/2), else InvalidConfigError."""
    value = checked_number(edge_fraction, "edge_fraction")
    if not 0.0 < value < 0.5:
        raise InvalidConfigError(f"edge_fraction must be in (0, 1/2), got {value}")
    return value


def single_cp_locate(
    series: TimeSeries, hypers: Hyperparameters, edge_fraction: float
) -> SingleChangePoint:
    """Maximize |(mu_{1,j} + mu'_{1,T-j+1}) / 2| over the sites j in 2..T of
    the interior window min(T-j, j) >= edge_fraction * T; site 1 is the
    baseline increment, never a change point.

    mu' is the slab posterior-mean surface of the reversed, negated series;
    the averaging restores one-sided discrimination on both flanks of the
    jump. Ties go to the largest index (a noiseless antisymmetric step ties
    its two center sites exactly; the larger one is the first index of the
    new segment). Plain series only: binned input raises InvalidConfigError.
    """
    if not isinstance(series, TimeSeries):
        raise InvalidConfigError("single-change-point location expects plain t,y data")
    edge_fraction = checked_edge_fraction(edge_fraction)
    t = series.length
    mu_fwd = posterior_mean_surface(series, hypers)
    reversed_neg = TimeSeries(-series.values[::-1], series.noise_sd)
    mu_rev = posterior_mean_surface(reversed_neg, hypers)
    sites = np.arange(2, t + 1)
    window = np.minimum(t - sites, sites) >= edge_fraction * t
    if not window.any():
        raise EmptySearchWindowError(
            f"no site in 2..{t} satisfies min(T-j, j) >= {edge_fraction} * {t}"
        )
    criterion = np.abs(0.5 * (mu_fwd + mu_rev[::-1]))[1:]
    criterion[~window] = -np.inf
    best = criterion.max()
    site = int(sites[criterion >= best][-1])
    floor = 2.0 * series.noise_sd * math.sqrt(math.log(t) / t)
    return SingleChangePoint(
        site=site, criterion=float(best), low_confidence=bool(best < floor)
    )
