"""Detection post-processing and the single-change-point locator.

select_changepoints thresholds the per-site inclusion probabilities, merges
candidates within delta of each other into clusters and keeps one
representative per cluster, all in one pass over the candidates. Also the
symmetrized single-change-point location criterion."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySearchWindowError, InvalidConfigError
from .gibbs import GibbsConfig, gibbs_inclusion_probabilities
from .posterior import inclusion_scores, posterior_mean_surface
from .types import (
    BinnedSeries, ChangePointSet, DetectionResult, Hyperparameters, TimeSeries, checked_number
)


def select_changepoints(sites, probs, hypers: Hyperparameters, scores=None):
    """Candidates, their clusters and one representative per cluster, in one
    pass over the sites whose probability strictly exceeds hypers.threshold.

    A gap greater than hypers.delta between consecutive candidates starts a
    new cluster: on a line this is the transitive closure of the pairwise
    |a - b| <= delta linkage. Each cluster keeps its highest-scoring member,
    the smallest site on ties. scores (default probs) are the probabilities
    or any monotone transform of them (the solo path passes log-odds, which
    rank identically but do not saturate when several sites sit at
    probability 1.0 in double precision).
    """
    probs = np.asarray(probs, dtype=float)
    keep = probs > hypers.threshold
    candidates = np.asarray(sites, dtype=int)[keep].tolist()
    ranking = (probs if scores is None else np.asarray(scores, dtype=float))[keep].tolist()
    clusters, selected = [], []
    for site, score in zip(candidates, ranking):
        if clusters and site - clusters[-1][-1] <= hypers.delta:
            clusters[-1].append(site)
            if score > best:
                selected[-1], best = site, score
        else:
            clusters.append([site])
            selected.append(site)
            best = score
    clusters = tuple(tuple(c) for c in clusters)
    return ChangePointSet(tuple(candidates)), clusters, ChangePointSet(tuple(selected))


def detect(
    series: TimeSeries | BinnedSeries,
    hypers: Hyperparameters,
    method: str = "solo",
    gibbs_config: GibbsConfig | None = None,
) -> DetectionResult:
    """Run the full detection pipeline on a series.

    method "solo" uses the closed-form single-site marginals; "basad" uses
    the Gibbs-sampled joint model (gibbs_config required). Candidate sites
    are 2..M; deterministic given (series, hypers) and, for basad, the seed.
    """
    m = series.length
    sites = np.arange(2, m + 1)
    if method == "solo":
        probs, scores = inclusion_scores(series, hypers)
    elif method == "basad":
        if gibbs_config is None:
            gibbs_config = GibbsConfig()
        probs = gibbs_inclusion_probabilities(series, hypers, gibbs_config)[1:]
        scores = probs
    else:
        raise InvalidConfigError(f"unknown method {method!r}")
    c0, clusters, selected = select_changepoints(sites, probs, hypers, scores=scores)
    return DetectionResult(
        sites=sites,
        probabilities=probs,
        raw_candidates=c0,
        clusters=clusters,
        selected=selected,
        sigma=series.noise_sd,
    )


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
    """Maximize |(mu_{1,j} + mu'_{1,T-j+1}) / 2| over the interior window
    min(T-j, j) >= edge_fraction * T.

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
    sites = np.arange(1, t + 1)
    window = np.minimum(t - sites, sites) >= edge_fraction * t
    if not window.any():
        raise EmptySearchWindowError(
            f"no site satisfies min(T-j, j) >= {edge_fraction} * {t}"
        )
    criterion = np.abs(0.5 * (mu_fwd + mu_rev[::-1]))
    criterion[~window] = -np.inf
    best = criterion.max()
    site = int(sites[criterion >= best][-1])
    floor = 2.0 * series.noise_sd * math.sqrt(math.log(t) / t)
    return SingleChangePoint(
        site=site, criterion=float(best), low_confidence=bool(best < floor)
    )
