"""Detection post-processing: threshold the per-site inclusion probabilities,
merge candidates closer than delta into clusters, keep one representative per
cluster. Also the symmetrized single-change-point location criterion."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import EmptySearchWindowError, InvalidConfigError
from .gibbs import GibbsConfig, gibbs_inclusion_probabilities
from .posterior import inclusion_scores, posterior_mean_surface
from .types import BinnedSeries, ChangePointSet, DetectionResult, Hyperparameters, TimeSeries


def threshold_select(sites, probs, threshold: float) -> ChangePointSet:
    """Sites whose probability strictly exceeds the threshold."""
    sites = np.asarray(sites, dtype=int)
    probs = np.asarray(probs, dtype=float)
    keep = probs > threshold
    return ChangePointSet(tuple(int(s) for s in sites[keep]))


def cluster_partition(c0: ChangePointSet, delta: int) -> tuple[tuple[int, ...], ...]:
    """Split the sorted candidate set wherever a gap exceeds delta.

    This is the transitive closure of the pairwise |a - b| <= delta linkage
    on a line: within a group consecutive members are within delta, across
    groups all pairs are farther apart.
    """
    locs = c0.locations
    if not locs:
        return ()
    groups: list[list[int]] = [[locs[0]]]
    for a, b in zip(locs, locs[1:]):
        if b - a <= delta:
            groups[-1].append(b)
        else:
            groups.append([b])
    return tuple(tuple(g) for g in groups)


def pick_representatives(
    partition: tuple[tuple[int, ...], ...], probs: Mapping[int, float]
) -> ChangePointSet:
    """Highest-scoring member of each group; ties go to the smallest index.

    Scores are the inclusion probabilities or any monotone transform of them
    (the pipeline passes log-odds, which rank identically but do not saturate
    when several sites sit at probability 1.0 in double precision).
    """
    chosen = []
    for group in partition:
        best = group[0]
        best_p = probs[best]
        for site in group[1:]:
            p = probs[site]
            if p > best_p:
                best, best_p = site, p
        chosen.append(best)
    return ChangePointSet(tuple(chosen))


def select_changepoints(sites, probs, hypers: Hyperparameters, scores=None):
    """threshold -> cluster -> representative, returning all intermediates.

    probs drive the thresholding; scores (default probs) drive the in-cluster
    ranking.
    """
    c0 = threshold_select(sites, probs, hypers.threshold)
    clusters = cluster_partition(c0, hypers.delta)
    ranking = np.asarray(probs if scores is None else scores, dtype=float)
    # only the thresholded candidates are ranked
    candidate = np.asarray(probs, dtype=float) > hypers.threshold
    lookup = dict(zip(c0.locations, ranking[candidate].tolist()))
    selected = pick_representatives(clusters, lookup)
    return c0, clusters, selected


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
            gibbs_config = GibbsConfig(iterations=5000, burn_in=1000, seed=0)
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
    if not 0.0 < edge_fraction < 0.5:
        raise InvalidConfigError(f"edge_fraction must be in (0, 1/2), got {edge_fraction}")
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
