import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solocp import (
    EmptySearchWindowError,
    GibbsConfig,
    Hyperparameters,
    InvalidConfigError,
    NumericOverflowError,
    TimeSeries,
    detect,
    select_changepoints,
    single_cp_locate,
)


def _hypers(delta=2, threshold=0.5):
    """Hyperparameters with only the post-processing knobs set."""
    return Hyperparameters(
        tau0_sq=0.1, tau1_sq=1.0, tau_sq=0.1, q=0.1, delta=delta, threshold=threshold
    )


def _select(sites, probs, delta=2, threshold=0.5, scores=None):
    """select_changepoints on the listed sites (increasing, from 2): probs and
    scores (default probs) go to their positions in dense arrays over sites
    2..max(sites), and every unlisted site gets probability 0, which no
    threshold in (0, 1) keeps."""
    sites = np.asarray(sites, dtype=int)
    dense_probs = np.zeros(sites.max() - 1)
    dense_scores = np.zeros(sites.max() - 1)
    dense_probs[sites - 2] = probs
    dense_scores[sites - 2] = probs if scores is None else scores
    return select_changepoints(dense_probs, dense_scores, _hypers(delta, threshold))


def test_threshold_all_below():
    r = _select([2, 3, 4], [0.3, 0.3, 0.3])
    assert r.raw_candidates.locations == () and r.clusters == () and r.selected.locations == ()


def test_threshold_by_definition():
    probs = {7: 0.9, 8: 0.6, 20: 0.8}
    sites = list(range(2, 31))
    p = [probs.get(s, 0.0) for s in sites]
    assert _select(sites, p).raw_candidates.locations == (7, 8, 20)
    assert _select(np.array(sites), np.array(p)).raw_candidates.locations == (7, 8, 20)


def test_threshold_is_strict():
    assert _select([2, 3], [0.5, 0.6]).raw_candidates.locations == (3,)


def test_cluster_gap_rule():
    assert _select([10, 12, 30], [0.9, 0.9, 0.9], delta=2).clusters == ((10, 12), (30,))


def test_cluster_delta_zero_singletons():
    assert _select([4, 5, 9], [0.9, 0.9, 0.9], delta=0).clusters == ((4,), (5,), (9,))


def test_cluster_chained_linkage():
    # pairwise linkage is transitive on a line: 3..9 chain in steps of 2
    assert _select([3, 5, 7, 9], [0.9] * 4, delta=2).clusters == ((3, 5, 7, 9),)


def test_representatives_argmax():
    assert _select([10, 12], [0.9, 0.6]).selected.locations == (10,)
    # scores, not probabilities, rank the members of a cluster
    assert _select([10, 12], [0.9, 0.6], scores=[1.0, 2.0]).selected.locations == (12,)


def test_representatives_tie_smallest():
    assert _select([10, 12], [0.9, 0.9]).selected.locations == (10,)


def test_representatives_singleton():
    assert _select([8], [0.7]).selected.locations == (8,)


def test_nan_probability_raises():
    # a NaN probability is neither above nor below the threshold
    with pytest.raises(NumericOverflowError):
        _select([10, 12, 14], [0.9, float("nan"), 0.1])


def test_nan_candidate_score_raises():
    # a NaN score would otherwise win or lose its cluster by position
    with pytest.raises(NumericOverflowError):
        _select([10, 12], [0.9, 0.9], scores=[float("nan"), 5.0])
    with pytest.raises(NumericOverflowError):
        _select([10, 12], [0.9, 0.9], scores=[5.0, float("nan")])


def test_nan_score_below_threshold_is_ignored():
    assert _select([10, 12], [0.9, 0.1], scores=[1.0, float("nan")]).selected.locations == (10,)


@pytest.mark.parametrize(
    "probs, scores",
    [
        ([0.9, 0.9], [1.0]),
        ([0.9, 0.9], [1.0, 2.0, 3.0]),
        ([[0.9, 0.9]], [[1.0, 2.0]]),
        (0.9, 1.0),
    ],
)
def test_probs_not_1d_or_scores_of_another_shape_are_config_errors(probs, scores):
    with pytest.raises(InvalidConfigError):
        select_changepoints(probs, scores, _hypers())


@pytest.mark.parametrize("delta", [2**63, 10**300])
def test_huge_delta_makes_one_cluster(delta):
    r = _select([2, 5, 40, 90], [0.6, 0.9, 0.7, 0.95], delta=delta)
    assert r.clusters == ((2, 5, 40, 90),) and r.selected.locations == (90,)


def _brute_components(locs, delta):
    """Connected components of the |a-b| <= delta graph, by union-find."""
    locs = sorted(locs)
    parent = list(range(len(locs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(locs)):
        for k in range(len(locs)):
            if i != k and abs(locs[i] - locs[k]) <= delta:
                parent[find(i)] = find(k)
    groups = {}
    for i, loc in enumerate(locs):
        groups.setdefault(find(i), []).append(loc)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values()))


@settings(max_examples=200, deadline=None)
@given(
    st.sets(st.integers(2, 60), min_size=1, max_size=12),
    st.integers(0, 8),
)
def test_partition_matches_brute_force_components(locs, delta):
    sites = sorted(locs)
    clusters = _select(sites, [0.9] * len(sites), delta=delta).clusters
    assert clusters == _brute_components(locs, delta)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.sampled_from([-np.inf, 0.0, 1.0, 2.0, 3.0, np.inf])),
        min_size=1,
        max_size=40,
    ),
    st.integers(0, 8),
    st.sampled_from([0.1, 0.25, 0.5, 0.75]),
    st.booleans(),
)
def test_selection_matches_brute_force(rows, delta, threshold, rank_by_probs):
    # coarse probabilities and scores force ties at the threshold and in
    # clusters; the infinite scores are the log-odds at q in {0, 1}
    sites = list(range(2, len(rows) + 2))
    probs = [p / 4 for p, _ in rows]
    scores = None if rank_by_probs else [r for _, r in rows]
    r = _select(sites, probs, delta, threshold, scores)
    ranking = dict(zip(sites, probs if scores is None else scores))
    want_c0 = tuple(s for s, p in zip(sites, probs) if p > threshold)
    want_clusters = _brute_components(want_c0, delta) if want_c0 else ()
    # max returns the first maximum, and each group is in site order
    want_selected = tuple(max(g, key=ranking.__getitem__) for g in want_clusters)
    assert (r.raw_candidates.locations, r.clusters, r.selected.locations) == (
        want_c0, want_clusters, want_selected
    )


_SPREAD = 400  # sites 2.._SPREAD + 1


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(
        st.integers(2, _SPREAD + 1),
        st.tuples(
            st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
            st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf]),
        ),
        max_size=30,
    ),
    st.one_of(st.integers(0, 40), st.integers(0, 10**30)),
    st.sampled_from([0.25, 0.5, 0.9]),
)
def test_selection_matches_linkage_closure_at_any_delta(rows, delta, threshold):
    # sparse sites spread the gaps; delta reaches far past int64, and the coarse
    # values force ties, +-inf scores and draws with no candidate at all
    probs, scores = np.zeros(_SPREAD), np.zeros(_SPREAD)
    for site, (p, score) in rows.items():
        probs[site - 2], scores[site - 2] = p, score
    r = select_changepoints(probs, scores, _hypers(delta, threshold))
    want_c0 = tuple(sorted(s for s, (p, _) in rows.items() if p > threshold))
    want_clusters = _brute_components(want_c0, delta)
    want_selected = []
    for group in want_clusters:
        best = max(rows[s][1] for s in group)
        want_selected.append(next(s for s in group if rows[s][1] == best))
    assert (r.raw_candidates.locations, r.clusters, r.selected.locations) == (
        want_c0, want_clusters, tuple(want_selected)
    )


def test_khat_monotone_nonincreasing_in_delta():
    rng = np.random.default_rng(0)
    probs = rng.random(58)  # sites 2..59
    prev = None
    for delta in (0, 1, 2, 4, 8, 16):
        h = Hyperparameters(tau0_sq=0.1, tau1_sq=1.0, tau_sq=0.1, q=0.1, delta=delta)
        selected = select_changepoints(probs, probs, h).selected
        if prev is not None:
            assert selected.count <= prev
        prev = selected.count


@pytest.mark.parametrize("method", ["solo", "basad"])
def test_detect_returns_the_selection_result_as_it_is(monkeypatch, method):
    # detect looks select_changepoints up as a module global, where a tracer wraps it
    returned = []

    def recording(*args):
        returned.append(select_changepoints(*args))
        return returned[-1]

    # the package's `detect` attribute is the function, so fetch the module itself
    detect_module = importlib.import_module("solocp.detect")
    monkeypatch.setattr(detect_module, "select_changepoints", recording)
    ts = TimeSeries(np.where(np.arange(40) >= 20, 3.0, 0.0) + np.sin(np.arange(40)), 1.0)
    r = detect(ts, Hyperparameters.solo_defaults(40), method, GibbsConfig(200, 50, seed=0))
    assert len(returned) == 1 and r is returned[0]
    assert r.probabilities.shape == (39,) and not r.probabilities.flags.writeable


def test_detect_constant_series_finds_nothing():
    ts = TimeSeries(np.full(30, 1.0), 1.0)
    r = detect(ts, Hyperparameters.solo_defaults(30))
    assert r.selected.count == 0
    assert r.raw_candidates.count == 0
    assert r.clusters == ()


def test_detect_unknown_method_is_config_error():
    with pytest.raises(InvalidConfigError):
        detect(TimeSeries(np.zeros(10), 1.0), Hyperparameters.solo_defaults(10), method="bogus")


def test_detect_single_jump_exact():
    rng = np.random.default_rng(0)
    f = np.where(np.arange(1, 101) >= 50, 10.0, 0.0)
    ts = TimeSeries(f + rng.normal(0, 1, 100), 1.0)
    r = detect(ts, Hyperparameters.solo_defaults(100))
    assert r.selected.locations == (50,)


def test_detect_is_deterministic_and_consistent():
    rng = np.random.default_rng(1)
    f = np.where(np.arange(1, 81) >= 40, 2.0, 0.0)
    ts = TimeSeries(f + rng.normal(0, 1, 80), 1.0)
    h = Hyperparameters.solo_defaults(80)
    r1 = detect(ts, h)
    r2 = detect(ts, h)
    assert r1.selected.locations == r2.selected.locations
    assert np.array_equal(r1.probabilities, r2.probabilities)
    # one representative per cluster, drawn from the raw candidates
    assert r1.selected.count == len(r1.clusters)
    assert set(r1.selected.locations) <= set(r1.raw_candidates.locations)
    for group, rep in zip(r1.clusters, r1.selected.locations):
        assert rep in group


def test_single_cp_antisymmetric_step():
    t = 40
    y = np.where(np.arange(1, t + 1) <= t // 2, -1.0, 1.0)
    ts = TimeSeries(y, 1.0)
    h = Hyperparameters.solo_defaults(t)
    res = single_cp_locate(ts, h, 0.05)
    assert res.site == t // 2 + 1
    assert not res.low_confidence


def test_single_cp_reversal_equivariance():
    rng = np.random.default_rng(2)
    t = 120
    f = np.where(np.arange(1, t + 1) >= 45, 1.5, 0.0)
    y = f + rng.normal(0, 0.5, t)
    ts = TimeSeries(y, 0.5)
    h = Hyperparameters.solo_defaults(t)
    fwd = single_cp_locate(ts, h, 0.1)
    rev = single_cp_locate(TimeSeries(-y[::-1], 0.5), h, 0.1)
    assert rev.site == t - fwd.site + 1
    assert rev.criterion == pytest.approx(fwd.criterion, rel=1e-12)


def test_single_cp_constant_series_flags_low_confidence():
    rng = np.random.default_rng(3)
    ts = TimeSeries(rng.normal(0, 1.0, 100) * 0.001, 1.0)
    res = single_cp_locate(ts, Hyperparameters.solo_defaults(100), 0.1)
    assert 10 <= res.site <= 90
    assert res.low_confidence


def test_single_cp_empty_window():
    ts = TimeSeries(np.array([0.0, 1.0, 2.0]), 1.0)
    with pytest.raises(EmptySearchWindowError):
        single_cp_locate(ts, Hyperparameters.solo_defaults(3), 0.45)


@pytest.mark.parametrize("t", [8, 12, 16])
def test_single_cp_never_returns_the_baseline_site(t):
    # site 1 is the baseline increment: f_0 is pinned to 0, so the level 10
    # made it the largest criterion
    y = 10.0 + 2.0 * (np.arange(1, t + 1) > t / 2)
    res = single_cp_locate(TimeSeries(y, 0.3), Hyperparameters.solo_defaults(t), 0.05)
    assert 2 <= res.site <= t


def test_detect_basad_smoke():
    rng = np.random.default_rng(4)
    f = np.where(np.arange(1, 41) >= 20, 3.0, 0.0)
    ts = TimeSeries(f + rng.normal(0, 1, 40), 1.0)
    h = Hyperparameters.basad_defaults(40)
    cfg = GibbsConfig(iterations=2000, burn_in=500, seed=0)
    r = detect(ts, h, method="basad", gibbs_config=cfg)
    assert r.selected.count == 1
    assert abs(r.selected.locations[0] - 20) <= 1
