import ast
import importlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import solocp
from solocp import (
    BinnedSeries,
    ChangePointSet,
    Hyperparameters,
    InvalidConfigError,
    InvalidHyperparameterError,
    NonFiniteValueError,
    NonPositiveSigmaError,
    TimeSeries,
    TooShortError,
)
from solocp.posterior import all_site_posteriors
from solocp.types import (
    checked_indicators, checked_integer, checked_size, inclusion_probability, prior_log_odds
)


def test_validate_series_minimal():
    ts = TimeSeries(np.asarray([1.0, 2.0], dtype=float), 1.0)
    assert ts.length == 2
    assert ts.noise_sd == 1.0


def test_validate_series_too_short():
    with pytest.raises(TooShortError):
        TimeSeries(np.asarray([1.0], dtype=float), 1.0)


@pytest.mark.parametrize(
    "values, shape",
    [(np.zeros((3, 3)), r"\(3, 3\)"), (np.zeros((1, 5)), r"\(1, 5\)"), (np.zeros(1), r"\(1,\)"),
     (np.float64(2.0), r"\(\)")],
)
def test_too_short_message_names_the_shape(values, shape):
    with pytest.raises(TooShortError, match=r"in one dimension, got shape " + shape):
        TimeSeries(values, 1.0)


def test_validate_series_non_finite():
    with pytest.raises(NonFiniteValueError):
        TimeSeries(np.asarray([1.0, np.nan], dtype=float), 1.0)
    with pytest.raises(NonFiniteValueError):
        TimeSeries(np.asarray([1.0, np.inf], dtype=float), 1.0)


def test_validate_series_bad_sigma():
    with pytest.raises(NonPositiveSigmaError):
        TimeSeries(np.asarray([1.0, 2.0], dtype=float), 0.0)
    with pytest.raises(NonPositiveSigmaError):
        TimeSeries(np.asarray([1.0, 2.0], dtype=float), -1.0)


def test_series_values_read_only():
    ts = TimeSeries(np.asarray([1.0, 2.0, 3.0], dtype=float), 1.0)
    with pytest.raises(ValueError):
        ts.values[0] = 9.0


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=20))
def test_binned_round_trip_is_identity(values):
    ts = TimeSeries(np.asarray(values), 1.5)
    back = BinnedSeries(ts.values, ts.noise_sd, counts=ts.counts)
    assert np.array_equal(back.values, ts.values) and np.array_equal(back.sums, ts.sums)
    assert back.noise_sd == ts.noise_sd and back.length == back.values.size == ts.length


def test_binned_series_invariants():
    bs = BinnedSeries((np.array([1.0, 2.0]), np.array([3.0])), 2.0)
    assert bs.length == 2
    assert bs.values.size == 3
    assert np.array_equal(bs.counts, [2, 1])
    assert np.array_equal(bs.sums, [3.0, 3.0])
    with pytest.raises(TooShortError):
        BinnedSeries((np.array([1.0]),), 1.0)
    with pytest.raises(TooShortError):
        BinnedSeries((np.array([1.0]), np.array([])), 1.0)


def _same_series(a, b):
    for name in ("values", "counts", "sums"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


@given(
    st.lists(st.integers(1, 6), min_size=2, max_size=30),
    st.integers(0, 2**32 - 1),
    st.floats(0.1, 10.0),
)
def test_flat_and_group_forms_agree(sizes, seed, s):
    flat = np.random.default_rng(seed).normal(0.0, 3.0, sum(sizes))
    groups = np.split(flat, np.cumsum(sizes)[:-1])
    bs = BinnedSeries(tuple(groups), s)
    assert bs.values.tobytes() == np.concatenate(groups).tobytes()
    assert np.array_equal(bs.counts, [g.size for g in groups])
    _same_series(bs, BinnedSeries(flat, s, counts=sizes))
    # numeric strings parse alike in both forms, as in TimeSeries
    texts = [[repr(v) for v in g.tolist()] for g in groups]
    _same_series(bs, BinnedSeries(texts, s))
    _same_series(bs, BinnedSeries(sum(texts, []), s, counts=sizes))
    wider = replace(bs, noise_sd=2 * s)
    assert wider.noise_sd == 2 * s
    _same_series(wider, bs)
    with pytest.raises(TooShortError):  # counts that miss a value
        BinnedSeries(flat[:-1], s, counts=sizes)
    with pytest.raises(TooShortError):  # an empty group
        BinnedSeries(flat, s, counts=[*sizes, 0])
    with pytest.raises(TooShortError):  # fewer than 2 groups
        BinnedSeries(flat, s, counts=[flat.size])
    with pytest.raises(NonFiniteValueError):
        BinnedSeries(np.where(np.arange(flat.size) == seed % flat.size, np.nan, flat), s,
                     counts=sizes)


def test_hyperparameter_validation():
    with pytest.raises(InvalidHyperparameterError):
        Hyperparameters(tau0_sq=0.0, tau1_sq=1.0, tau_sq=1.0, q=0.1, delta=1)
    with pytest.raises(InvalidHyperparameterError):
        Hyperparameters(tau0_sq=2.0, tau1_sq=1.0, tau_sq=1.0, q=0.1, delta=1)
    with pytest.raises(InvalidHyperparameterError):
        Hyperparameters(tau0_sq=0.1, tau1_sq=1.0, tau_sq=1.0, q=1.5, delta=1)
    with pytest.raises(InvalidHyperparameterError):
        Hyperparameters(tau0_sq=0.1, tau1_sq=1.0, tau_sq=1.0, q=0.1, delta=-1)
    with pytest.raises(InvalidHyperparameterError):
        Hyperparameters(tau0_sq=0.1, tau1_sq=1.0, tau_sq=1.0, q=0.1, delta=1, threshold=1.0)
    for delta in (1.5, float("nan"), float("inf")):
        with pytest.raises(InvalidHyperparameterError):
            Hyperparameters(tau0_sq=0.1, tau1_sq=1.0, tau_sq=1.0, q=0.1, delta=delta)


@pytest.mark.parametrize("field,value", [
    ("q", True), ("delta", True), ("tau0_sq", True), ("threshold", False),
    ("tau_sq", "0.1"), ("tau1_sq", None), ("delta", "2"), ("delta", 10**400),
])
def test_hyperparameters_reject_rather_than_convert(field, value):
    # once: q=True and delta=True constructed and were kept as bools
    fields = dict(tau0_sq=0.1, tau1_sq=1.0, tau_sq=0.1, q=0.1, delta=1, threshold=0.5)
    with pytest.raises(InvalidConfigError):
        Hyperparameters(**{**fields, field: value})


def test_hyperparameters_store_floats_and_an_int_delta():
    h = Hyperparameters(np.float64(0.1), 1, np.float32(0.5), np.float64(0.2), np.int64(3), 0.5)
    assert [type(v) for v in vars(h).values()] == [float, float, float, float, int, float]
    assert Hyperparameters(0.1, 1.0, 0.1, 0.1, delta=2.0).delta == 2


def test_default_rule_switches_on_length():
    small = Hyperparameters.solo_defaults(140)
    assert small.tau_sq == pytest.approx(2.0 / 140)
    assert small.delta == 2
    assert small.tau0_sq == pytest.approx(1.0 / 140)
    assert small.tau1_sq == 140.0
    large = Hyperparameters.solo_defaults(2048)
    assert large.tau_sq == pytest.approx(2.0 / np.sqrt(2048))
    assert large.delta == 5


@pytest.mark.parametrize("defaults", [Hyperparameters.solo_defaults, Hyperparameters.basad_defaults])
def test_both_defaults_share_q_the_delta_rule_and_overrides(defaults):
    assert [(defaults(t).q, defaults(t).delta) for t in (500, 501)] == [(0.1, 2), (0.1, 5)]
    h = defaults(501, q=0.3, delta=1)
    assert (h.q, h.delta, h.tau0_sq) == (0.3, 1, defaults(501).tau0_sq)
    with pytest.raises(TypeError):  # an unknown key, which the config loader reports
        defaults(501, qq=0.3)


@pytest.mark.parametrize("value", [2, 2**53, np.int64(140)])
def test_checked_size_accepts_integers_from_2_to_2_53(value):
    size = checked_size(value, "grid")
    assert size == value and type(size) is int


@pytest.mark.parametrize("value", [1, 2**53 + 1, 10**30, True, 2.0, "8"])
def test_checked_size_rejects_other_values(value):
    # past 2**53 numpy fails on the size with ValueError or OverflowError
    with pytest.raises(InvalidConfigError, match="^grid must be an integer"):
        checked_size(value, "grid")


@pytest.mark.parametrize(
    "value, low, high", [(0, 0, None), (10**30, 0, None), (np.int64(5), 1, 5), (1, 1, 1)]
)
def test_checked_integer_accepts_integers_in_the_range(value, low, high):
    n = checked_integer(value, "seed", low, high)
    assert n == value and type(n) is int


@pytest.mark.parametrize("value, high, message", [
    (-1, None, "seed must be an integer >= 0, got -1"),
    (100_001, 100_000, "seed must be an integer from 0 to 100,000, got 100001"),
    (True, None, "seed must be an integer, got True"),
    (2.0, None, "seed must be an integer, got 2.0"),
    ("3", None, "seed must be an integer, got '3'"),
])
def test_checked_integer_rejects_other_values(value, high, message):
    with pytest.raises(InvalidConfigError) as info:
        checked_integer(value, "seed", 0, high)
    assert str(info.value) == message


def test_noise_sd_is_kept_as_a_float():
    assert type(TimeSeries([1.0, 2.0], 1).noise_sd) is float
    assert type(BinnedSeries([[1.0], [2.0]], np.float32(0.5)).noise_sd) is float


@pytest.mark.parametrize(
    "z", [[True, False, True], [1, 0, 1], np.array([1, 0, 1], np.int8), np.array([1.0, 0.0, 1.0])]
)
def test_checked_indicators_gives_bools(z):
    out = checked_indicators(z, 3)
    assert out.dtype == bool and out.tolist() == [True, False, True]


@pytest.mark.parametrize(
    "z, message",
    [([1, 0, 1.5], "0 or 1"), ([1, 0, 2], "0 or 1"), ([1, 0, -1], "0 or 1"),
     ([1, 0, np.nan], "0 or 1"), (["1", "0", "1"], "0 or 1"),
     ([1, 0], "z must have length 3"), ([[1, 0, 1]], "z must have length 3")],
)
def test_checked_indicators_rejects_other_values(z, message):
    with pytest.raises(InvalidConfigError, match=message):
        checked_indicators(z, 3)


def test_summary_inclusion_recomputes_bit_for_bit():
    rng = np.random.default_rng(11)
    ts = TimeSeries(rng.normal(0, 1, 15), 1.0)
    h = Hyperparameters.solo_defaults(15)
    for s in all_site_posteriors(ts, h):
        lo = prior_log_odds(h.q) + s.log_omega[1] - s.log_omega[0]
        assert float(inclusion_probability(lo)) == s.inclusion_prob
        assert s.xi[0] <= s.xi[1]  # tau0 <= tau1
        assert 0.0 <= s.inclusion_prob <= 1.0


def test_changepoint_set_rules():
    cps = ChangePointSet((3, 7, 9))
    assert cps.count == 3
    assert list(cps) == [3, 7, 9]
    with pytest.raises(InvalidConfigError):
        ChangePointSet((7, 3))
    with pytest.raises(InvalidConfigError):
        ChangePointSet((3, 3))
    with pytest.raises(InvalidConfigError):
        ChangePointSet((1, 5))


# What a documented workflow calls: the library steps behind detect, bench and
# simulate, the benchmark's imports, the oracle audit, the paper's estimators
# and criteria, and the library errors.
PUBLIC_NAMES = {
    "BinnedSeries", "ChangePointSet", "DetectionResult", "EvalReport", "GibbsConfig",
    "Hyperparameters", "NoiseSpec", "SignalSpec", "SingleChangePoint", "TimeSeries",
    "all_site_posteriors", "builtin_signal", "detect", "estimate_sigma_mad", "evaluate_sets",
    "gibbs_inclusion_probabilities", "hausdorff", "map_changepoints_to_bins",
    "oracle_joint_marginal", "oracle_site_posterior", "posterior_mean_surface",
    "select_changepoints", "simulate", "simulate_binned", "single_cp_locate",
    "SolocpError", "NonFiniteValueError", "TooShortError", "NonPositiveSigmaError",
    "InvalidHyperparameterError", "NumericOverflowError", "LinearSolveFailureError",
    "SingularCovarianceError", "InvalidConfigError", "UnknownSignalError",
    "EmptySearchWindowError", "EmptySetError", "ParseError",
}


def test_public_names_resolve_once():
    assert len(set(solocp.__all__)) == len(solocp.__all__)
    missing = [name for name in solocp.__all__ if not hasattr(solocp, name)]
    assert not missing


def test_public_names_are_the_documented_set():
    assert len(PUBLIC_NAMES) == 38 and set(solocp.__all__) == PUBLIC_NAMES


def test_result_types_import_from_their_modules():
    from solocp.oracle import OracleResult
    from solocp.types import PosteriorSiteSummary

    assert OracleResult.__module__ == "solocp.oracle"
    assert PosteriorSiteSummary.__module__ == "solocp.types"


@pytest.mark.parametrize("script", ["oracle_gate.py", "workloads.py"])
def test_every_solocp_name_a_benchmark_imports_resolves(script):
    path = Path(__file__).resolve().parents[1] / "benchmarks" / script
    imports = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "solocp"
        for alias in node.names
    ]
    assert imports
    missing = [(m, n) for m, n in imports if not hasattr(importlib.import_module(m), n)]
    assert missing == []
