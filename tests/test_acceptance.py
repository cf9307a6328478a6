"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete. Tolerances are frozen here; nothing is deferred to calibration.
"""
import time

import numpy as np
import pytest

from solocp import (
    BinnedSeries,
    GibbsConfig,
    Hyperparameters,
    TimeSeries,
    detect,
    estimate_sigma_mad,
    evaluate_sets,
    hausdorff,
    map_changepoints_to_bins,
    oracle_site_posterior,
    simulate,
    simulate_binned,
    single_cp_locate,
)
from solocp.detect import select_changepoints
from solocp.gibbs import _run_chains
from solocp.oracle import enumerate_inclusion_probabilities
from solocp.posterior import all_site_posteriors, forward_pass
from solocp.signals import NoiseSpec, builtin_signal


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {status} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def _log_odds(q, lw0, lw1):
    return np.log(q) - np.log1p(-q) + lw1 - lw0


# ------------------------------------------------------------- criterion 1


def _random_instance(rng, binned):
    total = int(rng.integers(5, 51))
    if binned:
        counts = []
        left = total
        while left > 0:
            c = int(min(rng.integers(1, 6), left))
            counts.append(c)
            left -= c
        if len(counts) < 2:
            counts = [max(total - 1, 1), 1]
        bins = tuple(rng.normal(rng.normal(0, 2), 1.0, size=c) for c in counts)
        series = BinnedSeries(bins, float(rng.uniform(0.3, 3.0)))
    else:
        series = TimeSeries(rng.normal(rng.normal(0, 2), 1.0, total), float(rng.uniform(0.3, 3.0)))
    lo, hi = np.sort(10.0 ** rng.uniform(-3, 3, 2))
    hypers = Hyperparameters(
        tau0_sq=float(lo),
        tau1_sq=float(hi),
        tau_sq=float(10.0 ** rng.uniform(-3, 3)),
        q=float(rng.uniform(0.05, 0.95)),
        delta=1,
    )
    return series, hypers


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for k in range(200):
        series, hypers = _random_instance(rng, binned=(k % 2 == 1))
        summaries = all_site_posteriors(series, hypers)
        for s in summaries:
            o = oracle_site_posterior(series, s.site, hypers)
            for got, ref in zip(s.mu + s.xi, o.mu + o.xi):
                rel = abs(got - ref) / max(abs(ref), 1e-12)
                worst = max(worst, rel)
                assert rel <= 1e-8, f"site {s.site}: mu/xi rel err {rel:.2e}"
            p_s, p_o = s.inclusion_prob, o.inclusion_prob
            if 1e-12 < min(p_s, p_o) and max(p_s, p_o) < 1 - 1e-12:
                rel = abs(p_s - p_o) / p_o
                assert rel <= 1e-8, f"site {s.site}: prob rel err {rel:.2e}"
            else:
                lo_s = _log_odds(hypers.q, s.log_omega[0], s.log_omega[1])
                lo_o = _log_odds(hypers.q, o.log_marginal[0], o.log_marginal[1])
                assert abs(lo_s - lo_o) <= 1e-8 * max(1.0, abs(lo_o)), (
                    f"site {s.site}: log-odds err {abs(lo_s - lo_o):.2e}"
                )
    elapsed = time.perf_counter() - start
    _report(
        1,
        "oracle equivalence (200 instances, mixed binned)",
        elapsed < 60.0,
        f"worst mu/xi rel err {worst:.2e}, {elapsed:.1f}s < 60s",
    )


# ------------------------------------------------------------- criterion 2


def test_criterion_02_reduction_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        t = int(rng.integers(5, 40))
        y = rng.normal(rng.normal(0, 2), 1.0, t)
        sigma = float(rng.uniform(0.3, 2.0))
        ts = TimeSeries(y, sigma)
        bs = BinnedSeries(ts.values, ts.noise_sd, counts=ts.counts)
        hypers = Hyperparameters(
            tau0_sq=float(10.0 ** rng.uniform(-2, 1)),
            tau1_sq=float(10.0 ** rng.uniform(1, 3)),
            tau_sq=float(10.0 ** rng.uniform(-3, 1)),
            q=0.2,
            delta=1,
        )
        for plain, grouped in zip(forward_pass(ts, hypers), forward_pass(bs, hypers)):
            worst = max(worst, np.max(np.abs(plain - grouped)))
        assert worst <= 1e-12
    _report(2, "grouped path with unit counts reduces exactly", worst <= 1e-12,
            f"max abs diff {worst:.2e} <= 1e-12, 100 instances")


# ------------------------------------------------------------- criterion 3


def _run_teeth(seed, noise, sigma_mode):
    signal = builtin_signal("TEETH")
    ts = simulate(signal, noise, seed)
    sigma = estimate_sigma_mad(ts) if sigma_mode == "mad" else ts.noise_sd
    ts = TimeSeries(ts.values, sigma)
    result = detect(ts, Hyperparameters.solo_defaults(140))
    return evaluate_sets(result.selected, signal.changepoints, 140)


def test_criterion_03_teeth_gauss_replication():
    start = time.perf_counter()
    noise = NoiseSpec.gaussian(0.25)
    reports = [_run_teeth(seed, noise, "mad") for seed in range(100)]
    zero = float(np.mean([r.hist_true[0] for r in reports]))
    bias = float(np.mean([r.k_bias for r in reports]))
    d = float(np.mean([r.hausdorff for r in reports]))
    elapsed = time.perf_counter() - start
    ok = zero >= 0.85 and -0.8 <= bias <= 0.2 and d <= 7.0 and elapsed < 120.0
    _report(3, "TEETH.gauss 100 seeds", ok,
            f"zero-dist {zero:.3f} >= 0.85, K-bias {bias:+.3f} in [-0.8,0.2], "
            f"hausdorff {d:.2f} <= 7, {elapsed:.1f}s < 120s")


# ------------------------------------------------------------- criterion 4


def test_criterion_04_teeth_out_robustness():
    noise = NoiseSpec.mixture((0.9, 0.1), (0.25, 1.0))
    reports = [_run_teeth(seed, noise, "true") for seed in range(100)]
    zero_est = float(np.nanmean([r.hist_est[0] for r in reports]))
    bias = float(np.mean([r.k_bias for r in reports]))
    ok = zero_est >= 0.65 and abs(bias) <= 1.0
    _report(4, "TEETH.out contaminated noise", ok,
            f"zero-dist(est) {zero_est:.3f} >= 0.65, |K-bias| {abs(bias):.3f} <= 1.0")


# ------------------------------------------------------------- criterion 5


def test_criterion_05_blocks2_binned_replication():
    signal = builtin_signal("BLOCKS2")
    noise = NoiseSpec.gaussian(7.0)
    biases, dists = [], []
    for seed in range(100):
        bs = simulate_binned(signal, noise, 1024, 200, seed)
        sigma = estimate_sigma_mad(bs)
        bs = BinnedSeries(bs.values, sigma, bs.source_bins, counts=bs.counts)
        result = detect(bs, Hyperparameters.solo_defaults(bs.length))
        truth = map_changepoints_to_bins(signal, 200, bs.source_bins)
        rep = evaluate_sets(result.selected, truth, bs.length)
        biases.append(rep.k_bias)
        dists.append(rep.hausdorff)
    bias = float(np.mean(biases))
    d = float(np.mean(dists))
    ok = -0.5 <= bias <= 0.5 and d <= 6.0
    _report(5, "BLOCKS2.gauss binned 100 seeds", ok,
            f"K-bias {bias:+.3f} in [-0.5,0.5], hausdorff {d:.2f} <= 6")


# ------------------------------------------------------------- criterion 6


def test_criterion_06_gibbs_exactness_small_series():
    # 20 independent chains give the standard-error estimate enough events
    # at near-degenerate sites, whose off-excursions arrive ~once per 1e5
    # sweeps; fewer chains can see none at all and understate the SE
    rng = np.random.default_rng(99)
    chains = 20
    iters, burn = 10_000, 1_000
    worst_sigma_units = 0.0
    for _ in range(20):
        t = int(rng.integers(5, 9))
        level = np.where(np.arange(t) >= t // 2, rng.uniform(0.5, 2.5), 0.0)
        ts = TimeSeries(level + rng.normal(0, 0.4, t), 0.5)
        hypers = Hyperparameters(
            tau0_sq=float(10.0 ** rng.uniform(-3, -1)),
            tau1_sq=float(10.0 ** rng.uniform(0, 1.5)),
            tau_sq=0.5,
            q=float(rng.uniform(0.1, 0.4)),
            delta=1,
        )
        exact = enumerate_inclusion_probabilities(ts, hypers)
        seeds = [int(rng.integers(1 << 30)) for _ in range(chains)]
        # one stacked call; row k equals a single-chain run with seeds[k]
        estimates = _run_chains(ts, hypers, iters, burn, seeds)
        mean = estimates.mean(axis=0)
        se = estimates.std(axis=0, ddof=1) / np.sqrt(chains)
        tol = np.maximum(3.0 * se, 1e-3)
        err = np.abs(mean - exact)
        worst_sigma_units = max(worst_sigma_units, float(np.max(err / tol)))
        assert np.all(err <= tol), f"err {err} vs tol {tol}"
    _report(6, "joint-model Gibbs vs exhaustive enumeration", True,
            f"20 instances, 10x10k sweeps, worst err {worst_sigma_units:.2f} of budget")


# ------------------------------------------------------------- criterion 7


def test_criterion_07_basad_teeth_gauss():
    signal = builtin_signal("TEETH")
    noise = NoiseSpec.gaussian(0.25)
    zero, bias = [], []
    for seed in range(50):
        ts = simulate(signal, noise, seed)
        result = detect(
            ts,
            Hyperparameters.basad_defaults(140),
            method="basad",
            gibbs_config=GibbsConfig(5000, 1000, seed=seed + 1_000_000),
        )
        rep = evaluate_sets(result.selected, signal.changepoints, 140)
        zero.append(rep.hist_true[0])
        bias.append(rep.k_bias)
    z = float(np.mean(zero))
    b = float(np.mean(bias))
    ok = z >= 0.8 and -0.6 <= b <= 0.3
    _report(7, "basad TEETH.gauss 50 seeds (5000/1000 sweeps)", ok,
            f"zero-dist {z:.3f} >= 0.8, K-bias {b:+.3f} in [-0.6,0.3]")


# ------------------------------------------------------------- criterion 8


def test_criterion_08_single_cp_localization():
    t, j0, sigma, kappa = 400, 160, 1.0, 2.0
    bound = int(np.ceil(5.0 * sigma**2 * np.log(t) / kappa**2))
    f = np.where(np.arange(1, t + 1) >= j0, kappa, 0.0)
    hypers = Hyperparameters.solo_defaults(t)
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        ts = TimeSeries(f + rng.normal(0, sigma, t), sigma)
        res = single_cp_locate(ts, hypers, 0.1)
        hits += abs(res.site - j0) <= bound
    _report(8, "single-change-point localization", hits >= 95,
            f"{hits}/100 within +-{bound} of the true site (need >= 95)")


# ------------------------------------------------------------- criterion 9


def test_criterion_09_metric_brute_force_equivalence():
    rng = np.random.default_rng(5)
    for _ in range(500):
        a = sorted(rng.choice(np.arange(1, 300), size=rng.integers(1, 9), replace=False))
        b = sorted(rng.choice(np.arange(1, 300), size=rng.integers(1, 9), replace=False))
        brute_ab = max(min(abs(x - y) for x in a) for y in b)
        brute_ba = max(min(abs(x - y) for x in b) for y in a)
        assert hausdorff(a, b) == brute_ab + brute_ba
        assert hausdorff(a, b) == hausdorff(b, a)
        assert hausdorff(a, a) == 0
        # the criteria `solocp bench` reports: a is the estimate, b the truth
        report = evaluate_sets(a, b, 300)
        assert report.hausdorff == brute_ab + brute_ba and not report.hausdorff_is_sentinel
        for hist, ref, other in ((report.hist_est, a, b), (report.hist_true, b, a)):
            d = np.array([min(abs(x - y) for y in other) for x in ref], float)
            expected = np.array(
                [np.mean(d == 0), np.mean(d == 1), np.mean(d == 2), np.mean(d >= 3)]
            )
            assert np.array_equal(hist, expected)
    _report(9, "metrics equal brute force", True, "500 random set pairs, exact")


# ------------------------------------------------------------ criterion 10


def test_criterion_10_delta_sensitivity_monotone():
    signal = builtin_signal("TEETH")
    noise = NoiseSpec.gaussian(0.25)
    violations = 0
    for seed in range(20):
        ts = simulate(signal, noise, seed)
        from solocp.posterior import inclusion_scores

        probs, scores = inclusion_scores(ts, Hyperparameters.solo_defaults(140))
        prev = None
        for delta in (0, 1, 2, 4, 8):
            h = Hyperparameters.solo_defaults(140, delta=delta)
            selected = select_changepoints(probs, scores, h).selected
            if prev is not None and selected.count > prev:
                violations += 1
            prev = selected.count
    _report(10, "K-hat monotone nonincreasing in delta", violations == 0,
            f"0 violations over 20 seeds x deltas {{0,1,2,4,8}} (got {violations})")


# ------------------------------------------------------------ criterion 11


def test_criterion_11_performance_envelope():
    signal = builtin_signal("BLOCKS")
    ts = simulate(signal, NoiseSpec.gaussian(7.0), seed=0)
    start = time.perf_counter()
    result = detect(ts, Hyperparameters.solo_defaults(2048))
    blocks_s = time.perf_counter() - start
    assert result.selected.count > 0
    teeth = simulate(builtin_signal("TEETH"), NoiseSpec.gaussian(0.25), seed=0)
    start = time.perf_counter()
    detect(teeth, Hyperparameters.solo_defaults(140))
    teeth_s = time.perf_counter() - start
    ok = blocks_s <= 120.0 and teeth_s <= 0.5
    _report(11, "performance envelope", ok,
            f"BLOCKS-scale {blocks_s:.2f}s <= 120s, TEETH {teeth_s*1000:.0f}ms <= 500ms")
