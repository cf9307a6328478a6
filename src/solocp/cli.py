"""Command-line interface.

    solocp detect   INPUT.csv  [flags]      detection report for user data
    solocp simulate CONFIG.json OUTDIR      write seeded benchmark datasets
    solocp bench    CONFIG.json [flags]     simulate -> detect -> evaluate grid

Input CSV schema (UTF-8, ',' separator, '.' decimal, header required):
column pair "t,y" for plain series or triple "t,y,bin" for grouped data; t
strictly increasing, bin ids positive and nondecreasing.

Experiment configs are JSON with a signal (builtin name or inline spec), a
noise block, and optional method/hypers/replications/seed/sigma_mode/binned/
gibbs/grid entries; see README for the full schema.

Every library error exits nonzero with an "error[<Type>]:" prefix.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .detect import SingleChangePoint, detect, single_cp_locate
from .errors import InvalidConfigError, ParseError, SolocpError
from .gibbs import GibbsConfig
from .metrics import EvalReport, evaluate_sets
from .signals import (
    NoiseSpec,
    SignalSpec,
    builtin_signal,
    estimate_sigma_mad,
    map_changepoints_to_bins,
    simulate,
    simulate_binned,
)
from .types import BinnedSeries, Hyperparameters, TimeSeries

_CHAIN_SEED_OFFSET = 1_000_000  # decouple chain randomness from data seeds


# ---------------------------------------------------------------- CSV input


def read_series_csv(path: str) -> TimeSeries | BinnedSeries:
    """Parse the t,y / t,y,bin schema into a series (noise_sd filled with a
    placeholder 1.0; callers override)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        cols = [c.strip().lower() for c in header]
        if cols == ["t", "y"]:
            binned = False
        elif cols == ["t", "y", "bin"]:
            binned = True
        else:
            raise ParseError(f"{path}: header must be 't,y' or 't,y,bin', got {header}")
        ts, ys, bins = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(cols):
                raise ParseError(f"{path}: line {lineno}: expected {len(cols)} fields")
            try:
                t = float(row[0])
                y = float(row[1])
                b = int(row[2]) if binned else 0
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
            if ts and t <= ts[-1]:
                raise ParseError(f"{path}: line {lineno}: t must be strictly increasing")
            if binned:
                if b < 1:
                    raise ParseError(f"{path}: line {lineno}: bin ids start at 1")
                if bins and b < bins[-1]:
                    raise ParseError(f"{path}: line {lineno}: bin ids must be nondecreasing")
            ts.append(t)
            ys.append(y)
            bins.append(b)
    if not ys:
        raise ParseError(f"{path}: no data rows")
    if not binned:
        return TimeSeries(np.asarray(ys), 1.0)
    groups = []
    start = 0
    for i in range(1, len(bins) + 1):
        if i == len(bins) or bins[i] != bins[start]:
            groups.append(np.asarray(ys[start:i]))
            start = i
    return BinnedSeries(tuple(groups), 1.0)


def _with_sigma(series, sigma: float):
    if isinstance(series, TimeSeries):
        return TimeSeries(series.values, sigma)
    return BinnedSeries(series.bins, sigma, source_bins=series.source_bins)


# ------------------------------------------------------------ config loading


def _signal_from_config(cfg) -> SignalSpec:
    if isinstance(cfg, str):
        return builtin_signal(cfg)
    return SignalSpec(
        length=int(cfg["length"]),
        changepoints=tuple(cfg["changepoints"]),
        levels=tuple(cfg["levels"]),
    )


def _noise_from_config(cfg: dict) -> NoiseSpec:
    family = cfg.get("family")
    if family == "gaussian":
        return NoiseSpec.gaussian(float(cfg["sd"]))
    if family == "laplace":
        return NoiseSpec.laplace(float(cfg["scale"]))
    if family == "student_t":
        return NoiseSpec.student_t(float(cfg["df"]), float(cfg.get("scale", 1.0)))
    if family == "gaussian_mixture":
        return NoiseSpec.mixture(cfg["weights"], cfg["sds"])
    raise InvalidConfigError(f"unknown noise family {family!r}")


def _hypers_for(length: int, method: str, overrides: dict) -> Hyperparameters:
    base = (
        Hyperparameters.basad_defaults(length)
        if method == "basad"
        else Hyperparameters.solo_defaults(length)
    )
    if not overrides:
        return base
    fields = {
        "tau0_sq": base.tau0_sq,
        "tau1_sq": base.tau1_sq,
        "tau_sq": base.tau_sq,
        "q": base.q,
        "delta": base.delta,
        "threshold": base.threshold,
    }
    unknown = set(overrides) - set(fields)
    if unknown:
        raise InvalidConfigError(f"unknown hyperparameter keys {sorted(unknown)}")
    fields.update(overrides)
    fields["delta"] = int(fields["delta"])
    return Hyperparameters(**fields)


def _resolve_sigma(series, mode: str) -> float:
    if mode == "true":
        return series.noise_sd
    if mode == "mad":
        return estimate_sigma_mad(series)
    if mode.startswith("fixed:"):
        return float(mode.split(":", 1)[1])
    raise InvalidConfigError(f"sigma_mode must be true, mad, or fixed:<value>, got {mode!r}")


def load_experiment_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if "signal" not in cfg or "noise" not in cfg:
        raise InvalidConfigError(f"{path}: config needs 'signal' and 'noise' entries")
    cfg.setdefault("method", "solo")
    cfg.setdefault("replications", 1)
    cfg.setdefault("seed", 0)
    cfg.setdefault("sigma_mode", "true")
    cfg.setdefault("hypers", {})
    if int(cfg["replications"]) < 1:
        raise InvalidConfigError("replications must be >= 1")
    # fail fast on malformed blocks
    _signal_from_config(cfg["signal"])
    _noise_from_config(cfg["noise"])
    return cfg


# -------------------------------------------------------------- replications


def _make_dataset(cfg: dict, rep: int):
    """Returns (series-with-resolved-sigma, truth locations, domain length)."""
    signal = _signal_from_config(cfg["signal"])
    noise = _noise_from_config(cfg["noise"])
    seed = int(cfg["seed"]) + rep
    if "binned" in cfg and cfg["binned"]:
        n = int(cfg["binned"]["n"])
        grid = int(cfg["binned"]["grid"])
        series = simulate_binned(signal, noise, n, grid, seed)
        truth = map_changepoints_to_bins(signal, grid, series.source_bins)
        domain = series.length
    else:
        series = simulate(signal, noise, seed)
        truth = signal.changepoints
        domain = signal.length
    series = _with_sigma(series, _resolve_sigma(series, cfg["sigma_mode"]))
    return series, truth, domain, seed


def run_replication(cfg: dict, rep: int) -> tuple[EvalReport, float]:
    """simulate -> detect -> evaluate for one seeded replication."""
    series, truth, domain, seed = _make_dataset(cfg, rep)
    method = cfg["method"]
    hypers = _hypers_for(series.length, method, cfg["hypers"])
    start = time.perf_counter()
    if method in ("solo", "basad"):
        gibbs_cfg = None
        if method == "basad":
            g = cfg.get("gibbs", {})
            gibbs_cfg = GibbsConfig(
                iterations=int(g.get("iterations", 5000)),
                burn_in=int(g.get("burn_in", 1000)),
                seed=seed + _CHAIN_SEED_OFFSET,
            )
        result = detect(series, hypers, method=method, gibbs_config=gibbs_cfg)
        est = result.selected
    elif method == "single":
        located = single_cp_locate(series, hypers, float(cfg.get("edge_fraction", 0.05)))
        est = [located.site]
    else:
        raise InvalidConfigError(f"unknown method {method!r}")
    elapsed = time.perf_counter() - start
    return evaluate_sets(est, truth, domain), elapsed


def _grid_rows(cfg: dict) -> list[tuple[str, dict]]:
    """Expand an optional {'grid': {param: [values]}} block into labeled
    configs; no grid yields the single base row."""
    grid = cfg.get("grid")
    if not grid:
        return [(cfg["method"], cfg)]
    if len(grid) != 1:
        raise InvalidConfigError("grid supports exactly one swept parameter")
    (param, values), = grid.items()
    rows = []
    for v in values:
        sub = dict(cfg)
        sub["hypers"] = dict(cfg["hypers"])
        sub["hypers"][param] = v
        sub.pop("grid")
        rows.append((f"{cfg['method']}-{param}{v}", sub))
    return rows


def _aggregate(reports: list[EvalReport], times: list[float]) -> list[str]:
    ht = np.vstack([r.hist_true for r in reports])
    he = np.vstack([r.hist_est for r in reports])
    with np.errstate(invalid="ignore"):
        cols = list(np.nanmean(ht, axis=0)) + list(np.nanmean(he, axis=0))
    cols += [
        float(np.mean([r.k_bias for r in reports])),
        float(np.mean([r.hausdorff for r in reports])),
        float(np.mean(times)),
    ]
    return [f"{c:.6g}" for c in cols]


def _n_jobs(flag_value) -> int:
    if flag_value is not None:
        return max(1, int(flag_value))
    env = os.environ.get("SOLOCP_JOBS")
    return max(1, int(env)) if env else 1


# ------------------------------------------------------------------ commands


def cmd_detect(args) -> int:
    series = read_series_csv(args.input)
    sigma = args.sigma if args.sigma is not None else estimate_sigma_mad(series)
    if sigma <= 0:
        raise InvalidConfigError("sigma must be positive (constant input data?)")
    series = _with_sigma(series, sigma)
    overrides = {
        k: v
        for k, v in (
            ("tau0_sq", args.tau0_sq),
            ("tau1_sq", args.tau1_sq),
            ("tau_sq", args.tau_sq),
            ("q", args.q),
            ("delta", args.delta),
            ("threshold", args.threshold),
        )
        if v is not None
    }
    hypers = _hypers_for(series.length, args.method, overrides)
    report: dict = {"method": args.method, "sigma_used": sigma, "hypers": vars(hypers).copy()}
    if args.method == "single":
        located = single_cp_locate(series, hypers, args.edge_fraction)
        report.update(
            locations=[located.site],
            count=1,
            probabilities=[],
            clusters=[],
            criterion=located.criterion,
            low_confidence=located.low_confidence,
        )
        probs_rows = None
    else:
        gibbs_cfg = None
        if args.method == "basad":
            gibbs_cfg = GibbsConfig(
                iterations=args.iterations, burn_in=args.burn_in, seed=args.seed
            )
        result = detect(series, hypers, method=args.method, gibbs_config=gibbs_cfg)
        report.update(
            locations=list(result.selected.locations),
            count=result.selected.count,
            probabilities=[float(p) for p in result.probabilities],
            clusters=[list(c) for c in result.clusters],
        )
        probs_rows = list(zip(result.sites.tolist(), result.probabilities.tolist()))
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.probs_csv and probs_rows is not None:
        fitted = _fitted_levels(series, report["locations"])
        with open(args.probs_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["site", "probability", "fitted_mean"])
            writer.writerow([1, "", repr(float(fitted[0]))])
            for (site, prob), level in zip(probs_rows, fitted[1:]):
                writer.writerow([site, repr(float(prob)), repr(float(level))])
    return 0


def _fitted_levels(series, locations) -> np.ndarray:
    """Per-site fitted level: mean of the observations of each segment."""
    counts = series.counts
    sums = series.sums
    m = counts.size
    bounds = [1] + list(locations) + [m + 1]
    out = np.empty(m)
    for lo, hi in zip(bounds, bounds[1:]):
        seg = slice(lo - 1, hi - 1)
        out[seg] = sums[seg].sum() / counts[seg].sum()
    return out


def cmd_simulate(args) -> int:
    cfg = load_experiment_config(args.config)
    os.makedirs(args.outdir, exist_ok=True)
    reps = int(cfg["replications"])
    entries = []
    for rep in range(reps):
        series, truth, _, seed = _make_dataset(cfg, rep)
        name = f"rep_{rep:03d}.csv"
        path = os.path.join(args.outdir, name)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            if isinstance(series, TimeSeries):
                writer.writerow(["t", "y"])
                for t, y in enumerate(series.values, start=1):
                    writer.writerow([t, repr(float(y))])
            else:
                writer.writerow(["t", "y", "bin"])
                t = 0
                for b, group in enumerate(series.bins, start=1):
                    for y in group:
                        t += 1
                        writer.writerow([t, repr(float(y)), b])
        entries.append({"file": name, "seed": seed, "changepoints": list(truth)})
    manifest = {
        "signal": cfg["signal"],
        "noise": cfg["noise"],
        "replications": reps,
        "base_seed": int(cfg["seed"]),
        "binned": cfg.get("binned"),
        "datasets": entries,
    }
    with open(os.path.join(args.outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {reps} datasets to {args.outdir}")
    return 0


def _bench_worker(payload):
    cfg, rep = payload
    report, elapsed = run_replication(cfg, rep)
    return rep, report, elapsed


def cmd_bench(args) -> int:
    cfg = load_experiment_config(args.config)
    jobs = _n_jobs(args.jobs)
    rows = []
    for label, sub in _grid_rows(cfg):
        reps = int(sub["replications"])
        payloads = [(sub, rep) for rep in range(reps)]
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = sorted(pool.map(_bench_worker, payloads))
        else:
            results = [_bench_worker(p) for p in payloads]
        reports = [r for _, r, _ in results]
        times = [t for _, _, t in results]
        rows.append([label] + _aggregate(reports, times))
    header = ["label"] + EvalReport.csv_header()
    lines = [",".join(header)] + [",".join(r) for r in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    return 0


# ---------------------------------------------------------------- entrypoint


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="solocp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_detect = sub.add_parser("detect", help="detect change points in a CSV series")
    p_detect.add_argument("input")
    p_detect.add_argument("--method", choices=["solo", "basad", "single"], default="solo")
    p_detect.add_argument("--sigma", type=float, default=None,
                          help="noise sd; omitted -> robust MAD estimate")
    p_detect.add_argument("--tau0-sq", dest="tau0_sq", type=float, default=None)
    p_detect.add_argument("--tau1-sq", dest="tau1_sq", type=float, default=None)
    p_detect.add_argument("--tau-sq", dest="tau_sq", type=float, default=None)
    p_detect.add_argument("--q", type=float, default=None)
    p_detect.add_argument("--threshold", type=float, default=None)
    p_detect.add_argument("--delta", type=int, default=None)
    p_detect.add_argument("--seed", type=int, default=0, help="basad chain seed")
    p_detect.add_argument("--iterations", type=int, default=5000)
    p_detect.add_argument("--burn-in", dest="burn_in", type=int, default=1000)
    p_detect.add_argument("--edge-fraction", dest="edge_fraction", type=float, default=0.05)
    p_detect.add_argument("--out", default=None, help="JSON report path (default stdout)")
    p_detect.add_argument("--probs-csv", dest="probs_csv", default=None,
                          help="per-site probability/fitted-level CSV for plotting")
    p_detect.set_defaults(func=cmd_detect)

    p_sim = sub.add_parser("simulate", help="write seeded benchmark datasets")
    p_sim.add_argument("config")
    p_sim.add_argument("outdir")
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("bench", help="replicate, detect, evaluate, aggregate")
    p_bench.add_argument("config")
    p_bench.add_argument("--out", default=None, help="aggregate CSV path")
    p_bench.add_argument("--jobs", type=int, default=None,
                         help="parallel replications (env SOLOCP_JOBS)")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SolocpError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[IO]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
