"""Command-line interface.

    solocp detect   INPUT.csv  [flags]      detection report for user data
    solocp simulate CONFIG.json OUTDIR      write seeded benchmark datasets
    solocp bench    CONFIG.json [flags]     simulate -> detect -> evaluate grid

Input CSV schema (UTF-8, ',' separator, '.' decimal, header required):
column pair "t,y" for plain series or triple "t,y,bin" for grouped data; t
strictly increasing, bin ids positive and nondecreasing.

Experiment configs are JSON objects; signal and noise are required:

    signal         builtin name (BLOCKS, TEETH, BLOCKS2) or
                   {"length", "changepoints", "levels"}
    noise          {"family": "gaussian", "sd"}, {"family": "laplace", "scale"},
                   {"family": "student_t", "df", "scale" (1)} or
                   {"family": "gaussian_mixture", "weights", "sds"}
    method         solo (default), basad or single
    hypers         overrides of tau0_sq, tau1_sq, tau_sq, q, delta, threshold
    replications   seeded replications (1)
    seed           base seed; replication r uses seed + r (0)
    sigma_mode     true (default), mad or fixed:<value>
    binned         {"n", "grid"}: n random points grouped on a grid of cells
    gibbs          {"iterations" (5000), "burn_in" (1000)} for method basad
    grid           {"<hyperparameter>": [values]}: one bench row per value
    edge_fraction  search window of method single (0.05)

The detect report is one line of JSON with sorted keys.
Every library error exits nonzero with an "error[<Type>]:" prefix.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace

import numpy as np

from .detect import detect, single_cp_locate
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
from .types import BinnedSeries, Hyperparameters, TimeSeries, split_groups

_CHAIN_SEED_OFFSET = 1_000_000  # decouple chain randomness from data seeds


# ---------------------------------------------------------------- CSV input


_LOADTXT = dict(delimiter=",", comments=None, quotechar='"', ndmin=1)
_PLAIN_ROW = np.dtype([("t", float), ("y", float)])
_BINNED_ROW = np.dtype([("t", float), ("y", float), ("bin", np.int64)])


def read_series_csv(path: str) -> TimeSeries | BinnedSeries:
    """Parse the t,y / t,y,bin schema into a series (noise_sd filled with a
    placeholder 1.0; callers override).

    Errors name the first offending line in file order; blank lines count."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
        lines = fh.readlines()
    if header is None:
        raise ParseError(f"{path}: empty file")
    cols = [c.strip().lower() for c in header]
    if cols == ["t", "y"]:
        dtype = _PLAIN_ROW
    elif cols == ["t", "y", "bin"]:
        dtype = _BINNED_ROW
    else:
        raise ParseError(f"{path}: header must be 't,y' or 't,y,bin', got {header}")
    if not any(line.strip("\r\n") for line in lines):
        raise ParseError(f"{path}: no data rows")
    try:
        rows = np.loadtxt(lines, dtype=dtype, **_LOADTXT)  # a blank line gives no row
    except ValueError:
        linenos = _line_numbers(lines)
        data = [lines[n - 2] for n in linenos]
        bad, reason = _first_bad_line(data, dtype)
        if bad:  # an earlier line out of order is the first offence
            _check_order(path, np.loadtxt(data[:bad], dtype=dtype, **_LOADTXT), lines)
        raise ParseError(f"{path}: line {linenos[bad]}: {reason}") from None
    _check_order(path, rows, lines)
    if dtype is _PLAIN_ROW:
        return TimeSeries(rows["y"], 1.0)
    _, starts = np.unique(rows["bin"], return_index=True)
    return BinnedSeries(split_groups(rows["y"], starts), 1.0)


def _line_numbers(lines: list[str]) -> list[int]:
    """File line number of each row; blank lines count but hold no row."""
    return [n for n, line in enumerate(lines, start=2) if line.strip("\r\n")]


def _first_bad_line(lines: list[str], dtype: np.dtype) -> tuple[int, str]:
    """Index of the first line that does not parse as one row, and why.

    Bisects with bulk parses, O(log n) of them over 2n lines in all."""
    lo, hi = 0, len(lines)
    while hi - lo > 1:  # lines[:lo] parse; the first bad line is in lines[lo:hi]
        mid = (lo + hi) // 2
        try:
            np.loadtxt(lines[lo:mid], dtype=dtype, **_LOADTXT)
        except ValueError:
            hi = mid
        else:
            lo = mid
    try:
        np.loadtxt(lines[lo : lo + 1], dtype=dtype, **_LOADTXT)
    except ValueError as exc:
        if len(next(csv.reader([lines[lo]]))) != len(dtype.names):
            return lo, f"expected {len(dtype.names)} fields"
        return lo, str(exc)
    # the line parses alone, so a quoted field runs on over a line end
    k = next((k for k, line in enumerate(lines[: lo + 1]) if line.count('"') % 2), lo)
    return k, "quoted field not closed on its line"


def _check_order(path: str, rows: np.ndarray, lines: list[str]) -> None:
    """Raise on the first row, in file order, that breaks the ordering rules;
    on one line the checks apply in the order listed."""
    t = rows["t"]
    checks = [(t[1:] <= t[:-1], 1, "t must be strictly increasing")]
    if "bin" in rows.dtype.names:
        b = rows["bin"]
        checks += [
            (b < 1, 0, "bin ids start at 1"),
            (b[1:] < b[:-1], 1, "bin ids must be nondecreasing"),
        ]
    found = [
        (int(mask.argmax()) + shift, rank, message)
        for rank, (mask, shift, message) in enumerate(checks)
        if mask.any()
    ]
    if found:
        k, _, message = min(found)
        raise ParseError(f"{path}: line {_line_numbers(lines)[k]}: {message}")


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
    fields = asdict(base)
    unknown = set(overrides) - set(fields)
    if unknown:
        raise InvalidConfigError(f"unknown hyperparameter keys {sorted(unknown)}")
    fields.update(overrides)
    return Hyperparameters(**fields)


def _sigma_rule(mode) -> str | float:
    """The sigma_mode as "true", "mad", or the value of "fixed:<value>"."""
    if mode in ("true", "mad"):
        return mode
    if isinstance(mode, str) and mode.startswith("fixed:"):
        try:
            return float(mode[len("fixed:"):])
        except ValueError:
            pass
    raise InvalidConfigError(f"sigma_mode must be true, mad, or fixed:<value>, got {mode!r}")


def _resolve_sigma(series, mode) -> float:
    rule = _sigma_rule(mode)
    if rule == "true":
        return series.noise_sd
    if rule == "mad":
        return estimate_sigma_mad(series)
    return rule


def load_experiment_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not isinstance(cfg, dict) or "signal" not in cfg or "noise" not in cfg:
        raise InvalidConfigError(f"{path}: config needs 'signal' and 'noise' entries")
    cfg.setdefault("method", "solo")
    cfg.setdefault("replications", 1)
    cfg.setdefault("seed", 0)
    cfg.setdefault("sigma_mode", "true")
    cfg.setdefault("hypers", {})
    # fail fast on malformed entries: every conversion the replications make
    try:
        replications = int(cfg["replications"])
        int(cfg["seed"])
        _signal_from_config(cfg["signal"])
        _noise_from_config(cfg["noise"])
        if cfg.get("binned"):
            int(cfg["binned"]["n"]), int(cfg["binned"]["grid"])
        gibbs = cfg.get("gibbs", {})
        int(gibbs.get("iterations", 5000)), int(gibbs.get("burn_in", 1000))
        float(cfg.get("edge_fraction", 0.05))
        swept = (cfg.get("grid") or {}).values()
        numbers = [*cfg["hypers"].values(), *(v for values in swept for v in values)]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidConfigError(
            f"{path}: malformed config entry ({type(exc).__name__}: {exc})"
        ) from None
    if replications < 1:
        raise InvalidConfigError("replications must be >= 1")
    _sigma_rule(cfg["sigma_mode"])
    if not all(isinstance(v, (int, float)) for v in numbers):
        raise InvalidConfigError("hypers and grid values must be numbers")
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
    sigma = _resolve_sigma(series, cfg["sigma_mode"])
    if sigma != series.noise_sd:  # replacing rebuilds and revalidates the whole series
        series = replace(series, noise_sd=sigma)
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
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        raise InvalidConfigError(f"SOLOCP_JOBS must be an integer, got {env!r}") from None


# ------------------------------------------------------------------ commands


def cmd_detect(args) -> int:
    series = read_series_csv(args.input)
    sigma = args.sigma if args.sigma is not None else estimate_sigma_mad(series)
    if sigma <= 0:
        raise InvalidConfigError("sigma must be positive (constant input data?)")
    series = replace(series, noise_sd=sigma)
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
        result = None
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
            probabilities=result.probabilities.tolist(),
            clusters=[list(c) for c in result.clusters],
        )
    text = json.dumps(report, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.probs_csv and result is not None:
        fitted = _fitted_levels(series, report["locations"]).tolist()
        with open(args.probs_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["site", "probability", "fitted_mean"])
            writer.writerow([1, "", repr(fitted[0])])
            rows = zip(result.sites.tolist(), report["probabilities"], fitted[1:])
            writer.writerows((site, repr(prob), repr(level)) for site, prob, level in rows)
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
            ts = range(1, series.values.size + 1)
            ys = [repr(y) for y in series.values.tolist()]
            if isinstance(series, TimeSeries):
                writer.writerow(["t", "y"])
                writer.writerows(zip(ts, ys))
            else:
                writer.writerow(["t", "y", "bin"])
                group_ids = np.repeat(np.arange(1, series.length + 1), series.counts.astype(int))
                writer.writerows(zip(ts, ys, group_ids.tolist()))
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="solocp", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
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
