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
    edge_fraction  search window of method single, in (0, 1/2) (0.05)

The loader checks the top level (keys, method, replications, seed, sigma_mode,
binned, and grid: one parameter, a nonempty list). Each other entry is checked,
unknown and missing keys too, by the type it becomes: signal by SignalSpec,
noise by NoiseSpec, gibbs by GibbsConfig, edge_fraction by
detect.checked_edge_fraction, and hypers and every grid row by Hyperparameters
with the defaults at the signal length, or at the grid size if binned. A binned
replication with empty cells has fewer groups and gets the defaults for that
count, so hypers that pass at load can still fail in bench. Method single takes
no binned entry. Integer entries must be JSON integers; no number may be a bool.

The detect report is one line of JSON with sorted keys.
Every library error exits nonzero with an "error[<Type>]:" prefix.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from numbers import Integral

import numpy as np

from .detect import checked_edge_fraction, detect, single_cp_locate
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
from .types import BinnedSeries, Hyperparameters, TimeSeries, checked_number

_CHAIN_SEED_OFFSET = 1_000_000  # decouple chain randomness from data seeds


# ---------------------------------------------------------------- CSV input


_LOADTXT = dict(delimiter=",", comments=None, quotechar='"', ndmin=1)
_PLAIN_ROW = np.dtype([("t", float), ("y", float)])
_BINNED_ROW = np.dtype([("t", float), ("y", float), ("bin", np.int64)])


def read_series_csv(path: str) -> TimeSeries | BinnedSeries:
    """Parse the t,y / t,y,bin schema into a series (noise_sd filled with a
    placeholder 1.0; callers override).

    Errors name the first offending line in file order; blank lines count."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
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
        bad, reason, parsed = _first_bad_line(data, dtype)
        _check_order(path, parsed[:bad], lines)  # an earlier line out of order comes first
        raise ParseError(f"{path}: line {linenos[bad]}: {reason}") from None
    _check_order(path, rows, lines)
    if dtype is _PLAIN_ROW:
        return TimeSeries(rows["y"], 1.0)
    _, sizes = np.unique(rows["bin"], return_counts=True)
    return BinnedSeries(rows["y"], 1.0, counts=sizes)


def _line_numbers(lines: list[str]) -> list[int]:
    """File line number of each row; blank lines count but hold no row."""
    return [n for n, line in enumerate(lines, start=2) if line.strip("\r\n")]


def _first_bad_line(lines: list[str], dtype: np.dtype) -> tuple[int, str, np.ndarray]:
    """Index of the first line that does not parse as one row, why, and the
    rows the search parsed on the way, which cover every line before it.

    Bisects with bulk parses, O(log n) of them over 2n lines in all."""
    lo, hi, chunks = 0, len(lines), [np.empty(0, dtype)]
    while hi - lo > 1:  # lines[:lo] parse, into chunks; the first bad line is in lines[lo:hi]
        mid = (lo + hi) // 2
        try:
            chunks.append(np.loadtxt(lines[lo:mid], dtype=dtype, **_LOADTXT))
        except ValueError:
            hi = mid
        else:
            lo = mid
    parsed = np.concatenate(chunks)
    try:
        np.loadtxt(lines[lo : lo + 1], dtype=dtype, **_LOADTXT)
    except ValueError as exc:
        if len(next(csv.reader([lines[lo]]))) != len(dtype.names):
            return lo, f"expected {len(dtype.names)} fields", parsed
        return lo, str(exc), parsed
    # the line parses alone, so a quoted field runs on over a line end
    k = next((k for k, line in enumerate(lines[: lo + 1]) if line.count('"') % 2), lo)
    return k, "quoted field not closed on its line", parsed


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


@dataclass(frozen=True)
class Experiment:
    """An experiment config, parsed and checked once; the replications read it."""

    signal: SignalSpec
    noise: NoiseSpec
    method: str
    hypers: dict  # hyperparameter overrides
    replications: int
    seed: int  # replication r simulates with seed + r
    sigma_mode: str | float  # "true", "mad" or a fixed value
    binned: tuple[int, int] | None  # (n, grid)
    gibbs: GibbsConfig  # replication r runs its chains with gibbs.seed + r
    edge_fraction: float
    grid: dict  # {hyperparameter: values}, at most one: one bench row per value
    manifest: dict  # the signal, noise and binned entries as written


_CONFIG_KEYS = tuple(f.name for f in fields(Experiment) if f.name != "manifest")
_HYPER_KEYS = tuple(f.name for f in fields(Hyperparameters))


def _hypers_for(length: int, method: str, overrides: dict) -> Hyperparameters:
    if method == "basad":
        return Hyperparameters.basad_defaults(length, **overrides)
    return Hyperparameters.solo_defaults(length, **overrides)


def _sigma_rule(mode) -> str | float:
    """The sigma_mode as "true", "mad", or the value of "fixed:<value>"."""
    if mode in ("true", "mad"):
        return mode
    if not mode.startswith("fixed:"):
        raise InvalidConfigError(f"sigma_mode must be true, mad, or fixed:<value>, got {mode!r}")
    return float(mode[len("fixed:"):])


def load_experiment_config(path: str) -> Experiment:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not isinstance(cfg, dict) or "signal" not in cfg or "noise" not in cfg:
        raise InvalidConfigError(f"{path}: config needs 'signal' and 'noise' entries")
    try:  # a malformed entry raises one of these while it is read or converted
        return _parse_experiment(cfg)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidConfigError(
            f"{path}: malformed config entry ({type(exc).__name__}: {exc})"
        ) from None


def _parse_experiment(cfg: dict) -> Experiment:
    hypers, binned, grid = cfg.get("hypers", {}), cfg.get("binned") or {}, cfg.get("grid") or {}
    for entries, allowed, what in (cfg, _CONFIG_KEYS, "config"), (binned, ("n", "grid"), "binned"):
        unknown = set(entries) - set(allowed)
        if unknown:
            raise InvalidConfigError(f"unknown {what} keys {sorted(unknown)}")
    method = cfg.get("method", "solo")
    if method not in ("solo", "basad", "single"):
        raise InvalidConfigError(f"unknown method {method!r}")
    if len(grid) > 1 or not all(grid.values()):
        raise InvalidConfigError("grid takes one swept parameter and a nonempty list of values")
    replications = checked_number(cfg.get("replications", 1), "replications", Integral)
    seed = checked_number(cfg.get("seed", 0), "seed", Integral)
    if replications < 1 or seed < 0:
        raise InvalidConfigError("replications must be >= 1 and seed >= 0")
    if binned:
        binned = tuple(checked_number(binned[k], f"binned.{k}", Integral) for k in ("n", "grid"))
        if min(binned) < 2:
            raise InvalidConfigError(f"binned n and grid must be >= 2, got {binned}")
        if method == "single":
            raise InvalidConfigError("method single locates in plain series, not binned ones")
    signal = cfg["signal"]
    signal = builtin_signal(signal) if isinstance(signal, str) else SignalSpec(**signal)
    # Hyperparameters checks keys, types and ranges: a bad base or grid row fails here
    length = binned[1] if binned else signal.length
    for row in [{}, *({k: v} for k, vs in grid.items() for v in vs)]:
        _hypers_for(length, method, {**hypers, **row})
    return Experiment(
        signal=signal,
        noise=NoiseSpec(**cfg["noise"]),
        method=method,
        hypers=dict(hypers),
        replications=replications,
        seed=seed,
        sigma_mode=_sigma_rule(cfg.get("sigma_mode", "true")),
        binned=binned or None,
        gibbs=GibbsConfig(**cfg.get("gibbs", {}), seed=seed + _CHAIN_SEED_OFFSET),
        edge_fraction=checked_edge_fraction(cfg.get("edge_fraction", 0.05)),
        grid={k: tuple(vs) for k, vs in grid.items()},
        manifest={"signal": cfg["signal"], "noise": cfg["noise"], "binned": cfg.get("binned")},
    )


# -------------------------------------------------------------- replications


def _make_dataset(exp: Experiment, rep: int):
    """Replication rep's series, with the sigma rule applied, and its true
    change points."""
    if exp.binned:
        n, grid = exp.binned
        series = simulate_binned(exp.signal, exp.noise, n, grid, exp.seed + rep)
        truth = map_changepoints_to_bins(exp.signal, grid, series.source_bins)
    else:
        series = simulate(exp.signal, exp.noise, exp.seed + rep)
        truth = exp.signal.changepoints
    if exp.sigma_mode == "mad":
        series = replace(series, noise_sd=estimate_sigma_mad(series))
    elif exp.sigma_mode != "true":  # a fixed value
        series = replace(series, noise_sd=exp.sigma_mode)
    return series, truth


def run_replication(exp: Experiment, rep: int) -> tuple[EvalReport, float]:
    """simulate -> detect -> evaluate for one seeded replication."""
    series, truth = _make_dataset(exp, rep)
    hypers = _hypers_for(series.length, exp.method, exp.hypers)
    start = time.perf_counter()
    if exp.method == "single":
        est = [single_cp_locate(series, hypers, exp.edge_fraction).site]
    else:
        gibbs_cfg = replace(exp.gibbs, seed=exp.gibbs.seed + rep)
        est = detect(series, hypers, method=exp.method, gibbs_config=gibbs_cfg).selected
    elapsed = time.perf_counter() - start
    return evaluate_sets(est, truth, series.length), elapsed


def _grid_rows(exp: Experiment) -> list[tuple[str, Experiment]]:
    """One labeled experiment per value of the swept hyperparameter; no grid
    yields the single base row."""
    if not exp.grid:
        return [(exp.method, exp)]
    (param, values), = exp.grid.items()
    return [
        (f"{exp.method}-{param}{v}", replace(exp, hypers={**exp.hypers, param: v}, grid={}))
        for v in values
    ]


def _aggregate(reports: list[EvalReport], times: list[float]) -> list[str]:
    ht = np.vstack([r.hist_true for r in reports])
    he = np.vstack([r.hist_est for r in reports])
    with warnings.catch_warnings():  # a column with no detections stays nan, quietly
        warnings.simplefilter("ignore", RuntimeWarning)
        cols = list(np.nanmean(ht, axis=0)) + list(np.nanmean(he, axis=0))
    cols += [
        float(np.mean([r.k_bias for r in reports])),
        float(np.mean([r.hausdorff for r in reports])),
        float(np.mean(times)),
    ]
    return [f"{c:.6g}" for c in cols]


def _n_jobs(flag_value) -> int:
    """Worker processes: --jobs, else SOLOCP_JOBS, else 1; below 1 is an error."""
    jobs = flag_value
    if jobs is None:
        env = os.environ.get("SOLOCP_JOBS")
        try:
            jobs = int(env) if env else 1
        except ValueError:
            raise InvalidConfigError(f"SOLOCP_JOBS must be an integer, got {env!r}") from None
    if jobs < 1:
        raise InvalidConfigError(f"jobs must be >= 1, got {jobs}")
    return jobs


# ------------------------------------------------------------------ commands


def cmd_detect(args) -> int:
    if args.probs_csv and args.method == "single":
        raise InvalidConfigError("--probs-csv needs per-site probabilities; single has none")
    series = read_series_csv(args.input)
    sigma = args.sigma if args.sigma is not None else estimate_sigma_mad(series)
    if sigma <= 0:
        raise InvalidConfigError("sigma must be positive (constant input data?)")
    series = replace(series, noise_sd=sigma)
    overrides = {k: getattr(args, k) for k in _HYPER_KEYS if getattr(args, k) is not None}
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
    if args.probs_csv:
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
    exp = load_experiment_config(args.config)
    entries = []
    for rep in range(exp.replications):
        series, truth = _make_dataset(exp, rep)
        os.makedirs(args.outdir, exist_ok=True)  # a config failing here leaves no OUTDIR
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
        entries.append({"file": name, "seed": exp.seed + rep, "changepoints": list(truth)})
    manifest = dict(
        exp.manifest, replications=exp.replications, base_seed=exp.seed, datasets=entries
    )
    with open(os.path.join(args.outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {exp.replications} datasets to {args.outdir}")
    return 0


def cmd_bench(args) -> int:
    exp = load_experiment_config(args.config)
    jobs = _n_jobs(args.jobs)
    rows, n = _grid_rows(exp), exp.replications
    tasks = [(sub, rep) for _, sub in rows for rep in range(n)]  # row-major, as map returns them
    with ProcessPoolExecutor(jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        results = list((pool.map if pool else map)(run_replication, *zip(*tasks)))
    lines = [",".join(["label", *EvalReport.csv_header()])]
    for k, (label, _) in enumerate(rows):
        reports, times = zip(*results[k * n : (k + 1) * n])
        lines.append(",".join([label, *_aggregate(reports, times)]))
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
    p_detect.add_argument("--seed", type=int, default=GibbsConfig.seed, help="basad chain seed")
    p_detect.add_argument("--iterations", type=int, default=GibbsConfig.iterations)
    p_detect.add_argument("--burn-in", dest="burn_in", type=int, default=GibbsConfig.burn_in)
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
