"""Command-line interface.

    solocp detect   INPUT.csv  [flags]      detection report for user data
    solocp simulate CONFIG.json OUTDIR      write seeded benchmark datasets
    solocp bench    CONFIG.json [flags]     simulate -> detect -> evaluate grid

Input CSV schema (UTF-8, a BOM allowed, ',' separator, '.' decimal, header required):
column pair "t,y" for plain series or triple "t,y,bin" for grouped data; t
finite and strictly increasing, bin ids positive and nondecreasing.

Experiment configs are JSON objects (UTF-8, a BOM allowed); signal and noise
are required:

    signal         builtin name (BLOCKS, TEETH, BLOCKS2) or
                   {"length", "changepoints", "levels"}
    noise          {"family": "gaussian", "sd"}, {"family": "laplace", "scale"},
                   {"family": "student_t", "df", "scale" (1)} or
                   {"family": "gaussian_mixture", "weights", "sds"}
    method         solo (default), basad or single
    hypers         overrides of tau0_sq, tau1_sq, tau_sq, q, delta, threshold
    replications   seeded replications, 1 to 100,000 (1)
    seed           base seed >= 0; replication r uses seed + r (0)
    sigma_mode     true (default), mad or fixed:<value>; a fixed value, like
                   detect --sigma, must be positive and finite; mad and fixed
                   also work for noise without a finite variance (student_t
                   df <= 2)
    binned         {"n", "grid"}: n random points grouped on a grid of cells
    gibbs          {"iterations" (5000), "burn_in" (1000)} for method basad
    grid           {"<hyperparameter>": [values]}: one bench row per value
    edge_fraction  search window of method single, in (0, 1/2) (0.05)

The loader checks the top level (keys, method, replications, seed, sigma_mode,
binned, and grid: one parameter, a nonempty list). Each other entry is checked,
unknown and missing keys too, by the type it becomes: signal by SignalSpec,
noise by NoiseSpec, gibbs by GibbsConfig, edge_fraction by
detect.checked_edge_fraction, and each bench row as it will run (hypers, or
with a grid hypers plus one grid value, never hypers alone) by Hyperparameters
with the defaults at the signal length, or if binned at min(n, grid), the most
groups a replication can have. A binned replication whose empty cells leave
fewer groups gets the defaults for that count, so hypers that pass at load can
still fail in bench. Method single takes no binned entry. Integer entries must
be JSON integers in their range (types.checked_integer); no number may be a
bool. A signal length and binned n and
grid are sizes, integers from 2 to 2**53 (types.checked_size): past 2**53 the
positions of sites and of points are no longer exact floats.

The detect report is one line of JSON with sorted keys.
Every library error or failed allocation exits nonzero with an "error[<Type>]:" prefix.
A library error inside a replication of simulate or bench names it, as
"replication r (seed s): ..." before its series exists and "replication r
(seed s, M groups): ..." after; with more than one bench row, the row comes
first: "replication r (row L, seed s, M groups): ...". With --jobs above 1,
bench reports the first failing replication in row-major order, as with one.
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
from dataclasses import dataclass, fields, replace

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
from .types import BinnedSeries, Hyperparameters, TimeSeries, checked_integer, checked_size

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
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = next(csv.reader(fh), None)
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except csv.Error as exc:  # a field past csv's size limit; before Python 3.11, a NUL byte
        raise ParseError(f"{path}: line 1: {exc}") from None
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
        try:
            count = len(next(csv.reader([lines[lo]])))
        except csv.Error as err:  # a field csv cannot read, as in the header
            return lo, str(err), parsed
        if count != len(dtype.names):
            return lo, f"expected {len(dtype.names)} fields", parsed
        return lo, str(exc), parsed
    # the line parses alone, so a quoted field runs on over a line end
    k = next((k for k, line in enumerate(lines[: lo + 1]) if line.count('"') % 2), lo)
    return k, "quoted field not closed on its line", parsed


def _check_order(path: str, rows: np.ndarray, lines: list[str]) -> None:
    """Raise on the first row, in file order, that breaks the ordering rules;
    on one line the checks apply in the order listed."""
    t = rows["t"]  # a NaN t fails every comparison and an infinite one may pass them all
    checks = [(np.isnan(t), 0, "t must be a number, got nan"),
              (np.isinf(t), 0, "t must be finite")]
    checks += [(t[1:] <= t[:-1], 1, "t must be strictly increasing")]
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
    rows: tuple[tuple[str, dict], ...]  # (label, hyperparameter overrides) per bench row
    replications: int
    seed: int  # replication r simulates with seed + r
    sigma_mode: str | float  # "true", "mad" or a fixed value
    binned: tuple[int, int] | None  # (n, grid)
    gibbs: GibbsConfig  # replication r runs its chains with gibbs.seed + r
    manifest: dict  # the signal, noise and binned entries as written
    edge_fraction: float = 0.05  # also the default of detect --edge-fraction


# simulate writes one file per replication and bench holds one task per replication
_MAX_REPLICATIONS = 100_000
_CONFIG_KEYS = {f.name for f in fields(Experiment)} - {"rows", "manifest"} | {"hypers", "grid"}
_HYPER_KEYS = tuple(f.name for f in fields(Hyperparameters))
# the methods, each with the defaults its hyperparameters start from
_METHOD_DEFAULTS = {
    "solo": Hyperparameters.solo_defaults,
    "basad": Hyperparameters.basad_defaults,
    "single": Hyperparameters.solo_defaults,
}


def _fixed_sigma(value: float) -> float:
    if not (value > 0 and np.isfinite(value)):
        raise InvalidConfigError(f"a fixed sigma must be positive and finite, got {value}")
    return value


def _sigma_rule(mode) -> str | float:
    """The sigma_mode as "true", "mad", or the value of "fixed:<value>"."""
    if mode in ("true", "mad"):
        return mode
    if not mode.startswith("fixed:"):
        raise InvalidConfigError(f"sigma_mode must be true, mad, or fixed:<value>, got {mode!r}")
    return _fixed_sigma(float(mode[len("fixed:"):]))


def load_experiment_config(path: str) -> Experiment:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            cfg = json.load(fh)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError too
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
    if method not in _METHOD_DEFAULTS:
        raise InvalidConfigError(f"unknown method {method!r}")
    if len(grid) > 1 or not all(grid.values()):
        raise InvalidConfigError("grid takes one swept parameter and a nonempty list of values")
    replications = checked_integer(cfg.get("replications", 1), "replications", 1, _MAX_REPLICATIONS)
    seed = checked_integer(cfg.get("seed", 0), "seed", 0)
    if binned:
        binned = tuple(checked_size(binned[k], f"binned.{k}") for k in ("n", "grid"))
        if method == "single":
            raise InvalidConfigError("method single locates in plain series, not binned ones")
    signal = cfg["signal"]
    signal = builtin_signal(signal) if isinstance(signal, str) else SignalSpec(**signal)
    rows = tuple(
        (f"{method}-{param}{v}", {**hypers, param: v}) for param, vs in grid.items() for v in vs
    ) or ((method, {**hypers}),)
    # Hyperparameters checks keys, types and ranges: a bad row fails here
    length = min(binned) if binned else signal.length  # no more groups than points or cells
    for _, overrides in rows:
        _METHOD_DEFAULTS[method](length, **overrides)
    return Experiment(
        signal=signal,
        noise=NoiseSpec(**cfg["noise"]),
        method=method,
        rows=rows,
        replications=replications,
        seed=seed,
        sigma_mode=_sigma_rule(cfg.get("sigma_mode", "true")),
        binned=binned or None,
        gibbs=GibbsConfig(**cfg.get("gibbs", {}), seed=seed + _CHAIN_SEED_OFFSET),
        edge_fraction=checked_edge_fraction(cfg.get("edge_fraction", Experiment.edge_fraction)),
        manifest={"signal": cfg["signal"], "noise": cfg["noise"], "binned": cfg.get("binned")},
    )


# -------------------------------------------------------------- replications


@contextlib.contextmanager
def _replication(exp: Experiment, rep: int, label: str | None = None):
    """Replication rep's series, with the sigma rule applied, and its true
    change points, for the block that uses them. Only rule "true" reads the
    noise family's sd; "mad" simulates with a placeholder 1.0 and replaces it
    by the estimate.

    A SolocpError raised here or in the block is re-raised as the same object,
    its message prefixed with "replication r (row L, seed s, M groups): ": the
    row label if the config has more than one row, the group count once the
    series exists."""
    mode, series = exp.sigma_mode, None
    sd = None if mode == "true" else 1.0 if mode == "mad" else mode
    try:
        if exp.binned:
            n, grid = exp.binned
            series = simulate_binned(exp.signal, exp.noise, n, grid, exp.seed + rep, sd)
            truth = map_changepoints_to_bins(exp.signal, grid, series.source_bins)
        else:
            series = simulate(exp.signal, exp.noise, exp.seed + rep, sd)
            truth = exp.signal.changepoints
        if mode == "mad":
            series = replace(series, noise_sd=estimate_sigma_mad(series))
        yield series, truth
    except SolocpError as exc:
        row = f"row {label}, " if label is not None and len(exp.rows) > 1 else ""
        groups = "" if series is None else f", {series.length} groups"
        exc.args = (f"replication {rep} ({row}seed {exp.seed + rep}{groups}): {exc}",)
        raise


def run_replication(exp: Experiment, rep: int, row: tuple[str, dict]) -> tuple[EvalReport, float]:
    """simulate -> detect -> evaluate for one seeded replication of one bench
    row, (label, hyperparameter overrides)."""
    label, overrides = row
    with _replication(exp, rep, label) as (series, truth):
        # the loader checked the overrides at the most groups a binned replication can have
        hypers = _METHOD_DEFAULTS[exp.method](series.length, **overrides)
        start = time.perf_counter()
        if exp.method == "single":
            est = [single_cp_locate(series, hypers, exp.edge_fraction).site]
        else:
            gibbs_cfg = replace(exp.gibbs, seed=exp.gibbs.seed + rep)
            est = detect(series, hypers, method=exp.method, gibbs_config=gibbs_cfg).selected
        elapsed = time.perf_counter() - start
        return evaluate_sets(est, truth, series.length), elapsed


def _column_nanmeans(a: np.ndarray) -> list[float]:
    """np.nanmean(a, axis=0) bit for bit, without its warning for an all-NaN column."""
    nan = np.isnan(a)
    with np.errstate(invalid="ignore"):
        return (np.where(nan, 0.0, a).sum(axis=0) / (~nan).sum(axis=0)).tolist()


def _aggregate(reports: list[EvalReport], times: list[float]) -> list[str]:
    """Each column's mean over the replications: the column sum in replication
    order over R (k_bias, hausdorff and time_s are never NaN)."""
    rows = [(*r.hist_true, *r.hist_est, r.k_bias, r.hausdorff, t) for r, t in zip(reports, times)]
    return [f"{c:.6g}" for c in _column_nanmeans(np.array(rows))]


# ------------------------------------------------------------------ commands


@contextlib.contextmanager
def _output_file(path: str):
    """path, opened before the work whose output it will hold: in append mode,
    so nothing is truncated until _emptied, and removed if this call created
    it and the work fails. A failed run leaves an existing file as it was and
    no new one; a path that cannot be opened fails before the work starts."""
    created = not os.path.exists(path)
    with contextlib.ExitStack() as undo:
        with open(path, "a", newline="", encoding="utf-8") as fh:
            if created:
                undo.callback(os.remove, path)
            yield fh
        undo.pop_all()


def _emptied(fh):
    """A file from _output_file, truncated for the output it now takes. A
    pipe cannot be truncated and holds nothing old, and a file that is still
    empty is not truncated: on some filesystems that costs 30 us."""
    if fh.seekable() and fh.tell():
        fh.truncate(0)
    return fh


def cmd_detect(args) -> int:
    if args.probs_csv and args.method == "single":
        raise InvalidConfigError("--probs-csv needs per-site probabilities; single has none")
    if args.out and args.probs_csv and (
        os.path.realpath(args.out) == os.path.realpath(args.probs_csv)
    ):  # the CSV, written last, would replace the report
        raise InvalidConfigError("--out and --probs-csv name the same file")
    series = read_series_csv(args.input)
    sigma = _fixed_sigma(args.sigma) if args.sigma is not None else estimate_sigma_mad(series)
    if sigma == 0:  # a MAD estimate; a fixed sigma is positive
        raise InvalidConfigError("sigma must be positive (constant input data?)")
    series = replace(series, noise_sd=sigma)
    overrides = {k: getattr(args, k) for k in _HYPER_KEYS if getattr(args, k) is not None}
    hypers = _METHOD_DEFAULTS[args.method](series.length, **overrides)
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
        gibbs_cfg = (GibbsConfig(iterations=args.iterations, burn_in=args.burn_in, seed=args.seed)
                     if args.method == "basad" else GibbsConfig())
        result = detect(series, hypers, method=args.method, gibbs_config=gibbs_cfg)
        report.update(
            locations=list(result.selected.locations),
            count=result.selected.count,
            probabilities=result.probabilities.tolist(),
            clusters=[list(c) for c in result.clusters],
        )
    text = json.dumps(report, sort_keys=True)
    # the CSV opens first and is emptied once the report is written: a path
    # that cannot be opened leaves no report, and the other file as it was
    with _output_file(args.probs_csv) if args.probs_csv else contextlib.nullcontext() as probs_fh:
        out_fh = open(args.out, "w", encoding="utf-8") if args.out else None
        with out_fh or contextlib.nullcontext(sys.stdout) as fh:
            fh.write(text + "\n")
        if probs_fh:
            fitted = _fitted_levels(series, report["locations"]).tolist()
            writer = csv.writer(_emptied(probs_fh))
            writer.writerow(["site", "probability", "fitted_mean"])
            writer.writerow([1, "", repr(fitted[0])])
            rows = enumerate(zip(report["probabilities"], fitted[1:]), start=2)
            writer.writerows((site, repr(prob), repr(level)) for site, (prob, level) in rows)
    return 0


def _fitted_levels(series, locations) -> np.ndarray:
    """Per-site fitted level: mean of the observations of each segment."""
    bounds = [0, *(k - 1 for k in locations), series.length]
    out = np.empty(series.length)
    for lo, hi in zip(bounds, bounds[1:]):
        out[lo:hi] = series.sums[lo:hi].sum() / series.counts[lo:hi].sum()
    return out


def cmd_simulate(args) -> int:
    """Write OUTDIR/rep_<r>.csv per replication, then OUTDIR/manifest.json.
    Every file is written into a temporary directory inside OUTDIR and moved
    into place, the manifest last, once all are written. A failed run removes
    the directories it created and leaves an existing OUTDIR as it was."""
    import tempfile  # detect and bench never load it

    exp = load_experiment_config(args.config)
    entries = []
    with contextlib.ExitStack() as undo:
        head, missing = os.path.abspath(args.outdir), []
        while not os.path.exists(head):  # OUTDIR and its missing parents, innermost first
            missing.append(head)
            head = os.path.dirname(head)
        for new in reversed(missing):
            os.mkdir(new)
            undo.callback(os.rmdir, new)
        with tempfile.TemporaryDirectory(dir=args.outdir) as staging:
            for rep in range(exp.replications):
                name = f"rep_{rep:03d}.csv"
                with (
                    _replication(exp, rep) as (series, truth),
                    open(os.path.join(staging, name), "w", newline="", encoding="utf-8") as fh,
                ):
                    writer = csv.writer(fh)
                    ts = range(1, series.values.size + 1)
                    ys = [repr(y) for y in series.values.tolist()]
                    if isinstance(series, TimeSeries):
                        writer.writerow(["t", "y"])
                        writer.writerows(zip(ts, ys))
                    else:
                        writer.writerow(["t", "y", "bin"])
                        ids = np.repeat(np.arange(1, series.length + 1), series.counts.astype(int))
                        writer.writerows(zip(ts, ys, ids.tolist()))
                entries.append({"file": name, "seed": exp.seed + rep, "changepoints": list(truth)})
            manifest = dict(
                exp.manifest, replications=exp.replications, base_seed=exp.seed, datasets=entries
            )
            with open(os.path.join(staging, "manifest.json"), "w", newline="",
                      encoding="utf-8") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")
            for name in [*(e["file"] for e in entries), "manifest.json"]:
                os.replace(os.path.join(staging, name), os.path.join(args.outdir, name))
        undo.pop_all()
    print(f"wrote {exp.replications} datasets to {args.outdir}")
    return 0


def cmd_bench(args) -> int:
    exp = load_experiment_config(args.config)
    n = exp.replications  # tasks are row-major, as map returns them
    tasks = [(exp, rep, row) for row in exp.rows for rep in range(n)]
    # a fork-started pool forks all its workers at the first submit, so start
    # no more than there are tasks
    workers = min(checked_integer(args.jobs, "jobs", 1), len(tasks))
    # --out opens before the first replication, so an unopenable path costs no run
    with _output_file(args.out) if args.out else contextlib.nullcontext() as out_fh:
        if workers == 1:  # no pool: importing concurrent.futures costs a fresh process about 25 ms
            results = list(map(run_replication, *zip(*tasks)))
        else:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(workers) as pool:
                results = list(pool.map(run_replication, *zip(*tasks)))
        lines = [",".join(["label", *EvalReport.csv_header()])]
        for k, (label, _) in enumerate(exp.rows):
            reports, times = zip(*results[k * n : (k + 1) * n])
            lines.append(",".join([label, *_aggregate(reports, times)]))
        text = "\n".join(lines) + "\n"
        if out_fh:
            _emptied(out_fh).write(text)
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
    p_detect.add_argument("--method", choices=_METHOD_DEFAULTS, default="solo")
    p_detect.add_argument("--sigma", type=float, default=None,
                          help="noise sd; omitted -> robust MAD estimate")
    # --tau0-sq ... --threshold, read back by cmd_detect; Hyperparameters
    # checks that --delta is a whole number, as it does for a config's delta
    for name in _HYPER_KEYS:
        p_detect.add_argument("--" + name.replace("_", "-"), type=float)
    p_detect.add_argument("--seed", type=int, default=GibbsConfig.seed, help="basad chain seed")
    p_detect.add_argument("--iterations", type=int, default=GibbsConfig.iterations)
    p_detect.add_argument("--burn-in", dest="burn_in", type=int, default=GibbsConfig.burn_in)
    p_detect.add_argument("--edge-fraction", type=float, default=Experiment.edge_fraction)
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
    p_bench.add_argument("--jobs", type=int, default=1,
                         help="worker processes for the replications (default 1)")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SolocpError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's subclass would print as _ArrayMemoryError
        print(f"error[MemoryError]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[IO]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
