"""The benchmark run: inputs, oracle gate, timed loop, checks and metrics.

Imported by run.py once the BLAS thread settings and the package path are
in place.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy
import solocp.cli

import calibrate
from oracle_gate import mismatches
from spans import Tracer
from workloads import WORKLOADS, InvalidOutput

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
HERE = Path(__file__).resolve().parent


def call_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call; returns the exit code and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = solocp.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed item, not a failed run
            traceback.print_exc()
            code = 1
    return code, err.getvalue()


def setup_probe(src: Path, argv: list[str]) -> float:
    """Seconds for `import solocp` plus one item, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(src), *argv],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    probe = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if probe.get("exit") != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    return probe["seconds"]


def git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def environment(root: Path) -> dict:
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": {
            k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")
        },
    }


@dataclass
class Run:
    """One timed item."""

    index: int  # into the input pool
    out: Path
    seconds: float
    kernel: int  # index of the calibration kernel run just before the item
    traced: bool
    code: int
    stderr: str
    scale: float = 1.0  # speed calibration factor, set after the loop


def timed_loop(workload, items, workdir: Path, seconds: float, tracer, probe):
    """Closed loop over the item pool for `seconds`, and at least one pass.

    The calibration kernel runs between items. With a tracer, every other
    item runs with the span wrappers installed; the parity flips each pass
    so every item is seen both ways. Without one, SETUP_PROBES set-up probes
    are spread evenly over the loop, so their median samples the host at
    several moments; the loop's clock is paused while a probe runs.

    Returns the runs, the probes as (seconds, calibration factor) and the
    kernel times.
    """
    runs: list[Run] = []
    probes = []  # (raw seconds, kernel index before the probe)
    kernels = [calibrate.kernel_seconds()]
    paused = 0.0
    gc.collect()
    start = time.perf_counter()
    k = 0
    while True:
        now = time.perf_counter() - start - paused
        if k >= len(items) and now >= seconds:
            break
        probe_due = len(probes) * seconds / SETUP_PROBES
        if tracer is None and len(probes) < SETUP_PROBES and now >= probe_due:
            t0 = time.perf_counter()
            probes.append((probe(), len(kernels) - 1))
            kernels.append(calibrate.kernel_seconds())
            paused += time.perf_counter() - t0
        idx = k % len(items)
        traced = tracer is not None and (k + k // len(items)) % 2 == 1
        out = workdir / f"out-{k:05d}{workload.out_suffix}"
        argv = [*items[idx], "--out", str(out)]
        if traced:
            tracer.item = k
            tracer.install()
        t0 = time.perf_counter()
        with tracer.span("cli.main") if traced else contextlib.nullcontext():
            code, err = call_cli(argv)
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        runs.append(Run(idx, out, elapsed, len(kernels) - 1, traced, code, err))
        kernels.append(calibrate.kernel_seconds())
        k += 1
    for run in runs:
        run.scale = calibrate.scale(kernels, run.kernel)
    return runs, [(p, calibrate.scale(kernels, i)) for p, i in probes], kernels


def check_outputs(workload, runs: list[Run]):
    """Validate every item; repeats of an input must give the same output.

    Returns the first outcome of each pool item and the failure messages.
    """
    first = {}
    failures = []
    for k, run in enumerate(runs):
        try:
            if run.code != 0:
                raise InvalidOutput(f"exit code {run.code}: {run.stderr.strip()[-500:]}")
            outcome = workload.check(run.out)
            if run.index in first and outcome.canonical != first[run.index].canonical:
                raise InvalidOutput(f"output differs from the first run of input {run.index}")
        except InvalidOutput as exc:
            failures.append(f"item {k} (input {run.index}): {exc}")
            continue
        first.setdefault(run.index, outcome)
    return first, failures


def score_quality(outcomes) -> dict[str, float]:
    """Selected sets against the truth, pooled over the distinct inputs."""
    true_count = sum(o.true_count for o in outcomes)
    est_count = sum(o.est_count for o in outcomes)
    return {
        "recall_within2": sum(o.true_hits for o in outcomes) / true_count,
        "precision_within2": sum(o.est_hits for o in outcomes) / est_count if est_count else 0.0,
        "hausdorff_mean": statistics.fmean(o.hausdorff for o in outcomes),
        "count_error_mean": statistics.fmean(abs(o.est_count - o.true_count) for o in outcomes),
    }


def end_to_end_metrics(runs: list[Run], probes, quality: dict, failed: int) -> dict:
    cal_ms = sorted(1e3 * r.seconds * r.scale for r in runs)
    return {
        "setup_s": (statistics.median(p * f for p, f in probes), "s"),
        "cal_items_per_s": (1e3 * len(runs) / sum(cal_ms), "1/s"),
        "cal_latency_p50_ms": (statistics.median(cal_ms), "ms"),
        "cal_latency_p90_ms": (statistics.quantiles(cal_ms, n=10)[-1], "ms"),
        "recall_within2": (quality.get("recall_within2", 0.0), "ratio"),
        "precision_within2": (quality.get("precision_within2", 0.0), "ratio"),
        "success_frac": ((len(runs) - failed) / len(runs), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer_metrics(tracer: Tracer, runs: list[Run], quality: dict) -> dict:
    metrics = tracer.layer_metrics({k: r.scale for k, r in enumerate(runs) if r.traced})
    metrics["detect.hausdorff_mean"] = (quality.get("hausdorff_mean", 0.0), "sites")
    metrics["detect.count_error_mean"] = (quality.get("count_error_mean", 0.0), "cps")
    rate = {}
    for traced in (False, True):
        scaled = [r.seconds * r.scale for r in runs if r.traced == traced]
        rate[traced] = len(scaled) / sum(scaled)
    metrics["trace.overhead_frac"] = ((rate[True] - rate[False]) / rate[False], "ratio")
    return metrics


def run(args, root: Path, src: Path) -> int:
    """One benchmark run; prints the result as the last stdout line."""
    workload = WORKLOADS[args.workload]
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        items = workload.make_items(args.seed, workdir)
        gate = []
        if workload.solo:
            for instance in workload.gate_instances(args.seed):
                gate += mismatches(instance)
        for line in gate[:10]:
            print(f"oracle gate: {line}", file=sys.stderr)

        call_cli([*items[0], "--out", str(workdir / "warmup")])
        tracer = Tracer() if args.trace else None
        probe_argv = [*items[0], "--out", str(workdir / "probe")]
        runs, probes, kernels = timed_loop(
            workload, items, workdir, args.seconds, tracer, lambda: setup_probe(src, probe_argv)
        )
        first, failures = check_outputs(workload, runs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in failures[:10]:
        print(f"failed {line}", file=sys.stderr)

    quality = score_quality(first.values()) if first else {}
    raw_ms = sorted(1e3 * r.seconds for r in runs)
    raw = {
        "setup_s": statistics.median(p for p, _ in probes) if probes else None,
        "items_per_s": len(runs) / sum(r.seconds for r in runs),
        "latency_p50_ms": statistics.median(raw_ms),
        "latency_p90_ms": statistics.quantiles(raw_ms, n=10)[-1],
    }
    if args.trace:
        metrics = per_layer_metrics(tracer, runs, quality)
    else:
        metrics = end_to_end_metrics(runs, probes, quality, len(failures))
    result = {
        "correct": not gate and not failures,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }

    env = environment(root)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = HERE / "_results"
    results.mkdir(exist_ok=True)
    record = {
        "env": env,
        "args": vars(args),
        "result": result,
        "raw": raw,
        "quality": quality,
        "oracle_gate_mismatches": gate,
        "failures": failures,
        "setup_probes": [{"seconds": p, "scale": f} for p, f in probes],
        "items": [
            {"input": r.index, "seconds": r.seconds, "kernel": r.kernel, "traced": r.traced}
            for r in runs
        ],
        "kernel_seconds": kernels,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        spans = [dict(s, self=own) for s, own in zip(tracer.spans, tracer.self_times())]
        (results / f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")
    print("env " + json.dumps(env))
    print("raw " + json.dumps(raw))
    print("quality " + json.dumps(quality))
    print(json.dumps(result))
    return 0
