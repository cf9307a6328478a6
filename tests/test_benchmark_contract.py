"""What the benchmark under benchmarks/ needs from the package.

The benchmark files are read, never changed, here: `Tracer.install` skips a
span boundary whose attribute is gone, so its per-layer metric would read 0
without an error, and the oracle gate builds series the way the benchmark's
own code does.
"""
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import solocp.cli
from solocp import BinnedSeries, TimeSeries

_BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", _BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def test_every_span_boundary_resolves():
    for module_name, attr, span, _ in _load("spans").BOUNDARIES:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{span}: {module_name}.{attr} is missing"


@pytest.mark.parametrize("seed", [0, 1, 101])
def test_every_workload_builds_its_gate_instances(seed):
    for name, workload in _load("workloads").WORKLOADS.items():
        instances = workload.gate_instances(seed)
        assert instances, name
        for series in instances:
            assert isinstance(series, (TimeSeries, BinnedSeries)), name
            assert series.length >= 2 and series.sums.size == series.length, name


def test_oracle_gate_passes_on_small_series():
    # the gate imports from the package and reads the summary fields; a
    # deletion that breaks either fails here, not in the benchmark run
    mismatches = _load("oracle_gate").mismatches
    rng = np.random.default_rng(5)
    plain = TimeSeries(np.where(np.arange(12) >= 6, 3.0, 0.0) + rng.normal(0, 1, 12), 1.0)
    counts = np.array([1, 3, 2, 1, 2, 3])
    binned = BinnedSeries(np.repeat([0.0, 0.0, 0.0, 2.0, 2.0, 2.0], counts)
                          + rng.normal(0, 0.5, counts.sum()), 0.5, counts=counts)
    assert mismatches(plain) == []
    assert mismatches(binned) == []


_BASAD_FLAGS = ["--method", "basad", "--iterations", "200", "--burn-in", "50"]


@pytest.mark.parametrize("extra", [[], _BASAD_FLAGS], ids=["solo", "basad"])
def test_span_counters_read_the_detection_result(tmp_path, extra):
    # the per-layer counts come from DetectionResult fields and the Gibbs
    # config; a renamed field would read 0 in a benchmark run, not fail
    rng = np.random.default_rng(7)
    y = np.repeat([0.0, 4.0, 0.0], 20) + rng.normal(0, 0.5, 60)
    data = tmp_path / "jumps.csv"
    rows = "".join(f"{t},{v!r}\n" for t, v in enumerate(y.tolist(), start=1))
    data.write_text("t,y\n" + rows)
    out = tmp_path / "report.json"
    tracer = _load("spans").Tracer()
    tracer.install()
    try:
        assert solocp.cli.main(["detect", str(data), "--out", str(out), *extra]) == 0
    finally:
        tracer.uninstall()
    report = json.loads(out.read_text())
    spans = {s["name"]: s["counts"] for s in tracer.spans}
    assert report["count"] >= 1
    assert spans["detect.detect"] == {
        "raw_candidates": sum(map(len, report["clusters"])),
        "selected": report["count"],
    }
    assert "detect.select_changepoints" in spans
    if extra:
        assert spans["gibbs.gibbs_inclusion_probabilities"] == {"sweeps": 200}
