"""Spans around calls into the solocp layers, recorded from outside the package.

Each boundary is the name a caller resolves at call time: `detect` imports
`inclusion_scores` by name, so `solocp.detect.inclusion_scores` is wrapped;
`posterior.inclusion_scores` looks up `forward_pass` as a module global, so
`solocp.posterior.forward_pass` is wrapped. Wrappers are installed only
around traced items and removed again afterwards.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _rows(args, kwargs, result):
    return {"rows": int(getattr(result, "total", result.length))}


def _groups(args, kwargs, result):
    return {"groups": result.length}


def _sites_and_nonfinite(args, kwargs, result):
    probs, log_odds = result
    bad = ~(np.isfinite(probs) & np.isfinite(log_odds))
    return {"sites": args[0].length, "nonfinite_scores": int(bad.sum())}


def _selection(args, kwargs, result):
    return {"raw_candidates": result.raw_candidates.count, "selected": result.selected.count}


def _sweeps(args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs["config"]
    return {"sweeps": config.iterations}


# (module, attribute, span name, counts taken from the call)
BOUNDARIES = (
    ("solocp.cli", "read_series_csv", "cli.read_series_csv", _rows),
    ("solocp.cli", "run_replication", "cli.run_replication", None),
    ("solocp.cli", "estimate_sigma_mad", "signals.estimate_sigma_mad", None),
    ("solocp.cli", "simulate_binned", "signals.simulate_binned", _groups),
    ("solocp.cli", "evaluate_sets", "metrics.evaluate_sets", None),
    ("solocp.cli", "detect", "detect.detect", _selection),
    ("solocp.detect", "inclusion_scores", "posterior.inclusion_scores", _sites_and_nonfinite),
    ("solocp.detect", "select_changepoints", "detect.select_changepoints", None),
    (
        "solocp.detect",
        "gibbs_inclusion_probabilities",
        "gibbs.gibbs_inclusion_probabilities",
        _sweeps,
    ),
    ("solocp.posterior", "forward_pass", "posterior.forward_pass", None),
)


class Tracer:
    """In-memory spans: (id, name, item, parent, start, end, counts)."""

    def __init__(self):
        self.spans: list[dict] = []
        self.item: int | None = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self._clock = time.perf_counter
        self._origin = self._clock()

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "item": self.item,
            "parent": self._stack[-1] if self._stack else None,
            "start": self._clock() - self._origin,
            "end": None,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = self._clock() - self._origin

    def _wrapper(self, func, name, counter):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = func(*args, **kwargs)
                if counter is not None:
                    record["counts"] = counter(args, kwargs, result)
                return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, counter in BOUNDARIES:
            module = sys.modules[module_name]
            func = getattr(module, attr, None)
            if func is None:
                continue  # boundary gone from this version of the program
            self._originals.append((module, attr, func))
            setattr(module, attr, self._wrapper(func, name, counter))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, func = self._originals.pop()
            setattr(module, attr, func)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        children = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]].append((s["start"], s["end"]))
        out = []
        for s in self.spans:
            covered = 0.0
            cursor = s["start"]
            for lo, hi in sorted(children[s["id"]]):
                lo, hi = max(lo, cursor), min(hi, s["end"])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(s["end"] - s["start"] - covered)
        return out

    def layer_metrics(self, scales: dict[int, float]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics averaged over the traced items, whose speed
        calibration factors `scales` maps by item; a layer that did not run
        on the workload reads 0."""
        n_items = len(scales)
        busy = defaultdict(float)
        own = defaultdict(float)
        counts = defaultdict(int)
        for s, self_s in zip(self.spans, self.self_times()):
            busy[s["name"]] += (s["end"] - s["start"]) * scales[s["item"]]
            own[s["name"]] += self_s * scales[s["item"]]
            for key, value in s["counts"].items():
                counts[key] += value

        def ms(total):
            return 1e3 * total / n_items

        def per(total_s, work):
            return 1e6 * total_s / work if work else 0.0

        scores = "posterior.inclusion_scores"
        gibbs = "gibbs.gibbs_inclusion_probabilities"
        return {
            f"{scores}.ms": (ms(busy[scores]), "ms"),
            f"{scores}.self_ms": (ms(own[scores]), "ms"),
            f"{scores}.us_per_site": (per(busy[scores], counts["sites"]), "us"),
            "posterior.forward_pass.ms": (ms(busy["posterior.forward_pass"]), "ms"),
            "posterior.sites": (counts["sites"] / n_items, "count"),
            "posterior.nonfinite_scores": (counts["nonfinite_scores"] / n_items, "count"),
            "cli.read_series_csv.ms": (ms(busy["cli.read_series_csv"]), "ms"),
            "cli.read_series_csv.rows": (counts["rows"] / n_items, "count"),
            "cli.self_ms": (ms(own["cli.main"]), "ms"),
            "cli.run_replication.ms": (ms(busy["cli.run_replication"]), "ms"),
            "signals.estimate_sigma_mad.ms": (ms(busy["signals.estimate_sigma_mad"]), "ms"),
            "signals.simulate_binned.ms": (ms(busy["signals.simulate_binned"]), "ms"),
            "signals.simulate_binned.groups": (counts["groups"] / n_items, "count"),
            "metrics.evaluate_sets.ms": (ms(busy["metrics.evaluate_sets"]), "ms"),
            "detect.detect.self_ms": (ms(own["detect.detect"]), "ms"),
            "detect.select_changepoints.ms": (ms(busy["detect.select_changepoints"]), "ms"),
            "detect.raw_candidates": (counts["raw_candidates"] / n_items, "count"),
            "detect.selected": (counts["selected"] / n_items, "count"),
            "detect.selected_per_candidate": (
                counts["selected"] / counts["raw_candidates"] if counts["raw_candidates"] else 0.0,
                "ratio",
            ),
            f"{gibbs}.ms": (ms(busy[gibbs]), "ms"),
            "gibbs.sweeps": (counts["sweeps"] / n_items, "count"),
            "gibbs.us_per_sweep": (per(busy[gibbs], counts["sweeps"]), "us"),
        }
