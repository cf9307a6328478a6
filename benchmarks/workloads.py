"""Benchmark workloads: seeded inputs, CLI argument lists, output checks.

An item is one series through `solocp detect` or one replication through
`solocp bench`, given as its CLI arguments without the `--out` path.
Inputs are generated here, from the workload seed, by the benchmark's own
code, so they stay fixed while the program changes; `bench` items are
configs, and `bench` simulates their series itself.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from solocp import BinnedSeries, TimeSeries, estimate_sigma_mad
from solocp.signals import NoiseSpec, builtin_signal, simulate_binned

# Piecewise-constant ground truths (first index of each new segment), the
# BLOCKS and TEETH test signals of the change point literature.
BLOCKS_LENGTH = 2048
BLOCKS_CPS = (205, 267, 308, 472, 512, 820, 902, 1332, 1557, 1598, 1659)
BLOCKS_LEVELS = (0.0, 14.64, -3.66, 7.32, -7.32, 10.98, -4.39, 3.29, 19.03, 7.68, 15.37, 0.0)
TEETH_LENGTH = 140
TEETH_CPS = (31, 61, 91, 121)
TEETH_LEVELS = (0.0, 1.0, 0.0, 1.0, 0.0)

POOL = 100  # distinct items per run; the timed loop cycles through them
HIT_RADIUS = 2  # sites; the paper's distance histograms bucket 0, 1, 2 and >= 3
GATE_SIZE = 160  # observations per oracle-gate instance (the oracle is O(T^3))


class InvalidOutput(ValueError):
    """An item's output broke the CLI's output contract."""


@dataclass(frozen=True)
class Outcome:
    """Quality of one item's selected set against the truth."""

    hausdorff: float
    true_count: int
    est_count: int
    true_hits: int  # true change points with a selected point within HIT_RADIUS
    est_hits: int  # selected points with a true change point within HIT_RADIUS
    canonical: str  # the deterministic part of the output


def step_values(length: int, cps, levels) -> np.ndarray:
    f = np.empty(length)
    bounds = (1,) + tuple(cps) + (length + 1,)
    for level, lo, hi in zip(levels, bounds, bounds[1:]):
        f[lo - 1 : hi - 1] = level
    return f


def scaled_cps(cps, length: int, size: int) -> tuple[int, ...]:
    """Change points of a signal shrunk from `length` to `size` sites."""
    out = [max(2, round(c * size / length)) for c in cps]
    for k in range(1, len(out)):
        out[k] = max(out[k], out[k - 1] + 1)
    return tuple(out)


def gate_plain(rng, cps, levels, length: int, noise_sd: float) -> np.ndarray:
    """A GATE_SIZE-site version of a workload's signal plus its noise."""
    small = scaled_cps(cps, length, GATE_SIZE)
    return step_values(GATE_SIZE, small, levels) + rng.normal(0.0, noise_sd, GATE_SIZE)


def hausdorff(est, truth, domain: int) -> float:
    """d(est|truth) + d(truth|est); the domain length when one set is empty."""
    if not est and not truth:
        return 0.0
    if not est or not truth:
        return float(domain)

    def one_sided(a, b):
        return max(min(abs(x - y) for x in a) for y in b)

    return float(one_sided(est, truth) + one_sided(truth, est))


def hits(points, others) -> int:
    """How many of `points` have one of `others` within HIT_RADIUS."""
    return sum(1 for x in points if any(abs(x - y) <= HIT_RADIUS for y in others))


def write_series_csv(path: Path, values: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("t,y\n")
        fh.writelines(f"{t},{float(y)!r}\n" for t, y in enumerate(values, start=1))


@dataclass(frozen=True)
class DetectWorkload:
    """`solocp detect` on plain t,y CSVs of a step signal plus Gaussian noise."""

    name: str
    length: int
    cps: tuple[int, ...]
    levels: tuple[float, ...]
    noise_sd: float
    flags: tuple[str, ...]
    solo: bool
    out_suffix = ".json"

    def make_items(self, seed: int, workdir: Path) -> list[list[str]]:
        rng = np.random.default_rng(seed)
        signal = step_values(self.length, self.cps, self.levels)
        items = []
        for k in range(POOL):
            path = workdir / f"input-{k:03d}.csv"
            write_series_csv(path, signal + rng.normal(0.0, self.noise_sd, self.length))
            items.append(["detect", str(path), *self.flags])
        return items

    def gate_instances(self, seed: int) -> list:
        """One plain and one binned instance, sigma by MAD as `detect` does."""
        rng = np.random.default_rng(seed)
        y = gate_plain(rng, self.cps, self.levels, self.length, self.noise_sd)
        sizes = np.resize([1, 2, 3, 4], GATE_SIZE * 2 // 5)  # 10 observations per 4 groups
        groups = np.split(y, np.cumsum(sizes)[:-1])
        sigma = estimate_sigma_mad(TimeSeries(y, 1.0))
        return [TimeSeries(y, sigma), BinnedSeries(tuple(groups), sigma)]

    def check(self, out: Path) -> Outcome:
        try:
            text = out.read_text(encoding="utf-8")
            report = json.loads(text)
            locations = report["locations"]
            count = report["count"]
            probs = report["probabilities"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise InvalidOutput(f"report does not parse: {exc!r}") from None
        m = self.length
        if not isinstance(probs, list) or len(probs) != m - 1:
            raise InvalidOutput(f"expected {m - 1} probabilities")
        for p in probs:
            if not (isinstance(p, (int, float)) and math.isfinite(p) and 0.0 <= p <= 1.0):
                raise InvalidOutput(f"probability {p!r} is not a finite value in [0, 1]")
        if not isinstance(locations, list) or not all(type(x) is int for x in locations):
            raise InvalidOutput("locations must be a list of integers")
        if any(b <= a for a, b in zip(locations, locations[1:])):
            raise InvalidOutput("locations are not strictly increasing")
        if locations and not (2 <= locations[0] and locations[-1] <= m):
            raise InvalidOutput(f"locations outside 2..{m}")
        if count != len(locations):
            raise InvalidOutput(f"count {count!r} != {len(locations)} locations")
        return Outcome(
            hausdorff=hausdorff(locations, self.cps, m),
            true_count=len(self.cps),
            est_count=len(locations),
            true_hits=hits(self.cps, locations),
            est_hits=hits(locations, self.cps),
            canonical=text,
        )


_BENCH_HEADER = [
    "label",
    "true_zero", "true_one", "true_two", "true_ge3",
    "est_zero", "est_one", "est_two", "est_ge3",
    "k_bias", "hausdorff", "time_s",
]


@dataclass(frozen=True)
class BenchWorkload:
    """`solocp bench` on one-replication BLOCKS configs with binned sampling."""

    name: str
    config: dict
    true_count: int
    solo: bool = True
    out_suffix = ".csv"

    def make_items(self, seed: int, workdir: Path) -> list[list[str]]:
        rng = np.random.default_rng(seed)
        seeds = rng.choice(2**31 - 1, size=POOL, replace=False)
        items = []
        for k, rep_seed in enumerate(seeds):
            path = workdir / f"config-{k:03d}.json"
            cfg = dict(self.config, replications=1, seed=int(rep_seed))
            path.write_text(json.dumps(cfg), encoding="utf-8")
            items.append(["bench", str(path), "--jobs", "1"])
        return items

    def gate_instances(self, seed: int) -> list:
        """A plain instance and one from the bench generator, at the true sigma."""
        sd = float(self.config["noise"]["sd"])
        rng = np.random.default_rng(seed)
        y = gate_plain(rng, BLOCKS_CPS, BLOCKS_LEVELS, BLOCKS_LENGTH, sd)
        signal = builtin_signal(self.config["signal"])
        binned = simulate_binned(signal, NoiseSpec.gaussian(sd), GATE_SIZE, GATE_SIZE // 4, seed)
        return [TimeSeries(y, sd), binned]

    def check(self, out: Path) -> Outcome:
        try:
            with open(out, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            header, row = rows
            values = [float(v) for v in row[1:]]
        except (OSError, ValueError) as exc:
            raise InvalidOutput(f"CSV does not parse: {exc!r}") from None
        if header != _BENCH_HEADER or len(row) != len(header) or row[0] != "solo":
            raise InvalidOutput(f"unexpected CSV layout {header} / {row}")
        hist_true, hist_est = values[0:4], values[4:8]
        k_bias, dist, elapsed = values[8:11]
        if not _is_histogram(hist_true):
            raise InvalidOutput(f"true-side histogram {hist_true} is not a distribution")
        if not (_is_histogram(hist_est) or all(math.isnan(v) for v in hist_est)):
            raise InvalidOutput(f"estimate-side histogram {hist_est} is not a distribution")
        est_count = self.true_count - k_bias
        if not (math.isfinite(k_bias) and k_bias == int(k_bias) and est_count >= 0):
            raise InvalidOutput(f"k_bias {k_bias} is not a valid count difference")
        if not (math.isfinite(dist) and dist >= 0 and math.isfinite(elapsed) and elapsed >= 0):
            raise InvalidOutput(f"hausdorff {dist} / time_s {elapsed} out of range")
        est_count = int(est_count)
        return Outcome(
            hausdorff=dist,
            true_count=self.true_count,
            est_count=est_count,
            true_hits=round(sum(hist_true[:HIT_RADIUS + 1]) * self.true_count),
            est_hits=round(sum(hist_est[:HIT_RADIUS + 1]) * est_count) if est_count else 0,
            canonical=",".join(row[:-1]),  # time_s differs run to run
        )


def _is_histogram(values) -> bool:
    return all(0.0 <= v <= 1.0 for v in values) and abs(sum(values) - 1.0) < 1e-4


WORKLOADS = {
    w.name: w
    for w in (
        DetectWorkload(
            name="detect_blocks",
            length=BLOCKS_LENGTH,
            cps=BLOCKS_CPS,
            levels=BLOCKS_LEVELS,
            noise_sd=2.0,
            flags=(),
            solo=True,
        ),
        BenchWorkload(
            name="bench_binned",
            config={
                "signal": "BLOCKS",
                "noise": {"family": "gaussian", "sd": 2.0},
                "method": "solo",
                "sigma_mode": "true",
                "binned": {"n": 8192, "grid": 2048},
            },
            true_count=len(BLOCKS_CPS),
        ),
        DetectWorkload(
            name="basad_teeth",
            length=TEETH_LENGTH,
            cps=TEETH_CPS,
            levels=TEETH_LEVELS,
            noise_sd=0.4,
            flags=("--method", "basad", "--iterations", "1000", "--burn-in", "250", "--seed", "1"),
            solo=False,
        ),
    )
}
