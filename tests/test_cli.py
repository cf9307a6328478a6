import csv
import hashlib
import json
import os
import warnings

import numpy as np
import pytest

from solocp.cli import build_parser, main, read_series_csv
from solocp.types import BinnedSeries, TimeSeries


def _write_jump_csv(path, seed=0, t=80, jump_at=40, size=5.0):
    rng = np.random.default_rng(seed)
    y = np.where(np.arange(1, t + 1) >= jump_at, size, 0.0) + rng.normal(0, 1, t)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "y"])
        for i, v in enumerate(y, start=1):
            w.writerow([i, repr(float(v))])
    return y


def test_detect_two_column_clean_jump(tmp_path, capsys):
    inp = tmp_path / "jump.csv"
    _write_jump_csv(inp)
    out = tmp_path / "report.json"
    rc = main(["detect", str(inp), "--sigma", "1.0", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["locations"] == [40]
    assert report["count"] == 1
    assert report["method"] == "solo"
    assert report["sigma_used"] == 1.0
    assert len(report["probabilities"]) == 79
    assert report["clusters"] and 40 in report["clusters"][0]


def test_detect_probs_csv(tmp_path):
    inp = tmp_path / "jump.csv"
    _write_jump_csv(inp)
    probs = tmp_path / "probs.csv"
    rc = main(["detect", str(inp), "--sigma", "1.0", "--out", str(tmp_path / "r.json"),
               "--probs-csv", str(probs)])
    assert rc == 0
    rows = list(csv.reader(probs.open()))
    assert rows[0] == ["site", "probability", "fitted_mean"]
    assert len(rows) == 81  # header + sites 1..80
    assert rows[1][1] == ""  # site 1 carries no candidate probability
    fitted = [float(r[2]) for r in rows[1:]]
    assert abs(np.mean(fitted[:39]) - 0.0) < 0.6
    assert abs(np.mean(fitted[39:]) - 5.0) < 0.6


def test_detect_three_column_binned_routing(tmp_path, capsys):
    rng = np.random.default_rng(1)
    path = tmp_path / "binned.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "y", "bin"])
        t = 0
        for b in range(1, 21):
            level = 0.0 if b < 11 else 4.0
            for _ in range(3):
                t += 1
                w.writerow([t, repr(float(level + rng.normal(0, 1))), b])
    series = read_series_csv(str(path))
    assert isinstance(series, BinnedSeries)
    assert series.length == 20 and series.total == 60
    out = tmp_path / "r.json"
    rc = main(["detect", str(path), "--sigma", "1.0", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["locations"] == [11]
    # single-change-point location takes plain data only
    assert main(["detect", str(path), "--method", "single", "--sigma", "1.0"]) == 1
    assert capsys.readouterr().err.startswith("error[InvalidConfigError]")


def test_detect_single_method(tmp_path):
    inp = tmp_path / "jump.csv"
    _write_jump_csv(inp, t=200, jump_at=100, size=2.0)
    out = tmp_path / "r.json"
    rc = main(["detect", str(inp), "--method", "single", "--sigma", "1.0",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert abs(report["locations"][0] - 100) <= 5
    assert "criterion" in report and "low_confidence" in report


def test_detect_single_method_rejects_probs_csv(tmp_path, capsys):
    # method single has no per-site probabilities; the file was once skipped silently
    inp = tmp_path / "jump.csv"
    _write_jump_csv(inp, t=200, jump_at=100, size=2.0)
    probs = tmp_path / "probs.csv"
    rc = main(["detect", str(inp), "--method", "single", "--probs-csv", str(probs)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error[InvalidConfigError]")
    assert not probs.exists()


def test_detect_malformed_row_names_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("t,y\n1,0.5\n2,not_a_number\n")
    rc = main(["detect", str(path), "--sigma", "1.0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error[ParseError]" in err
    assert "line 3" in err


def test_detect_nonincreasing_t_rejected(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("t,y\n1,0.5\n1,0.7\n")
    rc = main(["detect", str(path), "--sigma", "1.0"])
    assert rc == 1
    assert "strictly increasing" in capsys.readouterr().err


_READER_ERRORS = {
    "non_numeric_after_blank": ("t,y\n1,0.5\n\n2,abc\n", "line 4: "),
    "short_row": ("t,y\n1,0.5\n2\n3,0.7\n", "line 3: expected 2 fields"),
    "long_row": ("t,y\n1,0.5\n2,0.6,7\n", "line 3: expected 2 fields"),
    "every_row_too_long": ("t,y\n1,0.5,1\n2,0.6,2\n", "line 2: expected 2 fields"),
    "repeated_t": ("t,y\n1,0.5\n2,0.6\n2,0.7\n", "line 4: t must be strictly increasing"),
    "bin_zero": ("t,y,bin\n1,0.5,1\n2,0.6,0\n", "line 3: bin ids start at 1"),
    "decreasing_bin": ("t,y,bin\n1,0.5,2\n2,0.6,1\n", "line 3: bin ids must be nondecreasing"),
    "fractional_bin": ("t,y,bin\n1,0.5,1\n2,0.6,1.5\n", "line 3: "),
    # the bin check on line 3 comes before the repeated t on line 4
    "mixed_order": ("t,y,bin\n1,0.5,1\n2,0.7,0\n2,0.9,1\n", "line 3: bin ids start at 1"),
    "disorder_before_bad_value": ("t,y\n1,0.5\n1,0.6\n3,abc\n", "line 3: t must be strictly"),
    "trailing_comment": ("t,y\n1,0.5 # c\n2,0.6\n", "line 2: "),
    "whitespace_line": ("t,y\n1,0.5\n   \n2,0.6\n", "line 3: expected 2 fields"),
    "underscore_digits": ("t,y\n1,1_0\n2,0.6\n", "line 2: "),
    "open_quote": ('t,y\n1,"2\n3,4\n', "line 2: quoted field not closed"),
    "no_rows": ("t,y\n\n", "no data rows"),
    "empty_file": ("", "empty file"),
}


@pytest.mark.parametrize("case", _READER_ERRORS)
def test_reader_error_names_first_offending_line(tmp_path, capsys, case):
    text, expected = _READER_ERRORS[case]
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    assert main(["detect", str(path), "--sigma", "1.0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[ParseError]")
    assert f"bad.csv: {expected}" in err


@pytest.mark.parametrize("bad_row", [0, 50_000, 99_999], ids=["first", "middle", "last"])
def test_reader_error_in_long_file_names_its_line(tmp_path, capsys, bad_row):
    rows = [f"{k + 1},{0.25 * k}\n" for k in range(100_000)]
    rows[bad_row] = f"{bad_row + 1},abc\n"
    path = tmp_path / "long.csv"
    path.write_text("t,y\n" + "".join(rows))
    assert main(["detect", str(path), "--sigma", "1.0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[ParseError]")
    assert f"long.csv: line {bad_row + 2}: " in err


def _reference_series(path):
    """The series parsed with the csv module and float()/int()."""
    with open(path, newline="") as fh:
        rows = [r for r in list(csv.reader(fh))[1:] if r]
    ys = [float(r[1]) for r in rows]
    if len(rows[0]) == 2:
        return TimeSeries(np.array(ys), 1.0)
    bins = [int(r[2]) for r in rows]
    groups = [np.array([y for y, b in zip(ys, bins) if b == g]) for g in sorted(set(bins))]
    return BinnedSeries(tuple(groups), 1.0)


@pytest.mark.parametrize("binned", [False, True])
def test_reader_accepts_crlf_quotes_and_padding_bitwise(tmp_path, binned):
    rng = np.random.default_rng(7)
    y = rng.normal(0.0, 3.0, 300) * 10.0 ** rng.integers(-5, 6, 300)
    fields = [repr(float(v)) if k % 3 else f"{v:.6g}" for k, v in enumerate(y)]
    path = tmp_path / "ok.csv"
    with open(path, "w", newline="") as fh:
        fh.write("t,y,bin\r\n" if binned else "t,y\r\n")
        for k, field in enumerate(fields):
            if k % 4 == 1:
                field = f'"{field}"'
            elif k % 4 == 2:
                field = f"  {field} "
            row = f"{k + 1},{field}" + (f",{k // 3 + 1}" if binned else "")
            fh.write(row + ("\r\n\r\n" if k == 10 else "\r\n"))
    series = read_series_csv(str(path))
    reference = _reference_series(path)
    assert type(series) is type(reference)
    for name in ("values", "counts", "sums"):
        got, want = getattr(series, name), getattr(reference, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_shared_parser_carries_nothing_between_calls(tmp_path):
    assert build_parser() is build_parser()
    inp = tmp_path / "jump.csv"
    _write_jump_csv(inp)
    first, basad, second = (tmp_path / f"{name}.json" for name in ("first", "basad", "second"))
    assert main(["detect", str(inp), "--out", str(first)]) == 0
    assert main(["detect", str(inp), "--method", "basad", "--iterations", "50",
                 "--burn-in", "10", "--seed", "3", "--out", str(basad)]) == 0
    assert main(["detect", str(inp), "--out", str(second)]) == 0
    report = json.loads(second.read_text())
    assert report["method"] == "solo"
    assert report == json.loads(first.read_text())
    assert json.loads(basad.read_text())["method"] == "basad"
    # one line of JSON with sorted keys
    text = first.read_text()
    assert text.count("\n") == 1 and list(report) == sorted(report)


def test_missing_file_io_error(tmp_path, capsys):
    rc = main(["detect", str(tmp_path / "nope.csv"), "--sigma", "1.0"])
    assert rc == 2
    assert "error[IO]" in capsys.readouterr().err


def _teeth_config(tmp_path, reps=3, extra=None):
    cfg = {
        "signal": "TEETH",
        "noise": {"family": "gaussian", "sd": 0.25},
        "method": "solo",
        "replications": reps,
        "seed": 0,
        "sigma_mode": "true",
    }
    if extra:
        cfg.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def _dir_digest(root):
    h = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        h.update(name.encode())
        h.update((root / name).read_bytes())
    return h.hexdigest()


def test_simulate_writes_manifest_and_is_byte_stable(tmp_path, capsys):
    cfg = _teeth_config(tmp_path)
    out1 = tmp_path / "d1"
    out2 = tmp_path / "d2"
    assert main(["simulate", str(cfg), str(out1)]) == 0
    assert main(["simulate", str(cfg), str(out2)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["replications"] == 3
    assert [d["changepoints"] for d in manifest["datasets"]] == [[31, 61, 91, 121]] * 3
    assert manifest["datasets"][0]["seed"] == 0
    assert len(list(out1.glob("rep_*.csv"))) == 3
    assert _dir_digest(out1) == _dir_digest(out2)


def test_simulate_unknown_signal(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"signal": "STAIRS", "noise": {"family": "gaussian", "sd": 1.0}}))
    rc = main(["simulate", str(cfg), str(tmp_path / "out")])
    assert rc == 1
    assert "error[UnknownSignalError]" in capsys.readouterr().err


def test_simulated_csv_round_trips_through_detect(tmp_path):
    cfg = _teeth_config(tmp_path, reps=1)
    outdir = tmp_path / "data"
    assert main(["simulate", str(cfg), str(outdir)]) == 0
    series = read_series_csv(str(outdir / "rep_000.csv"))
    assert isinstance(series, TimeSeries)
    assert series.length == 140
    report = tmp_path / "r.json"
    rc = main(["detect", str(outdir / "rep_000.csv"), "--sigma", "0.25",
               "--out", str(report)])
    assert rc == 0
    locs = json.loads(report.read_text())["locations"]
    assert len(locs) == 4


def test_bench_single_row(tmp_path, capsys):
    cfg = _teeth_config(tmp_path, reps=2)
    out = tmp_path / "bench.csv"
    rc = main(["bench", str(cfg), "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0].startswith("label,true_zero")
    assert len(rows) == 2
    cells = rows[1].split(",")
    assert cells[0] == "solo"
    assert float(cells[9]) >= 0.0  # k_bias column parses


def test_bench_delta_grid_rows(tmp_path):
    cfg = _teeth_config(tmp_path, reps=1, extra={"grid": {"delta": [1, 3, 5, 7, 9]}})
    out = tmp_path / "bench.csv"
    assert main(["bench", str(cfg), "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 6
    assert [r.split(",")[0] for r in rows[1:]] == [
        "solo-delta1", "solo-delta3", "solo-delta5", "solo-delta7", "solo-delta9",
    ]


def _strip_timing(text):
    return [",".join(line.split(",")[:-1]) for line in text.strip().splitlines()]


def test_bench_parallel_matches_serial(tmp_path, monkeypatch):
    # two rows that differ, so one pool's results must land in the right row
    cfg = _teeth_config(tmp_path, reps=3, extra={"grid": {"q": [0.001, 0.9]}})
    out1 = tmp_path / "serial.csv"
    out2 = tmp_path / "parallel.csv"
    assert main(["bench", str(cfg), "--out", str(out1), "--jobs", "1"]) == 0
    monkeypatch.setenv("SOLOCP_JOBS", "2")
    assert main(["bench", str(cfg), "--out", str(out2)]) == 0
    serial = _strip_timing(out1.read_text())
    assert len(serial) == 3 and serial[1].split(",")[1:] != serial[2].split(",")[1:]
    # identical up to the wall-clock column
    assert serial == _strip_timing(out2.read_text())


def test_bench_binned_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "signal": "BLOCKS2",
        "noise": {"family": "gaussian", "sd": 7.0},
        "method": "solo",
        "replications": 1,
        "seed": 0,
        "sigma_mode": "mad",
        "binned": {"n": 1024, "grid": 200},
    }))
    out = tmp_path / "bench.csv"
    assert main(["bench", str(cfg), "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 2


def test_detect_nonfinite_scores_reported_not_silent(tmp_path, capsys):
    inp = tmp_path / "huge.csv"
    _write_jump_csv(inp, size=1e200)
    rc = main(["detect", str(inp), "--sigma", "1.0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error[NumericOverflowError]")
    assert "Traceback" not in err


def test_detect_basad_tiny_sigma_reported_not_silent(tmp_path, capsys):
    inp = tmp_path / "jump.csv"
    _write_jump_csv(inp)
    rc = main(["detect", str(inp), "--method", "basad", "--sigma", "1e-200"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error[NumericOverflowError]")
    assert "Traceback" not in err


@pytest.mark.parametrize("tau_sq", ["3e-17", "1e-310"])
def test_detect_tau_sq_below_double_precision_reported(tmp_path, capsys, tau_sq):
    inp = tmp_path / "jump.csv"
    _write_jump_csv(inp, t=200, jump_at=100)
    rc = main(["detect", str(inp), "--sigma", "1.0", "--tau-sq", tau_sq])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error[NumericOverflowError]")
    assert "Traceback" not in err


def test_bench_single_on_binned_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "signal": "BLOCKS2",
        "noise": {"family": "gaussian", "sd": 7.0},
        "method": "single",
        "replications": 1,
        "seed": 0,
        "binned": {"n": 1024, "grid": 200},
    }))
    rc = main(["bench", str(cfg)])
    assert rc != 0
    err = capsys.readouterr().err
    assert err.startswith("error[InvalidConfigError]")
    assert "Traceback" not in err


_MALFORMED_CONFIG = {
    "sigma_mode": {"sigma_mode": "fixed:abc"},
    "replications": {"replications": "x"},
    "signal": {"signal": {"length": 10}},
    "noise": {"noise": {"family": "gaussian"}},
    "hypers": {"hypers": {"q": "abc"}},
    "binned": {"binned": {"n": 5}},
    "grid": {"grid": {"q": ["abc"]}},
    # integer entries must be JSON integers, not truncated or coerced
    "replications_fraction": {"replications": 1.5},
    "replications_string": {"replications": "2"},
    "replications_bool": {"replications": True},
    "seed_fraction": {"seed": 1.5},
    "binned_n_fraction": {"binned": {"n": 100.5, "grid": 20}},
    "binned_grid_string": {"binned": {"n": 100, "grid": "20"}},
    "gibbs_iterations_bool": {"method": "basad", "gibbs": {"iterations": True, "burn_in": 0}},
    "gibbs_burn_in_fraction": {"method": "basad", "gibbs": {"iterations": 20, "burn_in": 2.5}},
    "signal_length_fraction": {"signal": {"length": 10.5, "changepoints": [], "levels": [0.0]}},
    "changepoint_fraction": {
        "signal": {"length": 60, "changepoints": [20.7, 40], "levels": [0.0, 1.0, 0.0]}
    },
    "level_bool": {"signal": {"length": 60, "changepoints": [30], "levels": [0.0, True]}},
    # noise parameters and edge_fraction are numbers, not booleans or strings
    "noise_sd_bool": {"noise": {"family": "gaussian", "sd": True}},
    "noise_scale_string": {"noise": {"family": "laplace", "scale": "0.5"}},
    "noise_df_bool": {"noise": {"family": "student_t", "df": True}},
    "noise_t_scale_bool": {"noise": {"family": "student_t", "df": 3, "scale": True}},
    "noise_mixture_bool": {
        "noise": {"family": "gaussian_mixture", "weights": [0.5, 0.5], "sds": [1.0, True]}
    },
    # values that would fail only in the first replication, after OUTDIR exists
    "noise_sd_infinite": {"noise": {"family": "gaussian", "sd": float("inf")}},
    "signal_length_one": {"signal": {"length": 1, "changepoints": [], "levels": [0.0]}},
    "level_infinite": {
        "signal": {"length": 60, "changepoints": [30], "levels": [0.0, float("inf")]}
    },
    "edge_fraction_bool": {"method": "single", "edge_fraction": True},
    "edge_fraction_string": {"method": "single", "edge_fraction": "0.1"},
    # numbers are not booleans
    "hypers_bool": {"hypers": {"q": True}},
    "grid_bool": {"grid": {"q": [0.1, True]}},
    # unknown keys and methods are rejected, not ignored
    "unknown_key": {"replication": 3},
    "unknown_binned_key": {"binned": {"n": 100, "grid": 20, "cells": 4}},
    "unknown_gibbs_key": {"gibbs": {"iterations": 2000, "burnin": 5}},
    "unknown_noise_key": {"noise": {"family": "gaussian", "sd": 1, "sdd": 3}},
    "unknown_signal_key": {
        "signal": {"length": 60, "changepoints": [30], "levels": [0.0, 1.0], "foo": 1}
    },
    "unknown_method": {"method": "bogus"},
    # the types that consume an entry reject its unknown, foreign and missing keys
    "unknown_hypers_key": {"hypers": {"qq": 0.1}},
    "unknown_grid_key": {"grid": {"qq": [0.1]}},
    "grid_empty": {"grid": {"delta": []}},
    "gibbs_seed_key": {"gibbs": {"seed": 3}},
    "noise_foreign_param": {"noise": {"family": "gaussian", "sd": 1, "scale": 2}},
    "noise_no_family": {"noise": {"sd": 1}},
    "signal_no_levels": {"signal": {"length": 60, "changepoints": [30]}},
    # method single locates in plain series, in a window of (0, 1/2)
    "single_binned": {"method": "single", "binned": {"n": 100, "grid": 20}},
    "edge_fraction_range": {"method": "single", "edge_fraction": 0.7},
}


@pytest.mark.parametrize(
    "case", [*_MALFORMED_CONFIG, "edge_fraction", "jobs_env", "jobs_env_zero", "jobs_zero"]
)
def test_malformed_input_reported_not_traceback(tmp_path, capsys, monkeypatch, case):
    if case in ("jobs_env", "jobs_env_zero"):
        monkeypatch.setenv("SOLOCP_JOBS", "x" if case == "jobs_env" else "0")
        argv = ["bench", str(_teeth_config(tmp_path, reps=1))]
    elif case == "jobs_zero":
        argv = ["bench", str(_teeth_config(tmp_path, reps=1)), "--jobs", "0"]
    elif case == "edge_fraction":
        inp = tmp_path / "jump.csv"
        _write_jump_csv(inp)
        argv = ["detect", str(inp), "--method", "single", "--edge-fraction", "0.7"]
    else:
        argv = ["bench", str(_teeth_config(tmp_path, reps=1, extra=_MALFORMED_CONFIG[case]))]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error[InvalidConfigError]")
    assert "Traceback" not in err


@pytest.mark.parametrize("case", _MALFORMED_CONFIG)
def test_malformed_config_rejected_at_load(tmp_path, capsys, case):
    outdir = tmp_path / "out"
    cfg = _teeth_config(tmp_path, reps=1, extra=_MALFORMED_CONFIG[case])
    assert main(["simulate", str(cfg), str(outdir)]) == 1
    assert capsys.readouterr().err.startswith("error[InvalidConfigError]")
    assert not outdir.exists()


@pytest.mark.parametrize(
    "extra", [{"sigma_mode": "fixed:-1"}, {"binned": {"n": 1, "grid": 20}}], ids=["sigma", "n"]
)
def test_simulate_failing_first_replication_leaves_no_outdir(tmp_path, capsys, extra):
    outdir = tmp_path / "out"
    assert main(["simulate", str(_teeth_config(tmp_path, reps=1, extra=extra)), str(outdir)]) == 1
    assert capsys.readouterr().err.startswith("error[")
    assert not outdir.exists()


@pytest.mark.parametrize(
    "extra", [{"hypers": {"q": 2}}, {"grid": {"delta": [1, 1.5]}}], ids=["q", "grid_delta"]
)
def test_simulate_checks_hyperparameter_ranges_at_load(tmp_path, capsys, extra):
    # every grid row is checked, not only the base hypers, before anything runs
    outdir = tmp_path / "out"
    assert main(["simulate", str(_teeth_config(tmp_path, reps=1, extra=extra)), str(outdir)]) == 1
    assert capsys.readouterr().err.startswith("error[InvalidHyperparameterError]")
    assert not outdir.exists()


def test_non_utf8_input_reported_not_traceback(tmp_path, capsys):
    csv_path, cfg_path = tmp_path / "bad.csv", tmp_path / "bad.json"
    csv_path.write_bytes(b"t,y\n1,2\n2,\xff\n")
    cfg_path.write_bytes(b"\xff" + json.dumps({"signal": "TEETH"}).encode())
    for argv, path in ((["detect", str(csv_path)], csv_path), (["bench", str(cfg_path)], cfg_path)):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[ParseError]: {path}")
        assert "Traceback" not in err


def test_bench_row_without_detections_is_quiet(tmp_path, capsys):
    # at sd 1 nothing is detected, so the est_* columns average no values
    cfg = _teeth_config(tmp_path, reps=1, extra={"noise": {"family": "gaussian", "sd": 1}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bench", str(cfg)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[1].split(",")[5:9] == ["nan"] * 4


def test_bench_fractional_delta_rejected_not_truncated(tmp_path, capsys):
    cfg = _teeth_config(tmp_path, reps=1, extra={"hypers": {"delta": 1.5}})
    assert main(["bench", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error[InvalidHyperparameterError]")
