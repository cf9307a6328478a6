import csv
import hashlib
import json
import os

import numpy as np
import pytest

from solocp.cli import main, read_series_csv
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
    cfg = _teeth_config(tmp_path, reps=2)
    out1 = tmp_path / "serial.csv"
    out2 = tmp_path / "parallel.csv"
    assert main(["bench", str(cfg), "--out", str(out1), "--jobs", "1"]) == 0
    monkeypatch.setenv("SOLOCP_JOBS", "2")
    assert main(["bench", str(cfg), "--out", str(out2)]) == 0
    # identical up to the wall-clock column
    assert _strip_timing(out1.read_text()) == _strip_timing(out2.read_text())


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
