import codecs
import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import solocp
from solocp import NumericOverflowError, cli
from solocp.cli import (
    _replication,
    build_parser,
    load_experiment_config,
    main,
    read_series_csv,
    run_replication,
)
from solocp.signals import NoiseSpec, builtin_signal, estimate_sigma_mad, simulate_binned
from solocp.types import BinnedSeries, TimeSeries

SRC = Path(solocp.__file__).resolve().parents[1]  # subprocesses import this same solocp


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
    with probs.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["site", "probability", "fitted_mean"]
    assert len(rows) == 81  # header + sites 1..80
    assert rows[1][1] == ""  # site 1 carries no candidate probability
    fitted = [float(r[2]) for r in rows[1:]]
    assert abs(np.mean(fitted[:39]) - 0.0) < 0.6
    assert abs(np.mean(fitted[39:]) - 5.0) < 0.6


@pytest.mark.parametrize("case", ["stdout", "out", "unopenable_out", "unopenable_out_old_csv"])
def test_detect_probs_csv_unopenable_emits_no_report(tmp_path, capsys, case):
    # the report was printed or written before the CSV failed to open, so a
    # run that exits 2 left a report that looked successful; and an --out that
    # cannot be opened left an empty CSV behind, or truncated an existing one
    inp = tmp_path / "jump.csv"
    _write_jump_csv(inp)
    out, probs, missing = tmp_path / "r.json", tmp_path / "probs.csv", tmp_path / "missing" / "x"
    if case == "unopenable_out_old_csv":
        probs.write_text("earlier run\n")
    if case.startswith("unopenable_out"):
        out = missing
    else:
        probs = missing
    argv = ["detect", str(inp), "--probs-csv", str(probs)]
    assert main(argv + ([] if case == "stdout" else ["--out", str(out)])) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error[IO]")
    assert captured.out == ""
    assert not out.exists()
    if case == "unopenable_out_old_csv":
        assert probs.read_text() == "earlier run\n"
    elif case == "unopenable_out":
        assert not probs.exists()


@pytest.mark.parametrize("case", ["same_path", "symlink"])
def test_detect_out_and_probs_csv_on_one_file_rejected(tmp_path, capsys, case):
    # the CSV overwrote the report, and the run exited 0; the input is missing
    # here, so the check runs before it is read
    report = tmp_path / "r.json"
    report.write_text("earlier run\n")
    probs = report
    if case == "symlink":
        probs = tmp_path / "link.csv"
        probs.symlink_to(report)
    missing = tmp_path / "missing.csv"
    assert main(["detect", str(missing), "--out", str(report), "--probs-csv", str(probs)]) == 1
    assert capsys.readouterr().err.startswith("error[InvalidConfigError]")
    assert report.read_text() == "earlier run\n"


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
    assert series.length == 20 and series.values.size == 60
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
    # and with the MAD estimate of sigma
    assert main(["detect", str(inp), "--method", "single", "--out", str(out)]) == 0
    assert abs(json.loads(out.read_text())["locations"][0] - 100) <= 5


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
    assert err.startswith("error[ParseError]") and "Traceback" not in err
    assert "line 3" in err


def test_basad_detect_gives_the_same_bytes_in_fresh_processes(tmp_path):
    # the chain depends on its seed alone, not on the process or its hash seed
    _write_jump_csv(tmp_path / "jump.csv")
    reports = []
    for hash_seed in ("0", "1"):
        out = f"basad{hash_seed}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "solocp.cli", "detect", "jump.csv", "--method", "basad",
             "--iterations", "1000", "--burn-in", "250", "--seed", "1", "--out", out],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append((tmp_path / out).read_bytes())
    assert json.loads(reports[0])["method"] == "basad"
    assert reports[0] == reports[1]


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
    "unknown_header": ("x,y\n1,0.5\n", "header must be 't,y' or 't,y,bin', got ['x', 'y']"),
    # a NaN t fails no comparison, so the order checks alone passed it
    "nan_t_first_row": ("t,y\nnan,0.5\n2,0.7\n3,0.2\n", "line 2: t must be a number"),
    "nan_t": ("t,y\n1,0.5\nnan,0.7\n3,0.2\n4,0.1\n5,2.0\n6,2.1\n", "line 3: t must be a number"),
    # an infinite t at either end passed the strict-increase check
    "minus_inf_t_first_row": (
        "t,y\n-inf,0.5\n2,0.7\n3,0.2\n4,0.1\n5,2.0\n6,2.1\n", "line 2: t must be finite"
    ),
    "inf_t_last_row": (
        "t,y\n1,0.5\n2,0.7\n3,0.2\n4,0.1\n5,2.0\ninf,2.1\n", "line 7: t must be finite"
    ),
    # csv's own errors: a field past its 131072-character limit, in the header
    # or in a row's field count, and a NUL byte, which csv rejects before
    # Python 3.11 and reads into the header from 3.11 on
    "header_past_field_limit": ("t,y" + "x" * 200_000 + "\n1,0.5\n", "line 1: field larger than"),
    "row_past_field_limit": ("t,y\n1,0.5\n2," + "x" * 200_000 + "\n", "line 3: field larger than"),
    "nul_in_header": (
        "t\x00,y\n1,0.5\n2,0.7\n",
        "line 1: line contains NUL" if sys.version_info < (3, 11) else "header must be",
    ),
}


@pytest.mark.parametrize("case", _READER_ERRORS)
def test_reader_error_names_first_offending_line(tmp_path, capsys, case):
    text, expected = _READER_ERRORS[case]
    path = tmp_path / "bad.csv"
    for bom in (b"", codecs.BOM_UTF8):  # a BOM moves no line number
        path.write_bytes(bom + text.encode())
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


def test_bom_input_reads_as_without_it(tmp_path, capsys):
    # Excel's "CSV UTF-8" starts a file with a byte order mark
    plain_csv, plain_cfg = tmp_path / "jump.csv", _teeth_config(tmp_path, reps=2)
    _write_jump_csv(plain_csv)
    outputs = []
    for bom in (b"", codecs.BOM_UTF8):
        csv_path, cfg_path = tmp_path / f"in{len(bom)}.csv", tmp_path / f"in{len(bom)}.json"
        csv_path.write_bytes(bom + plain_csv.read_bytes())
        cfg_path.write_bytes(bom + plain_cfg.read_bytes())
        report, probs = tmp_path / f"r{len(bom)}.json", tmp_path / f"p{len(bom)}.csv"
        assert main(["detect", str(csv_path), "--out", str(report),
                     "--probs-csv", str(probs)]) == 0
        assert main(["bench", str(cfg_path)]) == 0
        outputs.append((report.read_bytes(), probs.read_bytes(),
                        _strip_timing(capsys.readouterr().out)))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "sigma", ["0", "-1", "nan", "inf", None],
    ids=["zero", "negative", "nan", "infinite", "mad_of_constant_data"],
)
def test_detect_sigma_must_be_positive_and_finite(tmp_path, capsys, sigma):
    inp = tmp_path / "in.csv"
    if sigma is None:  # the MAD estimate of a constant series is 0
        inp.write_text("t,y\n" + "".join(f"{t},2.5\n" for t in range(1, 41)))
        argv = ["detect", str(inp)]
    else:
        _write_jump_csv(inp)
        argv = ["detect", str(inp), "--sigma", sigma]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[InvalidConfigError]")
    # only a MAD of 0 blames the data
    assert ("constant input data?" in err) == (sigma is None)


def test_missing_file_io_error(tmp_path, capsys):
    rc = main(["detect", str(tmp_path / "nope.csv"), "--sigma", "1.0"])
    assert rc == 2
    assert "error[IO]" in capsys.readouterr().err


# 2**53 points, the largest size the loader accepts: 64 PiB per float array,
# beyond any address space, so numpy's allocation fails at once under any
# overcommit setting
_OVERSIZED = {"signal": "TEETH", "noise": {"family": "gaussian", "sd": 0.3},
              "binned": {"n": 2**53, "grid": 70}, "replications": 2}


@pytest.mark.parametrize(
    "argv", [["bench"], ["bench", "--jobs", "2"], ["simulate", "out"]], ids=" ".join
)
def test_failed_allocation_is_a_prefixed_error_without_traceback(tmp_path, capsys, argv):
    # with --jobs 2 the error comes back pickled from a worker process
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(_OVERSIZED))
    outdir = tmp_path / "out"
    command, *rest = argv
    argv = [command, str(cfg)] + [str(outdir) if a == "out" else a for a in rest]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error[MemoryError]: ") and "Traceback" not in captured.err
    assert captured.out == "" and not outdir.exists()


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


def test_bench_grid_rows_are_checked_as_they_run(tmp_path):
    # tau1_sq 0.001 is below TEETH's default tau0_sq 1/140 alone, but not below
    # either row's tau0_sq; the hypers alone never run
    extra = {"hypers": {"tau1_sq": 0.001}, "grid": {"tau0_sq": [0.0001, 0.0005]}}
    cfg, out = _teeth_config(tmp_path, reps=1, extra=extra), tmp_path / "bench.csv"
    assert main(["bench", str(cfg), "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["solo-tau0_sq0.0001", "solo-tau0_sq0.0005"]


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


@pytest.mark.parametrize(
    "extra, rows",
    [
        # two rows that differ, so one pool's results must land in the right row
        ({"grid": {"q": [0.001, 0.9]}}, 2),
        # binned replications, each drawn and fitted in a worker
        ({"noise": {"family": "gaussian", "sd": 0.3}, "sigma_mode": "mad",
          "binned": {"n": 200, "grid": 70}}, 1),
    ],
    ids=["two-rows", "binned"],
)
def test_bench_parallel_matches_serial(tmp_path, extra, rows):
    cfg = _teeth_config(tmp_path, reps=3, extra=extra)
    out1 = tmp_path / "serial.csv"
    out2 = tmp_path / "parallel.csv"
    assert main(["bench", str(cfg), "--out", str(out1), "--jobs", "1"]) == 0
    assert main(["bench", str(cfg), "--out", str(out2), "--jobs", "2"]) == 0
    serial = _strip_timing(out1.read_text())
    assert len(serial) == 1 + rows
    assert len({row.split(",", 1)[1] for row in serial[1:]}) == rows
    # identical up to the wall-clock column
    assert serial == _strip_timing(out2.read_text())


@pytest.mark.parametrize(
    "reps, grid, workers",
    [(1, None, []), (3, None, [3]), (1, {"q": [0.001, 0.9]}, [2])],
    ids=["one-task", "three-reps", "two-rows"],
)
def test_bench_starts_no_more_workers_than_tasks(tmp_path, monkeypatch, reps, grid, workers):
    # a fork-started pool forks every worker at the first submit; the stub
    # records the worker count and runs the tasks here, starting no process
    started = []

    class RecordingPool:
        def __init__(self, max_workers=None):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = _teeth_config(tmp_path, reps=reps, extra={"grid": grid} if grid else None)
    out = tmp_path / "bench.csv"
    assert main(["bench", str(cfg), "--out", str(out), "--jobs", "4096"]) == 0
    assert started == workers
    assert len(out.read_text().strip().splitlines()) == 1 + (len(grid["q"]) if grid else 1)


def _counting_replications(monkeypatch, fail_at=None):
    """Patch run_replication to record each call's replication, and to raise
    NumericOverflowError at replication fail_at."""
    calls, run = [], cli.run_replication

    def counted(exp, rep, row):
        calls.append(rep)
        if rep == fail_at:
            raise NumericOverflowError("a failing replication")
        return run(exp, rep, row)

    monkeypatch.setattr(cli, "run_replication", counted)
    return calls


def test_bench_unopenable_out_runs_no_replication(tmp_path, capsys, monkeypatch):
    # --out was opened after all 20 replications had run
    calls = _counting_replications(monkeypatch)
    cfg = _teeth_config(tmp_path, reps=20)
    assert main(["bench", str(cfg), "--out", str(tmp_path / "missing" / "bench.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error[IO]") and captured.out == ""
    assert calls == []


@pytest.mark.parametrize("existing", [True, False], ids=["existing", "new"])
def test_bench_failing_replication_leaves_out_as_it_was(tmp_path, capsys, monkeypatch, existing):
    calls = _counting_replications(monkeypatch, fail_at=1)
    out = tmp_path / "bench.csv"
    if existing:
        out.write_bytes(b"label,earlier\r\nrow\n")
    assert main(["bench", str(_teeth_config(tmp_path, reps=3)), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error[NumericOverflowError]")
    assert calls == [0, 1]
    if existing:
        assert out.read_bytes() == b"label,earlier\r\nrow\n"
    else:
        assert not out.exists()


@pytest.mark.parametrize("command", ["bench --out", "detect --probs-csv"])
def test_output_replaces_a_longer_existing_file(tmp_path, capsys, command):
    # outputs open in append mode before the work, so an old file is
    # truncated only once the new output is ready
    fresh, old = tmp_path / "fresh.out", tmp_path / "old.out"
    old.write_bytes(b"earlier run, longer than the new output\n" * 1000)
    for path in (fresh, old):
        if command == "bench --out":
            assert main(["bench", str(_teeth_config(tmp_path, reps=1)), "--out", str(path)]) == 0
            fresh.write_text(capsys.readouterr().out)  # time_s differs between runs
        else:
            inp = tmp_path / "jump.csv"
            _write_jump_csv(inp)
            assert main(["detect", str(inp), "--sigma", "1", "--probs-csv", str(path)]) == 0
    assert old.read_bytes() == fresh.read_bytes()


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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bench_replication_defaults_failure_names_the_replication(tmp_path, capsys, jobs):
    # the loader checks the overrides with the defaults at min(n, grid) = 60
    # groups; replication 1 (seed 1) has 56, and its default tau0_sq = 1/56
    # exceeds the tau1_sq override
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "signal": "BLOCKS",
        "noise": {"family": "gaussian", "sd": 1.0},
        "binned": {"n": 60, "grid": 400},
        "hypers": {"tau1_sq": 0.0175},
        "replications": 3,
    }))
    assert main(["bench", str(cfg), "--jobs", jobs]) == 1
    assert capsys.readouterr().err == (
        "error[InvalidHyperparameterError]: replication 1 (seed 1, 56 groups): "
        "tau1_sq must be >= tau0_sq\n"
    )


# configs that fail in one replication, each with the one line that names it:
# in simulation, before the series exists (replication 1 has a single group);
# in the second grid row's hyperparameters (as in the test above); and in
# detect, once the series exists
_NAMED_FAILURES = {
    "simulation": (
        {"signal": "TEETH", "noise": {"family": "gaussian", "sd": 0.4},
         "binned": {"n": 2, "grid": 2}, "replications": 5},
        "error[TooShortError]: replication 1 (seed 1): "
        "need at least 2 groups of whole sizes >= 1 adding up to 2\n",
    ),
    "grid_row": (
        {"signal": "BLOCKS", "noise": {"family": "gaussian", "sd": 1.0},
         "binned": {"n": 60, "grid": 400}, "grid": {"tau1_sq": [1.0, 0.0175]},
         "replications": 3},
        "error[InvalidHyperparameterError]: replication 1 (row solo-tau1_sq0.0175, seed 1, "
        "56 groups): tau1_sq must be >= tau0_sq\n",
    ),
    "detect": (
        {"signal": {"length": 10, "changepoints": [5], "levels": [0.0, 1.7e308]},
         "noise": {"family": "gaussian", "sd": 1.0}, "replications": 2},
        "error[NumericOverflowError]: replication 0 (seed 0, 10 groups): "
        "site scalars A/B are not finite; rescale the data\n",
    ),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("case", _NAMED_FAILURES)
def test_bench_failure_names_its_replication(tmp_path, capsys, case, jobs):
    config, line = _NAMED_FAILURES[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["bench", str(cfg), "--jobs", jobs]) == 1
    assert capsys.readouterr() == ("", line)


def test_simulate_failure_names_its_replication(tmp_path, capsys):
    config, line = _NAMED_FAILURES["simulation"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    outdir = tmp_path / "out"
    outdir.mkdir()
    (outdir / "rep_000.csv").write_text("old")
    assert main(["simulate", str(cfg), str(outdir)]) == 1
    assert capsys.readouterr() == ("", line)
    assert {p.name: p.read_text() for p in outdir.iterdir()} == {"rep_000.csv": "old"}


@pytest.mark.parametrize(
    "error, prefix",
    [
        (NumericOverflowError, "replication 2 (seed 2, 140 groups): "),
        (MemoryError, ""),
        (OSError, ""),
    ],
    ids=["library", "memory", "os"],
)
def test_replication_failure_is_the_raised_object(tmp_path, monkeypatch, error, prefix):
    # a library error's message is prefixed in place: its type, the object and
    # its traceback stay the original's; other errors pass unchanged
    raised = error("a failing detect")

    def failing(*args, **kwargs):
        raise raised

    monkeypatch.setattr(cli, "detect", failing)
    exp = load_experiment_config(str(_teeth_config(tmp_path, reps=3)))
    with pytest.raises(error) as info:
        run_replication(exp, 2, exp.rows[0])
    assert info.value is raised and str(raised) == prefix + "a failing detect"
    assert info.traceback[-1].name == "failing"


def test_bench_single_method_row(tmp_path):
    cfg = _teeth_config(tmp_path, reps=2, extra={"method": "single"})
    out = tmp_path / "bench.csv"
    assert main(["bench", str(cfg), "--out", str(out)]) == 0
    header, *rows = out.read_text().strip().splitlines()
    assert len(rows) == 1
    row = dict(zip(header.split(","), rows[0].split(",")))
    # single locates one change point; TEETH has four
    assert row["label"] == "single" and float(row["k_bias"]) == 3


def test_simulated_binned_csv_round_trips_bitwise(tmp_path):
    cfg = _teeth_config(tmp_path, reps=1, extra={"seed": 5, "binned": {"n": 400, "grid": 140}})
    outdir = tmp_path / "data"
    assert main(["simulate", str(cfg), str(outdir)]) == 0
    back = read_series_csv(str(outdir / "rep_000.csv"))
    want = simulate_binned(builtin_signal("TEETH"), NoiseSpec.gaussian(0.25), 400, 140, 5)
    assert isinstance(back, BinnedSeries)
    assert back.values.tobytes() == want.values.tobytes()
    assert back.counts.tobytes() == want.counts.tobytes()


@pytest.mark.parametrize("binned", [None, {"n": 400, "grid": 140}], ids=["plain", "binned"])
@pytest.mark.parametrize("sigma_mode", ["mad", "fixed:0.3"])
@pytest.mark.parametrize("df", [1, 2])
def test_infinite_variance_noise_runs_with_an_estimated_sigma(tmp_path, df, sigma_mode, binned):
    # only sigma_mode true asks the noise for its sd, which student_t with
    # df <= 2 does not have
    extra = {"noise": {"family": "student_t", "df": df, "scale": 0.3}, "sigma_mode": sigma_mode}
    cfg = _teeth_config(tmp_path, reps=2, extra={**extra, "binned": binned})
    assert main(["simulate", str(cfg), str(tmp_path / "data")]) == 0
    out = tmp_path / "bench.csv"
    assert main(["bench", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 2
    with _replication(load_experiment_config(str(cfg)), 1) as (series, _):
        pass
    want = estimate_sigma_mad(series) if sigma_mode == "mad" else 0.3
    assert series.noise_sd == want


@pytest.mark.parametrize("command", ["simulate", "bench"])
def test_infinite_variance_noise_with_true_sigma_rejected(tmp_path, capsys, command):
    cfg = _teeth_config(tmp_path, extra={"noise": {"family": "student_t", "df": 2, "scale": 0.3}})
    args = [command, str(cfg)] + ([str(tmp_path / "data")] if command == "simulate" else [])
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        "error[InvalidConfigError]: replication 0 (seed 0): "
        "student_t with df=2.0 has no finite variance"
    )


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


@pytest.mark.parametrize(
    "method_args", [[], ["--method", "basad", "--iterations", "10", "--burn-in", "1"]],
    ids=["solo", "basad"],
)
def test_detect_subnormal_sigma_reported_without_a_warning(tmp_path, method_args):
    # a fresh process, as a user runs it: y / sigma overflowed with a NumPy
    # RuntimeWarning on stderr ahead of the error line
    _write_jump_csv(tmp_path / "jump.csv")
    proc = subprocess.run(
        [sys.executable, "-m", "solocp.cli", "detect", "jump.csv", "--sigma", "1e-320",
         *method_args],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error[NumericOverflowError]"), proc.stderr


@pytest.mark.parametrize("flags", [
    ["--tau-sq", "3e-17"],
    ["--tau-sq", "1e-310"],
    # basad returned a report from level draws far off the dense mean at 1e-16
    ["--method", "basad", "--tau0-sq", "2e-13"],
    ["--method", "basad", "--tau0-sq", "1e-16"],
    ["--method", "basad", "--tau0-sq", "1e-310"],
], ids=["3e-17", "1e-310", "basad-2e-13", "basad-1e-16", "basad-1e-310"])
def test_detect_tau_sq_below_double_precision_reported(tmp_path, capsys, flags):
    inp = tmp_path / "jump.csv"
    _write_jump_csv(inp, t=200, jump_at=100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["detect", str(inp), "--sigma", "1.0", *flags])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[NumericOverflowError]") and captured.err.count("\n") == 1


def test_detect_overflowing_differences_reported_not_as_sigma(tmp_path, capsys):
    # finite data whose first differences overflow: the MAD estimate names the
    # overflow instead of handing a nan sigma on (a leaked warning fails here)
    inp = tmp_path / "extreme.csv"
    inp.write_text("t,y\n" + "".join(f"{t},{(-1) ** t * 1e308!r}\n" for t in range(1, 41)))
    assert main(["detect", str(inp)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[NumericOverflowError]: first differences")
    assert "Traceback" not in err


def test_detect_whole_float_delta_is_the_integer(tmp_path, capsys):
    inp = tmp_path / "jump.csv"
    _write_jump_csv(inp)
    reports = []
    for delta in ("3", "3.0", "3e0"):
        assert main(["detect", str(inp), "--delta", delta]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[1] == reports[0] and reports[2] == reports[0]
    assert json.loads(reports[0])["hypers"]["delta"] == 3


@pytest.mark.parametrize("delta", ["2.5", "-1", "inf", "nan"])
def test_detect_fractional_delta_flag_rejected(tmp_path, capsys, delta):
    inp = tmp_path / "jump.csv"
    _write_jump_csv(inp)
    assert main(["detect", str(inp), f"--delta={delta}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[InvalidHyperparameterError]: delta")
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
    # sizes are integers from 2 to 2**53; larger ones failed in numpy with a traceback
    "signal_length_1e30": {"signal": {"length": 10**30, "changepoints": [], "levels": [0.0]}},
    "signal_length_2_53_plus_1": {
        "signal": {"length": 2**53 + 1, "changepoints": [], "levels": [0.0]}
    },
    "binned_n_1e30": {"binned": {"n": 10**30, "grid": 20}},
    "binned_n_2_53_plus_1": {"binned": {"n": 2**53 + 1, "grid": 20}},
    "binned_grid_1e30": {"binned": {"n": 100, "grid": 10**30}},
    "binned_grid_2_53_plus_1": {"binned": {"n": 100, "grid": 2**53 + 1}},
    "sigma_mode": {"sigma_mode": "fixed:abc"},
    "sigma_mode_name": {"sigma_mode": "median"},
    # a fixed sigma is positive and finite, checked before any replication runs
    "sigma_fixed_zero": {"sigma_mode": "fixed:0"},
    "sigma_fixed_negative": {"sigma_mode": "fixed:-1"},
    "sigma_fixed_nan": {"sigma_mode": "fixed:nan"},
    "sigma_fixed_infinite": {"sigma_mode": "fixed:inf"},
    "replications_zero": {"replications": 0},
    # simulate wrote files and bench built its task list until the disk or memory ran out
    "replications_past_bound": {"replications": 10**12},
    "seed_negative": {"seed": -1},
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
    "gibbs_iterations_zero": {"method": "basad", "gibbs": {"iterations": 0, "burn_in": 0}},
    "gibbs_burn_in_not_below_iterations": {
        "method": "basad", "gibbs": {"iterations": 20, "burn_in": 20}
    },
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


@pytest.mark.parametrize("case", [*_MALFORMED_CONFIG, "edge_fraction", "jobs_zero"])
def test_malformed_input_reported_not_traceback(tmp_path, capsys, case):
    if case == "jobs_zero":
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
    "extra",
    [
        {"binned": {"n": 1, "grid": 20}},
        # valid at the 400 cells, not at the at most 200 groups a replication has
        {"signal": "BLOCKS", "binned": {"n": 200, "grid": 400}, "hypers": {"tau1_sq": 0.004}},
    ],
    ids=["n", "hypers_at_n"],
)
def test_simulate_failing_first_replication_leaves_no_outdir(tmp_path, capsys, extra):
    outdir = tmp_path / "out"
    assert main(["simulate", str(_teeth_config(tmp_path, reps=1, extra=extra)), str(outdir)]) == 1
    assert capsys.readouterr().err.startswith("error[")
    assert not outdir.exists()


# TEETH on 2 points in 2 cells: replication 0 has two groups, replication 1
# (seed 1) only one, so simulate fails after writing rep_000.csv
_FAILS_AT_REPLICATION_1 = {"binned": {"n": 2, "grid": 2}}


@pytest.mark.parametrize("nested", [False, True], ids=["outdir", "outdir_and_parent"])
def test_simulate_failing_later_replication_removes_the_new_outdir(tmp_path, capsys, nested):
    outdir = tmp_path / "new" / "out" if nested else tmp_path / "out"
    cfg = _teeth_config(tmp_path, reps=5, extra=_FAILS_AT_REPLICATION_1)
    assert main(["simulate", str(cfg), str(outdir)]) == 1
    assert capsys.readouterr().err.startswith("error[TooShortError]")
    assert list(tmp_path.iterdir()) == [cfg]
    # replication 0 alone succeeds, so the failed run had written its file
    cfg = _teeth_config(tmp_path, reps=1, extra=_FAILS_AT_REPLICATION_1)
    assert main(["simulate", str(cfg), str(outdir)]) == 0
    assert sorted(p.name for p in outdir.iterdir()) == ["manifest.json", "rep_000.csv"]


def test_simulate_failing_later_replication_keeps_an_existing_outdir(tmp_path, capsys):
    # replication 0 overwrote rep_000.csv before replication 1 failed, so the
    # old manifest described the new data
    outdir = tmp_path / "out"
    outdir.mkdir()
    before = {"notes.txt": "kept", "manifest.json": "{}\n", "rep_009.csv": "t,y\n",
              "rep_000.csv": "old"}
    for name, text in before.items():
        (outdir / name).write_text(text)
    cfg = _teeth_config(tmp_path, reps=5, extra=_FAILS_AT_REPLICATION_1)
    assert main(["simulate", str(cfg), str(outdir)]) == 1
    assert capsys.readouterr().err.startswith("error[TooShortError]")
    assert {p.name: p.read_text() for p in outdir.iterdir()} == before


def test_simulate_into_a_regular_file_simulates_nothing(tmp_path, capsys, monkeypatch):
    # OUTDIR was found not to be a directory only when replication 0 was written
    calls, run = [], cli.simulate
    monkeypatch.setattr(cli, "simulate", lambda *args: calls.append(args) or run(*args))
    outdir = tmp_path / "out"
    outdir.write_text("a file")
    assert main(["simulate", str(_teeth_config(tmp_path, reps=2)), str(outdir)]) == 2
    assert capsys.readouterr().err.startswith("error[IO]")
    assert calls == [] and outdir.read_text() == "a file"


# simulated draws past the float range; each raised a NumPy overflow warning first
_OVERFLOWING_DRAWS = {
    "student_t": {"noise": {"family": "student_t", "df": 3, "scale": 1e308}},
    "mixture": {"noise": {"family": "gaussian_mixture", "weights": [1.0], "sds": [1e308]}},
    "mixture_second_sd": {
        "noise": {"family": "gaussian_mixture", "weights": [0.5, 0.5], "sds": [1.0, 1e308]}
    },
    "level_and_sd": {
        "signal": {"length": 10, "changepoints": [5], "levels": [0.0, 1.7e308]},
        "noise": {"family": "gaussian", "sd": 1e308},
    },
    "level_and_sd_binned": {
        "signal": {"length": 10, "changepoints": [5], "levels": [0.0, 1.7e308]},
        "noise": {"family": "gaussian", "sd": 1e308},
        "binned": {"n": 100, "grid": 10},
    },
}


@pytest.mark.parametrize("command", ["simulate", "bench"])
@pytest.mark.parametrize("case", _OVERFLOWING_DRAWS)
def test_overflowing_draws_reported_in_one_line(tmp_path, capsys, command, case):
    cfg = _teeth_config(tmp_path, reps=1, extra=_OVERFLOWING_DRAWS[case])
    args = [command, str(cfg)] + ([str(tmp_path / "out")] if command == "simulate" else [])
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error[NonFiniteValueError]: replication 0 (seed 0): series contains non-finite values\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method", ["solo", "basad"])
def test_detect_overflowing_group_sums_reported_in_one_line(tmp_path, capsys, method):
    # solo named the site scalars and basad sums / sigma, after a NumPy warning
    inp = tmp_path / "huge.csv"
    inp.write_text("t,y,bin\n1,1.7e308,1\n2,1.7e308,1\n3,0,2\n4,1,2\n5,0.5,3\n6,2,3\n7,1,4\n")
    assert main(["detect", str(inp), "--sigma", "1", "--method", method]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error[NumericOverflowError]: group sums overflow; rescale the data\n"


@pytest.mark.parametrize(
    "extra", [{"hypers": {"q": 2}}, {"grid": {"delta": [1, 1.5]}}], ids=["q", "grid_delta"]
)
def test_simulate_checks_hyperparameter_ranges_at_load(tmp_path, capsys, extra):
    # every grid row is checked, not only the base hypers, before anything runs
    outdir = tmp_path / "out"
    assert main(["simulate", str(_teeth_config(tmp_path, reps=1, extra=extra)), str(outdir)]) == 1
    assert capsys.readouterr().err.startswith("error[InvalidHyperparameterError]")
    assert not outdir.exists()


@pytest.mark.parametrize(
    "entry", ['"hypers": ' + "[" * 100_000 + "]" * 100_000, '"seed": ' + "7" * 5_000],
    ids=["deep_list", "long_integer"],
)
def test_undecodable_config_is_a_parse_error(tmp_path, capsys, entry):
    # json.dumps writes neither; json.load raises RecursionError on the first
    # and ValueError (past 4300 digits) on the second
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"signal": "TEETH", "noise": {"family": "gaussian", "sd": 1}, ' + entry + "}")
    assert main(["bench", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error[ParseError]: {cfg}: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "text", ['{"noise": {"family": "gaussian", "sd": 1}}', '{"signal": "TEETH"}', "[]"],
    ids=["no_signal", "no_noise", "array"],
)
def test_config_needs_signal_and_noise(tmp_path, capsys, text):
    cfg, outdir = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(text)
    assert main(["simulate", str(cfg), str(outdir)]) == 1
    assert capsys.readouterr().err.startswith("error[InvalidConfigError]")
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


def test_binned_bench_means_skip_replications_without_detections(tmp_path, capsys):
    # at sd 0.9 and q 0.1 two of six binned replications detect nothing, and
    # at q 0.001 none detects anything: the est_* means skip the empty ones,
    # a column empty in every replication is nan, and nothing warns
    cfg = _teeth_config(tmp_path, reps=6, extra={
        "noise": {"family": "gaussian", "sd": 0.9}, "binned": {"n": 200, "grid": 70},
        "grid": {"q": [0.1, 0.001]},
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bench", str(cfg), "--jobs", "1"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    exp = load_experiment_config(str(cfg))
    reports = [run_replication(exp, rep, exp.rows[0])[0] for rep in range(6)]
    found = [r.hist_est for r in reports if not np.isnan(r.hist_est).any()]
    assert 0 < len(found) < 6
    assert rows[0][5:9] == [f"{c:.6g}" for c in np.mean(found, axis=0)]
    assert rows[1][5:9] == ["nan"] * 4 and "nan" not in rows[1][1:5]


def test_bench_fractional_delta_rejected_not_truncated(tmp_path, capsys):
    cfg = _teeth_config(tmp_path, reps=1, extra={"hypers": {"delta": 1.5}})
    assert main(["bench", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error[InvalidHyperparameterError]")
