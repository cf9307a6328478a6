"""What importing and running solocp loads, each case in a fresh interpreter.

solocp takes dpttrf/dpttrs and the oracle's dpotrf/dpotrs from scipy's
LAPACK extension without importing scipy.linalg, in any call; it imports
solocp.oracle only on the first oracle call, takes medians without numpy.ma,
and starts a process pool only for bench --jobs above 1. Where the extension
file is missing, the four routines come from scipy.linalg.lapack and every
result stays the same.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import solocp
from solocp import GibbsConfig, Hyperparameters, TimeSeries, detect, oracle_site_posterior

SRC = Path(solocp.__file__).resolve().parents[1]  # the subprocesses import this same solocp

# modules that cost start-up and that detect and bench --jobs 1 never need
HEAVY = ["scipy", "scipy.linalg", "numpy.f2py", "numpy.ma", "concurrent.futures", "solocp.oracle"]


def _run(script: str, *args) -> dict:
    """Run script in a fresh interpreter that imports solocp from SRC; the
    JSON object on its last stdout line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _series(seed=0, t=60, jump_at=30):
    y = np.random.default_rng(seed).normal(0.0, 0.5, t)
    y[jump_at:] += 3.0
    return y


CLI_CALLS = """
import json, sys
import solocp.cli

csv, cfg, out = sys.argv[1:]
calls = [
    ["detect", csv, "--out", out],
    ["detect", csv, "--method", "basad", "--iterations", "200", "--burn-in", "50", "--out", out],
    ["bench", cfg, "--jobs", "1", "--out", out],
]
codes = [solocp.cli.main(argv) for argv in calls]
loaded = [m for m in %r if m in sys.modules]

from solocp import Hyperparameters, TimeSeries, oracle_site_posterior
import numpy as np
series = TimeSeries(np.array(%r), 0.5)
prob = oracle_site_posterior(series, 30, Hyperparameters.solo_defaults(series.length)).inclusion_prob
print(json.dumps({"codes": codes, "loaded": loaded, "oracle": prob,
                  "after_oracle": [m for m in ("scipy.linalg", "solocp.oracle") if m in sys.modules]}))
"""


def test_detect_and_serial_bench_load_no_scipy_linalg(tmp_path):
    y = _series()
    csv = tmp_path / "series.csv"
    csv.write_text("t,y\n" + "".join(f"{t},{v!r}\n" for t, v in enumerate(y.tolist(), start=1)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "signal": "TEETH", "noise": {"family": "gaussian", "sd": 0.25}, "replications": 1,
    }))
    script = CLI_CALLS % (HEAVY, y.tolist())
    got = _run(script, csv, cfg, tmp_path / "out")
    assert got["codes"] == [0, 0, 0]
    assert got["loaded"] == []
    # the first oracle call imports the oracle, not scipy.linalg, and computes
    # what it computes in this process
    series = TimeSeries(y, 0.5)
    expected = oracle_site_posterior(series, 30, Hyperparameters.solo_defaults(60))
    assert got["after_oracle"] == ["solocp.oracle"]
    assert got["oracle"] == expected.inclusion_prob


IDENTITY = """
import json, sys
first = sys.argv[1]
if first == "scipy":
    import scipy.linalg.lapack
import solocp
import solocp.oracle
import scipy.linalg
import scipy.linalg.lapack
from scipy.linalg import _flapack
import numpy as np

same = [solocp.gibbs.dpttrf is scipy.linalg.lapack.dpttrf,
        solocp.gibbs.dpttrs is scipy.linalg.lapack.dpttrs,
        solocp.posterior.dpttrf is scipy.linalg.lapack.dpttrf,
        solocp.posterior.dpttrs is scipy.linalg.lapack.dpttrs,
        solocp.oracle.dpotrf is scipy.linalg.lapack.dpotrf,
        solocp.oracle.dpotrs is scipy.linalg.lapack.dpotrs,
        _flapack is sys.modules["scipy.linalg._flapack"]]
a = np.array([[4.0, 2.0], [2.0, 3.0]])
chol, lower = scipy.linalg.cho_factor(a, lower=True)
print(json.dumps({"same": same, "chol": np.tril(chol).tolist()}))
"""


def test_lapack_routines_are_scipys_in_either_import_order():
    for first in ("solocp", "scipy"):
        got = _run(IDENTITY, first)
        assert got["same"] == [True] * 7, first
        assert np.allclose(got["chol"], np.linalg.cholesky([[4.0, 2.0], [2.0, 3.0]])), first


FALLBACK = """
import importlib.machinery, json, sys
import numpy as np

find_spec = importlib.machinery.PathFinder.find_spec


def no_flapack(name, path=None, target=None):
    return None if name == "_flapack" else find_spec(name, path, target)


importlib.machinery.PathFinder.find_spec = staticmethod(no_flapack)
import solocp
fell_back = "scipy.linalg" in sys.modules
import scipy.linalg.lapack as lapack

from solocp import GibbsConfig, Hyperparameters, TimeSeries, detect, oracle_site_posterior
series = TimeSeries(np.array(%r), 0.5)
solo = detect(series, Hyperparameters.solo_defaults(series.length))
basad = detect(series, Hyperparameters.basad_defaults(series.length), method="basad",
               gibbs_config=GibbsConfig(iterations=200, burn_in=50, seed=3))
oracle = oracle_site_posterior(series, 30, Hyperparameters.solo_defaults(series.length))
print(json.dumps({
    "fell_back": fell_back,
    "same": [solocp.gibbs.dpttrf is lapack.dpttrf, solocp.posterior.dpttrs is lapack.dpttrs,
             solocp.oracle.dpotrf is lapack.dpotrf, solocp.oracle.dpotrs is lapack.dpotrs],
    "solo": solo.probabilities.tolist(), "basad": basad.probabilities.tolist(),
    "oracle": [*oracle.mu, *oracle.xi, *oracle.log_marginal, oracle.inclusion_prob],
}))
"""


def test_fallback_without_the_extension_file_detects_the_same():
    y = _series(seed=1)
    got = _run(FALLBACK % (y.tolist(),))
    assert got["fell_back"] and got["same"] == [True] * 4
    series = TimeSeries(y, 0.5)
    solo = detect(series, Hyperparameters.solo_defaults(60))
    basad = detect(series, Hyperparameters.basad_defaults(60), method="basad",
                   gibbs_config=GibbsConfig(iterations=200, burn_in=50, seed=3))
    assert got["solo"] == solo.probabilities.tolist()
    assert got["basad"] == basad.probabilities.tolist()
    oracle = oracle_site_posterior(series, 30, Hyperparameters.solo_defaults(60))
    assert got["oracle"] == [*oracle.mu, *oracle.xi, *oracle.log_marginal, oracle.inclusion_prob]
