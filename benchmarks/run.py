"""Seeded benchmark of the solocp command line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src. One
process drives `solocp.cli.main` in-process as a single closed-loop client
(`bench --jobs 1`, BLAS pinned to one thread). Inputs are generated from
the seed before timing, an oracle gate checks the solo posteriors, and every
item's output is checked after the timed loop.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced items and prints the per-layer metrics from spans recorded around
the calls into each layer, plus the tracing overhead.

The last stdout line is the result as JSON. The environment, the raw
latencies and (traced) the spans are written under benchmarks/_results/.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "solocp" / "__init__.py").is_file():
        print(f"benchmark: no solocp package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)  # before numpy is first imported
    sys.path.insert(0, str(src))
    import solocp

    if Path(solocp.__file__).resolve().parent != (src / "solocp").resolve():
        print(f"benchmark: imported solocp from {solocp.__file__}, not {src}", file=sys.stderr)
        return 2
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(harness.WORKLOADS)}")
    return harness.run(args, root, src)


if __name__ == "__main__":
    sys.exit(main())
