"""Set-up probe, run in a fresh process: `import solocp` plus one CLI call.

    python3 benchmarks/probe.py SRC_DIR CLI_ARG...

Prints the CLI's exit code and the elapsed seconds as JSON on its last line.
"""
import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    import solocp.cli

    code = solocp.cli.main(sys.argv[2:])
    print(json.dumps({"exit": code, "seconds": time.perf_counter() - START}))


if __name__ == "__main__":
    main()
