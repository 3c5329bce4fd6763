"""In-process wall times of the series commands at large orders, in ms.

Usage (from the repository root)::

    python tests/inprocess_table.py            # the package in src/
    python tests/inprocess_table.py OTHER/src  # another checkout's package

Runs ``yukawa``, ``mirror-map``, ``bseries`` and ``ifunction`` on
``p3_quartic`` and ``ifunction`` on ``p3_eight_hyperplanes``, each with
``--format json`` at N = 16, 32, 64 and 128, and prints the best of 3 wall
times in ms as a Markdown table.  The commands run in this process, with
FRACMIRROR_MAX_N=256 set for it alone, since the default cap is 64.  No
perfbench job goes above N = 16, so this table stands in for the
large-order rows of a speed claim.  A machine's speed can swing between
runs: compare only tables taken side by side.  The name keeps pytest from
collecting it.
"""

import contextlib
import io
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
JOBS = (
    ("yukawa", "p3_quartic"),
    ("mirror-map", "p3_quartic"),
    ("bseries", "p3_quartic"),
    ("ifunction", "p3_quartic"),
    ("ifunction", "p3_eight_hyperplanes"),
)
ORDERS = (16, 32, 64, 128)
REPEATS = 3


def table(cli_main):
    """{"command input": {N: best of REPEATS wall times in ms}}."""
    rows = {}
    for command, name in JOBS:
        argv = [command, str(ROOT / "data" / f"{name}.json"), "--format", "json"]
        row = rows[f"{command} {name}"] = {}
        for N in ORDERS:
            best = float("inf")
            for _ in range(REPEATS):
                with contextlib.redirect_stdout(io.StringIO()):
                    start = time.perf_counter()
                    code = cli_main(argv + ["-N", str(N)])
                    best = min(best, time.perf_counter() - start)
                if code != 0:
                    raise SystemExit(f"{command} {name} -N {N} exited {code}")
            row[N] = round(best * 1e3, 2)
    return rows


def main(argv):
    os.environ["FRACMIRROR_MAX_N"] = "256"
    sys.path.insert(0, str(Path(argv[0]).resolve() if argv else ROOT / "src"))
    from fracmirror.cli import main as cli_main

    rows = table(cli_main)
    print("| command | " + " | ".join(f"N={N}" for N in ORDERS) + " |")
    print("| --- |" + " --- |" * len(ORDERS))
    for label, row in rows.items():
        print(f"| `{label}` | " + " | ".join(f"{row[N]:g}" for N in ORDERS) + " |")


if __name__ == "__main__":
    main(sys.argv[1:])
