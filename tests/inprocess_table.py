"""In-process wall times of the series commands at large orders, in ms.

Usage (from the repository root)::

    python tests/inprocess_table.py                    # the package in src/
    python tests/inprocess_table.py OTHER/src          # another checkout's package
    python tests/inprocess_table.py --against OTHER/src

Runs ``yukawa``, ``mirror-map``, ``bseries`` and ``ifunction`` on
``p3_quartic`` and ``ifunction`` and ``all`` on ``p3_eight_hyperplanes``,
each with ``--format json`` at N = 16, 32, 64 and 128, and prints the best
of 3 wall times in ms as a Markdown table.  The commands run in this process, with
FRACMIRROR_MAX_N=256 set for it alone, since the default cap is 64.  No
perfbench job goes above N = 16, so this table stands in for the
large-order rows of a speed claim.  A machine's speed can swing between
runs: compare only tables taken side by side.  The name keeps pytest from
collecting it.

``--against OTHER/src`` imports both packages into this one process: every
import inside ``src/fracmirror`` is relative, so OTHER's package is copied
under a second name.  Each of 10 repetitions of a job runs on both, back
to back in an order that alternates, so a swing in the machine's speed
reaches both sides of one repetition alike.  Each repetition starts with
``gc.collect()``, so the garbage of earlier calls is collected between
pairs, not inside a timed call of one side.  The side that runs second in a
repetition runs faster, by up to 10 % at N = 16 on identical code, so the
ratios src/OTHER alternate about 1 + e and 1/(1 + e); the median of 9 such
ratios once read 2.72 on identical code.  A cell is therefore the median,
over repetitions 2i and 2i + 1, of the geometric mean of their two ratios,
in which the order's edge cancels, followed by the two best times in ms.
"""

import contextlib
import gc
import importlib
import io
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
JOBS = (
    ("yukawa", "p3_quartic"),
    ("mirror-map", "p3_quartic"),
    ("bseries", "p3_quartic"),
    ("ifunction", "p3_quartic"),
    ("ifunction", "p3_eight_hyperplanes"),
    ("all", "p3_eight_hyperplanes"),
)
ORDERS = (16, 32, 64, 128)
REPEATS = 3
AGAINST_REPEATS = 10


def _wall(cli_main, argv):
    """Wall seconds of one in-process CLI call, which must exit 0."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli_main(argv)
        wall = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return wall


def table(mains, repeats=REPEATS):
    """{"command input": {N: [the ``repeats`` wall times in ms, one list per main]}}.

    With two mains, repetition i runs them in the order given when i is
    even and reversed when it is odd; each repetition starts with a full
    garbage collection.
    """
    rows = {}
    for command, name in JOBS:
        argv = [command, str(ROOT / "data" / f"{name}.json"), "--format", "json"]
        row = rows[f"{command} {name}"] = {}
        for N in ORDERS:
            times = [[] for _ in mains]
            for i in range(repeats):
                gc.collect()
                order = range(len(mains)) if i % 2 == 0 else reversed(range(len(mains)))
                for k in order:
                    times[k].append(_wall(mains[k], argv + ["-N", str(N)]) * 1e3)
            row[N] = times
    return rows


def _import_as(src, name, tmp):
    """``fracmirror.cli`` of the package in ``src``, imported as ``name``."""
    shutil.copytree(Path(src).resolve() / "fracmirror", Path(tmp) / name)
    sys.path.insert(0, tmp)
    return importlib.import_module(f"{name}.cli")


def _cell(times):
    """The best time in ms; with two mains, the median over the pairs of
    repetitions in opposite orders of the geometric mean of their ratios
    first, then both best times."""
    best = [round(min(t), 2) for t in times]
    if len(times) == 1:
        return f"{best[0]:g}"
    r = [a / b for a, b in zip(*times)]
    ratio = statistics.median(math.sqrt(x * y) for x, y in zip(r[::2], r[1::2]))
    return f"{ratio:.3f} ({best[0]:g} / {best[1]:g})"


def main(argv):
    os.environ["FRACMIRROR_MAX_N"] = "256"
    against = None
    if argv[:1] == ["--against"]:
        if len(argv) != 2:
            raise SystemExit("usage: inprocess_table.py [--against] [OTHER/src]")
        against, argv = argv[1], []
    sys.path.insert(0, str(Path(argv[0]).resolve() if argv else ROOT / "src"))
    from fracmirror.cli import main as cli_main

    if against is None:
        rows = table([cli_main])
    else:
        with tempfile.TemporaryDirectory() as tmp:
            rows = table([cli_main, _import_as(against, "fracmirror_against", tmp).main], AGAINST_REPEATS)
        print(f"ratio src / {against} (median over order-swapped pairs of repetitions), then both best times in ms")
    print("| command | " + " | ".join(f"N={N}" for N in ORDERS) + " |")
    print("| --- |" + " --- |" * len(ORDERS))
    for label, row in rows.items():
        print(f"| `{label}` | " + " | ".join(_cell(row[N]) for N in ORDERS) + " |")


if __name__ == "__main__":
    main(sys.argv[1:])
