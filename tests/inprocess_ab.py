"""In-process A/B of this checkout's package against another over a perfbench plan.

Usage (from the repository root)::

    python tests/inprocess_ab.py OTHER/src WORKLOAD SEED

Both packages are imported into this one process, OTHER's copied under a
second name as ``inprocess_table.py --against`` does.  Every job of every
round of ``perfbench/run.py``'s ``plan(WORKLOAD, SEED)`` runs on both
through ``cli.run`` with ``--format json``, back to back, the side that goes
first alternating job by job, each job after a ``gc.collect()``.  The two
stdouts and exit codes of a job must be equal.  For each round it prints
src/OTHER of the round's summed job times, then their median: below 1 means
this checkout is faster.  Run with OTHER = ``src`` for a self-comparison,
whose spread is the noise floor of a reading.  The script reads
``perfbench/`` and writes its inputs to a temporary directory.  The name
keeps pytest from collecting it.
"""

import contextlib
import gc
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

from inprocess_table import ROOT, _import_as
from perfbench_module import load_perfbench


def _plan(workload, seed):
    """``perfbench/run.py``: its rounds for (workload, seed) and ``write_inputs``."""
    sys.path.insert(0, str(ROOT / "perfbench"))  # run.py imports gen and check
    run = load_perfbench("run")
    if workload not in run.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}: one of {', '.join(run.WORKLOADS)}")
    return run.plan(workload, seed), run.write_inputs


def _job(cli, job):
    """(wall seconds, exit code, stdout) of one job on one package."""
    out = io.StringIO()
    config = cli.JobConfig(job.command, str(job.path), N=job.N, fmt="json")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.run(config)
        wall = time.perf_counter() - start
    return wall, code, out.getvalue()


def rounds(clis, plan, write_inputs, workdir):
    """src/OTHER of each round's summed job times, with ``clis`` = (src, OTHER)."""
    ratios, k = [], 0
    for jobs in plan:
        write_inputs(jobs, workdir)
        sums = [0.0, 0.0]
        for job in jobs:
            runs = {}
            for side in (k % 2, 1 - k % 2):
                gc.collect()
                runs[side] = _job(clis[side], job)
                sums[side] += runs[side][0]
            if runs[0][1:] != runs[1][1:]:
                raise SystemExit(f"{job.command} {job.shape} -N {job.N}: the outputs differ")
            k += 1
        ratios.append(sums[0] / sums[1])
    return ratios


def main(argv):
    if len(argv) != 3:
        raise SystemExit("usage: inprocess_ab.py OTHER/src WORKLOAD SEED")
    other, workload, seed = argv[0], argv[1], int(argv[2])
    plan, write_inputs = _plan(workload, seed)
    sys.path.insert(0, str(ROOT / "src"))
    from fracmirror import cli

    with tempfile.TemporaryDirectory() as tmp:
        clis = (cli, _import_as(other, "fracmirror_other", tmp))
        ratios = rounds(clis, plan, write_inputs, Path(tmp))
    print(
        f"{workload} seed {seed}: src / {other} of each round's summed job times, "
        f"{len(plan)} rounds of {len(plan[0])} jobs, equal stdout"
    )
    for i, ratio in enumerate(ratios):
        print(f"round {i}: {ratio:.4f}")
    print(f"median: {statistics.median(ratios):.4f}")


if __name__ == "__main__":
    main(sys.argv[1:])
