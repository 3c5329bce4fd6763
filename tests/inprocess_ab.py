"""In-process A/B of this checkout's package against another over a perfbench plan.

Usage (from the repository root)::

    python tests/inprocess_ab.py OTHER/src WORKLOAD SEED [SEED ...]

Both packages are imported into this one process, OTHER's copied under a
second name as ``inprocess_table.py --against`` does.  Every job of every
round of ``perfbench/run.py``'s ``plan(WORKLOAD, SEED)`` runs on both
through ``cli.run`` with ``--format json``, back to back, the side that goes
first alternating job by job, each job after a ``gc.collect()``.  The two
stdouts and exit codes of a job must be equal.  For each round it prints
src/OTHER of the round's summed job times, then their median: below 1 means
this checkout is faster.  Given several seeds it does so for each seed's
plan in turn, then prints the reading that ROADMAP's "Second paths,
measured" records: the range of the seeds' medians, and how many medians
and how many rounds read above 1.  Run with OTHER = ``src`` for a
self-comparison, whose spread is the noise floor of a reading.  The script reads
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


def _plans(workload, seeds):
    """``perfbench/run.py``: its rounds for (workload, seed), one plan per seed,
    and ``write_inputs``."""
    sys.path.insert(0, str(ROOT / "perfbench"))  # run.py imports gen and check
    run = load_perfbench("run")
    if workload not in run.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}: one of {', '.join(run.WORKLOADS)}")
    return [run.plan(workload, seed) for seed in seeds], run.write_inputs


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


def reading(ratios_by_seed):
    """The range of the seeds' median round ratios, then how many of the
    medians and of all the rounds read above 1, from one list of round
    ratios per seed."""
    medians = [statistics.median(ratios) for ratios in ratios_by_seed]
    rounds_above = sum(ratio > 1 for ratios in ratios_by_seed for ratio in ratios)
    return (
        f"medians {min(medians):.3f}–{max(medians):.3f}; above 1: "
        f"{sum(median > 1 for median in medians)} of {len(medians)} medians, "
        f"{rounds_above} of {sum(map(len, ratios_by_seed))} rounds"
    )


def main(argv):
    if len(argv) < 3:
        raise SystemExit("usage: inprocess_ab.py OTHER/src WORKLOAD SEED [SEED ...]")
    other, workload, seeds = argv[0], argv[1], [int(seed) for seed in argv[2:]]
    plans, write_inputs = _plans(workload, seeds)
    sys.path.insert(0, str(ROOT / "src"))
    from fracmirror import cli

    ratios_by_seed = []
    with tempfile.TemporaryDirectory() as tmp:
        clis = (cli, _import_as(other, "fracmirror_other", tmp))
        for seed, plan in zip(seeds, plans):
            ratios = rounds(clis, plan, write_inputs, Path(tmp))
            print(
                f"{workload} seed {seed}: src / {other} of each round's summed job times, "
                f"{len(plan)} rounds of {len(plan[0])} jobs, equal stdout"
            )
            for i, ratio in enumerate(ratios):
                print(f"round {i}: {ratio:.4f}")
            print(f"median: {statistics.median(ratios):.4f}")
            ratios_by_seed.append(ratios)
    if len(seeds) > 1:
        print(f"{workload} seeds {', '.join(map(str, seeds))}: {reading(ratios_by_seed)}")


if __name__ == "__main__":
    main(sys.argv[1:])
