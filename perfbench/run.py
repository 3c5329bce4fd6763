"""Closed-loop benchmark of the fracmirror CLI on seeded nef-partition inputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload topology --seed 1 --seconds 30 --trace 0

One process, no threads: each job is a ``fracmirror.cli.run`` call on a
generated input file, and the next job starts only after the previous one
returned.  Every output is checked against ``reference.json``.

A workload is a fixed set of distinct (command, shape, N) jobs.  A run
repeats the whole set in rounds.  ``--seconds`` sets how many: as many as
fit in it at the workload's nominal round time (ROUND_S), so every run with
the same ``--seconds`` does the same work however fast it goes, and every
round covers every job.  Each round gives each job a new frame (the job's
fixed shears, then another signed permutation), so no input repeats and no
result can be reused, while a job scans the same boxes in every round.  The
seed sets the frames and each round's job order.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.  On
a shared machine the speed of the CPU swings by up to 1.8x within minutes,
so job times are reported at a fixed reference speed: a pure-Python
calibration kernel is timed just before and just after each job, and the
job's wall time is scaled by CAL_REF_S over the mean of the two.  A job's
time is then its fastest round.  Set-up time is the median of
fresh-interpreter imports taken after each round, in wall seconds.

With ``--trace 1`` every job runs once without and once with spans in each
round, over half as many rounds, and the last line holds the per-layer
metrics of ``spans.py``, with counts per round.

The line before the last holds provenance and details (rounds, tail
percentile, sample count, failures, wall times, per-span seconds).
"""

import os

# Pin BLAS/OpenMP pools before NumPy can be imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import check  # noqa: E402
import gen  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

ALL = tuple(gen.SHAPES)
THREEFOLD = tuple(s for s in ALL if gen.SHAPES[s][0] == 3)
# P4 with r = 3 is left out of volume jobs: one euler takes ~8 s in the
# identity frame and more when sheared, most of a run for a single job.
VOLUME = tuple(s for s in ALL if s not in ("p4_311", "p4_221"))
# One euler on these takes 1-2 s; hodge and all would repeat it in a round.
HEAVY = ("p3_1111", "p4_41", "p4_32")
LIGHT = tuple(s for s in VOLUME if s not in HEAVY)

SHEARS = 3  # elementary shears per frame
MAX_ROUNDS = 8  # P2 shapes have 8 signed permutations, one frame per round

# workload -> job classes: (command, N, shapes).  Each workload has >= 40
# jobs, so job_tail_s is at least the 75th percentile.
WORKLOADS = {
    # polytope/_accel/linalg do nearly all the work: hull-bound small jobs,
    # and box-scan-bound euler on the heavy shapes.
    "topology": (
        ("dual-nef", 10, ALL),
        ("euler", 10, VOLUME),
        ("hodge", 10, LIGHT),
        ("all", 10, LIGHT),
    ),
    # series.reversion/compose over Q.  yukawa runs on threefolds only:
    # elsewhere it skips after ~10 ms of polytope work.
    "quantum": tuple(
        (command, N, shapes)
        for command, shapes in (("mirror-map", ALL), ("yukawa", THREEFOLD))
        for N in (12, 14, 16)
    ),
    # NilpotentSeries over Q[eps]/(eps^m): many small EpsPoly products.
    "cohom": tuple((cmd, N, ALL) for cmd in ("ifunction", "bseries") for N in (12, 16)),
}

# About the seconds of one untraced round, set-up samples included, on a
# 2-vCPU Xeon virtual machine at the commit that added the benchmark.
ROUND_S = {"topology": 8.5, "quantum": 6.3, "cohom": 6.9}

SETUP_PER_ROUND = 3

# Median time of calibration_s() on the same machine.  Jobs are reported at
# this speed; the raw wall times are on the details line.
CAL_REF_S = 1.54e-3
CAL_TERMS = 400

SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import fracmirror.cli; print(time.perf_counter() - t)"
)


@dataclass
class Job:
    shape: str
    command: str
    N: int
    U: tuple
    Uinv: tuple
    path: Path = None


def plan(workload, seed):
    """MAX_ROUNDS rounds of the workload's jobs, each in its own seeded order.

    The same seed gives the same rounds.  Every round holds each (command,
    shape, N) once, and a job's frame differs from round to round.
    """
    rng = random.Random(f"{workload}:{seed}")
    frames = {
        (command, shape, N): gen.job_frames(shape, command, N, SHEARS, MAX_ROUNDS, rng)
        for command, N, shapes in WORKLOADS[workload]
        for shape in shapes
    }
    rounds = []
    for r in range(MAX_ROUNDS):
        jobs = [Job(shape, command, N, *fr[r]) for (command, shape, N), fr in frames.items()]
        rng.shuffle(jobs)
        rounds.append(jobs)
    return rounds


def rounds_for(workload, seconds, trace):
    """Rounds of one run: those that fit in ``seconds`` at the nominal round time.

    A traced round runs every job twice, so it counts double.
    """
    nominal = ROUND_S[workload] * (2 if trace else 1)
    return max(1, min(MAX_ROUNDS, round(seconds / nominal)))


def write_inputs(jobs, workdir):
    for i, job in enumerate(jobs):
        job.path = workdir / f"{i}_{job.shape}.json"
        gen.write_input(job.path, gen.framed_input(job.shape, job.U, job.Uinv))


def setup_times(reps):
    """Wall times of ``import fracmirror.cli`` in ``reps`` fresh interpreters."""
    times = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_job(cli, run, reference, job):
    """Run one job through ``run``; returns (job, seconds, output bytes, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    config = cli.JobConfig(command=job.command, input=str(job.path), N=job.N, fmt="json")
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run(config)
    except Exception as exc:  # a crashing job is a failed job, not a failed run
        return job, perf_counter() - t0, 0, f"raised {exc!r}"
    dt = perf_counter() - t0
    stdout = out.getvalue()
    try:
        check.check_job(reference, job, rc, stdout)
    except check.CheckError as exc:
        return job, dt, len(stdout), f"{exc}: {err.getvalue().strip()[:200]}"
    return job, dt, len(stdout), None


def execute(rounds, workdir, run_one, after_round=None):
    """Run every round; returns one list of records per round.

    ``run_one(job)`` returns a list of records; ``after_round()`` runs after
    each round.
    """
    done = []
    for jobs in rounds:
        write_inputs(jobs, workdir)
        records = []
        for job in jobs:
            records += run_one(job)
        done.append(records)
        if after_round is not None:
            after_round()
    return done


def fastest(records):
    """(command, shape, N) -> the job's fastest time over the rounds."""
    best = {}
    for job, dt, _, _ in records:
        key = (job.command, job.shape, job.N)
        best[key] = min(dt, best.get(key, dt))
    return best


def tail(times):
    """(value, percentile): the highest percentile with >= 10 jobs beyond it."""
    ordered = sorted(times)
    k = len(ordered) - 11
    if k < 0:  # too few jobs for any such percentile; fall back to the median
        return statistics.median(ordered), 50.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def calibration_s():
    """Fastest of three timings of a fixed sum of Fractions.

    Like the series layer, the kernel is interpreted bigint arithmetic, and it
    imports nothing from the program, so a change to the program cannot move it.
    """
    times = []
    for _ in range(3):
        t0 = perf_counter()
        total = Fraction(0)
        for k in range(1, CAL_TERMS):
            total += Fraction(1, k * k)
        times.append(perf_counter() - t0)
    return min(times)


def job_metrics(records):
    """(job_p50_s, job_tail_s, tail percentile, jobs_per_s) over each job's fastest round.

    jobs_per_s counts correct jobs per second of one round at those times.
    """
    failed_keys = {(j.command, j.shape, j.N) for j, _, _, e in records if e}
    best = fastest(records)
    times = sorted(best.values())
    tail_s, tail_pct = tail(times)
    return statistics.median(times), tail_s, tail_pct, (len(best) - len(failed_keys)) / sum(times)


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit():
    """HEAD of the repository at ROOT, or None when ROOT is not a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(seed, accel):
    import numpy

    return {
        "commit": commit(),
        "src_sha256": source_digest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": accel.backend_name(),
        "numba_available": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_pinned": {v: os.environ[v] for v in THREAD_VARS},
    }


def summary(records):
    times = [dt for _, dt, _, _ in records]
    failed = [(f"{j.command} {j.shape} N={j.N}", e) for j, _, _, e in records if e]
    return times, failed


def end_to_end(cli, reference, rounds, workdir):
    setup, wall = [], []

    def calibrated(job):
        before = calibration_s()
        record = run_job(cli, cli.run, reference, job)
        scale = 2 * CAL_REF_S / (before + calibration_s())
        wall.append(record)
        return [(job, record[1] * scale, *record[2:])]

    done = execute(
        rounds, workdir, calibrated, lambda: setup.extend(setup_times(SETUP_PER_ROUND))
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    records = [rec for recs in done for rec in recs]
    _, failed = summary(records)
    p50, tail_s, tail_pct, jobs_per_s = job_metrics(records)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "job_p50_s": (p50, "s"),
        "job_tail_s": (tail_s, "s"),
        "jobs_per_s": (jobs_per_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    wall_p50, wall_tail, _, wall_jobs_per_s = job_metrics(wall)
    details = {
        "rounds": len(done),
        "jobs": len(records) // len(done),
        "job_tail_percentile": tail_pct,
        "failed_ratio": {"value": len(failed) / len(records), "unit": "ratio"},
        "failures": failed[:20],
        "setup_samples": len(setup),
        "wall_over_reference": statistics.median(w[1] / r[1] for w, r in zip(wall, records)),
        "wall": {"job_p50_s": wall_p50, "job_tail_s": wall_tail, "jobs_per_s": wall_jobs_per_s},
    }
    return records, failed, metrics, details


def per_layer(cli, reference, rounds, workdir):
    """Each job twice, without and with spans, alternating which goes first.

    Back-to-back pairs cancel slow drift in machine speed, so the difference
    of the two passes is the tracing overhead.  Counts are per round, so they
    do not depend on ``--seconds``.
    """
    import spans

    tracer = spans.Tracer()
    traced_run = tracer.span("cli.run", cli.run)
    # command -> [jobs, euler_double_cover calls, mirror_map calls]
    per_command = {}

    def traced(job):
        before = (tracer.calls["topology.euler_double_cover"], tracer.calls["mirror.mirror_map"])
        undo = spans.install(tracer)
        try:
            record = run_job(cli, traced_run, reference, job)
        finally:
            undo()
        tracer.bump("cli.output_bytes", record[2])
        counts = per_command.setdefault(job.command, [0, 0, 0])
        counts[0] += 1
        counts[1] += tracer.calls["topology.euler_double_cover"] - before[0]
        counts[2] += tracer.calls["mirror.mirror_map"] - before[1]
        return record

    traced_first = itertools.cycle((False, True))

    def pair(job):
        if next(traced_first):
            with_spans = traced(job)
            plain = run_job(cli, cli.run, reference, job)
        else:
            plain = run_job(cli, cli.run, reference, job)
            with_spans = traced(job)
        return [plain, with_spans]

    done = execute(rounds, workdir, pair)
    n = len(done)
    records = [rec for recs in done for rec in recs]
    plain, with_spans = records[0::2], records[1::2]
    times_plain, _ = summary(plain)
    times_traced, _ = summary(with_spans)
    _, failed = summary(records)
    busy = sum(times_traced)

    def per_job(command, idx):
        n, *calls = per_command.get(command, (0, 0, 0))
        return calls[idx] / n if n else 0.0

    metrics = {}
    for name in spans.SPANS:
        metrics[f"{name}.calls"] = (tracer.calls[name] / n, "count")
        metrics[f"{name}.self_pct"] = (100.0 * tracer.self_s[name] / busy, "%")
        metrics[f"{name}.total_pct"] = (100.0 * tracer.total_s[name] / busy, "%")
    c = tracer.counters
    box = c["accel.count_points.box_points"]
    metrics.update({
        "polytope.normalized_volume.dilation_scans": (c["polytope.normalized_volume.dilation_scans"] / n, "count"),
        "accel.count_points.box_points": (box / n, "count"),
        "accel.count_points.points": (c["accel.count_points.points"] / n, "count"),
        "accel.count_points.fill": (c["accel.count_points.points"] / box if box else 0.0, "ratio"),
        "accel.enumerate_points.box_points": (c["accel.enumerate_points.box_points"] / n, "count"),
        "accel.bigint_calls": (c["accel.bigint_calls"] / n, "count"),
        "series.max_coeff_bits": (c["series.max_coeff_bits"], "bits"),
        "cli.output_bytes_per_job": (c["cli.output_bytes"] / len(with_spans), "bytes"),
        "topology.euler_double_cover.calls_per_all_job": (per_job("all", 0), "count"),
        "mirror.mirror_map.calls_per_all_job": (per_job("all", 1), "count"),
        "trace.overhead_pct": (100.0 * (busy / sum(times_plain) - 1.0), "%"),
    })
    details = {
        "rounds": n,
        "jobs": len(with_spans) // n,
        "spans": {
            name: {
                "calls": tracer.calls[name],
                "self_s": tracer.self_s[name],
                "total_s": tracer.total_s[name],
            }
            for name in spans.SPANS
        },
        "calls_per_job": {
            k: {"jobs": n, "euler_double_cover": e / n, "mirror_map": m / n}
            for k, (n, e, m) in sorted(per_command.items())
        },
        "jobs_per_s_untraced": len(plain) / sum(times_plain),
        "jobs_per_s_traced": len(with_spans) / busy,
        "failures": failed[:20],
    }
    return records, failed, metrics, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        from fracmirror import _accel, cli
    except ImportError as exc:
        print(f"error: cannot import fracmirror from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(cli.__file__).resolve().parents[1] != SRC.resolve():
        print(f"error: fracmirror was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    try:
        reference = check.load_reference()
    except (OSError, ValueError) as exc:
        print(f"error: cannot load the reference table: {exc}", file=sys.stderr)
        return 2

    rounds = plan(args.workload, args.seed)[: rounds_for(args.workload, args.seconds, args.trace)]
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        # One untimed job first, so lazy set-up inside NumPy is not billed to a job.
        warm = Job("p2_3", "dual-nef", 10, gen.identity(2), gen.identity(2), workdir / "warm.json")
        gen.write_input(warm.path, gen.framed_input(warm.shape, warm.U, warm.Uinv))
        run_job(cli, cli.run, reference, warm)
        measure = per_layer if args.trace else end_to_end
        records, failed, metrics, details = measure(cli, reference, rounds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    details.update(workload=args.workload, trace=args.trace, provenance=provenance(args.seed, _accel))
    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
