"""Tests of the benchmark's input generator and output checker.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import random
import re
import sys

import pytest

import check
import gen
import run

sys.path.insert(0, str(run.SRC))

from fracmirror import cli  # noqa: E402
from fracmirror.nefpart import validate_nef_partition  # noqa: E402
from fracmirror.polytope import LatticePolytope  # noqa: E402

REFERENCE = check.load_reference()


def job_in_frame(tmp_path, shape, command, N, shears, seed):
    n = gen.SHAPES[shape][0]
    if shears:
        [(U, Uinv)] = gen.job_frames(shape, command, N, shears, 1, random.Random(seed))
    else:
        U = Uinv = gen.identity(n)
    job = run.Job(shape, command, N, U, Uinv, tmp_path / f"{shape}-{seed}.json")
    gen.write_input(job.path, gen.framed_input(shape, U, Uinv))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.run(cli.JobConfig(command=command, input=str(job.path), N=N, fmt="json"))
    return job, rc, out.getvalue()


@pytest.mark.parametrize("name,shape", sorted(gen.BUNDLED.items()))
def test_bundled_inputs_come_out_of_the_generator(name, shape):
    with open(run.ROOT / "data" / f"{name}.json", encoding="utf-8") as fh:
        bundled = json.load(fh)
    n = gen.SHAPES[shape][0]
    assert gen.framed_input(shape, gen.identity(n), gen.identity(n)) == bundled


@pytest.mark.parametrize("shape", sorted(gen.SHAPES))
def test_framed_parts_pass_validation(shape):
    rng = random.Random(shape)
    for shears in (1, 3, 5):
        U, Uinv = gen.random_frame(gen.SHAPES[shape][0], shears, rng)
        assert gen.matmul(U, Uinv) == gen.identity(len(U))
        doc = gen.framed_input(shape, U, Uinv)
        delta = LatticePolytope(doc["delta"]["vertices"])
        parts = tuple(tuple(p) for p in doc["parts"])
        assert validate_nef_partition(delta, parts) == []


@pytest.mark.parametrize("shape", ["p2_21", "p3_31", "p3_211"])
@pytest.mark.parametrize("command", ["dual-nef", "euler", "hodge", "all"])
def test_framed_input_reproduces_identity_invariants(tmp_path, shape, command):
    base, rc0, out0 = job_in_frame(tmp_path, shape, command, 10, 0, 0)
    framed, rc1, out1 = job_in_frame(tmp_path, shape, command, 10, 3, 7)
    assert framed.U != base.U and rc0 == rc1 == 0
    assert out0 != out1 or command in ("euler", "hodge")
    canon0 = check.canonical(command, json.loads(out0), base.U, base.Uinv)
    canon1 = check.canonical(command, json.loads(out1), framed.U, framed.Uinv)
    assert canon0 == canon1
    check.check_job(REFERENCE, framed, rc1, out1)


def test_plan_is_seeded_and_never_repeats_an_input():
    for workload in run.WORKLOADS:
        rounds = [[(j.shape, j.command, j.N, j.U) for j in jobs] for jobs in run.plan(workload, 3)]
        assert rounds == [[(j.shape, j.command, j.N, j.U) for j in jobs] for jobs in run.plan(workload, 3)]
        assert rounds != [[(j.shape, j.command, j.N, j.U) for j in jobs] for jobs in run.plan(workload, 4)]
        assert len(rounds) == run.MAX_ROUNDS
        keys = sorted((c, s, N) for s, c, N, _ in rounds[0])
        assert len(keys) == len(set(keys)) >= 40
        assert all(sorted((c, s, N) for s, c, N, _ in jobs) == keys for jobs in rounds)
        inputs = [(s, c, N, U) for jobs in rounds for s, c, N, U in jobs]
        assert len(inputs) == len(set(inputs))
        assert all(check.ref_key(s, c, N) in REFERENCE for c, s, N in keys)


def box_widths(doc):
    coords = zip(*doc["delta"]["vertices"])
    return sorted(max(c) - min(c) for c in coords)


@pytest.mark.parametrize("shape", ["p2_21", "p4_32"])
def test_a_jobs_frames_share_its_bounding_box(shape):
    frames = gen.job_frames(shape, "euler", 10, run.SHEARS, run.MAX_ROUNDS, random.Random(1))
    docs = [gen.framed_input(shape, U, Uinv) for U, Uinv in frames]
    assert all(gen.matmul(U, Uinv) == gen.identity(len(U)) for U, Uinv in frames)
    assert len({json.dumps(d) for d in docs}) == run.MAX_ROUNDS
    assert len({tuple(box_widths(d)) for d in docs}) == 1


def test_seconds_set_a_fixed_number_of_whole_rounds(tmp_path):
    for workload in run.WORKLOADS:
        assert run.rounds_for(workload, 1, 0) == run.rounds_for(workload, 1, 1) == 1
        assert run.rounds_for(workload, 3600, 0) == run.MAX_ROUNDS
        assert run.rounds_for(workload, 30, 1) < run.rounds_for(workload, 30, 0)
    rounds = run.plan("cohom", 1)[:2]
    assert run.execute(rounds, tmp_path, lambda job: [job]) == rounds


def test_job_metrics_take_each_jobs_fastest_round():
    jobs = [run.Job(f"s{i}", "euler", 10, None, None) for i in range(40)]
    records = [(j, 1.0 + i, 0, None) for i, j in enumerate(jobs)]
    records += [(j, 0.5 * (1.0 + i), 0, None) for i, j in enumerate(jobs)]
    p50, tail_s, tail_pct, jobs_per_s = run.job_metrics(records)
    assert (p50, tail_s, tail_pct) == (10.25, 15.0, 75.0)
    assert jobs_per_s == 40 / sum(0.5 * (1.0 + i) for i in range(40))
    records[0] = (jobs[0], 1.0, 0, "wrong output")
    assert run.job_metrics(records)[3] == 39 / sum(0.5 * (1.0 + i) for i in range(40))


def test_benchmark_metric_names_are_well_formed():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)


def corrupt_first_digit(text):
    i = next(i for i, ch in enumerate(text) if ch in "123456789")
    return text[:i] + str(int(text[i]) % 9 + 1) + text[i + 1:]


@pytest.mark.parametrize("command", ["dual-nef", "all"])
def test_checker_rejects_a_corrupted_output(tmp_path, command):
    job, rc, out = job_in_frame(tmp_path, "p3_22", command, 10, 2, 11)
    check.check_job(REFERENCE, job, rc, out)
    bad = [
        corrupt_first_digit(out),
        out.replace("-", "", 1),
        out[: len(out) // 2],
    ]
    for text in bad:
        with pytest.raises(check.CheckError):
            check.check_job(REFERENCE, job, rc, text)
    with pytest.raises(check.CheckError):
        check.check_job(REFERENCE, job, 3, out)


def test_quartic_outputs_match_reference_and_oracles(tmp_path):
    for command in ("yukawa", "mirror-map", "ifunction"):
        job, rc, out = job_in_frame(tmp_path, "p3_4", command, 16, 2, 5)
        check.check_job(REFERENCE, job, rc, out)
        assert check.oracle_failures("p3_4", command, 16, json.loads(out), 3) == []


def test_oracles_catch_wrong_values():
    # the quintic: K(q) = 5 + 2875 q + 4876875 q^2 + ..., n_1 = 2875, n_2 = 609250
    assert check.instanton_numbers([5, 2875, 4876875], 5) == [2875, 609250]
    assert check.instanton_numbers([5, 2875, 4876876], 5) is None
    wrong_chi = {
        "chi_Y": -60, "chi_Y_dual": 58,
        "hodge": {"h": {"1,1": 1, "2,1": 31}}, "hodge_dual": {"h": {"1,1": 30, "2,1": 1}},
    }
    assert len(check.oracle_failures("p3_4", "euler", 10, wrong_chi, 3)) == 3
    zq = {"z_of_q": {"coeffs": ["0", "256", "1/2"]}}
    assert check.oracle_failures("p3_4", "mirror-map", 10, zq, 3)
