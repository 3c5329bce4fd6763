"""Regenerate reference.json from the program at the current commit.

Runs every (shape, command, N) that a workload can draw in the identity
frame, checks each output against the independent oracles in check.py and
across commands (the B-series' eps^0 and eps^1 slices are omega0 and tau of
the mirror map), and writes the digests.  It refuses to write a table that
fails an oracle.  Run from the repository root::

    python3 perfbench/make_reference.py
"""

import contextlib
import io
import json
import sys
from fractions import Fraction

import check
import gen
from run import SRC, WORKLOADS


def cases():
    out = set()
    for classes in WORKLOADS.values():
        for command, N, shapes in classes:
            out.update((shape, command, N) for shape in shapes)
    return sorted(out)


def run_identity(cli, path, shape, command, N):
    n = gen.SHAPES[shape][0]
    gen.write_input(path, gen.framed_input(shape, gen.identity(n), gen.identity(n)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.run(cli.JobConfig(command=command, input=str(path), N=N, fmt="json"))
    if rc != 0:
        raise SystemExit(f"{shape} {command} N={N}: exit code {rc}")
    return json.loads(out.getvalue())


def cross_failures(payloads):
    bad = []
    for (shape, command, N), p in payloads.items():
        mm = payloads.get((shape, "mirror-map", N))
        if command != "bseries" or mm is None:
            continue
        part0 = p["b_series"]["parts"][0]["coeffs"]
        for k, name in ((0, "omega0"), (1, "tau")):
            if [Fraction(row[k]) for row in part0] != [Fraction(c) for c in mm[name]["coeffs"]]:
                bad.append(f"{shape} N={N}: B-series eps^{k} slice != {name}")
    return bad


def main():
    sys.path.insert(0, str(SRC))
    from fracmirror import cli

    path = check.REFERENCE.with_name("reference_input.json")
    payloads, table, bad = {}, {}, []
    try:
        for shape, command, N in cases():
            p = run_identity(cli, path, shape, command, N)
            payloads[(shape, command, N)] = p
            n = gen.SHAPES[shape][0]
            bad += [f"{shape} {command} N={N}: {m}" for m in check.oracle_failures(shape, command, N, p, n)]
            table[check.ref_key(shape, command, N)] = check.digest(
                check.canonical(command, p, gen.identity(n), gen.identity(n))
            )
            print(f"{shape} {command} N={N}", file=sys.stderr, flush=True)
    finally:
        path.unlink(missing_ok=True)
    bad += cross_failures(payloads)
    if bad:
        raise SystemExit("oracle failures:\n" + "\n".join(bad))
    with open(check.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
