"""A corpus of malformed inputs: every command fails cleanly or succeeds.

Seeded mutations of the bundled inputs, the hexagon and ``p4_311`` run
through all ten commands in both formats at N = 4, in-process.  The
mutations are a flat, a one-point and a zero-dimensional delta, a bad or
negative ``"dim"``, an empty part, an out-of-range part index, a float,
bool, string or huge coordinate, index or dim, an added or a removed
vertex, and a document that is no nef-partition object.  The product
Delta_8 x [-1, 1] of ``OVER_BUDGET`` is accepted, but the lattice-point
scan of its nabla* is stopped at its step budget (exit 3).  Every run must
exit 0, 2 or 3 without an escaping exception, write stderr starting with
``error:`` when it fails, and finish within ``BOUND_S``.  The exit codes
are counted and the accepted inputs named, so a mutation that starts or
stops being accepted shows.  The files of ``UNDECODABLE``, which no
``json.dump`` writes, run with the corpus.
"""

import json
import random
import sys
import time
from collections import Counter

from conftest import DATA, GEN, REPO, run_job

from fracmirror.cli import _DISPATCH

SEED = 2026
BOUND_S = 0.5
BASES = (
    DATA / "p2_k3.json",
    DATA / "p3_quartic.json",
    DATA / "p3_eight_hyperplanes.json",
    REPO / "tests" / "golden" / "hexagon.json",
    REPO / "tests" / "golden" / "p4_311.json",
)


def _flat(doc, rng):
    doc["delta"]["vertices"] = [v[:-1] + [0] for v in doc["delta"]["vertices"]]


def _one_point(doc, rng):
    doc["delta"]["vertices"] = [rng.choice(doc["delta"]["vertices"])]


def _zero_dimensional(doc, rng):
    doc["delta"] = {"dim": 0, "vertices": [[]]}


def _bad_dim(doc, rng):
    D = doc["delta"]["dim"]
    doc["delta"]["dim"] = rng.choice([D - 1, D + 1, 0, -1, -D, 10**30])


def _empty_part(doc, rng):
    parts = doc["parts"]
    if rng.random() < 0.3:
        parts.clear()
    else:
        parts.insert(rng.randint(0, len(parts)), [])


def _out_of_range_index(doc, rng):
    part = rng.choice(doc["parts"])
    part[rng.randrange(len(part))] = rng.choice([-1, 12, 99, 10**30])


def _bad_scalar(doc, rng):
    value = rng.choice([0.5, 1.0, True, False, "1", None, 10**30])
    where = rng.randrange(3)
    if where == 0:
        vertex = rng.choice(doc["delta"]["vertices"])
        vertex[rng.randrange(len(vertex))] = value
    elif where == 1:
        part = rng.choice(doc["parts"])
        part[rng.randrange(len(part))] = value
    else:
        doc["delta"]["dim"] = value


def _added_vertex(doc, rng):
    D = doc["delta"]["dim"]
    doc["delta"]["vertices"].append([rng.randint(-3, 3) for _ in range(D)])


def _removed_vertex(doc, rng):
    vertices = doc["delta"]["vertices"]
    vertices.pop(rng.randrange(len(vertices)))


def _not_an_object(doc, rng):
    return rng.choice([[doc], "delta", 3, None, {"delta": doc["delta"]}, {"parts": doc["parts"]}])


# files no json.dump writes: bytes that are not UTF-8, arrays nested past
# the recursion limit, and an integer literal one digit longer than CPython
# converts to an int
UNDECODABLE = {
    "not_utf8": b'{"delta": "\xff"}',
    "too_deep": b"[" * (sys.getrecursionlimit() + 100) + b"]" * (sys.getrecursionlimit() + 100),
    "long_int": b'{"delta": {"dim": 1' + b"0" * sys.get_int_max_str_digits() + b"}}",
}

def _simplex_times_segment(n):
    """Delta_n x [-1, 1] in the identity frame, partitioned by factor: the
    rays (w, 0), w a ray of Delta_n, in one part and (0, +-1) in the other."""
    rays = sorted([(*w, 0) for w in GEN.dual_vertices(n)] + [(0,) * n + (s,) for s in (1, -1)])
    segment = [i for i, ray in enumerate(rays) if not any(ray[:n])]
    return {
        "delta": {"dim": n + 1, "vertices": [[*v, s] for v in GEN.simplex_vertices(n) for s in (1, -1)]},
        "parts": [[i for i in range(len(rays)) if i not in segment], segment],
    }


# Delta_8 x [-1, 1], partitioned by factor: not a simplex, so nabla* is
# scanned, and the scan passes _accel.SCAN_BUDGET, so euler and hodge exit 3
# where the scan would not end; all and the series commands exit 3 on its
# multiparameter moduli
OVER_BUDGET = {"simplex_8_x_segment": _simplex_times_segment(8)}

MUTATIONS = (
    _flat, _one_point, _zero_dimensional, _bad_dim, _empty_part, _out_of_range_index,
    _bad_scalar, _added_vertex, _removed_vertex, _not_an_object,
)


def corpus():
    """(label, document) of each mutation of each base input, seeded."""
    rng = random.Random(SEED)
    docs = []
    for path in BASES:
        base = json.loads(path.read_text())
        for mutate in MUTATIONS:
            doc = json.loads(json.dumps(base))
            doc = mutate(doc, rng) or doc
            docs.append((f"{path.stem}{mutate.__name__}", doc))
    return docs


def test_every_command_fails_cleanly_on_the_mutated_inputs(tmp_path):
    codes, accepted, slowest = Counter(), set(), (0.0, "", "", "")
    for label, doc in corpus() + list(UNDECODABLE.items()) + list(OVER_BUDGET.items()):
        path = tmp_path / f"{label}.json"
        path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        for command in _DISPATCH:
            for fmt in ("json", "table"):
                start = time.perf_counter()
                code, out, err = run_job(command, path, fmt=fmt)
                slowest = max(slowest, (time.perf_counter() - start, label, command, fmt))
                run = (label, command, fmt, code, err)
                assert code in (0, 2, 3), run
                assert "Traceback" not in out + err, run
                if code:
                    assert err.startswith("error:") and not out, run
                else:
                    accepted.add(label)
                codes[code] += 1
    assert slowest[0] < BOUND_S, slowest
    # the point added to the eight-hyperplane delta, (1, -1, -1), lies on an edge
    assert accepted == {"p3_eight_hyperplanes_added_vertex", "simplex_8_x_segment"}
    assert codes == {0: 24, 2: 1040, 3: 16}

