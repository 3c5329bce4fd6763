"""Golden CLI outputs: stdout, stderr and exit code, compared byte for byte.

Every command runs on the three bundled inputs at N = 10 with
``--format json``, and in table format on the quartic.  Six series runs
are also made at N = 32, where the coefficients run to hundreds of bits:
``yukawa`` and ``ifunction`` on the quartic, ``mirror-map``, ``bseries`` and
``ifunction`` on the eight hyperplanes (four paired weights), and
``mirror-map`` on the K3 (scale 64, not a threefold).  The 3-part hexagon
(``tests/golden/hexagon.json``), the one input here that is not a simplex,
runs ``gkz`` (its rank-4 kernel, in both formats), ``dual-nef``, ``euler``
and ``mirror-map``, which it refuses with exit 3.  The P4 simplex with
parts (3, 1, 1) in the identity frame (``tests/golden/p4_311.json``, from
``perfbench/gen.py::framed_input``) is the one fourfold: its ``bseries``
(m = 5 slices) and ``ifunction`` (m = 6) run at N = 16 in JSON, and
``bseries`` at N = 10 as a table.  ``dual-nef`` also runs in both formats
on seven more partitions of the hexagon (``tests/golden/hexagon_*.json``):
six with one part whose nabla_k holds two opposite rays, so the origin is
no vertex of it, and the one-part partition, whose nabla_1 is Delta*.  The
recorded outputs live in ``tests/golden/``: one ``.out`` file of stdout per
case and ``status.json`` with each case's exit code and stderr.  A refactor must
reproduce them exactly.  After a change that is meant to alter output,
rewrite them with ``PYTHONPATH=src python tests/test_golden.py`` and review
the diff.
"""

import json

import pytest
from conftest import REPO, run_job

from fracmirror.cli import _DISPATCH

GOLDEN = REPO / "tests" / "golden"
STATUS = GOLDEN / "status.json"
SHAPES = ("p2_k3", "p3_quartic", "p3_eight_hyperplanes")
N = 10

CASES = [(shape, command, "json", N) for shape in SHAPES for command in _DISPATCH] + [
    ("p3_quartic", command, "table", N) for command in _DISPATCH
]
LARGE_N_CASES = [
    ("p3_quartic", "yukawa", "json", 32),
    ("p3_eight_hyperplanes", "mirror-map", "json", 32),
    ("p3_eight_hyperplanes", "bseries", "json", 32),
    ("p3_quartic", "ifunction", "json", 32),
    ("p3_eight_hyperplanes", "ifunction", "json", 32),
    ("p2_k3", "mirror-map", "json", 32),
]
HEXAGON_CASES = [
    ("hexagon", command, "json", N) for command in ("gkz", "dual-nef", "euler", "mirror-map")
] + [("hexagon", "gkz", "table", N)]
FOURFOLD_CASES = [
    ("p4_311", "bseries", "json", 16),
    ("p4_311", "ifunction", "json", 16),
    ("p4_311", "bseries", "table", N),
]
# each name lists the parts, e.g. hexagon_01_2345 is [[0, 1], [2, 3, 4, 5]]
HEXAGON_PARTITIONS = (
    "hexagon_01_2345",
    "hexagon_02_1345",
    "hexagon_0123_45",
    "hexagon_13_0245",
    "hexagon_0124_35",
    "hexagon_24_0135",
    "hexagon_012345",
)
HEXAGON_PARTITION_CASES = [
    (shape, "dual-nef", fmt, N) for shape in HEXAGON_PARTITIONS for fmt in ("json", "table")
]
ALL_CASES = CASES + LARGE_N_CASES + HEXAGON_CASES + FOURFOLD_CASES + HEXAGON_PARTITION_CASES


def case_name(shape, command, fmt, order):
    return f"{shape}.{command}.{fmt}" if order == N else f"{shape}.{command}.N{order}.{fmt}"


def run_case(shape, command, fmt, order):
    """(exit code, stdout, stderr) of one CLI call, on ``data/<shape>.json``
    or, for an input that is not bundled, ``tests/golden/<shape>.json``."""
    path = GOLDEN / f"{shape}.json"
    if not path.exists():
        path = REPO / "data" / f"{shape}.json"
    return run_job(command, path, order, fmt)


@pytest.mark.parametrize("case", ALL_CASES, ids=[case_name(*c) for c in ALL_CASES])
def test_cli_matches_golden(case):
    name = case_name(*case)
    expected = json.loads(STATUS.read_text(encoding="utf-8"))[name]
    code, out, err = run_case(*case)
    assert (code, err) == (expected["exit"], expected["stderr"])
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


def write_goldens():
    GOLDEN.mkdir(exist_ok=True)
    status = {}
    for case in ALL_CASES:
        name = case_name(*case)
        code, out, err = run_case(*case)
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
        status[name] = {"exit": code, "stderr": err}
    STATUS.write_text(json.dumps(status, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_goldens()
