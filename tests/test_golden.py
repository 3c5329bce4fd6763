"""Golden CLI outputs: stdout, stderr and exit code, compared byte for byte.

Every command runs on the three bundled inputs at N = 10 with
``--format json``, and in table format on the quartic.  The recorded
outputs live in ``tests/golden/``: one ``.out`` file of stdout per case and
``status.json`` with each case's exit code and stderr.  A refactor must
reproduce them exactly.  After a change that is meant to alter output,
rewrite them with ``PYTHONPATH=src python tests/test_golden.py`` and review
the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from fracmirror.cli import _COMMANDS, main

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"
STATUS = GOLDEN / "status.json"
SHAPES = ("p2_k3", "p3_quartic", "p3_eight_hyperplanes")
N = 10

CASES = [(shape, command, "json") for shape in SHAPES for command in _COMMANDS] + [
    ("p3_quartic", command, "table") for command in _COMMANDS
]


def case_name(shape, command, fmt):
    return f"{shape}.{command}.{fmt}"


def run_case(shape, command, fmt):
    """(exit code, stdout, stderr) of one CLI call."""
    argv = [command, str(REPO / "data" / f"{shape}.json"), "-N", str(N), "--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", CASES, ids=[case_name(*c) for c in CASES])
def test_cli_matches_golden(case):
    name = case_name(*case)
    expected = json.loads(STATUS.read_text(encoding="utf-8"))[name]
    code, out, err = run_case(*case)
    assert (code, err) == (expected["exit"], expected["stderr"])
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


def write_goldens():
    GOLDEN.mkdir(exist_ok=True)
    status = {}
    for case in CASES:
        name = case_name(*case)
        code, out, err = run_case(*case)
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
        status[name] = {"exit": code, "stderr": err}
    STATUS.write_text(json.dumps(status, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_goldens()
