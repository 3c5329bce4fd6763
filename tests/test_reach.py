"""Every function in ``src/fracmirror`` runs under some command, or is listed.

The package's job is its ten CLI commands.  This runs each of them, in both
formats, at N = 4, on the three bundled inputs, the 3-part hexagon, the P4
simplex with parts (3, 1, 1) and a rejected partition of the hexagon, and
records every Python call with ``sys.setprofile``.  The functions that never
ran must be exactly ``UNREACHED``, each with the reason it stays: a function
leaves the list when it is deleted or a command starts to call it.
"""

import contextlib
import functools
import importlib
import inspect
import io
import json
import pkgutil
import sys
from pathlib import Path

from conftest import DATA, REPO

import fracmirror
from fracmirror import cli

PACKAGE = Path(fracmirror.__file__).resolve().parent

_PATCHED = "perfbench/spans.py patches it by name (ROADMAP item 5)"

UNREACHED = {
    "_accel.backend_name": "perfbench/run.py records the name of the scan's arithmetic",
    "_accel.count_points": _PATCHED,
    "gkz.holo_solution": _PATCHED,
    "mirror.YukawaData.__eq__": "value equality; without it a test's == compares identity",
    "nefpart.validate_nef_partition": "perfbench/test_perfbench.py checks its inputs with it",
    "picard_fuchs.ThetaOperator.__eq__": "value equality; without it a test's == compares identity",
    "polytope.LatticePolytope.__eq__": "value equality; without it a test's == compares identity",
    "polytope.LatticePolytope.__hash__": "the hash that goes with __eq__",
    "polytope.LatticePolytope.dilate_lattice_point_count": _PATCHED,
    "series.RationalSeries.__eq__": "value equality; without it a test's == compares identity",
    "series.RationalSeries.__hash__": "the hash that goes with __eq__",
    "series.RationalSeries.__init__": "the constructor that validates its values; commands use _make",
    "series.RationalSeries.__setattr__": "the guard that keeps a series immutable",
    "series.RationalSeries.antitheta": "the last step of log, which perfbench/spans.py patches",
    "series.RationalSeries.compose": _PATCHED,
    "series.RationalSeries.log": _PATCHED,
    "series.RationalSeries.ring": "perfbench/spans.py labels a series span by it (ROADMAP item 5)",
}

# the hexagon, [[0, 1], [2, 3], [4, 5]]: its Delta_i do not sum to Delta
REJECTED = {
    "delta": {"dim": 2, "vertices": [[1, 0], [0, 1], [-1, 0], [0, -1], [1, -1], [-1, 1]]},
    "parts": [[0, 1], [2, 3], [4, 5]],
}


def _functions():
    """{code object: "module.qualname"} of every function and method defined
    in the package's modules, properties and cached properties included."""
    found = {}
    for info in pkgutil.iter_modules(fracmirror.__path__):
        module = importlib.import_module(f"fracmirror.{info.name}")
        members = []
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members.append(obj)
            if inspect.isclass(obj):
                members.extend(vars(obj).values())
        for obj in members:
            if isinstance(obj, (staticmethod, classmethod)):
                obj = obj.__func__
            elif isinstance(obj, property):
                obj = obj.fget
            elif isinstance(obj, functools.cached_property):
                obj = obj.func
            code = getattr(obj, "__code__", None)
            if code is not None and Path(code.co_filename).resolve().parent == PACKAGE:
                found[code] = f"{info.name}.{obj.__qualname__}"
    return found


def test_every_function_but_the_listed_ones_runs_under_a_command(tmp_path):
    rejected = tmp_path / "rejected.json"
    rejected.write_text(json.dumps(REJECTED))
    golden = REPO / "tests" / "golden"
    inputs = {
        "p2_k3": ({0}, DATA / "p2_k3.json"),
        "p3_quartic": ({0}, DATA / "p3_quartic.json"),
        "p3_eight_hyperplanes": ({0}, DATA / "p3_eight_hyperplanes.json"),
        "p4_311": ({0}, golden / "p4_311.json"),
        "hexagon": ({0, 3}, golden / "hexagon.json"),
        "rejected": ({2}, rejected),
    }
    seen = set()

    def record(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    codes = {label: set() for label in inputs}
    out = io.StringIO()
    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        for label, (_, path) in inputs.items():
            for command in cli._DISPATCH:
                for fmt in ("json", "table"):
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                        codes[label].add(cli.main([command, str(path), "-N", "4", "--format", fmt]))
    finally:
        sys.setprofile(previous)
    assert codes == {label: expected for label, (expected, _) in inputs.items()}
    functions = _functions()
    assert len(functions) > 100
    unreached = sorted(name for code, name in functions.items() if code not in seen)
    assert unreached == sorted(UNREACHED)
    assert all(UNREACHED.values())
