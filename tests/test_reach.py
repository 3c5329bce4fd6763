"""Every statement in ``src/fracmirror`` runs under some input, or is listed.

The package's job is its ten CLI commands.  This runs each of them, in both
formats, at N = 4, on ``INPUTS``: the three bundled inputs, the 3-part
hexagon, the P4 simplex with parts (3, 1, 1) and the P(1,1,2) surface.  It
then runs one command on each malformed document of ``REJECTED`` and the
command lines of ``ARGS``, and records the lines that run with
``sys.settrace``.  A statement ran when a line of its own ran: the header
of a compound statement, any line of a simple one.  The statements of
function bodies that never ran, docstrings aside, must be exactly
``UNRUN``: (``module.qualname``, the statement's first line, stripped, the
reason it stays).  An entry leaves the list when its statement is deleted
or an input starts to run it.
"""

import ast
import contextlib
import importlib
import io
import json
import os
import pkgutil
import sys
from collections import Counter
from pathlib import Path

from conftest import DATA, REPO
from test_rejected_inputs import OVER_BUDGET, UNDECODABLE

import fracmirror
from fracmirror import cli

GOLDEN = REPO / "tests" / "golden"
QUARTIC = json.loads((DATA / "p3_quartic.json").read_text())
HEXAGON = [[1, 0], [0, 1], [-1, 0], [0, -1], [1, -1], [-1, 1]]
OCTAHEDRON = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]


def _quartic(parts=None, **delta):
    return {"delta": dict(QUARTIC["delta"], **delta), "parts": QUARTIC["parts"] if parts is None else parts}


# label: (exit codes over the ten commands in both formats, input)
INPUTS = {
    "p2_k3": ({0}, DATA / "p2_k3.json"),
    "p3_quartic": ({0}, DATA / "p3_quartic.json"),
    "p3_eight_hyperplanes": ({0}, DATA / "p3_eight_hyperplanes.json"),
    "p4_311": ({0}, GOLDEN / "p4_311.json"),
    "hexagon": ({0, 3}, GOLDEN / "hexagon.json"),
    # one part: a degree-4 operator with a root theta = 1/2 in F, and a
    # Yukawa ODE with a residue at z = 0 (exit 3)
    "p112": ({0, 3}, {"delta": {"dim": 2, "vertices": [[-1, -1], [-1, 1], [3, -1]]}, "parts": [[0, 1, 2]]}),
}

# one document per diagnostic of a malformed input, each refused (exit 2)
# while it loads, before any command runs
REJECTED = {
    # the Delta_i of the hexagon's [[0, 1], [2, 3], [4, 5]] do not sum to delta
    "sum": {"delta": {"dim": 2, "vertices": HEXAGON}, "parts": [[0, 1], [2, 3], [4, 5]]},
    "repeat": _quartic([[0, 0, 1, 2, 3]]),
    "overlap": _quartic([[0, 1], [1, 2, 3]]),
    "uncovered": _quartic([[0, 1], [2]]),
    "out_of_range": _quartic([[0, 1, 2, 3, 9]]),
    "empty_part": _quartic([[], [0, 1, 2, 3]]),
    "no_parts": _quartic([]),
    "float_index": _quartic([[0.5, 1, 2, 3]]),
    "simplex_off_lattice": {
        "delta": {"dim": 3, "vertices": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]},
        "parts": [[0, 1], [2, 3]],
    },
    "off_lattice": {"delta": {"dim": 3, "vertices": OCTAHEDRON}, "parts": [[0], [1, 2, 3, 4, 5, 6, 7]]},
    "flat": _quartic(vertices=[[1, 0, 0], [0, 1, 0], [-1, -1, 0]]),
    "float_coordinate": _quartic(vertices=[[3.9, -1, -1], [-1, 3, -1], [-1, -1, 3], [-1, -1, -1]]),
    "negative_dim": _quartic(dim=-1),
    "float_dim": _quartic(dim=3.5),
    "wrong_dim": _quartic(dim=2),
    "ragged": _quartic(vertices=[[3, -1, -1], [-1, 3], [-1, -1, 3], [-1, -1, -1]]),
    "no_vertices": _quartic(vertices=[]),
    "vertices_not_lists": _quartic(vertices=5),
    "parts_not_lists": {"delta": QUARTIC["delta"], "parts": 5},
    "no_dim": {"delta": {"vertices": QUARTIC["delta"]["vertices"]}, "parts": QUARTIC["parts"]},
    "no_parts_key": {"delta": QUARTIC["delta"]},
    "not_an_object": [1, 2],
}

# (environment, command line, exit code): {missing} is a path that does
# not exist, {malformed} a file that holds no JSON, {simplex_8_x_segment}
# the input of ``OVER_BUDGET`` and the others the files of ``UNDECODABLE``
ARGS = [
    ({}, ["pf", "{missing}"], 2),
    ({}, ["pf", "{malformed}"], 2),
    *(({}, ["pf", "{" + label + "}"], 2) for label in UNDECODABLE),
    ({}, ["pf", "{p3_quartic}", "-N", "0"], 2),
    ({}, ["pf", "{p3_quartic}", "-N", "65"], 2),
    ({}, ["yukawa", "{p3_quartic}", "-N", "4", "--normalization", "3/2"], 0),
    # m = isqrt(5) = 2 divides h's order 4: the reversion reads the last giant power h^4
    ({}, ["mirror-map", "{p3_quartic}", "-N", "5"], 0),
    ({}, ["yukawa", "{p3_quartic}", "--normalization", "x/y"], 2),
    ({"FRACMIRROR_MAX_N": "x"}, ["pf", "{p3_quartic}"], 2),
    ({"FRACMIRROR_MAX_N": "0"}, ["pf", "{p3_quartic}"], 2),
    ({}, ["euler", "{simplex_8_x_segment}"], 3),
]

_EQUALITY = "value equality, which the tests compare with"
_ARGUMENT = "a library caller's guard on an argument that no command passes"
_CALLER = "the commands check this earlier, with their own message"
_JOB = "guards run()'s JobConfig; main's argparse refuses these first"
_BALANCED = "an accepted input's kernel vector has positive entries that balance its negative ones"
_IDENTITY = "no input violates the paper's identity (smoothness hypothesis)"
_VALIDATE = "perfbench/test_perfbench.py checks its inputs with it; the commands load through NefPartition"
_CLOSED = "a stdout its reader closed, which test_cli closes for a subprocess; these runs write to a StringIO"
_FRACTIONS = "the Fraction view that library callers, the tests and perfbench/spans.py read; commands write from the integers"

UNRUN = [
    ("_accel.count_points.<locals>.cut", "return tlo, tlo - 1", "a row that no point of the box meets, which a polytope's own facets never give"),
    ("_accel.backend_name", 'return "python"', "perfbench/run.py records the name of the scan's arithmetic"),
    ("cli._json_text", 'raise TypeError(f"Object of type {t.__name__} is not JSON serializable")', "json.dumps' TypeError for what it would not write exactly, as test_cli checks"),
    ("cli._json_text", 'return "[]"', "json.dumps' empty list, which no payload holds; test_cli compares with json.dumps"),
    ("cli._json_text", 'return "{}"', "json.dumps' empty dict, which no payload holds; test_cli compares with json.dumps"),
    ("cli.main", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())", _CLOSED),
    ("cli.main", "return 1", _CLOSED),
    ("cli.run", 'raise _InputError(f"unknown command {config.command!r}")', _JOB),
    ("cli.run", 'raise _InputError(f"unknown format {config.fmt!r}")', _JOB),
    ("cohom.deformed_solution", "raise FracmirrorError(", _ARGUMENT),
    ("cohom.i_function_mirror_map", 'raise FracmirrorError("eps^0 slice of the I-function is not a unit")', _ARGUMENT),
    ("cohom.i_function_mirror_map", 'raise FracmirrorError("the mirror map reads the eps^1 slice of the I-function: m >= 2")', _ARGUMENT),
    ("gkz.Slices.__getitem__", "return tuple(map(self.__getitem__, range(len(self))[k]))", "a library caller's Python slice; the commands read one eps-slice at a time"),
    ("gkz.hypergeometric_series", 'raise ValueError("truncation order must be nonnegative")', _ARGUMENT),
    ("gkz.hypergeometric_series", 'raise ValueError("nilpotency order m must be at least 1")', _ARGUMENT),
    ("linalg.echelon", "break", "stops once every row holds a pivot; a command's matrix has a kernel, so some row never does"),
    ("linalg.echelon", 'raise ValueError("matrix rows must have equal length")', _ARGUMENT),
    ("linalg.row_basis", 'raise ValueError("matrix rows must have equal length")', _ARGUMENT),
    ("mirror.FrobeniusPair.__init__", 'raise ValueError("a Frobenius pair needs order N >= 1")', _CALLER),
    ("mirror.yukawa_z", 'raise FracmirrorError("Yukawa ODE defined for threefold operators")', _CALLER),
    ("nefpart._derive", 'return ["delta is not a lattice polytope"], None', "a library caller's delta that is not a LatticePolytope; the commands pass one"),
    ("nefpart.validate_nef_partition", "for i, part in enumerate(parts):", _VALIDATE),
    ("nefpart.validate_nef_partition", "try:", _VALIDATE),
    ("nefpart.validate_nef_partition", '_as_ints(part, "part index")', _VALIDATE),
    ("nefpart.validate_nef_partition", 'return [f"part {i} has a non-integer vertex index"]', _VALIDATE),
    ("nefpart.validate_nef_partition", "return _derive(delta, parts)[0]", _VALIDATE),
    ("picard_fuchs.theta_conjugate", "raise FracmirrorError(", _BALANCED),
    ("picard_fuchs.theta_conjugate", 'raise FracmirrorError("unsupported shape: no positive kernel entries")', _BALANCED),
    ("polytope.LatticePolytope.__eq__", "return (", _EQUALITY),
    ("polytope.LatticePolytope.__hash__", "return hash((self.ambient_dim, self.vertices))", "the hash that goes with __eq__"),
    ("polytope.LatticePolytope._require_full_dimensional", 'raise FracmirrorError(f"{what} requires a full-dimensional polytope")', _CALLER),
    ("polytope.LatticePolytope.polar_dual", "raise FracmirrorError(", _CALLER),
    ("polytope.LatticePolytope.polar_dual", 'raise FracmirrorError("origin is not an interior point")', _CALLER),
    ("polytope._dd_extreme_rays", 'raise ValueError("cone is not pointed: constraints do not span")', _ARGUMENT),
    ("polytope._dd_extreme_rays", 'raise ValueError("cone needs at least one constraint")', _ARGUMENT),
    ("polytope._pairing", "raise FracmirrorError(", "a Delta_i that is not the cut of its part, which _derive never builds"),
    ("series.RationalSeries.__eq__", "if not isinstance(other, RationalSeries):", _EQUALITY),
    ("series.RationalSeries.__eq__", "return (self.N, self.D, self.A) == (other.N, other.D, other.A)", _EQUALITY),
    ("series.RationalSeries.__eq__", "return False", _EQUALITY),
    ("series.RationalSeries.__hash__", "return hash((self.N, self.A, self.D))", "the hash that goes with __eq__"),
    ("series.RationalSeries.__init__", "D = lcm(*(x.denominator for x in vals))  # so gcd(D, *A) == 1", "the constructor that validates its values; commands use _make"),
    ("series.RationalSeries.__init__", 'N = max(len(vals) - 1, 0) if N is None else _as_int(N, "order N")', "the constructor that validates its values; commands use _make"),
    ("series.RationalSeries.__init__", "if N < 0:", "the constructor that validates its values; commands use _make"),
    ("series.RationalSeries.__init__", 'raise ValueError("truncation order must be nonnegative")', "the constructor that validates its values; commands use _make"),
    ("series.RationalSeries.__init__", "self._hold(tuple(x.numerator * (D // x.denominator) for x in vals), D, N)", "the constructor that validates its values; commands use _make"),
    ("series.RationalSeries.__init__", "vals = [parse_fraction(x) for x in coeffs]", "the constructor that validates its values; commands use _make"),
    ("series.RationalSeries.__init__", "vals = vals[: N + 1] + [_ZERO] * (N + 1 - len(vals))", "the constructor that validates its values; commands use _make"),
    ("series.RationalSeries.__setattr__", 'raise AttributeError("series are immutable")', "the guard that keeps a series immutable"),
    ("series.RationalSeries.__truediv__", 'raise FracmirrorError("constant term is not invertible")', _ARGUMENT),
    ("series.RationalSeries.c", "return tuple(Fraction(a, self.D) for a in self.A)", _FRACTIONS),
    ("series.RationalSeries.coeff", 'return Fraction(self.A[n], self.D) if 0 <= _as_int(n, "index n") <= self.N else _ZERO', _FRACTIONS),
    ("series.RationalSeries.exp", 'raise FracmirrorError("exp needs a zero constant term")', _ARGUMENT),
    ("series.RationalSeries.ring", "return self", "perfbench/spans.py labels a series span by it (ROADMAP item 5)"),
    ("series.RationalSeries.shift", 'raise FracmirrorError("division by z is not defined for truncated series")', _ARGUMENT),
    ("series.RationalSeries.truncate", 'raise FracmirrorError("cannot extend a truncated series")', _ARGUMENT),
    ("series.RationalSeries.truncate", 'raise ValueError("truncation order must be nonnegative")', _ARGUMENT),
    ("series._recurrence", "E *= k", "a rescale no kernel's coefficients need yet (ROADMAP item 14)"),
    ("series._recurrence", "U = [u * k for u in U]", "a rescale no kernel's coefficients need yet (ROADMAP item 14)"),
    ("series._recurrence", "k = t // gcd(E, t)", "a rescale no kernel's coefficients need yet (ROADMAP item 14)"),
    ("topology._counted", "return None", "the closed forms' step budget, which no input passes; test_topology runs it under a lowered budget"),
    ("topology.euler_double_cover", "raise SmoothnessError(", _IDENTITY),
    ("topology.euler_double_cover", "raise SmoothnessError(", _IDENTITY),
    ("topology.hodge_numbers", 'raise FracmirrorError("odd Euler characteristic for a threefold")', _IDENTITY),
]


def _modules():
    return [
        importlib.import_module(f"fracmirror.{info.name}")
        for info in pkgutil.iter_modules(fracmirror.__path__)
    ]


def _statements(path):
    """(qualname, first line stripped, own line numbers) of every statement
    in a function body of one module but docstrings and the global and
    nonlocal declarations, which compile to no code.  A compound statement
    owns the lines of its header, a simple one all its lines."""
    source = path.read_text()
    lines = source.splitlines()
    found = []

    def visit(node, prefix, qualname):
        for child in ast.iter_child_nodes(node):
            if qualname and isinstance(child, ast.stmt) and not (
                isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
                or isinstance(child, (ast.Global, ast.Nonlocal))
            ):
                body = getattr(child, "body", None)
                last = max(child.lineno, body[0].lineno - 1) if body else child.end_lineno
                found.append((qualname, lines[child.lineno - 1].strip(), range(child.lineno, last + 1)))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{prefix}{child.name}.<locals>.", prefix + child.name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", qualname)
            else:
                visit(child, prefix, qualname)

    visit(ast.parse(source), "", None)
    return found


def _run_traced(runs):
    """Each (environment, job) of ``runs`` under a line tracer confined to
    the package, a job being a ``cli.JobConfig`` for ``cli.run`` or a
    command line for ``cli.main``: (exit codes, {file: lines that ran}).  A
    code object stops being traced once all its lines have run."""
    ran = {module.__file__: set() for module in _modules()}
    left = {}  # code object -> its lines that have not run yet

    def line(frame, event, arg):
        if event == "line":
            todo = left[frame.f_code]
            ran[frame.f_code.co_filename].add(frame.f_lineno)
            todo.discard(frame.f_lineno)
            if not todo:
                return None
        return line

    def call(frame, event, arg):
        code = frame.f_code
        if code not in left:
            lines = {n for _, _, n in code.co_lines() if n is not None} - {code.co_firstlineno}
            left[code] = lines if code.co_filename in ran else set()
        return line if left[code] else None

    codes, out, previous = [], io.StringIO(), sys.gettrace()
    sys.settrace(call)
    try:
        for env, job in runs:
            saved = dict(os.environ)
            os.environ.update(env)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    codes.append(cli.run(job) if isinstance(job, cli.JobConfig) else cli.main(job))
            finally:
                os.environ.clear()
                os.environ.update(saved)
    finally:
        sys.settrace(previous)
    return codes, ran


def test_every_statement_but_the_listed_ones_runs_under_an_input(tmp_path):
    paths = {"missing": tmp_path / "missing.json", "malformed": tmp_path / "malformed.json"}
    paths["malformed"].write_text("{")
    for label, raw in UNDECODABLE.items():
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_bytes(raw)
    for label, doc in ({label: doc for label, (_, doc) in INPUTS.items()} | REJECTED | OVER_BUDGET).items():
        if isinstance(doc, Path):
            paths[label] = doc
        else:
            paths[label] = tmp_path / f"{label}.json"
            paths[label].write_text(json.dumps(doc))
    # cli.run skips main's argument parser, which ARGS reach
    runs = [
        ({}, cli.JobConfig(command, str(paths[label]), N=4, fmt=fmt))
        for label in INPUTS
        for command in cli._DISPATCH
        for fmt in ("json", "table")
    ]
    runs += [({}, cli.JobConfig("dual-nef", str(paths[label]))) for label in REJECTED]
    runs += [(env, [arg.format(**paths) for arg in argv]) for env, argv, _ in ARGS]
    codes, ran = _run_traced(runs)

    per = 2 * len(cli._DISPATCH)
    got = {label: set(codes[i * per : (i + 1) * per]) for i, label in enumerate(INPUTS)}
    assert got == {label: expected for label, (expected, _) in INPUTS.items()}
    rest = codes[len(INPUTS) * per :]
    assert rest == [2] * len(REJECTED) + [code for _, _, code in ARGS]

    unrun, scanned = Counter(), Counter()
    for module in _modules():
        name = module.__name__.rpartition(".")[2]
        for qualname, text, own in _statements(Path(module.__file__)):
            scanned[name] += 1
            if ran[module.__file__].isdisjoint(own):
                unrun[f"{name}.{qualname}", text] += 1
    # the scan finds statements in every module, whatever their number
    assert len(scanned) == len(_modules())
    listed = Counter((where, text) for where, text, _ in UNRUN)
    assert all(reason for _, _, reason in UNRUN)
    unexpected, gone = sorted(unrun - listed), sorted(listed - unrun)
    assert not unexpected and not gone, (
        "statements that never ran and are not in UNRUN:\n"
        + "".join(f"  {where}: {text}\n" for where, text in unexpected)
        + "UNRUN entries that ran or no longer exist:\n"
        + "".join(f"  {where}: {text}\n" for where, text in gone)
    )
