"""fracmirror command line: polytope duality, topology, and mirror series.

Exit codes: 0 success; 2 invalid input (unreadable file, malformed JSON,
invalid nef-partition, bad flags); 3 computational assertion failure
(violated smoothness identity, unsupported moduli shape, ...).  JSON output
is ``_json_text`` of a command's payload, in which a value may be a fragment:
a callable that writes its own text at the indent it is given.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii as _encode_str

from .cohom import (
    b_series,
    b_series_json,
    i_function_mirror_map,
    i_function_untwisted,
    i_weights_from_kernel,
    slices_json,
)
from .errors import FracmirrorError, InvalidNefPartition
from .gkz import build_gkz, simplex_kernel_vector
from .mirror import _dilate, a_model_correlation, frobenius_pair, mirror_map
from .nefpart import NefPartition, dual_nef_partition
from .picard_fuchs import theta_conjugate
from .series import fraction_str, parse_fraction
from .topology import euler_double_cover

__all__ = ["JobConfig", "run", "main"]

_SMOOTHNESS_WARNING = (
    "warning: Euler-characteristic and Hodge formulas assume the smoothness "
    "hypothesis (crepant resolutions on both sides)"
)
# K(0): the covering degree 2 times the base's top self-intersection 1
_CLASSICAL_C = Fraction(2)


class _InputError(Exception):
    pass


class JobConfig:
    """One CLI call: ``normalization`` is a Fraction, its text or None."""

    def __init__(self, command, input, N=10, normalization=None, fmt="table"):
        self.command = command
        self.input = input
        self.N = N
        self.normalization = normalization
        self.fmt = fmt


def _max_order():
    raw = os.environ.get("FRACMIRROR_MAX_N", "")
    try:
        cap = int(raw) if raw else 64
    except ValueError:
        raise _InputError(f"FRACMIRROR_MAX_N must be an integer, got {raw!r}") from None
    if cap < 1:
        raise _InputError(f"FRACMIRROR_MAX_N must be a positive integer, got {raw!r}")
    return cap


def _series_text(s, var):
    pieces = []
    for n in range(s.N + 1):
        c = s.coeff(n)
        if c == 0:
            continue
        if n == 0:
            pieces.append(fraction_str(c))
        elif n == 1:
            pieces.append(f"{fraction_str(c)}*{var}")
        else:
            pieces.append(f"{fraction_str(c)}*{var}^{n}")
    return " + ".join(pieces) if pieces else "0"


def _json_text(obj, indent="\n"):
    """The stdlib's JSON text with ``indent=2, sort_keys=True``, byte for byte,
    but a list of all ``str`` (or all exactly ``int``) items is one ``str.join``
    over the C string encoder, where the stdlib's indenting encoder is pure
    Python.  A fragment (``cohom.slices_json``) is called with the current indent.
    Any other type but dict (``str`` keys), list, tuple, ``str``, ``int``, ``bool``
    and ``None`` raises ``TypeError``: no float or Fraction is written.
    """
    t = type(obj)
    if t is list or t is tuple:
        if not obj:
            return "[]"
        inner, kinds = indent + "  ", set(map(type, obj))
        if kinds == {str}:
            items = map(_encode_str, obj)
        elif kinds == {int}:
            items = map(int.__repr__, obj)
        else:
            items = [_json_text(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if t is dict:
        if not obj:
            return "{}"
        inner = indent + "  "
        items = [_encode_str(k) + ": " + _json_text(obj[k], inner) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if t is str:
        return _encode_str(obj)
    if t is int:
        return int.__repr__(obj)
    if obj is None or t is bool:
        return {None: "null", True: "true", False: "false"}[obj]
    if callable(obj):
        return obj(indent)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _InputError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    try:
        return NefPartition.from_dict(doc)
    except (InvalidNefPartition, ValueError, TypeError, KeyError) as exc:
        raise _InputError(f"invalid nef-partition input: {exc}") from exc


class _Context:
    """One job's input and the stages built from it, each at most once.

    Stages call the module globals at call time, so the hooks that
    perfbench/spans.py installs on them see every call.
    """

    def __init__(self, config, data):
        self.config = config
        self.data = data

    @cached_property
    def topology(self):
        return euler_double_cover(self.data)

    @cached_property
    def gkz(self):
        return build_gkz(self.data)

    @cached_property
    def ell(self):
        """The kernel vector of a simplex; off one the GKZ kernel has rank
        p - n > 1 for p rays, which no series command handles."""
        ell = simplex_kernel_vector(self.data)
        if ell is None:
            raise FracmirrorError("multiparameter moduli unsupported")
        return ell

    @cached_property
    def op(self):
        return theta_conjugate(self.ell)

    @cached_property
    def pair(self):
        return frobenius_pair(self.ell, self.config.N)

    @cached_property
    def mirror(self):
        return mirror_map(self.pair)


def _normalization(config):
    if config.normalization is not None:
        return parse_fraction(config.normalization)
    return _CLASSICAL_C


def _cmd_dual_nef(ctx):
    parts, nabla, nabla_dual = dual_nef_partition(ctx.data)
    dual_parts = ctx.data.dual_parts()
    n = nabla.ambient_dim
    payload = {
        "nabla_parts": [{"dim": n, "vertices": [list(v) for v in V]} for V in parts],
        "nabla": nabla.to_dict(),
        "nabla_dual": nabla_dual.to_dict(),
        "dual_partition": {"delta": nabla.to_dict(), "parts": dual_parts},
    }
    print(_SMOOTHNESS_WARNING, file=sys.stderr)
    return payload, lambda: [
        *(f"nabla_{i} vertices: {list(V)}" for i, V in enumerate(parts)),
        f"nabla vertices: {list(nabla.vertices)}",
        f"nabla_dual vertices: {list(nabla_dual.vertices)}",
        f"dual partition parts: {dual_parts}",
    ]


def _topology_lines(topo):
    return [
        f"n = {topo.n}",
        f"chi(X) = {topo.chi_X}",
        f"chi(X_dual) = {topo.chi_X_dual}",
        f"vol(Lambda) = {topo.vol_Lambda}",
        f"vol(Lambda_dual) = {topo.vol_Lambda_dual}",
        f"chi(Y) = {topo.chi_Y}",
        f"chi(Y_dual) = {topo.chi_Y_dual}",
    ]


def _cmd_euler(ctx):
    topo = ctx.topology
    return topo.to_json(), lambda: _topology_lines(topo)


def _hodge_lines(label, table):
    lines = [f"hodge numbers of {label}:"]
    for (p, q), v in sorted(table.table.items()):
        lines.append(f"  h^{{{p},{q}}} = {v}")
    if not table.complete:
        lines.append(f"  ({table.note})")
    return lines


def _cmd_hodge(ctx):
    topo = ctx.topology
    payload = {
        "hodge": topo.hodge.to_json(),
        "hodge_dual": topo.hodge_dual.to_json(),
        "chi_Y": topo.chi_Y,
        "chi_Y_dual": topo.chi_Y_dual,
    }
    return payload, lambda: [
        *_hodge_lines("Y", topo.hodge), *_hodge_lines("Y_dual", topo.hodge_dual)
    ]


def _cmd_gkz(ctx):
    g = ctx.gkz
    payload = g.to_json()
    rows, beta = g.display_rows()
    payload["display"] = {
        "A_rows": [list(r) for r in rows],
        "beta": [fraction_str(b) for b in beta],
    }
    return payload, lambda: [
        "A (display row order, Kronecker block first):",
        *("  [" + " ".join(f"{x:3d}" for x in row) + "]" for row in rows),
        "beta = (" + ", ".join(fraction_str(b) for b in beta) + ")",
        "alpha = (" + ", ".join(fraction_str(a) for a in g.alpha) + ")",
        *(f"kernel vector: {list(v)}" for v in g.kernel),
    ]


def _cmd_pf(ctx):
    ell, op = ctx.ell, ctx.op
    payload = {"kernel_vector": list(ell), "operator": op.to_json()}
    return payload, lambda: [f"kernel vector: {list(ell)}", f"operator: {op.display()}"]


def _cmd_mirror_map(ctx):
    pair = ctx.pair
    q_of_z, z_of_q = ctx.mirror
    omega0, tau = (_dilate(A, 1, pair.scale) for A in (pair.A0, pair.A1))
    payload = {
        "scale": pair.scale,
        "omega0": omega0.to_json(),
        "tau": tau.to_json(),
        "q_of_z": q_of_z.to_json(),
        "z_of_q": z_of_q.to_json(),
    }
    return payload, lambda: [
        f"scale s = {pair.scale}",
        f"omega0(z) = {_series_text(omega0, 'z')}",
        f"tau(z) = {_series_text(tau, 'z')}",
        f"q(z) = {_series_text(q_of_z, 'z')}",
        f"z(q) = {_series_text(z_of_q, 'q')}",
    ]


def _cmd_yukawa(ctx):
    op = ctx.op
    if op.degree != 4:
        reason = "Yukawa ODE defined for threefold operators"
        return (
            {"skipped": reason, "operator_degree": op.degree},
            lambda: [f"skipped: {reason} (operator degree {op.degree})"],
        )
    C = _normalization(ctx.config)
    ydata = a_model_correlation(op, ctx.pair, C)
    payload = ydata.to_json()
    return payload, lambda: [
        f"normalization C = {fraction_str(ydata.C)}",
        f"Y_z(z) = {_series_text(ydata.Y_z, 'z')}",
        f"K(q) = {_series_text(ydata.K_q, 'q')}",
    ]


def _cmd_ifunction(ctx):
    ell = ctx.ell
    num, den = i_weights_from_kernel(ell)
    d = sum(le for le in ell if le > 0)
    m = d + 1
    I = i_function_untwisted(ell, m, ctx.config.N)
    ratio = i_function_mirror_map(I)
    payload = {
        "num_weights": list(num),
        "den_weights": list(den),
        "m": m,
        "i_function": slices_json(I),
        "mirror_map_series": ratio.to_json(),
    }
    return payload, lambda: [
        f"weights: numerator {list(num)}, denominator {list(den)}",
        f"A(q) = {_series_text(I[0], 'q')}",
        f"B/A (mirror map series) = {_series_text(ratio, 'q')}",
    ]


def _cmd_bseries(ctx):
    ell = ctx.ell
    d = sum(le for le in ell if le > 0)
    C = fraction_str(_normalization(ctx.config))
    B = b_series(d, ell, ctx.config.N)
    labels = [(i, j) for i, part in enumerate(ctx.data.ray_parts) for j in range(len(part) + 1)]
    payload = {
        "ring": {
            "m": d,
            "classes": {f"D_{i}_{j}": str(le) for (i, j), le in zip(labels, ell)},
            "integral_scale": C,
        },
        "b_series": b_series_json(B),
    }
    return payload, lambda: [
        f"ring: Q[eps]/(eps^{d}), integral scale {C}",
        f"eps^0 slice (omega0) = {_series_text(B[0], 'z')}",
        f"log-degree = {len(B) - 1}",
    ]


def _cmd_all(ctx):
    payload = {}
    sections = []
    for name, fn in (
        ("euler", _cmd_euler),
        ("hodge", _cmd_hodge),
        ("gkz", _cmd_gkz),
        ("pf", _cmd_pf),
        ("mirror-map", _cmd_mirror_map),
        ("yukawa", _cmd_yukawa),
    ):
        sub_payload, sub_lines = fn(ctx)
        payload[name.replace("-", "_")] = sub_payload
        sections.append((name, sub_lines))
    return payload, lambda: [
        line for name, sub_lines in sections for line in (f"== {name} ==", *sub_lines())
    ]


_DISPATCH = {
    "dual-nef": _cmd_dual_nef,
    "euler": _cmd_euler,
    "hodge": _cmd_hodge,
    "gkz": _cmd_gkz,
    "pf": _cmd_pf,
    "mirror-map": _cmd_mirror_map,
    "yukawa": _cmd_yukawa,
    "ifunction": _cmd_ifunction,
    "bseries": _cmd_bseries,
    "all": _cmd_all,
}


def run(config):
    """Execute a job, printing its table or ``_json_text(payload)``; returns the exit code."""
    try:
        if config.command not in _DISPATCH:
            raise _InputError(f"unknown command {config.command!r}")
        if type(config.N) is not int:
            raise _InputError(f"series order N must be an integer, got {config.N!r}")
        if config.N < 1:
            raise _InputError("series order N must be at least 1")
        cap = _max_order()
        if config.N > cap:
            raise _InputError(
                f"series order N = {config.N} exceeds the cap {cap} "
                "(set FRACMIRROR_MAX_N to raise it)"
            )
        if config.fmt not in ("json", "table"):
            raise _InputError(f"unknown format {config.fmt!r}")
        if config.normalization is not None:
            try:
                _normalization(config)
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise _InputError(f"bad normalization: {exc}") from exc
        data = _load(config.input)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        # a command returns its table as a function of no arguments, so the
        # lines (and the Fractions they print) are built only for a table
        payload, lines = _DISPATCH[config.command](_Context(config, data))
        text = _json_text(payload) if config.fmt == "json" else "\n".join(lines())
    except FracmirrorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(text)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fracmirror",
        description=(
            "Mirror-symmetry toolkit for double covers branched along "
            "nef-partitions: polytope duality, Euler/Hodge data, and "
            "Picard-Fuchs/mirror-map/Yukawa series."
        ),
    )
    parser.add_argument("command", choices=list(_DISPATCH))
    parser.add_argument("input", help="nef-partition JSON file")
    parser.add_argument("-N", type=int, default=10, dest="N",
                        help="series truncation order (default 10)")
    parser.add_argument("--normalization", default=None,
                        help="rational normalization constant C (default: classical)")
    parser.add_argument("--format", choices=("json", "table"), default="table",
                        dest="fmt", help="output format")
    args = parser.parse_args(argv)
    config = JobConfig(
        command=args.command,
        input=args.input,
        N=args.N,
        normalization=args.normalization,
        fmt=args.fmt,
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
