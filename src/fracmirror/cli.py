"""fracmirror command line: polytope duality, topology, and mirror series.

Exit codes: 0 success; 2 invalid input (unreadable file, malformed JSON,
invalid nef-partition, bad flags); 3 computational assertion failure
(violated smoothness identity, unsupported moduli shape, ...).
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cohom import (
    CohomRing,
    b_series,
    i_function_mirror_map,
    i_function_untwisted,
    i_weights_from_kernel,
)
from .errors import FracmirrorError, InvalidNefPartition
from .gkz import build_gkz, principal_kernel_vector
from .mirror import a_model_correlation, classical_normalization, frobenius_pair, mirror_map
from .nefpart import NefPartition, dual_nef_partition
from .picard_fuchs import theta_conjugate
from .series import fraction_str
from .topology import euler_double_cover

__all__ = ["JobConfig", "run", "main"]

_COMMANDS = (
    "dual-nef",
    "euler",
    "hodge",
    "gkz",
    "pf",
    "mirror-map",
    "yukawa",
    "ifunction",
    "bseries",
    "all",
)

_SMOOTHNESS_WARNING = (
    "warning: Euler-characteristic and Hodge formulas assume the smoothness "
    "hypothesis (crepant resolutions on both sides)"
)


class _InputError(Exception):
    pass


@dataclass
class JobConfig:
    command: str
    input: str
    N: int = 10
    normalization: Fraction | str | None = None
    fmt: str = "table"


def _max_order():
    raw = os.environ.get("FRACMIRROR_MAX_N", "")
    try:
        return int(raw) if raw else 64
    except ValueError:
        raise _InputError(f"FRACMIRROR_MAX_N must be an integer, got {raw!r}") from None


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


@dataclass
class _Context:
    """One job's input and the stages built from it, each at most once.

    Stages call the module globals at call time, so the hooks that
    perfbench/spans.py installs on them see every call.
    """

    config: JobConfig
    data: NefPartition

    @cached_property
    def topology(self):
        return euler_double_cover(self.data)

    @cached_property
    def gkz(self):
        return build_gkz(self.data)

    @cached_property
    def ell(self):
        return principal_kernel_vector(self.gkz)

    @cached_property
    def op(self):
        return theta_conjugate(self.ell, self.gkz.alpha)

    @cached_property
    def pair(self):
        return frobenius_pair(self.ell, self.gkz.alpha, self.config.N)

    @cached_property
    def mirror(self):
        return mirror_map(self.pair)


def _normalization(config):
    if config.normalization is not None:
        return Fraction(config.normalization)
    return classical_normalization(2, 1)


def _cmd_dual_nef(ctx):
    parts, nabla, nabla_dual = dual_nef_partition(ctx.data)
    dual_parts = ctx.data.dual_parts()
    payload = {
        "nabla_parts": [P.to_dict() for P in parts],
        "nabla": nabla.to_dict(),
        "nabla_dual": nabla_dual.to_dict(),
        "dual_partition": {"delta": nabla.to_dict(), "parts": dual_parts},
    }
    lines = []
    for i, P in enumerate(parts):
        lines.append(f"nabla_{i} vertices: {list(P.vertices)}")
    lines.append(f"nabla vertices: {list(nabla.vertices)}")
    lines.append(f"nabla_dual vertices: {list(nabla_dual.vertices)}")
    lines.append(f"dual partition parts: {dual_parts}")
    return payload, lines, [_SMOOTHNESS_WARNING]


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
    return topo.to_json(), _topology_lines(topo), []


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
    lines = _hodge_lines("Y", topo.hodge) + _hodge_lines("Y_dual", topo.hodge_dual)
    return payload, lines, []


def _cmd_gkz(ctx):
    g = ctx.gkz
    payload = g.to_json()
    rows, beta = g.display_rows()
    payload["display"] = {
        "A_rows": [list(r) for r in rows],
        "beta": [fraction_str(b) for b in beta],
    }
    lines = ["A (display row order, Kronecker block first):"]
    for row in rows:
        lines.append("  [" + " ".join(f"{x:3d}" for x in row) + "]")
    lines.append("beta = (" + ", ".join(fraction_str(b) for b in beta) + ")")
    lines.append("alpha = (" + ", ".join(fraction_str(a) for a in g.alpha) + ")")
    for v in g.kernel:
        lines.append(f"kernel vector: {list(v)}")
    return payload, lines, []


def _cmd_pf(ctx):
    ell, op = ctx.ell, ctx.op
    payload = {"kernel_vector": list(ell), "operator": op.to_json()}
    lines = [f"kernel vector: {list(ell)}", f"operator: {op.display()}"]
    return payload, lines, []


def _cmd_mirror_map(ctx):
    pair = ctx.pair
    q_of_z, z_of_q = ctx.mirror
    payload = {
        "scale": pair.scale,
        "omega0": pair.omega0.to_json(),
        "tau": pair.tau.to_json(),
        "q_of_z": q_of_z.to_json(),
        "z_of_q": z_of_q.to_json(),
    }
    lines = [
        f"scale s = {pair.scale}",
        f"omega0(z) = {_series_text(pair.omega0, 'z')}",
        f"tau(z) = {_series_text(pair.tau, 'z')}",
        f"q(z) = {_series_text(q_of_z, 'z')}",
        f"z(q) = {_series_text(z_of_q, 'q')}",
    ]
    return payload, lines, []


def _cmd_yukawa(ctx):
    op = ctx.op
    if op.degree != 4:
        reason = "Yukawa ODE defined for threefold operators"
        return (
            {"skipped": reason, "operator_degree": op.degree},
            [f"skipped: {reason} (operator degree {op.degree})"],
            [],
        )
    C = _normalization(ctx.config)
    ydata = a_model_correlation(op, ctx.pair, ctx.mirror[1], C, ctx.config.N)
    payload = ydata.to_json()
    lines = [
        f"normalization C = {fraction_str(ydata.C)}",
        f"Y_z(z) = {_series_text(ydata.Y_z, 'z')}",
        f"K(q) = {_series_text(ydata.K_q, 'q')}",
    ]
    return payload, lines, []


def _cmd_ifunction(ctx):
    ell = ctx.ell
    num, den = i_weights_from_kernel(ell, ctx.gkz.alpha)
    d = sum(le for le in ell if le > 0)
    m = d + 1
    I = i_function_untwisted(num, den, m, ctx.config.N)
    ratio = i_function_mirror_map(I)
    payload = {
        "num_weights": list(num),
        "den_weights": list(den),
        "m": m,
        "i_function": I.to_json(),
        "mirror_map_series": ratio.to_json(),
    }
    lines = [
        f"weights: numerator {list(num)}, denominator {list(den)}",
        f"A(q) = {_series_text(I.eps_slice(0), 'q')}",
        f"B/A (mirror map series) = {_series_text(ratio, 'q')}",
    ]
    return payload, lines, []


def _cmd_bseries(ctx):
    g, ell = ctx.gkz, ctx.ell
    d = sum(le for le in ell if le > 0)
    C = _normalization(ctx.config)
    classes = {
        f"D_{i}_{j}": ell[e] for e, (i, j) in enumerate(g.column_labels)
    }
    ring = CohomRing(d, classes, integral_scale=C)
    B = b_series(ring, ell, g.alpha, ctx.config.N)
    payload = {
        "ring": {
            "m": ring.m,
            "classes": {k: fraction_str(v) for k, v in ring.classes},
            "integral_scale": fraction_str(ring.integral_scale),
        },
        "b_series": B.to_json(),
    }
    lines = [
        f"ring: Q[eps]/(eps^{ring.m}), integral scale {fraction_str(ring.integral_scale)}",
        f"eps^0 slice (omega0) = {_series_text(B.part(0).eps_slice(0), 'z')}",
        f"log-degree = {B.log_degree}",
    ]
    return payload, lines, []


def _cmd_all(ctx):
    payload = {}
    lines = []
    warnings = []
    sections = (
        ("euler", _cmd_euler),
        ("hodge", _cmd_hodge),
        ("gkz", _cmd_gkz),
        ("pf", _cmd_pf),
        ("mirror-map", _cmd_mirror_map),
        ("yukawa", _cmd_yukawa),
    )
    for name, fn in sections:
        sub_payload, sub_lines, sub_warn = fn(ctx)
        payload[name.replace("-", "_")] = sub_payload
        lines.append(f"== {name} ==")
        lines.extend(sub_lines)
        warnings.extend(sub_warn)
    return payload, lines, warnings


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
    """Execute a job; returns the process exit code."""
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
                Fraction(config.normalization)
            except (ValueError, ZeroDivisionError) as exc:
                raise _InputError(f"bad normalization: {exc}") from exc
        data = _load(config.input)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        payload, lines, warnings = _DISPATCH[config.command](_Context(config, data))
    except FracmirrorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for w in warnings:
        print(w, file=sys.stderr)
    if config.fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
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
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("input", help="nef-partition JSON file")
        sp.add_argument("-N", type=int, default=10, dest="N",
                        help="series truncation order (default 10)")
        sp.add_argument("--normalization", default=None,
                        help="rational normalization constant C (default: classical)")
        sp.add_argument("--format", choices=("json", "table"), default="table",
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
