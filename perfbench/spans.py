"""Layer spans recorded from outside the program, for the traced run.

Each wrapper is installed under the name its caller looks up: a module
global (``cli.euler_double_cover``, ``mirror.holo_solution``, ...) or a
method on ``LatticePolytope`` / ``_Series``.  Spans nest on one stack; a
span's self time is its duration minus the time its child spans cover, and
its total time counts only the outermost span of a name.
Spans are aggregated by name in memory (calls, self time) rather than kept
one by one, because the series layer makes ~10^5 calls per run.  Counters
are read from arguments and return values only.
"""

import functools
import math
from time import perf_counter

SERIES_OPS = ("mul", "inverse", "exp", "log", "compose", "reversion")
RINGS = ("rational", "nilpotent")

# Span and counter names are module.function; fracmirror._accel appears as
# "accel", because a metric name must start with a letter or a digit.
SPANS = (
    "cli.run",
    "nefpart.load",
    "nefpart.dual_nef_partition",
    "polytope.hull",
    "polytope.dd_extreme_rays",
    "polytope.polar_dual",
    "polytope.normalized_volume",
    "polytope.lattice_points",
    "linalg.smith_normal_form",
    "linalg.det",
    "accel.count_points",
    "accel.enumerate_points",
    "topology.euler_double_cover",
    "gkz.build_gkz",
    "gkz.holo_solution",
    "picard_fuchs.theta_conjugate",
    "picard_fuchs.yukawa_ode_rhs",
    "mirror.frobenius_pair",
    "mirror.mirror_map",
    "mirror.yukawa_z",
    "mirror.a_model_correlation",
    "cohom.deformed_solution",
    "cohom.b_series",
    "cohom.i_function_untwisted",
    "cohom.i_function_mirror_map",
) + tuple(f"series.{op}.{ring}" for op in SERIES_OPS for ring in RINGS)

COUNTERS = (
    "polytope.normalized_volume.dilation_scans",
    "accel.count_points.box_points",
    "accel.count_points.points",
    "accel.enumerate_points.box_points",
    "accel.bigint_calls",
    "series.max_coeff_bits",
    "cli.output_bytes",
)


class Tracer:
    """Aggregated spans and counters of one traced run."""

    def __init__(self):
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.total_s = dict.fromkeys(SPANS, 0.0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._open = dict.fromkeys(SPANS, 0)  # open spans per name, for total_s
        self._stack = []  # time covered by child spans, one entry per open span

    def span(self, name, fn, after=None):
        """Wrap ``fn`` in span ``name`` (a string or a function of the args).

        ``after(result, args)`` updates counters once the span has closed.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            stack = self._stack
            stack.append(0.0)
            self._open[label] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                self._open[label] -= 1
                if not self._open[label]:
                    self.total_s[label] += dur
                self.calls[label] += 1
                self.self_s[label] += dur - child
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def bump(self, name, value=1):
        self.counters[name] += value


def _box(lo, hi):
    return math.prod(max(0, int(h) - int(l) + 1) for l, h in zip(lo, hi))


def _bits(x):
    if hasattr(x, "c"):  # EpsPoly
        return max(_bits(v) for v in x.c)
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def install(tracer):
    """Patch the program's layer boundaries; returns a function that undoes it."""
    from fracmirror import _accel, cli, cohom, gkz, linalg, mirror, nefpart, polytope
    from fracmirror import series

    saved = []

    def patch(owner, attr, name, after=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.span(name, original, after))

    def count_after(result, args):
        lo, hi = args[0], args[1]
        tracer.bump("accel.count_points.box_points", _box(lo, hi))
        tracer.bump("accel.count_points.points", result)

    def enum_after(result, args):
        tracer.bump("accel.enumerate_points.box_points", _box(args[0], args[1]))

    def ring(args):
        return "rational" if args[0].ring.m is None else "nilpotent"

    def coeff_bits(result, args):
        bits = max(_bits(c) for c in result.c)
        tracer.counters["series.max_coeff_bits"] = max(bits, tracer.counters["series.max_coeff_bits"])

    LP = polytope.LatticePolytope
    patch(LP, "__init__", "polytope.hull")
    patch(LP, "polar_dual", "polytope.polar_dual")
    patch(LP, "normalized_volume", "polytope.normalized_volume")
    patch(LP, "lattice_points", "polytope.lattice_points")
    original_dilate = LP.dilate_lattice_point_count
    saved.append((LP, "dilate_lattice_point_count", original_dilate))

    def dilate(self, k):
        tracer.bump("polytope.normalized_volume.dilation_scans")
        return original_dilate(self, k)

    LP.dilate_lattice_point_count = dilate
    patch(polytope, "_dd_extreme_rays", "polytope.dd_extreme_rays")
    patch(nefpart, "_dd_extreme_rays", "polytope.dd_extreme_rays")
    patch(linalg, "smith_normal_form", "linalg.smith_normal_form")
    patch(linalg, "det", "linalg.det")
    patch(_accel, "count_points", "accel.count_points", count_after)
    patch(_accel, "enumerate_points", "accel.enumerate_points", enum_after)
    original_safe = _accel._int64_safe
    saved.append((_accel, "_int64_safe", original_safe))

    def int64_safe(*args):
        ok = original_safe(*args)
        if not ok:
            tracer.bump("accel.bigint_calls")
        return ok

    _accel._int64_safe = int64_safe
    patch(nefpart.NefPartition, "__init__", "nefpart.load")
    patch(cli, "dual_nef_partition", "nefpart.dual_nef_partition")
    patch(cli, "euler_double_cover", "topology.euler_double_cover")
    patch(cli, "build_gkz", "gkz.build_gkz")
    patch(mirror, "holo_solution", "gkz.holo_solution")
    patch(gkz, "holo_solution", "gkz.holo_solution")
    patch(cli, "theta_conjugate", "picard_fuchs.theta_conjugate")
    patch(mirror, "yukawa_ode_rhs", "picard_fuchs.yukawa_ode_rhs")
    patch(cli, "frobenius_pair", "mirror.frobenius_pair")
    patch(cli, "mirror_map", "mirror.mirror_map")
    patch(mirror, "mirror_map", "mirror.mirror_map")
    patch(mirror, "yukawa_z", "mirror.yukawa_z")
    patch(cli, "a_model_correlation", "mirror.a_model_correlation")
    patch(cohom, "deformed_solution", "cohom.deformed_solution")
    patch(cli, "b_series", "cohom.b_series")
    patch(cli, "i_function_untwisted", "cohom.i_function_untwisted")
    patch(cli, "i_function_mirror_map", "cohom.i_function_mirror_map")
    S = series._Series
    for op, attr, after in (
        ("mul", "__mul__", None),
        ("mul", "__rmul__", None),
        ("inverse", "inverse", coeff_bits),
        ("exp", "exp", coeff_bits),
        ("log", "log", coeff_bits),
        ("compose", "compose", coeff_bits),
        ("reversion", "reversion", coeff_bits),
    ):
        patch(S, attr, lambda args, op=op: f"series.{op}.{ring(args)}", after)

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo
