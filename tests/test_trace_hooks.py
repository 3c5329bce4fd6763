"""The layer spans of ``perfbench/spans.py`` still bind to the program.

``perfbench/run.py --trace 1`` patches module attributes by name; a rename
in the package would make ``install`` fail or leave a span silent.  This
runs the real hooks on two small jobs and checks the call counts, and
counts the work some layers do without timing them.
"""

import contextlib
import importlib.util
import io
import random
from fractions import Fraction

from conftest import DATA, REPO

from fracmirror import cli, series, topology
from fracmirror.gkz import hypergeometric_series
from fracmirror.polytope import LatticePolytope
from fracmirror.series import RationalSeries


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", REPO / "perfbench" / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(*commands, shape):
    """Run each command at N=4 on one bundled shape under the real hooks.

    ``tracer.flat_hulls`` counts the hulls of lower dimension than their
    ambient space, the ones that need a Smith transform.
    """
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.flat_hulls = 0
    init = LatticePolytope.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracer.flat_hulls += self.affine_dim < self.ambient_dim

    LatticePolytope.__init__ = counting_init
    undo = spans.install(tracer)
    try:
        for command in commands:
            config = cli.JobConfig(command=command, input=str(DATA / f"{shape}.json"), N=4, fmt="json")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert cli.run(config) == 0
    finally:
        undo()
        LatticePolytope.__init__ = init
    return tracer


def test_spans_record_each_stage_once_per_job():
    tracer = _traced("bseries", "all", shape="p2_k3")
    assert cli.euler_double_cover is topology.euler_double_cover
    assert tracer.calls["cohom.deformed_solution"] == 1
    assert tracer.calls["topology.euler_double_cover"] == 1


def test_all_computes_the_mirror_map_once():
    # `all` prints z(q) and feeds the same series to the A-model
    assert _traced("all", shape="p3_quartic").calls["mirror.mirror_map"] == 1


def test_euler_builds_each_polytope_once():
    # euler on the quartic (r = 1): Delta, Delta*, Delta_1, nabla_1 = nabla,
    # nabla*, and Lambda and Lambda_dual, each one hull of the origin and the
    # tagged part vertices; the dual side is read off the primal (its part
    # polytopes are the nabla_i), so no dual nef-partition is loaded, and
    # each polar dual is built once however often it is asked for
    tracer = _traced("euler", shape="p3_quartic")
    assert tracer.calls["polytope.hull"] == 7
    assert tracer.calls["nefpart.load"] == 1


def test_euler_scans_no_dilations():
    # every volume comes from the pulling triangulation of the polytope's
    # own facet-vertex incidences: no dilated box is scanned and no face is
    # built as a polytope of its own; a lower-dimensional hull lifts its
    # facets through the Smith transform it already holds, a full-dimensional
    # one needs none, and no facet runs another; validation builds no hull of
    # the Minkowski sum of the parts
    tracer = _traced("euler", shape="p3_eight_hyperplanes")
    assert tracer.counters["polytope.normalized_volume.dilation_scans"] == 0
    assert tracer.calls["polytope.hull"] == 16
    assert 0 < tracer.flat_hulls < tracer.calls["polytope.hull"]
    assert tracer.calls["linalg.smith_normal_form"] == tracer.flat_hulls


def test_quantum_and_cohom_jobs_build_no_nabla():
    # Delta, Delta* and the four Delta_i; nabla is built only when read, so
    # the one Smith form is the GKZ kernel's (smith_relations)
    for command in ("mirror-map", "ifunction", "bseries"):
        tracer = _traced(command, shape="p3_eight_hyperplanes")
        assert tracer.calls["polytope.hull"] == 6
        assert tracer.flat_hulls == 0
        assert tracer.calls["linalg.smith_normal_form"] == 1
        assert tracer.calls["gkz.build_gkz"] == 1


def test_dual_nef_builds_each_polytope_once():
    # Delta, Delta*, Delta_1, nabla_1 = nabla, nabla*; the dual partition's
    # parts are read off nabla* and the Delta_i, and its own polytopes (the
    # nabla_i, Delta_i, Delta and nabla) are not rebuilt
    tracer = _traced("dual-nef", shape="p3_quartic")
    assert tracer.calls["polytope.hull"] == 5
    assert tracer.calls["nefpart.load"] == 1


def test_mirror_map_reverts_without_composing():
    # z(q) is one Lagrange reversion, which forms no composition
    tracer = _traced("mirror-map", shape="p3_quartic")
    assert tracer.calls["series.reversion.rational"] == 1
    assert tracer.calls["series.compose.rational"] == 0


def test_cohom_jobs_form_no_nilpotent_product():
    # the B-series prefactor z^eps shifts eps-slots instead of multiplying
    # each coefficient by eps^k / k!, and the kernel multiplies on ints
    tracer = _traced("bseries", "ifunction", shape="p3_quartic")
    assert tracer.calls["cohom.deformed_solution"] == 1
    assert tracer.calls["series.mul.nilpotent"] == 0


def test_series_products_per_job(monkeypatch):
    # calls of the Q product kernel at N = 4: the B-series multiplies no two
    # series (z^eps shifts eps-slices), the I-function forms one product
    # (B/A), and the mirror map four (tau/omega0, then h^2, h^3, h^4 in the
    # Lagrange reversion)
    calls = 0
    product = series._product

    def counting(*args):
        nonlocal calls
        calls += 1
        return product(*args)

    monkeypatch.setattr(series, "_product", counting)
    for shape in ("p2_k3", "p3_quartic", "p3_eight_hyperplanes"):
        for command, expected in (("bseries", 0), ("ifunction", 1), ("mirror-map", 4)):
            calls = 0
            config = cli.JobConfig(command=command, input=str(DATA / f"{shape}.json"), N=4, fmt="json")
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.run(config) == 0
            assert (shape, command, calls) == (shape, command, expected)


def _count_fractions(monkeypatch, build):
    """(result of build(), number of Fraction objects constructed by it)."""
    built = 0
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    try:
        result = build()
    finally:
        monkeypatch.undo()
    return result, built


def test_hypergeometric_kernel_builds_one_fraction_per_coefficient(monkeypatch):
    # the recurrence runs on integer numerators over one denominator: one
    # Fraction per output coefficient of c_1..c_N, plus c_0 = 1 and the zeros
    # that pad c_0 and the series, are all it builds (the EpsPoly loop builds
    # ~m^2 per order and more per factor)
    m, N = 4, 16
    num, den = [(Fraction(1, 2), 4)], [(Fraction(1), 1)] * 4
    s, built = _count_fractions(monkeypatch, lambda: hypergeometric_series(num, den, m, N))
    assert (s.m, s.N) == (m, N)
    assert built <= m * (N + 1) + 2


def test_rational_product_builds_one_fraction_per_coefficient(monkeypatch):
    # the product runs on integer numerators over one denominator: its N + 1
    # output coefficients and the zero that pads a series are the only
    # Fractions it builds (the term-by-term loop builds ~N^2)
    rng = random.Random(16)
    N = 16
    a, b = (
        RationalSeries([Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(N + 1)], N)
        for _ in range(2)
    )
    product, built = _count_fractions(monkeypatch, lambda: a * b)
    assert product.N == N
    assert built <= N + 2
