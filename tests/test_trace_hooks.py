"""How much work each job does, counted on the program's own functions.

The counts come from ``conftest.calls``, which records the calls of a
module attribute while the original runs.  One test loads
``perfbench/spans.py``, the tracer behind ``perfbench/run.py --trace 1``,
and checks that each of its spans still binds: it patches module
attributes by name, so a rename in the package would make ``install`` fail
or leave a span silent.
"""

import json
import random
from fractions import Fraction

from conftest import DATA, REPO, calls, run_job
from perfbench_module import load_perfbench

from fracmirror import _accel, cli, cohom, gkz, linalg, mirror, nefpart, polytope, series, topology
from fracmirror.gkz import hypergeometric_series
from fracmirror.nefpart import NefPartition
from fracmirror.polytope import LatticePolytope
from fracmirror.series import RationalSeries

GOLDEN = REPO / "tests" / "golden"

# the jobs of the binding test: every stage, each series kernel, a hull off
# a simplex and a lattice-point scan run in at least one of them
_BINDING_JOBS = [
    *((command, DATA / "p3_quartic.json") for command in ("all", "dual-nef", "ifunction", "bseries")),
    ("dual-nef", GOLDEN / "hexagon.json"),
    ("euler", GOLDEN / "hexagon.json"),
    ("euler", GOLDEN / "p4_311.json"),
]

# the spans and counters that read 0 on every job, and why; ``cli.run`` and
# ``cli.output_bytes`` are recorded by ``perfbench/run.py``, not ``install``
_NONE_PLACEHOLDER = "patches a name the package binds to None"
_NO_METHOD = "patches a _Series method that is None"
_NO_NILPOTENT = "a series is nilpotent when its ring's m is set, and RationalSeries.ring.m is None"
_DEAD_SPANS = {
    "accel.enumerate_points": _NONE_PLACEHOLDER,
    "gkz.holo_solution": _NONE_PLACEHOLDER,
    "linalg.det": _NONE_PLACEHOLDER,
    "linalg.smith_normal_form": _NONE_PLACEHOLDER,
    "picard_fuchs.yukawa_ode_rhs": _NONE_PLACEHOLDER,
    "polytope.lattice_points": _NONE_PLACEHOLDER,
    **{f"series.{op}.rational": _NO_METHOD for op in ("log", "compose", "reversion")},
    **{f"series.{op}.nilpotent": _NO_NILPOTENT for op in ("mul", "inverse", "exp", "log", "compose", "reversion")},
}
_DEAD_COUNTERS = {
    "polytope.normalized_volume.dilation_scans": "bumped by LatticePolytope.dilate_lattice_point_count, None",
    "accel.enumerate_points.box_points": "bumped by _accel.enumerate_points, None",
    "accel.bigint_calls": "bumped by _accel._int64_safe, None",
}


def test_every_span_records_calls_or_is_dead():
    spans = load_perfbench("spans")
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        for command, path in _BINDING_JOBS:
            assert (command, path.name, run_job(command, path)[0]) == (command, path.name, 0)
    finally:
        undo()
    live = {name for name, n in tracer.calls.items() if n}
    assert (len(live), set(spans.SPANS) - live - {"cli.run"}) == (21, set(_DEAD_SPANS))
    live = {name for name, n in tracer.counters.items() if n}
    assert set(spans.COUNTERS) - live - {"cli.output_bytes"} == set(_DEAD_COUNTERS)


def _hulls(monkeypatch):
    """The ``LatticePolytope`` constructor's calls, each polytope first."""
    return calls(monkeypatch, LatticePolytope, "__init__")


def _flat(hulls):
    """How many of the polytopes span less than their ambient space: those
    build no hull."""
    return sum(P.affine_dim < P.ambient_dim for P, *_ in hulls)


def test_spans_record_each_stage_once_per_job(monkeypatch):
    assert cli.euler_double_cover is topology.euler_double_cover
    solved = calls(monkeypatch, cohom, "deformed_solution")
    covers = calls(monkeypatch, cli, "euler_double_cover")
    for command in ("bseries", "all"):
        assert run_job(command, DATA / "p2_k3.json")[0] == 0
    assert (len(solved), len(covers)) == (1, 1)


def _mirror_maps(monkeypatch):
    """The calls of ``mirror_map`` under both names it is read by."""
    return [calls(monkeypatch, module, "mirror_map") for module in (cli, mirror)]


def test_all_computes_the_mirror_map_once(monkeypatch):
    # `all` prints z(q) in its mirror-map section; its yukawa section reads
    # K(q) off the Frobenius pair and builds no second one
    maps = _mirror_maps(monkeypatch)
    assert run_job("all", DATA / "p3_quartic.json")[0] == 0
    assert sum(map(len, maps)) == 1


def test_euler_builds_each_polytope_once(monkeypatch):
    # euler on the quartic (r = 1) builds one hull, Delta; Delta is a
    # simplex, so Delta_1 is read off its vertices and nabla* is not built;
    # Delta* is the polar dual read off its primal, Lambda and Lambda_dual
    # are read off one pairing of the tagged Delta_i vertices with the
    # tagged rays of each part and no nabla_k is built; the dual side is
    # read off the primal, so no dual nef-partition is loaded
    hulls, loads = _hulls(monkeypatch), calls(monkeypatch, NefPartition, "__init__")
    assert run_job("euler", DATA / "p3_quartic.json")[0] == 0
    assert (len(hulls), len(loads)) == (1, 1)


def test_one_elimination_per_hull(monkeypatch):
    # one fraction-free pass on the homogenized points gives the affine
    # dimension, the DD seed and its rays, so a full-dimensional hull runs it
    # once, one DD pass and no echelon; a simplex's facets are its seed rays,
    # so it runs no DD pass; a flat set runs the same pass for its dimension
    # and builds no hull; euler on the quartic builds 1 full-dimensional
    # hull, Delta, which is a simplex, so Delta_1 and nabla* are read off its
    # vertices with no DD pass either
    seen = {
        "row_basis": calls(monkeypatch, linalg, "row_basis"),
        "echelon": calls(monkeypatch, linalg, "echelon"),
        "dd": calls(monkeypatch, polytope, "_dd_extreme_rays"),
    }

    def counted(build):
        for found in seen.values():
            found.clear()
        build()
        return {name: len(found) for name, found in seen.items()}

    full = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (0, 0, 0)]
    assert counted(lambda: LatticePolytope(full)) == {"row_basis": 1, "echelon": 0, "dd": 1}
    simplex = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    assert counted(lambda: LatticePolytope(simplex)) == {"row_basis": 1, "echelon": 0, "dd": 0}
    flat = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0), (1, 1, 0)]
    assert counted(lambda: LatticePolytope(flat)) == {"row_basis": 1, "echelon": 0, "dd": 0}

    def euler():
        assert run_job("euler", DATA / "p3_quartic.json")[0] == 0

    assert counted(euler) == {"row_basis": 1, "echelon": 0, "dd": 0}


def test_euler_scans_no_dilations(monkeypatch):
    # every volume comes from the pulling triangulation of the polytope's
    # own facet-vertex incidences (a polytope has no dilated-box count) and
    # no face is built as a polytope of its own; validation builds no hull
    # of the Minkowski sum of the parts, the one hull (Delta) is
    # full-dimensional, nabla* is not built, no nabla_k is built and no
    # echelon runs
    hulls, echelons = _hulls(monkeypatch), calls(monkeypatch, linalg, "echelon")
    assert run_job("euler", DATA / "p3_eight_hyperplanes.json")[0] == 0
    assert (len(hulls), _flat(hulls), len(echelons)) == (1, 0, 0)


def test_topology_jobs_on_a_spanning_simplex_scan_no_lattice_points(monkeypatch):
    # euler, hodge and all build Delta alone: each input is a simplex whose
    # rays span Z^n, so chi(X_dual), #Delta* and #nabla* are read off c, L
    # and the part sums, with no nabla* built and no lattice point scanned
    hulls, scans = _hulls(monkeypatch), calls(monkeypatch, _accel, "count_points")
    for path in [
        DATA / "p2_k3.json",
        DATA / "p3_quartic.json",
        DATA / "p3_eight_hyperplanes.json",
        GOLDEN / "p4_311.json",
    ]:
        for command in ("euler", "hodge", "all"):
            hulls.clear()
            scans.clear()
            assert run_job(command, path)[0] == 0
            assert (path.stem, command, len(hulls), len(scans)) == (path.stem, command, 1, 0)


def test_quantum_and_cohom_jobs_build_no_nabla(monkeypatch):
    # Delta is the one hull, and a simplex, so it runs no DD pass: its facets
    # are the seed rays of its one elimination; the rays are its facet
    # normals, so Delta* is not built; the four Delta_i and the GKZ kernel
    # vector are read off its vertices (no cut, no echelon, and no A, alpha
    # or beta), and nabla is built only when read
    seen = {
        "hulls": _hulls(monkeypatch),
        "dd": calls(monkeypatch, polytope, "_dd_extreme_rays"),
        "nefpart dd": calls(monkeypatch, nefpart, "_dd_extreme_rays"),
        "polar duals": calls(monkeypatch, LatticePolytope, "polar_dual"),
        "echelons": calls(monkeypatch, linalg, "echelon"),
        "GKZ systems": calls(monkeypatch, cli, "build_gkz"),
    }
    for command in ("mirror-map", "ifunction", "bseries"):
        for found in seen.values():
            found.clear()
        assert run_job(command, DATA / "p3_eight_hyperplanes.json")[0] == 0
        assert _flat(seen["hulls"]) == 0
        assert {name: len(found) for name, found in seen.items()} == {
            "hulls": 1, "dd": 0, "nefpart dd": 0, "polar duals": 0, "echelons": 0, "GKZ systems": 0
        }, command


def test_multiparameter_series_jobs_build_no_gkz_system(monkeypatch):
    # off a simplex the GKZ kernel has rank p - n > 1 for p rays, so every
    # series command refuses the hexagon before it builds A, alpha and beta
    built = calls(monkeypatch, cli, "build_gkz")
    for command in ("pf", "mirror-map", "yukawa", "ifunction", "bseries"):
        code, _, err = run_job(command, GOLDEN / "hexagon.json")
        assert (command, code, err, built) == (command, 3, "error: multiparameter moduli unsupported\n", [])


def test_dual_nef_builds_each_polytope_once(monkeypatch):
    # Delta alone, full-dimensional: each input is a simplex, so nabla*, the
    # nabla_k that dual-nef prints and the dual partition's parts are read
    # off the labels of the Delta_i vertices; Delta* and nabla are polar
    # duals read off their primal, and the dual partition's own polytopes
    # (the nabla_k, Delta_i, Delta and nabla) are not rebuilt
    hulls, loads = _hulls(monkeypatch), calls(monkeypatch, NefPartition, "__init__")
    for path in [
        DATA / "p2_k3.json",
        DATA / "p3_quartic.json",
        DATA / "p3_eight_hyperplanes.json",
        GOLDEN / "p4_311.json",
    ]:
        hulls.clear()
        loads.clear()
        assert run_job("dual-nef", path)[0] == 0
        assert (path.stem, len(hulls), _flat(hulls), len(loads)) == (path.stem, 1, 0, 1)


def test_rejected_partition_builds_no_polytope_past_delta(monkeypatch, tmp_path):
    # the hexagon's Delta_i for three 2-ray parts are lattice polytopes that
    # do not sum to Delta, which makes nabla non-reflexive: both diagnostics
    # come off the support test, with no nabla_k and no nabla built
    doc = {
        "delta": {"dim": 2, "vertices": [[1, 0], [0, 1], [-1, 0], [0, -1], [1, -1], [-1, 1]]},
        "parts": [[0, 1], [2, 3], [4, 5]],
    }
    path = tmp_path / "rejected.json"
    path.write_text(json.dumps(doc))
    hulls = _hulls(monkeypatch)
    for command in ("dual-nef", "euler"):
        hulls.clear()
        code, _, err = run_job(command, path)
        assert (command, code, err, len(hulls)) == (
            command,
            2,
            "error: invalid nef-partition input: Minkowski sum of part polytopes "
            "differs from delta; nabla is not reflexive\n",
            1,
        )


def test_topology_jobs_off_a_simplex_build_nabla_dual(monkeypatch):
    # the hexagon is no simplex: its Delta_i are DD cuts, nabla* is the hull
    # of the union of their vertices, and the nabla_k are read off the
    # pairing, so every topology job builds Delta and nabla* (``all`` stops
    # at its series sections: the hexagon has more than one parameter)
    hulls = _hulls(monkeypatch)
    for command in ("dual-nef", "euler", "hodge"):
        hulls.clear()
        assert run_job(command, GOLDEN / "hexagon.json")[0] == 0
        assert (command, len(hulls), _flat(hulls)) == (command, 2, 0)


def test_mirror_map_reverts_without_composing(monkeypatch):
    # z(q) is one Lagrange reversion (k0 = 1), which forms no composition
    lagrange = calls(monkeypatch, mirror, "_lagrange")
    assert run_job("mirror-map", DATA / "p3_quartic.json")[0] == 0
    assert [k0 for _, k0, *_ in lagrange] == [1]


def test_yukawa_reverts_and_composes_nothing(monkeypatch):
    # K(q) is read off the powers of h = exp(-A1/A0) by Lagrange-Buermann's
    # phi-form (k0 = 0) and Y in closed form, so a yukawa job reverts
    # nothing and builds no mirror map (`all` still builds one, for its
    # mirror-map section)
    lagrange, maps = calls(monkeypatch, mirror, "_lagrange"), _mirror_maps(monkeypatch)
    yukawas = calls(monkeypatch, mirror, "yukawa_z")
    assert run_job("yukawa", DATA / "p3_quartic.json")[0] == 0
    assert ([k0 for _, k0, *_ in lagrange], sum(map(len, maps)), len(yukawas)) == ([0], 0, 1)


def test_cohom_jobs_form_no_nilpotent_product(monkeypatch):
    # the B-series prefactor z^eps shifts eps-slots instead of multiplying
    # each coefficient by eps^k / k!, and the kernel multiplies on ints, so
    # a bseries job forms no product (``_PRODUCTS_PER_JOB``); of the two
    # jobs only bseries reads the deformed solution
    solved = calls(monkeypatch, cohom, "deformed_solution")
    for command in ("bseries", "ifunction"):
        assert run_job(command, DATA / "p3_quartic.json")[0] == 0
    assert len(solved) == 1


def test_bseries_formats_each_slice_column_once(monkeypatch):
    # log part k of the B-series is k zero columns (one prefix string) and
    # the first m - k eps-slices over k!: the writer reduces each coefficient
    # U_n[k] / E_n of the kernel once, against its own E_n (m (N + 1) small
    # gcds per job), and divides the reduced numerators by k! column by
    # column, so a job formats m (m + 1) / 2 slice columns and no zero
    # column: 5 and 15 on the P4 (3, 1, 1), 4 and 10 on the quartic, 3 and 6
    # on the K3
    kernels = calls(monkeypatch, cli, "b_series")
    reduced = calls(monkeypatch, cohom, "_reduce")
    over = calls(monkeypatch, cohom, "_over")
    for path, m in ((GOLDEN / "p4_311.json", 5), (DATA / "p3_quartic.json", 4), (DATA / "p2_k3.json", 3)):
        for seen in (kernels, reduced, over):
            seen.clear()
        assert run_job("bseries", path, N=16)[0] == 0
        [args] = kernels
        S = cohom.b_series(*args)
        assert (path.name, len(S), len(S.E)) == (path.name, m, 17)
        assert reduced == [(U, S.E) for U in S.U]
        assert (path.name, len(over)) == (path.name, m * (m + 1) // 2)


# calls of the Q product kernel per job at N = 4 and N = 16 on each
# threefold (a surface or a fourfold has no Yukawa, so its yukawa job forms
# no product and its all job only its mirror-map section's).  A division is
# one recurrence and forms no product.  The B-series multiplies no two
# series (z^eps shifts eps-slices) and the I-function only divides (B/A).
# The Frobenius pair divides r = tau/omega0 at z = s x and forms the powers
# of h = exp(-r) at order N - 1 in baby and giant steps, m = isqrt(N):
# h^2..h^m and h^(2m)..h^(jm), jm <= N - 1 (N = 4: h^2; N = 16: h^2, h^3,
# h^4, h^8, h^12); the mirror map's Lagrange reversion reads them.  The
# yukawa job reverts nothing: it forms omega0(s x)^2 for Y in closed form
# and (1 + theta r)^2, which Y is divided by, and the m products G h^a of K(q) by Lagrange-Buermann
# (N = 4: 2 + 1 + 2; N = 16: 2 + 5 + 4).  An all job forms the powers once
# for both sections.  No series is moved from x to z (the writer prints
# each coefficient over D s^n), and the product of omega0(s x)^2 with the
# two-term p4(s x) is an O(N) sum, so neither forms a product.
_PRODUCTS_PER_JOB = {
    4: {"bseries": 0, "ifunction": 0, "mirror-map": 1, "yukawa": 5, "all": 5},
    16: {"bseries": 0, "ifunction": 0, "mirror-map": 5, "yukawa": 11, "all": 11},
}

# calls of the recurrence behind a division, inverse and exp per job at
# both orders: ifunction divides B/A; the pair divides r = tau/omega0 and
# exponentiates -r for h; the mirror map inverts h for q = x/h; yukawa
# inverts p4 omega0^2 for Y and divides by (1 + theta r)^2.  An all job
# forms r and h once for both sections.
_RECURRENCES_PER_JOB = {"bseries": 0, "ifunction": 1, "mirror-map": 3, "yukawa": 4, "all": 5}

# calls of RationalSeries.exp per job at both orders: h = exp(-r) in the
# Frobenius pair, and no other; q = x/h forms no exp(r)
_EXPS_PER_JOB = {"bseries": 0, "ifunction": 0, "mirror-map": 1, "yukawa": 1, "all": 1}

# the bundled shapes and the fourfold P4 (3, 1, 1)
_SERIES_INPUTS = [
    *(DATA / f"{shape}.json" for shape in ("p2_k3", "p3_quartic", "p3_eight_hyperplanes")),
    GOLDEN / "p4_311.json",
]


def _assert_kernel_calls(monkeypatch, name, per_order, owner=series):
    """``owner.<name>`` runs per_order[N][command] times in a JSON job at N
    on each of ``_SERIES_INPUTS``; off a threefold yukawa is skipped and
    all makes only its mirror-map section's calls."""
    seen = calls(monkeypatch, owner, name)
    for N, expected in per_order.items():
        for path in _SERIES_INPUTS:
            threefold = json.loads(path.read_text())["delta"]["dim"] == 3
            for command, count in expected.items():
                seen.clear()
                assert run_job(command, path, N=N)[0] == 0
                if not threefold and command in ("yukawa", "all"):
                    count = expected["mirror-map"] if command == "all" else 0
                assert (N, path.stem, command, len(seen)) == (N, path.stem, command, count)


def test_series_products_per_job(monkeypatch):
    _assert_kernel_calls(monkeypatch, "_product", _PRODUCTS_PER_JOB)


def test_series_recurrences_per_job(monkeypatch):
    _assert_kernel_calls(monkeypatch, "_recurrence", dict.fromkeys(_PRODUCTS_PER_JOB, _RECURRENCES_PER_JOB))


def test_series_exps_per_job(monkeypatch):
    per_order = dict.fromkeys(_PRODUCTS_PER_JOB, _EXPS_PER_JOB)
    _assert_kernel_calls(monkeypatch, "exp", per_order, owner=series.RationalSeries)


def test_hypergeometric_kernel_builds_no_fraction(monkeypatch):
    # the recurrence runs on integer numerators over one denominator, and the
    # eps-slices are handed over as integers (the EpsPoly loop builds ~m^2
    # Fractions per order and more per factor)
    m, N, ell = 4, 16, (1, 1, 1, 1, -4)
    built = calls(monkeypatch, Fraction, "__new__")
    for scale in (1, 4**4):
        built.clear()
        s = hypergeometric_series(ell, m, N, scale)
        assert (scale, len(built)) == (scale, 0)
        assert (len(s), {x.N for x in s}) == (m, {N})


def test_rational_kernels_build_no_fraction(monkeypatch):
    # a series is integer numerators over one denominator, and every kernel
    # works on those: none builds a Fraction (the term-by-term loops build
    # ~N^2, and reading ``c`` builds N + 1)
    rng = random.Random(16)
    N = 16
    a, b = (
        RationalSeries([Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(N + 1)], N)
        for _ in range(2)
    )
    f, h, x = a + -a.coeff(0), a.inverse(), Fraction(3, 4)
    ops = {
        "product": lambda: a * b,
        "sum": lambda: a + b,
        "difference": lambda: a + -b,
        "scalar product": lambda: a * x,
        "inverse": a.inverse,
        "exp": f.exp,
        "Lagrange powers": lambda: series._lagrange_powers(h),
        "Lagrange reversion": lambda: series._lagrange(series._lagrange_powers(h), 1),
        "Lagrange phi-form": lambda: series._lagrange(series._lagrange_powers(h), 0, b),
        "theta": a.theta,
        "shift": lambda: a.shift(2),
        "truncate": lambda: a.truncate(N - 3),
        "to_json": a.to_json,
    }
    built = calls(monkeypatch, Fraction, "__new__")
    for name, op in ops.items():
        built.clear()
        op()
        assert (name, len(built)) == (name, 0)
    # in whole JSON jobs: the B-series and I-function text is written from
    # the kernel's integers, the I-function's unit check reads numerators,
    # and the front end builds none (the default normalization and the
    # factors' base 1/2 are module constants)
    for command in ("bseries", "ifunction"):
        built.clear()
        code = run_job(command, DATA / "p3_quartic.json", N=N)[0]
        assert (command, code, len(built)) == (command, 0, 0)


def test_cohom_jobs_form_only_the_slices_they_read(monkeypatch):
    # the kernel hands over by order and builds a slice series when it is read:
    # a JSON bseries job writes every slice from the per-order pairs and forms
    # no series at all, and an ifunction job forms the two slices of B/A
    slices, made = calls(monkeypatch, gkz, "_make"), calls(monkeypatch, series, "_make")
    for shape in ("p2_k3", "p3_quartic", "p3_eight_hyperplanes"):
        for command, count in (("bseries", 0), ("ifunction", 2)):
            slices.clear()
            made.clear()
            assert run_job(command, DATA / f"{shape}.json", N=16)[0] == 0
            assert (shape, command, len(slices)) == (shape, command, count)
            if command == "bseries":
                assert made == []
