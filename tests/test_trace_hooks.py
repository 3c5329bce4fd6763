"""The layer spans of ``perfbench/spans.py`` still bind to the program.

``perfbench/run.py --trace 1`` patches module attributes by name; a rename
in the package would make ``install`` fail or leave a span silent.  This
runs the real hooks on two small jobs and checks the call counts, and
counts the work some layers do without timing them.
"""

import contextlib
import importlib.util
import io
import json
import random
from fractions import Fraction

from conftest import DATA, REPO

from fracmirror import cli, cohom, gkz, linalg, mirror, polytope, series, topology
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


def _traced(*commands, shape, folder=DATA):
    """Run each command at N=4 on one shape in ``folder`` under the real hooks.

    ``tracer.flat_hulls`` counts the point sets of lower dimension than their
    ambient space, which build no hull.
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
            config = cli.JobConfig(command=command, input=str(folder / f"{shape}.json"), N=4, fmt="json")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert cli.run(config) == 0
    finally:
        undo()
        LatticePolytope.__init__ = init
    return tracer


def _count_echelons(monkeypatch):
    """Count the calls of ``linalg.echelon`` in a one-entry list."""
    calls = [0]
    echelon = linalg.echelon

    def counting(*args):
        calls[0] += 1
        return echelon(*args)

    monkeypatch.setattr(linalg, "echelon", counting)
    return calls


def test_spans_record_each_stage_once_per_job():
    tracer = _traced("bseries", "all", shape="p2_k3")
    assert cli.euler_double_cover is topology.euler_double_cover
    assert tracer.calls["cohom.deformed_solution"] == 1
    assert tracer.calls["topology.euler_double_cover"] == 1


def test_all_computes_the_mirror_map_once():
    # `all` prints z(q) in its mirror-map section; its yukawa section reads
    # K(q) off the Frobenius pair and builds no second one
    assert _traced("all", shape="p3_quartic").calls["mirror.mirror_map"] == 1


def test_euler_builds_each_polytope_once():
    # euler on the quartic (r = 1) builds one hull, Delta; Delta is a
    # simplex, so Delta_1 is read off its vertices and nabla* off their
    # labels; Delta* and nabla are polar duals read off their primal, Lambda
    # and Lambda_dual are read off one pairing of the tagged Delta_i
    # vertices with the tagged rays of each part and no nabla_k is built;
    # the dual side is read off the primal, so no dual nef-partition is
    # loaded
    tracer = _traced("euler", shape="p3_quartic")
    assert tracer.calls["polytope.hull"] == 1
    assert tracer.calls["nefpart.load"] == 1


def test_one_elimination_per_hull(monkeypatch):
    # one fraction-free pass on the homogenized points gives the affine
    # dimension, the DD seed and its rays, so a full-dimensional hull runs it
    # once, one DD pass and no echelon; a simplex's facets are its seed rays,
    # so it runs no DD pass; a flat set runs the same pass for its dimension
    # and builds no hull; euler on the quartic builds 1 full-dimensional
    # hull, Delta, which is a simplex, so Delta_1 and nabla* are read off its
    # vertices with no DD pass either
    calls = {"row_basis": 0, "echelon": 0, "dd": 0}
    for module, name, key in (
        (linalg, "row_basis", "row_basis"),
        (linalg, "echelon", "echelon"),
        (polytope, "_dd_extreme_rays", "dd"),
    ):
        def counting(*args, _key=key, _original=getattr(module, name)):
            calls[_key] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)

    def counted(build):
        for name in calls:
            calls[name] = 0
        build()
        return dict(calls)

    full = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (0, 0, 0)]
    assert counted(lambda: LatticePolytope(full)) == {"row_basis": 1, "echelon": 0, "dd": 1}
    simplex = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    assert counted(lambda: LatticePolytope(simplex)) == {"row_basis": 1, "echelon": 0, "dd": 0}
    flat = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0), (1, 1, 0)]
    assert counted(lambda: LatticePolytope(flat)) == {"row_basis": 1, "echelon": 0, "dd": 0}

    def euler():
        config = cli.JobConfig(command="euler", input=str(DATA / "p3_quartic.json"), N=4, fmt="json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(config) == 0

    assert counted(euler) == {"row_basis": 1, "echelon": 0, "dd": 0}


def test_euler_scans_no_dilations(monkeypatch):
    # every volume comes from the pulling triangulation of the polytope's
    # own facet-vertex incidences: no dilated box is scanned and no face is
    # built as a polytope of its own; validation builds no hull of the
    # Minkowski sum of the parts, the one hull (Delta) is full-dimensional,
    # nabla* is read off the labels of the Delta_i vertices, no nabla_k is
    # built and no echelon runs
    echelons = _count_echelons(monkeypatch)
    tracer = _traced("euler", shape="p3_eight_hyperplanes")
    assert tracer.counters["polytope.normalized_volume.dilation_scans"] == 0
    assert tracer.calls["polytope.hull"] == 1
    assert tracer.flat_hulls == 0
    assert echelons[0] == 0


def test_topology_jobs_scan_lattice_points_only_for_n_above_3():
    # euler, hodge and all build Delta alone (each input is a simplex, so
    # nabla* is read off the labels of the Delta_i vertices); h^{1,1} is read
    # off chi for n = 2 and off the volumes of Delta* and nabla* for n = 3,
    # so only the P4 input counts lattice points: it scans Delta*, and counts
    # nabla* by the nef-partition identity, since its rays span Z^4
    golden = REPO / "tests" / "golden"
    for shape, folder, scans in [
        ("p2_k3", DATA, 0),
        ("p3_quartic", DATA, 0),
        ("p3_eight_hyperplanes", DATA, 0),
        ("p4_311", golden, 1),
    ]:
        for command in ("euler", "hodge", "all"):
            tracer = _traced(command, shape=shape, folder=folder)
            assert (shape, command, tracer.calls["polytope.hull"]) == (shape, command, 1)
            assert tracer.calls["accel.count_points"] == scans, (shape, command)


def test_quantum_and_cohom_jobs_build_no_nabla(monkeypatch):
    # Delta is the one hull, and a simplex, so it runs no DD pass: its facets
    # are the seed rays of its one elimination; the rays are its facet
    # normals, so Delta* is not built; the four Delta_i and the GKZ kernel
    # vector are read off its vertices (no cut, no echelon, and no A, alpha
    # or beta), and nabla is built only when read
    echelons = _count_echelons(monkeypatch)
    for command in ("mirror-map", "ifunction", "bseries"):
        echelons[0] = 0
        tracer = _traced(command, shape="p3_eight_hyperplanes")
        assert tracer.calls["polytope.hull"] == 1
        assert tracer.calls["polytope.dd_extreme_rays"] == 0
        assert tracer.calls["polytope.polar_dual"] == 0
        assert tracer.flat_hulls == 0
        assert echelons[0] == 0
        assert tracer.calls["gkz.build_gkz"] == 0


def test_multiparameter_series_jobs_build_no_gkz_system():
    # off a simplex the GKZ kernel has rank p - n > 1 for p rays, so every
    # series command refuses the hexagon before it builds A, alpha and beta
    spans = _load_spans()
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        for command in ("pf", "mirror-map", "yukawa", "ifunction", "bseries"):
            tracer.calls["gkz.build_gkz"] = 0
            err = io.StringIO()
            config = cli.JobConfig(command, str(REPO / "tests" / "golden" / "hexagon.json"), N=4, fmt="json")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.run(config)
            assert (command, code, err.getvalue(), tracer.calls["gkz.build_gkz"]) == (
                command, 3, "error: multiparameter moduli unsupported\n", 0
            )
    finally:
        undo()


def test_dual_nef_builds_each_polytope_once():
    # Delta alone, full-dimensional: each input is a simplex, so nabla*, the
    # nabla_k that dual-nef prints and the dual partition's parts are read
    # off the labels of the Delta_i vertices; Delta* and nabla are polar
    # duals read off their primal, and the dual partition's own polytopes
    # (the nabla_k, Delta_i, Delta and nabla) are not rebuilt
    golden = REPO / "tests" / "golden"
    for shape, folder in [
        ("p2_k3", DATA),
        ("p3_quartic", DATA),
        ("p3_eight_hyperplanes", DATA),
        ("p4_311", golden),
    ]:
        tracer = _traced("dual-nef", shape=shape, folder=folder)
        assert (shape, tracer.calls["polytope.hull"], tracer.flat_hulls) == (shape, 1, 0)
        assert tracer.calls["nefpart.load"] == 1


def test_rejected_partition_builds_no_polytope_past_delta(tmp_path):
    # the hexagon's Delta_i for three 2-ray parts are lattice polytopes that
    # do not sum to Delta, which makes nabla non-reflexive: both diagnostics
    # come off the support test, with no nabla_k and no nabla built
    doc = {
        "delta": {"dim": 2, "vertices": [[1, 0], [0, 1], [-1, 0], [0, -1], [1, -1], [-1, 1]]},
        "parts": [[0, 1], [2, 3], [4, 5]],
    }
    path = tmp_path / "rejected.json"
    path.write_text(json.dumps(doc))
    spans = _load_spans()
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        for command in ("dual-nef", "euler"):
            tracer.calls["polytope.hull"] = 0
            err = io.StringIO()
            config = cli.JobConfig(command, str(path), N=4, fmt="json")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.run(config)
            assert (command, code, err.getvalue(), tracer.calls["polytope.hull"]) == (
                command,
                2,
                "error: invalid nef-partition input: Minkowski sum of part polytopes "
                "differs from delta; nabla is not reflexive\n",
                1,
            )
    finally:
        undo()


def test_topology_jobs_off_a_simplex_build_nabla_dual():
    # the hexagon is no simplex: its Delta_i are DD cuts, nabla* is the hull
    # of the union of their vertices, and the nabla_k are read off the
    # pairing, so every topology job builds Delta and nabla* (``all`` stops
    # at its series sections: the hexagon has more than one parameter)
    for command in ("dual-nef", "euler", "hodge"):
        tracer = _traced(command, shape="hexagon", folder=REPO / "tests" / "golden")
        assert (command, tracer.calls["polytope.hull"], tracer.flat_hulls) == (command, 2, 0)


def _count_lagrange(monkeypatch):
    """The k0 of each ``mirror._lagrange`` call, in a list that fills as they run."""
    k0s = []
    lagrange = mirror._lagrange

    def counting(powers, k0, *args):
        k0s.append(k0)
        return lagrange(powers, k0, *args)

    monkeypatch.setattr(mirror, "_lagrange", counting)
    return k0s


def test_mirror_map_reverts_without_composing(monkeypatch):
    # z(q) is one Lagrange reversion (k0 = 1), which forms no composition
    k0s = _count_lagrange(monkeypatch)
    _traced("mirror-map", shape="p3_quartic")
    assert k0s == [1]


def test_yukawa_reverts_and_composes_nothing(monkeypatch):
    # K(q) is read off the powers of h = exp(-A1/A0) by Lagrange-Buermann's
    # phi-form (k0 = 0) and Y in closed form, so a yukawa job reverts
    # nothing, builds no mirror map and solves no ODE (`all` still builds
    # one, for its mirror-map section)
    k0s = _count_lagrange(monkeypatch)
    tracer = _traced("yukawa", shape="p3_quartic")
    assert k0s == [0]
    for name in ("mirror.mirror_map", "picard_fuchs.yukawa_ode_rhs"):
        assert (name, tracer.calls[name]) == (name, 0)
    assert tracer.calls["mirror.yukawa_z"] == 1


def test_cohom_jobs_form_no_nilpotent_product():
    # the B-series prefactor z^eps shifts eps-slots instead of multiplying
    # each coefficient by eps^k / k!, and the kernel multiplies on ints
    tracer = _traced("bseries", "ifunction", shape="p3_quartic")
    assert tracer.calls["cohom.deformed_solution"] == 1
    assert tracer.calls["series.mul.nilpotent"] == 0


def test_bseries_formats_each_slice_column_once(monkeypatch):
    # log part k of the B-series is k zero columns (one prefix string) and
    # the first m - k eps-slices over k!: the writer reduces each coefficient
    # U_n[k] / E_n of the kernel once, against its own E_n (m (N + 1) small
    # gcds per job), and divides the reduced numerators by k! column by
    # column, so a job formats m (m + 1) / 2 slice columns and no zero
    # column: 5 and 15 on the P4 (3, 1, 1), 4 and 10 on the quartic, 3 and 6
    # on the K3
    calls = {"kernel": [], "reduce": [], "over": []}
    stages = ((cli, "b_series", "kernel"), (cohom, "_reduce", "reduce"), (cohom, "_over", "over"))
    for module, name, key in stages:
        stage = getattr(module, name)

        def counting(*args, _stage=stage, _calls=calls[key]):
            result = _stage(*args)
            _calls.append((args, result))
            return result

        monkeypatch.setattr(module, name, counting)
    inputs = (
        (REPO / "tests" / "golden" / "p4_311.json", 5),
        (DATA / "p3_quartic.json", 4),
        (DATA / "p2_k3.json", 3),
    )
    for path, m in inputs:
        for seen in calls.values():
            seen.clear()
        config = cli.JobConfig("bseries", str(path), N=16, fmt="json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(config) == 0
        [(_, S)] = calls["kernel"]
        assert (path.name, len(S), len(S.E)) == (path.name, m, 17)
        assert [args for args, _ in calls["reduce"]] == [(U, S.E) for U in S.U]
        assert (path.name, len(calls["over"])) == (path.name, m * (m + 1) // 2)


# calls of the Q product kernel per job at N = 4 and N = 16 on the three
# bundled shapes (the K3 surface has no Yukawa, so its yukawa job forms no
# product and its all job only its mirror-map section's).  A division is
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


def _assert_kernel_calls(monkeypatch, name, per_order, owner=series):
    """``owner.<name>`` runs per_order[N][command] times in a JSON job at N
    on each bundled shape; on the K3 surface yukawa is skipped and all
    makes only its mirror-map section's calls."""
    calls = 0
    kernel = getattr(owner, name)

    def counting(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    monkeypatch.setattr(owner, name, counting)
    for N, expected in per_order.items():
        for shape in ("p2_k3", "p3_quartic", "p3_eight_hyperplanes"):
            for command, count in expected.items():
                calls = 0
                config = cli.JobConfig(command=command, input=str(DATA / f"{shape}.json"), N=N, fmt="json")
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    assert cli.run(config) == 0
                if shape == "p2_k3" and command in ("yukawa", "all"):
                    count = expected["mirror-map"] if command == "all" else 0
                assert (N, shape, command, calls) == (N, shape, command, count)


def test_series_products_per_job(monkeypatch):
    _assert_kernel_calls(monkeypatch, "_product", _PRODUCTS_PER_JOB)


def test_series_recurrences_per_job(monkeypatch):
    _assert_kernel_calls(monkeypatch, "_recurrence", dict.fromkeys(_PRODUCTS_PER_JOB, _RECURRENCES_PER_JOB))


def test_series_exps_per_job(monkeypatch):
    per_order = dict.fromkeys(_PRODUCTS_PER_JOB, _EXPS_PER_JOB)
    _assert_kernel_calls(monkeypatch, "exp", per_order, owner=series.RationalSeries)


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


def test_hypergeometric_kernel_builds_no_fraction(monkeypatch):
    # the recurrence runs on integer numerators over one denominator, and the
    # eps-slices are handed over as integers (the EpsPoly loop builds ~m^2
    # Fractions per order and more per factor)
    m, N, ell = 4, 16, (1, 1, 1, 1, -4)
    for scale in (1, 4**4):
        s, built = _count_fractions(monkeypatch, lambda: hypergeometric_series(ell, m, N, scale))
        assert (len(s), {x.N for x in s}) == (m, {N})
        assert (scale, built) == (scale, 0)


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
    for name, op in ops.items():
        _, built = _count_fractions(monkeypatch, op)
        assert (name, built) == (name, 0)
    # in whole JSON jobs: the B-series and I-function text is written from
    # the kernel's integers, the I-function's unit check reads numerators,
    # and the front end builds none (the default normalization and the
    # factors' base 1/2 are module constants)
    for command in ("bseries", "ifunction"):
        config = cli.JobConfig(command, str(DATA / "p3_quartic.json"), N=N, fmt="json")

        def job(config=config):
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.run(config)

        code, built = _count_fractions(monkeypatch, job)
        assert (command, code, built) == (command, 0, 0)


def test_cohom_jobs_form_only_the_slices_they_read(monkeypatch):
    # the kernel hands over by order and builds a slice series when it is read:
    # a JSON bseries job writes every slice from the per-order pairs and forms
    # no series at all, and an ifunction job forms the two slices of B/A
    made = {"slices": 0, "series": 0}
    for module, key in ((gkz, "slices"), (series, "series")):
        make = module._make

        def counting(*args, _make=make, _key=key):
            made[_key] += 1
            return _make(*args)

        monkeypatch.setattr(module, "_make", counting)
    for shape in ("p2_k3", "p3_quartic", "p3_eight_hyperplanes"):
        for command, slices in (("bseries", 0), ("ifunction", 2)):
            made.update(slices=0, series=0)
            config = cli.JobConfig(command, str(DATA / f"{shape}.json"), N=16, fmt="json")
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.run(config) == 0
            assert (shape, command, made["slices"]) == (shape, command, slices)
            if command == "bseries":
                assert made["series"] == 0
