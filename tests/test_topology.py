"""Euler characteristics and Hodge tables of the branched double covers."""

import functools
import itertools
import json
import math
import random
from collections import Counter

import pytest
from conftest import (
    DATA,
    GEN,
    REPO,
    SMALL_REFLEXIVE,
    accepted_partitions,
    calls,
    cayley_pyramids,
    load_case,
    reflexive_3polytopes,
    reflexive_4polytopes,
    reflexive_polygons,
    run_job,
    set_partitions,
)

from fracmirror import _accel, cli, topology
from fracmirror.errors import FracmirrorError, SmoothnessError
from fracmirror.gkz import build_gkz
from fracmirror.nefpart import NefPartition, simplex_relation, validate_nef_partition
from fracmirror.polytope import LatticePolytope
from fracmirror.topology import (
    CoverTopology,
    HodgeTable,
    _nabla_dual_count,
    _point_counts,
    euler_double_cover,
    hodge_numbers,
)
from oracles import (
    boundary_lattice_point_count,
    cayley_polytope,
    chi_cover_by_strata,
    dk_intersection_euler,
    euler_snc_union_oracle,
    interior_lattice_points,
    lattice_points_by_box,
    pyramid_over,
    ray_lattice_index,
)


QUARTIC = [(3, -1, -1), (-1, 3, -1), (-1, -1, 3), (-1, -1, -1)]
UNIT3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
TRIANGLE_2H = [(2, -1), (-1, 2), (-1, -1)]
GOLDEN = REPO / "tests" / "golden"


# ------------------------------------------------------- chi of the base


def _chi(vertices):
    """chi of the crepant-resolved toric variety of a reflexive polytope: the
    normalized volume of its polar dual, the fan polytope, whose unimodular
    triangulations have that many maximal cones."""
    return LatticePolytope(vertices).polar_dual().normalized_volume()


def test_euler_mpcp_known_values():
    assert _chi(QUARTIC) == 4  # smooth ambient space
    assert _chi(UNIT3) == 64  # crepant resolution
    assert _chi(TRIANGLE_2H) == 3
    assert _chi([(1, 0), (0, 1), (-1, -1)]) == 9


# -------------------------------------------------- open-stratum chi values


def test_dk_single_part_unit_triangle():
    # one divisor in a surface: chi of the open curve in the torus
    tri = LatticePolytope([(0, 0), (1, 0), (0, 1)])
    assert dk_intersection_euler([tri], 2) == -1


def test_dk_single_part_quartic_volume():
    assert dk_intersection_euler([LatticePolytope(QUARTIC)], 3) == 64


def test_dk_single_part_cubic_surface_negative():
    assert dk_intersection_euler([LatticePolytope(TRIANGLE_2H)], 2) == -9


def test_dk_two_parts_cross_term():
    # quartic surface and a hyperplane in the same 3-torus
    H = LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    D = LatticePolytope(QUARTIC)
    lam12 = pyramid_over(cayley_polytope([D, H]))
    assert lam12.normalized_volume() == 85
    # alternating sum: (-1)^{3+1}(vol D + vol H) + (-1)^{3+2} vol Lambda_12
    got = dk_intersection_euler([D, H], 3)
    assert got == 64 + 1 - 85 == -20


def test_dk_rejects_mismatched_dims():
    with pytest.raises(ValueError, match="rank-n lattice"):
        dk_intersection_euler([LatticePolytope([(0, 0), (1, 0), (0, 1)])], 3)
    with pytest.raises(ValueError, match="at least one divisor"):
        dk_intersection_euler([], 3)


# ------------------------------------------------------------ double cover


def test_euler_double_cover_k3(k3):
    topo = euler_double_cover(k3)
    assert topo.n == 2
    assert (topo.chi_X, topo.chi_X_dual) == (3, 9)
    assert (topo.vol_Lambda, topo.vol_Lambda_dual) == (9, 3)
    assert topo.chi_Y == 12 and topo.chi_Y_dual == 12
    assert topo.hodge.table[(1, 1)] == 8
    assert topo.hodge.table[(2, 0)] == 1 and topo.hodge.table[(0, 2)] == 1
    assert topo.hodge.complete


def test_euler_double_cover_quartic(quartic):
    topo = euler_double_cover(quartic)
    assert (topo.chi_X, topo.chi_X_dual) == (4, 64)
    assert topo.chi_Y == -60 and topo.chi_Y_dual == 60
    h = topo.hodge
    assert h.table[(1, 1)] == 1 and h.table[(2, 1)] == 31
    assert h.table[(3, 0)] == 1 and h.table[(0, 0)] == 1
    hd = topo.hodge_dual
    assert hd.table[(1, 1)] == 31 and hd.table[(2, 1)] == 1
    # mirror exchange of the two middle columns
    assert h.table[(1, 1)] == hd.table[(2, 1)] and h.table[(2, 1)] == hd.table[(1, 1)]


def test_euler_double_cover_eight_hyperplanes(eight_hyperplanes_topology):
    topo = eight_hyperplanes_topology
    assert topo.chi_Y == -16 and topo.chi_Y_dual == 16
    assert topo.hodge.table[(1, 1)] == 1 and topo.hodge.table[(2, 1)] == 9
    assert topo.hodge_dual.table[(1, 1)] == 9 and topo.hodge_dual.table[(2, 1)] == 1


def test_threefold_euler_antisymmetry(quartic, eight_hyperplanes_topology):
    for topo in (euler_double_cover(quartic), eight_hyperplanes_topology):
        assert topo.chi_Y == -topo.chi_Y_dual


def test_smoothness_guard_raises():
    data = NefPartition(LatticePolytope(QUARTIC), [[0, 1, 2, 3]])
    # Lambda is read off the true parts; a wrong cached nabla_dual (the polar
    # dual of the quartic simplex, of volume 4, not 64) makes chi(X_dual)
    # wrong, so that only the comparison with vol(Lambda) sees it
    data.nabla_dual = LatticePolytope(QUARTIC).polar_dual()
    with pytest.raises(SmoothnessError, match="smoothness hypothesis violated"):
        euler_double_cover(data)


# ------------------------------------------------------------- SNC oracle


def quartic_plus_planes_strata():
    """chi values for the quartic surface D and four coordinate planes in P^3.

    D is a smooth quartic K3 (chi 24); each plane is P^2 (chi 3); D meets a
    plane in a smooth plane quartic curve (genus 3, chi -4); two planes meet
    in a line (chi 2); D meets two planes in 4 points; three planes meet in
    a point; all deeper intersections are empty for generic D.
    """
    strata = {}
    for k in range(5):
        for planes in itertools.combinations("1234", k):
            if k:
                strata[frozenset(planes)] = (3, 2, 1, 0)[k - 1]
            strata[frozenset(("D", *planes))] = (24, -4, 4, 0, 0)[k]
    return strata


def test_snc_oracle_reproduces_quartic_chi():
    chi_D, chi_Y = euler_snc_union_oracle(4, quartic_plus_planes_strata())
    assert chi_D == 68
    assert chi_Y == -60


def test_snc_oracle_missing_stratum():
    strata = quartic_plus_planes_strata()
    del strata[frozenset(["D", "1"])]
    with pytest.raises(FracmirrorError, match="missing intersections: .*1∩D"):
        euler_snc_union_oracle(4, strata)


def test_snc_oracle_empty_table():
    assert euler_snc_union_oracle(7, {}) == (0, 14)


def test_snc_oracle_singleton_branch():
    # branch = one smooth cubic curve in P^2 (chi = 0 for genus 1):
    # chi(Y) = 2*3 - 0 = 6 for the plain double cover
    assert euler_snc_union_oracle(3, {"C": 0}) == (0, 6)


# P^n shapes outside perfbench/gen.py's SHAPES: (n, part sizes), sum n + 1
EXTRA_SHAPES = {
    "p4_2111": (4, (2, 1, 1, 1)),
    "p4_11111": (4, (1, 1, 1, 1, 1)),
    "p5_6": (5, (6,)),
    "p5_33": (5, (3, 3)),
    "p5_222": (5, (2, 2, 2)),
    "p5_411": (5, (4, 1, 1)),
    "p5_2211": (5, (2, 2, 1, 1)),
    "p6_7": (6, (7,)),
    "p6_43": (6, (4, 3)),
    "p7_8": (7, (8,)),
    "p8_9": (8, (9,)),
}


def test_strata_oracle_reproduces_the_quartic_table():
    # Hirzebruch's formula gives each stratum of the hand-typed table
    assert chi_cover_by_strata(3, (4,)) == euler_snc_union_oracle(4, quartic_plus_planes_strata())[1]
    assert chi_cover_by_strata(8, (9,)) == 43046730


# P^n shapes whose nabla* scan passes the step budget in a sheared frame
LARGE_SHAPES = {"p10_11": (10, (11,)), "p12_13": (12, (13,)), "p16_17": (16, (17,))}


def pn_shapes(n_max):
    """Every P^n shape with 2 <= n <= n_max: (n, part sizes) by name, the
    sizes a partition of n + 1 in descending order."""

    def partitions(k, top):
        if k == 0:
            yield ()
        for first in range(min(k, top), 0, -1):
            for rest in partitions(k - first, first):
                yield (first, *rest)

    return {
        f"p{n}_" + ("_" if n > 8 else "").join(map(str, sizes)): (n, sizes)
        for n in range(2, n_max + 1)
        for sizes in partitions(n + 1, n + 1)
    }


def framed_shape(n, sizes, shears, rng):
    """The P^n shape with parts of ``sizes`` in a seeded frame of ``shears``
    shears and a signed permutation, as ``GEN.framed_input`` builds the
    shapes of ``GEN.SHAPES``."""
    S, Sinv = GEN.random_frame(n, shears, rng)
    P = GEN.signed_permutation(n, rng)
    U, Uinv = GEN.matmul(P, S), GEN.matmul(Sinv, GEN.transpose(P))
    moved = [GEN.apply(GEN.transpose(Uinv), w) for w in GEN.dual_vertices(n)]
    order = sorted(moved)
    parts = [[order.index(moved[j]) for j in part] for part in GEN.canonical_parts(n, sizes)]
    return NefPartition(LatticePolytope([GEN.apply(U, v) for v in GEN.simplex_vertices(n)]), parts)


def check_chi_by_strata(shapes, rng):
    """chi(Y) and chi(Y_dual) = (-1)^n chi(Y) of each P^n shape in a seeded
    frame of two shears against the closed form by strata, which reads no
    polytope."""
    for name, (n, sizes) in shapes.items():
        topo = euler_double_cover(framed_shape(n, sizes, 2, rng))
        chi = chi_cover_by_strata(n, sizes)
        assert (name, topo.chi_Y, topo.chi_Y_dual) == (name, chi, (-1) ** n * chi)


def test_chi_matches_hirzebruch_by_strata():
    # the 13 generated shapes, the 11 above and p10_11, p12_13 and p16_17:
    # nabla* is counted with no scan, so two shears in every frame stay
    # cheap up to n = 16 (tests/slow_tier.py runs 260 P^n shapes to n = 16)
    check_chi_by_strata({**GEN.SHAPES, **EXTRA_SHAPES, **LARGE_SHAPES}, random.Random(27))


def test_euler_and_hodge_finish_where_the_nabla_dual_scan_was_refused(tmp_path, capsys):
    # the sheared p8_9 and p10_11 and the reflexive 16-simplex: the scan of
    # nabla* passes the step budget there, its count by the nef-partition
    # identity reads no scan; Delta* has the n + 2 points of the P^n fan
    rng = random.Random(51)
    docs = {
        name: {"delta": data.delta.to_dict(), "parts": [list(part) for part in data.ray_parts]}
        for name, data in (
            ("p8_9", framed_shape(8, (9,), 2, rng)),
            ("p10_11", framed_shape(10, (11,), 2, rng)),
        )
    }
    docs["simplex_16"] = {"delta": {"dim": 16, "vertices": GEN.simplex_vertices(16)}, "parts": [list(range(17))]}
    for name, doc in docs.items():
        n = doc["delta"]["dim"]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["euler", str(path), "--format", "json"]) == 0, name
        assert json.loads(capsys.readouterr().out)["chi_Y"] == chi_cover_by_strata(n, (n + 1,)), name
        assert cli.main(["hodge", str(path), "--format", "json"]) == 0, name
        h = json.loads(capsys.readouterr().out)
        assert (h["hodge"]["h"]["1,1"], h["hodge_dual"]["h"]["1,1"]) == (1, math.comb(2 * n + 1, n) - 1 - n)


# ------------------------------------------------------ the nabla* count


def checked_nabla_dual_count(data):
    """(count, path) of the stage's nabla* count on a fresh copy of
    ``data``, path "knapsack" or "scan", after checking the count against a
    scan of a hull of nabla*'s vertices: the knapsack reads no nabla*."""
    data = NefPartition(data.delta, data.ray_parts)
    count = _nabla_dual_count(data, data.delta.polar_dual().normalized_volume())
    path = "scan" if "nabla_dual" in vars(data) else "knapsack"
    expect = LatticePolytope(data.nabla_dual.vertices).lattice_point_count()
    assert count == expect, (data.delta.vertices, data.ray_parts)
    return count, path


@functools.cache
def corpus_simplices():
    """The reflexive simplices of the corpora: polygons, 3-polytopes,
    ``SMALL_REFLEXIVE`` and the 4-polytopes, which hold none."""
    corpora = (
        *reflexive_polygons(), *reflexive_3polytopes(), *map(LatticePolytope, SMALL_REFLEXIVE.values()),
        *reflexive_4polytopes(),
    )
    return tuple(P for P in corpora if len(P.vertices) == P.ambient_dim + 1)


@functools.cache
def corpus_simplex_partitions():
    """Every accepted partition of each of ``corpus_simplices``."""
    return tuple(
        NefPartition(delta, parts)
        for delta in corpus_simplices()
        for parts in set_partitions(tuple(range(len(delta.facets))))
        if not validate_nef_partition(delta, parts)
    )


def check_pn_nabla_dual_counts(shapes, rng, max_sheared_n):
    """On P^n every c_g is 1, so a part of d_k rays has C(n + d_k, n)
    points: each shape's count takes the knapsack and equals
    sum_k C(n + d_k, n) - (r - 1), in a seeded frame of two shears up to
    n = ``max_sheared_n`` and of a signed permutation above it."""
    for name, (n, sizes) in shapes.items():
        data = framed_shape(n, sizes, 2 if n <= max_sheared_n else 0, rng)
        expect = sum(math.comb(n + d, n) for d in sizes) - (len(sizes) - 1)
        assert (name, *checked_nabla_dual_count(data)) == (name, expect, "knapsack")


def test_a_simplex_keeps_c_L_and_the_part_sums():
    # sum c_g = L = sum C_k (the 1/h_g are the origin's barycentric
    # coordinates) and the C_k are minus the distinguished entries of the GKZ
    # kernel vector: the 56 partitions of the corpus simplices and the 34
    # simplex cases of accepted_partitions, the 13 generated shapes in seeded
    # frames among them; off a simplex, on the hexagon, all three are None
    cases = [*corpus_simplex_partitions(), *(data for _, data in accepted_partitions() if data.c)]
    assert len(cases) == 56 + 34
    for data in cases:
        g = build_gkz(data)
        assert sum(data.c) == data.L == sum(data.part_sums)
        assert list(data.part_sums) == [-x for x, (_, j) in zip(g.kernel[0], g.column_labels) if j == 0]
    hexagon = NefPartition.from_dict(json.loads((GOLDEN / "hexagon.json").read_text()))
    assert (hexagon.c, hexagon.L, hexagon.part_sums) == (None, None, None)


def test_nabla_dual_count_matches_the_scan_on_the_corpus_simplices():
    # the 56 accepted partitions of the 33 corpus simplices, 21 of them
    # weighted; where the rays span a proper sublattice nabla* is scanned
    paths = Counter(path for _, path in map(checked_nabla_dual_count, corpus_simplex_partitions()))
    assert paths == {"knapsack": 34, "scan": 22}


def test_nabla_dual_count_on_the_pn_shapes():
    # the 13 generated shapes and the 11 above; the scan that checks the
    # count refuses p8_9 in a frame of two shears, so shears stop at n = 6
    check_pn_nabla_dual_counts({**GEN.SHAPES, **EXTRA_SHAPES}, random.Random(51), 6)


P11112_RAYS = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -2)]


def test_nabla_dual_count_on_a_weighted_4_simplex():
    # P(1,1,1,1,2): the rays e_1, ..., e_4 and -(1, 1, 1, 2) span Z^4, and
    # c holds a 2; the one-part count is 130, the coefficient of t^6 in
    # 1 / ((1 - t)^4 (1 - t^2)), less r - 1 = 0
    delta = LatticePolytope(P11112_RAYS).polar_dual()
    assert sorted(simplex_relation(delta)[1]) == [1, 1, 1, 1, 2]
    counts = {
        tuple(parts): checked_nabla_dual_count(NefPartition(delta, parts))
        for parts in set_partitions(tuple(range(5)))
        if not validate_nef_partition(delta, parts)
    }
    assert counts[((0, 1, 2, 3, 4),)] == (130, "knapsack")
    assert Counter(path for _, path in counts.values()) == {"knapsack": 11}


def test_nabla_dual_is_scanned_where_the_rays_span_a_sublattice():
    # Delta = conv(e_1, ..., e_4, -1) with one part: its rays, the vertices
    # of the reflexive 4-simplex, span a sublattice of index 125, and nabla*
    # = Delta has 6 points
    data = NefPartition(LatticePolytope(GEN.dual_vertices(4)), [range(5)])
    assert ray_lattice_index(data.rays) == 125
    assert checked_nabla_dual_count(data) == (6, "scan")


def test_the_rays_span_z_n_exactly_when_vol_delta_star_is_sum_c():
    # each maximal minor of the rays is +-c_g times their lattice's index, so
    # vol(Delta*) = index * sum c_g, with the index the gcd of the minors: on
    # the corpus simplices, the 13 generated shapes in seeded frames,
    # P(1,1,1,1,2) and the 4-simplex conv(e_1, ..., e_4, -1)
    indices = Counter()
    shapes = [framed_shape(n, sizes, 2, random.Random(n)).delta for n, sizes in GEN.SHAPES.values()]
    fours = [LatticePolytope(P11112_RAYS).polar_dual(), LatticePolytope(GEN.dual_vertices(4))]
    for delta in (*corpus_simplices(), *shapes, *fours):
        rays = [g for g, _ in delta.facets]
        index = ray_lattice_index(rays)
        assert delta.polar_dual().normalized_volume() == index * sum(simplex_relation(delta)[1])
        indices[index] += 1
    assert indices == {1: 25, 2: 9, 3: 6, 9: 4, 16: 3, 125: 1}


def test_a_knapsack_past_the_step_budget_goes_to_the_scan(monkeypatch):
    # p4_5's knapsack takes 5 * 6 = 30 steps: under a budget of 30 it runs,
    # under 29 the count goes to the scan of nabla*, which that budget refuses
    data = framed_shape(4, (5,), 0, random.Random(0))
    chi_X = data.delta.polar_dual().normalized_volume()
    monkeypatch.setattr(_accel, "SCAN_BUDGET", 30)
    assert _nabla_dual_count(data, chi_X) == 126 and "nabla_dual" not in vars(data)
    monkeypatch.setattr(_accel, "SCAN_BUDGET", 29)
    with pytest.raises(FracmirrorError, match="budget of 29 steps"):
        _nabla_dual_count(data, chi_X)


def _triangulated_vol_lambda(data):
    rays = [[data.rays[j] for j in part] for part in data.ray_parts]
    return cayley_pyramids(data.part_vertices, rays)[0].normalized_volume()


def test_simplex_vol_lambda_matches_the_triangulation():
    # on a simplex vol(Lambda) is read off the Cayley trick, vol(Delta)
    # h_n(C) / L^n (topology module docstring), against the pulling
    # triangulation of Lambda: the 13 generated shapes in seeded frames,
    # eight more P^n shapes in the identity frame, and every accepted
    # partition of the reflexive simplices of the corpora, 21 of them
    # weighted (some c_g != 1)
    rng = random.Random(48)
    cases = []
    for shape, (n, _) in GEN.SHAPES.items():
        U, Uinv = GEN.random_frame(n, 3, rng)
        cases.append(NefPartition.from_dict(GEN.framed_input(shape, U, Uinv)))
    for name in ("p4_2111", "p4_11111", "p5_6", "p5_33", "p5_222", "p5_411", "p5_2211", "p6_43"):
        n, sizes = EXTRA_SHAPES[name]
        cases.append(NefPartition(LatticePolytope(GEN.simplex_vertices(n)), GEN.canonical_parts(n, sizes)))
    simplices = corpus_simplices()
    cases += corpus_simplex_partitions()
    weighted = sum(any(c != 1 for c in simplex_relation(delta)[1]) for delta in simplices)
    assert (len(simplices), weighted, len(cases)) == (33, 21, 13 + 8 + 56)
    for data in cases:
        assert data.part_sums is not None
        got = euler_double_cover(data).vol_Lambda
        assert got == _triangulated_vol_lambda(data), (data.delta.vertices, data.ray_parts)


TOPOLOGY_INPUTS = [
    *(DATA / f"{name}.json" for name in GEN.BUNDLED),
    GOLDEN / "p4_311.json",
    GOLDEN / "hexagon.json",
]


@pytest.mark.parametrize("path", TOPOLOGY_INPUTS, ids=lambda p: p.stem)
def test_topology_jobs_read_the_fan_polytopes_and_one_pairing(monkeypatch, path):
    # euler, hodge and all read Delta* and nabla* and build no nabla; they
    # pair once and build Lambda_dual, and Lambda only off a simplex (the
    # hexagon, whose all refuses its multiparameter moduli first); dual-nef,
    # which prints nabla, builds it
    pairings, pyramids = calls(monkeypatch, topology, "_pairing"), calls(monkeypatch, topology, "_pyramid")
    stages = calls(monkeypatch, cli, "euler_double_cover"), calls(monkeypatch, cli, "dual_nef_partition")
    built = 1 if path.stem != "hexagon" else 2
    for command in ("euler", "hodge", "all"):
        for seen in (pairings, pyramids, *stages):
            seen.clear()
        if (command, path.stem) == ("all", "hexagon"):
            # all refuses the hexagon's multiparameter moduli before the stage
            assert run_job(command, path)[0] == 3
            assert (pairings, pyramids, *stages) == ([], [], [], [])
            continue
        assert run_job(command, path)[0] == 0
        [(data,)] = stages[0] + stages[1]
        assert "nabla" not in vars(data), command
        assert (len(pairings), len(pyramids)) == (1, built), command
    assert run_job("dual-nef", path)[0] == 0
    [(data,)] = stages[1]
    assert "nabla" in vars(data)


def _split(k, mask):
    """range(k) in two parts: the i with bit i of ``mask`` set, then the rest."""
    return [tuple(i for i in range(k) if mask >> i & 1), tuple(i for i in range(k) if not mask >> i & 1)]


def _splits(k):
    """The set partitions of range(k) into at most two parts, each once."""
    yield [tuple(range(k))]
    for mask in range(1, 1 << (k - 1)):  # k - 1 stays in the second part
        yield _split(k, mask)


def test_mirror_checks_on_the_reflexive_corpus():
    # the paper's chi(Y) = (-1)^n chi(Y_dual), Borisov's involution (the
    # dual of the dual partition is the partition of delta it came from)
    # and euler of the dual partition swapping chi(Y) and chi(Y_dual), on
    # every accepted partition with r <= 2 of the polars of the generated
    # polygons, and of the generated 3-polytopes with at most five
    # vertices: all 3-polytopes take about 7 s
    polytopes = [*reflexive_polygons(), *(P for P in reflexive_3polytopes() if len(P.vertices) <= 5)]
    accepted = 0
    for P in polytopes:
        for parts in _splits(len(P.vertices)):
            accepted += _mirror_checks(P, parts)
    assert accepted == 459 + 335


def _mirror_checks(P, parts):
    """Whether ``parts`` is a nef-partition of the polar dual of P; if so, the
    paper's chi(Y) = (-1)^n chi(Y_dual), the involution and the swap hold."""
    delta = P.polar_dual()
    n = delta.ambient_dim
    if validate_nef_partition(delta, parts):
        return False
    data = NefPartition(delta, parts)
    topo = euler_double_cover(data)
    assert topo.chi_Y == (-1) ** n * topo.chi_Y_dual, (P.vertices, parts)
    dual = NefPartition(data.nabla, data.dual_parts())
    assert (dual.nabla, dual.dual_parts()) == (delta, list(map(list, parts))), (P.vertices, parts)
    flipped = euler_double_cover(dual)
    assert (flipped.chi_Y, flipped.chi_Y_dual) == (topo.chi_Y_dual, topo.chi_Y), (P.vertices, parts)
    return True


def test_mirror_checks_on_reflexive_4polytopes():
    # the checks above with n = 4 on 20 seeded two-part splits of the rays of
    # the polar of each committed reflexive 4-polytope, none a simplex: so
    # Lambda is triangulated off the transposed pairing and h^{1,1} counts
    # the points of Delta* and nabla*.  The polars have 3936 splits in all,
    # and a rejected one costs about 160 us to validate
    polytopes = reflexive_4polytopes()
    assert len(polytopes) == 40 and all(P.is_reflexive() and len(P.vertices) > 5 for P in polytopes)
    rng, accepted = random.Random(49), 0
    for P in polytopes:
        k = len(P.vertices)
        for _ in range(20):
            accepted += _mirror_checks(P, _split(k, rng.randrange(1, 1 << (k - 1))))
    assert accepted == 85


# ------------------------------------------------------------------ hodge


def test_hodge_numbers_k3_table():
    table = hodge_numbers(2, 12, None)
    assert table.table[(1, 1)] == 8
    assert table.table[(0, 0)] == 1 and table.table[(2, 2)] == 1
    assert table.table[(1, 0)] == 0


def test_hodge_two_routes_agree(quartic):
    # mirror side: h^{1,1} from boundary points equals h^{1,1} from chi
    data = NefPartition(quartic.nabla, quartic.dual_parts())
    h11 = boundary_lattice_point_count(data.delta.polar_dual()) - 3
    chi = euler_double_cover(quartic).chi_Y_dual
    h21 = h11 - chi // 2
    table = hodge_numbers(3, chi, len(lattice_points_by_box(data.delta.polar_dual())))
    assert table.table[(1, 1)] == h11 == 31
    assert table.table[(2, 1)] == h21 == 1


def _shape_input(case):
    if case in GEN.SHAPES:
        n = GEN.SHAPES[case][0]
        return NefPartition.from_dict(GEN.framed_input(case, GEN.identity(n), GEN.identity(n)))
    return load_case(case)


@pytest.mark.parametrize("case", [*GEN.SHAPES, *GEN.BUNDLED])
def test_h11_counts_boundary_points(case):
    # h^{1,1} counts the lattice points of the polar dual but the origin:
    # the interior-point scan finds the origin alone on Delta* and nabla*
    data = _shape_input(case)
    n = data.delta.ambient_dim
    topo = euler_double_cover(data)
    for delta, table in ((data.delta, topo.hodge), (data.nabla, topo.hodge_dual)):
        dual = delta.polar_dual()
        assert interior_lattice_points(dual) == ((0,) * n,)
        if n > 2:  # a surface's h^{1,1} comes from chi
            assert table.table[(1, 1)] == boundary_lattice_point_count(dual) - n


def test_point_count_reads_the_volume_for_n_up_to_3():
    # #P = Vol + 1 (n = 2, where no command needs the count) and Vol/2 + 3
    # (n = 3, read by _point_counts) on both polar duals, Delta* and nabla*,
    # against the box listing
    seen = set()
    for name, data in accepted_partitions():
        n = data.delta.ambient_dim
        if n > 3:
            continue
        P, P_dual = data.delta.polar_dual(), data.nabla_dual
        vols = P.normalized_volume(), P_dual.normalized_volume()
        counts = [vol + 1 for vol in vols] if n == 2 else list(_point_counts(data, P, *vols))
        assert counts == [len(lattice_points_by_box(Q)) for Q in (P, P_dual)], (name, data.ray_parts)
        seen.add(n)
    assert seen == {2, 3}


def test_hodge_rejects_odd_chi():
    with pytest.raises(FracmirrorError, match="odd Euler characteristic"):
        hodge_numbers(3, 7, 5)


def test_hodge_higher_dimension_partial():
    delta = LatticePolytope(
        [(4, -1, -1, -1), (-1, 4, -1, -1), (-1, -1, 4, -1), (-1, -1, -1, 4),
         (-1, -1, -1, -1)]
    )
    data = NefPartition(delta, [[0, 1, 2, 3, 4]])
    table = hodge_numbers(4, 0, data.delta.polar_dual().lattice_point_count())
    assert not table.complete
    assert table.note == "middle Hodge numbers not determined"
    assert table.table[(1, 1)] == table.table[(3, 3)]


def test_hodge_table_reads_complete_and_note_off_the_table():
    # complete: an h^{p,q} for every p, q <= n.  The bundled surface and
    # threefolds have one; the segment (n = 1) and p4_311 lack the middle row
    segment = LatticePolytope([(-1,), (1,)])
    p4_311 = NefPartition.from_dict(json.loads((GOLDEN / "p4_311.json").read_text()))
    cases = [(name, load_case(name), True) for name in GEN.BUNDLED]
    cases += [("segment", NefPartition(segment, [[0, 1]]), False), ("p4_311", p4_311, False)]
    for name, data, complete in cases:
        topo = euler_double_cover(data)
        for table in (topo.hodge.table, topo.hodge_dual.table):
            got = HodgeTable(table)
            note = None if complete else "middle Hodge numbers not determined"
            assert (got.complete, got.note) == (complete, note), name


@pytest.mark.parametrize("case", GEN.BUNDLED)
def test_cover_topology_works_out_the_fields_the_stage_checked(case):
    # from n, chi(X), chi(X_dual) and the box counts of Delta* and nabla*:
    # the volumes, chi(Y) on both sides and both Hodge tables
    data = load_case(case)
    P, P_dual = data.delta.polar_dual(), data.nabla_dual
    counts = [len(lattice_points_by_box(Q)) for Q in (P, P_dual)]
    got = CoverTopology(data.delta.ambient_dim, P.normalized_volume(), P_dual.normalized_volume(), *counts)
    want = euler_double_cover(data)
    for field in ("n", "chi_X", "chi_X_dual", "vol_Lambda", "vol_Lambda_dual", "chi_Y", "chi_Y_dual"):
        assert getattr(got, field) == getattr(want, field), field
    for field in ("hodge", "hodge_dual"):
        assert vars(getattr(got, field)) == vars(getattr(want, field)), field


def test_hodge_json(quartic):
    topo = euler_double_cover(quartic)
    j = topo.to_json()
    assert j["hodge"]["h"]["1,1"] == 1
    assert j["hodge"]["h"]["2,1"] == 31
    assert j["chi_Y"] == -60
