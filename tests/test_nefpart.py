"""Nef-partitions: part polytopes, validation diagnostics, duality."""

import itertools
import random

import pytest
from conftest import GEN, SMALL_REFLEXIVE, accepted_partitions, set_partitions

from fracmirror.errors import InvalidNefPartition
from fracmirror.gkz import build_gkz
from fracmirror.nefpart import (
    NefPartition,
    _part_vertices,
    _sums_to,
    dual_nef_partition,
    validate_nef_partition,
)
from fracmirror.polytope import LatticePolytope, cayley_pyramids
from fracmirror.topology import euler_double_cover
from oracles import (
    SpanHull,
    cayley_polytope,
    contains,
    dual_side_by_hull,
    gkz_kernel_by_echelon,
    lattice_points_by_box,
    minkowski_sum_by_hulls,
    nef_diagnostics_by_hulls,
    pyramid_over,
)

QUARTIC = [(3, -1, -1), (-1, 3, -1), (-1, -1, 3), (-1, -1, -1)]
P2 = [(2, -1), (-1, 2), (-1, -1)]
HEXAGON = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, -1), (-1, 1)]


def _parts_delta(data):
    """The part polytopes Delta_i, one hull of each part's vertices."""
    return tuple(LatticePolytope(V, data.delta.ambient_dim) for V in data.part_vertices)


def _dual(data):
    """The dual nef-partition, on nabla with the parts ``dual_parts`` reads."""
    return NefPartition(data.nabla, data.dual_parts())


def test_trivial_partition_part_is_delta(quartic):
    assert quartic.r == 1
    assert _parts_delta(quartic)[0] == quartic.delta


def test_p2_trivial_part():
    data = NefPartition(LatticePolytope(P2), [[0, 1, 2]])
    assert _parts_delta(data)[0] == LatticePolytope(P2)


def test_eight_hyperplane_parts_are_unit_translates(eight_hyperplanes):
    # each part polytope is a lattice translate of a standard simplex or the
    # origin-cornered simplex; all have normalized volume 1 and 4 vertices
    parts = _parts_delta(eight_hyperplanes)
    for P in parts:
        assert P.affine_dim == 3
        assert len(P.vertices) == 4
        assert P.normalized_volume() == 1
    assert minkowski_sum_by_hulls(parts) == eight_hyperplanes.delta


def test_part_vertices_errors():
    delta = LatticePolytope(QUARTIC)
    rays = delta.polar_dual().vertices
    # the part of the octahedron's rays but the first cuts out a polytope
    # with a vertex off the lattice
    octahedron = LatticePolytope(SMALL_REFLEXIVE["octahedron"])
    corners = octahedron.polar_dual().vertices
    with pytest.raises(InvalidNefPartition, match="non-lattice vertices"):
        _part_vertices(octahedron, corners[1:], corners)
    # too few constraints to pin a vertex at all: the homogenized cone is
    # not even pointed
    with pytest.raises(ValueError, match="cone is not pointed"):
        _part_vertices(delta, [rays[0]], rays[:2])


def test_float_rays_and_part_indices_are_refused():
    # floats are refused, not truncated: rays shifted by 0.4 would turn -0.6
    # into 0, and the indices 0.7..3.7 would load as parts (0, 1, 2, 3)
    delta = LatticePolytope(QUARTIC)
    rays = delta.polar_dual().vertices
    shifted = [tuple(x + 0.4 for x in rho) for rho in rays]
    with pytest.raises(TypeError):
        _part_vertices(delta, shifted, shifted)
    with pytest.raises(TypeError):
        _part_vertices(delta, rays, [tuple(map(float, rho)) for rho in rays])
    with pytest.raises(TypeError):
        NefPartition(delta, [[0.7, 1.7, 2.7, 3.7]])
    assert NefPartition(delta, [[3, 2, 1, 0]]).ray_parts == ((0, 1, 2, 3),)


def test_bool_part_indices_are_refused():
    # True and False are ints to ``operator.index``, so they would load as
    # the parts (0, 1, 2, 3); they are refused as ``series._order`` refuses
    # a bool order
    delta = LatticePolytope(QUARTIC)
    for parts in ([[True, False, 2, 3]], [[0, 1, 2], [True]]):
        with pytest.raises(TypeError, match="a part index must be an integer"):
            NefPartition(delta, parts)


def test_validate_names_non_integer_part_indices():
    # validate_nef_partition takes the indices as given: a bool passed
    # isinstance(idx, int) and a float was called out of range; two bad
    # indices in one part give one message
    delta = LatticePolytope(QUARTIC)
    message = "part 0 has a non-integer vertex index"
    assert validate_nef_partition(delta, [[True, False, 2, 3]]) == [message]
    assert validate_nef_partition(delta, [[1.0, 0, 2, 3]]) == [message]
    assert validate_nef_partition(delta, [[0, 1, 2, 3.5]]) == [message]


def test_validate_diagnostics():
    delta = LatticePolytope(QUARTIC)
    assert validate_nef_partition(delta, [(0, 1, 2, 3)]) == []
    assert validate_nef_partition("nope", [(0,)]) == ["delta is not a lattice polytope"]
    assert validate_nef_partition(
        LatticePolytope([(2, 0), (0, 2), (-2, 0), (0, -2)]), [(0,)]
    ) == ["delta is not reflexive"]
    issues = validate_nef_partition(delta, [(0, 1), (1, 2, 3)])
    assert any("more than one part" in s for s in issues)
    issues = validate_nef_partition(delta, [(0, 1), (2,)])
    assert any("do not cover every dual vertex" in s for s in issues)
    issues = validate_nef_partition(delta, [(0, 1, 2, 3), ()])
    assert any("part 1 is empty" in s for s in issues)
    issues = validate_nef_partition(delta, [(0, 1, 2, 9)])
    assert any("out-of-range" in s for s in issues)
    issues = validate_nef_partition(delta, [])
    assert issues == ["no parts given: not a partition"]


def test_invalid_partition_raises_with_joined_diagnostics():
    with pytest.raises(InvalidNefPartition, match="not a partition"):
        NefPartition(LatticePolytope(QUARTIC), [[0, 1]])


def test_non_nef_split_rejected():
    # opposite-pair split of the hexagon dual rays cannot sum back to delta
    delta = LatticePolytope(HEXAGON)
    k = len(delta.polar_dual().vertices)
    bad = 0
    for parts in _two_two_two_partitions(k):
        if validate_nef_partition(delta, parts):
            bad += 1
    assert bad > 0  # at least one split is genuinely invalid


def _two_two_two_partitions(k):
    idx = range(k)
    for p1 in itertools.combinations(idx, 2):
        rest = [i for i in idx if i not in p1]
        for p2 in itertools.combinations(rest, 2):
            p3 = tuple(i for i in rest if i not in p2)
            if tuple(p1) < tuple(p2) < p3:
                yield [tuple(p1), tuple(p2), p3]


def test_hexagon_has_valid_three_part_split():
    delta = LatticePolytope(HEXAGON)
    valid = [
        parts for parts in _two_two_two_partitions(6)
        if not validate_nef_partition(delta, parts)
    ]
    assert valid, "expected at least one valid 2+2+2 nef-partition"
    data = NefPartition(delta, valid[0])
    assert data.r == 3
    assert data.nabla.is_reflexive()


def test_dual_nef_partition_known_nablas(quartic, k3):
    _, nabla, _ = dual_nef_partition(quartic)
    assert nabla == LatticePolytope([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
    _, nabla2, _ = dual_nef_partition(k3)
    assert nabla2 == LatticePolytope([(1, 0), (0, 1), (-1, -1)])


def test_nabla_dual_is_polar_dual_of_nabla(quartic, eight_hyperplanes, k3):
    # oracle: nabla^* = conv(Delta_1 ∪ ... ∪ Delta_r), built as its own hull
    # of the Delta_i cut out by DD passes (validation reads them off the
    # simplex Delta's vertices)
    for data in (quartic, eight_hyperplanes, k3):
        rays = data.rays
        cuts = [_part_vertices(data.delta, [rays[j] for j in part], rays) for part in data.ray_parts]
        union = [v for V in cuts for v in V]
        assert data.nabla_dual == LatticePolytope(union, data.delta.ambient_dim)


def test_duality_is_an_involution(quartic, eight_hyperplanes, k3):
    for data in (quartic, eight_hyperplanes, k3):
        dd = _dual(_dual(data))
        assert dd.delta == data.delta
        assert dd.ray_parts == data.ray_parts


def test_dual_parts_are_the_dual_partition(quartic, eight_hyperplanes, k3):
    for data in (quartic, eight_hyperplanes, k3):
        assert [tuple(p) for p in data.dual_parts()] == list(_dual(data).ray_parts)


def test_eight_hyperplane_nabla_roundtrip(eight_hyperplanes):
    # recomputing nabla via the dual partition reproduces the same polytope
    dual = _dual(eight_hyperplanes)
    assert dual.nabla == eight_hyperplanes.delta
    assert dual.delta == eight_hyperplanes.nabla


def test_json_round_trip(quartic):
    doc = {"delta": quartic.delta.to_dict(), "parts": [list(p) for p in quartic.ray_parts]}
    again = NefPartition.from_dict(doc)
    assert (again.delta, again.ray_parts) == (quartic.delta, quartic.ray_parts)
    with pytest.raises(ValueError, match='nef-partition JSON needs'):
        NefPartition.from_dict({"delta": {"dim": 2, "vertices": [[0, 0]]}})


def test_sign_corrupted_quartic_variant_is_rejected():
    # flipping the sign of three vertices breaks reflexivity outright
    bad = LatticePolytope([(-3, 1, 1), (1, -3, 1), (1, 1, -3), (-1, -1, -1)])
    assert validate_nef_partition(bad, [(0, 1, 2, 3)]) == ["delta is not reflexive"]


def _random_set_partition(rng, k):
    labels = [rng.randrange(rng.randint(1, k)) for _ in range(k)]
    blocks = {}
    for idx, label in enumerate(labels):
        blocks.setdefault(label, []).append(idx)
    return [tuple(b) for b in blocks.values()]


def _random_set_partitions():
    """(name, delta, parts) for 25 seeded random set partitions of the dual
    vertices of each of the SMALL_REFLEXIVE polytopes."""
    rng = random.Random(2024)
    for name, verts in SMALL_REFLEXIVE.items():
        delta = LatticePolytope(verts)
        k = len(delta.polar_dual().vertices)
        for _ in range(25):
            yield name, delta, _random_set_partition(rng, k)


def _framed_simplices():
    """(name, delta) for reflexive simplices in seeded frames: the simplex
    Delta_n of perfbench's shapes (n = 2, 3, 4), its polar dual, and the
    triangles of P(1,1,2) and P(1,2,3), whose h_g differ from ray to ray."""
    simplices = {f"delta_{n}": GEN.simplex_vertices(n) for n in (2, 3, 4)}
    simplices.update({f"delta_{n}_dual": GEN.dual_vertices(n) for n in (2, 3, 4)})
    simplices.update(p112=[(1, 0), (0, 1), (-1, -2)], p123=[(1, 0), (0, 1), (-2, -3)])
    rng = random.Random(26)
    for name, verts in simplices.items():
        n = len(verts[0])
        for _ in range(2):
            U, _ = GEN.random_frame(n, 3, rng)
            yield name, LatticePolytope([GEN.apply(U, v) for v in verts])


def _octahedron_set_partitions():
    """("octahedron", delta, parts) for 250 seeded set partitions of the
    eight rays of the octahedron, of its 4140.  In Z^3 a part of one or two
    rays has a flat nabla_k, so the pairwise fold of a rejected partition
    meets flat partial sums."""
    delta = LatticePolytope(SMALL_REFLEXIVE["octahedron"])
    everything = list(set_partitions(tuple(range(len(delta.polar_dual().vertices)))))
    for parts in random.Random(22).sample(everything, 250):
        yield "octahedron", delta, parts


def _hexagon_x_segment_set_partitions():
    """("hexagon_x_segment", delta, parts) for 120 seeded set partitions of
    the eight rays of hexagon x [-1, 1], of its 4140: a product, so no
    simplex, whose rejected partitions pair flat and full nabla_k."""
    delta = LatticePolytope([v + (z,) for v in HEXAGON for z in (1, -1)])
    everything = list(set_partitions(tuple(range(len(delta.polar_dual().vertices)))))
    for parts in random.Random(37).sample(everything, 120):
        yield "hexagon_x_segment", delta, parts


def _cross_check_cases():
    """The random set partitions, samples of the octahedron's and of
    hexagon x segment's, then every set partition of the rays of each framed
    simplex."""
    yield from _random_set_partitions()
    yield from _octahedron_set_partitions()
    yield from _hexagon_x_segment_set_partitions()
    for name, delta in _framed_simplices():
        for parts in set_partitions(tuple(range(len(delta.polar_dual().vertices)))):
            yield name, delta, parts


def test_support_test_matches_hull_oracle_on_set_partitions():
    # the support-function test of sum Delta_i = Delta gives the messages of
    # the pairwise Minkowski hulls, in order: a rejected partition whose nabla
    # is not reflexive still says so; every accepted partition has a
    # reflexive nabla (Borisov), which is why validation never builds it.
    # On a simplex the part vertices and the GKZ kernel are read off Delta's
    # vertices: they match the DD cuts and the echelon of A^T, and only the
    # lattice test can reject a partition
    kinds, simplex_kinds, simplex_valid, flat_folds = set(), set(), 0, set()
    product_kinds = set()
    for name, delta, parts in _cross_check_cases():
        issues = validate_nef_partition(delta, parts)
        assert issues == nef_diagnostics_by_hulls(delta, parts), (name, parts)
        kinds.add(tuple(issues))
        if name == "octahedron" and "nabla is not reflexive" in issues:
            flat_folds |= {len(part) for part in parts} & {1, 2}
        on_simplex = len(delta.vertices) == delta.ambient_dim + 1
        if on_simplex:
            simplex_kinds.add(tuple(issues))
        if name == "hexagon_x_segment":
            product_kinds.add(tuple(issues))
        if issues:
            continue
        data = NefPartition(delta, parts)
        assert data.nabla.is_reflexive()
        rays = data.rays
        assert data.part_vertices == tuple(
            _part_vertices(delta, [rays[j] for j in part], rays) for part in data.ray_parts
        ), (name, parts)
        g = build_gkz(data).to_json()
        assert g["kernel"] == [list(v) for v in gkz_kernel_by_echelon(g["A"])], (name, parts)
        simplex_valid += on_simplex
    assert kinds >= {
        (),
        ("part polytope has non-lattice vertices",),
        ("Minkowski sum of part polytopes differs from delta", "nabla is not reflexive"),
    }
    assert simplex_kinds == {(), ("part polytope has non-lattice vertices",)}
    assert simplex_valid > 50
    # the octahedron's sample folds rejected partitions with one-ray and
    # with two-ray parts; the product's sample holds accepted and rejected
    # partitions
    assert flat_folds == {1, 2}
    assert product_kinds == {
        (),
        ("Minkowski sum of part polytopes differs from delta", "nabla is not reflexive"),
    }


def test_valid_partition_builds_nabla_on_first_read():
    delta = LatticePolytope(HEXAGON)
    parts = next(p for p in _two_two_two_partitions(6) if not validate_nef_partition(delta, p))
    data = NefPartition(delta, parts)
    assert "nabla" not in vars(data) and "nabla_parts" not in vars(data)
    nabla = data.nabla
    assert data.nabla is nabla and data.nabla_parts is data.nabla_parts
    assert nabla.is_reflexive()


def test_nabla_parts_are_the_vertices_of_their_hulls():
    # each nabla_k is read off the layer-k vertices of Lambda_dual: every ray
    # of part k is a vertex, and the origin is one unless it lies in the
    # hull of the rays (some hexagon parts hold two opposite rays); a nabla_k
    # may be flat, so the reference hull is taken in its span
    count = inner = 0
    for name, data in accepted_partitions():
        origin = (0,) * data.delta.ambient_dim
        for k, part in enumerate(data.ray_parts):
            hull = SpanHull([origin] + [data.rays[j] for j in part])
            assert data.nabla_parts[k] == hull.vertices, (name, data.ray_parts, k)
            count += 1
            inner += origin not in hull.vertices
    assert (count, inner) == (137, 25)


def test_support_test_sums_every_normal_tight_at_a_vertex():
    # the triangle meets all four edges of the square but misses (1, 1):
    # one edge normal tight there cannot tell, their sum (-1, -1) can
    square = LatticePolytope([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    triangle = LatticePolytope([(-1, -1), (1, -1), (-1, 1)])
    assert not _sums_to(square, [triangle.vertices])
    assert _sums_to(square, [[(-1, 0), (1, 0)], [(0, -1), (0, 1)]])


def test_support_test_matches_minkowski_hull_on_subpolytopes():
    # conv(S - q) + {q} = conv(S) lies in delta for any S of its lattice
    # points, so the support test must agree with the hull comparison
    rng = random.Random(77)
    seen = set()
    for verts in SMALL_REFLEXIVE.values():
        delta = LatticePolytope(verts)
        points = lattice_points_by_box(delta)
        n = delta.ambient_dim
        for _ in range(15):
            S = [p for p in points if rng.random() < 0.6]
            if rng.random() < 0.5:
                S += rng.sample(delta.vertices, len(delta.vertices) - rng.randint(0, 1))
            S = S or [points[0]]
            q = rng.choice(points)
            sets = [[tuple(x - y for x, y in zip(p, q)) for p in S], [q]]
            expect = minkowski_sum_by_hulls([LatticePolytope(V, n) for V in sets]) == delta
            assert _sums_to(delta, sets) == expect
            seen.add(expect)
    assert seen == {True, False}


def test_nabla_dual_parts_and_lambda_dual_match_hull_oracles(quartic, eight_hyperplanes, k3):
    # nabla is the polar dual of the one hull conv(Delta_1 ∪ ... ∪ Delta_r),
    # not the Minkowski sum of the nabla_k; dual_parts looks each vertex of
    # nabla^* up in the Delta_i vertices, and the oracle tests it against
    # each Delta_i hull with ``contains``; Lambda_dual is read off its
    # pairing with the tagged Delta_i vertices, not hulled from the nabla_k
    accepted = [quartic, eight_hyperplanes, k3] + [
        NefPartition(delta, parts)
        for _, delta, parts in _random_set_partitions()
        if not validate_nef_partition(delta, parts)
    ]
    assert len(accepted) > 100 and max(data.r for data in accepted) == 5
    for data in accepted:
        nabla_parts = [LatticePolytope(V) for V in data.nabla_parts]
        assert data.nabla == minkowski_sum_by_hulls(nabla_parts)
        homes = [
            next(i for i, P in enumerate(_parts_delta(data)) if contains(P, v))
            for v in data.nabla_dual.vertices
        ]
        assert data.dual_parts() == [
            [idx for idx, home in enumerate(homes) if home == i] for i in range(data.r)
        ]
        _, lam_dual = cayley_pyramids(
            data.part_vertices, [[data.rays[j] for j in part] for part in data.ray_parts]
        )
        assert lam_dual == pyramid_over(cayley_polytope(nabla_parts))
    # euler_double_cover builds that Lambda_dual (the random partitions need
    # not meet its smoothness hypothesis, so only the bundled inputs run it)
    for data in (quartic, eight_hyperplanes, k3):
        ref = pyramid_over(cayley_polytope([LatticePolytope(V) for V in data.nabla_parts]))
        assert euler_double_cover(data).vol_Lambda_dual == ref.normalized_volume()


def _simplex_dual_side_cases():
    """(name, NefPartition) on a simplex: the simplex cases of
    ``accepted_partitions``, each perfbench shape in five seeded frames, and
    both partitions of the segment [-1, 1]."""
    for name, data in accepted_partitions():
        if data.relation is not None:
            yield name, data
    rng = random.Random(36)
    for shape, (n, _) in GEN.SHAPES.items():
        for _ in range(5):
            U, Uinv = GEN.random_frame(n, 3, rng)
            yield shape, NefPartition.from_dict(GEN.framed_input(shape, U, Uinv))
    segment = LatticePolytope([(-1,), (1,)])
    for parts in ([[0, 1]], [[0], [1]]):
        yield "segment", NefPartition(segment, parts)


def test_simplex_dual_side_matches_hull_oracle():
    # on a simplex nabla^* (vertices, facets and incidences), nabla, the
    # nabla_k and the dual partition are read off the labels m_ij of the
    # Delta_i vertices; the oracle hulls the union of the Delta_i vertices,
    # hulls each nabla_k in its span and tests each vertex of nabla^*
    # against the part cuts.  Every part a single ray (r = n + 1) is the
    # case where picking every ray gives no vertex of nabla
    count, every_ray_a_part = 0, 0
    for name, data in _simplex_dual_side_cases():
        nabla_dual, nabla_parts, dual_parts = dual_side_by_hull(data)
        got = data.nabla_dual
        assert (got.vertices, got.facets, got._incidences) == (
            nabla_dual.vertices, nabla_dual.facets, nabla_dual._incidences
        ), (name, data.ray_parts)
        assert data.nabla.vertices == nabla_dual.polar_dual().vertices, (name, data.ray_parts)
        assert data.nabla_parts == nabla_parts, (name, data.ray_parts)
        assert data.dual_parts() == dual_parts, (name, data.ray_parts)
        count += 1
        every_ray_a_part += data.r == len(data.rays)
    assert (count, every_ray_a_part) == (101, 15)
