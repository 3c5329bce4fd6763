"""Nef-partitions: part polytopes, validation diagnostics, duality."""

import copy
import itertools
import random

import pytest

from fracmirror.errors import InvalidNefPartition
from fracmirror.nefpart import (
    NefPartition,
    _sums_to,
    dual_nef_partition,
    polytope_of_part,
    validate_nef_partition,
)
from fracmirror.polytope import LatticePolytope
from oracles import minkowski_sum_by_hulls, nef_diagnostics_by_hulls

QUARTIC = [(3, -1, -1), (-1, 3, -1), (-1, -1, 3), (-1, -1, -1)]
P2 = [(2, -1), (-1, 2), (-1, -1)]
HEXAGON = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, -1), (-1, 1)]


def test_trivial_partition_part_is_delta(quartic):
    assert quartic.r == 1
    assert quartic.parts_delta[0] == quartic.delta


def test_p2_trivial_part():
    data = NefPartition(LatticePolytope(P2), [[0, 1, 2]])
    assert data.parts_delta[0] == LatticePolytope(P2)


def test_eight_hyperplane_parts_are_unit_translates(eight_hyperplanes):
    # each part polytope is a lattice translate of a standard simplex or the
    # origin-cornered simplex; all have normalized volume 1 and 4 vertices
    for P in eight_hyperplanes.parts_delta:
        assert P.affine_dim == 3
        assert len(P.vertices) == 4
        assert P.normalized_volume() == 1
    total = eight_hyperplanes.parts_delta[0]
    for P in eight_hyperplanes.parts_delta[1:]:
        total = total + P
    assert total == eight_hyperplanes.delta


def test_polytope_of_part_errors():
    delta = LatticePolytope(QUARTIC)
    rays = delta.polar_dual().vertices
    with pytest.raises(InvalidNefPartition, match="empty part"):
        polytope_of_part(delta, [], rays)
    # dropping the (-1,-1,-1) ray leaves {x >= -1, y >= 0, z >= 0}: unbounded
    with pytest.raises(InvalidNefPartition, match="unbounded"):
        polytope_of_part(delta, [rays[1]], rays[1:])
    # too few constraints to pin a vertex at all: the homogenized cone is
    # not even pointed
    with pytest.raises(ValueError, match="cone is not pointed"):
        polytope_of_part(delta, [rays[0]], rays[:2])


def test_float_rays_and_part_indices_are_refused():
    # floats are refused, not truncated: rays shifted by 0.4 would turn -0.6
    # into 0, and the indices 0.7..3.7 would load as parts (0, 1, 2, 3)
    delta = LatticePolytope(QUARTIC)
    rays = delta.polar_dual().vertices
    shifted = [tuple(x + 0.4 for x in rho) for rho in rays]
    with pytest.raises(TypeError):
        polytope_of_part(delta, shifted, shifted)
    with pytest.raises(TypeError):
        polytope_of_part(delta, rays, [tuple(map(float, rho)) for rho in rays])
    with pytest.raises(TypeError):
        NefPartition(delta, [[0.7, 1.7, 2.7, 3.7]])
    assert NefPartition(delta, [[3, 2, 1, 0]]).ray_parts == ((0, 1, 2, 3),)


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
    for data in (quartic, eight_hyperplanes, k3):
        union = [v for P in data.parts_delta for v in P.vertices]
        assert data.nabla_dual == LatticePolytope(union, data.delta.ambient_dim)


def test_duality_is_an_involution(quartic, eight_hyperplanes, k3):
    for data in (quartic, eight_hyperplanes, k3):
        dd = data.dual_data().dual_data()
        assert dd.delta == data.delta
        assert dd.ray_parts == data.ray_parts


def test_dual_parts_are_the_dual_partition(quartic, eight_hyperplanes, k3):
    for data in (quartic, eight_hyperplanes, k3):
        assert [tuple(p) for p in data.dual_parts()] == list(data.dual_data().ray_parts)


def test_dual_parts_rejects_a_vertex_in_no_part(k3):
    # shrink every part polytope to the origin: no dual vertex lies in one
    bad = copy.copy(k3)
    origin = LatticePolytope([(0,) * k3.delta.ambient_dim])
    bad.parts_delta = (origin,) * k3.r
    with pytest.raises(InvalidNefPartition, match="lies in no part polytope"):
        bad.dual_parts()
    with pytest.raises(InvalidNefPartition, match="lies in no part polytope"):
        bad.dual_data()


def test_eight_hyperplane_nabla_roundtrip(eight_hyperplanes):
    # recomputing nabla via the dual partition reproduces the same polytope
    dual = eight_hyperplanes.dual_data()
    assert dual.nabla == eight_hyperplanes.delta
    assert dual.delta == eight_hyperplanes.nabla


def test_json_round_trip(quartic):
    again = NefPartition.from_dict(quartic.to_dict())
    assert again == quartic
    with pytest.raises(ValueError, match='nef-partition JSON needs'):
        NefPartition.from_dict({"delta": {"dim": 2, "vertices": [[0, 0]]}})


def test_sign_corrupted_quartic_variant_is_rejected():
    # flipping the sign of three vertices breaks reflexivity outright
    bad = LatticePolytope([(-3, 1, 1), (1, -3, 1), (1, 1, -3), (-1, -1, -1)])
    assert validate_nef_partition(bad, [(0, 1, 2, 3)]) == ["delta is not reflexive"]


SMALL_REFLEXIVE = {
    "p2": P2,
    "hexagon": HEXAGON,
    "square": [(1, 1), (1, -1), (-1, 1), (-1, -1)],
    "quartic": QUARTIC,
    "cube": list(itertools.product((-1, 1), repeat=3)),
    "octahedron": [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    "p2_x_p1": [(x, y, z) for x, y in P2 for z in (1, -1)],
}


def _random_set_partition(rng, k):
    labels = [rng.randrange(rng.randint(1, k)) for _ in range(k)]
    blocks = {}
    for idx, label in enumerate(labels):
        blocks.setdefault(label, []).append(idx)
    return [tuple(b) for b in blocks.values()]


def test_support_test_matches_hull_oracle_on_set_partitions():
    # the support-function test of sum Delta_i = Delta gives the messages of
    # the pairwise Minkowski hulls, in order: a rejected partition whose nabla
    # is not reflexive still says so; every accepted partition has a
    # reflexive nabla (Borisov), which is why validation never builds it
    rng = random.Random(2024)
    kinds = set()
    for name, verts in SMALL_REFLEXIVE.items():
        delta = LatticePolytope(verts)
        k = len(delta.polar_dual().vertices)
        for _ in range(25):
            parts = _random_set_partition(rng, k)
            issues = validate_nef_partition(delta, parts)
            assert issues == nef_diagnostics_by_hulls(delta, parts), (name, parts)
            kinds.add(tuple(issues))
            if not issues:
                assert NefPartition(delta, parts).nabla.is_reflexive()
    assert kinds >= {
        (),
        ("part polytope has non-lattice vertices",),
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


def test_support_test_sums_every_normal_tight_at_a_vertex():
    # the triangle meets all four edges of the square but misses (1, 1):
    # one edge normal tight there cannot tell, their sum (-1, -1) can
    square = LatticePolytope([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    triangle = LatticePolytope([(-1, -1), (1, -1), (-1, 1)])
    assert not _sums_to(square, [triangle])
    segments = [LatticePolytope([(-1, 0), (1, 0)]), LatticePolytope([(0, -1), (0, 1)])]
    assert _sums_to(square, segments)


def test_support_test_matches_minkowski_hull_on_subpolytopes():
    # conv(S - q) + {q} = conv(S) lies in delta for any S of its lattice
    # points, so the support test must agree with the hull comparison
    rng = random.Random(77)
    seen = set()
    for verts in SMALL_REFLEXIVE.values():
        delta = LatticePolytope(verts)
        points = delta.lattice_points()
        n = delta.ambient_dim
        for _ in range(15):
            S = [p for p in points if rng.random() < 0.6]
            if rng.random() < 0.5:
                S += rng.sample(delta.vertices, len(delta.vertices) - rng.randint(0, 1))
            S = S or [points[0]]
            q = rng.choice(points)
            parts = [LatticePolytope([tuple(x - y for x, y in zip(p, q)) for p in S], n), LatticePolytope([q])]
            expect = minkowski_sum_by_hulls(parts) == delta
            assert _sums_to(delta, parts) == expect
            seen.add(expect)
    assert seen == {True, False}
