"""Euler characteristics and Hodge tables of the branched double covers."""

import pytest
from conftest import GEN, accepted_partitions, load_case

from fracmirror.errors import FracmirrorError, SmoothnessError
from fracmirror.nefpart import NefPartition
from fracmirror.polytope import LatticePolytope
from fracmirror.topology import _point_count, euler_double_cover, euler_mpcp, hodge_numbers
from oracles import (
    boundary_lattice_point_count,
    cayley_polytope,
    dk_intersection_euler,
    euler_snc_union_oracle,
    interior_lattice_points,
    lattice_points_by_box,
    pyramid_over,
)


QUARTIC = [(3, -1, -1), (-1, 3, -1), (-1, -1, 3), (-1, -1, -1)]
UNIT3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
TRIANGLE_2H = [(2, -1), (-1, 2), (-1, -1)]


# ------------------------------------------------------------- euler_mpcp


def test_euler_mpcp_known_values():
    assert euler_mpcp(LatticePolytope(QUARTIC)) == 4  # smooth ambient space
    assert euler_mpcp(LatticePolytope(UNIT3)) == 64  # crepant resolution
    assert euler_mpcp(LatticePolytope(TRIANGLE_2H)) == 3
    assert euler_mpcp(LatticePolytope([(1, 0), (0, 1), (-1, -1)])) == 9


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
    # Lambda is read off the true parts; a wrong cached nabla (the quartic
    # simplex itself, whose polar dual has volume 4, not 64) makes chi(X_dual)
    # wrong, so that only the comparison with vol(Lambda) sees it
    data.nabla = LatticePolytope(QUARTIC)
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
    planes = ["1", "2", "3", "4"]
    strata = {frozenset(["D"]): 24}
    for a in planes:
        strata[frozenset([a])] = 3
        strata[frozenset(["D", a])] = -4
    for i, a in enumerate(planes):
        for b in planes[i + 1:]:
            strata[frozenset([a, b])] = 2
            strata[frozenset(["D", a, b])] = 4
    for i, a in enumerate(planes):
        for j, b in enumerate(planes[i + 1:], start=i + 1):
            for c in planes[j + 1:]:
                strata[frozenset([a, b, c])] = 1
                strata[frozenset(["D", a, b, c])] = 0
    strata[frozenset(planes)] = 0
    strata[frozenset(["D"] + planes)] = 0
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


# ------------------------------------------------------------------ hodge


def test_hodge_numbers_k3_table(k3):
    table = hodge_numbers(k3.delta, 12, euler_mpcp(k3.delta))
    assert table.table[(1, 1)] == 8
    assert table.table[(0, 0)] == 1 and table.table[(2, 2)] == 1
    assert table.table[(1, 0)] == 0


def test_hodge_two_routes_agree(quartic):
    # mirror side: h^{1,1} from boundary points equals h^{1,1} from chi
    data = NefPartition(quartic.nabla, quartic.dual_parts())
    h11 = boundary_lattice_point_count(data.delta.polar_dual()) - 3
    chi = euler_double_cover(quartic).chi_Y_dual
    h21 = h11 - chi // 2
    table = hodge_numbers(data.delta, chi, euler_mpcp(data.delta))
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
    for delta in (data.delta, data.nabla):
        dual = delta.polar_dual()
        assert interior_lattice_points(dual) == ((0,) * n,)
        if n > 2:  # a surface's h^{1,1} comes from chi
            h11 = hodge_numbers(delta, 0, euler_mpcp(delta)).table[(1, 1)]
            assert h11 == boundary_lattice_point_count(dual) - n


def test_point_count_reads_the_volume_for_n_up_to_3():
    # #P = Vol + 1 (n = 2, where no command needs the count) and Vol/2 + 3
    # (n = 3, read by _point_count) on both polar duals, Delta* and nabla*,
    # against the box listing
    seen = set()
    for name, data in accepted_partitions():
        n = data.delta.ambient_dim
        if n > 3:
            continue
        for delta in (data.delta, data.nabla):
            vol = euler_mpcp(delta)
            count = vol + 1 if n == 2 else _point_count(delta, vol)
            assert count == len(lattice_points_by_box(delta.polar_dual())), (name, data.ray_parts)
        seen.add(n)
    assert seen == {2, 3}


def test_hodge_rejects_odd_chi(quartic):
    with pytest.raises(FracmirrorError, match="odd Euler characteristic"):
        hodge_numbers(quartic.delta, 7, euler_mpcp(quartic.delta))


def test_hodge_higher_dimension_partial():
    delta = LatticePolytope(
        [(4, -1, -1, -1), (-1, 4, -1, -1), (-1, -1, 4, -1), (-1, -1, -1, 4),
         (-1, -1, -1, -1)]
    )
    data = NefPartition(delta, [[0, 1, 2, 3, 4]])
    table = hodge_numbers(data.delta, 0, euler_mpcp(data.delta))
    assert not table.complete
    assert table.note == "middle Hodge numbers not determined"
    assert table.table[(1, 1)] == table.table[(3, 3)]


def test_hodge_json(quartic):
    topo = euler_double_cover(quartic)
    j = topo.to_json()
    assert j["hodge"]["h"]["1,1"] == 1
    assert j["hodge"]["h"]["2,1"] == 31
    assert j["chi_Y"] == -60
