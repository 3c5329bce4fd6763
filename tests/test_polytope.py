"""Lattice polytopes: hulls, duality, Ehrhart counting, volumes.

Derived values are checked against independent oracles: brute-force box
scans for point counts, scipy's Delaunay triangulation and one Bareiss
determinant per simplex of the pulling triangulation for volumes, and a
Fraction-exact determinant for simplices.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import GEN, SMALL_REFLEXIVE, accepted_partitions

from fracmirror import linalg
from fracmirror.errors import FracmirrorError
from fracmirror.nefpart import NefPartition
from fracmirror.polytope import LatticePolytope, _dd_extreme_rays, cayley_pyramids
from oracles import (
    SpanHull,
    boundary_lattice_point_count,
    cayley_polytope,
    contains,
    dilate_count,
    ehrhart_polynomial,
    extreme_rays_by_subsets,
    hull_by_smith_and_rank,
    independent_rows,
    interior_lattice_points,
    lattice_points_by_box,
    lattice_transform,
    minkowski_sum_by_hulls,
    pyramid_over,
    volume_by_dilation_counts,
    volume_by_simplices,
)

QUARTIC = [(3, -1, -1), (-1, 3, -1), (-1, -1, 3), (-1, -1, -1)]


# ---------------------------------------------------------------- oracles


def brute_points_of_simplex(vertices):
    """All lattice points of a full-dimensional simplex via barycentric
    coordinates solved exactly over the rationals."""
    d = len(vertices[0])
    lo = [min(v[i] for v in vertices) for i in range(d)]
    hi = [max(v[i] for v in vertices) for i in range(d)]
    v0 = vertices[0]
    E = [[Fraction(v[i] - v0[i]) for v in vertices[1:]] for i in range(d)]
    pts = []
    for p in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        rhs = [Fraction(p[i] - v0[i]) for i in range(d)]
        lam = _solve_fraction(E, rhs)
        if lam is None:
            continue
        if all(x >= 0 for x in lam) and sum(lam) <= 1:
            pts.append(p)
    return sorted(pts)


def _solve_fraction(M, b):
    n = len(b)
    a = [row[:] + [b[i]] for i, row in enumerate(M)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def delaunay_normalized_volume(points):
    """d! times the Euclidean volume, via scipy's qhull triangulation."""
    from scipy.spatial import Delaunay

    pts = np.array(points, dtype=float)
    tri = Delaunay(pts)
    vol = 0.0
    for simplex in tri.simplices:
        vs = pts[simplex]
        vol += abs(np.linalg.det(vs[1:] - vs[0]))
    return round(vol)


def random_unimodular(rng, n):
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            f = rng.randint(-2, 2)
            M[i] = [a + f * b for a, b in zip(M[i], M[j])]
    return M


# ---------------------------------------------------------------- hulls


def test_unit_square_hull():
    P = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert P.vertices == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert len(P.facets) == 4
    assert P.affine_dim == 2


def test_interior_points_are_not_vertices():
    P = LatticePolytope([(0, 0), (2, 0), (0, 2), (1, 1), (1, 0)])
    assert P.vertices == ((0, 0), (0, 2), (2, 0))


def test_extreme_rays_do_not_depend_on_row_order():
    # the seed cone comes from the first independent rows, so shuffling the
    # rows changes the seed but never the primitive extreme rays returned;
    # mask bits index the distinct rows, so they follow the shuffle
    rng = random.Random(808)
    checked = 0
    while checked < 60:
        d = rng.randint(1, 5)
        n_pts = d + rng.randint(1, 4)
        pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(n_pts)]
        if LatticePolytope(pts).affine_dim != d:
            continue
        rows = [p + (1,) for p in pts]
        shuffled = rows[:]
        rng.shuffle(shuffled)
        rays, moved = _dd_extreme_rays(rows), _dd_extreme_rays(shuffled)
        assert [r for r, _ in moved] == [r for r, _ in rays]
        distinct, moved_distinct = list(dict.fromkeys(rows)), list(dict.fromkeys(shuffled))
        where = [moved_distinct.index(r) for r in distinct]
        for (_, m), (_, n) in zip(rays, moved):
            assert n == sum(1 << where[i] for i in range(len(distinct)) if m >> i & 1)
        checked += 1


def _seeded_cones(rng, count):
    """Row lists of pointed cones in Z^k, k <= 6: half are homogenized point
    sets of dimension d <= 5 with the midpoint of two of their points (on a
    face or inside), half are random rows positive on one direction; each
    gets a redundant row (the sum of two rows), a repeated row and a zero
    row."""
    made = 0
    while made < count:
        d = rng.randint(1, 5)
        if made % 2:
            pts = [tuple(2 * rng.randint(-2, 2) for _ in range(d)) for _ in range(d + rng.randint(1, 3))]
            pts.append(tuple((x + y) // 2 for x, y in zip(*rng.sample(pts, 2))))
            rows = [p + (1,) for p in pts]
        else:
            c = [rng.randint(-2, 2) for _ in range(d)]
            rows = [r for r in (tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(2 * d + 4))
                    if sum(a * b for a, b in zip(r, c)) > 0]
        if len(rows) < 2 or len(independent_rows(rows)) < len(rows[0]):
            continue
        a, b = rng.sample(rows, 2)
        rows.append(tuple(x + y for x, y in zip(a, b)))
        rows.insert(rng.randint(0, len(rows)), rng.choice(rows))
        rows.insert(rng.randint(0, len(rows)), (0,) * len(rows[0]))
        made += 1
        yield rows


def test_extreme_rays_match_subset_oracle():
    # the rays against one kernel line per rank-(k−1) row subset, and each
    # mask against the distinct nonzero rows tight on its ray; the seed is
    # either the pass's own or the row_basis of the rows in a shuffled order
    rng = random.Random(1414)
    for rows in _seeded_cones(rng, 80):
        distinct = list(dict.fromkeys(r for r in rows if any(r)))
        order = list(range(len(distinct)))
        rng.shuffle(order)
        idx, d, E = linalg.row_basis([distinct[j] for j in order])
        seed = [order[i] for i in idx], d, E
        expect = extreme_rays_by_subsets(rows)
        for got in (_dd_extreme_rays(rows), _dd_extreme_rays(rows, seed)):
            assert [r for r, _ in got] == expect
            for ray, mask in got:
                tight = [sum(a * b for a, b in zip(r, ray)) == 0 for r in distinct]
                assert mask == sum(1 << i for i, t in enumerate(tight) if t)


def test_no_points_error():
    with pytest.raises(ValueError, match="no points"):
        LatticePolytope([])


def test_single_point_and_segment():
    # a set that spans less than its space builds no hull: it keeps its
    # distinct points, and its volume, lattice-point count and polar dual are
    # refused rather than measured in the wrong space
    P = LatticePolytope([(0, 0, 0)])
    assert (P.affine_dim, P.vertices, P.facets) == (0, ((0, 0, 0),), ())
    S = LatticePolytope([(2, 4, 6), (0, 0, 0), (1, 2, 3), (2, 4, 6)])
    assert (S.affine_dim, S.vertices, S.facets) == (1, ((0, 0, 0), (1, 2, 3), (2, 4, 6)), ())
    Z = LatticePolytope([()])
    assert (Z.ambient_dim, Z.affine_dim, Z.vertices, Z.facets) == (0, 0, ((),), ())
    for Q in (P, S, Z):
        assert not Q.is_reflexive()
        for measure in (Q.normalized_volume, Q.lattice_point_count, Q.polar_dual):
            with pytest.raises(FracmirrorError, match="requires a full-dimensional polytope"):
                measure()
    # in the coordinates of its span the segment is two primitive steps
    # along (1, 2, 3)
    H = SpanHull(S.vertices)
    assert H.affine_dim == 1 and H.vertices == ((0, 0, 0), (2, 4, 6))
    assert H.span.normalized_volume() == 2
    assert H.lattice_points() == ((0, 0, 0), (1, 2, 3), (2, 4, 6))


def test_contains():
    # the membership oracle, the reference for ``NefPartition.dual_parts``
    P = LatticePolytope(QUARTIC)
    assert contains(P, (0, 0, 0))
    assert contains(P, (3, -1, -1))
    assert not contains(P, (2, 2, 2))
    assert contains(P, (Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2)))
    # rational coordinates are used exactly, never truncated
    assert not contains(P, (Fraction(-3, 2), 0, 0))
    # a flat set is tested in its span
    S = LatticePolytope([(0, 0, 0), (2, 4, 6)])
    assert contains(S, (Fraction(1, 2), 1, Fraction(3, 2)))
    assert not contains(S, (Fraction(1, 2), 1, 1))
    with pytest.raises(TypeError):
        contains(P, (-1.5, 0, 0))


# ---------------------------------------------------------------- counting


def test_quartic_simplex_lattice_points_against_barycentric_oracle():
    P = LatticePolytope(QUARTIC)
    expect = brute_points_of_simplex(QUARTIC)
    assert P.lattice_point_count() == len(expect) == 35
    assert list(lattice_points_by_box(P)) == expect
    assert interior_lattice_points(P) == ((0, 0, 0),)
    assert boundary_lattice_point_count(P) == 34


def test_dilate_counts_against_oracle():
    P = LatticePolytope(QUARTIC)
    for k in (0, 1, 2):
        scaled = [tuple(k * x for x in v) for v in QUARTIC]
        expect = len(brute_points_of_simplex(scaled)) if k else 1
        assert dilate_count(P, k) == expect
    with pytest.raises(TypeError):  # not truncated to k = 2
        dilate_count(P, 2.5)


def test_lattice_point_count_matches_the_box_listing():
    # Delta* and nabla* of every generated shape, and seeded random
    # polytopes of dimension 2 to 4
    polytopes = []
    for shape, (n, _) in GEN.SHAPES.items():
        data = NefPartition.from_dict(GEN.framed_input(shape, GEN.identity(n), GEN.identity(n)))
        polytopes += [data.delta.polar_dual(), data.nabla.polar_dual()]
    rng = random.Random(39)
    while len(polytopes) < 2 * len(GEN.SHAPES) + 30:
        d = rng.randint(2, 4)
        P = LatticePolytope([tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d + 3)])
        if P.affine_dim == d:
            polytopes.append(P)
    for P in polytopes:
        assert P.lattice_point_count() == len(lattice_points_by_box(P)), P.vertices


def test_lower_dimensional_counting():
    # triangles in a 2-plane of Z^3, counted in the coordinates of their
    # span against a box scan; the span is x + y - z = 0 for the first and
    # z = 0 for the second, whose 10 points a hull that ignored its span
    # would miscount
    for T, box, count in (
        ([(0, 0, 0), (2, 0, 2), (0, 2, 2)], (range(3), range(3), range(5)), 6),
        ([(0, 0, 0), (3, 0, 0), (0, 3, 0)], (range(4), range(4), range(-1, 2)), 10),
    ):
        tri = SpanHull(T)
        assert tri.affine_dim == 2
        assert tri.span.lattice_point_count() == len(tri.lattice_points()) == count
        flat = LatticePolytope(T)
        assert tri.lattice_points() == tuple(p for p in itertools.product(*box) if contains(flat, p))


# ---------------------------------------------------------------- volumes


def _random_sublattice_polytopes(rng, count):
    """``(P, flat)`` for point sets of a random affine sublattice of Z^D,
    D <= 5: simplices and non-simplices, full-dimensional or not, a flat
    one as the hull of its span coordinates (``SpanHull``); points are
    skipped."""
    for _ in range(count):
        D = rng.randint(1, 5)
        a = rng.randint(1, D)
        basis = [[rng.randint(-1, 1) for _ in range(D)] for _ in range(a)]
        origin = [rng.randint(-2, 2) for _ in range(D)]
        span = 2 if a <= 3 else 1
        pts = []
        for _ in range(a + rng.randint(1, 5)):
            c = [rng.randint(-span, span) for _ in range(a)]
            pts.append(
                tuple(origin[i] + sum(c[j] * basis[j][i] for j in range(a)) for i in range(D))
            )
        P = LatticePolytope(pts)
        if P.affine_dim == P.ambient_dim:
            yield P, False
        elif P.affine_dim:
            yield SpanHull(pts).span, True


def test_volume_matches_count_on_random_polytopes():
    # the triangulation volume must equal the dilated-count oracle on
    # simplices and non-simplices, full-dimensional or not
    seen = {"simplex": 0, "non-simplex": 0, "lower-dimensional": 0}
    for P, flat in _random_sublattice_polytopes(random.Random(101), 150):
        assert P.normalized_volume() == volume_by_dilation_counts(P)
        if len(P.vertices) == P.affine_dim + 1:
            seen["simplex"] += 1
        else:
            seen["non-simplex"] += 1
        seen["lower-dimensional"] += flat
    assert min(seen.values()) >= 30, seen


def test_volume_matches_one_determinant_per_simplex():
    # the flag walk, which shares the eliminations of a common flag prefix,
    # against one Bareiss determinant per simplex of the pulling
    # triangulation: on Delta*, nabla*, Lambda and Lambda_dual of every
    # accepted partition, and on the random point sets above, flat included
    count = 0
    for name, data in accepted_partitions():
        lam, lam_dual = cayley_pyramids(data.part_vertices, _part_rays(data))
        for P in (data.delta.polar_dual(), data.nabla_dual, lam, lam_dual):
            assert P.normalized_volume() == volume_by_simplices(P), (name, data.ray_parts)
            count += 1
    assert count == 4 * len(accepted_partitions()) > 240
    flats = 0
    for P, flat in _random_sublattice_polytopes(random.Random(101), 150):
        assert P.normalized_volume() == volume_by_simplices(P)
        flats += flat
    assert flats >= 30


def test_volume_against_delaunay_oracle():
    rng = random.Random(202)
    cases = [
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
        [(-1, -1), (2, 1), (1, 2), (-1, 0), (0, -1)],
    ]
    for _ in range(8):
        d = rng.choice([2, 3])
        pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d + 4)]
        if LatticePolytope(pts).affine_dim == d:
            cases.append(pts)
    for pts in cases:
        P = LatticePolytope(pts)
        assert P.normalized_volume() == delaunay_normalized_volume(P.vertices)


def test_volume_invariant_under_unimodular_maps():
    rng = random.Random(303)
    P = LatticePolytope(QUARTIC)
    for _ in range(5):
        U = random_unimodular(rng, 3)
        Q = lattice_transform(U, P)
        assert Q.normalized_volume() == P.normalized_volume()
        assert Q.lattice_point_count() == P.lattice_point_count()


# ---------------------------------------------------------------- Ehrhart


def test_ehrhart_polynomial_predicts_unseen_dilates():
    for verts in (
        QUARTIC,
        [(0, 0), (1, 0), (0, 1), (1, 1)],
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    ):
        P = LatticePolytope(verts)
        coeffs = ehrhart_polynomial(P)
        a = P.affine_dim
        assert len(coeffs) == a + 1
        assert coeffs[0] == 1  # constant term chi of a polytope
        assert coeffs[-1] * math.factorial(a) == P.normalized_volume()
        for k in (a + 1, a + 2):
            predicted = sum(c * k**i for i, c in enumerate(coeffs))
            assert predicted == dilate_count(P, k)


# ---------------------------------------------------------------- duality


def test_polar_dual_known_pairs():
    K3 = LatticePolytope([(2, -1), (-1, 2), (-1, -1)])
    assert K3.polar_dual().vertices == ((-1, -1), (0, 1), (1, 0))
    Q = LatticePolytope(QUARTIC)
    assert Q.polar_dual().vertices == ((-1, -1, -1), (0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_polar_dual_is_kept_and_failures_repeat():
    Q = LatticePolytope(QUARTIC)
    assert Q.polar_dual() is Q.polar_dual()
    P = LatticePolytope([(2, 0), (0, 2), (-2, 0), (0, -2)])
    for _ in range(2):
        with pytest.raises(ValueError, match="not reflexive"):
            P.polar_dual()


def test_polar_dual_requires_interior_origin():
    shifted = LatticePolytope([(1, 1), (3, 1), (1, 3)])
    with pytest.raises(ValueError, match="origin is not an interior point"):
        shifted.polar_dual()
    flat = LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError, match="full-dimensional"):
        flat.polar_dual()


def test_polar_dual_rejects_non_reflexive():
    P = LatticePolytope([(2, 0), (0, 2), (-2, 0), (0, -2)])
    with pytest.raises(ValueError, match="not reflexive"):
        P.polar_dual()


def test_polar_involution_on_random_sheared_reflexives():
    rng = random.Random(404)
    seeds = [
        QUARTIC,
        [(2, -1), (-1, 2), (-1, -1)],
        [(1, 0), (0, 1), (-1, 0), (0, -1), (1, -1), (-1, 1)],
        [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1),
         (1, 1, -1), (1, -1, 1), (-1, 1, 1)],
    ]
    checked = 0
    while checked < 20:
        base = rng.choice(seeds)
        U = random_unimodular(rng, len(base[0]))
        P = lattice_transform(U, LatticePolytope(base))
        assert P.is_reflexive()
        assert P.polar_dual().polar_dual() == P
        checked += 1


def _incidence_pairs(P):
    return {
        (g, v)
        for (g, _), m in zip(P.facets, P._incidences)
        for k, v in enumerate(P.vertices)
        if m >> k & 1
    }


def test_polar_dual_by_transposition_matches_the_hull(quartic, eight_hyperplanes, k3):
    # the polar dual is read off P with no hull: it must be the hull of the
    # facet normals in every field, and its own dual must be P itself; the
    # bundled nabla is built afresh, since its kept dual is the hull of the
    # union of the Delta_i
    rng = random.Random(1818)
    bases = [LatticePolytope(verts) for verts in SMALL_REFLEXIVE.values()]
    bases += [
        LatticePolytope(P.vertices) for data in (quartic, eight_hyperplanes, k3) for P in (data.delta, data.nabla)
    ]
    framed = [lattice_transform(random_unimodular(rng, P.ambient_dim), P) for P in bases for _ in range(2)]
    for P in bases + framed:
        dual = P.polar_dual()
        hull = LatticePolytope([g for g, _ in P.facets])
        assert (dual.vertices, dual.facets) == (hull.vertices, hull.facets)
        assert _incidence_pairs(dual) == _incidence_pairs(hull)
        assert dual.normalized_volume() == hull.normalized_volume()
        assert dual.lattice_point_count() == hull.lattice_point_count()
        assert dual.polar_dual() is P


def test_is_reflexive_false_cases():
    assert not LatticePolytope([(2, 0), (0, 2), (-2, 0), (0, -2)]).is_reflexive()
    assert not LatticePolytope([(0, 0), (1, 0), (0, 1)]).is_reflexive()
    assert not LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0)]).is_reflexive()


# ------------------------------------------------------------ constructions


def test_minkowski_sum_of_segments_is_square():
    a = LatticePolytope([(0, 0), (1, 0)])
    b = LatticePolytope([(0, 0), (0, 1)])
    assert minkowski_sum_by_hulls([a, b]).vertices == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_cayley_and_pyramid():
    tri = LatticePolytope([(0, 0), (1, 0), (0, 1)])
    seg = LatticePolytope([(0, 0), (1, 0)])
    C = cayley_polytope([tri, seg])
    assert C.ambient_dim == 4
    # vertices carry one-hot tags
    assert set(C.vertices) == {
        (0, 0, 1, 0), (1, 0, 1, 0), (0, 1, 1, 0),
        (0, 0, 0, 1), (1, 0, 0, 1),
    }
    pyr = pyramid_over(C)
    assert tuple([0] * 4) in pyr.vertices
    # Cayley of a single polytope is the factor at height 1, flat in Z^3,
    # and keeps its volume in its span
    C1 = cayley_polytope([tri])
    assert C1.affine_dim == 2 and not C1.facets
    assert SpanHull(C1.vertices).span.normalized_volume() == tri.normalized_volume()


def _part_rays(data):
    return [[data.rays[j] for j in part] for part in data.ray_parts]


def test_cayley_pyramid_is_the_two_hull_pyramid():
    # Lambda and Lambda_dual read off one pairing against the pyramids over
    # the Cayley polytopes of the hulls of the Delta_i and of the nabla_k,
    # in vertices, facets, incidences and volume; on some hexagon partitions
    # a part holds two opposite rays, so 0 is no vertex of its nabla_k
    inner = 0
    for name, data in accepted_partitions():
        n = data.delta.ambient_dim
        lam, lam_dual = cayley_pyramids(data.part_vertices, _part_rays(data))
        parts = [LatticePolytope(V, n) for V in data.part_vertices]
        for got, ref in (
            (lam, pyramid_over(cayley_polytope(parts))),
            (lam_dual, pyramid_over(cayley_polytope([LatticePolytope(V) for V in data.nabla_parts]))),
        ):
            assert (got.vertices, got.facets, got._incidences) == (
                ref.vertices, ref.facets, ref._incidences
            ), (name, data.ray_parts)
            assert got.normalized_volume() == ref.normalized_volume()
        inner += any((0,) * n not in V for V in data.nabla_parts)
    assert len(accepted_partitions()) > 60 and inner > 0


def test_cayley_pyramids_refuse_a_vertex_off_its_cut(quartic, eight_hyperplanes):
    # a nonzero Delta_i vertex m is tight on some <m, rho> >= -1, so 2m is
    # off the cut and pairs negatively with that ray
    for data in (quartic, eight_hyperplanes):
        moved = [list(V) for V in data.part_vertices]
        j = next(j for j, m in enumerate(moved[0]) if any(m))
        moved[0][j] = tuple(2 * x for x in moved[0][j])
        with pytest.raises(FracmirrorError, match="pairs negatively"):
            cayley_pyramids(moved, _part_rays(data))


def _affine_rank(points):
    if len(points) < 2:
        return 0
    diffs = [[x - y for x, y in zip(p, points[0])] for p in points[1:]]
    return int(np.linalg.matrix_rank(np.array(diffs, dtype=float)))


def test_lifted_facets_of_lower_dimensional_polytopes():
    # points v0 + B·y with B an integer D×a matrix of rank a < D lie in a
    # proper affine sublattice, so LatticePolytope keeps them with no
    # facets; each facet (w, c) of their SpanHull is lifted from span
    # coordinates and must be integral, valid and tight on a facet of P,
    # and P has as many facets as conv(y) in Z^a
    rng = random.Random(707)
    checked = 0
    while checked < 120:
        D = rng.randint(2, 5)
        a = rng.randint(1, D - 1)
        B = [[rng.randint(-2, 2) for _ in range(a)] for _ in range(D)]
        k = a + rng.randint(1, 4)
        ys = [tuple(rng.randint(-2, 2) for _ in range(a)) for _ in range(k)]
        Q = LatticePolytope(ys)
        if np.linalg.matrix_rank(np.array(B, dtype=float)) != a or Q.affine_dim != a:
            continue
        v0 = [rng.randint(-3, 3) for _ in range(D)]
        pts = [tuple(v0[i] + sum(b * y for b, y in zip(B[i], yy)) for i in range(D)) for yy in ys]
        flat = LatticePolytope(pts, D)
        assert (flat.affine_dim, flat.facets) == (a, ())
        P = SpanHull(pts)
        assert P.affine_dim == a
        assert len(P.facets) == len(Q.facets)
        for w, c in P.facets:
            assert len(w) == D and all(type(x) is int for x in w) and type(c) is int
            heights = [sum(x * v for x, v in zip(w, vert)) + c for vert in P.vertices]
            assert all(h >= 0 for h in heights)
            tight = [vert for vert, h in zip(P.vertices, heights) if h == 0]
            assert tight and _affine_rank(tight) == a - 1
        checked += 1


def on_points(facets, pts):
    """Each facet as the values w·p + c it takes on pts, sorted."""
    return sorted(tuple(sum(x * y for x, y in zip(w, p)) + c for p in pts) for w, c in facets)


def test_incidence_vertices_match_rank_oracle():
    # vertices read off the facet incidence masks, and the affine dimension
    # from the independent homogenized points, against the Smith form, the
    # subset ray oracle and one rank test per point; some sets lie in a
    # proper affine sublattice, and points repeat, sit inside faces and in
    # the interior.  A flat set keeps its points and no facets, and its hull
    # is taken through ``SpanHull``, whose lifted normals depend on the span
    # transform, so facets are compared frame-free, as the values w·p + c
    # they take on the input points
    rng = random.Random(1111)
    flat = 0
    for _ in range(300):
        D = rng.randint(1, 4)
        a = rng.randint(0, D)
        if rng.random() < 0.35 and a < D:
            B = [[rng.randint(-2, 2) for _ in range(a)] for _ in range(D)]
        else:
            a, B = D, [[int(i == j) for j in range(D)] for i in range(D)]
        v0 = [rng.randint(-3, 3) for _ in range(D)]
        ys = [[rng.randint(-2, 2) for _ in range(a)] for _ in range(rng.randint(1, 9))]
        pts = [tuple(v0[i] + sum(b * y for b, y in zip(B[i], yy)) for i in range(D)) for yy in ys]
        P = LatticePolytope(pts, D)
        a, vertices, facets = hull_by_smith_and_rank(pts, D)
        assert P.affine_dim == a
        if 0 < a < D:
            flat += 1
            assert (P.vertices, P.facets) == (tuple(sorted(set(pts))), ())
            P = SpanHull(pts)
        assert P.vertices == vertices
        assert on_points(P.facets, pts) == on_points(facets, pts)
    assert flat >= 30


def test_coordinates_must_be_integers():
    # a float or a Fraction coordinate is refused, not truncated; NumPy ints
    # are integers
    with pytest.raises(TypeError):
        LatticePolytope([(0, 0), (1.7, 0), (0, 1)])
    with pytest.raises(TypeError):
        LatticePolytope([(0, 0), (Fraction(1, 2), 0), (0, 1)])
    with pytest.raises(TypeError):
        LatticePolytope([(0, 0), (1, 0)], ambient_dim=2.0)
    P = LatticePolytope([(0, 0), (np.int64(1), 0), (0, np.int32(1))])
    assert P.vertices == ((0, 0), (0, 1), (1, 0))
    assert all(type(x) is int for v in P.vertices for x in v)


def test_extreme_rays_refuse_float_rows():
    # (1.7, 0) is refused, not truncated to the row (1, 0); NumPy ints are
    # integers
    with pytest.raises(TypeError):
        _dd_extreme_rays([(1.7, 0), (0, 1)])
    with pytest.raises(TypeError):
        _dd_extreme_rays([(Fraction(1, 2), 0), (0, 1)])
    assert _dd_extreme_rays([(np.int64(1), 0), (0, np.int32(1))]) == (((0, 1), 0b01), ((1, 0), 0b10))


def test_lattice_transform_on_points_and_polytopes():
    U = [[0, -1], [1, 0]]
    pts = [(1, 0), (0, 1)]
    assert lattice_transform(U, pts) == ((0, 1), (-1, 0))
    P = LatticePolytope([(2, -1), (-1, 2), (-1, -1)])
    Q = lattice_transform(U, P)
    assert isinstance(Q, LatticePolytope)
    assert Q.normalized_volume() == P.normalized_volume()


# ---------------------------------------------------------------- JSON


def test_json_round_trip():
    P = LatticePolytope(QUARTIC)
    assert LatticePolytope.from_dict(P.to_dict()) == P
    with pytest.raises(ValueError, match='polytope JSON needs "dim" and "vertices"'):
        LatticePolytope.from_dict({"vertices": [[0]]})
