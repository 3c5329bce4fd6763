"""Exact lattice polytopes: hulls, duals, volumes, lattice points.

Everything is integer/rational arithmetic.  Convex hulls come from an
incremental double-description pass over the homogenization cone, in the
coordinates of a Smith transform only when the points span less than the
ambient space, and vertices are read off the facet incidences; volumes are
normalized lattice volumes in the affine span, summed over the simplices of a
pulling triangulation read off the facet–vertex incidences (the dilated
lattice-point counts of ``method="count"`` are the oracle); lattice-point
scans run on the one exact-int prefix→interval scan in ``_accel``, and Smith
forms come from ``linalg`` as lists of integer rows.
"""

import math
import operator
from fractions import Fraction

from . import _accel, linalg
from .errors import FracmirrorError

__all__ = [
    "LatticePolytope",
    "cayley_pyramid",
]


def _primitive(vec):
    g = 0
    for x in vec:
        g = math.gcd(g, abs(x))
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)


def _dot(u, v):
    return sum(map(operator.mul, u, v))


def _require_ints(values, what):
    """Reject JSON input that ``int()`` would coerce: floats, bools, strings."""
    for x in values:
        if type(x) is not int:
            raise ValueError(f"{what} {x!r} is not an integer")


def _dd_extreme_rays(rows):
    """Extreme rays of the pointed cone {y : r·y >= 0 for every row r}.

    ``rows`` are integer tuples (floats raise TypeError) spanning the ambient
    space (pointed dual cone).  Returns lex-sorted primitive integer generators.
    """
    seen = set()
    clean = []
    for r in rows:
        t = tuple(map(operator.index, r))
        if any(t) and t not in seen:
            seen.add(t)
            clean.append(t)
    rows = clean
    if not rows:
        raise ValueError("cone needs at least one constraint")
    k = len(rows[0])

    seed_idx = linalg.independent_rows(rows)
    if len(seed_idx) < k:
        raise ValueError("cone is not pointed: constraints do not span")

    S = [rows[i] for i in seed_idx]
    # seed row i meets column j of adj(S) at det(S)·δ_ij: each column, signed
    # by det(S) and made primitive, is a ray of the simplicial seed cone
    d, adj = linalg.adjugate(S)
    sign = 1 if d > 0 else -1
    rays = [_primitive([sign * adj[i][j] for i in range(k)]) for j in range(k)]

    seed_set = set(seed_idx)
    active = list(S)
    masks = []
    for r in rays:
        m = 0
        for t, arow in enumerate(active):
            if _dot(arow, r) == 0:
                m |= 1 << t
        masks.append(m)

    for idx, row in enumerate(rows):
        if idx in seed_set:
            continue
        s = [_dot(row, r) for r in rays]
        minus = [j for j, v in enumerate(s) if v < 0]
        if not minus:
            active.append(row)
            bit = 1 << (len(active) - 1)
            masks = [m | bit if s[j] == 0 else m for j, m in enumerate(masks)]
            continue
        plus = [j for j, v in enumerate(s) if v > 0]
        zero = [j for j, v in enumerate(s) if v == 0]
        new_rays = []
        for jp in plus:
            for jm in minus:
                common = masks[jp] & masks[jm]
                adjacent = True
                for jt in range(len(rays)):
                    if jt != jp and jt != jm and (masks[jt] & common) == common:
                        adjacent = False
                        break
                if adjacent:
                    comb = tuple(
                        s[jp] * rays[jm][t] - s[jm] * rays[jp][t] for t in range(k)
                    )
                    new_rays.append(_primitive(comb))
        keep = plus + zero
        rays = [rays[j] for j in keep]
        masks = [masks[j] for j in keep]
        active.append(row)
        bit = 1 << (len(active) - 1)
        for t, j in enumerate(keep):
            if s[j] == 0:
                masks[t] |= bit
        for r in new_rays:
            if r in rays:
                continue
            m = 0
            for t, arow in enumerate(active):
                if _dot(arow, r) == 0:
                    m |= 1 << t
            rays.append(r)
            masks.append(m)
    return tuple(sorted(rays))


class LatticePolytope:
    """Convex hull of finitely many lattice points, in canonical form.

    Vertices and facet pairs are stored lex-sorted so equal polytopes have
    identical representations.  Facets are inward pairs ``(normal, offset)``
    with ``normal·x + offset >= 0`` on the polytope.
    """

    __slots__ = (
        "points",
        "ambient_dim",
        "affine_dim",
        "vertices",
        "facets",
        "_v0",
        "_U",
        "_B",
        "_span_vertices",
        "_span_facets",
        "_lattice_points",
        "_polar_dual",
    )

    def __init__(self, points, ambient_dim=None):
        # operator.index takes Python and NumPy ints and rejects floats and
        # Fractions instead of truncating them
        pts = sorted({tuple(map(operator.index, p)) for p in points})
        if not pts:
            raise ValueError("no points: a polytope needs at least one point")
        D = len(pts[0]) if ambient_dim is None else operator.index(ambient_dim)
        if any(len(p) != D for p in pts):
            raise ValueError("points have inconsistent dimension")
        self.points = tuple(pts)
        self.ambient_dim = D
        self._lattice_points = None
        self._polar_dual = None

        if len(pts) == 1 or D == 0:
            self.affine_dim = 0
            self.vertices = (pts[0],)
            self.facets = ()
            self._v0 = pts[0]
            self._U = None
            self._B = None
            self._span_vertices = ((),)
            self._span_facets = ()
            return

        v0 = pts[0]
        diffs = [[x - y for x, y in zip(p, v0)] for p in pts[1:]]
        a = len(linalg.independent_rows(diffs))
        self.affine_dim = a

        if a == D:
            self._v0 = tuple([0] * D)
            self._U = None
            self._B = None
            span_pts = pts
        else:
            # only a lower-dimensional span needs the transform U
            _, U, _ = linalg.smith_normal_form(list(zip(*diffs)))
            self._v0 = v0
            self._U = U
            self._B = [row[:a] for row in linalg.inverse_unimodular(U)]
            span_pts = [self._project(p) for p in pts]

        if a == 0:
            self.vertices = (pts[0],)
            self.facets = ()
            self._span_vertices = ((),)
            self._span_facets = ()
            return

        hull_rows = [y + (1,) for y in span_pts]
        rays = _dd_extreme_rays(hull_rows)
        span_facets = []
        for ray in rays:
            g, c = ray[:-1], ray[-1]
            if not any(g):
                continue
            span_facets.append((g, c))
        span_facets.sort()
        self._span_facets = tuple(span_facets)

        # a point is a vertex iff no other point lies on every facet it lies
        # on: a face holding two input points has two vertices among them
        masks = [
            sum(1 << t for t, (g, c) in enumerate(span_facets) if _dot(g, y) + c == 0)
            for y in span_pts
        ]
        verts = [
            i
            for i, m in enumerate(masks)
            if not any(n & m == m for j, n in enumerate(masks) if j != i)
        ]
        self.vertices = tuple(pts[i] for i in verts)
        self._span_vertices = tuple(span_pts[i] for i in verts)

        if a == D:
            self.facets = self._span_facets
        else:
            # on the span U·(x − v0) = (y, 0), so w = Σ_{i<a} g_i·U[i] gives
            # w·(x − v0) = g·y; w is primitive because U is unimodular
            cols = list(zip(*self._U[:a]))
            lifted = []
            for g, c in span_facets:
                w = tuple(_dot(g, col) for col in cols)
                lifted.append((w, c - _dot(w, v0)))
            self.facets = tuple(sorted(lifted))

    # -- affine span machinery -------------------------------------------

    def _project(self, p):
        """Span coordinates of ambient point p, or None if off the span."""
        if self._U is None:
            return tuple(p)
        diff = [p[i] - self._v0[i] for i in range(self.ambient_dim)]
        y = [_dot(row, diff) for row in self._U]
        a = self.affine_dim
        if any(y[a:]):
            return None
        return tuple(y[:a])

    def _unproject(self, y):
        if self._B is None:
            return tuple(y)
        D = self.ambient_dim
        return tuple(
            self._v0[i] + _dot(self._B[i], y) for i in range(D)
        )

    # -- predicates -------------------------------------------------------

    def contains(self, point):
        """Whether a point with int or Fraction coordinates lies in P."""
        p = tuple(point)
        if any(type(x) not in (int, Fraction) for x in p):
            raise TypeError("point coordinates must be int or Fraction")
        if len(p) != self.ambient_dim:
            raise ValueError("point has wrong dimension")
        y = self._project(p)
        if y is None:
            return False
        if self.affine_dim == 0:
            return p == self.vertices[0]
        return all(_dot(g, y) + c >= 0 for g, c in self._span_facets)

    def is_reflexive(self):
        return (
            self.affine_dim == self.ambient_dim
            and self.ambient_dim > 0
            and all(c == 1 for _, c in self.facets)
        )

    # -- duality ----------------------------------------------------------

    def polar_dual(self):
        """The polar dual of a reflexive polytope, built once and kept."""
        if self._polar_dual is None:
            if self.affine_dim != self.ambient_dim or self.ambient_dim == 0:
                raise FracmirrorError("polar dual requires a full-dimensional polytope")
            if any(c <= 0 for _, c in self.facets):
                raise FracmirrorError("origin is not an interior point")
            if any(c != 1 for _, c in self.facets):
                raise FracmirrorError(
                    "polytope is not reflexive: polar dual is not a lattice polytope"
                )
            self._polar_dual = LatticePolytope([g for g, _ in self.facets])
        return self._polar_dual

    # -- lattice points ---------------------------------------------------

    def _span_box(self, k=1):
        a = self.affine_dim
        lo = [min(y[i] for y in self._span_vertices) * k for i in range(a)]
        hi = [max(y[i] for y in self._span_vertices) * k for i in range(a)]
        return lo, hi

    def dilate_lattice_point_count(self, k):
        """Number of lattice points in k·P (k a nonnegative integer)."""
        k = operator.index(k)
        if k < 0:
            raise ValueError("dilation factor must be nonnegative")
        if k == 0 or self.affine_dim == 0:
            return 1
        lo, hi = self._span_box(k)
        A = [g for g, _ in self._span_facets]
        c = [cc * k for _, cc in self._span_facets]
        return _accel.count_points(lo, hi, A, c)

    def lattice_points(self):
        if self._lattice_points is None:
            if self.affine_dim == 0:
                self._lattice_points = (self.vertices[0],)
            else:
                lo, hi = self._span_box()
                A = [g for g, _ in self._span_facets]
                c = [cc for _, cc in self._span_facets]
                span = _accel.enumerate_points(lo, hi, A, c)
                self._lattice_points = tuple(
                    sorted(self._unproject(y) for y in span)
                )
        return self._lattice_points

    def interior_lattice_points(self):
        if self.affine_dim == 0:
            return ()
        out = []
        for p in self.lattice_points():
            y = self._project(p)
            if all(_dot(g, y) + c > 0 for g, c in self._span_facets):
                out.append(p)
        return tuple(out)

    def boundary_lattice_point_count(self):
        return len(self.lattice_points()) - len(self.interior_lattice_points())

    # -- volume -----------------------------------------------------------

    def _pulling_triangulation(self):
        """Simplices of the pulling triangulation, as tuples of vertex indices.

        Faces are bitmasks over ``_span_vertices``.  The facets of a face S
        are the inclusion-maximal S ∩ F over the facets F of P that do not
        contain S; S is coned from its smallest vertex over the triangulations
        of its facets that miss that vertex (De Loera, Rambau & Santos,
        "Triangulations", §4.3).  Each face is triangulated once.
        """
        Y = self._span_vertices
        facets = [
            sum(1 << i for i, y in enumerate(Y) if _dot(g, y) + c == 0)
            for g, c in self._span_facets
        ]
        memo = {}

        def pull(S):
            if S not in memo:
                v = (S & -S).bit_length() - 1
                if S == 1 << v:
                    memo[S] = [(v,)]
                else:
                    cuts = {S & F for F in facets if S & F != S}
                    memo[S] = [
                        (v,) + s
                        for G in cuts
                        if not G >> v & 1
                        and not any(G != H and G & H == G for H in cuts)
                        for s in pull(G)
                    ]
            return memo[S]

        return pull((1 << len(Y)) - 1)

    def normalized_volume(self, method="auto"):
        """Normalized lattice volume in the affine span (unit simplex = 1).

        The volume is Σ |det(yᵢ − y₀)| over the simplices of the pulling
        triangulation, in span coordinates; a simplex is its own
        triangulation.  ``method="det"`` insists on a simplex, and
        ``method="count"`` is the oracle: the alternating sum of a+1 dilated
        lattice-point counts (the leading Ehrhart coefficient times a!).
        """
        a = self.affine_dim
        if a == 0:
            return 1
        if method not in ("auto", "det", "count"):
            raise ValueError(f"unknown volume method {method!r}")
        if method == "det" and len(self.vertices) != a + 1:
            raise ValueError("determinant volume requires a simplex")
        if method == "count":
            return sum(
                (-1) ** (a - k) * math.comb(a, k) * self.dilate_lattice_point_count(k)
                for k in range(a + 1)
            )
        Y = self._span_vertices
        vol = 0
        for s in self._pulling_triangulation():
            y0 = Y[s[0]]
            M = [[Y[j][i] - y0[i] for i in range(a)] for j in s[1:]]
            vol += abs(linalg.det(M))
        return vol

    # -- constructions ----------------------------------------------------

    def minkowski_sum(self, other):
        if not isinstance(other, LatticePolytope):
            raise TypeError("can only add another LatticePolytope")
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimensions differ")
        sums = {
            tuple(x + y for x, y in zip(p, q))
            for p in self.vertices
            for q in other.vertices
        }
        return LatticePolytope(sums, self.ambient_dim)

    __add__ = minkowski_sum

    # -- serialization / identity ------------------------------------------

    def to_dict(self):
        return {
            "dim": self.ambient_dim,
            "vertices": [list(v) for v in self.vertices],
        }

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict) or "dim" not in d or "vertices" not in d:
            raise ValueError('polytope JSON needs "dim" and "vertices"')
        _require_ints([d["dim"]], "dim")
        for v in d["vertices"]:
            _require_ints(v, "vertex coordinate")
        return cls(d["vertices"], ambient_dim=d["dim"])

    def __eq__(self, other):
        return (
            isinstance(other, LatticePolytope)
            and self.ambient_dim == other.ambient_dim
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.vertices))

    def __repr__(self):
        return (
            f"LatticePolytope(dim={self.ambient_dim}, "
            f"affine_dim={self.affine_dim}, vertices={list(self.vertices)})"
        )


def cayley_pyramid(polys):
    """Λ = conv({0} ∪ {(v, e_i) : v a vertex of P_i}) in Z^(n+r), one hull.

    This is the pyramid over the Cayley polytope of P₁..P_r with apex at the
    origin; the Cayley polytope's vertices are exactly the tagged vertices.
    """
    polys = list(polys)
    if not polys:
        raise ValueError("cayley_pyramid needs at least one polytope")
    n = polys[0].ambient_dim
    if any(P.ambient_dim != n for P in polys):
        raise ValueError("polytopes live in different ambient spaces")
    r = len(polys)
    pts = [(0,) * (n + r)]
    for i, P in enumerate(polys):
        tag = tuple(1 if t == i else 0 for t in range(r))
        for v in P.vertices:
            pts.append(v + tag)
    return LatticePolytope(pts, n + r)
