"""Exact lattice polytopes: hulls, duals, volumes, lattice points.

Everything is integer/rational arithmetic.  Convex hulls come from an
incremental double-description pass over the homogenization cone; volumes are
normalized lattice volumes computed in the affine span (simplex determinant
fast path, Ehrhart finite differences otherwise); lattice-point scans run on
the accelerated kernels in ``_accel``.
"""

import math
from fractions import Fraction

import numpy as np

from . import _accel, linalg
from .errors import FracmirrorError

__all__ = [
    "LatticePolytope",
    "cayley_polytope",
    "pyramid_over",
    "lattice_transform",
    "ehrhart_polynomial",
]


def _primitive(vec):
    g = 0
    for x in vec:
        g = math.gcd(g, abs(x))
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _require_ints(values, what):
    """Reject JSON input that ``int()`` would coerce: floats, bools, strings."""
    for x in values:
        if type(x) is not int:
            raise ValueError(f"{what} {x!r} is not an integer")


def _dd_extreme_rays(rows):
    """Extreme rays of the pointed cone {y : r·y >= 0 for every row r}.

    ``rows`` are integer tuples that must span the ambient space (pointed
    dual cone).  Returns lex-sorted primitive integer generators.
    """
    seen = set()
    clean = []
    for r in rows:
        t = tuple(int(x) for x in r)
        if any(t) and t not in seen:
            seen.add(t)
            clean.append(t)
    rows = clean
    if not rows:
        raise ValueError("cone needs at least one constraint")
    k = len(rows[0])

    # greedy seed: k linearly independent rows
    reduced = []  # (pivot, Fraction row)
    seed_idx = []
    for idx, r in enumerate(rows):
        v = [Fraction(x) for x in r]
        for piv, b in reduced:
            if v[piv] != 0:
                f = v[piv]
                v = [a - f * c for a, c in zip(v, b)]
        piv = next((i for i, a in enumerate(v) if a != 0), None)
        if piv is not None:
            inv = v[piv]
            v = [a / inv for a in v]
            reduced.append((piv, v))
            seed_idx.append(idx)
            if len(seed_idx) == k:
                break
    if len(seed_idx) < k:
        raise ValueError("cone is not pointed: constraints do not span")

    S = [rows[i] for i in seed_idx]
    d = linalg.det(S)
    # adjugate columns scaled by sign(d) give the simplicial seed rays
    Sinv = linalg.rational_inverse(S)
    sgn = 1 if d > 0 else -1
    rays = []
    for j in range(k):
        col = [Sinv[i][j] * d * sgn for i in range(k)]
        rays.append(_primitive([int(x) for x in col]))

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
    )

    def __init__(self, points, ambient_dim=None):
        pts = sorted({tuple(int(x) for x in p) for p in points})
        if not pts:
            raise ValueError("no points: a polytope needs at least one point")
        D = len(pts[0]) if ambient_dim is None else int(ambient_dim)
        if any(len(p) != D for p in pts):
            raise ValueError("points have inconsistent dimension")
        self.points = tuple(pts)
        self.ambient_dim = D
        self._lattice_points = None

        if len(pts) == 1 or D == 0:
            self.affine_dim = 0
            self.vertices = (pts[0],)
            self.facets = ()
            self._v0 = pts[0]
            self._U = None
            self._B = None
            self._span_vertices = ((),) if D else ((),)
            self._span_facets = ()
            return

        v0 = pts[0]
        E = np.array(
            [[p[i] - v0[i] for p in pts[1:]] for i in range(D)], dtype=object
        )
        Dg, U, V = linalg.smith_normal_form(E)
        a = sum(1 for i in range(min(E.shape)) if Dg[i, i] != 0)
        self.affine_dim = a

        if a == D:
            self._v0 = tuple([0] * D)
            self._U = None
            self._B = None
            span_pts = pts
        else:
            self._v0 = v0
            self._U = tuple(tuple(int(x) for x in row) for row in U)
            B = linalg.inverse_unimodular(U)[:, :a]
            self._B = tuple(tuple(int(x) for x in row) for row in B)
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

        verts = []
        for p, y in zip(pts, span_pts):
            tight = [g for g, c in span_facets if _dot(g, y) + c == 0]
            if tight and linalg.rank(tight) == a:
                verts.append((p, y))
        self.vertices = tuple(p for p, _ in verts)
        self._span_vertices = tuple(y for _, y in verts)

        if a == D:
            self.facets = self._span_facets
        else:
            lifted = []
            for g, c in span_facets:
                Bt = [[self._B[i][j] for i in range(D)] for j in range(a)]
                w = linalg.solve_integer(Bt, g)
                if w is None:  # pragma: no cover - B is a lattice basis
                    raise FracmirrorError("failed to lift a facet normal")
                off = c - _dot(w, v0)
                lifted.append((tuple(w), off))
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
        p = tuple(int(x) for x in point)
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
        if self.affine_dim != self.ambient_dim or self.ambient_dim == 0:
            raise FracmirrorError("polar dual requires a full-dimensional polytope")
        if any(c <= 0 for _, c in self.facets):
            raise FracmirrorError("origin is not an interior point")
        if any(c != 1 for _, c in self.facets):
            raise FracmirrorError(
                "polytope is not reflexive: polar dual is not a lattice polytope"
            )
        return LatticePolytope([g for g, _ in self.facets])

    # -- lattice points ---------------------------------------------------

    def _span_box(self, k=1):
        a = self.affine_dim
        lo = [min(y[i] for y in self._span_vertices) * k for i in range(a)]
        hi = [max(y[i] for y in self._span_vertices) * k for i in range(a)]
        return lo, hi

    def dilate_lattice_point_count(self, k):
        """Number of lattice points in k·P (k a nonnegative integer)."""
        k = int(k)
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

    def normalized_volume(self, method="auto"):
        """Normalized lattice volume in the affine span (unit simplex = 1)."""
        a = self.affine_dim
        if a == 0:
            return 1
        is_simplex = len(self.vertices) == a + 1
        if method not in ("auto", "det", "count"):
            raise ValueError(f"unknown volume method {method!r}")
        if method == "det" and not is_simplex:
            raise ValueError("determinant volume requires a simplex")
        if is_simplex and method != "count":
            y0 = self._span_vertices[0]
            M = [
                [y[i] - y0[i] for i in range(a)]
                for y in self._span_vertices[1:]
            ]
            return abs(linalg.det(M))
        counts = [self.dilate_lattice_point_count(k) for k in range(a + 1)]
        vol = 0
        for j in range(a + 1):
            vol += (-1) ** (a - j) * math.comb(a, j) * counts[j]
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


def cayley_polytope(polys):
    """Cayley polytope of P₁..P_r: hull of (v, e_i) for v in P_i, in Z^(n+r)."""
    polys = list(polys)
    if not polys:
        raise ValueError("cayley_polytope needs at least one polytope")
    n = polys[0].ambient_dim
    if any(P.ambient_dim != n for P in polys):
        raise ValueError("polytopes live in different ambient spaces")
    r = len(polys)
    pts = []
    for i, P in enumerate(polys):
        tag = tuple(1 if t == i else 0 for t in range(r))
        for v in P.vertices:
            pts.append(v + tag)
    return LatticePolytope(pts, n + r)


def pyramid_over(P):
    """Hull of P and the origin of its ambient space."""
    pts = list(P.vertices)
    pts.append(tuple([0] * P.ambient_dim))
    return LatticePolytope(pts, P.ambient_dim)


def lattice_transform(U, X):
    """Apply the integer matrix U (rows) to a polytope or a list of points."""
    rows = [tuple(int(x) for x in row) for row in U]

    def tf(p):
        return tuple(_dot(row, p) for row in rows)

    if isinstance(X, LatticePolytope):
        return LatticePolytope([tf(v) for v in X.vertices], len(rows))
    return tuple(tf(tuple(p)) for p in X)


def ehrhart_polynomial(P):
    """Coefficients (c₀..c_a) with |kP ∩ Z^D| = Σ cᵢ kⁱ, as Fractions."""
    a = P.affine_dim
    counts = [P.dilate_lattice_point_count(k) for k in range(a + 1)]
    # Newton forward differences
    diffs = [Fraction(c) for c in counts]
    table = [diffs[0]]
    work = diffs
    for _ in range(a):
        work = [work[i + 1] - work[i] for i in range(len(work) - 1)]
        table.append(work[0])
    # expand sum_j table[j] * C(k, j) into powers of k
    coeffs = [Fraction(0)] * (a + 1)
    # C(k, j) = k(k-1)...(k-j+1)/j!
    for j, tj in enumerate(table):
        poly = [Fraction(1)]  # product over (k - t)
        for t in range(j):
            poly = [
                (poly[i - 1] if i else 0) - t * (poly[i] if i < len(poly) else 0)
                for i in range(len(poly) + 1)
            ]
        fj = Fraction(1, math.factorial(j))
        for i, ci in enumerate(poly):
            coeffs[i] += tj * fj * ci
    return tuple(coeffs)
