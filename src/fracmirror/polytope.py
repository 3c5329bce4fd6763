"""Exact lattice polytopes: hulls, duals, volumes, lattice points.

Everything is integer/rational arithmetic.  Convex hulls come from an
incremental double-description pass over the homogenization cone, in the
coordinates of a unimodular echelon transform only when the points span less
than the ambient space.  One fraction-free elimination of the homogenized
points gives the affine dimension and the seed rays of the pass, which
returns each facet with the bitmask of the input points on it, formed without
a dot product; the vertices are read off those masks, which are kept as the
facet–vertex incidences.  The polar dual of a reflexive polytope builds no
hull: its vertices and facets are the facets and vertices of the primal, and
its incidences their transpose.  Volumes are normalized lattice volumes in
the affine span, summed over the simplices of a pulling triangulation read
off those incidences; lattice-point scans run on the one exact-int
prefix→interval scan in ``_accel``.
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


def _dd_extreme_rays(rows, seed=None):
    """Extreme rays of the pointed cone {y : r·y >= 0 for every row r}, with
    the rows each one is tight on.

    ``rows`` are integer tuples (floats raise TypeError) spanning the ambient
    space R^k (pointed dual cone).  Zero and repeated rows are dropped; bit i
    of a mask stands for the i-th distinct nonzero row, which is row i when
    the rows are distinct and nonzero.  ``seed`` is ``linalg.row_basis`` of
    those rows, ``(idx, d, E)`` with S·Eᵀ = d·I for the k independent rows
    S = [rows[i] for i in idx], as a caller's own pass found it; without it
    the pass runs here.  Returns lex-sorted pairs ``(ray, mask)``: a
    primitive integer generator and the bitmask of the rows r with r·ray = 0.

    No mask costs a dot product.  Seed ray j, row j of E signed by d, is
    tight on every seed row but ``idx[j]``.  The ray s₊·r₋ − s₋·r₊ formed at
    row t is tight on t and on exactly the inserted rows its two parents
    share, since both terms are >= 0 on an inserted row and the weights are
    positive.  Adjacent rays share at least k − 2 tight rows, and distinct
    adjacent pairs give distinct rays, each inside its own 2-face, so none
    is formed twice.
    """
    index = {}
    for r in rows:
        t = tuple(map(operator.index, r))
        if any(t):
            index.setdefault(t, len(index))
    rows = list(index)
    if not rows:
        raise ValueError("cone needs at least one constraint")
    k = len(rows[0])

    seed, d, E = linalg.row_basis(rows) if seed is None else seed
    if len(seed) < k:
        raise ValueError("cone is not pointed: constraints do not span")

    rays = [_primitive(e if d > 0 else [-x for x in e]) for e in E]
    full = sum(1 << i for i in seed)
    masks = [full ^ (1 << i) for i in seed]

    seeded = set(seed)
    for idx, row in enumerate(rows):
        if idx in seeded:
            continue
        bit = 1 << idx
        s = [_dot(row, r) for r in rays]
        masks = [m | bit if v == 0 else m for m, v in zip(masks, s)]
        minus = [j for j, v in enumerate(s) if v < 0]
        if not minus:
            continue
        new_rays, new_masks = [], []
        for jp, sp in enumerate(s):
            if sp <= 0:
                continue
            for jm in minus:
                # neither parent is tight on the new row, so the bit set on
                # the zero rays above does not change this test
                common = masks[jp] & masks[jm]
                if common.bit_count() < k - 2 or any(
                    m & common == common
                    for j, m in enumerate(masks)
                    if j != jp and j != jm
                ):
                    continue
                sm = s[jm]
                new_rays.append(
                    _primitive([sp * b - sm * a for a, b in zip(rays[jp], rays[jm])])
                )
                new_masks.append(common | bit)
        keep = [j for j, v in enumerate(s) if v >= 0]
        rays = [rays[j] for j in keep] + new_rays
        masks = [masks[j] for j in keep] + new_masks
    return tuple(sorted(zip(rays, masks)))


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
        "_incidences",
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
            self._incidences = ()
            return

        # one elimination: the independent homogenized points give the affine
        # dimension and seed the DD, in span coordinates too, since the
        # projection onto the span keeps affine independence
        rows = [p + (1,) for p in pts]
        idx, d, E = linalg.row_basis(rows)
        a = self.affine_dim = len(idx) - 1

        if a == D:
            self._v0 = tuple([0] * D)
            self._U = None
            self._B = None
            span_pts = pts
        else:
            # only a lower-dimensional span needs the transform U: rows a.. of
            # U·diffsᵀ vanish, so U[:a] maps the span's lattice onto Z^a
            v0 = pts[0]
            diffs = [[x - y for x, y in zip(p, v0)] for p in pts[1:]]
            _, U, V = linalg.echelon(list(zip(*diffs)))
            self._v0 = v0
            self._U = U
            self._B = [row[:a] for row in V]
            span_pts = [self._project(p) for p in pts]
            rows = [y + (1,) for y in span_pts]
            # only the a+1 seed rows, which span R^(a+1), are eliminated again
            _, d, E = linalg.row_basis([rows[i] for i in idx])

        # the rows are distinct and nonzero, so mask bit i is point i
        rays = _dd_extreme_rays(rows, (idx, d, E))
        self._span_facets = tuple((r[:-1], r[-1]) for r, _ in rays)

        # a point is a vertex iff no other point lies on every facet it lies
        # on (a face holding two input points has two vertices among them):
        # the facet masks through point i meet in bit i alone
        verts = []
        for i in range(len(pts)):
            face = -1
            for _, m in rays:
                if m >> i & 1:
                    face &= m
            if face == 1 << i:
                verts.append(i)
        self.vertices = tuple(pts[i] for i in verts)
        self._span_vertices = tuple(span_pts[i] for i in verts)
        # the facet masks over the vertices: bit k is vertex k
        self._incidences = tuple(
            sum(1 << k for k, i in enumerate(verts) if m >> i & 1) for _, m in rays
        )

        if a == D:
            self.facets = self._span_facets
        else:
            # on the span U·(x − v0) = (y, 0), so w = Σ_{i<a} g_i·U[i] gives
            # w·(x − v0) = g·y; w is primitive because U is unimodular
            cols = list(zip(*self._U[:a]))
            lifted = []
            for g, c in self._span_facets:
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
        """The polar dual of a reflexive polytope, read off P with no hull and kept.

        Its vertices are the facet normals of P and its facets (v, 1) for the
        vertices v of P, both lex-sorted; its incidences are the transpose.
        """
        if self._polar_dual is None:
            if self.affine_dim != self.ambient_dim or self.ambient_dim == 0:
                raise FracmirrorError("polar dual requires a full-dimensional polytope")
            if any(c <= 0 for _, c in self.facets):
                raise FracmirrorError("origin is not an interior point")
            if any(c != 1 for _, c in self.facets):
                raise FracmirrorError(
                    "polytope is not reflexive: polar dual is not a lattice polytope"
                )
            dual = LatticePolytope.__new__(LatticePolytope)
            dual.points = dual.vertices = dual._span_vertices = tuple(g for g, _ in self.facets)
            dual.ambient_dim = dual.affine_dim = self.ambient_dim
            dual.facets = dual._span_facets = tuple((v, 1) for v in self.vertices)
            dual._v0, dual._U, dual._B, dual._lattice_points = self._v0, None, None, None
            dual._incidences = tuple(
                sum(1 << f for f, m in enumerate(self._incidences) if m >> k & 1)
                for k in range(len(self.vertices))
            )
            self._polar_dual, dual._polar_dual = dual, self
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

    # -- volume -----------------------------------------------------------

    def _pulling_triangulation(self):
        """Simplices of the pulling triangulation, as tuples of vertex indices.

        Faces are bitmasks over ``_span_vertices``.  The facets of a face S
        are the inclusion-maximal S ∩ F over the facets F of P (their masks
        ``_incidences``) that do not contain S; S is coned from its smallest
        vertex over the triangulations of its facets that miss that vertex
        (De Loera, Rambau & Santos, "Triangulations", §4.3).  Each face is
        triangulated once.
        """
        memo = {}

        def pull(S):
            if S not in memo:
                v = (S & -S).bit_length() - 1
                if S == 1 << v:
                    memo[S] = [(v,)]
                else:
                    cuts = {S & F for F in self._incidences if S & F != S}
                    memo[S] = [
                        (v,) + s
                        for G in cuts
                        if not G >> v & 1
                        and not any(G != H and G & H == G for H in cuts)
                        for s in pull(G)
                    ]
            return memo[S]

        return pull((1 << len(self._span_vertices)) - 1)

    def normalized_volume(self):
        """Normalized lattice volume in the affine span (unit simplex = 1).

        The volume is Σ |det(yᵢ − y₀)| over the simplices of the pulling
        triangulation, in span coordinates; a simplex is its own
        triangulation.
        """
        a = self.affine_dim
        if a == 0:
            return 1
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


def cayley_pyramid(point_sets):
    """Λ = conv({0} ∪ {(p, e_i) : p in S_i}) in Z^(n+r), one hull.

    This is the pyramid over the Cayley polytope of the conv(S_i) with apex
    at the origin; no conv(S_i) needs a hull of its own.
    """
    point_sets = [[tuple(p) for p in S] for S in point_sets]
    if not point_sets or not all(point_sets):
        raise ValueError("cayley_pyramid needs at least one point set, and no empty one")
    n = len(point_sets[0][0])
    if any(len(p) != n for S in point_sets for p in S):
        raise ValueError("point sets live in different ambient spaces")
    r = len(point_sets)
    pts = [(0,) * (n + r)]
    for i, S in enumerate(point_sets):
        tag = tuple(1 if t == i else 0 for t in range(r))
        pts.extend(p + tag for p in S)
    return LatticePolytope(pts, n + r)
