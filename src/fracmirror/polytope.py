"""Exact lattice polytopes: hulls, duals, volumes, lattice-point counts.

Everything is exact integer arithmetic.  A convex hull is full-dimensional
and comes from an incremental double-description pass over the
homogenization cone.  One fraction-free elimination of the homogenized
points gives the affine dimension and the seed rays of the pass, which
returns each facet with the bitmask of the input points on it, formed without
a dot product; the vertices are read off those masks, which are kept as the
facet–vertex incidences.  D + 1 independent points are a simplex, which runs
no pass: its facets are the seed rays, facet j misses point j alone and
every point is a vertex.  Points that span less than their space build no
hull: such a set is kept only so that it can be refused.  The polar dual of
a reflexive polytope builds no hull: its vertices and facets are the facets
and vertices of the primal, and its incidences their transpose.  Volumes
are normalized lattice volumes, summed over the flags of a pulling
triangulation read off those incidences with one fraction-free elimination
row per step of a flag, so simplices that share a flag prefix share its
eliminations; a lattice-point count runs the one exact-int prefix→interval
scan in ``_accel``.

The Cayley pyramids of a nef-partition build no hull either.  In
M × Z^r and N × Z^r let

    Λ  = conv({0} ∪ {(m, e_i) : m ∈ Δ_i}),
    Λ∨ = conv({0} ∪ {(u, e_k) : u ∈ ∇_k}),   ∇_k = conv({0} ∪ rays of part k),

paired by ⟨(m, e_i), (u, e_k)⟩ = ⟨m, u⟩ + [i = k].  The cut of Δ_i gives
⟨m, ρ⟩ >= −[i = k] for a ray ρ of part k, so the pairing is >= 0, and the
cones over the two Cayley polytopes are dual Gorenstein cones (Batyrev and
Borisov, "On Calabi–Yau complete intersections in toric varieties", 1996).
Hence the facets of Λ∨ are its lid t_1 + ... + t_r <= 1 and one facet
(m, e_i)·y >= 0 through the apex for each vertex m of each Δ_i, the rays of
the dual cone.  Its vertices are the apex and those tagged points of the
∇_k that the facets through them cut out alone.  Each ray of Δ* is a vertex
of every ∇_k that holds it, so only (0, e_k) can fail, and it fails exactly
when 0 ∈ conv(rays of part k).  The layer t = e_k of Λ∨ is a face, so its
vertices are the tagged vertices of ∇_k, and off a simplex ``nefpart`` reads
the ∇_k off the same pairing (``_pairing``).  Λ is read off Λ∨ by
transposing the incidences, as the polar dual is, with apex and lid swapped;
``_pyramid`` builds either, and ``topology`` builds Λ only off a simplex.
"""

import bisect
import math
import operator

from . import _accel, linalg
from .errors import FracmirrorError, _as_int, _as_ints

__all__ = [
    "LatticePolytope",
]


def _primitive(vec):
    g = math.gcd(*vec)
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)


def _dot(u, v):
    return sum(map(operator.mul, u, v))


def _dd_extreme_rays(rows, seed=None):
    """Extreme rays of the pointed cone {y : r·y >= 0 for every row r}, with
    the rows each one is tight on.

    ``rows`` are int sequences (``errors._as_ints``) spanning the ambient
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
        t = _as_ints(r, "row entry")
        if any(t):
            index.setdefault(t, len(index))
    rows = list(index)
    if not rows:
        raise ValueError("cone needs at least one constraint")
    k = len(rows[0])

    seed, d, E = linalg.row_basis(rows) if seed is None else seed
    if len(seed) < k:
        raise ValueError("cone is not pointed: constraints do not span")

    rays, masks = _seed_rays(seed, d, E)
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


def _seed_rays(idx, d, E):
    """The seed rays of a DD pass, row j of E signed by d and made primitive,
    and their masks: ray j is tight on every row in ``idx`` but ``idx[j]``."""
    full = sum(1 << i for i in idx)
    return [_primitive(e if d > 0 else [-x for x in e]) for e in E], [full ^ (1 << i) for i in idx]


def _vertex_test(masks, count):
    """The indices of the vertices among ``count`` points, given the masks
    of the points on each facet, and those masks over the vertices (bit k
    is vertex k).

    A point is a vertex iff no other point lies on every facet it lies on (a
    face holding two of the points has two vertices among them): the facet
    masks through point i meet in bit i alone.
    """
    verts = []
    for i in range(count):
        face = -1
        for m in masks:
            if m >> i & 1:
                face &= m
        if face == 1 << i:
            verts.append(i)
    return verts, tuple(sum(1 << k for k, i in enumerate(verts) if m >> i & 1) for m in masks)


def _transpose(masks, count):
    """Masks over ``count`` bits, transposed: bit f of mask k is bit k of masks[f]."""
    return tuple(sum(1 << f for f, m in enumerate(masks) if m >> k & 1) for k in range(count))


class LatticePolytope:
    """Convex hull of finitely many lattice points, in canonical form.

    Vertices and facet pairs are stored lex-sorted so equal polytopes have
    identical representations, and two polytopes compare equal by ambient
    dimension and vertices.  Facets are inward pairs ``(normal, offset)``
    with ``normal·x + offset >= 0`` on the polytope.

    Points that span less than Z^D, one point and D = 0 included, build no
    hull: they keep ``affine_dim`` and their distinct lex-sorted points as
    ``vertices``, with no facets or incidences.  Such a set is never
    reflexive, and the polar dual, volume and lattice-point count refuse it.
    """

    __slots__ = (
        "ambient_dim",
        "affine_dim",
        "vertices",
        "facets",
        "_incidences",
        "_polar_dual",
    )

    def __init__(self, points):
        pts = sorted({_as_ints(p, "vertex coordinate") for p in points})
        if not pts:
            raise ValueError("no points: a polytope needs at least one point")
        D = len(pts[0])
        if any(len(p) != D for p in pts):
            raise ValueError("points have inconsistent dimension")
        self.ambient_dim = D
        self._polar_dual = None

        # one elimination: the independent homogenized points give the affine
        # dimension and seed the DD
        rows = [p + (1,) for p in pts]
        idx, d, E = linalg.row_basis(rows)
        self.affine_dim = len(idx) - 1
        if self.affine_dim < D or not D:
            # a flat set builds no hull: it keeps its points, to be refused
            self.vertices, self.facets, self._incidences = tuple(pts), (), ()
            return

        if len(pts) == D + 1:
            # a simplex: the seed rays are its facets, facet j misses point j
            # alone and every point is a vertex, as a DD pass that inserts no
            # row and the vertex test would find
            rays = sorted(zip(*_seed_rays(idx, d, E)))
            self.vertices, self._incidences = tuple(pts), tuple(m for _, m in rays)
        else:
            # the rows are distinct and nonzero, so mask bit i is point i
            rays = _dd_extreme_rays(rows, (idx, d, E))
            verts, self._incidences = _vertex_test([m for _, m in rays], len(pts))
            self.vertices = tuple(pts[i] for i in verts)
        self.facets = tuple((r[:-1], r[-1]) for r, _ in rays)

    # -- predicates -------------------------------------------------------

    def is_reflexive(self):
        # a flat set has no facets
        return bool(self.facets) and all(c == 1 for _, c in self.facets)

    def _require_full_dimensional(self, what):
        """Refuse a flat set: it keeps its points, but no facets to measure by."""
        if not self.facets:
            raise FracmirrorError(f"{what} requires a full-dimensional polytope")

    # -- duality ----------------------------------------------------------

    def polar_dual(self):
        """The polar dual of a reflexive polytope, read off P with no hull and kept.

        Its vertices are the facet normals of P and its facets (v, 1) for the
        vertices v of P, both lex-sorted; its incidences are the transpose.
        """
        if self._polar_dual is None:
            self._require_full_dimensional("polar dual")
            if any(c <= 0 for _, c in self.facets):
                raise FracmirrorError("origin is not an interior point")
            if any(c != 1 for _, c in self.facets):
                raise FracmirrorError(
                    "polytope is not reflexive: polar dual is not a lattice polytope"
                )
            dual = LatticePolytope._read_off(
                tuple(g for g, _ in self.facets),
                tuple((v, 1) for v in self.vertices),
                _transpose(self._incidences, len(self.vertices)),
            )
            self._polar_dual, dual._polar_dual = dual, self
        return self._polar_dual

    @classmethod
    def _read_off(cls, vertices, facets, incidences):
        """A full-dimensional polytope from its lex-sorted vertices and facets
        and the facet masks over the vertices, with no hull."""
        P = cls.__new__(cls)
        P.vertices, P.facets, P._incidences = vertices, facets, incidences
        P.ambient_dim = P.affine_dim = len(vertices[0])
        P._polar_dual = None
        return P

    # -- lattice points ---------------------------------------------------

    # perfbench/spans.py wraps these names, which nothing calls; they go with
    # the other patch-only shims in ROADMAP item 5
    lattice_points = dilate_lattice_point_count = None

    def lattice_point_count(self):
        """Number of lattice points of P: one count over its vertex box, which
        raises ``FracmirrorError`` past ``_accel.SCAN_BUDGET``."""
        self._require_full_dimensional("a lattice-point count")
        box = list(zip(*self.vertices))
        A = [g for g, _ in self.facets]
        c = [cc for _, cc in self.facets]
        return _accel.count_points(list(map(min, box)), list(map(max, box)), A, c)

    # -- volume -----------------------------------------------------------

    def normalized_volume(self):
        """Normalized lattice volume (unit simplex = 1).

        Σ |det(y_j − y_0)| over the simplices of the pulling triangulation
        (De Loera, Rambau & Santos, "Triangulations", §4.3): a face S (a
        mask over ``vertices``) is coned from its lowest vertex over its
        facets that miss it, the maximal S ∩ F over the facet masks F, found
        once per face; a simplex face is its own triangulation.
        So a simplex is a flag S_0 ⊃ ... ⊃ S_a, y_j the lowest vertex of S_j.
        The flags are walked depth first, and the step into S_j adds the row
        y_j − y_0 reduced by one fraction-free step per pivot (c, R, p) on the
        path, row ← (p·row − row[c]·R) // q, q the pivot before p (or 1).  By
        Sylvester's identity each division is exact and the row holds j × j
        minors (Bareiss, Math. Comp. 1968), so its first nonzero entry is the
        next pivot and the last is ±det; a shared flag prefix is eliminated once.
        """
        self._require_full_dimensional("a volume")
        a = self.affine_dim
        Y = self.vertices
        rows = [[x - y for x, y in zip(v, Y[0])] for v in Y]
        cuts = {}

        def extend(path, v):
            row, q = rows[v], 1
            for c, R, p in path:
                f = row[c]
                row = [(p * x - f * r) // q for x, r in zip(row, R)]
                q = p
            c = next(i for i, x in enumerate(row) if x)
            return path + [(c, row, row[c])]

        def walk(S, path):
            if S.bit_count() + len(path) == a + 1:
                # a simplex face is its own triangulation: the flag runs
                # through its vertices in order
                T = S & (S - 1)
                while T:
                    path = extend(path, (T & -T).bit_length() - 1)
                    T &= T - 1
                return abs(path[-1][2])
            if S not in cuts:
                v = (S & -S).bit_length() - 1
                G = {S & F for F in self._incidences if S & F != S}
                cuts[S] = [
                    g for g in G if not g >> v & 1 and not any(g != h and g & h == g for h in G)
                ]
            return sum(walk(G, extend(path, (G & -G).bit_length() - 1)) for G in cuts[S])

        return walk((1 << len(Y)) - 1, [])

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
        dim, verts = _as_int(d["dim"], "dim"), d["vertices"]
        if not isinstance(verts, list) or not all(isinstance(v, list) for v in verts):
            raise ValueError('"vertices" must be a list of coordinate lists')
        if dim < 0:
            raise ValueError(f'"dim" is {dim}: it must be nonnegative')
        lengths = {len(v) for v in verts}
        if len(lengths) == 1 and dim not in lengths:
            raise ValueError(f'"dim" is {dim} but the vertices have {lengths.pop()} coordinates')
        return cls(verts)

    def __eq__(self, other):
        return (
            isinstance(other, LatticePolytope)
            and self.ambient_dim == other.ambient_dim
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.vertices))


def _pyramid(points, normals, tight, r):
    """conv({0} ∪ points) for lex-sorted points at height 1 in the last r
    coordinates, read off its facets: the lid through every point, and
    (g, 0) through the origin and the points j with bit j of ``tight[g]``
    set, for each normal g."""
    D = len(points[0])
    apex = (0,) * D
    # the apex goes in at lex position a: bits a.. of a point mask move up one
    a = bisect.bisect(points, apex)
    low = (1 << a) - 1

    def lift(m):
        return m & low | (m & ~low) << 1

    faces = sorted(
        [((apex[: D - r] + (-1,) * r, 1), lift((1 << len(points)) - 1))]
        + [((g, 0), lift(m) | 1 << a) for g, m in zip(normals, tight)]
    )
    return LatticePolytope._read_off(
        (*points[:a], apex, *points[a:]),
        tuple(f for f, _ in faces),
        tuple(m for _, m in faces),
    )


def _pairing(part_vertices, part_rays):
    """The vertices of Λ∨ but its apex, read off one pairing matrix (module
    docstring): ``(rows, verts, on_rows)``, the lex-sorted tagged Δ_i vertices
    (m, e_i), the lex-sorted tagged vertices (u, e_k) of the ∇_k, and the
    mask over ``verts`` of the points each row is tight on.

    ``part_vertices[i]`` are the vertices of Δ_i and ``part_rays[k]`` the
    rays of part k.  Each tagged Δ_i vertex is paired with the tagged points
    (0, e_k) and (ρ, e_k), ρ in part k; a negative entry raises
    :class:`FracmirrorError`.
    """
    r = len(part_rays)
    n = len(part_rays[0][0])
    tags = [tuple(int(t == i) for t in range(r)) for i in range(r)]
    rows = sorted(tuple(m) + tags[i] for i, V in enumerate(part_vertices) for m in V)
    points = sorted(tuple(u) + tags[k] for k, R in enumerate(part_rays) for u in ((0,) * n, *R))
    # the facets of Λ∨ through the apex: the points each tagged Δ_i vertex is tight on
    masks = []
    for w in rows:
        mask = 0
        for j, c in enumerate(points):
            s = _dot(w, c)
            if s < 0:
                raise FracmirrorError(
                    "a part polytope vertex pairs negatively with a dual part: "
                    "not the cut of its part"
                )
            if s == 0:
                mask |= 1 << j
        masks.append(mask)
    keep, on_rows = _vertex_test(masks, len(points))
    return rows, [points[j] for j in keep], on_rows

