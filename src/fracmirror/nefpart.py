"""Nef-partitions of reflexive polytopes and their duals.

A nef-partition is a partition of the vertex set of the polar dual of a
reflexive polytope ``delta`` into parts I_1, ..., I_r.  Each part cuts out a
lattice polytope

    Delta_i = { m : <m, rho> >= -1 for rho in I_i, <m, rho> >= 0 otherwise }

and the data satisfies Delta = Delta_1 + ... + Delta_r (Minkowski).  The dual
construction swaps the roles of

    nabla_k  = conv({0} and the rays of part k),
    nabla    = nabla_1 + ... + nabla_r          (again reflexive),
    nabla^*  = conv(Delta_1 union ... union Delta_r) = polar dual of nabla,

yielding a nef-partition on ``nabla`` whose double dual is the original.

Off a simplex, validation cuts out each Delta_i by one DD pass, whose rays
with t = 1 are its vertices, and tests their sum against Delta by support
functions: once Delta_1 + ... + Delta_r = Delta, nabla is reflexive
(Borisov 1993; Batyrev & Borisov 1996).  Then nabla^* is one hull of the
union of those vertices and nabla its polar dual, read off by
transposition.  The nabla_k build no hull: their vertices are the layers
of the Cayley pyramid over them, read off its pairing with the tagged
Delta_i vertices (``polytope``).  A rejected partition builds no nabla:
a sum that differs from Delta makes nabla non-reflexive.  For Batyrev &
Nill ("Combinatorial aspects of mirror symmetry", 2008, sec. 4) a reflexive
P = P_1 + ... + P_r with lattice polytopes P_k that contain 0 is a
nef-partition, and Borisov's duality makes the Q_i = { m : <m, u> >=
-delta_ik for u in P_k, all k } sum to a reflexive Q with Q^* = conv(P_1
union ... union P_r).  A reflexive nabla = nabla_1 + ... + nabla_r would
have Q_i = Delta_i and Q^* = conv({0} and every ray) = Delta^*, so
Delta_1 + ... + Delta_r = Delta.

On a simplex (every one-parameter input) no cut and no sum test runs: with
w_g the vertex off the facet of ray rho_g and h_g = <w_g, rho_g> + 1, the
1/h_g are the barycentric coordinates of the origin, and Delta_i has the
vertices m_ij = sum_(g in I_i) (w_j - w_g) / h_g, j = 0..n.  Those sum to
w_j over i, so Delta_1 + ... + Delta_r = Delta on every partition, and
Delta_i is a lattice polytope exactly when they are integral.  The
partition keeps c_g = L / h_g, L and the part sums C_i = sum_(g in I_i) c_g,
which the GKZ kernel vector and the topology stage's closed forms are read
off, and the m_ij by their labels (i, j), which the dual side is read off
with no hull, as <m_ij, rho_g> = [j = g] h_g C_i / L - [g in I_i]:
- the vertices of nabla^* are the m_ij but the origin (I_i = {j}), no two
  alike, and the dual partition puts m_ij in part i;
- its facets (u, 1), u a vertex of nabla, sum one ray g_k of each part k
  of a nonempty K, G = {g_k}, but not all n + 1 rays (r = n + 1): nabla is
  the image of prod_k conv(0, e_g : g in I_k) under e_g -> rho_g, whose
  kernel is spanned by c > 0, and a vertex of the product maps to a vertex
  of nabla iff its open normal cone meets c^perp;
- the facet of K, G holds m_ij iff i in K and j not in G;
- nabla_k has the vertices 0, unless r = 1, and the rays of part k.
"""

import functools
import itertools
from math import lcm

from .errors import InvalidNefPartition, _as_ints
from .polytope import LatticePolytope, _dd_extreme_rays, _dot, _pairing

__all__ = [
    "NefPartition",
    "simplex_relation",
    "dual_nef_partition",
    "validate_nef_partition",
]


def _part_vertices(delta, part_rays, all_rays):
    """The lex-sorted vertices of Delta_i: the rays with t = 1 of its DD cut,
    where the rays in ``part_rays`` (nonempty: ``_derive`` reports an empty
    part first) get offset 1 and the rest of ``all_rays`` offset 0."""
    part, n = set(part_rays), delta.ambient_dim
    rows = [rho + (1 if rho in part else 0,) for rho in all_rays]
    rows.append((0,) * n + (1,))
    verts = []
    for ray, _ in _dd_extreme_rays(rows):
        m, t = ray[:-1], ray[-1]
        if t != 1:  # t > 0: no m != 0 has <m, rho> >= 0 on all of delta's rays
            raise InvalidNefPartition("part polytope has non-lattice vertices")
        verts.append(m)
    return tuple(verts)


def simplex_relation(delta):
    """``(W, c, L)`` on a reflexive simplex delta, else None: W[g] = w_g,
    h_g = <w_g, rho_g> + 1 for ray g, L = lcm(h) and c[g] = L / h_g, so
    sum c_g w_g = sum c_g rho_g = 0 with c positive and primitive, and
    sum c_g = L: the 1/h_g are the barycentric coordinates of the origin.
    """
    if len(delta.vertices) != delta.ambient_dim + 1:
        return None
    # facet g holds every vertex but w_g, so w_g is the lowest 0 bit of its mask
    W = [delta.vertices[((m + 1) & ~m).bit_length() - 1] for m in delta._incidences]
    h = [_dot(w, rho) + 1 for w, (rho, _) in zip(W, delta.facets)]
    L = lcm(*h)
    return W, tuple(L // x for x in h), L


def _simplex_labels(W, c, L, part):
    """The part sum C = sum_(g in I_i) c_g and the vertices m_ij of Delta_i on
    a simplex, j in delta's facet order: L m_ij = C w_j - sum_(g in I_i) c_g w_g."""
    C = sum(c[g] for g in part)
    shift = list(map(sum, zip(*([c[g] * x for x in W[g]] for g in part))))
    # every L m_ij in one list, divided by L in one pass
    scaled = [C * a - b for w in W for a, b in zip(w, shift)]
    q, r = zip(*map(divmod, scaled, itertools.repeat(L)))
    if any(r):
        raise InvalidNefPartition("part polytope has non-lattice vertices")
    n = len(shift)
    return C, tuple(q[j : j + n] for j in range(0, len(q), n))


def _simplex_nabla_dual(rays, parts, labels):
    """nabla^* on a simplex, read off the labels m_ij (module docstring)."""
    verts = sorted(
        (m, i, j) for i, row in enumerate(labels) for j, m in enumerate(row) if parts[i] != (j,)
    )
    # the masks of the vertices labelled (i, .) and (., j)
    in_part, at_ray = [0] * len(parts), [0] * len(rays)
    for pos, (_, i, j) in enumerate(verts):
        in_part[i] |= 1 << pos
        at_ray[j] |= 1 << pos
    facets = []
    for pick in itertools.product(*((None, *part) for part in parts)):
        K = [i for i, g in enumerate(pick) if g is not None]
        if 0 < len(K) < len(rays):
            G = [pick[i] for i in K]
            u = tuple(map(sum, zip(*(rays[g] for g in G))))
            facets.append(((u, 1), sum(in_part[i] for i in K) & ~sum(at_ray[g] for g in G)))
    facets.sort()
    return LatticePolytope._read_off(
        tuple(m for m, _, _ in verts), tuple(f for f, _ in facets), tuple(m for _, m in facets)
    )


def _derive(delta, parts):
    """Check a proposed nef-partition of int indices, cutting out the Delta_i.

    Returns ``(issues, built)``: the diagnostics (empty means valid) and
    ``(rays, part_vertices, c, L, part_sums, labels)``, c and L those of
    ``simplex_relation``, part_sums the C_i and labels the m_ij of each part,
    the last four None off a simplex, or None when a check stopped the build.
    """
    if not isinstance(delta, LatticePolytope):
        return ["delta is not a lattice polytope"], None
    if not delta.is_reflexive():
        return ["delta is not reflexive"], None
    if not parts:
        return ["no parts given: not a partition"], None
    # the vertices of delta's polar dual, read off its lex-sorted facets (all
    # at offset 1) with no dual built: a series job never reads the dual
    rays = tuple(g for g, _ in delta.facets)
    k = len(rays)
    issues = []
    home = {}  # vertex index -> the first part that holds it
    for i, part in enumerate(parts):
        if len(part) == 0:
            issues.append(f"part {i} is empty")
        repeats = []
        for idx in part:
            if not 0 <= idx < k:
                issues.append(f"part {i} has an out-of-range vertex index")
            elif idx not in home:
                home[idx] = i
            elif home[idx] == i:
                repeats.append(idx)
            else:
                issues.append(
                    f"vertex index {idx} appears in more than one part: not a partition"
                )
        if repeats:
            issues.append(f"part {i} repeats vertex index {repeats[0]}")
    if len(home) != k and not issues:
        issues.append("parts do not cover every dual vertex: not a partition")
    if issues:
        # a part reports each kind of problem once, and a shared index once
        return list(dict.fromkeys(issues)), None

    relation, simplex = simplex_relation(delta), (None,) * 4
    try:
        if relation:
            W, c, L = relation
            part_sums, labels = zip(*(_simplex_labels(W, c, L, part) for part in parts))
            simplex = c, L, part_sums, labels
            part_vertices = tuple(tuple(sorted(row)) for row in labels)
        else:
            part_vertices = tuple(
                _part_vertices(delta, [rays[j] for j in part], rays) for part in parts
            )
    except InvalidNefPartition as exc:
        return [str(exc)], None

    # on a simplex the Delta_i sum to delta on every partition
    if relation is None and not _sums_to(delta, part_vertices):
        # a sum that differs from delta makes nabla non-reflexive (module docstring)
        issues += ["Minkowski sum of part polytopes differs from delta", "nabla is not reflexive"]
    return issues, (rays, part_vertices, *simplex)


def _sums_to(delta, part_vertices):
    """Whether Delta_1 + ... + Delta_r, which lies in delta, equals it.

    Each Delta_i is given by a point set it is the hull of.  The sum equals
    delta iff every vertex v of delta is in it: iff the sum's support
    function at l_v, sum_i min over Delta_i of l_v, equals l_v(v), where l_v
    is the sum of the facet normals of delta tight at v, a vector inside v's
    normal cone, so delta attains its minimum of l_v at v alone (Ziegler,
    "Lectures on Polytopes", ch. 7).  No hull is built.
    """
    for v in delta.vertices:
        ell = [sum(col) for col in zip(*(g for g, c in delta.facets if _dot(g, v) + c == 0))]
        if sum(min(_dot(ell, m) for m in V) for V in part_vertices) != _dot(ell, v):
            return False
    return True


def validate_nef_partition(delta, parts):
    """Diagnostics for a proposed nef-partition, empty when it is valid; a part
    with an index that ``errors._as_ints`` refuses is named, not raised."""
    for i, part in enumerate(parts):
        try:
            _as_ints(part, "part index")
        except TypeError:
            return [f"part {i} has a non-integer vertex index"]
    return _derive(delta, parts)[0]


class NefPartition:
    """A reflexive polytope with a validated nef-partition of its dual rays.

    ``delta`` is a ``LatticePolytope``; any other value is refused as not a
    lattice polytope.  ``ray_parts`` holds indices into the lex-sorted
    vertex list of the polar dual.  Validation keeps ``rays``,
    ``part_vertices`` (the vertices of each Delta_i, read off its DD cut or,
    on a simplex, off Delta's vertices) and ``c``, ``L`` (``simplex_relation``)
    and ``part_sums``, the C_i = sum_(g in I_i) c_g, all None off a simplex,
    and checks Delta_1 + ... + Delta_r = Delta without building the sum.
    Each polytope below is built on first read and kept: ``nabla_dual`` is
    the hull of all ``part_vertices`` or, on a simplex, read off their
    labels; ``nabla`` is its polar dual; ``nabla_parts`` are the vertex
    tuples of the nabla_k; ``dual_parts()`` looks the vertices of
    ``nabla_dual`` up in ``part_vertices``.
    """

    def __init__(self, delta, parts):
        parts = tuple(tuple(sorted(_as_ints(part, "part index"))) for part in parts)
        issues, built = _derive(delta, parts)
        if issues:
            raise InvalidNefPartition("; ".join(issues))
        self.delta = delta
        self.ray_parts = parts
        self.rays, self.part_vertices, self.c, self.L, self.part_sums, self._labels = built

    @functools.cached_property
    def nabla_parts(self):
        """The lex-sorted vertices of each nabla_k: on a simplex its rays and,
        for r >= 2, the origin; else the layer-k vertices of Lambda_dual,
        read off its pairing with the tagged Delta_i vertices."""
        rays = [[self.rays[j] for j in part] for part in self.ray_parts]
        n = self.delta.ambient_dim
        if self._labels:
            origin = [(0,) * n] if self.r > 1 else []
            return tuple(tuple(sorted(R + origin)) for R in rays)
        _, verts, _ = _pairing(self.part_vertices, rays)
        return tuple(tuple(v[:n] for v in verts if v[n + k]) for k in range(self.r))

    @functools.cached_property
    def nabla_dual(self):
        """nabla^* = conv(Delta_1 ∪ ... ∪ Delta_r): one hull, or on a simplex
        read off the labels."""
        if self._labels:
            return _simplex_nabla_dual(self.rays, self.ray_parts, self._labels)
        return LatticePolytope({v for V in self.part_vertices for v in V})

    @functools.cached_property
    def nabla(self):
        """nabla = nabla_1 + ... + nabla_r, read off as polar(nabla^*)."""
        return self.nabla_dual.polar_dual()

    @property
    def r(self):
        return len(self.ray_parts)

    def dual_parts(self):
        """Each vertex v of nabla^* joins the first Delta_i that holds it, the
        first i with v in ``part_vertices[i]``: a vertex of nabla^* =
        conv(Delta_1 union ... union Delta_r) that lies in Delta_i is a vertex
        of Delta_i.  On a simplex that i is the part of v's label m_ij."""
        home = {v: i for i in reversed(range(self.r)) for v in self.part_vertices[i]}
        parts = [[] for _ in range(self.r)]
        for idx, v in enumerate(self.nabla_dual.vertices):
            parts[home[v]].append(idx)
        return parts

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict) or "delta" not in d or "parts" not in d:
            raise ValueError('nef-partition JSON needs "delta" and "parts"')
        parts = d["parts"]
        if not isinstance(parts, list) or not all(isinstance(part, list) for part in parts):
            raise ValueError('"parts" must be a list of index lists')
        return cls(LatticePolytope.from_dict(d["delta"]), parts)


def dual_nef_partition(data):
    """Return (nabla_parts, nabla, nabla_dual) for a validated nef-partition,
    the nabla_k as their vertex tuples."""
    return data.nabla_parts, data.nabla, data.nabla_dual
