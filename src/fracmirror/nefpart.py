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

Validation builds the Delta_i and tests their sum against Delta by support
functions, with no hull of the sum and no nabla: once Delta_1 + ... +
Delta_r = Delta, nabla is reflexive by the theorem of Borisov (1993) and
Batyrev & Borisov (1996).  Only a rejected partition builds nabla, to report
whether it is reflexive; a valid one builds the nabla_k and nabla on first
read.
"""

import functools
from operator import index

from .errors import InvalidNefPartition
from .polytope import LatticePolytope, _dd_extreme_rays, _dot, _require_ints

__all__ = [
    "NefPartition",
    "polytope_of_part",
    "dual_nef_partition",
    "validate_nef_partition",
]


def polytope_of_part(delta, part_rays, all_rays):
    """The lattice polytope Delta_i cut out by one part of a nef-partition.

    ``part_rays`` is the set of dual vertices with offset 1; every other
    element of ``all_rays`` gets offset 0.
    """
    part = {tuple(map(index, rho)) for rho in part_rays}
    if not part:
        raise InvalidNefPartition("empty part")
    n = delta.ambient_dim
    rows = []
    for rho in all_rays:
        rho = tuple(map(index, rho))
        rows.append(rho + (1 if rho in part else 0,))
    rows.append(tuple([0] * n) + (1,))
    verts = []
    for ray in _dd_extreme_rays(rows):
        m, t = ray[:-1], ray[-1]
        if t == 0:
            raise InvalidNefPartition("part polytope is unbounded")
        if t != 1:
            raise InvalidNefPartition("part polytope has non-lattice vertices")
        verts.append(m)
    return LatticePolytope(verts, n)


def _derive(delta, parts):
    """Check a proposed nef-partition, building the Delta_i on the way.

    Returns ``(issues, built)``: the diagnostics (empty means valid) and
    ``(rays, parts_delta)``, or None when a check stopped the build early.
    """
    if not isinstance(delta, LatticePolytope):
        return ["delta is not a lattice polytope"], None
    if not delta.is_reflexive():
        return ["delta is not reflexive"], None
    if not parts:
        return ["no parts given: not a partition"], None
    rays = delta.polar_dual().vertices
    k = len(rays)
    issues = []
    seen = set()
    for i, part in enumerate(parts):
        if len(part) == 0:
            issues.append(f"part {i} is empty")
        for idx in part:
            if not isinstance(idx, int) or not 0 <= idx < k:
                issues.append(f"part {i} has an out-of-range vertex index")
            elif idx in seen:
                issues.append(
                    f"vertex index {idx} appears in more than one part: not a partition"
                )
            else:
                seen.add(idx)
    if len(seen) != k and not issues:
        issues.append("parts do not cover every dual vertex: not a partition")
    if issues:
        return issues, None

    try:
        parts_delta = tuple(
            polytope_of_part(delta, [rays[j] for j in part], rays) for part in parts
        )
    except InvalidNefPartition as exc:
        return [str(exc)], None

    if not _sums_to(delta, parts_delta):
        issues.append("Minkowski sum of part polytopes differs from delta")
        # a sum equal to delta makes nabla reflexive, so only a rejected
        # partition builds nabla, for its second diagnostic
        if not _minkowski(_nabla_parts(rays, parts)).is_reflexive():
            issues.append("nabla is not reflexive")
    return issues, (rays, parts_delta)


def _nabla_parts(rays, parts):
    """nabla_k = conv({0} and the rays of part k), for each part."""
    origin = (0,) * len(rays[0])
    return tuple(LatticePolytope([origin] + [rays[j] for j in part]) for part in parts)


def _minkowski(polys):
    """The Minkowski sum of ``polys``, summed pairwise."""
    total = polys[0]
    for P in polys[1:]:
        total = total + P
    return total


def _sums_to(delta, parts_delta):
    """Whether Delta_1 + ... + Delta_r, which lies in delta, equals it.

    It does iff every vertex v of delta is in the sum: iff the sum's support
    function at l_v, sum_i min over Delta_i of l_v, equals l_v(v), where l_v
    is the sum of the facet normals of delta tight at v, a vector inside v's
    normal cone, so delta attains its minimum of l_v at v alone (Ziegler,
    "Lectures on Polytopes", ch. 7).  No hull is built.
    """
    for v in delta.vertices:
        ell = [sum(col) for col in zip(*(g for g, c in delta.facets if _dot(g, v) + c == 0))]
        if sum(min(_dot(ell, m) for m in P.vertices) for P in parts_delta) != _dot(ell, v):
            return False
    return True


def validate_nef_partition(delta, parts):
    """Diagnostics for a proposed nef-partition; empty list means valid."""
    return _derive(delta, parts)[0]


class NefPartition:
    """A reflexive polytope with a validated nef-partition of its dual rays.

    ``ray_parts`` holds indices into the lex-sorted vertex list of the polar
    dual.  Validation keeps ``rays`` and ``parts_delta`` (the Delta_i) and
    checks Delta_1 + ... + Delta_r = Delta by support functions, without
    building the sum; nabla is then reflexive (Borisov 1993; Batyrev &
    Borisov 1996), so ``nabla_parts`` (the nabla_k) and ``nabla`` are built
    the first time they are read, and kept.
    """

    def __init__(self, delta, parts):
        if not isinstance(delta, LatticePolytope):
            delta = LatticePolytope(delta)
        parts = tuple(tuple(sorted(map(index, part))) for part in parts)
        issues, built = _derive(delta, parts)
        if issues:
            raise InvalidNefPartition("; ".join(issues))
        self.delta = delta
        self.ray_parts = parts
        self.rays, self.parts_delta = built

    @functools.cached_property
    def nabla_parts(self):
        return _nabla_parts(self.rays, self.ray_parts)

    @functools.cached_property
    def nabla(self):
        return _minkowski(self.nabla_parts)

    @property
    def r(self):
        return len(self.ray_parts)

    @property
    def nabla_dual(self):
        """nabla^* = conv(Delta_1 ∪ ... ∪ Delta_r), read off as polar(nabla)."""
        return self.nabla.polar_dual()

    def dual_parts(self):
        """Dual parts: each vertex of nabla^* joins the first Delta_i holding it."""
        parts = [[] for _ in range(self.r)]
        for idx, v in enumerate(self.nabla_dual.vertices):
            home = next(
                (i for i, P in enumerate(self.parts_delta) if P.contains(v)), None
            )
            if home is None:
                raise InvalidNefPartition(
                    "a dual vertex lies in no part polytope; partition is not nef"
                )
            parts[home].append(idx)
        return parts

    def dual_data(self):
        """The dual nef-partition, packaged the same way (delta' = nabla)."""
        return NefPartition(self.nabla, self.dual_parts())

    def to_dict(self):
        return {
            "delta": self.delta.to_dict(),
            "parts": [list(p) for p in self.ray_parts],
        }

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict) or "delta" not in d or "parts" not in d:
            raise ValueError('nef-partition JSON needs "delta" and "parts"')
        for part in d["parts"]:
            _require_ints(part, "part index")
        return cls(LatticePolytope.from_dict(d["delta"]), d["parts"])

    def __eq__(self, other):
        return (
            isinstance(other, NefPartition)
            and self.delta == other.delta
            and self.ray_parts == other.ray_parts
        )

    def __repr__(self):
        return (
            f"NefPartition(n={self.delta.ambient_dim}, r={self.r}, "
            f"parts={[len(p) for p in self.ray_parts]})"
        )


def dual_nef_partition(data):
    """Return (nabla_parts, nabla, nabla_dual) for a validated nef-partition."""
    return data.nabla_parts, data.nabla, data.nabla_dual
