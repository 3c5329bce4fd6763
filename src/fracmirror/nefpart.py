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
"""

from .errors import InvalidNefPartition
from .polytope import LatticePolytope, _dd_extreme_rays, _require_ints

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
    part = {tuple(int(x) for x in rho) for rho in part_rays}
    if not part:
        raise InvalidNefPartition("empty part")
    n = delta.ambient_dim
    rows = []
    for rho in all_rays:
        rho = tuple(int(x) for x in rho)
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
    """Check a proposed nef-partition and build its polytopes in one pass.

    Returns ``(issues, built)``: the diagnostics (empty means valid) and
    ``(rays, parts_delta, nabla_parts, nabla)``, or None when a check
    stopped the build early.
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

    total = parts_delta[0]
    for P in parts_delta[1:]:
        total = total + P
    if total != delta:
        issues.append("Minkowski sum of part polytopes differs from delta")
    origin = tuple([0] * delta.ambient_dim)
    nabla_parts = tuple(
        LatticePolytope([origin] + [rays[j] for j in part]) for part in parts
    )
    nabla = nabla_parts[0]
    for P in nabla_parts[1:]:
        nabla = nabla + P
    if not nabla.is_reflexive():
        issues.append("nabla is not reflexive")
    return issues, (rays, parts_delta, nabla_parts, nabla)


def validate_nef_partition(delta, parts):
    """Diagnostics for a proposed nef-partition; empty list means valid."""
    return _derive(delta, parts)[0]


class NefPartition:
    """A reflexive polytope with a validated nef-partition of its dual rays.

    ``ray_parts`` holds indices into the lex-sorted vertex list of the polar
    dual.  Validation builds the derived polytopes once and keeps them:
    ``rays``, ``parts_delta`` (the Delta_i), ``nabla_parts`` and ``nabla``.
    """

    def __init__(self, delta, parts):
        if not isinstance(delta, LatticePolytope):
            delta = LatticePolytope(delta)
        parts = tuple(tuple(sorted(int(i) for i in part)) for part in parts)
        issues, built = _derive(delta, parts)
        if issues:
            raise InvalidNefPartition("; ".join(issues))
        self.delta = delta
        self.ray_parts = parts
        self.rays, self.parts_delta, self.nabla_parts, self.nabla = built

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
