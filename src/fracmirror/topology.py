"""Euler characteristics and Hodge numbers of branched double covers.

For a nef-partition on a reflexive polytope the cover Y -> X is branched
along the union of the nef divisors and the toric boundary.  Its Euler
characteristic is governed by the lattice volume of the pyramid Lambda over
the Cayley polytope of the part polytopes, one hull of their tagged points:

    chi(Y) = chi(X) + (-1)^n * vol(Lambda),   vol(Lambda) = chi(X_dual),

and the identity vol(Lambda) = chi(X_dual) is asserted — its failure signals
a violated smoothness hypothesis.  Hodge numbers off the middle degree are
inherited from the toric base; middle-degree numbers follow from chi in
dimensions 2 and 3.
"""

from dataclasses import dataclass, field

from .errors import FracmirrorError, SmoothnessError
from .polytope import cayley_pyramid

__all__ = [
    "CoverTopology",
    "HodgeTable",
    "euler_mpcp",
    "euler_double_cover",
    "hodge_numbers",
]


def euler_mpcp(delta):
    """Euler characteristic of the crepant-resolved toric variety of delta.

    Equals the normalized volume of the polar dual (the number of maximal
    cones in a unimodular triangulation of its face fan).
    """
    return delta.polar_dual().normalized_volume()


@dataclass(frozen=True)
class HodgeTable:
    """Hodge numbers of the cover as a {(p, q): value} table."""

    table: dict
    complete: bool = True
    note: str | None = None

    def get(self, p, q):
        return self.table.get((p, q))

    def to_json(self):
        return {
            "h": {f"{p},{q}": v for (p, q), v in sorted(self.table.items())},
            "complete": self.complete,
            "note": self.note,
        }


def hodge_numbers(delta, chi):
    """Hodge numbers of the double cover Y with Euler characteristic chi.

    ``delta`` is the reflexive polytope of the toric base (``data.delta``
    for Y, ``data.nabla`` for its mirror).  Off-middle numbers are those of
    the smooth toric base, with h^{1,1} = (#boundary lattice points of the
    polar dual of delta) - n: all its lattice points but the origin, since
    ``polar_dual`` refuses a delta that is not reflexive and a reflexive
    polytope has no other interior lattice point.  The middle row comes from
    chi in dimensions 2 and 3.  For n > 3 the off-middle part is returned
    with ``complete=False``.
    """
    n = delta.ambient_dim
    h11 = len(delta.polar_dual().lattice_points()) - 1 - n
    table = {}
    if n == 2:
        table[(0, 0)] = table[(2, 2)] = 1
        table[(1, 0)] = table[(0, 1)] = table[(2, 1)] = table[(1, 2)] = 0
        table[(2, 0)] = table[(0, 2)] = 1
        table[(1, 1)] = chi - 4
        return HodgeTable(table)
    if n == 3:
        for p in range(4):
            for q in range(4):
                if p + q != 3:
                    table[(p, q)] = 0
        table[(0, 0)] = table[(3, 3)] = 1
        table[(1, 1)] = table[(2, 2)] = h11
        if chi % 2 != 0:
            raise FracmirrorError("odd Euler characteristic for a threefold")
        h21 = h11 - chi // 2
        table[(3, 0)] = table[(0, 3)] = 1
        table[(2, 1)] = table[(1, 2)] = h21
        return HodgeTable(table)
    # n > 3: only the inherited off-middle entries are known here
    for p in range(n + 1):
        for q in range(n + 1):
            if p + q != n and p != q:
                table[(p, q)] = 0
    table[(0, 0)] = table[(n, n)] = 1
    table[(1, 1)] = table[(n - 1, n - 1)] = h11
    return HodgeTable(table, complete=False, note="middle Hodge numbers not determined")


@dataclass(frozen=True)
class CoverTopology:
    """Topological data of the dual pair of branched double covers."""

    n: int
    chi_X: int
    chi_X_dual: int
    vol_Lambda: int
    vol_Lambda_dual: int
    chi_Y: int
    chi_Y_dual: int
    hodge: HodgeTable = field(compare=False)
    hodge_dual: HodgeTable = field(compare=False)

    def to_json(self):
        return {
            "n": self.n,
            "chi_X": self.chi_X,
            "chi_X_dual": self.chi_X_dual,
            "vol_Lambda": self.vol_Lambda,
            "vol_Lambda_dual": self.vol_Lambda_dual,
            "chi_Y": self.chi_Y,
            "chi_Y_dual": self.chi_Y_dual,
            "hodge": self.hodge.to_json(),
            "hodge_dual": self.hodge_dual.to_json(),
        }


def euler_double_cover(data):
    """Full topological test for a nef-partition: chi's, vol(Lambda), Hodge.

    Raises :class:`SmoothnessError` when vol(Lambda) differs from the Euler
    characteristic of the mirror toric variety on either side.
    """
    n = data.delta.ambient_dim
    chi_X = euler_mpcp(data.delta)
    chi_X_dual = euler_mpcp(data.nabla)
    lam = cayley_pyramid(data.part_vertices)
    vol_lambda = lam.normalized_volume()
    if vol_lambda != chi_X_dual:
        raise SmoothnessError(
            f"vol(Λ) ≠ χ(X∨): {vol_lambda} != {chi_X_dual}; "
            "smoothness hypothesis violated"
        )
    # the dual partition lives on nabla; its part polytopes are the nabla_k
    lam_dual = cayley_pyramid([(0,) * n] + [data.rays[j] for j in part] for part in data.ray_parts)
    vol_lambda_dual = lam_dual.normalized_volume()
    if vol_lambda_dual != chi_X:
        raise SmoothnessError(
            f"vol(Λ) ≠ χ(X∨) on the dual side: {vol_lambda_dual} != {chi_X}; "
            "smoothness hypothesis violated"
        )
    chi_Y = chi_X + (-1) ** n * chi_X_dual
    chi_Y_dual = chi_X_dual + (-1) ** n * chi_X
    return CoverTopology(
        n=n,
        chi_X=chi_X,
        chi_X_dual=chi_X_dual,
        vol_Lambda=vol_lambda,
        vol_Lambda_dual=vol_lambda_dual,
        chi_Y=chi_Y,
        chi_Y_dual=chi_Y_dual,
        hodge=hodge_numbers(data.delta, chi_Y),
        hodge_dual=hodge_numbers(data.nabla, chi_Y_dual),
    )

