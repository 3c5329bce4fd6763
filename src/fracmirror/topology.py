"""Euler characteristics and Hodge numbers of branched double covers.

For a nef-partition on a reflexive polytope the cover Y -> X is branched
along the union of the nef divisors and the toric boundary.  Its Euler
characteristic is governed by the lattice volume of the pyramid Lambda over
the Cayley polytope of the part polytopes:

    chi(Y) = chi(X) + (-1)^n * vol(Lambda),   vol(Lambda) = chi(X_dual),

and the identity vol(Lambda) = chi(X_dual) is asserted on both sides — its
failure signals a violated smoothness hypothesis.  Lambda and Lambda_dual
are read off one Batyrev–Borisov pairing (``polytope.cayley_pyramids``);
chi(X) and chi(X_dual) are the volumes of the polar duals, so each check
compares two independent computations.  Hodge numbers off the middle
degree are inherited from the toric base; middle-degree numbers follow
from chi in dimensions 2 and 3.

h^{1,1} counts the lattice points of the polar dual P of the base, a
reflexive polytope, but for n = 2 it is a middle number, read from chi
with no count.  The Ehrhart h*-vector (1, h_1, ..., h_{n-1}, 1) of P is
palindromic (Hibi, "Dual polytopes of rational convex polytopes",
Combinatorica 1992), h_1 = #P - n - 1 and the h_i sum to Vol(P), the
normalized volume.  So #P = Vol/2 + 3 for n = 3, where h* = (1, h_1, h_1, 1).
The volume is chi(X), which the cover's Euler characteristic already needs,
so n = 2 and n = 3 count no lattice points.
"""

from .errors import FracmirrorError, SmoothnessError
from .polytope import cayley_pyramids

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


class HodgeTable:
    """Hodge numbers of the cover as a {(p, q): value} table."""

    def __init__(self, table, complete=True, note=None):
        self.table = table
        self.complete = complete
        self.note = note

    def to_json(self):
        return {
            "h": {f"{p},{q}": v for (p, q), v in sorted(self.table.items())},
            "complete": self.complete,
            "note": self.note,
        }


def _point_count(delta, vol):
    """Lattice points of the polar dual of delta (n != 2), whose normalized
    volume is ``vol``: read off the palindromic h*-vector for n = 3 (module
    docstring), counted otherwise."""
    if delta.ambient_dim == 3:
        return vol // 2 + 3
    return delta.polar_dual().lattice_point_count()


def hodge_numbers(delta, chi, vol):
    """Hodge numbers of the double cover Y with Euler characteristic chi.

    ``delta`` is the reflexive polytope of the toric base (``data.delta``
    for Y, ``data.nabla`` for its mirror) and ``vol`` the normalized volume
    of its polar dual, chi of the base (``euler_mpcp(delta)``).  Off-middle
    numbers are those of the smooth toric base, with h^{1,1} =
    (#boundary lattice points of the polar dual of delta) - n: all its
    lattice points but the origin, since a reflexive polytope has no other
    interior lattice point.  The middle row comes from chi in dimensions 2
    and 3.  Otherwise the off-middle part is returned with
    ``complete=False``.
    """
    n = delta.ambient_dim
    table = {(p, q): 0 for p in range(n + 1) for q in range(n + 1) if p + q != n and p != q}
    table[(0, 0)] = table[(n, n)] = 1
    if n == 2:
        table[(2, 0)] = table[(0, 2)] = 1
        table[(1, 1)] = chi - 4
        return HodgeTable(table)
    h11 = _point_count(delta, vol) - 1 - n
    table[(1, 1)] = table[(n - 1, n - 1)] = h11
    if n != 3:
        return HodgeTable(table, complete=False, note="middle Hodge numbers not determined")
    if chi % 2 != 0:
        raise FracmirrorError("odd Euler characteristic for a threefold")
    table[(3, 0)] = table[(0, 3)] = 1
    table[(2, 1)] = table[(1, 2)] = h11 - chi // 2
    return HodgeTable(table)


class CoverTopology:
    """Topological data of the dual pair of branched double covers."""

    def __init__(
        self, n, chi_X, chi_X_dual, vol_Lambda, vol_Lambda_dual, chi_Y, chi_Y_dual,
        hodge, hodge_dual,
    ):
        self.n = n
        self.chi_X = chi_X
        self.chi_X_dual = chi_X_dual
        self.vol_Lambda = vol_Lambda
        self.vol_Lambda_dual = vol_Lambda_dual
        self.chi_Y = chi_Y
        self.chi_Y_dual = chi_Y_dual
        self.hodge = hodge
        self.hodge_dual = hodge_dual

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
    lam, lam_dual = cayley_pyramids(
        data.part_vertices, [[data.rays[j] for j in part] for part in data.ray_parts]
    )
    vol_lambda = lam.normalized_volume()
    if vol_lambda != chi_X_dual:
        raise SmoothnessError(
            f"vol(Λ) ≠ χ(X∨): {vol_lambda} != {chi_X_dual}; "
            "smoothness hypothesis violated"
        )
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
        hodge=hodge_numbers(data.delta, chi_Y, chi_X),
        hodge_dual=hodge_numbers(data.nabla, chi_Y_dual, chi_X_dual),
    )

