"""Euler characteristics and Hodge numbers of branched double covers.

For a nef-partition on a reflexive polytope the cover Y -> X is branched
along the union of the nef divisors and the toric boundary.  Y is singular
where that divisor crosses itself, and the numbers here are Y's, not a
resolution's: chi(Y) = 12 for p2_k3, -60 for p3_quartic.  For n = 2 a
resolution of Y is a K3 surface, chi = 24.  chi(Y) is governed by the
lattice volume of the pyramid Lambda over the Cayley polytope of the parts:

    chi(Y) = chi(X) + (-1)^n * vol(Lambda),   vol(Lambda) = chi(X_dual),

and the identity vol(Lambda) = chi(X_dual) is asserted on both sides — its
failure signals a violated smoothness hypothesis.  The stage reads the two
fan polytopes, P = Delta* (``data.delta.polar_dual()``, read off Delta with
no hull) and P_dual = nabla* (``data.nabla_dual``): chi(X) = vol(P) and
chi(X_dual) = vol(P_dual), and it builds no nabla.  Lambda_dual, and off a
simplex Lambda, are read off one Batyrev–Borisov pairing
(``polytope._pairing``) by ``polytope._pyramid``, so each check compares
two independent computations; ``CoverTopology`` is built once both pass.

On a simplex vol(Lambda) has a closed form.  With c, L and the part sums
C_i = sum of c_g over part i kept on the partition (``data.c``, ``data.L``,
``data.part_sums``), the labels m_ij of ``nefpart._simplex_labels`` give
Delta_i = (C_i / L) Delta + t_i, with sum C_i = L.  By the Cayley trick
vol(Lambda) is the sum of the mixed volumes MV(Delta_1^a_1, ...,
Delta_r^a_r) over |a| = n (Huber, Rambau and Santos, "The Cayley trick,
lifting subdivisions and the Bohne-Dress theorem on zonotopal tilings",
J. Eur. Math. Soc. 2000), and each is vol(Delta) prod (C_i / L)^a_i, so

    vol(Lambda) = vol(Delta) h_n(C_1, ..., C_r) / L^n,

h_n the complete homogeneous symmetric polynomial of degree n.  The check
is made in integers, vol(Delta) h_n(C) == L^n chi(X_dual), so no inexact
quotient passes, and Lambda is not built.  Off a simplex Lambda is built
from the transposed pairing and triangulated.  Lambda_dual is built and
triangulated everywhere: on a simplex its volume is vol(Delta*) for every
partition, and a closed form would leave the dual-side check comparing a
number with itself.

Hodge numbers off the middle degree are inherited from the toric base;
middle-degree numbers follow from chi in dimensions 2 and 3.

h^{1,1} counts the lattice points of the base's fan polytope, P or P_dual,
a reflexive polytope, but for n = 2 it is a middle number, read from chi
with no count.  The Ehrhart h*-vector (1, h_1, ..., h_{n-1}, 1) of P is
palindromic (Hibi, "Dual polytopes of rational convex polytopes",
Combinatorica 1992), h_1 = #P - n - 1 and the h_i sum to Vol(P), the
normalized volume.  So #P = Vol/2 + 3 for n = 3, where h* = (1, h_1, h_1, 1).
The volume is chi of the base, which the cover's Euler characteristic
already needs, so n = 2 and n = 3 count no lattice points.

For n >= 4 P = Delta* is scanned (``lattice_point_count``), and P_dual =
nabla* is counted by the nef-partition identity

    #(nabla* ∩ Z^n) = sum_k #(Delta_k ∩ Z^n) - (r - 1).

nabla = nabla_1 + ... + nabla_r with nabla_k = conv(0, rho_g : g in I_k),
and support functions add under Minkowski sums, so an integer m has
min <m, nabla> = sum_k min(0, min_(g in I_k) <m, rho_g>), a sum of integers
<= 0.  It is >= -1, m in nabla*, exactly when m lies in some Delta_k, and
two Delta_k meet only at 0 (Batyrev and Borisov, "On Calabi-Yau complete
intersections in toric varieties", 1996).  On a simplex a point m of
Delta_k is the vector a >= 0 with a_g = <m, rho_g> + [g in I_k], and
sum c_g a_g = C_k.  When the rays span Z^n every such a comes from an
integral m, so #(Delta_k ∩ Z^n) is the coefficient of t^C_k in
prod_g 1 / (1 - t^c_g), one array knapsack up to the largest C_k.  The rays
span Z^n exactly when vol(Delta*) = sum c_g = L: each maximal minor of the
rays is +-c_g times the index of their lattice, and vol(Delta*) sums their
absolute values.  So the test reads chi(X), which the stage holds.  Off a
simplex, on a simplex whose rays span a proper sublattice, and where the
knapsack would take more than ``_accel.SCAN_BUDGET`` steps, nabla* is
scanned.
"""

from fractions import Fraction

from . import _accel
from .errors import FracmirrorError, SmoothnessError
from .polytope import _pairing, _pyramid, _transpose

__all__ = [
    "CoverTopology",
    "HodgeTable",
    "euler_double_cover",
    "hodge_numbers",
]


class HodgeTable:
    """Hodge numbers of the singular cover Y (module docstring) as a {(p, q): value} table."""

    def __init__(self, table):
        self.table = table
        # complete: every h^{p,q} with p, q <= n, (n, n) the largest key
        self.complete = len(table) == (max(table)[0] + 1) ** 2
        self.note = None if self.complete else "middle Hodge numbers not determined"

    def to_json(self):
        return {
            "h": {f"{p},{q}": v for (p, q), v in sorted(self.table.items())},
            "complete": self.complete,
            "note": self.note,
        }


def _point_counts(data, P, chi_X, chi_X_dual):
    """(#P, #P_dual), the lattice points of Delta* and nabla* (module
    docstring): None for n = 2, read off the volumes chi_X and chi_X_dual
    for n = 3, and for n >= 4 P scanned and P_dual counted by the identity."""
    n = P.ambient_dim
    if n == 2:
        return None, None
    if n == 3:
        return chi_X // 2 + 3, chi_X_dual // 2 + 3
    return P.lattice_point_count(), _nabla_dual_count(data, chi_X)


def _nabla_dual_count(data, chi_X):
    """#(nabla* ∩ Z^n) = sum_k #(Delta_k ∩ Z^n) - (r - 1), each term a
    knapsack count to the part sum C_k on a simplex whose rays span Z^n,
    where vol(Delta*) = chi_X = L; else one scan of nabla*."""
    c, C = data.c, data.part_sums
    if C and chi_X == data.L and len(c) * (max(C) + 1) <= _accel.SCAN_BUDGET:
        ways = [1] + [0] * max(C)  # ways[s]: the a >= 0 with sum c_g a_g = s
        for cg in c:
            for s in range(cg, len(ways)):
                ways[s] += ways[s - cg]
        return sum(ways[Ck] for Ck in C) - (data.r - 1)
    return data.nabla_dual.lattice_point_count()


def hodge_numbers(n, chi, points):
    """Hodge numbers of the n-dimensional double cover Y with Euler
    characteristic chi.

    ``points`` is #P, the number of lattice points of the fan polytope P of
    the toric base, the polar dual of its reflexive polytope: Delta* for Y
    and nabla* for its mirror.  ``euler_double_cover`` reads it off the
    volume for n = 3 and counts it for n >= 4, nabla* with no scan on a
    simplex whose rays span Z^n (module docstring); for n = 2 it is not
    read.  Off-middle numbers are those of the smooth toric base, with
    h^{1,1} = #P - 1 - n, the boundary lattice points of P but n: a
    reflexive polytope has no interior lattice point but the origin.  The
    middle row comes from chi in dimensions 2 and 3.  Otherwise the table
    holds the off-middle part alone, and ``HodgeTable`` reads it as not
    ``complete``.
    """
    table = {(p, q): 0 for p in range(n + 1) for q in range(n + 1) if p + q != n and p != q}
    table[(0, 0)] = table[(n, n)] = 1
    if n == 2:
        table[(2, 0)] = table[(0, 2)] = 1
        table[(1, 1)] = chi - 4
        return HodgeTable(table)
    h11 = points - 1 - n
    table[(1, 1)] = table[(n - 1, n - 1)] = h11
    if n != 3:
        return HodgeTable(table)
    if chi % 2 != 0:
        raise FracmirrorError("odd Euler characteristic for a threefold")
    table[(3, 0)] = table[(0, 3)] = 1
    table[(2, 1)] = table[(1, 2)] = h11 - chi // 2
    return HodgeTable(table)


class CoverTopology:
    """Topological data of the dual pair of branched double covers: all but the
    lattice-point counts #P and #P_dual that ``hodge_numbers`` reads follow from
    n, chi(X) and chi(X_dual), as ``euler_double_cover`` builds it only once
    vol(Lambda) = chi(X_dual) and vol(Lambda_dual) = chi(X) hold."""

    def __init__(self, n, chi_X, chi_X_dual, points, points_dual):
        self.n = n
        self.chi_X, self.chi_X_dual = chi_X, chi_X_dual
        self.vol_Lambda, self.vol_Lambda_dual = chi_X_dual, chi_X
        self.chi_Y = chi_X + (-1) ** n * chi_X_dual
        self.chi_Y_dual = chi_X_dual + (-1) ** n * chi_X
        self.hodge = hodge_numbers(n, self.chi_Y, points)
        self.hodge_dual = hodge_numbers(n, self.chi_Y_dual, points_dual)

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
    P, P_dual = data.delta.polar_dual(), data.nabla_dual
    chi_X, chi_X_dual = P.normalized_volume(), P_dual.normalized_volume()
    rows, verts, on_rows = _pairing(
        data.part_vertices, [[data.rays[j] for j in part] for part in data.ray_parts]
    )
    if data.part_sums:
        # vol(Lambda) = vol(Delta) h_n(C_1, ..., C_r) / L^n (module docstring)
        h = [1] + [0] * n
        for Ck in data.part_sums:
            for k in range(1, n + 1):
                h[k] += Ck * h[k - 1]
        vol, scale = data.delta.normalized_volume() * h[n], data.L ** n
    else:
        lam = _pyramid(rows, verts, _transpose(on_rows, len(verts)), data.r)
        vol, scale = lam.normalized_volume(), 1
    if vol != scale * chi_X_dual:
        raise SmoothnessError(
            f"vol(Λ) ≠ χ(X∨): {Fraction(vol, scale)} != {chi_X_dual}; "
            "smoothness hypothesis violated"
        )
    vol_lambda_dual = _pyramid(verts, rows, on_rows, data.r).normalized_volume()
    if vol_lambda_dual != chi_X:
        raise SmoothnessError(
            f"vol(Λ) ≠ χ(X∨) on the dual side: {vol_lambda_dual} != {chi_X}; "
            "smoothness hypothesis violated"
        )
    return CoverTopology(n, chi_X, chi_X_dual, *_point_counts(data, P, chi_X, chi_X_dual))

