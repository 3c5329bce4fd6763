"""Euler characteristics and Hodge numbers of branched double covers.

For a nef-partition on a reflexive polytope the cover Y -> X is branched
along the union of the nef divisors and the toric boundary.  Y is singular
where that divisor crosses itself, and the numbers here are Y's, not a
resolution's: chi(Y) = 12 for p2_k3, -60 for p3_quartic.  For n = 2 a
resolution of Y is a K3 surface, chi = 24.  chi(Y) is governed by the
lattice volume of the pyramid Lambda over the Cayley polytope of the parts:

    chi(Y) = chi(X) + (-1)^n * vol(Lambda),   vol(Lambda) = chi(X_dual),

and the identity vol(Lambda) = chi(X_dual) is asserted on both sides — its
failure signals a violated smoothness hypothesis.  chi(X) = vol(P) and
chi(X_dual) = vol(P_dual) for the two fan polytopes, P = Delta*
(``data.delta.polar_dual()``, read off Delta with no hull) and P_dual =
nabla*, and the stage builds no nabla.  Lambda_dual, and off a simplex
Lambda, are read off one Batyrev–Borisov pairing (``polytope._pairing``) by
``polytope._pyramid``, so each check compares two independent
computations; ``CoverTopology`` is built once both pass.

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

Hodge numbers off the middle degree are inherited from the toric base,
h^{1,1} = #P - n - 1 for its fan polytope P or P_dual; middle-degree
numbers follow from chi in dimensions 2 and 3, h^{1,1} among them for n = 2.

On a simplex whose rays span Z^n the stage reads chi(X_dual), #P and
#P_dual off c, L and the C_k and builds no nabla*.  The rays span Z^n
exactly when vol(Delta*) = chi(X) = sum c_g = L: each maximal minor of the
rays is +-c_g times the index of their lattice.  Then Z^n = Z^(n+1) / Z c,
and m -> (<m, rho_g>)_g maps Z^n onto the a in Z^(n+1) with c.a = 0.
- nabla*: support functions add under nabla = nabla_1 + ... + nabla_r, so m
  lies in t nabla* exactly when sum_k beta_k(m) <= t, beta_k(m) =
  max(0, -min_(g in I_k) <m, rho_g>) (Batyrev and Borisov, "On Calabi-Yau
  complete intersections in toric varieties", 1996).  a_g = <m, rho_g> +
  b_k (g in I_k) maps the m with beta <= b onto the a >= 0 with c.a = b.C,
  F(b.C) of them, F(s) = [x^s] prod_g 1 / (1 - x^c_g), one array knapsack.
  Moebius inversion over b gives sum_t #(t nabla*) y^t = (1 - y)^(r-1)
  G(y), G(y) = sum_b F(b.C) y^|b|, so nabla*'s Ehrhart h*-vector is
  (1 - y)^(n+r) G(y) mod y^(n+1), with sum h*_i = vol(nabla*) = chi(X_dual)
  and h*_1 = #nabla* - n - 1 (Hibi, "Dual polytopes of rational convex
  polytopes", Combinatorica 1992).
- Delta*: L times the barycentric coordinates of one of its lattice points
  is a u >= 0 in Z^(n+1) with sum u = L and u = j c mod L for one j, so
  #Delta* = n + 1 + #{0 < j < L : sum_g (j c_g mod L) = L}, the vertices
  and the group elements of age 1 (Reid, "Young person's guide to
  canonical singularities", 1987).
The check vol(Lambda) = chi(X_dual) then compares two closed forms that
share no code, Cayley's vol(Delta) h_n(C) / L^n and Ehrhart's sum h*_i.
Elsewhere, and past ``_accel.SCAN_BUDGET`` steps, nabla* (``data.nabla_dual``)
is built and triangulated and both fan polytopes are scanned.
"""

from fractions import Fraction
from math import comb
from operator import add, mul

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


def _counted(data, chi_X):
    """(chi(X_dual), #P, #P_dual) off c, L and the part sums on a simplex
    whose rays span Z^n, vol(Delta*) = chi_X = L (module docstring), else
    None, as past ``_accel.SCAN_BUDGET`` steps (a sum s of a pass, a c_g of an age)."""
    c, C, L = data.c, data.part_sums, data.L
    if not C or chi_X != L:
        return None
    n, r, top = len(c) - 1, len(C), (len(c) - 1) * max(C)
    if (2 * n + 2 + r * n) * (top + 1) + (n + 1) * L > _accel.SCAN_BUDGET:
        return None
    F = [1] + [0] * top  # F[s]: the a >= 0 with c.a = s
    for cg in c:
        for s in range(cg, top + 1):
            F[s] += F[s - cg]
    # ways[i][s]: the b >= 0 with |b| = i and b.C = s, i <= n
    ways = [F[:1] + [0] * top] + [[0] * (top + 1) for _ in range(n)]
    for Ck in C:
        for i in range(1, n + 1):
            ways[i][Ck:] = map(add, ways[i][Ck:], ways[i - 1])
    G = [sum(map(mul, F, row)) for row in ways]  # h*(y) = (1 - y)^(n+r) G(y) mod y^(n+1)
    h = [sum((-1) ** k * comb(n + r, k) * G[i - k] for k in range(i + 1)) for i in range(n + 1)]
    ages = sum(sum(j * cg % L for cg in c) == L for j in range(1, L))
    return sum(h), n + 1 + ages, h[1] + n + 1


def hodge_numbers(n, chi, points):
    """Hodge numbers of the n-dimensional double cover Y with Euler
    characteristic chi.

    ``points`` is #P, the number of lattice points of the fan polytope P of
    the toric base, the polar dual of its reflexive polytope: Delta* for Y
    and nabla* for its mirror.  ``euler_double_cover`` counts both, with no
    scan on a simplex whose rays span Z^n (module docstring); for n = 2 it
    is not read.  Off-middle numbers are those of the smooth toric base, with
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
    P = data.delta.polar_dual()
    chi_X = P.normalized_volume()
    counted = _counted(data, chi_X)
    if counted is None:  # nabla* built and triangulated, both fan polytopes scanned
        P_dual = data.nabla_dual
        counted = P_dual.normalized_volume(), P.lattice_point_count(), P_dual.lattice_point_count()
    chi_X_dual, points, points_dual = counted
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
    return CoverTopology(n, chi_X, chi_X_dual, points, points_dual)

