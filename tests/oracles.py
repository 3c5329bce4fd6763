"""Reference algorithms kept only to check the package against.

Each one is a slower, independent route to a result the package computes
another way; the tests compare the two.
"""

import collections
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from fracmirror import linalg
from fracmirror.cohom import deformed_solution
from fracmirror.errors import FracmirrorError, InvalidNefPartition, _as_int
from fracmirror.gkz import Slices
from fracmirror.mirror import YukawaData
from fracmirror.nefpart import _part_vertices
from fracmirror.picard_fuchs import ThetaOperator
from fracmirror.polytope import LatticePolytope
from fracmirror.series import RationalSeries, _coeff_strs, _make


def product_term_by_term(a, b):
    """a * b by the schoolbook convolution, one Fraction product per term pair."""
    N = min(a.N, b.N)
    out = [Fraction(0)] * (N + 1)
    for i in range(N + 1):
        x = a.c[i]
        if x == 0:
            continue
        for j in range(N + 1 - i):
            y = b.c[j]
            if y != 0:
                out[i + j] += x * y
    return RationalSeries(out, N)


def inverse_term_by_term(f):
    """1/f by the recurrence g_n = -(1/c0) sum_(k=1..n) c_k g_(n-k)."""
    inv0 = 1 / f.c[0]
    out = [inv0] + [Fraction(0)] * f.N
    for n in range(1, f.N + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc += f.c[k] * out[n - k]
        out[n] = -inv0 * acc
    return RationalSeries(out, f.N)


def exp_term_by_term(f):
    """exp(f), f(0) = 0, by the recurrence n e_n = sum_(k=1..n) k f_k e_(n-k)."""
    if f.c[0] != 0:
        raise FracmirrorError("exp needs a zero constant term")
    out = [Fraction(1)] + [Fraction(0)] * f.N
    for n in range(1, f.N + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc += k * f.c[k] * out[n - k]
        out[n] = acc / n
    return RationalSeries(out, f.N)


def dilate(f, p, q=1):
    """f(p z / q) for ints p, q > 0, as one series op: [A_n p^n q^(N-n)] over
    D q^N, reduced.  The package writes a series in x = z/s as f(z/s)
    coefficient by coefficient (``series._coeff_strs``) instead."""
    N = f.N
    return _make([a * p**n * q ** (N - n) for n, a in enumerate(f.A)], f.D * q**N, N)


def scale_arg(f, s):
    """f(s*z)."""
    s = Fraction(s)
    return RationalSeries([x * s**n for n, x in enumerate(f.c)], f.N)


def matches(f, g, upto):
    """Coefficientwise equality of two series through order ``upto``."""
    return all(f.coeff(n) == g.coeff(n) for n in range(upto + 1))


def omega1_log(pair):
    """omega1 = omega0 * L + tau of a Frobenius pair as its log parts
    [tau, omega0], the list that ``apply`` takes, L = log z: the pair's
    slices A1 and A0 in x = z/s taken back to z."""
    r = Fraction(1, pair.scale)
    return [scale_arg(pair.A1, r), scale_arg(pair.A0, r)]


def frobenius_pair_in_z(ell, N):
    """(omega0, tau, s): the first two slices of the kernel at scale 1
    (``cohom.deformed_solution``) and s = 4^(sum k) over the negative
    kernel entries -k."""
    omega0, tau = deformed_solution(ell, N, 2)
    return omega0, tau, 4 ** sum(-le for le in ell if le < 0)


def mirror_map_in_z(ell, N):
    """(q(z), z(q)) computed in z, where every series carries a denominator
    near s^N: q = (z/s) exp(tau/omega0) and z(q) its reversion."""
    omega0, tau, s = frobenius_pair_in_z(ell, N)
    q_of_z = (tau / omega0).exp().shift(1) * Fraction(1, s)
    return q_of_z, reversion_by_powers(q_of_z)


class ZOperator(NamedTuple):
    """sum_k z_polys[k](z) theta^k for any polynomials z_polys[k] in z, the
    general theta-operator; ``picard_fuchs.ThetaOperator`` holds only the
    factored F(theta) - z G(theta).  ``apply``, ``holomorphic_kernel`` and
    ``yukawa_ode_rhs`` read ``z_polys`` and ``degree`` of either."""

    z_polys: tuple

    @property
    def degree(self):
        return len(self.z_polys) - 1


def yukawa_ode_rhs_by_division(op, N):
    """``picard_fuchs.yukawa_ode_rhs`` as series division: g = -p3/(2 p4),
    with p3 and p4 built from Fractions and divided by ``RationalSeries``'s
    ``/`` at order N."""
    p3 = RationalSeries(op.z_polys[3], N)
    p4 = RationalSeries(op.z_polys[4], N)
    return -(p3 / p4) * Fraction(1, 2)


def yukawa_ode_rhs(op, N):
    """g with theta(Y) = g Y for the normalized Yukawa coupling of a
    degree-4 operator: g = -p3/(2 p4), expanded to order N.

    With p3 and p4 over one denominator as ints P3 and P4, u = P3/P4 solves
    u_n = (P3_n - sum_(i>=1) P4_i u_(n-i)) / P4_0, an integer recurrence in
    O(N deg p4) with V_n = u_n P4_0^(n+1).
    """
    if op.degree != 4:
        raise FracmirrorError("Yukawa ODE defined for threefold operators")
    N = _as_int(N, "order N")
    if N < 0:
        raise ValueError("truncation order must be nonnegative")
    p3, p4 = op.z_polys[3], op.z_polys[4]
    L = math.lcm(*(c.denominator for c in p3 + p4)) * (1 if p4[0] > 0 else -1)
    P3, P4 = ([c.numerator * (L // c.denominator) for c in p] for p in (p3, p4))
    P3 += [0] * (N + 1 - len(P3))
    b, V = P4[0], []  # b > 0
    for n in range(N + 1):
        deg = min(n, len(P4) - 1)
        V.append(P3[n] * b**n - sum(P4[i] * V[n - i] * b ** (i - 1) for i in range(1, deg + 1)))
    return _make([-v * b ** (N - n) for n, v in enumerate(V)], 2 * b ** (N + 1), N)


def a_model_correlation_by_composition(op, pair, x_of_q, C):
    """``mirror.a_model_correlation`` by solving theta(Y) = g Y and composing:
    Y_x = C exp(antitheta g_x) / A0^2 with g_x(x) = g(s x) from the integer
    recurrence ``yukawa_ode_rhs``, then K = Y_x(x(q)) (theta_q log x(q))^3 with
    x(q) = z(q)/s, the inverse mirror map in x."""
    N, s = pair.N, pair.scale
    g = yukawa_ode_rhs(op, N)
    if g.A[0]:
        raise FracmirrorError("Yukawa ODE has a nonzero residue at z = 0")
    Y_x = antitheta(dilate(g, s)).exp() * Fraction(C) / (pair.A0 * pair.A0)
    x_of_q = x_of_q.truncate(N)
    # v = x(q)/q, a unit series in q of order N-1; theta_q log v = theta(v)/v
    v = RationalSeries(x_of_q.c[1:], N - 1)
    dlog = v.theta() / v + 1
    K = compose_by_horner(Y_x, x_of_q).truncate(N - 1) * (dlog * dlog * dlog)
    return YukawaData(C=Fraction(C), Y_x=Y_x, K_q=K, scale=s)


def a_model_correlation_in_z(op, ell, N, z_of_q, C):
    """K(q) = Y_z(z(q)) (theta_q log z(q))^3 computed in z, with
    Y_z = C exp(antitheta g) / omega0^2 and theta(Y_z) = g Y_z; Y_z is
    kept as it is, at scale 1."""
    omega0, _, s = frobenius_pair_in_z(ell, N)
    g = yukawa_ode_rhs_by_division(op, N)
    Y = antitheta(g).exp() * Fraction(C) / (omega0 * omega0)
    # v = z(q)/(s q), a unit series in q of order N-1; theta_q log v = theta(v)/v
    v = RationalSeries(z_of_q.c[1 : N + 1], N - 1) * Fraction(1, s)
    dlog = v.theta() / v + 1
    K = compose_by_horner(Y, z_of_q.truncate(N)).truncate(N - 1) * dlog * dlog * dlog
    return YukawaData(C=Fraction(C), Y_x=Y, K_q=K, scale=1)


def antitheta(f):
    """The inverse of theta on a series with zero constant term: coefficient
    n divided by n."""
    if f.c[0]:
        raise FracmirrorError("antitheta needs a zero constant term")
    return RationalSeries([0] + [f.c[n] / n for n in range(1, f.N + 1)], f.N)


def reversion_by_composition(f):
    """Compositional inverse of ``f`` one coefficient at a time.

    T_1 = 1/c1, and T_k = -(1/c1) [q^k] f(T_1 q + ... + T_(k-1) q^(k-1)):
    N Horner compositions of the whole series (``compose_by_horner``).
    """
    inv1 = 1 / f.c[1]
    out = [Fraction(0), inv1] + [Fraction(0)] * (f.N - 1)
    for k in range(2, f.N + 1):
        err = compose_by_horner(f, RationalSeries(out, f.N)).coeff(k)
        out[k] = -inv1 * err
    return RationalSeries(out, f.N)


def compose_by_horner(f, g):
    """f evaluated at g, g(0) = 0, by Horner's rule: N full products."""
    N = min(f.N, g.N)
    g = g.truncate(N)
    res = RationalSeries([f.coeff(N)], N)
    for k in range(N - 1, -1, -1):
        res = res * g + f.coeff(k)
    return res


def reversion_by_powers(f):
    """Compositional inverse of ``f`` by Lagrange inversion over every power:
    [q^k] T = (1/k) [w^(k-1)] h^k with h = w / f(w), read off the running
    power h^k, so N - 1 full products."""
    h = RationalSeries(f.c[1:], f.N - 1).inverse()
    out, power = [Fraction(0)], RationalSeries((1,), f.N - 1)
    for k in range(1, f.N + 1):
        power = power * h
        out.append(power.coeff(k - 1) / k)
    return RationalSeries(out, f.N)


def smith_normal_form(M):
    """Smith normal form, the reference ``linalg.echelon`` is checked against.

    Returns (D, U, V) as lists of integer rows with U·M·V = D, U and V
    unimodular, D diagonal with nonnegative entries satisfying
    D[i][i] | D[i+1][i+1].
    """
    A = [[operator.index(x) for x in row] for row in M]
    m = len(A)
    n = len(A[0]) if A else 0
    if any(len(row) != n for row in A):
        raise ValueError("matrix rows must have equal length")
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def rows(R, t, i, x, y, z, w):
        # (R[t], R[i]) <- (x R[t] + y R[i], z R[t] + w R[i])
        R[t], R[i] = ([x * a + y * b for a, b in zip(R[t], R[i])],
                      [z * a + w * b for a, b in zip(R[t], R[i])])

    def cols(R, t, j, x, y, z, w):
        # (column t, column j) <- (x col t + y col j, z col t + w col j)
        for row in R:
            a, b = row[t], row[j]
            row[t], row[j] = x * a + y * b, z * a + w * b

    def clear_at(t):
        # Make A[t][t] the only nonzero entry in its row and column.
        while True:
            done = True
            for i in range(m):
                if i != t and A[i][t] != 0:
                    done = False
                    a, b = A[t][t], A[i][t]
                    if a != 0 and b % a == 0:
                        f = b // a
                        A[i] = [x - f * y for x, y in zip(A[i], A[t])]
                        U[i] = [x - f * y for x, y in zip(U[i], U[t])]
                    else:
                        g, x, y = linalg.exgcd(a, b)
                        rows(A, t, i, x, y, -(b // g), a // g)
                        rows(U, t, i, x, y, -(b // g), a // g)
            for j in range(n):
                if j != t and A[t][j] != 0:
                    done = False
                    a, b = A[t][t], A[t][j]
                    if a != 0 and b % a == 0:
                        f = b // a
                        cols(A, t, j, 1, 0, -f, 1)
                        cols(V, t, j, 1, 0, -f, 1)
                    else:
                        g, x, y = linalg.exgcd(a, b)
                        cols(A, t, j, x, y, -(b // g), a // g)
                        cols(V, t, j, x, y, -(b // g), a // g)
            if done:
                return

    t = 0
    while t < min(m, n):
        # smallest-magnitude pivot in the remaining block
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                a = A[i][j]
                if a != 0 and (best is None or abs(a) < best):
                    best = abs(a)
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            A[t], A[pi] = A[pi], A[t]
            U[t], U[pi] = U[pi], U[t]
        if pj != t:
            cols(A, t, pj, 0, 1, 1, 0)
            cols(V, t, pj, 0, 1, 1, 0)
        clear_at(t)
        t += 1

    r = t
    for i in range(r):
        if A[i][i] < 0:
            A[i] = [-x for x in A[i]]
            U[i] = [-x for x in U[i]]
    # enforce the divisibility chain
    i = 0
    while i < r - 1:
        if A[i + 1][i + 1] % A[i][i] != 0:
            cols(A, i, i + 1, 1, 1, 0, 1)
            cols(V, i, i + 1, 1, 1, 0, 1)
            clear_at(i)
            if A[i][i] < 0:
                A[i] = [-x for x in A[i]]
                U[i] = [-x for x in U[i]]
            i = max(i - 1, 0)
        else:
            i += 1
    return A, U, V


class SmithRelations(NamedTuple):
    """Smith data of an integer matrix: saturated kernel, rank, image index."""

    kernel: tuple
    rank: int
    index: int  # index of the column span inside its saturation


def smith_relations(M):
    """Saturated kernel basis, rank and saturation index of ``M``.

    ``index`` is the product of the nonzero invariant factors: the index of
    the lattice generated by the columns inside its saturation in Z^rows.
    """
    D, _, V = smith_normal_form(M)
    r = sum(1 for i in range(min(len(D), len(V))) if D[i][i] != 0)
    kernel = tuple(tuple(row[j] for row in V) for j in range(r, len(V)))
    return SmithRelations(kernel=kernel, rank=r, index=math.prod(D[i][i] for i in range(r)))


def independent_rows(M):
    """Indices of the rows of M outside the span of the rows before them,
    the basis ``linalg.row_basis`` must choose.

    Each row is reduced against the basis kept so far: ``v ← b[p]·v − v[p]·b``
    clears the pivot column p of basis row b, and a row that stays nonzero
    joins the basis divided by its gcd.
    """
    basis = []  # (row index, pivot column, primitive reduced row)
    for idx, row in enumerate(M):
        v = [operator.index(x) for x in row]
        if len(basis) == len(v):
            break
        for _, p, b in basis:
            if v[p] != 0:
                v = [b[p] * a - v[p] * c for a, c in zip(v, b)]
        piv = next((j for j, a in enumerate(v) if a != 0), None)
        if piv is not None:
            g = math.gcd(*v)
            basis.append((idx, piv, [a // g for a in v]))
    return [idx for idx, _, _ in basis]


def adjugate(M):
    """``(det M, adj M)`` by a fraction-free Gauss–Jordan elimination of
    [M | I], the transform ``linalg.row_basis`` is checked against.

    ``adj M`` is a list of integer rows with M·adj = det·I, or None when M is
    singular.
    """
    A = [[operator.index(x) for x in row] for row in M]
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("matrix must be square")
    A = [row + [int(i == j) for j in range(n)] for i, row in enumerate(A)]
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if A[i][k] != 0), None)
        if piv is None:
            return 0, None
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        p, pivot_row = A[k][k], A[k]
        for i in range(n):
            if i != k:
                f = A[i][k]
                A[i] = [(p * a - f * b) // prev for a, b in zip(A[i], pivot_row)]
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in A]


def inverse_unimodular(U):
    """Exact inverse of an integer matrix with det ±1; ``SpanHull`` lifts
    span coordinates back through it."""
    d, adj = adjugate(U)
    if abs(d) != 1:
        raise ValueError("matrix is not unimodular")
    return [[d * x for x in row] for row in adj]


def det(M):
    """Exact determinant of a square integer matrix.

    Bareiss's fraction-free elimination: rows below the pivot become
    ``(p·row − row[k]·pivot_row) // prev`` (p the new pivot, prev the last
    one), an exact division, and the last pivot is the determinant up to the
    sign of the row swaps.
    """
    A = [[operator.index(x) for x in row] for row in M]
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if A[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        p, pivot_row = A[k][k], A[k]
        for i in range(k + 1, n):
            f = A[i][k]
            A[i] = [(p * a - f * b) // prev for a, b in zip(A[i], pivot_row)]
        prev = p
    return sign * prev


def ray_lattice_index(rays):
    """[Z^n : the lattice the n-vectors ``rays`` span], as the gcd of their
    n x n minors (``det``), the product of the invariant factors of the
    matrix they form; 0 when they do not span R^n."""
    return math.gcd(*(det(S) for S in itertools.combinations(rays, len(rays[0]))))


def pulling_triangulation(P):
    """Simplices of the pulling triangulation of P, as tuples of vertex indices.

    Faces are bitmasks over ``P.vertices``.  The facets of a face S
    are the inclusion-maximal S ∩ F over the facet masks F (``_incidences``)
    that do not contain S; S is coned from its smallest vertex over the
    triangulations of its facets that miss that vertex (De Loera, Rambau &
    Santos, "Triangulations", §4.3).  Each face is triangulated once.
    """
    memo = {}

    def pull(S):
        if S not in memo:
            v = (S & -S).bit_length() - 1
            if S == 1 << v:
                memo[S] = [(v,)]
            else:
                cuts = {S & F for F in P._incidences if S & F != S}
                memo[S] = [
                    (v,) + s
                    for G in cuts
                    if not G >> v & 1
                    and not any(G != H and G & H == G for H in cuts)
                    for s in pull(G)
                ]
        return memo[S]

    return pull((1 << len(P.vertices)) - 1)


def volume_by_simplices(P):
    """Normalized volume as Σ |det(y_i − y_0)| over the simplices of the
    pulling triangulation, one determinant per simplex."""
    a = P.affine_dim
    Y = P.vertices
    vol = 0
    for s in pulling_triangulation(P):
        y0 = Y[s[0]]
        vol += abs(det([[Y[j][i] - y0[i] for i in range(a)] for j in s[1:]]))
    return vol


def dilate_count(P, k):
    """Lattice points of k·P for an int k >= 0: the count of the hull of the
    dilated vertices, 1 for k = 0."""
    if k == 0:
        return 1
    return LatticePolytope([[k * x for x in v] for v in P.vertices]).lattice_point_count()


def volume_by_dilation_counts(P):
    """Normalized volume as the alternating sum of a+1 dilated lattice-point
    counts (the leading Ehrhart coefficient times a!)."""
    a = P.affine_dim
    return sum((-1) ** (a - k) * math.comb(a, k) * dilate_count(P, k) for k in range(a + 1))


class SpanHull:
    """conv(points) for points that may span less than Z^D, through the
    full-dimensional ``LatticePolytope`` of their span coordinates.

    With x0 the lex-first point, rows a.. of the unimodular U of
    ``linalg.echelon`` vanish on every x − x0, so y = U[:a]·(x − x0) maps
    the lattice points of the affine span onto Z^a, and ``span`` is the hull
    of the y there.  A point y goes back as x0 + V[:, :a]·y with V = U⁻¹, and
    a facet (g, c) of ``span`` as (w, c − w·x0) with w = Σ_{i<a} gᵢ·U[i],
    primitive because U is unimodular.
    """

    def __init__(self, points):
        pts = sorted({tuple(p) for p in points})
        self.x0 = pts[0]
        diffs = [[x - y for x, y in zip(p, self.x0)] for p in pts]
        self.affine_dim, self.U = linalg.echelon(list(zip(*diffs)))
        self.V = inverse_unimodular(self.U)
        self.span = LatticePolytope([self.project(p) for p in pts])

    def _coordinates(self, x):
        diff = [p - q for p, q in zip(x, self.x0)]
        return [sum(map(operator.mul, row, diff)) for row in self.U]

    def project(self, x):
        """Span coordinates of a point x of the affine span."""
        return tuple(self._coordinates(x)[: self.affine_dim])

    def on_span(self, x):
        return not any(self._coordinates(x)[self.affine_dim :])

    def lift(self, y):
        return tuple(x + sum(map(operator.mul, row, y)) for x, row in zip(self.x0, self.V))

    @property
    def vertices(self):
        return tuple(sorted(self.lift(y) for y in self.span.vertices))

    @property
    def facets(self):
        lifted = []
        for g, c in self.span.facets:
            w = tuple(sum(map(operator.mul, g, col)) for col in zip(*self.U[: self.affine_dim]))
            lifted.append((w, c - sum(map(operator.mul, w, self.x0))))
        return tuple(sorted(lifted))

    def lattice_points(self):
        return tuple(sorted(self.lift(y) for y in lattice_points_by_box(self.span)))


def contains(P, point):
    """Whether a point with int or Fraction coordinates lies in P: on the
    inner side of every facet, or, for a set P that spans less than its
    space (kept as its points), in the ``SpanHull`` of those points."""
    p = tuple(point)
    if any(type(x) not in (int, Fraction) for x in p):
        raise TypeError("point coordinates must be int or Fraction")
    if len(p) != P.ambient_dim:
        raise ValueError("point has wrong dimension")
    if P.affine_dim == 0:
        return p == P.vertices[0]
    if not P.facets:
        H = SpanHull(P.vertices)
        return H.on_span(p) and contains(H.span, H.project(p))
    return all(sum(map(operator.mul, g, p)) + c >= 0 for g, c in P.facets)


def lattice_points_by_box(P):
    """The lattice points of P in lex order: every point of its vertex box
    that ``contains`` keeps."""
    box = [range(min(x), max(x) + 1) for x in zip(*P.vertices)]
    return tuple(p for p in itertools.product(*box) if contains(P, p))


def interior_lattice_points(P):
    """The lattice points of a full-dimensional P strictly inside every
    facet, by testing each point against each facet inequality."""
    return tuple(
        p for p in lattice_points_by_box(P)
        if all(sum(map(operator.mul, g, p)) + c > 0 for g, c in P.facets)
    )


def boundary_lattice_point_count(P):
    """Lattice points of P on some facet: all of them but the interior ones."""
    return len(lattice_points_by_box(P)) - len(interior_lattice_points(P))


def lattice_transform(U, X):
    """Apply the integer matrix U (rows) to a polytope or a list of points."""
    rows = [tuple(int(x) for x in row) for row in U]

    def tf(p):
        return tuple(sum(a * b for a, b in zip(row, p)) for row in rows)

    if isinstance(X, LatticePolytope):
        return LatticePolytope([tf(v) for v in X.vertices])
    return tuple(tf(tuple(p)) for p in X)


def ehrhart_polynomial(P):
    """Coefficients (c₀..c_a) with |kP ∩ Z^D| = Σ cᵢ kⁱ, as Fractions.

    Interpolated from the a+1 dilate counts |kP ∩ Z^D|, k = 0..a, by Newton
    forward differences; a!·c_a is the normalized volume.
    """
    a = P.affine_dim
    counts = [dilate_count(P, k) for k in range(a + 1)]
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
    return LatticePolytope(pts)


def pyramid_over(P):
    """Hull of P and the origin of its ambient space."""
    pts = list(P.vertices)
    pts.append(tuple([0] * P.ambient_dim))
    return LatticePolytope(pts)


def dk_intersection_euler(part_polytopes, n):
    """chi of the open intersection D_1 ∩ ... ∩ D_r ∩ T inside the torus.

    Alternating sum over nonempty index subsets I of the normalized volumes
    of the pyramids over the Cayley polytopes of the chosen parts (two hulls
    each, the package's Λ route being one); each volume is taken in the
    affine span of its pyramid.
    """
    parts = list(part_polytopes)
    if not parts:
        raise ValueError("need at least one divisor polytope")
    if any(P.ambient_dim != n for P in parts):
        raise ValueError("part polytopes must live in rank-n lattice")
    r = len(parts)
    total = 0
    for mask in range(1, 1 << r):
        chosen = [parts[i] for i in range(r) if mask >> i & 1]
        size = len(chosen)
        lam = pyramid_over(cayley_polytope(chosen))
        total += (-1) ** (n + size) * lam.normalized_volume()
    return total


def chi_complete_intersection(k, degrees):
    """chi of a general complete intersection of hypersurfaces of the given
    degrees in P^k: [H^k] (1 + H)^(k+1) prod_d d H/(1 + d H) (Hirzebruch,
    "Topological methods in algebraic geometry", 1966), on ints truncated
    at H^k; 0 when there are more than k hypersurfaces."""
    c = [math.comb(k + 1, j) for j in range(k + 1)]
    for d in degrees:
        for j in range(1, k + 1):  # divide by 1 + d H
            c[j] -= d * c[j - 1]
        c = [0] + [d * x for x in c[:k]]  # times d H
    return c[k]


def chi_cover_by_strata(n, degrees):
    """chi(Y) of the double cover of P^n branched along r general
    hypersurfaces of the given degrees and the n + 1 coordinate hyperplanes:
    2 chi(P^n) - chi(B), with chi(B) of their union B by inclusion-exclusion
    over its components.  The stratum of t hyperplanes (t <= n) and the
    hypersurfaces of a set S is a complete intersection in P^(n - t)
    (``chi_complete_intersection``); the n + 1 hyperplanes meet nowhere.
    Sets S with the same degrees give the same stratum, so the sum runs over
    the sub-multisets of the degrees, each weighted by the number of sets it
    stands for, a product of binomials, and skips those with more than n - t
    degrees, whose strata are empty.  No polytope is read."""
    degree_counts = sorted(collections.Counter(degrees).items())
    chi_B = 0
    for t in range(n + 1):
        for picks in itertools.product(*(range(min(r, n - t) + 1) for _, r in degree_counts)):
            j = sum(picks)
            if t + j and j <= n - t:
                S = [d for (d, _), a in zip(degree_counts, picks) for _ in range(a)]
                ways = math.comb(n + 1, t) * math.prod(
                    math.comb(r, a) for (_, r), a in zip(degree_counts, picks)
                )
                chi_B += (-1) ** (t + j + 1) * ways * chi_complete_intersection(n - t, S)
    return 2 * (n + 1) - chi_B


def euler_snc_union_oracle(chi_X, strata):
    """Inclusion–exclusion cross-check: chi(D) of an SNC union and chi(Y).

    ``strata`` maps frozensets (or tuples) of component labels to the Euler
    characteristic of the corresponding intersection; empty intersections
    must be listed with value 0.  Returns ``(chi_D, chi_Y)`` with
    chi(Y) = 2*chi(X) - chi(D).
    """
    table = {}
    for key, value in strata.items():
        if isinstance(key, (str, int)):
            key = (key,)
        table[frozenset(key)] = int(value)
    components = sorted({c for key in table for c in key}, key=str)
    if not components:
        return 0, 2 * chi_X
    missing = []
    r = len(components)
    chi_D = 0
    for mask in range(1, 1 << r):
        subset = frozenset(components[i] for i in range(r) if mask >> i & 1)
        if subset not in table:
            missing.append("∩".join(str(c) for c in sorted(subset, key=str)))
            continue
        chi_D += (-1) ** (len(subset) + 1) * table[subset]
    if missing:
        raise FracmirrorError(
            "strata table is missing intersections: " + ", ".join(sorted(missing))
        )
    return chi_D, 2 * chi_X - chi_D


def rising(a, k):
    """Rising factorial a (a+1) ... (a+k-1) as an exact Fraction."""
    a = Fraction(a)
    out = Fraction(1)
    for m in range(k):
        out *= a + m
    return out


class EpsPoly:
    """Element of Q[eps]/(eps^m) as its coefficients (c0, ..., c_(m-1)): the
    arithmetic of the eps-loops and of the cohomology pairing below."""

    def __init__(self, m, coeffs=()):
        m = _as_int(m, "nilpotency order m")
        c = [Fraction(x) for x in coeffs][:m]
        self.m, self.c = m, tuple(c + [Fraction(0)] * (m - len(c)))

    @classmethod
    def constant(cls, m, value):
        return cls(m, (value,))

    @classmethod
    def eps(cls, m, power=1):
        return cls(m, (0,) * power + (1,))

    def coeff(self, k):
        return self.c[k] if 0 <= k < self.m else 0

    @property
    def is_zero(self):
        return not any(self.c)

    def _of(self, x):
        if not isinstance(x, EpsPoly):
            return EpsPoly.constant(self.m, x)
        if x.m != self.m:
            raise ValueError("EpsPoly operands have different nilpotency orders")
        return x

    def __add__(self, other):
        return EpsPoly(self.m, map(operator.add, self.c, self._of(other).c))

    def __sub__(self, other):
        return EpsPoly(self.m, map(operator.sub, self.c, self._of(other).c))

    def __mul__(self, other):
        a, b = self.c, self._of(other).c
        return EpsPoly(self.m, [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(self.m)])

    def invert(self):
        if not self.c[0]:
            raise FracmirrorError("EpsPoly with zero constant term is not invertible")
        out = [1 / self.c[0]]
        for n in range(1, self.m):
            out.append(-out[0] * sum(self.c[k] * out[n - k] for k in range(1, n + 1)))
        return EpsPoly(self.m, out)

    def __truediv__(self, other):
        return self * self._of(other).invert()

    def __eq__(self, other):
        other = other if isinstance(other, EpsPoly) else EpsPoly.constant(self.m, other)
        return (self.m, self.c) == (other.m, other.c)

    def __hash__(self):
        # a constant equals its c0 (see __eq__), so it must hash like it
        return hash(self.c[0]) if not any(self.c[1:]) else hash((self.m, self.c))


def eps_slices(coeffs, N):
    """The eps-slices of sum_n coeffs[n] z^n, EpsPoly coefficients of one
    order m: a tuple of m RationalSeries of order N, as
    ``gkz.hypergeometric_series`` returns them."""
    return tuple(RationalSeries([x.c[k] for x in coeffs], N) for k in range(coeffs[0].m))


def slices_of(coeffs):
    """The ``gkz.Slices`` of sum_n coeffs[n] z^n, EpsPoly coefficients of one
    order m, handed over by order as the kernel does: each order's numerators
    over the lcm of its denominators."""
    orders = []
    for x in coeffs:
        E = math.lcm(*(c.denominator for c in x.c))
        orders.append(([c.numerator * (E // c.denominator) for c in x.c], E))
    return Slices(orders)


def hypergeometric_term_by_term(num, den, m, N, scale=1):
    """``gkz.hypergeometric_series`` by EpsPoly arithmetic, one order at a time,
    on any lists of factors (a, k) (see ``kernel_factors``).

    c_n = c_(n-1) * P_n / Q_n, with P_n and Q_n the linear factors
    (a + j + k eps), j = k(n-1)..kn-1, that order n adds for each pair (a, k)
    of ``num`` and ``den``, multiplied out over Fraction bases; each order is
    one EpsPoly product and one EpsPoly division, and coefficient n is
    c_n scale^n.
    """

    def new_factors(factors, n):
        p = [1] + [0] * (m - 1)
        for a, k in factors:
            for j in range(k * (n - 1), k * n):
                for i in range(m - 1, 0, -1):
                    p[i] = (a + j) * p[i] + k * p[i - 1]
                p[0] *= a + j
        return EpsPoly(m, p)

    c = EpsPoly.constant(m, 1)
    coeffs = [c]
    for n in range(1, N + 1):
        c = c * new_factors(num, n) / new_factors(den, n)
        coeffs.append(c * scale**n)
    return eps_slices(coeffs, N)


def kernel_factors(ell, alpha=None):
    """The factors (a, k) of the GKZ series of a kernel vector, read off the
    exponents alpha (default -1/2 on each negative entry, 0 elsewhere):
    (-alpha_e, -l_e) over each negative entry and (1 + alpha_e, l_e) over each
    positive one: the arguments of the Gamma factors of the GKZ series."""
    if alpha is None:
        alpha = [Fraction(-1, 2) if le < 0 else 0 for le in ell]
    num = [(-a, -le) for le, a in zip(ell, alpha) if le < 0]
    return num, [(1 + a, le) for le, a in zip(ell, alpha) if le > 0]


def i_function_by_weights(num_weights, den_weights, m, N):
    """``cohom.i_function_untwisted`` on the weights of
    ``cohom.i_weights_from_kernel``, with every weight its own factor:
    (1, w_a) over (1, u_b) at scale 1, so a weight pair 2k over k multiplies
    3k linear factors per order, by ``hypergeometric_term_by_term``."""
    return hypergeometric_term_by_term(
        [(1, w) for w in num_weights], [(1, u) for u in den_weights], m, N
    )


def box_annihilation_check(ell, alpha, N, series=None):
    """Verify the two-term box-operator recurrence on a series (exactly).

    With F(t) the product over positive kernel entries of
    prod_(m=0)^(l_e - 1) (l_e t - m) and G(t) the matching product over
    negative entries of prod_(m=0)^(k_e - 1) (k_e t - alpha_e + m), the
    solution satisfies F(n) c_n = G(n-1) c_(n-1).  Defaults to checking
    the holomorphic solution, ``deformed_solution``'s eps^0 slice; pass
    ``series`` to test another candidate.
    """
    if series is None:
        series = deformed_solution(ell, N, 1)[0]
    N = min(N, series.N)

    def F(t):
        out = Fraction(1)
        for le, _ae in zip(ell, alpha):
            if le > 0:
                for m in range(le):
                    out *= Fraction(le) * t - m
        return out

    def G(t):
        out = Fraction(1)
        for le, ae in zip(ell, alpha):
            if le < 0:
                k = -le
                for m in range(k):
                    out *= Fraction(k) * t + (-Fraction(ae)) + m
        return out

    for n in range(1, N + 1):
        if series.coeff(n) * F(n) != series.coeff(n - 1) * G(n - 1):
            return False
    return True


def gkz_solution_terms(gkz, cutoff):
    """Formal multiparameter solution terms with kernel entries |l_e| <= cutoff.

    Enumerates lattice vectors l in ker A reachable from the stored basis
    with combination coefficients bounded by the cutoff, and returns the
    sorted list of (l, coefficient) with coefficient
    prod_e Gamma(alpha_e + 1)/Gamma(alpha_e + l_e + 1) as an exact rational
    (zero where the Gamma ratio hits a pole).
    """

    def term_coeff(vec):
        c = Fraction(1)
        for le, ae in zip(vec, gkz.alpha):
            ae = Fraction(ae)
            if le >= 0:
                denom = rising(ae + 1, le)
                if denom == 0:
                    return Fraction(0)
                c /= denom
            else:
                c *= rising(ae + le + 1, -le)
        return c

    k = len(gkz.kernel)
    out = []
    for combo in itertools.product(range(-cutoff, cutoff + 1), repeat=k):
        vec = tuple(
            sum(c * gkz.kernel[v][e] for v, c in enumerate(combo))
            for e in range(len(gkz.alpha))
        )
        if any(abs(x) > cutoff for x in vec):
            continue
        out.append((vec, term_coeff(vec)))
    out.sort(key=lambda t: t[0])
    return out


def _kernel_line(rows, k):
    """A nonzero v in Q^k with r·v = 0 for each of the k − 1 ``rows``, or None
    when they have rank below k − 1 (Gauss–Jordan over Fraction)."""
    A = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(k):
        t = len(pivots)
        i = next((i for i in range(t, len(A)) if A[i][col] != 0), None)
        if i is None:
            continue
        A[t], A[i] = A[i], A[t]
        A[t] = [x / A[t][col] for x in A[t]]
        for j in range(len(A)):
            if j != t and A[j][col] != 0:
                f = A[j][col]
                A[j] = [x - f * y for x, y in zip(A[j], A[t])]
        pivots.append(col)
    if len(pivots) != k - 1:
        return None
    free = next(c for c in range(k) if c not in pivots)
    v = [Fraction(0)] * k
    v[free] = Fraction(1)
    for t, col in enumerate(pivots):
        v[col] = -A[t][free]
    return v


def extreme_rays_by_subsets(rows):
    """Lex-sorted primitive extreme rays of the pointed cone {y : r·y >= 0}.

    An extreme ray spans the kernel of k − 1 of the rows of rank k − 1; each
    such subset gives a kernel line ±v, and a sign is kept when no row is
    negative on it.  Shares no code with ``polytope._dd_extreme_rays``.
    """
    k = len(rows[0])
    rows = list(dict.fromkeys(tuple(r) for r in rows if any(r)))  # same cone
    rays = set()
    for sub in itertools.combinations(rows, k - 1):
        v = _kernel_line(sub, k)
        if v is None:
            continue
        scale = math.lcm(*(x.denominator for x in v))
        w = [int(x * scale) for x in v]
        g = math.gcd(*w)
        for sign in (1, -1):
            ray = tuple(sign * x // g for x in w)
            if all(sum(a * b for a, b in zip(r, ray)) >= 0 for r in rows):
                rays.add(ray)
    return sorted(rays)


def hull_by_smith_and_rank(points, ambient_dim):
    """``(affine_dim, vertices, facets)`` of conv(points), the long way round.

    The affine dimension is the rank of the Smith form of the difference
    matrix, and the facets are the extreme rays of the homogenization cone
    by ``extreme_rays_by_subsets``, in the span coordinates y = U·(x − x0) of
    its transform U even when the points span the whole space; a point is a
    vertex iff the normals of the facets tight at it have rank a.  Facets
    are lifted back as (Σ gᵢ·U[i], c − w·x0) and lex-sorted.
    """
    pts = sorted({tuple(p) for p in points})
    x0 = pts[0]
    if len(pts) == 1 or ambient_dim == 0:
        return 0, (x0,), ()
    E = [[p[i] - x0[i] for p in pts[1:]] for i in range(ambient_dim)]

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    S, U, V = smith_normal_form(E)
    UE = [[dot(row, col) for col in zip(*E)] for row in U]
    assert [[dot(row, col) for col in zip(*V)] for row in UE] == S  # U·E·V = S
    a = sum(1 for i in range(min(ambient_dim, len(pts) - 1)) if S[i][i] != 0)
    if a == 0:
        return 0, (x0,), ()
    U = U[:a]
    span = [tuple(dot(row, [x - y for x, y in zip(p, x0)]) for row in U) for p in pts]
    rays = extreme_rays_by_subsets([y + (1,) for y in span])
    facets = [(r[:-1], r[-1]) for r in rays if any(r[:-1])]
    vertices = []
    for p, y in zip(pts, span):
        tight = [g for g, c in facets if dot(g, y) + c == 0]
        if tight and len(independent_rows(tight)) == a:
            vertices.append(p)
    lifted = []
    for g, c in facets:
        w = tuple(dot(g, col) for col in zip(*U))
        lifted.append((w, c - dot(w, x0)))
    return a, tuple(vertices), tuple(sorted(lifted))


def minkowski_sum_by_hulls(polys):
    """P₁ + … + P_r as pairwise hulls of the vertex sums."""
    total = polys[0]
    for P in polys[1:]:
        sums = {tuple(x + y for x, y in zip(p, q)) for p in total.vertices for q in P.vertices}
        total = LatticePolytope(sums)
    return total


def nef_diagnostics_by_hulls(delta, parts):
    """The diagnostics of ``validate_nef_partition`` past the partition checks.

    ``parts`` must partition the indices of delta's dual vertices.  The sum
    Δ₁ + … + Δ_r is built as pairwise Minkowski hulls and compared with
    delta, and ∇ = Σ conv({0} ∪ part) is built the same way and tested for
    reflexivity, whatever the first test found.
    """
    rays = delta.polar_dual().vertices
    try:
        parts_delta = [
            LatticePolytope(_part_vertices(delta, [rays[j] for j in p], rays))
            for p in parts
        ]
    except InvalidNefPartition as exc:
        return [str(exc)]
    issues = []
    if minkowski_sum_by_hulls(parts_delta) != delta:
        issues.append("Minkowski sum of part polytopes differs from delta")
    origin = (0,) * delta.ambient_dim
    nabla = minkowski_sum_by_hulls(
        [LatticePolytope([origin] + [rays[j] for j in p]) for p in parts]
    )
    if not nabla.is_reflexive():
        issues.append("nabla is not reflexive")
    return issues


def dual_side_by_hull(data):
    """(nabla_dual, nabla_parts, dual_parts) of a nef-partition by hulls:
    nabla^* is one DD hull of the union of the Delta_i vertices, each nabla_k
    the hull of 0 and the rays of part k in their span, and each vertex v
    of nabla^* joins the first Delta_i whose cut holds it,
    <v, rho> + [rho in I_i] >= 0 for every ray rho."""
    nabla_dual = LatticePolytope({v for V in data.part_vertices for v in V})
    origin = (0,) * data.delta.ambient_dim
    nabla_parts = tuple(
        SpanHull([origin] + [data.rays[j] for j in part]).vertices for part in data.ray_parts
    )
    cuts = [[(rho, j in part) for j, rho in enumerate(data.rays)] for part in data.ray_parts]
    dual_parts = [[] for _ in data.ray_parts]
    for idx, v in enumerate(nabla_dual.vertices):
        home = next(
            i for i, cut in enumerate(cuts)
            if all(sum(map(operator.mul, v, rho)) + c >= 0 for rho, c in cut)
        )
        dual_parts[home].append(idx)
    return nabla_dual, nabla_parts, dual_parts


def gkz_kernel_by_echelon(A):
    """A saturated basis of ker A: ``U[rank:]`` of the unimodular echelon of
    Aᵀ, each vector signed so its first nonzero entry is negative, as
    ``build_gkz`` finds it on a polytope that is not a simplex."""
    rank, U = linalg.echelon(list(zip(*A)))
    return tuple(tuple(-x for x in v) if next(x for x in v if x) > 0 else tuple(v) for v in U[rank:])


def holomorphic_kernel(op, N):
    """The unique series solution with constant term 1 of op(S) = 0.

    Requires the indicial polynomial (the theta-polynomial at z = 0) to be
    nonzero at every positive integer (true for normalized theta^d leading
    parts).  The operator is first divided by its leading constant.
    """
    lead = op.z_polys[-1][0]
    z_polys = [[c / lead for c in p] for p in op.z_polys]
    ind = [p[0] for p in z_polys]
    coeffs = [Fraction(1)]
    max_shift = max(len(p) for p in z_polys) - 1
    for n in range(1, N + 1):
        lead = sum(c * Fraction(n) ** k for k, c in enumerate(ind))
        if lead == 0:
            raise FracmirrorError(
                f"indicial polynomial vanishes at n = {n}; no unique solution"
            )
        acc = Fraction(0)
        for a in range(1, min(n, max_shift) + 1):
            for k, poly in enumerate(z_polys):
                if a < len(poly) and poly[a] != 0:
                    acc += poly[a] * Fraction(n - a) ** k * coeffs[n - a]
        coeffs.append(-acc / lead)
    return RationalSeries(coeffs, N)


def poly_mul(p, q):
    """The product of two coefficient lists, lowest degree first, over Fractions."""
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def theta_conjugate_by_fractions(ell, alpha):
    """``picard_fuchs.theta_conjugate`` with every linear factor multiplied
    out over Fractions: F(theta) - z G(theta) over the lead of F."""
    f_poly, f_roots, g_poly, g_roots = [Fraction(1)], [], [Fraction(1)], []
    for le, ae in zip(ell, alpha):
        ae = Fraction(ae)
        if le > 0:
            for m in range(le):
                f_poly = poly_mul(f_poly, [Fraction(-m), Fraction(le)])
                f_roots.append(Fraction(m, le))
        elif le < 0:
            k = -le
            for m in range(k):
                g_poly = poly_mul(g_poly, [-ae + m, Fraction(k)])
                g_roots.append((-ae + m) / k)
    d = len(f_poly) - 1
    lead = f_poly[d]
    return ThetaOperator(
        tuple((f_poly[k] / lead, -g_poly[k] / lead) for k in range(d + 1)),
        f_roots=tuple(f_roots),
        g_roots=tuple(g_roots),
    )


def log_prefactor_by_fractions(S):
    """z^rho * sum_j S[j] rho^j as its log parts in L = log z, for eps-slices
    S: part k is the tuple of its m rho-slices, the slices shifted up by k
    and each multiplied by the Fraction 1/k!."""
    S = tuple(S)
    m, zero = len(S), RationalSeries((), S[0].N)
    return [
        (zero,) * k + tuple(s * Fraction(1, math.factorial(k)) for s in S[: m - k])
        for k in range(m)
    ]


def slices_json_dict(S):
    """The dict that ``cohom.slices_json`` writes as text, for a sequence of
    m RationalSeries slices: one row of m coefficient strings per order."""
    cols = [_coeff_strs(s.A, s.D) for s in S]
    return {"N": S[0].N, "coeffs": [list(row) for row in zip(*cols)], "m": len(S)}


def _reduce_slice(s):
    """The coefficients A_n / D of s in lowest terms, one gcd each: the
    numerators, the denominators and the numerators' strings."""
    A, D = s.A, s.D
    if D == 1:
        return A, [1] * len(A), list(map(str, A))
    G = list(map(math.gcd, A, [D] * len(A)))
    A = [a // g for a, g in zip(A, G)]
    return A, [D // g for g in G], list(map(str, A))


def _over_factor(col, f):
    """``fraction_str`` of each a / (d f), for a ``_reduce_slice`` column of
    a / d in lowest terms and an int f > 0."""
    out = []
    for a, d, t in zip(*col):
        g = math.gcd(a, f)
        if g > 1:
            t = str(a // g)
        out.append(f"{t}/{d * f // g}" if d * f > g else t)
    return out


def b_series_json_dict(S):
    """The dict that ``cohom.b_series_json`` writes as text, for a sequence
    of m RationalSeries slices: log part k is k shared zero columns and then
    S[:m - k] over k!, each slice reduced once by a full gcd against its
    common denominator."""
    m, N = len(S), S[0].N
    cols, zero = [_reduce_slice(s) for s in S], ["0"] * (N + 1)
    parts, f = [], 1
    for k in range(m):
        f *= k or 1
        rows = zip(*[zero] * k, *(_over_factor(col, f) for col in cols[: m - k]))
        parts.append({"log_power": k, "N": N, "coeffs": [list(r) for r in rows], "m": m})
    return {"N": N, "log_degree": m - 1, "parts": parts}


def b_series_json_by_columns(S):
    """``cohom.b_series_json`` formatting each nonzero column afresh: log
    part k is k shared zero columns and the slices S[:m - k], each
    coefficient written over D k! with one full gcd."""
    S = tuple(S)
    m, N = len(S), S[0].N
    parts = []
    for k in range(m):
        f = math.factorial(k)
        cols = [["0"] * (N + 1)] * k + [_coeff_strs(s.A, s.D * f) for s in S[: m - k]]
        rows = [list(row) for row in zip(*cols)]
        parts.append({"log_power": k, "N": N, "coeffs": rows, "m": m})
    return {"N": N, "log_degree": m - 1, "parts": parts}


def theta_log(parts):
    """theta = z d/dz on sum_k parts[k] L^k, L = log z:
    theta(L^k S) = k L^(k-1) S + L^k theta(S)."""
    after = parts[1:] + [parts[0] * 0]
    return [p.theta() + q * (k + 1) for k, (p, q) in enumerate(zip(parts, after))]


def apply(op, f):
    """A theta-operator applied to f, a RationalSeries or the list of log
    parts of sum_k f[k] L^k; returns the list of log parts of the result."""
    if isinstance(f, RationalSeries):
        f = [f]
    if not (isinstance(f, list) and f and all(isinstance(p, RationalSeries) for p in f)):
        raise TypeError("operators act on series or lists of log parts")
    out, power = [p * 0 for p in f], f
    for k, poly in enumerate(op.z_polys):
        if k:
            power = theta_log(power)
        out = [o + sum((p.shift(j) * c for j, c in enumerate(poly) if c), p * 0) for o, p in zip(out, power)]
    return out


def apply_to_prefactored(op, S):
    """``apply(op, z^rho * sum_j S[j] rho^j)`` for eps-slices S, one rho-power
    at a time (op has rational coefficients): entry j is the list of log
    parts of the rho^j slice, whose L^k part is S[j - k] / k!."""
    parts = log_prefactor_by_fractions(S)
    return [apply(op, [part[j] for part in parts]) for j in range(len(S))]


def frobenius_residue(op, S, N=None):
    """apply(op, z^rho * deformed) for the eps-slices S of a deformed
    solution: it must collapse to a pure constant.

    For the operator conjugate to the kernel vector of the deformation the
    only surviving coefficient is the (z^0, log^0) entry, the indicial value
    F(rho) — rho^degree times a unit — returned as an EpsPoly.  Any other
    nonvanishing coefficient is reported with its (order, log-power).
    """
    m = len(S)
    if m != op.degree + 1:
        raise FracmirrorError("frobenius_residue needs nilpotency order = operator degree + 1")
    N = S[0].N if N is None else N
    out = apply_to_prefactored(op, [s.truncate(N) for s in S])
    bad = [
        (n, k)
        for parts in out
        for k, part in enumerate(parts)
        for n in range(N + 1)
        if (n, k) != (0, 0) and part.coeff(n)
    ]
    if bad:
        raise FracmirrorError(
            "operator does not annihilate the deformed solution; "
            f"nonvanishing coefficients at (order, log-power) = {bad[:5]}"
        )
    return EpsPoly(m, [parts[0].coeff(0) for parts in out])


def cohom_class(m, classes, label):
    """The divisor class ``label`` of Q[eps]/(eps^m), given ``classes`` as
    {label: multiple of eps}, as an EpsPoly."""
    return EpsPoly(m, (0, classes[label]))


def cohom_integral(m, scale, x):
    """The integral of x over the space: its eps^(m-1) coefficient times the
    integral scale."""
    if not isinstance(x, EpsPoly) or x.m != m:
        raise TypeError("integral takes an EpsPoly of matching order")
    return x.coeff(m - 1) * scale


def pairing_matrix(m, scale, basis):
    """Gram matrix of cohom_integral(b_i * b_j) over the given basis."""
    basis = [b if isinstance(b, EpsPoly) else EpsPoly.constant(m, b) for b in basis]
    return tuple(
        tuple(cohom_integral(m, scale, bi * bj) for bj in basis) for bi in basis
    )


def int_product(a, b, N):
    """The product of two integer q-series, as lists, through q^N."""
    return [sum(a[k] * b[n - k] for k in range(n + 1)) for n in range(N + 1)]


def eisenstein_e4(N):
    """E_4(q) = 1 + 240 sum_(n>=1) sigma_3(n) q^n through q^N, as ints."""
    return [1] + [240 * sum(d**3 for d in range(1, n + 1) if n % d == 0) for n in range(1, N + 1)]


def k3_mirror_map_by_j(N):
    """64/j(q) through q^N, as ints, for the K3 of theta^3 -
    27z(theta + 1/6)(theta + 1/2)(theta + 5/6) (Lian and Yau, "Mirror maps,
    modular relations and hypergeometric series I", 1995): 1/j = Delta/E_4^3
    with Delta = q prod_(n>=1) (1 - q^n)^24."""
    eta24 = [1] + [0] * N
    for n in range(1, N + 1):
        for _ in range(24):
            for k in range(N, n - 1, -1):
                eta24[k] -= eta24[k - n]
    e4 = eisenstein_e4(N)
    cube = int_product(int_product(e4, e4, N), e4, N)
    return [0] + [64 * x for x in int_product(eta24, int_inverse(cube, N), N - 1)]


def int_inverse(a, N):
    """1/a through q^N, as ints, for an integer q-series a with a[0] = 1."""
    inverse = [1] + [0] * N
    for n in range(1, N + 1):
        inverse[n] = -sum(a[k] * inverse[n - k] for k in range(1, n + 1))
    return inverse


def theta3(N):
    """theta_3(q) = sum_(n in Z) q^(n^2) through q^N, as ints."""
    return [1] + [2 if math.isqrt(n) ** 2 == n else 0 for n in range(1, N + 1)]


def theta2_fourth(N):
    """theta_2(q)^4 through q^N, as ints: theta_2 = sum_(n in Z) q^((n + 1/2)^2)
    = 2 q^(1/4) psi(q) with psi = sum_(n>=0) q^(n(n+1)), so theta_2^4 = 16 q psi^4."""
    # k = n(n + 1) exactly when 4k + 1 = (2n + 1)^2
    psi = [1 if math.isqrt(4 * k + 1) ** 2 == 4 * k + 1 else 0 for k in range(N + 1)]
    square = int_product(psi, psi, N)
    return [0] + [16 * x for x in int_product(square, square, N - 1)]


def gamma0_2_hauptmodul(N):
    """t = eta(2 tau)^24/eta(tau)^24 = q prod_(n>=1) (1 + q^n)^24 through q^N,
    as ints: the Hauptmodul of Gamma_0(2)."""
    prod = [1] + [0] * N
    for n in range(1, N + 1):
        for _ in range(24):
            for k in range(N, n - 1, -1):
                prod[k] += prod[k - n]
    return [0] + prod[:N]
