"""Reference algorithms kept only to check the package against.

Each one is a slower, independent route to a result the package computes
another way; the tests compare the two.
"""

import itertools
import math
from fractions import Fraction

from fracmirror import linalg
from fracmirror.errors import FracmirrorError, InvalidNefPartition
from fracmirror.gkz import holo_solution
from fracmirror.nefpart import polytope_of_part
from fracmirror.polytope import LatticePolytope, _dd_extreme_rays
from fracmirror.series import EpsPoly, LogSeries, NilpotentSeries, RationalSeries


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


def nilpotent_product_term_by_term(a, b):
    """a * b over Q[eps]/(eps^m) by the schoolbook convolution of the EpsPoly
    coefficients, one EpsPoly product per term pair."""
    N = min(a.N, b.N)
    out = [EpsPoly(a.m)] * (N + 1)
    for i in range(N + 1):
        x = a.coeff(i)
        if x.is_zero:
            continue
        for j in range(N + 1 - i):
            y = b.coeff(j)
            if not y.is_zero:
                out[i + j] = out[i + j] + x * y
    return NilpotentSeries(a.m, out, N)


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


def scale_arg(f, s):
    """f(s*z)."""
    s = Fraction(s)
    return RationalSeries([x * s**n for n, x in enumerate(f.c)], f.N)


def matches(f, g, upto):
    """Coefficientwise equality of two series through order ``upto``."""
    return all(f.coeff(n) == g.coeff(n) for n in range(upto + 1))


def omega1_log(pair):
    """omega1 = omega0 * L + tau of a Frobenius pair, as a LogSeries in L = log z."""
    return LogSeries([pair.tau, pair.omega0])


def reversion_by_composition(f):
    """Compositional inverse of ``f`` one coefficient at a time.

    T_1 = 1/c1, and T_k = -(1/c1) [q^k] f(T_1 q + ... + T_(k-1) q^(k-1)):
    N compositions of the whole series, O(N^4) Fraction operations.
    """
    inv1 = 1 / f.c[1]
    out = [Fraction(0), inv1] + [Fraction(0)] * (f.N - 1)
    for k in range(2, f.N + 1):
        err = f.compose(RationalSeries(out, f.N)).coeff(k)
        out[k] = -inv1 * err
    return RationalSeries(out, f.N)


def lattice_transform(U, X):
    """Apply the integer matrix U (rows) to a polytope or a list of points."""
    rows = [tuple(int(x) for x in row) for row in U]

    def tf(p):
        return tuple(sum(a * b for a, b in zip(row, p)) for row in rows)

    if isinstance(X, LatticePolytope):
        return LatticePolytope([tf(v) for v in X.vertices], len(rows))
    return tuple(tf(tuple(p)) for p in X)


def ehrhart_polynomial(P):
    """Coefficients (c₀..c_a) with |kP ∩ Z^D| = Σ cᵢ kⁱ, as Fractions.

    Interpolated from the a+1 dilate counts |kP ∩ Z^D|, k = 0..a, by Newton
    forward differences; a!·c_a is the normalized volume.
    """
    a = P.affine_dim
    counts = [P.dilate_lattice_point_count(k) for k in range(a + 1)]
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
    return LatticePolytope(pts, n + r)


def pyramid_over(P):
    """Hull of P and the origin of its ambient space."""
    pts = list(P.vertices)
    pts.append(tuple([0] * P.ambient_dim))
    return LatticePolytope(pts, P.ambient_dim)


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


def hypergeometric_term_by_term(num, den, m, N):
    """``gkz.hypergeometric_series`` by EpsPoly arithmetic, one order at a time.

    c_n = c_(n-1) * P_n / Q_n, with P_n and Q_n the linear factors
    (a + j + k eps), j = k(n-1)..kn-1, that order n adds for each pair (a, k)
    of ``num`` and ``den``, multiplied out over Fraction bases; each order is
    one EpsPoly product and one EpsPoly division.
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
        coeffs.append(c)
    return NilpotentSeries(m, coeffs, N)


def box_annihilation_check(ell, alpha, N, series=None):
    """Verify the two-term box-operator recurrence on a series (exactly).

    With F(t) the product over positive kernel entries of
    prod_(m=0)^(l_e - 1) (l_e t - m) and G(t) the matching product over
    negative entries of prod_(m=0)^(k_e - 1) (k_e t - alpha_e + m), the
    solution satisfies F(n) c_n = G(n-1) c_(n-1).  Defaults to checking
    ``holo_solution``; pass ``series`` to test another candidate.
    """
    if series is None:
        series = holo_solution(ell, alpha, N)
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


def hull_by_smith_and_rank(points, ambient_dim):
    """``(affine_dim, vertices, facets)`` of conv(points), the long way round.

    The affine dimension is the rank of the Smith form of the difference
    matrix, and the hull runs in the span coordinates y = U·(x − x0) of its
    transform U even when the points span the whole space; a point is a
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

    S, U, V = linalg.smith_normal_form(E)
    UE = [[dot(row, col) for col in zip(*E)] for row in U]
    assert [[dot(row, col) for col in zip(*V)] for row in UE] == S  # U·E·V = S
    a = sum(1 for i in range(min(ambient_dim, len(pts) - 1)) if S[i][i] != 0)
    if a == 0:
        return 0, (x0,), ()
    U = U[:a]
    span = [tuple(dot(row, [x - y for x, y in zip(p, x0)]) for row in U) for p in pts]
    rays = _dd_extreme_rays([y + (1,) for y in span])
    facets = [(r[:-1], r[-1]) for r in rays if any(r[:-1])]
    vertices = []
    for p, y in zip(pts, span):
        tight = [g for g, c in facets if dot(g, y) + c == 0]
        if tight and len(linalg.independent_rows(tight)) == a:
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
        total = total + P
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
        parts_delta = [polytope_of_part(delta, [rays[j] for j in p], rays) for p in parts]
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


def holomorphic_kernel(op, N):
    """The unique series solution with constant term 1 of op(S) = 0.

    Requires the indicial polynomial to be nonzero at every positive
    integer (true for normalized theta^d leading parts).
    """
    op = op.normalized()
    ind = op.indicial()
    coeffs = [Fraction(1)]
    max_shift = max(len(p) for p in op.z_polys) - 1
    for n in range(1, N + 1):
        lead = sum(c * Fraction(n) ** k for k, c in enumerate(ind))
        if lead == 0:
            raise FracmirrorError(
                f"indicial polynomial vanishes at n = {n}; no unique solution"
            )
        acc = Fraction(0)
        for a in range(1, min(n, max_shift) + 1):
            for k, poly in enumerate(op.z_polys):
                if a < len(poly) and poly[a] != 0:
                    acc += poly[a] * Fraction(n - a) ** k * coeffs[n - a]
        coeffs.append(-acc / lead)
    return RationalSeries(coeffs, N)


def pairing_matrix(ring, basis):
    """Gram matrix of ring.integral(b_i * b_j) over the given basis."""
    basis = [b if isinstance(b, EpsPoly) else EpsPoly.constant(ring.m, b) for b in basis]
    return tuple(
        tuple(ring.integral(bi * bj) for bj in basis) for bi in basis
    )
