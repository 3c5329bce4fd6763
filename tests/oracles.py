"""Reference algorithms kept only to check the package against.

Each one is a slower, independent route to a result the package computes
another way; the tests compare the two.
"""

import math
from fractions import Fraction

from fracmirror.polytope import LatticePolytope


def reversion_by_composition(f):
    """Compositional inverse of ``f`` one coefficient at a time.

    T_1 = 1/c1, and T_k = -(1/c1) [q^k] f(T_1 q + ... + T_(k-1) q^(k-1)):
    N compositions of the whole series, O(N^4) ring operations.
    """
    inv1 = f.ring.invert(f.c[1])
    out = [f.ring.zero, inv1] + [f.ring.zero] * (f.N - 1)
    for k in range(2, f.N + 1):
        err = f.compose(f._raw(out, f.N)).coeff(k)
        out[k] = -(inv1 * err)
    return f._raw(out, f.N)


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
