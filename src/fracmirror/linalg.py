"""Exact integer linear algebra on lists of Python ints.

A matrix is a sequence of equal-length rows of Python or NumPy ints (a float
raises TypeError, never truncated); results are lists of rows of Python ints,
so nothing ever overflows.  ``echelon`` triangularizes by unimodular 2×2
gcd row steps; its transform gives lattice bases of affine spans and
saturated kernels.  One fraction-free Gauss–Jordan elimination (Bareiss
1968) lies behind ``det`` (on M) and ``adjugate`` and ``inverse_unimodular``
(on [M | I]); ``independent_rows`` reduces rows fraction-free too.  No
rational is formed.
"""

import math
import operator

__all__ = [
    "exgcd",
    "adjugate",
    "det",
    "independent_rows",
    "echelon",
    "inverse_unimodular",
]


def exgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _bareiss(M, augment=False):
    """Fraction-free Gauss–Jordan elimination of the square M, or of [M | I].

    Rows become ``(p·row − row[k]·pivot_row) // prev`` (p the new pivot, prev
    the last one), an exact division.  Returns ``(sign, p, rows)``: det M =
    sign·p, with sign that of the row swaps and p the last pivot, 0 when M is
    singular.
    """
    A = [[operator.index(x) for x in row] for row in M]
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("matrix must be square")
    if augment:
        A = [row + [int(i == j) for j in range(n)] for i, row in enumerate(A)]
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if A[i][k] != 0), None)
        if piv is None:
            return sign, 0, A
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        p, pivot_row = A[k][k], A[k]
        for i in range(n):
            if i != k:
                f = A[i][k]
                A[i] = [(p * a - f * b) // prev for a, b in zip(A[i], pivot_row)]
        prev = p
    return sign, prev, A


def adjugate(M):
    """``(det M, adj M)`` by the elimination of [M | I].

    ``adj M`` is a list of integer rows with M·adj = det·I, or None when M is
    singular.
    """
    sign, p, A = _bareiss(M, augment=True)
    if p == 0:
        return 0, None
    n = len(A)
    return sign * p, [[sign * x for x in row[n:]] for row in A]


def det(M):
    """Exact determinant of a square integer matrix, eliminating M alone."""
    sign, p, _ = _bareiss(M)
    return sign * p


def independent_rows(M):
    """Indices of the rows of M outside the span of the rows before them.

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


def echelon(M):
    """Row echelon form of M reached by unimodular row steps: ``(r, U)``.

    U is unimodular, given as lists of Python ints, and rows r.. of U·M are
    zero, so r is the rank of M and ``U[r:]`` is a saturated basis of the
    lattice of integer v with v·M = 0.  Each column's pivot is the gcd of its
    entries at or below row r, brought up by 2×2 ``exgcd`` steps applied to
    both A and U (Cohen, *A Course in Computational Algebraic Number Theory*,
    §2.4).
    """
    A = [[operator.index(x) for x in row] for row in M]
    m = len(A)
    n = len(A[0]) if A else 0
    if any(len(row) != n for row in A):
        raise ValueError("matrix rows must have equal length")
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    r = 0
    for j in range(n):
        if r == m:
            break
        for i in range(r + 1, m):
            a, b = A[r][j], A[i][j]
            if b:
                # (row r, row i) <- (x·row r + y·row i, −b/g·row r + a/g·row i)
                g, x, y = exgcd(a, b)
                p, q = a // g, b // g
                for R in (A, U):
                    R[r], R[i] = ([x * s + y * t for s, t in zip(R[r], R[i])],
                                  [p * t - q * s for s, t in zip(R[r], R[i])])
        r += A[r][j] != 0
    return r, U


def inverse_unimodular(U):
    """Exact inverse of an integer matrix with det +-1, as integer rows."""
    d, adj = adjugate(U)
    if abs(d) != 1:
        raise ValueError("matrix is not unimodular")
    return [[d * x for x in row] for row in adj]


smith_normal_form = None  # for perfbench/spans.py until ROADMAP item 5
