"""Exact integer linear algebra on lists of Python ints.

A matrix is a sequence of equal-length rows of ints (``errors._as_ints``: a
float raises TypeError, never truncated); results are lists of rows of Python
ints, so nothing ever overflows.  ``echelon`` triangularizes by unimodular 2×2
gcd row steps; its transform gives saturated kernels.  ``row_basis`` is one
fraction-free Gauss–Jordan elimination (Bareiss 1968) of the rows taken as
columns: it finds their lex-first basis S and a transform E with
S·Eᵀ = d·I, the seed of a double-description pass.  No rational is formed.
"""

import operator

from .errors import _as_ints

__all__ = [
    "exgcd",
    "row_basis",
    "echelon",
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


def row_basis(M):
    """The lex-first basis of the rows of M and its transform: ``(idx, d, E)``.

    One fraction-free Gauss–Jordan elimination of [Mᵀ | I_k] with pivot
    columns chosen left to right (Bareiss, Math. Comp. 1968; Cohen, *A Course
    in Computational Algebraic Number Theory*, §2.2), keeping only the k×k
    transform E.  Row i of M becomes the column E·M[i] only when the scan
    reaches it, and the scan stops at the k-th pivot.  ``idx`` lists the rows
    outside the span of the rows before them.  With S = [M[i] for i in idx]
    and r = len(idx), S·E[:r]ᵀ = d·I and E[r:] vanishes on every row of M;
    so when the rows span R^k, row j of E signed by d is tight on every row
    of S but ``idx[j]``, and positive on that one.
    """
    k = len(M[0]) if len(M) else 0
    E = [[int(i == j) for j in range(k)] for i in range(k)]
    idx = []
    d = 1
    for j, row in enumerate(M):
        t = len(idx)
        if t == k:
            break
        row = _as_ints(row, "matrix entry")
        if len(row) != k:
            raise ValueError("matrix rows must have equal length")
        c = [sum(map(operator.mul, e, row)) for e in E]
        piv = next((i for i in range(t, k) if c[i]), None)
        if piv is None:
            continue
        if piv != t:
            E[t], E[piv] = E[piv], E[t]
            c[t], c[piv] = c[piv], c[t]
        p, pivot_row = c[t], E[t]
        for i in range(k):
            if i != t:
                f = c[i]
                E[i] = [(p * a - f * b) // d for a, b in zip(E[i], pivot_row)]
        d = p
        idx.append(j)
    return idx, d, E


def echelon(M):
    """Row echelon form of M reached by unimodular row steps: ``(r, U)``.

    U is unimodular, given as lists of Python ints, and rows r.. of U·M are
    zero, so r is the rank of M and ``U[r:]`` is a saturated basis of the
    lattice of integer v with v·M = 0.  Each column's pivot is the gcd of its
    entries at or below row r, brought up by 2×2 ``exgcd`` steps
    (x, y; −q, p) applied to the rows of both A and U (Cohen, *A Course in
    Computational Algebraic Number Theory*, §2.4).
    """
    A = [_as_ints(row, "matrix entry") for row in M]
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


smith_normal_form = det = None  # for perfbench/spans.py until ROADMAP item 5
