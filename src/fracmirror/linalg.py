"""Exact integer linear algebra on lists of Python ints.

A matrix is a sequence of equal-length rows; results are lists of rows of
Python ints, so nothing ever overflows.  Provides Smith normal form with its
unimodular transforms, saturated kernels and sublattice indices.  One
fraction-free Gauss–Jordan elimination (Bareiss 1968) lies behind ``det`` (on
M) and ``adjugate`` and ``inverse_unimodular`` (on [M | I]);
``independent_rows`` reduces rows fraction-free too.  No rational is formed.
"""

import math
from dataclasses import dataclass

__all__ = [
    "exgcd",
    "adjugate",
    "det",
    "independent_rows",
    "smith_normal_form",
    "inverse_unimodular",
    "SmithRelations",
    "smith_relations",
]


def _identity(k):
    return [[int(i == j) for j in range(k)] for i in range(k)]


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
    A = [[int(x) for x in row] for row in M]
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
        v = [int(x) for x in row]
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


def smith_normal_form(M):
    """Smith normal form.

    Returns (D, U, V) as lists of integer rows with U·M·V = D, U and V
    unimodular, D diagonal with nonnegative entries satisfying
    D[i][i] | D[i+1][i+1].
    """
    A = [[int(x) for x in row] for row in M]
    m = len(A)
    n = len(A[0]) if A else 0
    if any(len(row) != n for row in A):
        raise ValueError("matrix rows must have equal length")
    U = _identity(m)
    V = _identity(n)

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
                        g, x, y = exgcd(a, b)
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
                        g, x, y = exgcd(a, b)
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


def inverse_unimodular(U):
    """Exact inverse of an integer matrix with det +-1, as integer rows."""
    d, adj = adjugate(U)
    if abs(d) != 1:
        raise ValueError("matrix is not unimodular")
    return [[d * x for x in row] for row in adj]


@dataclass(frozen=True)
class SmithRelations:
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
