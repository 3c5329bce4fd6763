"""Exact integer linear algebra on numpy object arrays.

Matrices are 2-D numpy arrays with ``dtype=object`` holding Python ints, so
nothing ever overflows.  Provides Smith normal form with its unimodular
transforms, saturated kernels and sublattice indices.  One fraction-free
Gauss–Jordan elimination (Bareiss 1968) lies behind ``det`` (on M) and
``adjugate`` and ``inverse_unimodular`` (on [M | I]); ``independent_rows``
reduces rows fraction-free too.  No rational is formed.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "as_int_matrix",
    "exgcd",
    "adjugate",
    "det",
    "independent_rows",
    "smith_normal_form",
    "inverse_unimodular",
    "SmithRelations",
    "smith_relations",
]


def as_int_matrix(rows):
    """Copy ``rows`` into a 2-D object array of Python ints."""
    M = np.array([[int(x) for x in row] for row in rows], dtype=object)
    if M.ndim != 2:
        raise ValueError("matrix rows must have equal length")
    return M


def _identity(k):
    I = np.zeros((k, k), dtype=object)
    for i in range(k):
        I[i, i] = 1
    return I


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

    Returns (D, U, V) with U @ M @ V = D, U and V unimodular, D diagonal with
    nonnegative entries satisfying D[i,i] | D[i+1,i+1].
    """
    A = as_int_matrix(M)
    m, n = A.shape
    U = _identity(m)
    V = _identity(n)

    def clear_at(t):
        # Make A[t, t] the only nonzero entry in its row and column.
        while True:
            done = True
            for i in range(m):
                if i != t and A[i, t] != 0:
                    done = False
                    a, b = A[t, t], A[i, t]
                    if a != 0 and b % a == 0:
                        f = b // a
                        A[i, :] = A[i, :] - f * A[t, :]
                        U[i, :] = U[i, :] - f * U[t, :]
                    else:
                        g, x, y = exgcd(a, b)
                        rt = x * A[t, :] + y * A[i, :]
                        ri = (-(b // g)) * A[t, :] + (a // g) * A[i, :]
                        A[t, :], A[i, :] = rt, ri
                        ut = x * U[t, :] + y * U[i, :]
                        ui = (-(b // g)) * U[t, :] + (a // g) * U[i, :]
                        U[t, :], U[i, :] = ut, ui
            for j in range(n):
                if j != t and A[t, j] != 0:
                    done = False
                    a, b = A[t, t], A[t, j]
                    if a != 0 and b % a == 0:
                        f = b // a
                        A[:, j] = A[:, j] - f * A[:, t]
                        V[:, j] = V[:, j] - f * V[:, t]
                    else:
                        g, x, y = exgcd(a, b)
                        ct = x * A[:, t] + y * A[:, j]
                        cj = (-(b // g)) * A[:, t] + (a // g) * A[:, j]
                        A[:, t], A[:, j] = ct, cj
                        vt = x * V[:, t] + y * V[:, j]
                        vj = (-(b // g)) * V[:, t] + (a // g) * V[:, j]
                        V[:, t], V[:, j] = vt, vj
            if done:
                return

    t = 0
    while t < min(m, n):
        # smallest-magnitude pivot in the remaining block
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                a = A[i, j]
                if a != 0 and (best is None or abs(a) < best):
                    best = abs(a)
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            A[[t, pi], :] = A[[pi, t], :]
            U[[t, pi], :] = U[[pi, t], :]
        if pj != t:
            A[:, [t, pj]] = A[:, [pj, t]]
            V[:, [t, pj]] = V[:, [pj, t]]
        clear_at(t)
        t += 1

    r = t
    for i in range(r):
        if A[i, i] < 0:
            A[i, :] = -A[i, :]
            U[i, :] = -U[i, :]
    # enforce the divisibility chain
    i = 0
    while i < r - 1:
        if A[i + 1, i + 1] % A[i, i] != 0:
            A[:, i] = A[:, i] + A[:, i + 1]
            V[:, i] = V[:, i] + V[:, i + 1]
            clear_at(i)
            if A[i, i] < 0:
                A[i, :] = -A[i, :]
                U[i, :] = -U[i, :]
            i = max(i - 1, 0)
        else:
            i += 1
    return A, U, V


def inverse_unimodular(U):
    """Exact inverse of an integer matrix with det +-1."""
    d, adj = adjugate(U)
    if abs(d) != 1:
        raise ValueError("matrix is not unimodular")
    return np.array([[d * x for x in row] for row in adj], dtype=object)


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
    A = as_int_matrix(M)
    D, U, V = smith_normal_form(A)
    r = sum(1 for i in range(min(A.shape)) if D[i, i] != 0)
    n = A.shape[1]
    kernel = tuple(tuple(int(x) for x in V[:, j]) for j in range(r, n))
    index = 1
    for i in range(r):
        index *= int(D[i, i])
    return SmithRelations(kernel=kernel, rank=r, index=index)
