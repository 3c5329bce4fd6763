"""Exact integer linear algebra on numpy object arrays.

Matrices are 2-D numpy arrays with ``dtype=object`` holding Python ints, so
nothing ever overflows.  Provides Smith normal form with its unimodular
transforms, saturated kernel bases, sublattice indices, exact determinants,
and integer linear solves -- the workhorse layer for the polytope engine.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "as_int_matrix",
    "exgcd",
    "det",
    "rank",
    "smith_normal_form",
    "kernel_basis",
    "solve_integer",
    "rational_inverse",
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


def det(M):
    """Exact determinant via Bareiss fraction-free elimination."""
    A = [[int(x) for x in row] for row in M]
    n = len(A)
    if n == 0:
        return 1
    if any(len(row) != n for row in A):
        raise ValueError("determinant requires a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def rank(M):
    """Rank over Q, by fraction-free elimination."""
    A = [[int(x) for x in row] for row in M]
    m = len(A)
    n = len(A[0]) if m else 0
    r = 0
    col = 0
    while r < m and col < n:
        piv = next((i for i in range(r, m) if A[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        A[r], A[piv] = A[piv], A[r]
        for i in range(r + 1, m):
            if A[i][col] != 0:
                a, b = A[r][col], A[i][col]
                A[i] = [a * A[i][j] - b * A[r][j] for j in range(n)]
        r += 1
        col += 1
    return r


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


def kernel_basis(M):
    """Basis of the saturated right kernel {x : M x = 0}, as int tuples."""
    A = as_int_matrix(M)
    D, U, V = smith_normal_form(A)
    r = sum(1 for i in range(min(A.shape)) if D[i, i] != 0)
    n = A.shape[1]
    return tuple(tuple(int(x) for x in V[:, j]) for j in range(r, n))


def solve_integer(M, b):
    """One integer solution x of M x = b, or None if none exists."""
    A = as_int_matrix(M)
    D, U, V = smith_normal_form(A)
    m, n = A.shape
    c = U @ np.array([int(x) for x in b], dtype=object)
    r = sum(1 for i in range(min(m, n)) if D[i, i] != 0)
    y = np.zeros(n, dtype=object)
    for i in range(m):
        if i < r:
            if c[i] % D[i, i] != 0:
                return None
            y[i] = c[i] // D[i, i]
        elif c[i] != 0:
            return None
    x = V @ y
    return tuple(int(v) for v in x)


def rational_inverse(rows):
    """Exact inverse over Q of a square matrix, as lists of Fractions."""
    n = len(rows)
    aug = [[Fraction(rows[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def inverse_unimodular(U):
    """Exact inverse of an integer matrix with det +-1."""
    A = as_int_matrix(U)
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError("matrix must be square")
    out = np.zeros((n, n), dtype=object)
    for i, row in enumerate(rational_inverse(A.tolist())):
        for j, v in enumerate(row):
            if v.denominator != 1:
                raise ValueError("matrix is not unimodular")
            out[i, j] = int(v)
    return out


@dataclass(frozen=True)
class SmithRelations:
    """Smith data of an integer matrix: kernel, image index, invariant factors."""

    diagonal: tuple
    transform_left: tuple
    transform_right: tuple
    kernel: tuple
    rank: int
    index: int  # index of the column span inside its saturation


def smith_relations(M):
    """Kernel basis, saturation index, and Smith form of ``M``.

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
    to_tuple = lambda W: tuple(tuple(int(x) for x in row) for row in W)
    return SmithRelations(
        diagonal=tuple(int(D[i, i]) for i in range(min(A.shape))),
        transform_left=to_tuple(U),
        transform_right=to_tuple(V),
        kernel=kernel,
        rank=r,
        index=index,
    )
