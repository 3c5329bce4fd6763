"""Exact integer linear algebra: Smith form, kernels, unimodular solves."""

import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from fracmirror import linalg


def rand_matrix(rng, rows, cols, lo=-6, hi=6):
    return np.array(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)],
        dtype=object,
    )


def frac_det(M):
    """Fraction-exact determinant by Gaussian elimination (test oracle)."""
    n = len(M)
    a = [[Fraction(int(x)) for x in row] for row in M]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def test_exgcd_identity():
    rng = random.Random(11)
    for _ in range(200):
        a, b = rng.randint(-500, 500), rng.randint(-500, 500)
        g, x, y = linalg.exgcd(a, b)
        assert a * x + b * y == g
        if a or b:
            assert g > 0 and a % g == 0 and b % g == 0
        else:
            assert g == 0


def test_det_matches_fraction_oracle():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 5)
        M = rand_matrix(rng, n, n)
        assert linalg.det(M) == frac_det(M.tolist())


def _seeded_square_matrices(rng, count):
    """Random square matrices with n <= 8: some singular (a row is a
    combination of two others), some needing row swaps (zero leading block)."""
    for t in range(count):
        n = rng.randint(1, 8)
        M = rand_matrix(rng, n, n, -4, 4)
        if t % 3 == 1 and n >= 2:
            i, j, k = (rng.randrange(n) for _ in range(3))
            M[i] = rng.randint(-2, 2) * M[j] + rng.randint(-2, 2) * M[k]
        elif t % 3 == 2:
            for i in range(rng.randint(1, n)):
                M[i, : rng.randint(1, n)] = 0
        yield M


def test_adjugate_matches_fraction_and_sympy_oracles():
    rng = random.Random(61)
    singular = swapped = 0
    for M in _seeded_square_matrices(rng, 300):
        n = M.shape[0]
        d, adj = linalg.adjugate(M)
        assert d == frac_det(M.tolist())
        if d == 0:
            singular += 1
            assert adj is None
            continue
        swapped += M[0, 0] == 0
        A = np.array(adj, dtype=object)
        assert (M @ A == d * np.eye(n, dtype=int).astype(object)).all()
        assert (A @ M == d * np.eye(n, dtype=int).astype(object)).all()
        if n <= 5:
            assert A.tolist() == sympy.Matrix(M.tolist()).adjugate().tolist()
    assert singular >= 50 and swapped >= 20
    with pytest.raises(ValueError, match="square"):
        linalg.adjugate([[1, 2, 3], [4, 5, 6]])


def test_independent_rows_span_in_order():
    rng = random.Random(67)
    for _ in range(120):
        rows, cols = rng.randint(1, 7), rng.randint(1, 6)
        M = rand_matrix(rng, rows, cols, -3, 3)
        for i in range(1, rows):
            if rng.random() < 0.4:  # a combination of earlier rows
                j, k = rng.randrange(i), rng.randrange(i)
                M[i] = rng.randint(-2, 2) * M[j] + rng.randint(-2, 2) * M[k]
        F = np.array(M.tolist(), dtype=float)
        chosen = linalg.independent_rows(M)
        assert chosen == sorted(chosen)
        assert len(chosen) == np.linalg.matrix_rank(F)
        for i in range(rows):
            before = [c for c in chosen if c < i]
            gained = np.linalg.matrix_rank(F[before + [i]]) > len(before)
            assert gained == (i in chosen)


def test_smith_normal_form_properties():
    rng = random.Random(37)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        M = rand_matrix(rng, rows, cols)
        D, U, V = linalg.smith_normal_form(M)
        # lists of rows of Python ints, checked against an object-array product
        for R, shape in ((D, (rows, cols)), (U, (rows, rows)), (V, (cols, cols))):
            assert isinstance(R, list) and len(R) == shape[0]
            assert all(isinstance(row, list) and len(row) == shape[1] for row in R)
            assert all(type(x) is int for row in R for x in row)
        UMV = np.array(U, dtype=object) @ M @ np.array(V, dtype=object)
        assert UMV.tolist() == D
        assert abs(linalg.det(U)) == 1
        assert abs(linalg.det(V)) == 1
        diag = [D[i][i] for i in range(min(rows, cols))]
        # off-diagonal zero, nonnegative divisibility chain
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert D[i][j] == 0
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if b != 0:
                assert a != 0 and b % a == 0


def test_kernel_basis_annihilates_and_saturates():
    rng = random.Random(51)
    for _ in range(30):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        M = rand_matrix(rng, rows, cols, -4, 4)
        rel = linalg.smith_relations(M)
        for v in rel.kernel:
            assert all(
                sum(int(M[i, j]) * v[j] for j in range(cols)) == 0
                for i in range(rows)
            )
        assert len(rel.kernel) == cols - rel.rank
        # saturated: the kernel basis extends to a basis of Z^cols, i.e. the
        # Smith form of the kernel matrix has all invariant factors 1
        if rel.kernel:
            K = np.array(rel.kernel, dtype=object).T
            D, _, _ = linalg.smith_normal_form(K)
            diag = [D[i][i] for i in range(min(K.shape))]
            assert all(d in (0, 1) for d in diag)


def test_inverse_unimodular():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(1, 4)
        # build a unimodular matrix from row operations on the identity
        M = np.eye(n, dtype=object).astype(object)
        M = np.array([[int(v) for v in row] for row in M], dtype=object)
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                M[i] = M[i] + rng.randint(-2, 2) * M[j]
        W = linalg.inverse_unimodular(M)
        assert all(type(x) is int for row in W for x in row)
        assert (np.array(W, dtype=object) @ M == np.eye(n, dtype=object)).all()


def test_smith_relations_on_dependent_columns():
    # five vectors spanning a finite-index sublattice of Z^4 with a single
    # integral relation
    rhos = [(1, 1, -1, 1), (-1, 1, -1, 1), (1, -1, 1, 1), (-1, 1, 1, -1), (3, -5, -3, 1)]
    M = [[rhos[j][i] for j in range(5)] for i in range(4)]
    rel = linalg.smith_relations(M)
    assert rel.rank == 4
    assert rel.index == 8
    assert len(rel.kernel) == 1
    k = rel.kernel[0]
    if k[3] < 0:
        k = tuple(-x for x in k)
    assert k == (1, 1, 1, 4, 1)


def test_rank_matches_numpy_on_random_rationals():
    rng = random.Random(13)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        M = rand_matrix(rng, rows, cols, -3, 3)
        expect = np.linalg.matrix_rank(np.array(M.tolist(), dtype=float))
        assert len(linalg.independent_rows(M)) == expect
