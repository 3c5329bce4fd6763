"""Exact integer linear algebra: echelon transforms, kernels, unimodular solves,
and the one elimination that seeds a hull."""

import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmirror import linalg
from oracles import (
    adjugate,
    det,
    independent_rows,
    inverse_unimodular,
    smith_normal_form,
    smith_relations,
)
from test_polytope import random_unimodular


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
        assert det(M) == frac_det(M.tolist())
    # NumPy ints are integers; a float is refused, not truncated (was 2)
    assert det(np.array([[2, 1], [1, 3]], dtype=np.int64)) == 5
    with pytest.raises(TypeError):
        det([[2.5]])


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
        d, adj = adjugate(M)
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
        adjugate([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(TypeError):
        adjugate([[2.5, 0], [0, 1]])


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
        chosen = independent_rows(M)
        assert linalg.row_basis(M)[0] == chosen
        assert chosen == sorted(chosen)
        assert len(chosen) == np.linalg.matrix_rank(F)
        for i in range(rows):
            before = [c for c in chosen if c < i]
            gained = np.linalg.matrix_rank(F[before + [i]]) > len(before)
            assert gained == (i in chosen)
    with pytest.raises(TypeError):
        independent_rows([[1, 0], [0.5, 1]])
    with pytest.raises(TypeError):
        linalg.row_basis([[1, 0], [0.5, 1]])
    with pytest.raises(TypeError, match="matrix entry True is not an integer"):
        linalg.row_basis([[1, 0], [True, 1]])
    with pytest.raises(ValueError):
        linalg.row_basis([[1, 0], [1]])


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


@st.composite
def _row_lists(draw):
    """Up to 9 rows in Z^k, k <= 6, each drawn at random or as a repeat, a
    combination of two earlier rows or zero, so most lists are rank-deficient."""
    k = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(1, 9))):
        kind = draw(st.sampled_from(("random", "repeat", "combination", "zero"))) if rows else "random"
        if kind == "random":
            row = draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k))
        elif kind == "repeat":
            row = draw(st.sampled_from(rows))
        elif kind == "combination":
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            f, g = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            row = [f * x + g * y for x, y in zip(u, v)]
        else:
            row = [0] * k
        rows.append(list(row))
    return rows


@settings(max_examples=400, deadline=None)
@given(_row_lists())
def test_row_basis_matches_oracles(M):
    # the lex-first basis of independent_rows; S·E[:r]ᵀ = d·I and E[r:]
    # vanishes on every row; at full rank E is adj(S)ᵀ up to the sign of d
    idx, d, E = linalg.row_basis(M)
    assert idx == independent_rows(M)
    k, r = len(M[0]), len(idx)
    assert all(type(x) is int for e in E for x in e) and len(E) == k
    S = [M[i] for i in idx]
    assert [[_dot(s, e) for e in E] for s in S] == [[d * (i == j) for j in range(k)] for i in range(r)]
    assert all(_dot(row, e) == 0 for row in M for e in E[r:])
    if r == k:
        D, adj = adjugate(S)
        assert d in (D, -D)
        assert E == [[d // D * x for x in col] for col in zip(*adj)]


def test_smith_normal_form_properties():
    rng = random.Random(37)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        M = rand_matrix(rng, rows, cols)
        D, U, V = smith_normal_form(M)
        # lists of rows of Python ints, checked against an object-array product
        for R, shape in ((D, (rows, cols)), (U, (rows, rows)), (V, (cols, cols))):
            assert isinstance(R, list) and len(R) == shape[0]
            assert all(isinstance(row, list) and len(row) == shape[1] for row in R)
            assert all(type(x) is int for row in R for x in row)
        UMV = np.array(U, dtype=object) @ M @ np.array(V, dtype=object)
        assert UMV.tolist() == D
        assert abs(det(U)) == 1
        assert abs(det(V)) == 1
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
    with pytest.raises(TypeError):
        smith_normal_form([[2.5]])


def test_echelon_against_smith_oracle():
    # U is unimodular, U·M is in echelon form with rows r.. zero, r is the
    # Smith rank and U[r:] is a saturated kernel: the Smith form of the
    # kernel matrix has invariant factors 1; zero and rank-deficient
    # matrices included
    rng = random.Random(61)
    seen = {"zero": 0, "rank-deficient": 0, "kernel": 0}
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.1:
            M = [[0] * cols for _ in range(rows)]
        else:
            M = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
            for i in range(1, rows):
                if rng.random() < 0.4:  # a combination of earlier rows
                    j, k = rng.randrange(i), rng.randrange(i)
                    f, g = rng.randint(-2, 2), rng.randint(-2, 2)
                    M[i] = [f * x + g * y for x, y in zip(M[j], M[k])]
        r, U = linalg.echelon(M)
        assert isinstance(U, list) and len(U) == rows
        assert all(isinstance(row, list) and len(row) == rows for row in U)
        assert all(type(x) is int for row in U for x in row)
        assert abs(det(U)) == 1
        UM = [[sum(u * row[j] for u, row in zip(urow, M)) for j in range(cols)] for urow in U]
        assert all(x == 0 for row in UM[r:] for x in row)
        # rows ..r of U·M are in echelon form: their pivot columns increase
        pivots = [next(j for j, x in enumerate(row) if x) for row in UM[:r]]
        assert pivots == sorted(set(pivots))
        D, _, _ = smith_normal_form(M)
        assert r == sum(1 for i in range(min(rows, cols)) if D[i][i] != 0)
        if r < rows:
            D, _, _ = smith_normal_form(U[r:])
            assert all(D[i][i] == 1 for i in range(rows - r))
            seen["kernel"] += 1
        seen["zero"] += r == 0
        seen["rank-deficient"] += 0 < r < min(rows, cols)
    assert min(seen.values()) >= 15, seen


def test_echelon_refuses_floats_and_ragged_rows():
    with pytest.raises(TypeError):
        linalg.echelon([[1, 0], [0.5, 1]])
    with pytest.raises(TypeError, match="matrix entry False is not an integer"):
        linalg.echelon([[1, False], [0, 1]])
    with pytest.raises(ValueError):
        linalg.echelon([[1, 0], [1]])


def test_kernel_basis_annihilates_and_saturates():
    rng = random.Random(51)
    for _ in range(30):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        M = rand_matrix(rng, rows, cols, -4, 4)
        rel = smith_relations(M)
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
            D, _, _ = smith_normal_form(K)
            diag = [D[i][i] for i in range(min(K.shape))]
            assert all(d in (0, 1) for d in diag)


def test_inverse_unimodular():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(1, 4)
        M = np.array(random_unimodular(rng, n), dtype=object)
        W = inverse_unimodular(M)
        assert all(type(x) is int for row in W for x in row)
        assert (np.array(W, dtype=object) @ M == np.eye(n, dtype=object)).all()


def test_smith_relations_on_dependent_columns():
    # five vectors spanning a finite-index sublattice of Z^4 with a single
    # integral relation
    rhos = [(1, 1, -1, 1), (-1, 1, -1, 1), (1, -1, 1, 1), (-1, 1, 1, -1), (3, -5, -3, 1)]
    M = [[rhos[j][i] for j in range(5)] for i in range(4)]
    rel = smith_relations(M)
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
        assert len(linalg.row_basis(M)[0]) == expect
