"""GKZ data assembly, kernel vectors, and the holomorphic solution."""

import math
from fractions import Fraction

import pytest

from fracmirror.errors import FracmirrorError
from fracmirror.gkz import (
    box_annihilation_check,
    build_gkz,
    gkz_solution_terms,
    holo_solution,
    hypergeometric_series,
    principal_kernel_vector,
    rising,
)
from fracmirror.nefpart import NefPartition
from fracmirror.polytope import LatticePolytope
from fracmirror.series import EpsPoly, RationalSeries


def test_rising_factorial():
    assert rising(Fraction(1, 2), 4) == Fraction(105, 16)
    assert rising(3, 0) == 1
    assert rising(-2, 3) == 0  # the walk crosses zero


# ------------------------------------------------------------- assembly


def test_quartic_matrix_matches_display(quartic):
    g = build_gkz(quartic)
    rows, beta = g.display_rows()
    assert rows == (
        (1, 1, 1, 1, 1),
        (0, 1, 0, 0, -1),
        (0, 0, 1, 0, -1),
        (0, 0, 0, 1, -1),
    )
    assert beta == (Fraction(-1, 2), 0, 0, 0)
    assert g.kernel == ((-4, 1, 1, 1, 1),)
    assert g.column_labels == ((0, 0), (0, 1), (0, 2), (0, 3), (0, 4))


def test_quartic_alpha_and_linear_identities(quartic):
    g = build_gkz(quartic)
    assert g.alpha == (Fraction(-1, 2), 0, 0, 0, 0)
    # A·alpha = beta and A·ell = 0, exactly
    for i, row in enumerate(g.A):
        assert sum(Fraction(a) * x for a, x in zip(row, g.alpha)) == g.beta[i]
        for ell in g.kernel:
            assert sum(a * x for a, x in zip(row, ell)) == 0


def test_distinguished_columns_are_kronecker(eight_hyperplanes):
    g = build_gkz(eight_hyperplanes)
    n, r = g.n, g.r
    assert (n, r) == (3, 4)
    assert len(g.A) == n + r and len(g.A[0]) == 8
    for e, (i, j) in enumerate(g.column_labels):
        col = tuple(g.A[row][e] for row in range(n + r))
        if j == 0:
            assert col[:n] == (0,) * n
        assert col[n:] == tuple(1 if t == i else 0 for t in range(r))


def test_eight_hyperplane_kernel(eight_hyperplanes):
    g = build_gkz(eight_hyperplanes)
    assert principal_kernel_vector(g) == (-1, 1, -1, 1, -1, 1, -1, 1)


def test_k3_kernel(k3):
    g = build_gkz(k3)
    assert principal_kernel_vector(g) == (-3, 1, 1, 1)


def test_three_part_hexagon_is_multiparameter():
    hexd = LatticePolytope([(1, 0), (0, 1), (-1, 0), (0, -1), (1, -1), (-1, 1)])
    data = NefPartition(hexd, [[0, 1], [2, 4], [3, 5]])
    g = build_gkz(data)
    assert len(g.A) == 5 and len(g.A[0]) == 9
    assert g.beta == (0, 0, Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2))
    assert len(g.kernel) == 4
    with pytest.raises(FracmirrorError, match="multiparameter moduli unsupported"):
        principal_kernel_vector(g)


def test_matrix_invariant_under_part_reordering(quartic):
    # permuting vertex indices inside a part leaves everything invariant
    data2 = NefPartition(quartic.delta, [[3, 1, 0, 2]])
    g = build_gkz(quartic)
    g2 = build_gkz(data2)
    assert g2.A == g.A and g2.kernel == g.kernel


def test_principal_vector_sign_convention(quartic):
    g = build_gkz(quartic)
    ell = principal_kernel_vector(g)
    dist = [ell[e] for e, lab in enumerate(g.column_labels) if lab[1] == 0]
    assert all(x <= 0 for x in dist)


# ------------------------------------------------------------- solutions


def test_holo_solution_quartic_leading_terms(quartic):
    g = build_gkz(quartic)
    ell = principal_kernel_vector(g)
    s = holo_solution(ell, g.alpha, 4)
    assert s.coeff(0) == 1
    assert s.coeff(1) == Fraction(105, 16)
    assert s.coeff(2) == Fraction(2027025, 4096)
    # closed form: rising(1/2, 4n) / n!^4
    for n in range(5):
        assert s.coeff(n) == rising(Fraction(1, 2), 4 * n) / Fraction(
            math.factorial(n) ** 4
        )


def test_holo_solution_eight_hyperplanes(eight_hyperplanes):
    g = build_gkz(eight_hyperplanes)
    ell = principal_kernel_vector(g)
    s = holo_solution(ell, g.alpha, 3)
    assert s.coeff(1) == Fraction(1, 16)
    for n in range(4):
        assert s.coeff(n) == (rising(Fraction(1, 2), n) / rising(1, n)) ** 4


@pytest.mark.parametrize("m", [1, 2, 4])
def test_hypergeometric_series_matches_rebuilt_products(m):
    # Reference: every c_n rebuilt from all of its linear factors.
    num = [(Fraction(1, 2), 3), (Fraction(1, 3), 1)]
    den = [(Fraction(1), 2), (Fraction(5, 4), 1), (Fraction(1), 1)]

    def product(factors, n):
        out = EpsPoly.constant(m, 1)
        for a, k in factors:
            for j in range(k * n):
                out = out * EpsPoly(m, (a + j, k))
        return out

    s = hypergeometric_series(num, den, m, 7)
    assert s.m == m and s.N == 7
    for n in range(8):
        assert s.coeff(n) == product(num, n) / product(den, n)


def test_holo_solution_rejects_integer_exponent_negatives():
    with pytest.raises(FracmirrorError, match="unsupported shape"):
        holo_solution((-2, 1, 1), (0, 0, 0), 3)


def test_box_annihilation_quartic(quartic):
    g = build_gkz(quartic)
    ell = principal_kernel_vector(g)
    assert box_annihilation_check(ell, g.alpha, 20)


def test_box_annihilation_negative_control(quartic):
    g = build_gkz(quartic)
    ell = principal_kernel_vector(g)
    s = holo_solution(ell, g.alpha, 6)
    corrupted = RationalSeries(
        [s.coeff(n) + (1 if n == 3 else 0) for n in range(7)], 6
    )
    assert not box_annihilation_check(ell, g.alpha, 6, series=corrupted)


def test_box_annihilation_empty_kernel_forces_constant():
    # with no kernel entries the recurrence degenerates to c_n = c_(n-1)
    assert box_annihilation_check((), (), 2, series=RationalSeries([1, 1, 1], 2))
    assert not box_annihilation_check((), (), 2, series=RationalSeries([1, 0, 0], 2))


# ---------------------------------------------------- multiparameter terms


def test_solution_term_enumerator_rank_one(quartic):
    g = build_gkz(quartic)
    terms = dict(gkz_solution_terms(g, cutoff=4))
    ell = (-4, 1, 1, 1, 1)
    neg = tuple(-x for x in ell)
    assert set(terms) == {(0,) * 5, ell, neg}
    assert terms[(0,) * 5] == 1
    # Gamma(1/2)/Gamma(1/2 - 4) = rising(1/2 - 4, 4)
    assert terms[ell] == rising(Fraction(1, 2) - 4, 4) == Fraction(105, 16)
    # the opposite vector hits a Gamma pole on a ray column
    assert terms[neg] == 0


def test_solution_terms_multiparameter_cutoff():
    hexd = LatticePolytope([(1, 0), (0, 1), (-1, 0), (0, -1), (1, -1), (-1, 1)])
    data = NefPartition(hexd, [[0, 1], [2, 4], [3, 5]])
    g = build_gkz(data)
    terms = gkz_solution_terms(g, cutoff=1)
    vecs = [v for v, _ in terms]
    assert (0,) * 9 in vecs
    assert all(max(abs(x) for x in v) <= 1 for v in vecs)
    assert len(set(vecs)) == len(vecs)


def test_gkz_json(quartic):
    j = build_gkz(quartic).to_json()
    assert j["beta"] == ["0", "0", "0", "-1/2"]
    assert j["kernel"] == [[-4, 1, 1, 1, 1]]
    assert j["n"] == 3 and j["r"] == 1
