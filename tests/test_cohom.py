"""Cohomology-valued series: nilpotent deformation, residues, I-functions.

The eps^k slices of the deformed solution are checked against k-th
eps-derivatives of the Gamma-ratio coefficient computed symbolically with
sympy (divided by k!), an oracle that never touches the EpsPoly arithmetic.
"""

import math
from fractions import Fraction

import pytest
import sympy

from fracmirror.cohom import (
    CohomRing,
    b_series,
    deformed_solution,
    frobenius_residue,
    i_function_mirror_map,
    i_function_untwisted,
    i_weights_from_kernel,
)
from fracmirror.errors import FracmirrorError
from fracmirror.gkz import build_gkz, principal_kernel_vector
from fracmirror.mirror import frobenius_pair
from fracmirror.picard_fuchs import apply, theta_conjugate
from fracmirror.series import EpsPoly, NilpotentSeries, RationalSeries
from oracles import matches, pairing_matrix, scale_arg


def _kernel_data(data):
    g = build_gkz(data)
    ell = principal_kernel_vector(g)
    return ell, g.alpha


# ------------------------------------------------------ deformed solution


def test_deformed_slices_are_frobenius_tower(quartic):
    ell, alpha = _kernel_data(quartic)
    W = deformed_solution(ell, alpha, 8, 3)
    pair = frobenius_pair(ell, alpha, 8)
    assert matches(W.eps_slice(0), pair.omega0, 8)
    assert matches(W.eps_slice(1), pair.tau, 8)


def test_deformed_slices_match_gamma_derivatives(quartic):
    ell, alpha = _kernel_data(quartic)
    W = deformed_solution(ell, alpha, 3, 3)
    eps = sympy.Symbol("eps")
    h = sympy.Rational(1, 2)
    for n in (1, 2, 3):
        # same Gamma ratio written as a finite product: a rational function
        # of eps, so its derivatives are exact rationals
        c = sympy.prod(h + 4 * eps + j for j in range(4 * n))
        c /= sympy.prod((t + eps) ** 4 for t in range(1, n + 1))
        for k in (0, 1, 2):
            d = sympy.diff(c, eps, k).subs(eps, 0)
            val = sympy.nsimplify(d) / math.factorial(k)
            got = W.coeff(n).coeff(k)
            assert sympy.Rational(*got.as_integer_ratio()) == val


def test_deformed_slices_match_numeric_gamma_derivatives(quartic):
    import mpmath

    ell, alpha = _kernel_data(quartic)
    W = deformed_solution(ell, alpha, 2, 3)
    with mpmath.workdps(60):
        for n in (1, 2):

            def c(e, n=n):
                return (
                    mpmath.gamma(mpmath.mpf(1) / 2 + 4 * n + 4 * e)
                    / mpmath.gamma(mpmath.mpf(1) / 2 + 4 * e)
                    / (mpmath.gamma(1 + n + e) / mpmath.gamma(1 + e)) ** 4
                )

            for k in (0, 1, 2):
                num = mpmath.diff(c, 0, k) / math.factorial(k)
                exact = W.coeff(n).coeff(k)
                err = abs(num - mpmath.mpf(exact.numerator) / exact.denominator)
                assert err < mpmath.mpf(10) ** -30


def test_deformed_m1_is_plain_solution(k3):
    ell, alpha = _kernel_data(k3)
    from fracmirror.gkz import holo_solution

    W = deformed_solution(ell, alpha, 6, 1)
    assert matches(W.eps_slice(0), holo_solution(ell, alpha, 6), 6)


def test_deformed_rejects_oversized_nilpotency(quartic):
    ell, alpha = _kernel_data(quartic)
    with pytest.raises(FracmirrorError, match="exceeds operator degree"):
        deformed_solution(ell, alpha, 4, 6)


# ------------------------------------------------------ Frobenius residue


@pytest.mark.parametrize("case,deg", [("quartic", 4), ("eight_hyperplanes", 4), ("k3", 3)])
def test_residue_is_top_eps_power(case, deg, request):
    ell, alpha = _kernel_data(request.getfixturevalue(case))
    op = theta_conjugate(ell, alpha)
    W = deformed_solution(ell, alpha, 12, deg + 1)
    res = frobenius_residue(op, W, 12)
    for k in range(deg + 1):
        assert res.coeff(k) == (1 if k == deg else 0)


def test_residue_requires_matching_order(quartic):
    ell, alpha = _kernel_data(quartic)
    op = theta_conjugate(ell, alpha)
    W = deformed_solution(ell, alpha, 4, 3)
    with pytest.raises(FracmirrorError, match="operator degree \\+ 1"):
        frobenius_residue(op, W)


def test_residue_flags_wrong_operator(quartic, eight_hyperplanes):
    ell_q, alpha_q = _kernel_data(quartic)
    ell_e, alpha_e = _kernel_data(eight_hyperplanes)
    op = theta_conjugate(ell_q, alpha_q)
    W = deformed_solution(ell_e, alpha_e, 4, 5)
    with pytest.raises(FracmirrorError, match="does not annihilate"):
        frobenius_residue(op, W)


# ------------------------------------------------------------- B-series


def _threefold_ring(C=2):
    return CohomRing(4, {"H": 1}, integral_scale=C)


def test_b_series_slices(quartic):
    ell, alpha = _kernel_data(quartic)
    ring = _threefold_ring()
    W = b_series(ring, ell, alpha, 8)
    pair = frobenius_pair(ell, alpha, 8)
    assert matches(W.part(0).eps_slice(0), pair.omega0, 8)
    assert matches(W.part(0).eps_slice(1), pair.tau, 8)
    # the eps^1 coefficient of the log-part is omega0: together they give
    # the second Frobenius solution tau + omega0 * log z
    assert matches(W.part(1).eps_slice(1), pair.omega0, 8)
    assert W.part(1).eps_slice(0).is_zero()


def test_b_series_annihilated_over_threefold_ring(quartic):
    # over Q[eps]/(eps^4) the residue eps^4 vanishes, so the operator kills
    # the full cohomology-valued series
    ell, alpha = _kernel_data(quartic)
    op = theta_conjugate(ell, alpha)
    W = b_series(_threefold_ring(), ell, alpha, 10)
    assert apply(op, W).is_zero()


def test_b_series_requires_rank_one(quartic):
    ell, alpha = _kernel_data(quartic)
    ring = CohomRing(4, {"H": 1}, integral_scale=2, rank=2)
    with pytest.raises(FracmirrorError, match="rank-1"):
        b_series(ring, ell, alpha, 4)


# ------------------------------------------------------------ I-function


def test_i_weights():
    assert i_weights_from_kernel((-4, 1, 1, 1, 1), (0,) * 5) == ((8,), (1, 1, 1, 1, 4))
    assert i_weights_from_kernel((-1, 1) * 4, (0,) * 8) == (
        (2, 2, 2, 2),
        (1,) * 8,
    )
    assert i_weights_from_kernel((-3, 1, 1, 1), (0,) * 4) == ((6,), (1, 1, 1, 3))


def test_i_function_quartic_slices(quartic):
    I = i_function_untwisted((8,), (1, 1, 1, 1, 4), 5, 6)
    A = I.eps_slice(0)
    assert A.coeff(0) == 1
    assert A.coeff(1) == 1680  # 8! / (1!^4 4!)
    assert A.coeff(2) == 32432400
    assert all(A.coeff(n).denominator == 1 for n in range(7))
    # A(q) is the holomorphic solution rescaled to the q-variable
    ell, alpha = _kernel_data(quartic)
    pair = frobenius_pair(ell, alpha, 6)
    assert matches(A, scale_arg(pair.omega0, 256), 6)


def test_i_function_mirror_block(quartic):
    ell, alpha = _kernel_data(quartic)
    I = i_function_untwisted((8,), (1, 1, 1, 1, 4), 5, 6)
    ratio = i_function_mirror_map(I)
    assert ratio.coeff(1) == 15808
    pair = frobenius_pair(ell, alpha, 6)
    assert matches(ratio, scale_arg(pair.tau / pair.omega0, 256), 6)


def test_i_function_unit_guard():
    I = NilpotentSeries(2, [EpsPoly.constant(2, 2)], 0)
    with pytest.raises(FracmirrorError, match="not a unit"):
        i_function_mirror_map(I)


# ------------------------------------------------------------- ring / pairing


def test_ring_classes_and_integral():
    ring = CohomRing(4, {"D_0_0": -3, "D_0_1": 1, "D_0_2": 2}, 2, distinguished="D_0_0")
    H = ring.cls("D_0_1")
    assert H.coeff(1) == 1 and H.coeff(0) == 0
    with pytest.raises(KeyError):
        ring.cls("missing")
    assert ring.integral(EpsPoly.eps(4, 3)) == 2
    with pytest.raises(TypeError, match="matching order"):
        ring.integral(EpsPoly.eps(3, 2))


def test_ring_distinguished_guard():
    with pytest.raises(FracmirrorError, match="minus the sum"):
        CohomRing(4, {"a": 1, "b": 2, "c": -2}, 2, distinguished="a")
    for m, rank in ((2.7, 1), (4, 1.0)):  # not truncated to m = 2 or rank = 1
        with pytest.raises(TypeError):
            CohomRing(m, {"H": 1}, 1, rank=rank)


def test_pairing_anti_diagonal():
    ring = _threefold_ring(2)
    half = Fraction(1, 2)
    basis = [
        EpsPoly.constant(4, 1),
        EpsPoly.eps(4, 1),
        EpsPoly.eps(4, 2) * half,
        EpsPoly.eps(4, 3) * half,
    ]
    gram = pairing_matrix(ring, basis)
    expected = tuple(
        tuple(1 if i + j == 3 else 0 for j in range(4)) for i in range(4)
    )
    assert gram == expected


def test_pairing_coerces_scalars():
    ring = CohomRing(2, {}, 5)
    gram = pairing_matrix(ring, [1, EpsPoly.eps(2, 1)])
    assert gram == ((0, 5), (5, 0))
