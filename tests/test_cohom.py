"""Cohomology-valued series: nilpotent deformation, residues, I-functions.

The eps^k slices of the deformed solution are checked against k-th
eps-derivatives of the Gamma-ratio coefficient computed symbolically with
sympy (divided by k!), an oracle that never touches the integer kernel.
"""

import math
import random
from fractions import Fraction

import pytest
import sympy

from fracmirror.cli import _json_text
from fracmirror.cohom import (
    b_series,
    b_series_json,
    deformed_solution,
    i_function_mirror_map,
    i_function_untwisted,
    i_weights_from_kernel,
)
from fracmirror.errors import FracmirrorError
from fracmirror.gkz import (
    _series_factors,
    build_gkz,
    holo_solution,
    hypergeometric_series,
    principal_kernel_vector,
)
from fracmirror.mirror import frobenius_pair
from fracmirror.picard_fuchs import theta_conjugate
from fracmirror.series import RationalSeries, fraction_str
from oracles import (
    EpsPoly,
    apply_to_prefactored,
    b_series_json_by_columns,
    cohom_class,
    cohom_integral,
    frobenius_residue,
    i_function_by_weights,
    log_prefactor_by_fractions,
    matches,
    pairing_matrix,
    scale_arg,
)
from test_mirror import _one_parameter_cases


def _kernel_data(data):
    g = build_gkz(data)
    ell = principal_kernel_vector(g)
    return ell, g.alpha


# ------------------------------------------------------ deformed solution

_HALF = Fraction(-1, 2)


@pytest.mark.parametrize("build", [
    lambda: hypergeometric_series([(Fraction(1, 2), 4)], [(Fraction(1), 1)] * 4, 2, True),
    lambda: hypergeometric_series([(Fraction(1, 2), 4)], [(Fraction(1), 1)] * 4, True, 2),
    lambda: deformed_solution((1, 1, 1, 1, -4), (0, 0, 0, 0, _HALF), 2, True),
    lambda: deformed_solution((1, 1, 1, 1, -4), (0, 0, 0, 0, _HALF), True, 2),
    lambda: i_function_untwisted((8,), (1, 1, 1, 1, 4), True, 3),
    lambda: i_function_untwisted((8,), (1, 1, 1, 1, 4), 2, True),
], ids=["kernel m", "kernel N", "deformed m", "deformed N", "I-function m", "I-function N"])
def test_kernel_orders_refuse_bools(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("build", [
    lambda: hypergeometric_series([(Fraction(1, 2), 1)], [(1, 1)], 2, -1),
    lambda: hypergeometric_series([], [], 1, -3, 4),
    lambda: deformed_solution((1, 1, 1, 1, -4), (0, 0, 0, 0, _HALF), -1, 2),
    lambda: i_function_untwisted((8,), (1, 1, 1, 1, 4), 2, -1),
    lambda: holo_solution((1, 1, 1, 1, -4), (0, 0, 0, 0, _HALF), -1),
], ids=["kernel", "kernel scaled", "deformed", "I-function", "holomorphic"])
def test_kernel_refuses_a_negative_order(build):
    # as RationalSeries does, rather than slices with no coefficients
    with pytest.raises(ValueError, match="truncation order must be nonnegative"):
        build()


def test_deformed_slices_are_frobenius_tower(quartic):
    ell, alpha = _kernel_data(quartic)
    W = deformed_solution(ell, alpha, 8, 3)
    pair = frobenius_pair(ell, alpha, 8)
    assert matches(W[0], pair.omega0, 8)
    assert matches(W[1], pair.tau, 8)


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
            got = W[k].coeff(n)
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
                exact = W[k].coeff(n)
                err = abs(num - mpmath.mpf(exact.numerator) / exact.denominator)
                assert err < mpmath.mpf(10) ** -30


def test_deformed_m1_is_plain_solution(k3):
    ell, alpha = _kernel_data(k3)
    W = deformed_solution(ell, alpha, 6, 1)
    assert matches(W[0], holo_solution(ell, alpha, 6), 6)


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


def test_b_series_slices(quartic):
    ell, alpha = _kernel_data(quartic)
    W = b_series(4, ell, alpha, 8)
    pair = frobenius_pair(ell, alpha, 8)
    assert matches(W[0], pair.omega0, 8)
    assert matches(W[1], pair.tau, 8)
    # the eps^1 coefficient of the log-part is omega0: together they give
    # the second Frobenius solution tau + omega0 * log z
    log_part = b_series_json(W)["parts"][1]["coeffs"]
    assert [row[1] for row in log_part] == pair.omega0.to_json()["coeffs"]
    assert all(row[0] == "0" for row in log_part)


@pytest.mark.parametrize("case", ["quartic", "eight_hyperplanes", "k3"])
def test_log_prefactor_matches_fraction_scaling(case, request):
    # the kernel itself, not deformed_solution, so m runs past degree + 1
    factors = _series_factors(*_kernel_data(request.getfixturevalue(case)))
    for m in range(2, 7):
        deformed = hypergeometric_series(*factors, m, 8)
        parts = [
            {
                "log_power": k,
                "N": 8,
                "coeffs": [[fraction_str(s.coeff(n)) for s in part] for n in range(9)],
                "m": m,
            }
            for k, part in enumerate(log_prefactor_by_fractions(deformed))
        ]
        assert b_series_json(deformed) == {"N": 8, "log_degree": m - 1, "parts": parts}


def test_b_series_json_matches_column_writer(quartic, eight_hyperplanes, k3):
    # each slice reduced once, log part k divided by k! on the reduced
    # numerators, writes the same bytes as formatting every column over D k!
    for label, ell, alpha, _ in _one_parameter_cases(quartic, eight_hyperplanes, k3):
        m = sum(le for le in ell if le > 0)
        for N in (1, 4, 16):
            S = deformed_solution(ell, alpha, N, m)
            assert _json_text(b_series_json(S)) == _json_text(b_series_json_by_columns(S)), (label, N)


def test_b_series_annihilated_over_threefold_ring(quartic):
    # over Q[eps]/(eps^4) the residue eps^4 vanishes, so the operator kills
    # the full cohomology-valued series
    ell, alpha = _kernel_data(quartic)
    op = theta_conjugate(ell, alpha)
    W = b_series(4, ell, alpha, 10)
    assert all(p.is_zero() for parts in apply_to_prefactored(op, W) for p in parts)


# ------------------------------------------------------------ I-function


def test_i_weights():
    assert i_weights_from_kernel((-4, 1, 1, 1, 1)) == ((8,), (1, 1, 1, 1, 4))
    assert i_weights_from_kernel((-1, 1) * 4) == (
        (2, 2, 2, 2),
        (1,) * 8,
    )
    assert i_weights_from_kernel((-3, 1, 1, 1)) == ((6,), (1, 1, 1, 3))


def test_i_function_quartic_slices(quartic):
    I = i_function_untwisted((8,), (1, 1, 1, 1, 4), 5, 6)
    A = I[0]
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


def test_i_function_pairs_weights_by_duplication():
    # each numerator weight 2k paired with a denominator weight k is one
    # half-integer factor and a scale 4^k; the I-function is the same as with
    # every weight its own factor, with paired, unpaired, odd and repeated
    # weights and with more than one partner on offer
    weight_sets = [
        ((8,), (1, 1, 1, 1, 4)),
        ((2, 2, 2, 2), (1,) * 8),
        ((6,), (1, 1, 1, 3)),
        ((4, 4), (2, 2, 1, 1, 1, 1)),
        ((4, 4), (2, 1, 1, 1, 1, 1)),
        ((3, 5), (1, 2, 2, 3)),
        ((4,), (1, 1, 1, 1)),
        ((8, 4), (4, 2, 2, 2, 4)),
        ((), (1, 2)),
        ((2,), ()),
    ]
    rng = random.Random(23)
    for _ in range(40):
        num = tuple(rng.randint(1, 8) for _ in range(rng.randint(0, 3)))
        den = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 5)))
        weight_sets.append((num, den))
    for num, den in weight_sets:
        for m in (1, 2, 5):
            for N in (0, 1, 6, 12):
                I = i_function_untwisted(num, den, m, N)
                assert I == i_function_by_weights(num, den, m, N), (num, den, m, N)


@pytest.mark.parametrize("num, den", [
    ((2,), (1, True)),
    ((True,), (1,)),
    ((2.0,), (1,)),
    ((2,), (1.0, 1)),
])
def test_i_function_refuses_non_integer_weights(num, den):
    # True is not read as the weight 1, nor 2.0 as 2
    with pytest.raises(TypeError):
        i_function_untwisted(num, den, 2, 3)


@pytest.mark.parametrize("num, den", [((-2,), (1,)), ((2,), (1, 0)), ((0,), (1,))])
def test_i_function_refuses_nonpositive_weights(num, den):
    with pytest.raises(ValueError, match="a factor weight must be a positive integer"):
        i_function_untwisted(num, den, 2, 3)


def test_i_function_unit_guard():
    I = (RationalSeries([2], 0), RationalSeries.zero(0))
    with pytest.raises(FracmirrorError, match="not a unit"):
        i_function_mirror_map(I)
    # constant term 1 over a slice denominator of 2: A = (2 + q) / 2
    I = (RationalSeries([1, Fraction(1, 2)], 1), RationalSeries([3, 0], 1))
    assert i_function_mirror_map(I) == RationalSeries([3, Fraction(-3, 2)], 1)


# ------------------------------------------------------------- ring / pairing


def test_ring_classes_and_integral():
    classes = {"D_0_0": -3, "D_0_1": 1, "D_0_2": 2}
    H = cohom_class(4, classes, "D_0_1")
    assert H.coeff(1) == 1 and H.coeff(0) == 0
    with pytest.raises(KeyError):
        cohom_class(4, classes, "missing")
    assert cohom_integral(4, 2, EpsPoly.eps(4, 3)) == 2
    with pytest.raises(TypeError, match="matching order"):
        cohom_integral(4, 2, EpsPoly.eps(3, 2))


def test_cohomology_api_refuses_floats():
    # a float exponent is not read as the Fraction it happens to equal;
    # "p/q" strings and Fractions still are
    exact = deformed_solution((1, 1, 1, 1, -4), (0, 0, 0, 0, Fraction(-1, 2)), 3, 2)
    assert deformed_solution((1, 1, 1, 1, -4), (0, 0, 0, 0, "-1/2"), 3, 2) == exact
    with pytest.raises(TypeError):
        deformed_solution((1, 1, 1, 1, -4), (0, 0, 0, 0, -0.5), 3, 2)
    with pytest.raises(TypeError):
        theta_conjugate((1, 1, 1, 1, -4), (0, 0, 0, 0, -0.5))


def test_pairing_anti_diagonal():
    half = Fraction(1, 2)
    basis = [
        EpsPoly.constant(4, 1),
        EpsPoly.eps(4, 1),
        EpsPoly.eps(4, 2) * half,
        EpsPoly.eps(4, 3) * half,
    ]
    gram = pairing_matrix(4, 2, basis)
    expected = tuple(
        tuple(1 if i + j == 3 else 0 for j in range(4)) for i in range(4)
    )
    assert gram == expected


def test_pairing_coerces_scalars():
    gram = pairing_matrix(2, 5, [1, EpsPoly.eps(2, 1)])
    assert gram == ((0, 5), (5, 0))
