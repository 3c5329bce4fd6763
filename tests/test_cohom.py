"""Cohomology-valued series: nilpotent deformation, residues, I-functions.

The eps^k slices of the deformed solution are checked against k-th
eps-derivatives of the Gamma-ratio coefficient computed symbolically with
sympy (divided by k!), an oracle that never touches the integer kernel.
"""

import json
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
    slices_json,
)
from fracmirror.errors import FracmirrorError
from fracmirror.gkz import build_gkz, hypergeometric_series, kernel_scale
from fracmirror.mirror import frobenius_pair
from fracmirror.picard_fuchs import theta_conjugate
from fracmirror.series import RationalSeries, fraction_str
from oracles import (
    EpsPoly,
    apply_to_prefactored,
    b_series_json_by_columns,
    b_series_json_dict,
    cohom_class,
    cohom_integral,
    frobenius_residue,
    i_function_by_weights,
    log_prefactor_by_fractions,
    matches,
    pairing_matrix,
    scale_arg,
    slices_json_dict,
)
from test_mirror import _one_parameter_cases


def _kernel_vector(data):
    [ell] = build_gkz(data).kernel
    return ell


# ------------------------------------------------------ deformed solution

_QUARTIC = (1, 1, 1, 1, -4)


@pytest.mark.parametrize("build", [
    lambda: hypergeometric_series(_QUARTIC, 2, True),
    lambda: hypergeometric_series(_QUARTIC, True, 2),
    lambda: deformed_solution(_QUARTIC, 2, True),
    lambda: deformed_solution(_QUARTIC, True, 2),
    lambda: i_function_untwisted(_QUARTIC, True, 3),
    lambda: i_function_untwisted(_QUARTIC, 2, True),
], ids=["kernel m", "kernel N", "deformed m", "deformed N", "I-function m", "I-function N"])
def test_kernel_orders_refuse_bools(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("build", [
    lambda: hypergeometric_series((-1, 1), 2, -1),
    lambda: hypergeometric_series((), 1, -3, 4),
    lambda: deformed_solution(_QUARTIC, -1, 2),
    lambda: i_function_untwisted(_QUARTIC, 2, -1),
    lambda: deformed_solution(_QUARTIC, -1, 1)[0],
], ids=["kernel", "kernel scaled", "deformed", "I-function", "holomorphic"])
def test_kernel_refuses_a_negative_order(build):
    # as RationalSeries does, rather than slices with no coefficients
    with pytest.raises(ValueError, match="truncation order must be nonnegative"):
        build()


@pytest.mark.parametrize("build,error,message", [
    (lambda: hypergeometric_series(_QUARTIC, 0, 3), ValueError, "nilpotency order m must be at least 1"),
    (lambda: deformed_solution(_QUARTIC, 3, 0), ValueError, "nilpotency order m must be at least 1"),
    (lambda: i_function_untwisted(_QUARTIC, -1, 3), ValueError, "nilpotency order m must be at least 1"),
    (lambda: i_function_mirror_map(i_function_untwisted(_QUARTIC, 1, 3)), FracmirrorError, r"eps\^1 slice"),
], ids=["kernel", "deformed", "I-function", "I-function mirror map"])
def test_kernel_refuses_too_few_slices(build, error, message):
    # rather than an IndexError from an empty slice list or a missing slice
    with pytest.raises(error, match=message):
        build()


def test_deformed_slices_are_frobenius_tower(quartic):
    # the pair is the same two slices at z = s x
    ell = _kernel_vector(quartic)
    W = deformed_solution(ell, 8, 3)
    pair = frobenius_pair(ell, 8)
    assert matches(scale_arg(W[0], pair.scale), pair.A0, 8)
    assert matches(scale_arg(W[1], pair.scale), pair.A1, 8)


def test_deformed_slices_match_gamma_derivatives(quartic):
    ell = _kernel_vector(quartic)
    W = deformed_solution(ell, 3, 3)
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

    ell = _kernel_vector(quartic)
    W = deformed_solution(ell, 2, 3)
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
    ell = _kernel_vector(k3)
    # the plain solution is the eps^0 slice at every nilpotency order
    W = deformed_solution(ell, 6, 1)
    assert len(W) == 1
    assert matches(W[0], deformed_solution(ell, 6, 3)[0], 6)


def test_deformed_rejects_oversized_nilpotency(quartic):
    ell = _kernel_vector(quartic)
    with pytest.raises(FracmirrorError, match="exceeds operator degree"):
        deformed_solution(ell, 4, 6)


# ------------------------------------------------------ Frobenius residue


@pytest.mark.parametrize("case,deg", [("quartic", 4), ("eight_hyperplanes", 4), ("k3", 3)])
def test_residue_is_top_eps_power(case, deg, request):
    ell = _kernel_vector(request.getfixturevalue(case))
    op = theta_conjugate(ell)
    W = deformed_solution(ell, 12, deg + 1)
    res = frobenius_residue(op, W, 12)
    for k in range(deg + 1):
        assert res.coeff(k) == (1 if k == deg else 0)


def test_residue_requires_matching_order(quartic):
    ell = _kernel_vector(quartic)
    op = theta_conjugate(ell)
    W = deformed_solution(ell, 4, 3)
    with pytest.raises(FracmirrorError, match="operator degree \\+ 1"):
        frobenius_residue(op, W)


def test_residue_flags_wrong_operator(quartic, eight_hyperplanes):
    ell_q = _kernel_vector(quartic)
    ell_e = _kernel_vector(eight_hyperplanes)
    op = theta_conjugate(ell_q)
    W = deformed_solution(ell_e, 4, 5)
    with pytest.raises(FracmirrorError, match="does not annihilate"):
        frobenius_residue(op, W)


# ------------------------------------------------------------- B-series


def test_b_series_slices(quartic):
    ell = _kernel_vector(quartic)
    W = b_series(4, ell, 8)
    pair = frobenius_pair(ell, 8)
    omega0 = scale_arg(pair.A0, Fraction(1, pair.scale))
    assert matches(W[0], omega0, 8)
    assert matches(W[1], scale_arg(pair.A1, Fraction(1, pair.scale)), 8)
    # the eps^1 coefficient of the log-part is omega0: together they give
    # the second Frobenius solution tau + omega0 * log z
    log_part = json.loads(_json_text(b_series_json(W)))["parts"][1]["coeffs"]
    assert [row[1] for row in log_part] == omega0.to_json()["coeffs"]
    assert all(row[0] == "0" for row in log_part)


@pytest.mark.parametrize("case", ["quartic", "eight_hyperplanes", "k3"])
def test_log_prefactor_matches_fraction_scaling(case, request):
    # the kernel itself, not deformed_solution, so m runs past degree + 1
    ell = _kernel_vector(request.getfixturevalue(case))
    for m in range(2, 7):
        deformed = hypergeometric_series(ell, m, 8)
        parts = [
            {
                "log_power": k,
                "N": 8,
                "coeffs": [[fraction_str(s.coeff(n)) for s in part] for n in range(9)],
                "m": m,
            }
            for k, part in enumerate(log_prefactor_by_fractions(deformed))
        ]
        doc = {"N": 8, "log_degree": m - 1, "parts": parts}
        assert _json_text(b_series_json(deformed)) == json.dumps(doc, indent=2, sort_keys=True)


def test_b_series_json_matches_column_writer(quartic, eight_hyperplanes, k3):
    # each slice reduced once, log part k divided by k! on the reduced
    # numerators, writes the same bytes as formatting every column over D k!
    for label, ell, _, _ in _one_parameter_cases(quartic, eight_hyperplanes, k3):
        m = sum(le for le in ell if le > 0)
        for N in (1, 4, 16):
            S = deformed_solution(ell, N, m)
            assert _json_text(b_series_json(S)) == _json_text(b_series_json_by_columns(S)), (label, N)


def _nest(value, depth):
    """``value`` as the innermost entry of ``depth`` containers, lists and
    dicts in turn, so it is written at the indent of that depth."""
    for d in range(depth - 1):
        value = [value, "x"] if d % 2 else {"a": value, "b": "x"}
    return {"value": value}


def test_text_writers_match_the_dict_writers():
    # the writers format the kernel's per-order pairs U_n[k] / E_n without
    # building a slice, and write at the indent they are rendered at; the
    # dict writers and the column writer format the built slices.  Seeded
    # kernel vectors at m = 1..6, scale 1 and the I-function's scale s, plus
    # (-1, 1), whose I-function is the integral (2n)! / n!^2 (every E_n = 1 at
    # m = 1), and the empty vector, whose slices past 0 vanish at every order
    rng = random.Random(29)
    kernels = [(-1, 1), ()]
    kernels += [[rng.randint(-4, 4) for _ in range(rng.randint(1, 5))] for _ in range(24)]
    unit_E = zeros = checked = 0
    for i, ell in enumerate(kernels):
        for m in (i % 6 + 1, 1, 6):
            for N in (1, 2, 12, 16, 32):
                for scale in (1, kernel_scale(ell)):
                    S = hypergeometric_series(ell, m, N, scale)
                    built = tuple(S)
                    assert all(E > 0 for E in S.E)
                    unit_E += sum(E == 1 for E in S.E[1:])
                    zeros += sum(not u for U in S.U for u in U[1:])
                    for depth in (1, 3):
                        for text, oracles in (
                            (slices_json, (slices_json_dict,)),
                            (b_series_json, (b_series_json_dict, b_series_json_by_columns)),
                        ):
                            written = _json_text(_nest(text(S), depth))
                            for oracle in oracles:
                                expected = _json_text(_nest(oracle(built), depth))
                                assert written == expected, (ell, m, N, scale)
                    checked += 1
    assert (checked, unit_E > 0, zeros > 0) == (780, True, True)


def test_b_series_annihilated_over_threefold_ring(quartic):
    # over Q[eps]/(eps^4) the residue eps^4 vanishes, so the operator kills
    # the full cohomology-valued series
    ell = _kernel_vector(quartic)
    op = theta_conjugate(ell)
    W = b_series(4, ell, 10)
    assert all(not any(p.A) for parts in apply_to_prefactored(op, W) for p in parts)


# ------------------------------------------------------------ I-function


def test_i_weights():
    assert i_weights_from_kernel((-4, 1, 1, 1, 1)) == ((8,), (1, 1, 1, 1, 4))
    assert i_weights_from_kernel((-1, 1) * 4) == (
        (2, 2, 2, 2),
        (1,) * 8,
    )
    assert i_weights_from_kernel((-3, 1, 1, 1)) == ((6,), (1, 1, 1, 3))


def test_i_function_quartic_slices(quartic):
    ell = _kernel_vector(quartic)
    I = i_function_untwisted(ell, 5, 6)
    A = I[0]
    assert A.coeff(0) == 1
    assert A.coeff(1) == 1680  # 8! / (1!^4 4!)
    assert A.coeff(2) == 32432400
    assert all(A.coeff(n).denominator == 1 for n in range(7))
    # A(q) is the holomorphic solution rescaled to the q-variable
    assert matches(A, scale_arg(deformed_solution(ell, 6, 1)[0], 256), 6)


def test_i_function_mirror_block(quartic):
    ell = _kernel_vector(quartic)
    I = i_function_untwisted(ell, 5, 6)
    ratio = i_function_mirror_map(I)
    assert ratio.coeff(1) == 15808
    omega0, tau = deformed_solution(ell, 6, 2)
    assert matches(ratio, scale_arg(tau / omega0, 256), 6)


def test_i_function_pairs_weights_by_duplication(quartic, eight_hyperplanes, k3):
    # the kernel on the half-integer factors at scale s = 4^(sum k) is the
    # I-function with every weight its own factor, each pair 2k over k
    # multiplied out, on every one-parameter input
    for label, ell, _, orders in _one_parameter_cases(quartic, eight_hyperplanes, k3):
        weights = i_weights_from_kernel(ell)
        for m in (1, 2, sum(le for le in ell if le > 0) + 1):
            for N in (0, *orders):
                I = i_function_untwisted(ell, m, N)
                assert tuple(I) == tuple(i_function_by_weights(*weights, m, N)), (label, m, N)


def test_i_function_unit_guard():
    I = (RationalSeries([2], 0), RationalSeries((), 0))
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
    # a float kernel entry is not read as the int it happens to equal, nor
    # a bool as 0 or 1, by any of the series that read the kernel vector
    for ell in ((1, 1, 1, 1, -4.0), (1, 1, 1, 1.0, -4), (True, 1, 1, 1, -4), (-4, 1, 1, 1, True)):
        for build in (
            lambda: deformed_solution(ell, 3, 2),
            lambda: b_series(2, ell, 3),
            lambda: i_function_untwisted(ell, 2, 3),
            lambda: i_weights_from_kernel(ell),
            lambda: theta_conjugate(ell),
        ):
            with pytest.raises(TypeError):
                build()


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
