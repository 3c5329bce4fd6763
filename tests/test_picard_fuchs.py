"""Theta-form Picard-Fuchs operators: factored data, series action, kernels."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracmirror.errors import FracmirrorError
from fracmirror.cohom import deformed_solution
from fracmirror.gkz import build_gkz
from fracmirror.picard_fuchs import theta_conjugate
from fracmirror.series import RationalSeries
from oracles import (
    ZOperator,
    apply,
    holomorphic_kernel,
    matches,
    rising,
    theta_conjugate_by_fractions,
    yukawa_ode_rhs,
    yukawa_ode_rhs_by_division,
)
from test_mirror import _one_parameter_cases


def _operator(data):
    [ell] = build_gkz(data).kernel
    return theta_conjugate(ell), ell


# ------------------------------------------------------------ exact shapes


def test_quartic_operator_exact(quartic):
    op, _ = _operator(quartic)
    assert op.degree == 4
    assert op.z_polys == (
        (0, Fraction(-105, 16)),
        (0, -88),
        (0, -344),
        (0, -512),
        (1, -256),
    )
    assert op.scale == 256
    assert tuple(p[0] for p in op.z_polys) == (0, 0, 0, 0, 1)  # indicial polynomial
    assert op.display() == (
        "theta^4 - 256 z (theta + 1/8) (theta + 3/8) (theta + 5/8) (theta + 7/8)"
    )


def test_eight_hyperplane_operator_exact(eight_hyperplanes):
    op, _ = _operator(eight_hyperplanes)
    assert op.display() == "theta^4 - z (theta + 1/2)^4"
    assert op.scale == 1
    # (theta + 1/2)^4 expanded: binomial coefficients over 2^k
    assert op.z_polys == (
        (0, Fraction(-1, 16)),
        (0, Fraction(-1, 2)),
        (0, Fraction(-3, 2)),
        (0, -2),
        (1, -1),
    )


def test_k3_operator_exact(k3):
    op, _ = _operator(k3)
    assert op.degree == 3
    assert op.display() == "theta^3 - 27 z (theta + 1/6) (theta + 1/2) (theta + 5/6)"
    assert op.scale == 27
    # 27 (theta + 1/6)(theta + 1/2)(theta + 5/6) expanded
    assert op.z_polys == (
        (0, Fraction(-15, 8)),
        (0, Fraction(-69, 4)),
        (0, Fraction(-81, 2)),
        (1, -27),
    )


def test_operator_json_carries_factored_text(quartic):
    op, _ = _operator(quartic)
    j = op.to_json()
    assert j["degree"] == 4
    assert j["factored"] == op.display()
    assert j["terms"][4]["z_poly"] == ["1", "-256"]


def test_display_writes_a_positive_root_of_f_as_a_difference():
    # the one-part P(1,1,2) surface: the entry 2 of l = (-4, 1, 2, 1) puts
    # the root theta = 1/2 into F, and p3(0) = -1/2 is the Yukawa residue
    op = theta_conjugate((-4, 1, 2, 1))
    assert op.display() == (
        "theta^2 (theta - 1/2) theta - 64 z (theta + 1/8) (theta + 3/8) (theta + 5/8) (theta + 7/8)"
    )
    assert op.z_polys[3] == (Fraction(-1, 2), -128)


@st.composite
def _kernel_vectors(draw, degree=None):
    """A balanced kernel vector (positive entries sum to minus the negative
    ones), zeros mixed in, with the exponent -1/2 on each negative entry; its
    positive entries sum to ``degree`` when one is given."""
    if degree is None:
        pos = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    else:
        cuts = sorted(draw(st.sets(st.integers(1, degree - 1))))
        pos = [b - a for a, b in zip([0] + cuts, cuts + [degree])]
    neg, left = [], sum(pos)
    while left:
        neg.append(-draw(st.integers(1, left)))
        left += neg[-1]
    ell = draw(st.permutations(pos + neg + [0] * draw(st.integers(0, 2))))
    return tuple(ell), tuple(Fraction(-1, 2) if le < 0 else 0 for le in ell)


@settings(max_examples=60, deadline=None)
@given(_kernel_vectors())
def test_conjugate_matches_fraction_products(data):
    op, oracle = theta_conjugate(data[0]), theta_conjugate_by_fractions(*data)
    assert op == oracle and op.to_json() == oracle.to_json()


@settings(max_examples=60, deadline=None)
@given(_kernel_vectors(degree=4))
@example(((1, 1, 1, 1, -4), (0, 0, 0, 0, Fraction(-1, 2))))
@example(((2, 1, 1, -1, -3), (0, 0, 0, Fraction(-1, 2), Fraction(-1, 2))))
def test_zero_residue_means_p3_is_twice_theta_p4(data):
    # the closed-form Yukawa of mirror.yukawa_z needs p3 = 2 theta(p4).  At
    # degree 4, p3(0) is the theta^3 coefficient of F over its lead, zero
    # exactly when F = theta^4, that is when every positive entry is 1; and
    # the theta^3/theta^4 ratio of G is the sum of k/2 over the negative
    # entries -k, which is 2, so then p3 = -2 s z = 2 theta(1 - s z)
    ell, _ = data
    op = theta_conjugate(ell)
    p3, p4 = op.z_polys[3], op.z_polys[4]
    assert (p3[0] == 0) == all(le == 1 for le in ell if le > 0)
    if p3[0] == 0:
        assert p3 == tuple(2 * j * c for j, c in enumerate(p4))


# --------------------------------------------------------- conjugate guards


def test_conjugate_rejects_missing_positive_entries():
    with pytest.raises(FracmirrorError, match="no positive kernel entries"):
        theta_conjugate((-2,))


def test_conjugate_rejects_unbalanced_degrees():
    with pytest.raises(FracmirrorError, match="do not balance in degree"):
        theta_conjugate((1, 1, -1))


# ------------------------------------------------------------ series action


def test_apply_theta_reproduces_theta():
    theta = ZOperator(((Fraction(0),), (Fraction(1),)))
    z = RationalSeries((0, 1), 5)
    assert matches(apply(theta, z)[0], z, 5)
    f = RationalSeries([7, 5, 3], 2)
    assert matches(apply(theta, f)[0], f.theta(), 2)


def test_apply_rejects_non_series(quartic):
    op, _ = _operator(quartic)
    with pytest.raises(TypeError, match="operators act on series"):
        apply(op, 5)


@pytest.mark.parametrize("case", ["quartic", "eight_hyperplanes", "k3"])
def test_operator_annihilates_holomorphic_solution(case, request):
    op, ell = _operator(request.getfixturevalue(case))
    omega0 = deformed_solution(ell, 20, 1)[0]
    assert all(not any(p.A) for p in apply(op, omega0))


def test_apply_handles_log_series():
    # theta^2 kills log z; (theta - 1)^2 kills z log z
    N = 5
    zero = RationalSeries([0], N)
    theta2 = ZOperator(((Fraction(0),), (Fraction(0),), (Fraction(1),)))
    assert all(not any(p.A) for p in apply(theta2, [zero, RationalSeries((1,), N)]))
    sq = ZOperator(((Fraction(1),), (Fraction(-2),), (Fraction(1),)))
    assert all(not any(p.A) for p in apply(sq, [zero, RationalSeries((0, 1), N)]))


# ------------------------------------------------------- recurrence kernel


def test_holomorphic_kernel_matches_closed_form(quartic):
    op, ell = _operator(quartic)
    s = holomorphic_kernel(op, 12)
    assert matches(s, deformed_solution(ell, 12, 1)[0], 12)
    for n in range(13):
        assert s.coeff(n) == rising(Fraction(1, 2), 4 * n) / Fraction(
            math.factorial(n) ** 4
        )


def test_holomorphic_kernel_normalizes_first(quartic):
    op, ell = _operator(quartic)
    doubled = ZOperator(tuple(tuple(2 * c for c in p) for p in op.z_polys))
    assert matches(holomorphic_kernel(doubled, 8), deformed_solution(ell, 8, 1)[0], 8)


def test_holomorphic_kernel_rejects_resonant_indicial():
    op = ZOperator(((Fraction(-1), Fraction(1)), (Fraction(1),)))
    with pytest.raises(FracmirrorError, match="indicial polynomial vanishes at n = 1"):
        holomorphic_kernel(op, 4)


# ------------------------------------------------------------- Yukawa ODE


def test_yukawa_rhs_quartic(quartic):
    op, _ = _operator(quartic)
    g = yukawa_ode_rhs(op, 6)
    # g = 256 z / (1 - 256 z)
    for n in range(7):
        assert g.coeff(n) == (0 if n == 0 else Fraction(256) ** n)


def test_yukawa_rhs_eight_hyperplanes(eight_hyperplanes):
    op, _ = _operator(eight_hyperplanes)
    g = yukawa_ode_rhs(op, 6)
    # g = z / (1 - z)
    for n in range(7):
        assert g.coeff(n) == (0 if n == 0 else 1)


def test_yukawa_rhs_recurrence_equals_division(quartic, eight_hyperplanes, k3):
    # the integer recurrence u_n = (p3_n - sum_i p4_i u_(n-i)) / p4_0 gives
    # exactly the series quotient, on every threefold operator of the seeded
    # partitions and on both bundled threefolds at N = 40
    threefolds = 0
    for label, ell, _, orders in _one_parameter_cases(quartic, eight_hyperplanes, k3):
        op = theta_conjugate(ell)
        if op.degree != 4:
            continue
        threefolds += 1
        for N in (0,) + orders:
            assert yukawa_ode_rhs(op, N) == yukawa_ode_rhs_by_division(op, N), (label, N)
    assert threefolds == 27


def test_yukawa_rhs_recurrence_at_z_degree_two():
    # p4 of z-degree 2 with a negative constant term not equal to -1, p3 of
    # z-degree 2, and fractional coefficients
    op = ZOperator((
        (Fraction(1),),
        (Fraction(0), Fraction(1)),
        (Fraction(2), Fraction(-1), Fraction(3)),
        (Fraction(1, 3), Fraction(5), Fraction(-2)),
        (Fraction(-2), Fraction(1, 2), Fraction(7)),
    ))
    for N in (0, 1, 2, 3, 9, 16):
        g = yukawa_ode_rhs(op, N)
        assert g == yukawa_ode_rhs_by_division(op, N), N
    p3, p4 = (RationalSeries(op.z_polys[k], 16) for k in (3, 4))
    assert -(p4 * g) * 2 == p3


def test_yukawa_rhs_needs_degree_four(k3):
    op, _ = _operator(k3)
    with pytest.raises(FracmirrorError, match="Yukawa ODE defined for threefold"):
        yukawa_ode_rhs(op, 4)
