"""Frobenius pairs, the mirror map, and Yukawa/A-model series.

The logarithmic-solution coefficients tau_n are checked against an
independent symbolic oracle: the eps-derivative of the Gamma-ratio term
c_n(eps) evaluated with sympy, plus a floating digamma cross-check.  The
mirror-map coefficients are re-derived inline (explicit reciprocal, exp,
and Lagrange-inversion formulas on raw Fractions) rather than trusting the
series engine that produced them.  The package forms the mirror map and
K(q) in x = z/s; the same series formed in z (``tests/oracles.py``) must be
exactly equal, and the Legendre duplication that makes x the I-function's
coordinate is checked slice by slice.  The closed-form Yukawa and K(q) by
Lagrange-Buermann must equal the ODE solution composed with the reverted
mirror map.  The K3's mirror map is 64/j(q) at any order, a reference from
modular forms alone.
"""

import json
import math
import random
from fractions import Fraction

import mpmath
import pytest
import sympy
from conftest import DATA

from fracmirror.cli import JobConfig, _normalization, main
from fracmirror.cohom import deformed_solution, i_weights_from_kernel
from fracmirror.errors import FracmirrorError
from fracmirror.gkz import build_gkz
from fracmirror.mirror import (
    FrobeniusPair,
    _dilate,
    a_model_correlation,
    frobenius_pair,
    mirror_map,
    yukawa_z,
)
from fracmirror.nefpart import NefPartition, validate_nef_partition
from fracmirror.picard_fuchs import theta_conjugate
from fracmirror.series import RationalSeries
from oracles import (
    ZOperator,
    a_model_correlation_by_composition,
    a_model_correlation_in_z,
    apply,
    compose_by_horner,
    eisenstein_e4,
    i_function_by_weights,
    k3_mirror_map_by_j,
    matches,
    mirror_map_in_z,
    omega1_log,
    reversion_by_powers,
    scale_arg,
)
from test_nefpart import _random_set_partitions


def _pair(data, N=10):
    [ell] = build_gkz(data).kernel
    return frobenius_pair(ell, N), ell


def _in_z(pair):
    """omega0 and tau: the pair's slices A0(x) and A1(x), x = z/s, in z."""
    r = Fraction(1, pair.scale)
    return scale_arg(pair.A0, r), scale_arg(pair.A1, r)


# ------------------------------------------------------------- tau oracle


def _gamma_term(steps, n, eps):
    """c_n(eps): each (k, a) contributes Gamma(a+k(n+eps))/Gamma(a+k*eps)
    in the numerator for k > 0 taken as 'negative kernel' data, and the
    positive entries divide by Gamma(1+n+eps)/Gamma(1+eps) factors."""
    num, den = steps
    expr = sympy.Integer(1)
    for k in num:
        h = sympy.Rational(1, 2)
        expr *= sympy.gamma(h + k * (n + eps)) / sympy.gamma(h + k * eps)
    for k in den:
        expr /= (sympy.gamma(1 + k * (n + eps)) / sympy.gamma(1 + k * eps))
    return expr


@pytest.mark.parametrize(
    "case,steps,expected",
    [
        (
            "quartic",
            ((4,), (1, 1, 1, 1)),
            [
                Fraction(247, 4),
                Fraction(10311885, 2048),
                Fraction(61264446845, 98304),
            ],
        ),
        (
            "k3",
            ((3,), (1, 1, 1)),
            [
                Fraction(93, 8),
                Fraction(140733, 1024),
                Fraction(17826355, 8192),
            ],
        ),
    ],
)
def test_tau_matches_gamma_derivative_oracle(case, steps, expected, request):
    pair, _ = _pair(request.getfixturevalue(case))
    eps = sympy.Symbol("eps")
    for n in (1, 2, 3):
        d = sympy.diff(_gamma_term(steps, n, eps), eps)
        val = sympy.simplify(sympy.expand_func(d.subs(eps, 0)))
        assert sympy.Rational(*expected[n - 1].as_integer_ratio()) == val
        # A1(x) = tau(s x)
        assert pair.A1.coeff(n) == expected[n - 1] * pair.scale**n


def test_tau_digamma_numerical_cross_check(quartic):
    pair, _ = _pair(quartic)
    psi = mpmath.digamma
    for n in range(1, 8):
        R = 4 * (psi(0.5 + 4 * n) - psi(0.5)) - 4 * (psi(1 + n) - psi(1))
        exact = pair.A1.coeff(n) / pair.A0.coeff(n)  # = tau_n / omega0_n
        assert abs(float(exact) - float(R)) < 1e-12


def test_frobenius_basics(quartic, eight_hyperplanes, k3):
    for data, scale in [(quartic, 256), (eight_hyperplanes, 256), (k3, 64)]:
        pair, _ = _pair(data, 6)
        assert pair.scale == scale
        assert pair.A1.coeff(0) == 0
        assert pair.A0.coeff(0) == 1
    pair, _ = _pair(eight_hyperplanes, 6)
    tau = [Fraction(1, 4), Fraction(189, 2048), Fraction(4625, 98304)]
    assert [pair.A1.coeff(n) for n in (1, 2, 3)] == [t * 256**n for n, t in enumerate(tau, 1)]


@pytest.mark.parametrize(
    "ell", [(1.7, 1, 1, 1, -4), (1, 1, True, 1, -4)], ids=["float-kernel-entry", "bool-kernel-entry"]
)
def test_frobenius_pair_refuses_floats(ell):
    # a float kernel entry is not truncated to int, nor True read as 1
    exact = frobenius_pair((1, 1, 1, 1, -4), 3)
    assert exact.A0.coeff(1) == 1680  # 105/16 in z, times s = 256
    with pytest.raises(TypeError):
        frobenius_pair(ell, 3)


def test_frobenius_pair_refuses_a_bool_order():
    with pytest.raises(TypeError, match="order must be an integer"):
        frobenius_pair((1, 1, 1, 1, -4), True)


@pytest.mark.parametrize("case", ["quartic", "eight_hyperplanes", "k3"])
def test_log_solution_jointly_annihilated(case, request):
    pair, ell = _pair(request.getfixturevalue(case), 16)
    op = theta_conjugate(ell)
    assert all(not any(p.A) for p in apply(op, omega1_log(pair)))


# ------------------------------------------------------------- mirror map


def test_mirror_map_quartic(quartic):
    pair, _ = _pair(quartic)
    q, z = mirror_map(pair)
    assert [q.coeff(n) for n in (1, 2, 3)] == [
        Fraction(1, 256),
        Fraction(247, 1024),
        Fraction(13386541, 524288),
    ]
    assert [z.coeff(n) for n in (1, 2, 3)] == [256, -4046848, 18282602496]


def test_mirror_map_k3(k3):
    pair, _ = _pair(k3)
    q, _ = mirror_map(pair)
    assert [q.coeff(n) for n in (1, 2, 3)] == [
        Fraction(1, 64),
        Fraction(93, 512),
        Fraction(187605, 65536),
    ]


@pytest.mark.parametrize("case,s", [("quartic", 256), ("k3", 64)])
def test_mirror_map_against_inline_formulas(case, s, request):
    # independent derivation: explicit reciprocal/exp/Lagrange formulas
    pair, _ = _pair(request.getfixturevalue(case))
    omega0, tau = _in_z(pair)
    c1, c2 = omega0.coeff(1), omega0.coeff(2)
    t1, t2, t3 = (tau.coeff(n) for n in (1, 2, 3))
    u1 = t1
    u2 = t2 - t1 * c1
    u3 = t3 - t2 * c1 + t1 * (c1 * c1 - c2)
    q1 = Fraction(1, s)
    q2 = u1 / s
    q3 = (u2 + u1 * u1 / 2) / s
    q4 = (u3 + u1 * u2 + u1**3 / 6) / s
    b1 = 1 / q1
    b2 = -q2 / q1**3
    b3 = (2 * q2 * q2 - q1 * q3) / q1**5
    b4 = (5 * q1 * q2 * q3 - q1 * q1 * q4 - 5 * q2**3) / q1**7
    q, z = mirror_map(pair)
    assert [q.coeff(n) for n in (1, 2, 3, 4)] == [q1, q2, q3, q4]
    assert [z.coeff(n) for n in (1, 2, 3, 4)] == [b1, b2, b3, b4]


def test_mirror_map_round_trip(quartic):
    pair, _ = _pair(quartic)
    q, z = mirror_map(pair)
    assert matches(compose_by_horner(q, z), RationalSeries((0, 1), 10), 8)
    assert matches(compose_by_horner(z, q), RationalSeries((0, 1), 10), 8)


@pytest.mark.parametrize("N", [1, 2, 16, 40])
def test_z_of_q_is_the_reversion_of_q_of_x(quartic, eight_hyperplanes, N):
    # z(q) = s x(q) with x(q) the reversion of q(x) = x exp(A1/A0), formed
    # here by every power of w/q(w), and q(x(q)) = q; at N = 1, w/q(w) has
    # order 0
    for data in (quartic, eight_hyperplanes):
        pair, _ = _pair(data, N)
        q_of_x = (pair.A1 / pair.A0).exp().shift(1)
        x_of_q = reversion_by_powers(q_of_x)
        assert mirror_map(pair)[1] == x_of_q * pair.scale
        assert compose_by_horner(q_of_x, x_of_q) == RationalSeries((0, 1), N)


def test_z_of_q_integrality(quartic, eight_hyperplanes, k3):
    for data in (quartic, eight_hyperplanes, k3):
        pair, _ = _pair(data)
        _, z = mirror_map(pair)
        assert all(z.coeff(n).denominator == 1 for n in range(11))


def test_truncation_stability(quartic):
    # coefficients do not depend on the working order
    short, _ = _pair(quartic, 6)
    long, _ = _pair(quartic, 10)
    q_s, z_s = mirror_map(short)
    q_l, z_l = mirror_map(long)
    assert matches(q_s, q_l, 6) and matches(z_s, z_l, 6)


# ------------------------------------------------------------- Yukawa


def test_yukawa_z_quartic(quartic):
    pair, ell = _pair(quartic)
    op = theta_conjugate(ell)
    Y = yukawa_z(op, pair, 2)
    assert Y.coeff(0) == 2 and Y.coeff(1) == Fraction(1943, 4)
    # Y * omega0^2 * (1 - 256 z) == 2, i.e. unnormalized Yukawa 2/(1-256z)
    omega0, _ = _in_z(pair)
    prod = Y * omega0 * omega0
    geom = RationalSeries([Fraction(256) ** n for n in range(11)], 10)
    assert matches(prod, geom * 2, 10)


def test_yukawa_rejects_nonzero_residue(quartic):
    pair, _ = _pair(quartic, 4)
    bad = ZOperator(
        ((Fraction(0),), (Fraction(0),), (Fraction(0),), (Fraction(1),), (Fraction(1),))
    )
    with pytest.raises(FracmirrorError, match="nonzero residue"):
        yukawa_z(bad, pair, 2)


def test_yukawa_is_unchanged_by_scaling_the_operator(quartic):
    # g = -p3/(2 p4) does not see a constant factor of the operator, so
    # neither does Y; here p4(0) = 3/2
    pair, ell = _pair(quartic, 12)
    op = theta_conjugate(ell)
    scaled = ZOperator(tuple(tuple(c * Fraction(3, 2) for c in p) for p in op.z_polys))
    oracle = a_model_correlation_by_composition(scaled, pair, mirror_map(pair)[1], 2)
    assert yukawa_z(scaled, pair, 2) == yukawa_z(op, pair, 2) == oracle.Y_z


def test_classical_normalization():
    # K(0) = 2: the covering degree 2 times the base's top self-intersection 1
    C = _normalization(JobConfig("yukawa", "input.json"))
    assert C == 2 and type(C) is Fraction


def test_a_model_quartic(quartic):
    pair, ell = _pair(quartic)
    op = theta_conjugate(ell)
    data = a_model_correlation(op, pair, 2)
    assert data.C == 2
    assert [data.K_q.coeff(n) for n in range(4)] == [
        2,
        29504,
        1030708800,
        38440454795264,
    ]
    assert data.K_q.N == pair.N - 1


def test_a_model_eight_hyperplanes(eight_hyperplanes):
    pair, ell = _pair(eight_hyperplanes)
    op = theta_conjugate(ell)
    data = a_model_correlation(op, pair, 2)
    assert [data.K_q.coeff(n) for n in range(6)] == [
        2,
        64,
        9792,
        1404928,
        205641280,
        30593496064,
    ]


def test_a_model_integrality(quartic):
    pair, ell = _pair(quartic)
    op = theta_conjugate(ell)
    data = a_model_correlation(op, pair, 2)
    assert all(data.K_q.coeff(n).denominator == 1 for n in range(10))


@pytest.mark.parametrize(
    "case,first",
    [
        ("quartic", [29504, 128834912, 1423720546880]),
        ("eight_hyperplanes", [64, 1216, 52032]),
    ],
)
def test_instanton_numbers_are_integers(case, first, request):
    # multiple-cover formula K(q) = C + sum_d n_d d^3 q^d / (1 - q^d):
    # [q^k] K = sum_(d | k) n_d d^3, solved for n_k one order at a time
    pair, ell = _pair(request.getfixturevalue(case), 11)
    op = theta_conjugate(ell)
    K = a_model_correlation(op, pair, 2).K_q
    assert K.N == 10
    n = {}
    for k in range(1, 11):
        rest = sum(n[d] * d**3 for d in range(1, k) if k % d == 0)
        n[k] = (K.coeff(k) - rest) / k**3
    assert all(v.denominator == 1 for v in n.values())
    assert [n[1], n[2], n[3]] == first


def test_json_shapes(quartic):
    pair, ell = _pair(quartic, 4)
    op = theta_conjugate(ell)
    data = a_model_correlation(op, pair, 2)
    dj = data.to_json()
    assert dj["C"] == "2" and set(dj) == {"C", "Y_z", "K_q"}


# ------------------------------------------------------------- x = z/s


@pytest.mark.parametrize("N", [0, 1, 16])
def test_dilate_matches_scale_arg(N):
    rng = random.Random(N)
    f = RationalSeries(
        [Fraction(rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(N + 1)], N
    )
    for s in (256, 64, 27, 1):
        assert _dilate(f, s) == scale_arg(f, s)
        assert _dilate(f, 1, s) == scale_arg(f, Fraction(1, s))
        assert _dilate(_dilate(f, s), 1, s) == f
        assert _dilate(_dilate(f, 1, s), s) == f
    assert _dilate(f, 3, 4) == scale_arg(f, Fraction(3, 4))


def _one_parameter_cases(quartic, eight_hyperplanes, k3):
    """(label, ell, GKZ system, orders): every accepted one-parameter
    partition of ``_random_set_partitions`` at N = 1, 2, 9 and 16, and the
    three bundled inputs at N = 40."""
    cases = []
    for name, delta, parts in _random_set_partitions():
        if validate_nef_partition(delta, parts):
            continue
        g = build_gkz(NefPartition(delta, parts))
        if len(g.kernel) == 1:
            cases.append(((name, tuple(parts)), g.kernel[0], g, (1, 2, 9, 16)))
    assert len(cases) == 50
    for label, data in (("quartic", quartic), ("eight", eight_hyperplanes), ("k3", k3)):
        g = build_gkz(data)
        cases.append((label, *g.kernel, g, (40,)))
    return cases


def test_x_route_equals_z_route(quartic, eight_hyperplanes, k3):
    # q(z), z(q), Y_z and K(q) formed in x = z/s from the I-function's slices
    # equal the same series formed in z from the kernel at scale 1, exactly,
    # on every one-parameter input; about half are threefolds
    threefolds = 0
    for label, ell, _, orders in _one_parameter_cases(quartic, eight_hyperplanes, k3):
        op = theta_conjugate(ell)
        threefolds += op.degree == 4
        for N in orders:
            pair = frobenius_pair(ell, N)
            q, z = mirror_map(pair)
            assert (q, z) == mirror_map_in_z(ell, N), (label, N)
            if op.degree == 4:
                data = a_model_correlation(op, pair, 2)
                assert data == a_model_correlation_in_z(op, ell, N, z, 2), (label, N)
    assert threefolds == 27


def test_closed_form_equals_composition(quartic, eight_hyperplanes, k3):
    # Y_z = C/(p4 omega0^2) and K(q) by Lagrange-Buermann over the powers of
    # h = exp(-A1/A0) equal the ODE solution C exp(antitheta g)/omega0^2 and
    # the composition Y_x(x(q)) (theta_q log x(q))^3, exactly, on every
    # threefold operator
    threefolds = 0
    for label, ell, _, _ in _one_parameter_cases(quartic, eight_hyperplanes, k3):
        op = theta_conjugate(ell)
        if op.degree != 4:
            continue
        threefolds += 1
        for N in (1, 2, 3, 4, 12, 16, 32):
            pair = frobenius_pair(ell, N)
            oracle = a_model_correlation_by_composition(op, pair, mirror_map(pair)[1], 2)
            assert a_model_correlation(op, pair, 2) == oracle, (label, N)
    assert threefolds == 27


def test_deformed_solution_at_s_x_is_the_i_function(quartic, eight_hyperplanes, k3):
    # Legendre duplication: prod_(t=1)^(2M) (2a + t) = 4^M prod_(j=1)^M (a + j)
    # prod_(j=0)^(M-1) (a + 1/2 + j) turns each half-integer factor of the
    # B-series kernel into the I-function's weight pair 2k over k, so every
    # eps-slice of the deformed solution at z = s x is the I-function's slice,
    # here with every weight its own factor
    for label, ell, _, orders in _one_parameter_cases(quartic, eight_hyperplanes, k3):
        s = 4 ** sum(-le for le in ell if le < 0)
        m = sum(le for le in ell if le > 0) + 1
        weights = i_weights_from_kernel(ell)
        for N in orders:
            B, I = deformed_solution(ell, N, m), i_function_by_weights(*weights, m, N)
            for k in range(m):
                assert _dilate(B[k], s) == I[k], (label, N, k)


def test_k3_mirror_map_is_modular(capsys):
    # the K3's mirror map is 64/j(q) and omega0(z(q))^2 is E_4(q) (Lian and
    # Yau 1995, by Clausen's identity): a reference at any order that shares
    # no code with the series layer
    def printed(N):
        assert main(["mirror-map", str(DATA / "p2_k3.json"), "-N", str(N), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        return [[Fraction(c) for c in doc[key]["coeffs"]] for key in ("z_of_q", "omega0")]

    z, _ = printed(64)
    assert z == k3_mirror_map_by_j(64)
    z, omega0 = printed(32)
    # omega0(z(q)) by Horner's rule, through q^32
    w = [Fraction(0)] * 33
    for c in reversed(omega0):
        w = [c * (n == 0) + sum(w[k] * z[n - k] for k in range(n)) for n in range(33)]
    assert [sum(w[k] * w[n - k] for k in range(n + 1)) for n in range(33)] == eisenstein_e4(32)
