"""Truncated power series over Q, and series over Q[eps]/(eps^m) as their eps-slices."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    EpsPoly,
    antitheta,
    compose_by_horner,
    eps_slices,
    exp_term_by_term,
    inverse_term_by_term,
    matches,
    product_term_by_term,
    reversion_by_composition,
    reversion_by_powers,
    scale_arg,
    slices_json_dict,
    slices_of,
    theta_log,
)

from fracmirror.cli import _json_text
from fracmirror.cohom import b_series_json, slices_json
from fracmirror.gkz import hypergeometric_series
from fracmirror.series import RationalSeries, _coeff_strs, _lagrange, fraction_str, parse_fraction


def geometric(N):
    return RationalSeries([1] * (N + 1), N)


def lagrange_reversion(f):
    """The compositional inverse of f (f_0 = 0, f_1 != 0) the way
    ``mirror.mirror_map`` forms z(q): ``series._lagrange`` of h = w / f(w)."""
    return _lagrange(RationalSeries(f.c[1:], f.N - 1).inverse(), 1)


def log(g):
    """log g for g_0 = 1, as the antitheta of the logarithmic derivative."""
    return antitheta(g.theta() / g)


def rand_series(rng, N, zero_const=False):
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(N + 1)]
    if zero_const:
        coeffs[0] = Fraction(0)
    return RationalSeries(coeffs, N)


# ---------------------------------------------------------------- fractions


def test_fraction_text_round_trip():
    for s in ("3", "-3", "105/16", "-247/4", "0"):
        assert fraction_str(parse_fraction(s)) == s


def test_fraction_str_refuses_floats():
    # 0.5 is refused, not printed as the fraction it happens to equal
    assert fraction_str(2) == "2" and fraction_str("6/4") == "3/2"
    with pytest.raises(TypeError):
        fraction_str(0.5)


def test_series_operands_are_series_or_rational_scalars():
    # + and * take a series or what parse_fraction reads; a float or a bool
    # is refused, not converted to the fraction it happens to equal.  / takes
    # a series only: a scalar x divides as * (1/x)
    s = RationalSeries([1, 2], 3)
    assert s / RationalSeries([2], 5) == s * Fraction(1, 2)
    for x in (2, Fraction(1, 2), "1/2", 0.5):
        with pytest.raises(AttributeError):
            s / x
    assert s + 1 == 1 + s == s + "1" == RationalSeries([2, 2], 3)
    assert s * Fraction(1, 2) == Fraction(1, 2) * s == RationalSeries([Fraction(1, 2), 1], 3)
    for x in (0.5, 2.0, True, False):
        for op in (lambda: s + x, lambda: x + s, lambda: s * x, lambda: x * s):
            with pytest.raises(TypeError):
                op()


# --------------------------------------------- EpsPoly (the oracles' ring)


def test_epspoly_truncation_and_arithmetic():
    e = EpsPoly.eps(3)
    assert (e * e * e).is_zero
    x = EpsPoly(3, (1, 2, 3))
    y = EpsPoly(3, (0, 1, 0))
    assert (x * y).c == (0, 1, 2)
    assert (x + y).c == (1, 3, 3)
    assert (x - x).is_zero
    assert x.coeff(2) == 3 and x.coeff(99) == 0


def test_epspoly_inverse():
    x = EpsPoly(4, (1, 1, 0, 0))
    inv = x.invert()
    assert (x * inv).c == (1, 0, 0, 0)
    with pytest.raises(ValueError, match="not invertible"):
        EpsPoly(3, (0, 1, 0)).invert()


def test_epspoly_order_mismatch():
    with pytest.raises(ValueError):
        EpsPoly(3, (1,)) + EpsPoly(4, (1,))
    # elements of different rings are unequal, not an error
    assert EpsPoly(2, (1,)) != EpsPoly(3, (1,))
    assert not EpsPoly(2, (1,)) == EpsPoly(3, (1,))
    assert EpsPoly(2, (1,)) == EpsPoly(2, (1, 0)) == 1


def test_constant_epspoly_hashes_like_its_value():
    # EpsPoly(2, (1,)) == 1, so sets and dicts must treat them as one key
    assert len({EpsPoly(2, (1,)), 1}) == 1
    assert {1: "x"}.get(EpsPoly(2, (1,))) == "x"
    assert hash(EpsPoly(3, (Fraction(1, 2),))) == hash(Fraction(1, 2))


# ------------------------------------------------------------- ring axioms


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(15):
        N = rng.randint(3, 8)
        a, b, c = (rand_series(rng, N) for _ in range(3))
        assert matches((a + b) + c, a + (b + c), N)
        assert matches(a * b, b * a, N)
        assert matches((a * b) * c, a * (b * c), N)
        assert matches(a * (b + c), a * b + a * c, N)
        assert not any((a + -a).A)


def test_truncation_takes_minimum_order():
    a = RationalSeries([1, 1, 1], 2)
    b = RationalSeries([1, 2, 3, 4, 5], 4)
    assert (a + b).N == 2
    assert (a * b).N == 2
    with pytest.raises(ValueError, match="cannot extend"):
        a.truncate(3)


# ---------------------------------------------------------- transcendental


def test_geometric_inverse():
    N = 12
    g = geometric(N)
    one_minus_z = RationalSeries([1, -1] + [0] * (N - 1), N)
    assert matches(g * one_minus_z, RationalSeries((1,), N), N)
    assert matches(one_minus_z.inverse(), g, N)


def test_exp_log_round_trip():
    rng = random.Random(21)
    for _ in range(8):
        N = rng.randint(4, 10)
        f = rand_series(rng, N, zero_const=True)
        assert matches(log(f.exp()), f, N)
        g = rand_series(rng, N)
        g = g + -RationalSeries([g.coeff(0) - 1], 0).truncate(0)  # force c0 = 1
        coeffs = [Fraction(1)] + [g.coeff(i) for i in range(1, N + 1)]
        g = RationalSeries(coeffs, N)
        assert matches(log(g).exp(), g, N)


def test_exp_log_preconditions():
    with pytest.raises(ValueError, match="exp needs a zero constant term"):
        RationalSeries([1, 1], 1).exp()


def test_theta_antitheta():
    f = RationalSeries([5, 1, 2, 3], 3)
    assert matches(f.theta(), RationalSeries([0, 1, 4, 9], 3), 3)
    g = RationalSeries([0, 1, 4, 9], 3)
    assert matches(antitheta(g), RationalSeries([0, 1, 2, 3], 3), 3)
    with pytest.raises(ValueError, match="antitheta needs a zero constant term"):
        antitheta(RationalSeries([1, 1], 1))


def test_shift_and_scale_arg():
    f = RationalSeries([1, 2, 3], 2)
    assert f.shift(1).coeff(1) == 1 and f.shift(1).coeff(0) == 0
    with pytest.raises(ValueError, match="division by z"):
        f.shift(-1)
    s = scale_arg(f, 2)
    assert [s.coeff(i) for i in range(3)] == [1, 4, 12]


def test_compose():
    # the Horner oracle that the reversion and A-model tests compose with
    N = 8
    inner = RationalSeries([0, 1, 1] + [0] * (N - 2), N)
    f = geometric(N)
    comp = compose_by_horner(f, inner)
    # 1/(1-(z+z^2)) expanded directly
    expect = RationalSeries((1,), N)
    acc = RationalSeries((1,), N)
    for _ in range(N):
        acc = acc * inner
        expect = expect + acc
    assert matches(comp, expect, N)


def test_reversion_round_trip_and_catalan():
    N = 16
    rng = random.Random(33)
    for _ in range(4):
        coeffs = [Fraction(0), Fraction(rng.choice([1, -1, 2]))] + [
            Fraction(rng.randint(-4, 4)) for _ in range(N - 1)
        ]
        f = RationalSeries(coeffs, N)
        g = lagrange_reversion(f)
        assert matches(compose_by_horner(f, g), RationalSeries((0, 1), N), N)
        assert matches(compose_by_horner(g, f), RationalSeries((0, 1), N), N)
    q = RationalSeries([0, 1, 1, 0, 0], 4)
    z_of_q = lagrange_reversion(q)
    assert [z_of_q.coeff(i) for i in range(5)] == [0, 1, -1, 2, -5]


# ------------------------------------------------------- series properties

_coeffs = st.integers(-5, 5)


@st.composite
def _unit_series(draw):
    """Constant term 1, small integer coefficients, order N <= 8."""
    N = draw(st.integers(1, 8))
    return RationalSeries([1] + draw(st.lists(_coeffs, min_size=N, max_size=N)), N)


@st.composite
def _invertible_series(draw):
    """Zero constant term and a nonzero linear coefficient, order N <= 8."""
    N = draw(st.integers(1, 8))
    c1 = draw(_coeffs.filter(bool))
    tail = draw(st.lists(_coeffs, min_size=N - 1, max_size=N - 1))
    return RationalSeries([0, c1] + tail, N)


@settings(max_examples=40, deadline=None)
@given(_invertible_series())
def test_reversion_is_a_two_sided_inverse(s):
    z = RationalSeries((0, 1), s.N)
    assert matches(compose_by_horner(s, lagrange_reversion(s)), z, s.N)
    assert matches(compose_by_horner(lagrange_reversion(s), s), z, s.N)


_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def _series(draw, max_order=10, zero_const=False):
    """Rational coefficients, order 1 <= N <= max_order."""
    N = draw(st.integers(1, max_order))
    coeffs = draw(st.lists(_fractions, min_size=N + 1, max_size=N + 1))
    if zero_const:
        coeffs[0] = 0
    return RationalSeries(coeffs, N)


@settings(max_examples=40, deadline=None)
@given(_series(zero_const=True))
def test_reversion_matches_composition_oracle(s):
    if s.coeff(1) == 0:
        s = s + RationalSeries([0, 1], s.N)
    assert lagrange_reversion(s) == reversion_by_composition(s)


@settings(max_examples=40, deadline=None)
@given(_unit_series())
def test_exp_undoes_log(s):
    assert log(s).exp() == s


# ------------------------------------------- integer kernels vs Fraction loops

# mixed denominators up to 50, negative coefficients and many zeros
_q_coeffs = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=50),
)


@st.composite
def _q_series(draw, const=None):
    """Order 0 <= N <= 12, sometimes the zero series; ``const`` fixes c0."""
    N = draw(st.integers(0, 12))
    if draw(st.integers(0, 9)) == 0:
        coeffs = [0] * (N + 1)
    else:
        coeffs = draw(st.lists(_q_coeffs, min_size=N + 1, max_size=N + 1))
    if const is not None:
        coeffs[0] = draw(const)
    return RationalSeries(coeffs, N)


def _same_reduced_fractions(s, oracle):
    assert s.N == oracle.N and s.c == oracle.c
    assert all(
        type(x) is Fraction and x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1
        for x in s.c
    )


_nonzero = st.fractions(min_value=-50, max_value=50, max_denominator=50).filter(bool)


@settings(max_examples=60, deadline=None)
@given(_q_series(), _q_series())
def test_product_matches_fraction_loop(a, b):
    _same_reduced_fractions(a * b, product_term_by_term(a, b))
    _same_reduced_fractions(a * a, product_term_by_term(a, a))


@settings(max_examples=60, deadline=None)
@given(_q_series(const=st.one_of(st.just(Fraction(3, 7)), _nonzero)))
def test_inverse_matches_fraction_loop(f):
    _same_reduced_fractions(f.inverse(), inverse_term_by_term(f))


@settings(max_examples=60, deadline=None)
@given(_q_series(const=st.just(Fraction(0))))
def test_exp_matches_fraction_loop(f):
    _same_reduced_fractions(f.exp(), exp_term_by_term(f))


_integral_series = st.lists(st.integers(-(2**70), 2**70), min_size=1).map(RationalSeries)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_q_series(), _integral_series))
def test_coeff_strs_match_fraction_str(s):
    # zero and integral series (D == 1) are written from their numerators;
    # numerators and denominator need not be in lowest terms
    assert _coeff_strs(s.A, s.D) == [fraction_str(c) for c in s.c]
    assert _coeff_strs([6 * a for a in s.A], 6 * s.D) == [fraction_str(c) for c in s.c]


def test_kernels_match_fraction_loops_on_wide_coefficients():
    # order 40 with numerators of several hundred bits over powers of a scale
    # times small factors, the shape of deep mirror-map coefficients
    rng = random.Random(40)
    N = 40

    def wide(n):
        return Fraction(rng.choice((-1, 1)) * rng.getrandbits(300 + 8 * n), 256**n * rng.randint(1, 50))

    a, b = (RationalSeries([wide(n) for n in range(N + 1)], N) for _ in range(2))
    _same_reduced_fractions(a * b, product_term_by_term(a, b))
    _same_reduced_fractions(a.inverse(), inverse_term_by_term(a))
    f = a + -a.coeff(0)
    _same_reduced_fractions(f.exp(), exp_term_by_term(f))
    assert max(x.numerator.bit_length() for x in (a * b).c) > 800


# ------------------------------------------------ canonical (N, A, D) form

# zeros, negatives, small denominators and numerators and denominators of
# over a hundred bits
_canon_coeffs = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=50),
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**30)),
)


@st.composite
def _canon_series(draw):
    """Order 0 <= N <= 7, sometimes the zero series."""
    N = draw(st.integers(0, 7))
    if draw(st.integers(0, 9)) == 0:
        return RationalSeries((), N)
    return RationalSeries(draw(st.lists(_canon_coeffs, min_size=N + 1, max_size=N + 1)), N)


def _same_canonical(s, oracle):
    """s is in canonical form and equals the series the Fraction oracle built."""
    assert s.D > 0 and math.gcd(s.D, *s.A) == 1 and len(s.A) == s.N + 1
    assert s.c == oracle.c and s == oracle and hash(s) == hash(oracle)


@settings(max_examples=60, deadline=None)
@given(_canon_series(), _canon_series(), _canon_coeffs, st.integers(0, 3))
def test_every_operation_returns_the_canonical_form(a, b, x, j):
    N = min(a.N, b.N)
    f = a + -a.coeff(0)
    cases = [
        (a * b, product_term_by_term(a, b)),
        (a + b, RationalSeries([p + q for p, q in zip(a.c, b.c)], N)),
        (a + -b, RationalSeries([p - q for p, q in zip(a.c, b.c)], N)),
        (a * x, RationalSeries([p * x for p in a.c], a.N)),
        (a + x, RationalSeries([a.c[0] + x, *a.c[1:]], a.N)),
        (f, RationalSeries([0, *a.c[1:]], a.N)),
        (a.theta(), RationalSeries([n * p for n, p in enumerate(a.c)], a.N)),
        (a.shift(j), RationalSeries([0] * j + list(a.c), a.N)),
        (a.truncate(N), RationalSeries(a.c[: N + 1], N)),
        (f.exp(), exp_term_by_term(f)),
    ]
    if a.c[0]:
        cases.append((a.inverse(), inverse_term_by_term(a)))
    if f.N >= 1 and f.c[1]:
        cases.append((lagrange_reversion(f), reversion_by_composition(f)))
    for s, oracle in cases:
        _same_canonical(s, oracle)


# ------------------------------- baby-step/giant-step powers vs every power


def _draw_series(draw, N, zero_const=False):
    """Order N over ``_canon_coeffs``, the zero series with chance 1/10."""
    if draw(st.integers(0, 9)) == 0:
        return RationalSeries((), N)
    coeffs = draw(st.lists(_canon_coeffs, min_size=N + 1, max_size=N + 1))
    if zero_const:
        coeffs[0] = 0
    return RationalSeries(coeffs, N)


def _same_triple(s, oracle):
    """The same canonical (N, A, D) and the same hash."""
    assert s.D > 0 and math.gcd(s.D, *s.A) == 1
    assert (s.N, s.A, s.D) == (oracle.N, oracle.A, oracle.D)
    assert s == oracle and hash(s) == hash(oracle)


# every order through 25, so each block boundary N = m^2, m^2 +- 1 of
# m = isqrt(N) up to m = 5 is met
@pytest.mark.parametrize("N", range(26))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_compose_matches_horner(N, data):
    # Lagrange-Buermann's phi-form, which a_model_correlation reads K(q) off:
    # with x(q) the solution of x = q h(x), F(x(q)) = sum_n q^n [w^n] G h^n
    # for G = F (1 - theta(h)/h), so _lagrange(h, 0, G) is F composed with
    # x(q); x(q) is the reversion of w/h(w), and 0 at order 0
    F = _draw_series(data.draw, N)
    h = _draw_series(data.draw, N)
    h = h + (data.draw(_canon_coeffs.filter(bool)) - h.coeff(0))
    x = reversion_by_powers(h.inverse().shift(1)) if N else RationalSeries((), 0)
    G = F * (1 + -(h.theta() / h))
    _same_triple(_lagrange(h, 0, G), compose_by_horner(F, x))


@pytest.mark.parametrize("N", range(1, 26))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_reversion_matches_every_power(N, data):
    f = _draw_series(data.draw, N, zero_const=True)
    c1 = data.draw(_canon_coeffs.filter(bool))
    f = f + RationalSeries([0, c1 - f.coeff(1)], N)
    _same_triple(lagrange_reversion(f), reversion_by_powers(f))


def test_zero_series_is_zeros_over_one():
    a = RationalSeries([Fraction(1, 3), Fraction(-5, 7)], 1)
    for zero in (a + -a, a * 0, RationalSeries((), 1), RationalSeries([0, 0])):
        assert (zero.A, zero.D) == ((0, 0), 1)


def test_truncation_divides_out_the_content_of_the_prefix():
    # 1/2 + z/3 is (3, 2)/6; its order-0 prefix is 3/6 = 1/2
    s = RationalSeries([Fraction(1, 2), Fraction(1, 3)]).truncate(0)
    assert s == RationalSeries([Fraction(1, 2)])
    assert (s.A, s.D) == ((1,), 2)


# ----------------------------------------------------------- nilpotent part


@pytest.mark.parametrize(
    "build",
    [
        lambda: RationalSeries([1, 2, 3], 2.5),
        lambda: RationalSeries((), 3.0),
        lambda: EpsPoly(2.7, (1, 2)),
        lambda: hypergeometric_series([], [], 2.9, 1),
        lambda: hypergeometric_series([], [], 2, 1.5),
    ],
    ids=["series-N", "zero-N", "epspoly-m", "nilpotent-m", "nilpotent-N"],
)
def test_orders_refuse_floats(build):
    # a float order is refused, not truncated to int
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: RationalSeries([1, 2, 3], True),
        lambda: RationalSeries((), False),
        lambda: EpsPoly(True, (1, 2)),
        lambda: hypergeometric_series([], [], True, 1),
        lambda: hypergeometric_series([], [], 2, True),
    ],
    ids=["series-N", "zero-N", "epspoly-m", "nilpotent-m", "nilpotent-N"],
)
def test_orders_refuse_bools(build):
    # a bool is an int subclass, but True is no series order
    with pytest.raises(TypeError, match="order must be an integer"):
        build()


def _eps_coefficients(rng, m, N):
    """N + 1 EpsPoly coefficients; each eps-slice is zero with chance 1/3."""
    zero = {k for k in range(m) if rng.random() < 1 / 3}
    return [
        EpsPoly(
            m,
            [0 if k in zero or rng.random() < 0.2 else Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for k in range(m)],
        )
        for _ in range(N + 1)
    ]


def test_slice_operations_match_epspoly_route():
    # a series over Q[eps]/(eps^m) is the tuple of its m eps-slices; the
    # slice-wise operations and the written JSON must agree with the same
    # operation done coefficient by coefficient on EpsPoly values
    rng = random.Random(2022)
    zero_slices = 0
    for _ in range(200):
        m = rng.randint(1, 4)
        A = _eps_coefficients(rng, m, rng.randint(0, 10))
        B = _eps_coefficients(rng, m, rng.randint(0, 10))
        a, b = eps_slices(A, len(A) - 1), eps_slices(B, len(B) - 1)
        N = min(len(A), len(B)) - 1
        zero_slices += sum(not any(s.A) for s in a)
        assert [EpsPoly(m, [s.coeff(n) for s in a]) for n in range(len(A))] == A
        assert tuple(x + y for x, y in zip(a, b)) == eps_slices([x + y for x, y in zip(A, B)], N)
        assert tuple(x + -y for x, y in zip(a, b)) == eps_slices([x - y for x, y in zip(A, B)], N)
        assert tuple(s + c for s, c in zip(a, B[0].c)) == eps_slices([A[0] + B[0]] + A[1:], a[0].N)
        c = B[0].c[0]
        assert tuple(s * c for s in a) == eps_slices([x * c for x in A], a[0].N)
        assert tuple(s.theta() for s in a) == eps_slices([x * n for n, x in enumerate(A)], a[0].N)
        j = rng.randint(0, a[0].N + 1)
        assert tuple(s.shift(j) for s in a) == eps_slices([EpsPoly(m)] * j + A, a[0].N)
        # the dict oracle on the slices, and the text writer on the same
        # coefficients handed over by order
        doc = {"N": a[0].N, "coeffs": [[fraction_str(y) for y in x.c] for x in A], "m": m}
        assert slices_json_dict(a) == doc
        assert _json_text(slices_json(slices_of(A))) == json.dumps(doc, indent=2, sort_keys=True)
    assert zero_slices > 100


def test_nilpotent_series_slices():
    m = 3
    coeffs = [EpsPoly(m, (1, 0, 0)), EpsPoly(m, (2, 3, 0)), EpsPoly(m, (0, 0, 4))]
    f = eps_slices(coeffs, 2)
    assert matches(f[0], RationalSeries([1, 2, 0], 2), 2)
    assert matches(f[1], RationalSeries([0, 3, 0], 2), 2)
    assert matches(f[2], RationalSeries([0, 0, 4], 2), 2)


# ------------------------------------------------------- log-extended series


def test_log_series_theta_product_rule():
    # L = f0 + f1*Lambda with theta(Lambda) = 1
    f0 = RationalSeries([1, 2, 3], 2)
    f1 = RationalSeries([4, 5, 6], 2)
    T = theta_log([f0, f1])
    assert matches(T[0], f0.theta() + f1, 2)
    assert matches(T[1], f1.theta(), 2)


# ------------------------------------------------------------------ JSON


def test_series_json_shapes():
    f = RationalSeries([1, Fraction(1, 2)], 1)
    assert f.to_json() == {"N": 1, "coeffs": ["1", "1/2"]}
    j = json.loads(_json_text(slices_json(slices_of([EpsPoly(2, (1, 2))]))))
    assert j["m"] == 2 and j["coeffs"][0] == ["1", "2"]
    ff = slices_of([EpsPoly(2, (1, 1)), EpsPoly(2, (Fraction(1, 2),) * 2)])
    jl = json.loads(_json_text(b_series_json(ff)))
    assert jl["parts"][1]["log_power"] == 1
    assert jl["parts"][1]["coeffs"] == [["0", "1"], ["0", "1/2"]]
