"""Truncated power series over Q and over nilpotent rings."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    exp_term_by_term,
    inverse_term_by_term,
    matches,
    nilpotent_product_term_by_term,
    product_term_by_term,
    reversion_by_composition,
    scale_arg,
)

from fracmirror.errors import FracmirrorError
from fracmirror.series import (
    EpsPoly,
    LogSeries,
    NilpotentSeries,
    RationalSeries,
    fraction_str,
    parse_fraction,
)


def geometric(N):
    return RationalSeries([1] * (N + 1), N)


def rand_series(rng, N, zero_const=False):
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(N + 1)]
    if zero_const:
        coeffs[0] = Fraction(0)
    return RationalSeries(coeffs, N)


# ---------------------------------------------------------------- fractions


def test_fraction_text_round_trip():
    for s in ("3", "-3", "105/16", "-247/4", "0"):
        assert fraction_str(parse_fraction(s)) == s


# ---------------------------------------------------------------- EpsPoly


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
        assert (a - a).is_zero()


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
    assert matches(g * one_minus_z, RationalSeries.one(N), N)
    assert matches(one_minus_z.inverse(), g, N)


def test_exp_log_round_trip():
    rng = random.Random(21)
    for _ in range(8):
        N = rng.randint(4, 10)
        f = rand_series(rng, N, zero_const=True)
        assert matches(f.exp().log(), f, N)
        g = rand_series(rng, N)
        g = g - RationalSeries([g.coeff(0) - 1], 0).truncate(0)  # force c0 = 1
        coeffs = [Fraction(1)] + [g.coeff(i) for i in range(1, N + 1)]
        g = RationalSeries(coeffs, N)
        assert matches(g.log().exp(), g, N)


def test_exp_log_preconditions():
    with pytest.raises(ValueError, match="exp needs a zero constant term"):
        RationalSeries([1, 1], 1).exp()
    with pytest.raises(ValueError, match="log needs constant term 1"):
        RationalSeries([2, 1], 1).log()


def test_theta_antitheta():
    f = RationalSeries([5, 1, 2, 3], 3)
    assert matches(f.theta(), RationalSeries([0, 1, 4, 9], 3), 3)
    g = RationalSeries([0, 1, 4, 9], 3)
    assert matches(g.antitheta(), RationalSeries([0, 1, 2, 3], 3), 3)
    with pytest.raises(ValueError, match="antitheta needs a zero constant term"):
        RationalSeries([1, 1], 1).antitheta()


def test_shift_and_scale_arg():
    f = RationalSeries([1, 2, 3], 2)
    assert f.shift(1).coeff(1) == 1 and f.shift(1).coeff(0) == 0
    with pytest.raises(ValueError, match="division by z"):
        f.shift(-1)
    s = scale_arg(f, 2)
    assert [s.coeff(i) for i in range(3)] == [1, 4, 12]


def test_compose():
    N = 8
    inner = RationalSeries([0, 1, 1] + [0] * (N - 2), N)
    f = geometric(N)
    comp = f.compose(inner)
    # 1/(1-(z+z^2)) expanded directly
    expect = RationalSeries.one(N)
    acc = RationalSeries.one(N)
    for _ in range(N):
        acc = acc * inner
        expect = expect + acc
    assert matches(comp, expect, N)
    with pytest.raises(ValueError, match="zero inner constant term"):
        f.compose(RationalSeries([1, 1], 1))


def test_reversion_round_trip_and_catalan():
    N = 16
    rng = random.Random(33)
    for _ in range(4):
        coeffs = [Fraction(0), Fraction(rng.choice([1, -1, 2]))] + [
            Fraction(rng.randint(-4, 4)) for _ in range(N - 1)
        ]
        f = RationalSeries(coeffs, N)
        g = f.reversion()
        assert matches(f.compose(g), RationalSeries.z(N), N)
        assert matches(g.compose(f), RationalSeries.z(N), N)
    q = RationalSeries([0, 1, 1, 0, 0], 4)
    z_of_q = q.reversion()
    assert [z_of_q.coeff(i) for i in range(5)] == [0, 1, -1, 2, -5]
    with pytest.raises(ValueError, match="invertible linear coefficient"):
        RationalSeries([0, 0, 1], 2).reversion()


def test_reversion_needs_order_at_least_one():
    with pytest.raises(FracmirrorError, match="order N >= 1"):
        RationalSeries([0], 0).reversion()
    assert RationalSeries([0, 2], 1).reversion() == RationalSeries([0, Fraction(1, 2)], 1)


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
    z = RationalSeries.z(s.N)
    assert matches(s.compose(s.reversion()), z, s.N)
    assert matches(s.reversion().compose(s), z, s.N)


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
    assert s.reversion() == reversion_by_composition(s)


@settings(max_examples=40, deadline=None)
@given(
    _series(max_order=8),
    _series(max_order=8, zero_const=True),
    _series(max_order=8, zero_const=True),
)
def test_compose_is_associative(f, g, h):
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


@settings(max_examples=40, deadline=None)
@given(_unit_series())
def test_exp_undoes_log(s):
    assert s.log().exp() == s


@settings(max_examples=40, deadline=None)
@given(_unit_series())
def test_theta_of_log_is_logarithmic_derivative(s):
    # a_model_correlation takes theta log v as theta(v)/v
    assert s.log().theta() == s.theta() / s


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
    f = a - a.coeff(0)
    _same_reduced_fractions(f.exp(), exp_term_by_term(f))
    assert max(x.numerator.bit_length() for x in (a * b).c) > 800


# ----------------------------------------------------------- nilpotent part


@pytest.mark.parametrize(
    "build",
    [
        lambda: RationalSeries([1, 2, 3], 2.5),
        lambda: RationalSeries.zero(3.0),
        lambda: EpsPoly(2.7, (1, 2)),
        lambda: NilpotentSeries(2.9, [1], 1),
        lambda: NilpotentSeries(2, [1], 1.5),
    ],
    ids=["series-N", "zero-N", "epspoly-m", "nilpotent-m", "nilpotent-N"],
)
def test_orders_refuse_floats(build):
    # a float order is refused, not truncated to int
    with pytest.raises(TypeError):
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
    # a NilpotentSeries is its m eps-slices; every operation must agree with
    # the same operation done coefficient by coefficient on EpsPoly values
    rng = random.Random(2022)
    zero_slices = 0
    for _ in range(200):
        m = rng.randint(1, 4)
        A = _eps_coefficients(rng, m, rng.randint(0, 10))
        B = _eps_coefficients(rng, m, rng.randint(0, 10))
        a, b = NilpotentSeries(m, A), NilpotentSeries(m, B)
        N = min(a.N, b.N)
        zero_slices += sum(s.is_zero() for s in a.slices)
        assert a.c == tuple(A) and (a.m, a.N) == (m, len(A) - 1)
        assert NilpotentSeries.from_slices(a.eps_slice(k) for k in range(m)) == a
        assert a * b == nilpotent_product_term_by_term(a, b)
        assert a * a == nilpotent_product_term_by_term(a, a)
        assert a + b == NilpotentSeries(m, [x + y for x, y in zip(A, B)], N)
        assert a - b == NilpotentSeries(m, [x - y for x, y in zip(A, B)], N)
        assert a + B[0] == NilpotentSeries(m, [A[0] + B[0]] + A[1:])
        assert a * B[0] == NilpotentSeries(m, [x * B[0] for x in A])
        assert a.theta() == NilpotentSeries(m, [x * n for n, x in enumerate(A)])
        j = rng.randint(0, a.N + 1)
        assert a.shift(j) == NilpotentSeries(m, [EpsPoly(m)] * j + A, a.N)
        assert a.to_json() == {"N": a.N, "coeffs": [x.to_json() for x in A], "m": m}
    assert zero_slices > 100


def test_nilpotent_series_refuses_mixed_orders():
    a = NilpotentSeries(2, [1, 2])
    with pytest.raises(TypeError, match="different coefficient rings"):
        a + NilpotentSeries(3, [1, 2])
    with pytest.raises(TypeError):
        a * RationalSeries([1, 2])
    with pytest.raises(ValueError, match="at least one eps-slice"):
        NilpotentSeries.from_slices([])


def test_nilpotent_series_slices():
    m = 3
    coeffs = [EpsPoly(m, (1, 0, 0)), EpsPoly(m, (2, 3, 0)), EpsPoly(m, (0, 0, 4))]
    f = NilpotentSeries(m, coeffs, 2)
    assert matches(f.eps_slice(0), RationalSeries([1, 2, 0], 2), 2)
    assert matches(f.eps_slice(1), RationalSeries([0, 3, 0], 2), 2)
    assert matches(f.eps_slice(2), RationalSeries([0, 0, 4], 2), 2)
    g = f * f
    assert matches(g.eps_slice(0), RationalSeries([1, 4, 4], 2), 2)


# ----------------------------------------------------------------- LogSeries


def test_log_series_theta_product_rule():
    # L = f0 + f1*Lambda with theta(Lambda) = 1
    f0 = RationalSeries([1, 2, 3], 2)
    f1 = RationalSeries([4, 5, 6], 2)
    L = LogSeries([f0, f1])
    assert L.log_degree == 1
    T = L.theta()
    assert matches(T.part(0), f0.theta() + f1, 2)
    assert matches(T.part(1), f1.theta(), 2)


def test_log_series_product():
    one = RationalSeries.one(4)
    z = RationalSeries.z(4)
    # (1 + Lambda) * (z + Lambda) = z + (1+z) Lambda + Lambda^2
    L = LogSeries([one, one]) * LogSeries([z, one])
    assert matches(L.part(0), z, 4)
    assert matches(L.part(1), one + z, 4)
    assert matches(L.part(2), one, 4)


def test_log_series_shift_and_zero():
    f = RationalSeries([1, 1], 1)
    L = LogSeries([f, f])
    S = L.shift(0)
    assert matches(S.part(0), f, 1)
    Z = L * Fraction(0)
    assert Z.is_zero()


# ------------------------------------------------------------------ JSON


def test_series_json_shapes():
    f = RationalSeries([1, Fraction(1, 2)], 1)
    assert f.to_json() == {"N": 1, "coeffs": ["1", "1/2"]}
    g = NilpotentSeries(2, [EpsPoly(2, (1, 2))], 0)
    j = g.to_json()
    assert j["m"] == 2 and j["coeffs"][0] == ["1", "2"]
    L = LogSeries([f, f])
    jl = L.to_json()
    assert jl["parts"][1]["log_power"] == 1
