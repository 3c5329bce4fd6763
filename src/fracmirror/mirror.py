"""Mirror map and Yukawa couplings from the Frobenius basis.

The logarithmic Frobenius partner of the holomorphic solution omega0 is
omega1 = omega0 * log z + tau.  Both come from one hypergeometric series of
the kernel vector over Q[eps]/(eps^2) (``gkz.hypergeometric_series``), the
coefficients c_n(eps) of the Frobenius deformation sum_n c_n(eps) z^(n+eps):
omega0 is its eps^0 slice and tau its eps^1 slice, tau_n = c_n'(0).  Every
negative kernel entry carries the exponent -1/2 (``gkz.EXPONENT``), whose
half-integer base point shifts log z by the constant -log(s) with the exact
integer s = 4^(sum k_e) (``gkz.kernel_scale``).  By Legendre duplication,
prod_(t=1)^(2M) (2a + t) = 4^M prod_(j=1)^M (a + j) prod_(j=0)^(M-1) (a + 1/2 + j),
the eps-slices at z = s x are the untwisted I-function in x
(``cohom.i_function_untwisted``), so the pair is its first two slices:
A0(x) = omega0(s x), integral where omega0 carries a denominator near s^N,
and A1(x) = tau(s x).  At m = 2 the kernel's recurrence runs on two
integers per order, the numerators of A0's and A1's coefficients over one
denominator, with no list.  Then q = x exp(A1 / A0), and every series here
stays in x: ``mirror_map`` returns q(x) and x(q), ``yukawa_z`` Y_x(x) = Y_z(s x).
s enters only where they are written (``series._coeff_strs``), as
q(z) = q(x = z/s), z(q) = s x(q) and Y_z(z) = Y_x(z/s).  The pair forms
r = A1/A0, h = exp(-r) and h's baby and giant powers once, at order N - 1,
the order every reader takes; the mirror map reads q = x/h and K(q) r.

The B-model Yukawa solves theta(Y) = g Y with g = -p3/(2 p4) from the
degree-4 operator.  There p3 = (F_3, -G_3) and p4 = (1, -G_4).  F_3 is 0
exactly when every positive kernel entry is 1 (F = theta^4), else the
residue p3(0) is nonzero and ``yukawa_z`` raises.  G_3 = 2 G_4, since the
theta^3/theta^4 ratio of G is the sum of k/2 over the negative entries -k,
d/2 = 2 at the exponent -1/2.  So p3 = 2 theta(p4) on every operator that
passes, exp(antitheta g) = 1/p4 and Y_z = C/(p4 omega0^2) in closed form
(Candelas, de la Ossa, Green and Parkes 1991).  The A-model series is
K(q) = Y(x(q)) (theta_q log x(q))^3.  With r = A1/A0 and h = exp(-r),
x = q h(x) and theta_q log x = 1/(1 + theta r) at x(q), so the phi-form of
Lagrange-Buermann, [q^n] F(x(q)) = [w^n] F h^n (1 + theta r), gives
[q^n] K = [w^n] G h^n with G = Y_x/(1 + theta r)^2: the mirror map is
neither reverted nor composed.
"""

from fractions import Fraction

from .cohom import i_function_untwisted
from .errors import FracmirrorError
from .gkz import kernel_scale
from .series import _lagrange, _lagrange_powers, _make, fraction_str

__all__ = [
    "FrobeniusPair",
    "YukawaData",
    "frobenius_pair",
    "mirror_map",
    "yukawa_z",
    "a_model_correlation",
]


class FrobeniusPair:
    """omega0 and the non-log part tau of omega1 = omega0 log z + tau, in
    x = z/s: A0(x) = omega0(s x) and A1(x) = tau(s x), with the integer
    scale s absorbing the constant shift of log z.  N is A0's order; ``r``
    = A1/A0 and ``h`` = exp(-r) have order N - 1, the order every reader
    takes, and ``powers`` are the ``_lagrange`` powers of h."""

    def __init__(self, A0, A1, scale):
        if A0.N < 1:
            raise ValueError("a Frobenius pair needs order N >= 1")
        self.A0 = A0
        self.A1 = A1
        self.scale = scale
        self.N = A0.N
        self.r = A1.truncate(A0.N - 1) / A0
        self.h = (-self.r).exp()
        self.powers = _lagrange_powers(self.h)


class YukawaData:
    """Normalization constant, B-model Yukawa Y_x in x = z/scale, A-model
    series in q; the JSON writes Y_z(z) = Y_x(z/scale)."""

    def __init__(self, C, Y_x, K_q, scale):
        self.C = C
        self.Y_x = Y_x
        self.K_q = K_q
        self.scale = scale

    def to_json(self):
        return {
            "C": fraction_str(self.C),
            "Y_z": self.Y_x.to_json(self.scale),
            "K_q": self.K_q.to_json(),
        }


def frobenius_pair(ell, N):
    """The ``FrobeniusPair`` of a rank-1 kernel vector to order N: A0 and A1
    are the first two slices of the untwisted I-function in x = z/s, and
    its scale is s = ``gkz.kernel_scale(ell)``."""
    A0, A1 = i_function_untwisted(ell, 2, N)
    return FrobeniusPair(A0=A0, A1=A1, scale=kernel_scale(ell))


def mirror_map(pair):
    """(q(x), x(q)) in x = z/s to the pair's order N: q = x exp(r) = x/h, 1/h
    at order N - 1 times x, reverted by Lagrange, [q^k] x(q) =
    (1/k) [w^(k-1)] h^k off the pair's powers of h.  In z, q(z) = q(x = z/s)
    and z(q) = s x(q)."""
    e = pair.h.inverse()
    return _make((0, *e.A), e.D, pair.N), _lagrange(pair.powers, 1)


def yukawa_z(op, pair, C):
    """B-model Yukawa Y_z = C/(p4 omega0^2), p4 over p4(0), to the pair's
    order: the solution C exp(antitheta g)/omega0^2 of theta(Y) = g Y,
    g = -p3/(2 p4), formed and returned in x = z/s as Y_x(x) = Y_z(s x) =
    C/(A0^2 + (p4[1] s/p4[0]) x A0^2).  The closed form needs
    p3 = 2 theta(p4), met when the residue p3(0) vanishes (module
    docstring); else, or at another degree, it raises ``FracmirrorError``."""
    if op.degree != 4:
        raise FracmirrorError("Yukawa ODE defined for threefold operators")
    p3, p4 = op.z_polys[3], op.z_polys[4]
    if p3[0]:
        raise FracmirrorError("Yukawa ODE has a nonzero residue at z = 0")
    sq = pair.A0 * pair.A0
    return (sq + sq.shift(1) * (p4[1] / p4[0] * pair.scale)).inverse() * Fraction(C)


def a_model_correlation(op, pair, C):
    """A-model correlation K(q) = Y_z(z(q)) (theta_q log z(q))^3, formed in
    x = z/s as [q^n] K = [w^n] G h^n with G = Y_x/(1 + theta r)^2, by
    ``series._lagrange`` on the pair's r and powers of h = exp(-r), both of
    order N - 1, N = pair.N, so the q-series has order N - 1."""
    Y = yukawa_z(op, pair, C)
    t = pair.r.theta() + 1
    K = _lagrange(pair.powers, 0, Y / (t * t))
    return YukawaData(C=Fraction(C), Y_x=Y, K_q=K, scale=pair.scale)


holo_solution = yukawa_ode_rhs = None  # for perfbench/spans.py until ROADMAP item 5
