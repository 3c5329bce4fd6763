"""Mirror map and Yukawa couplings from the Frobenius basis.

The logarithmic Frobenius partner of the holomorphic solution omega0 is
omega1 = omega0 * log z + tau.  Both come from one hypergeometric series
over Q[eps]/(eps^2) (``gkz.hypergeometric_series``), the coefficients
c_n(eps) of the Frobenius deformation sum_n c_n(eps) z^(n+eps): omega0 is
its eps^0 slice and tau its eps^1 slice, tau_n = c_n'(0).  Every negative
kernel entry carries the exponent -1/2 (``gkz.EXPONENT``), whose
half-integer base point shifts log z by the constant -log(s) with
s = 4^(sum k_e), an exact integer.  By Legendre duplication,
prod_(t=1)^(2M) (2a + t) = 4^M prod_(j=1)^M (a + j) prod_(j=0)^(M-1) (a + 1/2 + j),
the eps-slices at z = s x are the untwisted I-function in x
(``cohom.i_function_untwisted``), so the pair is its first two slices:
A0(x) = omega0(s x), integral where omega0 carries a denominator near s^N,
and A1(x) = tau(s x).  Then q = x exp(A1 / A0) and z(q) = s x(q); s enters
only where ``_dilate`` rescales a series between x and z.

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
from math import lcm

from .cohom import i_function_untwisted
from .errors import FracmirrorError
from .gkz import _series_factors
from .series import _lagrange, _make

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
    scale s absorbing the constant shift of log z."""

    def __init__(self, A0, A1, scale, N):
        self.A0 = A0
        self.A1 = A1
        self.scale = scale
        self.N = N


class YukawaData:
    """Normalization constant, B-model Yukawa in z, A-model series in q."""

    def __init__(self, C, Y_z, K_q):
        self.C = C
        self.Y_z = Y_z
        self.K_q = K_q

    def __eq__(self, other):
        if type(other) is not YukawaData:
            return NotImplemented
        return (self.C, self.Y_z, self.K_q) == (other.C, other.Y_z, other.K_q)

    def to_json(self):
        from .series import fraction_str

        return {
            "C": fraction_str(self.C),
            "Y_z": self.Y_z.to_json(),
            "K_q": self.K_q.to_json(),
        }


def frobenius_pair(ell, N):
    """(A0, A1, s) for a rank-1 kernel vector: the first two slices of the
    untwisted I-function in x = z/s."""
    A0, A1 = i_function_untwisted(ell, 2, N)
    return FrobeniusPair(A0=A0, A1=A1, scale=_series_factors(ell)[2], N=A0.N)


def _dilate(f, p, q=1):
    """f(p z / q) for ints p, q > 0: [A_n p^n q^(N-n)] over D q^N."""
    N = f.N
    return _make([a * p**n * q ** (N - n) for n, a in enumerate(f.A)], f.D * q**N, N)


def mirror_map(pair):
    """(q(z), z(q)) as exact series: q = x e with e = exp(A1/A0), reverted in
    x by Lagrange, [q^k] x(q) = (1/k) [w^(k-1)] e^(-k); then q(z) = q(x = z/s)
    and z(q) = s x(q)."""
    e = (pair.A1 / pair.A0).exp()
    s, N = pair.scale, e.N
    return _dilate(e.shift(1), 1, s), _lagrange(e.truncate(N - 1).inverse(), 1) * s


def yukawa_z(op, pair, C):
    """B-model Yukawa Y_z = C/(p4 omega0^2) to the pair's order, the solution
    C exp(antitheta g)/omega0^2 of theta(Y) = g Y, g = -p3/(2 p4), formed in
    x as Y_x = C/(p4(s x) A0^2) and returned as Y_z(z) = Y_x(z/s).  The
    closed form needs p3 = 2 theta(p4), which ``theta_conjugate``'s
    operators meet whenever the residue p3(0) vanishes (module docstring); a
    nonzero residue or another degree raises ``FracmirrorError``."""
    if op.degree != 4:
        raise FracmirrorError("Yukawa ODE defined for threefold operators")
    p3, p4 = op.z_polys[3], op.z_polys[4]
    if p3[0]:
        raise FracmirrorError("Yukawa ODE has a nonzero residue at z = 0")
    s, sq = pair.scale, pair.A0 * pair.A0
    P = [c / p4[0] * s**j for j, c in enumerate(p4)]  # p4(s x)/p4(0)
    L = lcm(*(c.denominator for c in P))
    P = [c.numerator * (L // c.denominator) for c in P]
    W = [sum(P[j] * sq.A[n - j] for j in range(min(n + 1, len(P)))) for n in range(sq.N + 1)]
    Y_x = _make(W, sq.D * L, sq.N).inverse() * Fraction(C)
    return _dilate(Y_x, 1, s)


def a_model_correlation(op, pair, C):
    """A-model correlation K(q) = Y_z(z(q)) (theta_q log z(q))^3, formed in
    x = z/s as [q^n] K = [w^n] G h^n with G = Y_x/(1 + theta r)^2, r = A1/A0
    and h = exp(-r), by ``series._lagrange``.  The q-series has order N - 1,
    N = pair.N."""
    N = pair.N
    Y = yukawa_z(op, pair, C)
    r = pair.A1.truncate(N - 1) / pair.A0
    t = r.theta() + 1
    G = _dilate(Y.truncate(N - 1), pair.scale) / (t * t)
    return YukawaData(C=Fraction(C), Y_z=Y, K_q=_lagrange((-r).exp(), 0, G))


holo_solution = yukawa_ode_rhs = None  # for perfbench/spans.py until ROADMAP item 5
