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

The B-model Yukawa solves theta(Y) = g Y with g from the degree-4 operator;
transporting it through the mirror map and dividing by omega0^2 gives the
A-model correlation series K(q) with K(0) = C.
"""

from dataclasses import dataclass
from fractions import Fraction

from .cohom import i_function_untwisted
from .errors import FracmirrorError
from .gkz import _series_factors
from .gkz import holo_solution  # noqa: F401  (perfbench/spans.py patches this name)
from .picard_fuchs import yukawa_ode_rhs
from .series import RationalSeries, _make

__all__ = [
    "FrobeniusPair",
    "YukawaData",
    "frobenius_pair",
    "mirror_map",
    "yukawa_z",
    "a_model_correlation",
]


@dataclass(frozen=True)
class FrobeniusPair:
    """omega0 and the non-log part tau of omega1 = omega0 log z + tau, in
    x = z/s: A0(x) = omega0(s x) and A1(x) = tau(s x), with the integer
    scale s absorbing the constant shift of log z."""

    A0: RationalSeries
    A1: RationalSeries
    scale: int
    N: int


@dataclass(frozen=True)
class YukawaData:
    """Normalization constant, B-model Yukawa in z, A-model series in q."""

    C: Fraction
    Y_z: RationalSeries
    K_q: RationalSeries

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
    """(q(z), z(q)) as exact series: q = x exp(A1/A0), reverted in x; then
    q(z) = q(x = z/s) and z(q) = s x(q)."""
    s = pair.scale
    q_of_x = (pair.A1 / pair.A0).exp().shift(1)
    return _dilate(q_of_x, 1, s), q_of_x.reversion() * s


def yukawa_z(op, pair, C):
    """B-model Yukawa Y_z = C exp(antitheta g) / omega0^2, theta(Y) = g Y,
    to the pair's order, formed in x as Y_x = C exp(antitheta g_x) / A0^2
    with g_x(x) = g(s x) and returned as Y_z(z) = Y_x(z/s)."""
    g = yukawa_ode_rhs(op, pair.N)
    if g.A[0]:
        raise FracmirrorError("Yukawa ODE has a nonzero residue at z = 0")
    s = pair.scale
    Y_x = _dilate(g, s).antitheta().exp() * Fraction(C) / (pair.A0 * pair.A0)
    return _dilate(Y_x, 1, s)


def a_model_correlation(op, pair, z_of_q, C):
    """A-model correlation K(q) = Y_z(z(q)) * (theta_q log z(q))^3, formed in
    x as Y_x(x(q)) * (theta_q log x(q))^3 with x(q) = z(q)/s.

    ``z_of_q`` is the inverse mirror map, the second series that
    ``mirror_map(pair)`` returns.  The q-series is exact through order N-1,
    N = pair.N (one order is consumed by the unit factor x(q)/q).
    """
    N = pair.N
    Y = yukawa_z(op, pair, C)
    x_of_q = z_of_q.truncate(N) * Fraction(1, pair.scale)
    # v = x(q)/q, a unit series in q of order N-1; theta_q log v = theta(v)/v
    v = _make(x_of_q.A[1:], x_of_q.D, N - 1)
    dlog = v.theta() / v + 1
    # yukawa_z returns the printed z-series; its x form is one rescale away
    K = _dilate(Y, pair.scale).compose(x_of_q).truncate(N - 1) * (dlog * dlog * dlog)
    return YukawaData(C=Fraction(C), Y_z=Y, K_q=K)
