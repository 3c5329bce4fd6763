"""Mirror map and Yukawa couplings from the Frobenius basis.

The logarithmic Frobenius partner of the holomorphic solution omega0 is
omega1 = omega0 * log z + tau.  Both come from one hypergeometric series
over Q[eps]/(eps^2) (``gkz.hypergeometric_series``): omega0 is its eps^0
slice and tau its eps^1 slice.  Differentiating the product of linear
factors gives tau_n = c_n * R_n with

    R_n =  sum_(l_e < 0) k_e * sum_(m=0)^(k_e n - 1) 1/(m + 1/2)
         - sum_(l_e > 0) l_e * sum_(m=1)^(l_e n)     1/m

when every negative kernel entry carries exponent -1/2 (and every positive
one exponent 0, as in ``build_gkz``).  The base point of the half-integer
digamma sums shifts log z by the constant -log(s) with s = 2^(2 sum k_e), an
exact integer; the mirror map is

    q(z) = (z / s) * exp(tau / omega0).

The B-model Yukawa in the z-coordinate solves theta(Y) = g Y with g from the
degree-4 operator; transporting it through the mirror map and dividing by
omega0^2 gives the A-model correlation series K(q) with K(0) = C.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import FracmirrorError
from .gkz import _series_factors, hypergeometric_series
from .gkz import holo_solution  # noqa: F401  (perfbench/spans.py patches this name)
from .picard_fuchs import yukawa_ode_rhs
from .series import LogSeries, RationalSeries

__all__ = [
    "FrobeniusPair",
    "YukawaData",
    "frobenius_pair",
    "mirror_map",
    "yukawa_z",
    "classical_normalization",
    "a_model_correlation",
]


@dataclass(frozen=True)
class FrobeniusPair:
    """omega0 and the non-log part tau of omega1 = omega0 log z + tau,
    with the integer scale s absorbing the constant shift of log z."""

    omega0: RationalSeries
    tau: RationalSeries
    scale: int
    N: int

    def omega1_log(self):
        """omega1 as a LogSeries: tau + omega0 * L."""
        return LogSeries([self.tau, self.omega0])

    def to_json(self):
        return {
            "omega0": self.omega0.to_json(),
            "tau": self.tau.to_json(),
            "scale": self.scale,
            "N": self.N,
        }


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


def frobenius_pair(ell, alpha, N):
    """Build (omega0, tau, s) for a rank-1 kernel vector.

    Every negative kernel entry must carry exponent -1/2; otherwise the
    constant absorbed into the scale would not be the log of an integer.
    """
    ell = tuple(int(x) for x in ell)
    alpha = tuple(Fraction(a) for a in alpha)
    k_total = 0
    for le, ae in zip(ell, alpha):
        if le < 0:
            if ae != Fraction(-1, 2):
                raise FracmirrorError(
                    "scale not integral: negative kernel entries must carry "
                    "exponent -1/2"
                )
            k_total += -le
    series = hypergeometric_series(*_series_factors(ell, alpha), 2, N)
    omega0, tau = series.eps_slice(0), series.eps_slice(1)
    return FrobeniusPair(omega0=omega0, tau=tau, scale=2 ** (2 * k_total), N=N)


def mirror_map(pair):
    """(q(z), z(q)) as exact series: q = (z/s) exp(tau/omega0)."""
    ratio = pair.tau / pair.omega0
    expo = ratio.exp()
    q_of_z = expo.shift(1) * Fraction(1, pair.scale)
    z_of_q = q_of_z.reversion()
    return q_of_z, z_of_q


def yukawa_z(op, pair, C, N):
    """B-model Yukawa Y_z = C exp(antitheta g) / omega0^2, theta(Y) = g Y."""
    g = yukawa_ode_rhs(op, N)
    if g.coeff(0) != 0:
        raise FracmirrorError("Yukawa ODE has a nonzero residue at z = 0")
    C = Fraction(C)
    unnormalized = g.antitheta().exp() * C
    return unnormalized / (pair.omega0 * pair.omega0)


def classical_normalization(cover_degree, base_intersection):
    """K(0): covering degree times the top self-intersection on the base."""
    return Fraction(cover_degree) * Fraction(base_intersection)


def a_model_correlation(op, pair, C, N=None):
    """A-model correlation K(q) = Y_z(z(q)) * (theta_q log z(q))^3.

    The q-series is exact through order N-1 (one order is consumed by the
    unit factor z(q)/(s q)).
    """
    if N is None:
        N = pair.N
    N = min(N, pair.N)
    Y = yukawa_z(op, pair, C, N)
    q_of_z, z_of_q = mirror_map(pair)
    z_of_q = z_of_q.truncate(N)
    # v = z(q)/(s q), a unit series in q of order N-1
    v = RationalSeries(z_of_q.c[1:], N - 1) * Fraction(1, pair.scale)
    dlog = v.log().theta() + 1
    factor = dlog * dlog * dlog
    K = Y.compose(z_of_q).truncate(N - 1) * factor
    return YukawaData(C=Fraction(C), Y_z=Y, K_q=K)
