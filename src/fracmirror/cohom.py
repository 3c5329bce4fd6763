"""Cohomology-valued solutions: the Frobenius tower, B-series, I-functions.

Each is the tuple of eps-slices that one call of ``gkz.hypergeometric_series``
over Q[eps]/(eps^m) returns, a RationalSeries per power of eps.  Deforming
the holomorphic solution coefficientwise by n -> n + rho, with rho nilpotent
of order m, gives the full Frobenius tower: the rho^k-slices of
z^rho * deformed are omega0, omega0 log z + tau, and the higher partners, so
tau is the rho^1 slice of the same kernel.  The prefactor z^rho puts
rho^k / k! times the slices in the L^k part (L = log z); ``b_series_json``
writes that part as k zero columns followed by the first m - k slices over
their denominators times k!, so no product over Q[rho]/(rho^m) is formed.
The same kernel with weight data (w_a; u_b) gives the untwisted I-function

    I(q) = sum_d q^d prod_a prod_(t=1)^(w_a d) (w_a eps + t)
                     / prod_b prod_(t=1)^(u_b d) (u_b eps + t),

whose eps^0 and eps^1 slices encode the mirror map.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import FracmirrorError
from .gkz import _series_factors, hypergeometric_series
from .series import _coeff_strs, parse_fraction

__all__ = [
    "CohomRing",
    "deformed_solution",
    "b_series",
    "slices_json",
    "b_series_json",
    "i_function_untwisted",
    "i_function_mirror_map",
    "i_weights_from_kernel",
]


@dataclass(frozen=True)
class CohomRing:
    """Rank-1 graded ring Q[eps]/(eps^m) with named divisor classes.

    ``classes`` maps a label to the rational multiple of eps representing
    that divisor; ``integral_scale`` is the value of the integral of
    eps^(m-1) over the space.
    """

    m: int
    classes: tuple  # ((label, Fraction multiple), ...)
    integral_scale: Fraction

    def __init__(self, m, classes, integral_scale):
        if isinstance(classes, dict):
            classes = classes.items()
        object.__setattr__(self, "m", operator.index(m))
        object.__setattr__(self, "classes", tuple((str(k), parse_fraction(v)) for k, v in classes))
        object.__setattr__(self, "integral_scale", parse_fraction(integral_scale))


def deformed_solution(ell, alpha, N, m):
    """Coefficients deformed by n -> n + rho with rho^m = 0.

    c_n(rho) = prod_(l_e<0) prod_(j=0)^(k_e n - 1) (-a_e + k_e rho + j)
             / prod_(l_e>0) prod_(t=1)^(l_e n)     (a_e + l_e rho + t),

    normalized so c_0 = 1 (the rho-dependent constant is a unit and has been
    divided out): ``hypergeometric_series`` at order m.  Slice rho^1 of the
    result is the tau-series of the log partner.
    """
    d = sum(le for le in ell if le > 0)
    if m > d + 1:
        raise FracmirrorError(
            "nilpotency order m exceeds operator degree + 1"
        )
    return hypergeometric_series(*_series_factors(ell, alpha), m, N)


def b_series(ring, ell, alpha, N):
    """The cohomology-valued series z^eps * deformed over the given ring,
    as the eps-slices of deformed: its L^k part (L = log z) is eps^k / k!
    times them, as ``b_series_json`` writes it.

    Gamma-factor units are already divided out (the z-independent constant
    is 1); slices are eps^0 = omega0 and eps^1 = tau.
    """
    return deformed_solution(ell, alpha, N, ring.m)


def slices_json(S, k=0):
    """JSON of rho^k / k! * sum_j S[j] rho^j over Q[rho]/(rho^m), m = len(S):
    coefficient rows of k zero columns and then S[:m - k], each slice's
    numerators formatted over its denominator times k!."""
    m, N, f = len(S), S[0].N, math.factorial(k)
    cols = [["0"] * (N + 1)] * k + [_coeff_strs(s.A, s.D * f) for s in S[: m - k]]
    return {"N": N, "coeffs": [list(row) for row in zip(*cols)], "m": m}


def b_series_json(S):
    """JSON of z^rho * sum_j S[j] rho^j as a polynomial in L = log z: part k
    is ``slices_json(S, k)``, and the log-degree is m - 1."""
    parts = [{"log_power": k, **slices_json(S, k)} for k in range(len(S))]
    return {"N": S[0].N, "log_degree": len(S) - 1, "parts": parts}


def i_weights_from_kernel(ell, alpha):
    """Numerator/denominator weights of the untwisted I-function.

    Each negative kernel entry of size k contributes numerator weight 2k and
    denominator weight k; each positive entry contributes its own value to
    the denominator.
    """
    num = []
    den = []
    for le, ae in zip(ell, alpha):
        if le < 0:
            num.append(-2 * le)
        elif le > 0:
            den.append(le)
    for le in ell:
        if le < 0:
            den.append(-le)
    return tuple(num), tuple(sorted(den))


def i_function_untwisted(num_weights, den_weights, m, N):
    """I(q) = sum_d q^d prod_a prod_(t=1)^(w_a d)(w_a eps + t) /
    prod_b prod_(t=1)^(u_b d)(u_b eps + t) as its m eps-slices:
    ``hypergeometric_series`` with factors (1, w_a) over (1, u_b)."""
    return hypergeometric_series(
        [(1, w) for w in num_weights], [(1, u) for u in den_weights], m, N
    )


def i_function_mirror_map(I):
    """The series part B/A of the mirror map t(q) = log q + B(q)/A(q).

    A is the eps^0 slice and B the eps^1 slice of the I-function, a tuple
    of slices; A must be a unit (constant term 1).
    """
    A, B = I[0], I[1]
    if A.A[0] != A.D:  # c_0 == 1 in canonical form
        raise FracmirrorError("eps^0 slice of the I-function is not a unit")
    return B / A

