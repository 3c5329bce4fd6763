"""Cohomology-valued solutions: nilpotent deformations, B-series, I-functions.

All of them are ``gkz.hypergeometric_series`` over Q[eps]/(eps^m), whose
recurrence runs on Python ints.  Deforming the holomorphic solution
coefficientwise by n -> n + rho, with rho nilpotent of order m, produces the
full Frobenius tower in one object: the rho^k-slices of z^rho * deformed are
omega0, omega0 log z + tau, and the higher partners, so tau is the eps^1
slice of the same kernel.  The prefactor z^rho contributes rho^k / k! to the
L^k part, applied by shifting eps-slots rather than by EpsPoly products.  The
same series with weight data (w_a; u_b) gives the untwisted I-function

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
from .picard_fuchs import apply
from .series import EpsPoly, LogSeries, NilpotentSeries, RationalSeries

__all__ = [
    "CohomRing",
    "deformed_solution",
    "frobenius_residue",
    "b_series",
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
    rank: int = 1

    def __init__(self, m, classes, integral_scale, rank=1, distinguished=None):
        object.__setattr__(self, "m", operator.index(m))
        if isinstance(classes, dict):
            classes = classes.items()
        pairs = tuple((str(k), Fraction(v)) for k, v in classes)
        object.__setattr__(self, "classes", pairs)
        object.__setattr__(self, "integral_scale", Fraction(integral_scale))
        object.__setattr__(self, "rank", operator.index(rank))
        if distinguished is not None:
            mult = dict(pairs)
            rest = sum(
                (v for k, v in pairs if k != distinguished), Fraction(0)
            )
            if mult[distinguished] != -rest:
                raise FracmirrorError(
                    "distinguished class must equal minus the sum of the others"
                )

    def cls(self, label):
        for k, v in self.classes:
            if k == label:
                return EpsPoly(self.m, (0, v))
        raise KeyError(label)

    def integral(self, x):
        if not isinstance(x, EpsPoly) or x.m != self.m:
            raise TypeError("integral takes an EpsPoly of matching order")
        return x.coeff(self.m - 1) * self.integral_scale


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


def _log_prefactor(deformed):
    """z^rho * deformed as a LogSeries: parts[k] = deformed * rho^k / k!.

    Multiplying by rho^k shifts the rho-slices up by k: part k is k zero
    slices followed by the first m - k slices, each times 1/k!.
    """
    m, S = deformed.m, deformed.slices
    parts = [deformed]
    for k in range(1, m):
        scaled = [s * Fraction(1, math.factorial(k)) for s in S[: m - k]]
        parts.append(NilpotentSeries.from_slices([RationalSeries.zero(deformed.N)] * k + scaled))
    return LogSeries(parts)


def frobenius_residue(op, deformed, N=None):
    """apply(op, z^rho * deformed): must collapse to a pure constant.

    For the operator conjugate to the kernel vector of the deformation the
    only surviving coefficient is the (z^0, log^0) entry, equal to the
    indicial value F(rho) — rho^degree times a unit.  Any other nonvanishing
    coefficient is reported with its (order, log-power).
    """
    m = deformed.m
    if m != op.degree + 1:
        raise FracmirrorError(
            "frobenius_residue needs nilpotency order = operator degree + 1"
        )
    if N is None:
        N = deformed.N
    W = _log_prefactor(deformed.truncate(N))
    out = apply(op, W)
    bad = []
    for k in range(out.log_degree + 1):
        part = out.part(k)
        for n in range(N + 1):
            if n == 0 and k == 0:
                continue
            if not part.coeff(n).is_zero:
                bad.append((n, k))
    if bad:
        raise FracmirrorError(
            "operator does not annihilate the deformed solution; "
            f"nonvanishing coefficients at (order, log-power) = {bad[:5]}"
        )
    return out.part(0).coeff(0)


def b_series(ring, ell, alpha, N):
    """The cohomology-valued series z^eps * deformed over the given ring.

    Gamma-factor units are already divided out (the z-independent constant
    is 1); slices are eps^0 = omega0 and eps^1 = omega0 log z + tau.
    """
    if ring.rank != 1:
        raise FracmirrorError("b_series requires a rank-1 cohomology ring")
    deformed = deformed_solution(ell, alpha, N, ring.m)
    return _log_prefactor(deformed)


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
    prod_b prod_(t=1)^(u_b d)(u_b eps + t), an eps-truncated series:
    ``hypergeometric_series`` with factors (1, w_a) over (1, u_b)."""
    return hypergeometric_series(
        [(1, w) for w in num_weights], [(1, u) for u in den_weights], m, N
    )


def i_function_mirror_map(I):
    """The series part B/A of the mirror map t(q) = log q + B(q)/A(q).

    A is the eps^0 slice and B the eps^1 slice of the I-function; A must be
    a unit (constant term 1).
    """
    A = I.eps_slice(0)
    if A.coeff(0) != 1:
        raise FracmirrorError("eps^0 slice of the I-function is not a unit")
    B = I.eps_slice(1)
    return B / A

