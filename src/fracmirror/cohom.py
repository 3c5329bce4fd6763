"""Cohomology-valued solutions: the Frobenius tower, B-series, I-functions.

Each is the tuple of eps-slices that one call of ``gkz.hypergeometric_series``
over Q[eps]/(eps^m) returns, a RationalSeries per power of eps, on the
factors that ``gkz._series_factors`` reads off the kernel vector.  Deforming
the holomorphic solution coefficientwise by n -> n + rho, with rho nilpotent
of order m, gives the full Frobenius tower: the rho^k-slices of
z^rho * deformed are omega0, omega0 log z + tau, and the higher partners, so
tau is the rho^1 slice of the same kernel.  The prefactor z^rho puts
rho^k / k! times the slices in the L^k part (L = log z); ``b_series_json``
writes that part as k zero columns followed by the first m - k slices
divided by k!, so no product over Q[rho]/(rho^m) is formed; each slice's
coefficients are reduced once, and part k divides the reduced numerators
by k! with a small gcd.  The same kernel at the scale s = 4^(sum k) is the
untwisted I-function in x = z/s, with weights (w_a; u_b) =
``i_weights_from_kernel``:

    I(x) = sum_d x^d prod_a prod_(t=1)^(w_a d) (w_a eps + t)
                     / prod_b prod_(t=1)^(u_b d) (u_b eps + t),

whose eps^0 and eps^1 slices encode the mirror map.  By Legendre
duplication each weight pair 2k over k is the one half-integer factor
(1/2 + k eps + j) times 4^k, so it costs k linear factors per order
instead of 3k.
"""

from math import gcd

from .errors import FracmirrorError
from .gkz import _series_factors, hypergeometric_series
from .series import _coeff_strs, _order

__all__ = [
    "deformed_solution",
    "b_series",
    "slices_json",
    "b_series_json",
    "i_function_untwisted",
    "i_function_mirror_map",
    "i_weights_from_kernel",
]


def deformed_solution(ell, N, m):
    """Coefficients deformed by n -> n + rho with rho^m = 0.

    c_n(rho) = prod_(l_e<0) prod_(j=0)^(k_e n - 1) (1/2 + k_e rho + j)
             / prod_(l_e>0) prod_(t=1)^(l_e n)     (l_e rho + t),

    normalized so c_0 = 1 (the rho-dependent constant is a unit and has been
    divided out): ``hypergeometric_series`` at order m.  Slice rho^1 of the
    result is the tau-series of the log partner.
    """
    d = sum(le for le in ell if le > 0)
    if m > d + 1:
        raise FracmirrorError(
            "nilpotency order m exceeds operator degree + 1"
        )
    num, den, _ = _series_factors(ell)
    return hypergeometric_series(num, den, m, N)


def b_series(m, ell, N):
    """The cohomology-valued series z^eps * deformed over Q[eps]/(eps^m),
    as the eps-slices of deformed: its L^k part (L = log z) is eps^k / k!
    times them, as ``b_series_json`` writes it.

    Gamma-factor units are already divided out (the z-independent constant
    is 1); slices are eps^0 = omega0 and eps^1 = tau.
    """
    return deformed_solution(ell, N, m)


def slices_json(S):
    """JSON of sum_j S[j] rho^j over Q[rho]/(rho^m), m = len(S): one row of
    m coefficient strings per order."""
    cols = [_coeff_strs(s.A, s.D) for s in S]
    return {"N": S[0].N, "coeffs": [list(row) for row in zip(*cols)], "m": len(S)}


def _reduce(s):
    """The coefficients A_n / D of s in lowest terms, one gcd each: the
    numerators, the denominators and the numerators' strings."""
    A, D = s.A, s.D
    if D == 1:
        return A, [1] * len(A), list(map(str, A))
    G = list(map(gcd, A, [D] * len(A)))
    A = [a // g for a, g in zip(A, G)]
    return A, [D // g for g in G], list(map(str, A))


def _over(col, f):
    """``fraction_str`` of each a / (d f), for a ``_reduce`` column of a / d
    in lowest terms and an int f > 0: gcd(a, f) is a small gcd, and str(a)
    is reused when it is 1."""
    if f == 1:
        return [t if d == 1 else f"{t}/{d}" for t, d in zip(col[2], col[1])]
    out = []
    for a, d, t in zip(*col):
        g = gcd(a, f)
        if g > 1:
            t = str(a // g)
        out.append(f"{t}/{d * f // g}" if d * f > g else t)
    return out


def b_series_json(S):
    """JSON of z^rho * sum_j S[j] rho^j as a polynomial in L = log z, of
    log-degree m - 1: part k is rho^k / k! times the slices, written as
    ``slices_json`` writes a series, so its columns are k shared zero
    columns and then S[:m - k] over k!, all from one ``_reduce`` per slice."""
    m, N = len(S), S[0].N
    cols, zero = [_reduce(s) for s in S], ["0"] * (N + 1)
    parts, f = [], 1
    for k in range(m):
        f *= k or 1
        rows = zip(*[zero] * k, *(_over(col, f) for col in cols[: m - k]))
        parts.append({"log_power": k, "N": N, "coeffs": [list(r) for r in rows], "m": m})
    return {"N": N, "log_degree": m - 1, "parts": parts}


def i_weights_from_kernel(ell):
    """Numerator/denominator weights of the untwisted I-function.

    Each negative kernel entry of size k contributes numerator weight 2k and
    denominator weight k; each positive entry contributes its own value to
    the denominator.  A bool or float entry raises TypeError.
    """
    ell = tuple(map(_order, ell))
    num = tuple(-2 * le for le in ell if le < 0)
    return num, tuple(sorted(abs(le) for le in ell if le))


def i_function_untwisted(ell, m, N):
    """I(x) = sum_d x^d prod_a prod_(t=1)^(w_a d)(w_a eps + t) /
    prod_b prod_(t=1)^(u_b d)(u_b eps + t) as its m eps-slices, with the
    weights (w_a; u_b) = ``i_weights_from_kernel(ell)``.

    By Legendre duplication a weight pair 2k over k is 4^(k d) times
    prod_(j<k d) (1/2 + k eps + j), so this is ``hypergeometric_series`` on
    the factors of ``_series_factors(ell)`` at its scale s: the deformed
    solution at z = s x.
    """
    num, den, s = _series_factors(ell)
    return hypergeometric_series(num, den, m, N, s)


def i_function_mirror_map(I):
    """The series part B/A of the mirror map t(q) = log q + B(q)/A(q).

    A is the eps^0 slice and B the eps^1 slice of the I-function, a tuple
    of slices; A must be a unit (constant term 1).
    """
    A, B = I[0], I[1]
    if A.A[0] != A.D:  # c_0 == 1 in canonical form
        raise FracmirrorError("eps^0 slice of the I-function is not a unit")
    return B / A

