"""Cohomology-valued solutions: the Frobenius tower, B-series, I-functions.

Each is the ``gkz.Slices`` that one call of ``gkz.hypergeometric_series``
on the kernel vector returns over Q[eps]/(eps^m), a RationalSeries per power
of eps.  Deforming the holomorphic solution coefficientwise by n -> n + rho,
with rho nilpotent of order m, gives the full Frobenius tower: the
rho^k-slices of z^rho * deformed are omega0, omega0 log z + tau, and the
higher partners, so tau is the rho^1 slice of the same kernel.  The prefactor
z^rho puts rho^k / k! times the slices in the L^k part (L = log z);
``b_series_json`` writes that part as k zero columns and the first m - k
slices over k!, so no product over Q[rho]/(rho^m) is formed.  It and
``slices_json`` write text from the kernel's per-order pairs, building no
slice: U_n[k] / E_n is reduced by one small gcd against E_n, part k's by k!
with another.  The same kernel at the scale s = ``gkz.kernel_scale`` =
4^(sum k) is the untwisted I-function in x = z/s, with weights
(w_a; u_b) = ``i_weights_from_kernel``:

    I(x) = sum_d x^d prod_a prod_(t=1)^(w_a d) (w_a eps + t)
                     / prod_b prod_(t=1)^(u_b d) (u_b eps + t),

whose eps^0 and eps^1 slices encode the mirror map.  By Legendre
duplication each weight pair 2k over k is the one half-integer factor
(1/2 + k eps + j) times 4^k, so it costs k linear factors per order
instead of 3k.
"""

from math import gcd
from operator import floordiv

from .errors import FracmirrorError, _as_ints
from .gkz import hypergeometric_series, kernel_scale

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
    return hypergeometric_series(ell, m, N)


def b_series(m, ell, N):
    """The cohomology-valued series z^eps * deformed over Q[eps]/(eps^m),
    as the eps-slices of deformed: its L^k part (L = log z) is eps^k / k!
    times them, as ``b_series_json`` writes it.

    Gamma-factor units are already divided out (the z-independent constant
    is 1); slices are eps^0 = omega0 and eps^1 = tau.
    """
    return deformed_solution(ell, N, m)


def _reduce(U, E):
    """The coefficients U_n / E_n of one slice in lowest terms, one small gcd
    against each order's E_n: numerators, denominators and their strings."""
    G = list(map(gcd, U, E))
    A = list(map(floordiv, U, G))
    return A, list(map(floordiv, E, G)), list(map(str, A))


def _over(col, f):
    """The quoted ``fraction_str`` of each a / (d f) for a ``_reduce`` column of
    a / d and an int f > 0: one small gcd(a, f), and str(a) reused when it is 1."""
    if f == 1:
        return [f'"{t}"' if d == 1 else f'"{t}/{d}"' for t, d in zip(col[2], col[1])]
    out = []
    for a, d, t in zip(*col):
        g = gcd(a, f)
        if g > 1:
            t = str(a // g)
        out.append(f'"{t}/{d * f // g}"' if d * f > g else f'"{t}"')
    return out


def _series_text(cols, N, m, indent, k=None):
    """JSON text at ``indent`` of a series over Q[rho]/(rho^m), ``log_power`` k
    unless k is None: each row is k zero cells (one prefix) and one join of ``cols``."""
    i, cell = indent + "  ", "," + indent + "      "
    head = "[" + cell[1:] + ('"0"' + cell) * (k or 0)
    rows = ",".join([f"{i}  {head}{cell.join(r)}{i}  ]" for r in zip(*cols)])
    log = "" if k is None else f'{i}"log_power": {k},'
    return f'{{{i}"N": {N},{i}"coeffs": [{rows}{i}],{log}{i}"m": {m}{indent}}}'


def slices_json(S):
    """JSON of sum_j S[j] rho^j over Q[rho]/(rho^m), m = len(S), for the
    ``Slices`` S of one kernel call (N, one row of m coefficients per order,
    m): a fragment, written at the indent ``cli._json_text`` passes."""
    return lambda at: _series_text([_over(_reduce(U, S.E), 1) for U in S.U], S.N, len(S), at)


def b_series_json(S):
    """JSON of z^rho * sum_j S[j] rho^j as a polynomial in L = log z, a
    fragment like ``slices_json``'s: part k, rho^k / k! times the slices, is
    k zero columns and S[:m - k] over k!, all from one ``_reduce`` per slice."""

    def text(indent):
        m, i, j = len(S), indent + "  ", indent + "    "
        cols, parts, f = [_reduce(U, S.E) for U in S.U], [], 1
        for k in range(m):
            f *= k or 1
            parts.append(_series_text([_over(c, f) for c in cols[: m - k]], S.N, m, j, k))
        head = f'{{{i}"N": {S.N},{i}"log_degree": {m - 1},{i}"parts": [{j}'
        return head + f",{j}".join(parts) + f"{i}]{indent}}}"

    return text


def i_weights_from_kernel(ell):
    """Numerator/denominator weights of the untwisted I-function.

    Each negative kernel entry of size k contributes numerator weight 2k and
    denominator weight k; each positive entry contributes its own value to
    the denominator.  A bool or float entry raises TypeError.
    """
    ell = _as_ints(ell, "kernel entry")
    num = tuple(-2 * le for le in ell if le < 0)
    return num, tuple(sorted(abs(le) for le in ell if le))


def i_function_untwisted(ell, m, N):
    """I(x) = sum_d x^d prod_a prod_(t=1)^(w_a d)(w_a eps + t) /
    prod_b prod_(t=1)^(u_b d)(u_b eps + t) as its m eps-slices, with the
    weights (w_a; u_b) = ``i_weights_from_kernel(ell)``.

    By Legendre duplication a weight pair 2k over k is 4^(k d) times
    prod_(j<k d) (1/2 + k eps + j), so this is ``hypergeometric_series`` of
    ell at the scale s = ``kernel_scale(ell)``: the deformed solution at z = s x.
    """
    return hypergeometric_series(ell, m, N, kernel_scale(ell))


def i_function_mirror_map(I):
    """The series part B/A of the mirror map t(q) = log q + B(q)/A(q).

    A is the eps^0 slice and B the eps^1 slice of the I-function, a tuple
    of at least two slices; A must be a unit (constant term 1).
    """
    if len(I) < 2:
        raise FracmirrorError("the mirror map reads the eps^1 slice of the I-function: m >= 2")
    A, B = I[0], I[1]
    if A.A[0] != A.D:  # c_0 == 1 in canonical form
        raise FracmirrorError("eps^0 slice of the I-function is not a unit")
    return B / A

