"""GKZ hypergeometric data attached to a nef-partition.

The matrix A gathers the columns nu_(i,j) = (rho_(i,j), Kronecker block):
one distinguished column nu_(i,0) = (0, e_i) per part, then one column per
ray of that part.  Internally the n lattice rows come first and the r
Kronecker rows last; ``display_rows`` re-orders for display with the Kronecker
block on top.  The exponent vector alpha puts -1/2 on each distinguished
column, so beta = A·alpha has the shape (0, ..., 0, -1/2, ..., -1/2).

Every series solution in the one-parameter case comes from one kernel,
``hypergeometric_series``: a ratio of rising factorials over Q[eps]/(eps^m),
built order by order from linear factors, so no transcendental Gamma value is
ever evaluated.  Its recurrence runs on Python ints (integer numerators over
one common denominator) and it returns the m eps-slices, each a
``RationalSeries`` handed over as integers, so it builds no Fraction per
coefficient.  The holomorphic solution is its eps^0 slice.  Its integer
``scale`` gives sum scale^n c_n z^n inside the recurrence: the untwisted
I-function folds each weight pair 2k over k into one half-integer factor
and the scale 4^k (``cohom.i_function_untwisted``), so a scale that clears
the factor's denominator 2^k costs nothing.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import linalg
from .errors import FracmirrorError
from .series import _make, _order, parse_fraction

__all__ = [
    "GkzSystem",
    "build_gkz",
    "principal_kernel_vector",
    "hypergeometric_series",
    "holo_solution",
]


@dataclass(frozen=True)
class GkzSystem:
    """Assembled GKZ data: matrix, exponents, and kernel lattice basis."""

    A: tuple  # (n+r) x (p+r) integer rows, lattice rows first
    beta: tuple  # length n+r, Fractions
    alpha: tuple  # length p+r, Fractions
    kernel: tuple  # basis vectors of ker A, saturated
    column_labels: tuple  # (part index i, j) with j = 0 distinguished
    n: int
    r: int

    def display_rows(self):
        """Row order used for display: Kronecker block first."""
        order = list(range(self.n, self.n + self.r)) + list(range(self.n))
        return tuple(self.A[i] for i in order), tuple(self.beta[i] for i in order)

    def to_json(self):
        from .series import fraction_str

        return {
            "A": [list(row) for row in self.A],
            "beta": [fraction_str(b) for b in self.beta],
            "alpha": [fraction_str(a) for a in self.alpha],
            "kernel": [list(v) for v in self.kernel],
            "column_labels": [list(lab) for lab in self.column_labels],
            "n": self.n,
            "r": self.r,
        }


def build_gkz(data):
    """GKZ system of the family attached to a nef-partition.

    Columns are blockwise in part order, distinguished column first, then
    the part's rays in reverse-lex order.
    """
    n = data.delta.ambient_dim
    r = data.r
    rays = data.rays
    columns = []
    labels = []
    for i, part in enumerate(data.ray_parts):
        kron = tuple(1 if t == i else 0 for t in range(r))
        columns.append(tuple([0] * n) + kron)
        labels.append((i, 0))
        for j, ray in enumerate(sorted((rays[t] for t in part), reverse=True)):
            columns.append(tuple(ray) + kron)
            labels.append((i, j + 1))
    A = tuple(
        tuple(col[row] for col in columns) for row in range(n + r)
    )
    beta = tuple([Fraction(0)] * n + [Fraction(-1, 2)] * r)
    alpha = tuple(
        Fraction(-1, 2) if lab[1] == 0 else Fraction(0) for lab in labels
    )
    # U[rank:] is a saturated basis of ker A, part of a unimodular basis;
    # each vector is signed so its first nonzero entry is negative
    rank, U, _ = linalg.echelon(list(zip(*A)))
    kernel = tuple(
        tuple(-x for x in v) if next(x for x in v if x) > 0 else tuple(v)
        for v in U[rank:]
    )
    return GkzSystem(
        A=A,
        beta=beta,
        alpha=alpha,
        kernel=kernel,
        column_labels=tuple(labels),
        n=n,
        r=r,
    )


def principal_kernel_vector(gkz):
    """Generator of the rank-1 kernel, signed so distinguished entries <= 0."""
    if len(gkz.kernel) != 1:
        raise FracmirrorError("multiparameter moduli unsupported")
    ell = list(gkz.kernel[0])
    dist = [ell[e] for e, lab in enumerate(gkz.column_labels) if lab[1] == 0]
    if all(x <= 0 for x in dist):
        pass
    elif all(x >= 0 for x in dist):
        ell = [-x for x in ell]
    else:
        raise FracmirrorError(
            "kernel generator has mixed signs on distinguished columns"
        )
    return tuple(ell)


def _series_factors(ell, alpha):
    """Split a kernel vector into numerator/denominator factor data."""
    num = []  # (base = -alpha_e, step = |ell_e|)
    den = []  # (base = 1 + alpha_e, step = ell_e)
    for le, ae in zip(ell, alpha):
        ae = parse_fraction(ae)
        if le < 0:
            if ae.denominator == 1:
                raise FracmirrorError(
                    "unsupported shape: negative kernel entry on an "
                    "integer-exponent column"
                )
            num.append((-ae, -le))
        elif le > 0:
            den.append((Fraction(1) + ae, le))
    return num, den


def hypergeometric_series(num, den, m, N, scale=1):
    """The eps-slices (S_0, ..., S_(m-1)), RationalSeries truncated at order
    N, of sum_n scale^n c_n z^n = sum_k S_k eps^k over Q[eps]/(eps^m), where

        c_n = prod_((a, k) in num) prod_(j=0)^(k n - 1) (a + k eps + j)
            / prod_((a, k) in den) prod_(j=0)^(k n - 1) (a + k eps + j).

    c_0 = 1, and c_n is c_(n-1) times the k linear factors that order n adds
    for each pair (a, k) of ``num``, divided by those of ``den``.  The
    recurrence runs on Python ints: c_n is kept as integer numerators U over
    one denominator E with their common content divided out, the new factors
    are integer polynomials in eps over a power of the bases' denominators
    (the same power at every order), and the division by the denominator
    polynomial B is one fraction-free triangular solve over B_0^m.  The
    integer ``scale`` joins each order's step once its gcd with the bases'
    denominators is cancelled, so a scale that clears them keeps E from
    growing.  Each eps-slice is handed over as integers: every order's U is
    scaled to the lcm of the per-order E.
    """
    m, N, scale = _order(m), _order(N), _order(scale)
    if N < 0:
        raise ValueError("truncation order must be nonnegative")
    (num, a_den), (den, b_den) = _factor_ints(num), _factor_ints(den)
    g = gcd(scale, a_den)
    y_scale, a_den = scale // g * b_den, a_den // g
    U, E = [1] + [0] * (m - 1), 1
    orders = [(U, E)]
    for n in range(1, N + 1):
        A, B = _new_factors(num, n, m), _new_factors(den, n, m)
        b0 = B[0]
        if b0 == 0:
            raise FracmirrorError(
                f"denominator factor vanishes at order {n}: c_n is undefined"
            )
        # c_n scale^n = (U/E) (A scale/a_den) / (B/b_den) = (Y/B) / (E a_den)
        # with Y = U A y_scale, scale and a_den divided by their gcd first;
        # W_i = (Y/B)_i b0^m = (Y_i b0^m - sum_(j>=1) B_j W_(i-j)) / b0 is an
        # exact division, since (Y/B)_i has denominator b0^(i+1), i < m
        bm, W = b0**m, []
        ybm = y_scale * bm
        for i in range(m):
            y = sum(map(mul, U[: i + 1], A[i::-1])) * ybm
            W.append((y - sum(map(mul, B[1 : i + 1], W[::-1]))) // b0)
        E *= a_den * bm
        g = gcd(E, *W)
        U, E = [w // g for w in W], E // g
        orders.append((U, E))
    D = lcm(*(E for _, E in orders))
    return tuple(_make([U[k] * (D // E) for U, E in orders], D, N) for k in range(m))


def _step(k):
    """A factor's weight k as an int: a float or a bool is refused, as by
    ``_order``, and so is k <= 0."""
    k = _order(k)
    if k <= 0:
        raise ValueError(f"a factor weight must be a positive integer, got {k}")
    return k


def _factor_ints(factors):
    """Each factor (a, k) as the ints (p, q, k) with a = p/q, and prod q^k,
    the denominator of every order's new factors."""
    out, d = [], 1
    for a, k in factors:
        a, k = a if type(a) is int else parse_fraction(a), _step(k)
        out.append((a.numerator, a.denominator, k))
        d *= a.denominator**k
    return out, d


def _new_factors(factors, n, m):
    """What order n adds: prod_((p, q, k)) prod_(j=k(n-1))^(k n - 1) (p + q j + q k eps),
    an integer polynomial in eps (coefficients c_0..c_(m-1)).  Each linear
    factor is q (a + j + k eps) with a = p/q, so this is prod q^k times the
    new factors."""
    c = [1] + [0] * (m - 1)
    for p, q, k in factors:
        y = q * k
        for x in range(p + y * (n - 1), p + y * n, q):
            # c *= x + y eps, top coefficient first
            for i in range(m - 1, 0, -1):
                c[i] = x * c[i] + y * c[i - 1]
            c[0] *= x
    return c


def holo_solution(ell, alpha, N):
    """The holomorphic solution sum c_n z^n of the rank-1 GKZ system.

    c_n multiplies rising factorials over the negative kernel entries and
    divides by rising factorials over the positive ones; c_0 = 1.  It is the
    eps^0 slice of ``hypergeometric_series`` at m = 1.
    """
    return hypergeometric_series(*_series_factors(ell, alpha), 1, N)[0]
