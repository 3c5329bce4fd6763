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
one common denominator) and builds one Fraction per output coefficient.  The
holomorphic solution is its eps^0 slice.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

from . import linalg
from .errors import FracmirrorError
from .series import NilpotentSeries, RationalSeries

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
    kernel = linalg.smith_relations(A).kernel
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
        ae = Fraction(ae)
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


def hypergeometric_series(num, den, m, N):
    """sum_n c_n z^n over Q[eps]/(eps^m), truncated at order N, where

        c_n = prod_((a, k) in num) prod_(j=0)^(k n - 1) (a + k eps + j)
            / prod_((a, k) in den) prod_(j=0)^(k n - 1) (a + k eps + j).

    c_0 = 1, and c_n is c_(n-1) times the k linear factors that order n adds
    for each pair (a, k) of ``num``, divided by those of ``den``.  The
    recurrence runs on Python ints: c_n is kept as integer numerators U over
    one denominator E with their common content divided out, the new factors
    are integer polynomials in eps over a power of the bases' denominators,
    and the division by the denominator polynomial B is one fraction-free
    triangular solve, brought to the denominator B_0^m.  One reduced Fraction
    is built per output coefficient, straight into the eps-slices.
    """
    U, E = [1] + [0] * (m - 1), 1
    slices = [[Fraction(u)] for u in U]
    for n in range(1, N + 1):
        A, a_den = _new_factors(num, n, m)
        B, b_den = _new_factors(den, n, m)
        b0 = B[0]
        if b0 == 0:
            raise FracmirrorError(
                f"denominator factor vanishes at order {n}: c_n is undefined"
            )
        # c_n = (U/E) (A/a_den) / (B/b_den) = (Y/B) / (E a_den) with
        # Y = U A b_den; T_i = Y_i b0^i - sum_(j>=1) B_j T_(i-j) b0^(j-1)
        # is (Y/B)_i b0^(i+1)
        T = []
        for i in range(m):
            y = sum(map(mul, U[: i + 1], A[i::-1])) * b_den * b0**i
            T.append(y - sum(B[j] * T[i - j] * b0 ** (j - 1) for j in range(1, i + 1)))
        U = [t * b0 ** (m - 1 - i) for i, t in enumerate(T)]
        E *= a_den * b0**m
        g = gcd(E, *U)
        U, E = [u // g for u in U], E // g
        for s, u in zip(slices, U):
            s.append(Fraction(u, E))
    return NilpotentSeries.from_slices([RationalSeries(s, N) for s in slices])


def _new_factors(factors, n, m):
    """What order n adds: prod_((a, k)) prod_(j=k(n-1))^(k n - 1) (a + k eps + j).

    With a = p/q the factor is (p + q j + q k eps)/q, so the product is an
    integer polynomial in eps (coefficients c_0..c_(m-1)) over prod q^k.
    """
    c = [1] + [0] * (m - 1)
    d = 1
    for a, k in factors:
        p, q = a.numerator, a.denominator
        d *= q**k
        for j in range(k * (n - 1), k * n):
            # c *= (p + q j) + q k eps, top coefficient first
            x, y = p + q * j, q * k
            for i in range(m - 1, 0, -1):
                c[i] = x * c[i] + y * c[i - 1]
            c[0] *= x
    return c, d


def holo_solution(ell, alpha, N):
    """The holomorphic solution sum c_n z^n of the rank-1 GKZ system.

    c_n multiplies rising factorials over the negative kernel entries and
    divides by rising factorials over the positive ones; c_0 = 1.  It is the
    eps^0 slice of ``hypergeometric_series`` at m = 1.
    """
    return hypergeometric_series(*_series_factors(ell, alpha), 1, N).eps_slice(0)
