"""GKZ hypergeometric data attached to a nef-partition.

The matrix A gathers the columns nu_(i,j) = (rho_(i,j), Kronecker block):
one distinguished column nu_(i,0) = (0, e_i) per part, then one column per
ray of that part.  Internally the n lattice rows come first and the r
Kronecker rows last; ``display_rows`` re-orders for display with the Kronecker
block on top.  Each distinguished column carries the exponent ``EXPONENT``
= -1/2 (a double cover is a fractional complete intersection) and each ray
column 0, so beta has the shape (0, ..., 0, -1/2, ..., -1/2) and the series
read the kernel vector alone.

Every series solution in the one-parameter case comes from one kernel,
``hypergeometric_series`` of the kernel vector: a ratio of rising factorials
over Q[eps]/(eps^m), built order by order from linear factors, so no
transcendental Gamma value is ever evaluated.  Its recurrence runs on Python
ints and hands over by order (``Slices``): coefficient n of eps-slice k is
U_n[k] / E_n, and a slice is made a ``RationalSeries`` over the lcm of the
E_n, with no Fraction per coefficient, only when read.  The holomorphic solution is its eps^0 slice
(``cohom.deformed_solution``).
Its integer ``scale`` gives sum scale^n c_n z^n inside the recurrence: at the
scale s = 4^(sum k) of ``kernel_scale`` the slices are the untwisted
I-function in x = z/s (``cohom.i_function_untwisted``), and a scale that
clears the numerator factors' denominators 2^k costs nothing.
"""

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import linalg
from .series import _make, _order

# The exponent of every distinguished column (every ray column has 0)
EXPONENT = Fraction(-1, 2)

__all__ = [
    "GkzSystem",
    "build_gkz",
    "simplex_kernel_vector",
    "kernel_scale",
    "Slices",
    "hypergeometric_series",
]


class GkzSystem:
    """Assembled GKZ data: matrix, exponents, and kernel lattice basis."""

    def __init__(self, A, beta, alpha, kernel, column_labels, n, r):
        self.A = A  # (n+r) x (p+r) integer rows, lattice rows first
        self.beta = beta  # length n+r, Fractions
        self.alpha = alpha  # length p+r, Fractions
        self.kernel = kernel  # basis vectors of ker A, saturated
        self.column_labels = column_labels  # (part index i, j) with j = 0 distinguished
        self.n = n
        self.r = r

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
    the part's rays in reverse-lex order.  On a simplex the kernel is the
    vector with c_g (``data.relation``, see ``nefpart.simplex_relation``) on
    the column of ray g and -sum_(g in I_i) c_g on that of part i
    (``simplex_kernel_vector``); otherwise it has rank p - n > 1 for p rays
    and is read off one echelon of A^T.
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
    beta = tuple([Fraction(0)] * n + [EXPONENT] * r)
    alpha = tuple(EXPONENT if lab[1] == 0 else Fraction(0) for lab in labels)
    ell = simplex_kernel_vector(data)
    if ell is not None:
        kernel = (ell,)
    else:
        # U[rank:] is a saturated basis of ker A, part of a unimodular basis;
        # each vector is signed so its first nonzero entry is negative
        rank, U = linalg.echelon(list(zip(*A)))
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


def simplex_kernel_vector(data):
    """A simplex's kernel vector in ``build_gkz``'s column order, without A,
    alpha or beta: per part i, -sum_(g in I_i) c_g (``data.relation``, kept
    from validation) and then c_g for its rays in reverse-lex order; None off
    a simplex."""
    relation = data.relation
    if relation is None:
        return None
    # part indices ascend on the lex-sorted rays: part[::-1] is reverse-lex
    c, ell = relation[1], []
    for part in data.ray_parts:
        ell += [-sum(c[t] for t in part)] + [c[t] for t in part[::-1]]
    return tuple(ell)


def kernel_scale(ell):
    """The scale s = 4^(sum k) of x = z/s, over the negative entries -k of ell."""
    return 4 ** -sum(le for le in map(_order, ell) if le < 0)


class Slices(Sequence):
    """The m eps-slices of one ``hypergeometric_series`` call, read-only: U[k][n] / E[n]
    is coefficient n of slice k (gcd(E_n, *U_n) = 1, E_n > 0).  Slice k is ``_make``
    of the numerators scaled to D = lcm(E), formed once, and built on first read."""

    def __init__(self, orders, N):
        self.U = tuple(zip(*(U for U, _ in orders)))
        self.E = tuple(E for _, E in orders)
        self.N, self._D, self._built = N, lcm(*self.E), {}

    def __len__(self):
        return len(self.U)

    def __getitem__(self, k):
        k = range(len(self.U))[k]
        if k not in self._built:
            D = self._D
            self._built[k] = _make([u * (D // E) for u, E in zip(self.U[k], self.E)], D, self.N)
        return self._built[k]


def hypergeometric_series(ell, m, N, scale=1):
    """The ``Slices`` (S_0, ..., S_(m-1)), handed over by order and truncated at
    order N, of sum_n scale^n c_n z^n = sum_k S_k eps^k over Q[eps]/(eps^m), where

        c_n = prod_(l_e<0) prod_(j=0)^(k_e n - 1) (1/2 + k_e eps + j)
            / prod_(l_e>0) prod_(j=0)^(l_e n - 1) (1 + l_e eps + j),   k_e = -l_e,

    the factors of the exponents: base -EXPONENT on each distinguished column,
    1 on each ray column.  Entries are read as by ``series._order``.

    The negative entries are exactly the distinguished columns: the n + 1
    rays span R^n with the origin in their interior, so their one relation
    has all coefficients positive, and each distinguished entry is minus the
    sum of its part's.

    c_0 = 1, and c_n is c_(n-1) times the linear factors that order n adds.
    The recurrence runs on Python ints: c_n is kept as integer numerators U
    over one denominator E > 0 with their common content divided out, the new
    numerator factors are integer polynomials in eps over 2^(sum k), and the
    division by the denominator polynomial B, whose eps^0 coefficient is a
    product of positive ints, is one fraction-free triangular solve over B_0^m.
    The integer ``scale`` joins each order's step once its gcd with 2^(sum k)
    is cancelled, so a scale that clears it keeps E from growing.
    """
    m, N, scale = _order(m), _order(N), _order(scale)
    if N < 0:
        raise ValueError("truncation order must be nonnegative")
    p, q = -EXPONENT.numerator, EXPONENT.denominator  # the base -EXPONENT = p/q
    ell = tuple(map(_order, ell))
    num = [(p, q, -le) for le in ell if le < 0]
    den = [(1, 1, le) for le in ell if le > 0]
    a_den = q ** sum(k for _, _, k in num)
    g = gcd(scale, a_den)
    y_scale, a_den = scale // g, a_den // g
    U, E = [1] + [0] * (m - 1), 1
    orders = [(U, E)]
    for n in range(1, N + 1):
        A, B = _new_factors(num, n, m), _new_factors(den, n, m)
        # c_n scale^n = (U/E) (A scale/a_den) / B = (Y/B) / (E a_den)
        # with Y = U A y_scale, scale and a_den divided by their gcd first;
        # W_i = (Y/B)_i b0^m = (Y_i b0^m - sum_(j>=1) B_j W_(i-j)) / b0 is an
        # exact division, since (Y/B)_i has denominator b0^(i+1), i < m
        b0 = B[0]
        bm, W = b0**m, []
        ybm = y_scale * bm
        for i in range(m):
            y = sum(map(mul, U[: i + 1], A[i::-1])) * ybm
            W.append((y - sum(map(mul, B[1 : i + 1], W[::-1]))) // b0)
        E *= a_den * bm
        g = gcd(E, *W)
        U, E = [w // g for w in W], E // g
        orders.append((U, E))
    return Slices(orders, N)


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


holo_solution = None  # for perfbench/spans.py until ROADMAP item 5
