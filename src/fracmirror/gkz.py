"""GKZ hypergeometric data attached to a nef-partition.

The matrix A gathers the columns nu_(i,j) = (rho_(i,j), Kronecker block):
one distinguished column nu_(i,0) = (0, e_i) per part, then one column per
ray of that part.  Internally the n lattice rows come first and the r
Kronecker rows last; ``display_rows`` re-orders for display with the Kronecker
block on top.  Each distinguished column carries the exponent ``EXPONENT``
= -1/2 (a double cover is a fractional complete intersection) and each ray
column 0, so beta has the shape (0, ..., 0, -1/2, ..., -1/2), ``GkzSystem``
works out beta and alpha from A and its column labels, and the series read
the kernel vector alone.

Every series solution in the one-parameter case comes from one kernel,
``hypergeometric_series`` of the kernel vector: a ratio of rising factorials
over Q[eps]/(eps^m), built order by order from linear factors, so no
transcendental Gamma value is ever evaluated.  Its recurrence applies each
linear factor in place to integer numerators U over one denominator E, and
hands over by order (``Slices``): coefficient n of eps-slice k is U_n[k] / E_n,
and a slice is made a ``RationalSeries`` over the lcm of the E_n, with no
Fraction per coefficient, only when read.  The holomorphic solution is its
eps^0 slice (``cohom.deformed_solution``).
Its integer ``scale`` gives sum scale^n c_n z^n inside the recurrence: at the
scale s = 4^(sum k) of ``kernel_scale`` the slices are the untwisted
I-function in x = z/s (``cohom.i_function_untwisted``), and a scale that
clears the numerator factors' denominators 2^k costs nothing.
"""

from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import linalg
from .errors import _as_int, _as_ints
from .series import _make, fraction_str

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
    """Assembled GKZ data: matrix, exponents, and kernel lattice basis.  r is
    the number of distinguished columns and n the rest of A's rows."""

    def __init__(self, A, kernel, column_labels):
        self.A = A  # (n+r) x (p+r) integer rows, lattice rows first
        self.kernel = kernel  # basis vectors of ker A, saturated
        self.column_labels = column_labels  # (part index i, j) with j = 0 distinguished
        self.r = sum(j == 0 for _, j in column_labels)
        self.n = len(A) - self.r
        self.beta = (Fraction(0),) * self.n + (EXPONENT,) * self.r
        self.alpha = tuple(EXPONENT if j == 0 else Fraction(0) for _, j in column_labels)

    def display_rows(self):
        """Row order used for display: Kronecker block first."""
        order = list(range(self.n, self.n + self.r)) + list(range(self.n))
        return tuple(self.A[i] for i in order), tuple(self.beta[i] for i in order)

    def to_json(self):
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
    vector with c_g (``data.c``, see ``nefpart.simplex_relation``) on the
    column of ray g and minus the part sum C_i (``data.part_sums``) on that
    of part i (``simplex_kernel_vector``); otherwise it has rank p - n > 1
    for p rays and is read off one echelon of A^T.
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
    return GkzSystem(A, kernel, tuple(labels))


def simplex_kernel_vector(data):
    """A simplex's kernel vector in ``build_gkz``'s column order, without A,
    alpha or beta: per part i, -C_i (``data.part_sums``, kept from
    validation) and then c_g for its rays in reverse-lex order; None off a
    simplex."""
    if data.part_sums is None:
        return None
    # part indices ascend on the lex-sorted rays: part[::-1] is reverse-lex
    ell = []
    for Ck, part in zip(data.part_sums, data.ray_parts):
        ell += [-Ck] + [data.c[t] for t in part[::-1]]
    return tuple(ell)


def kernel_scale(ell):
    """The scale s = 4^(sum k) of x = z/s, over the negative entries -k of ell."""
    return 4 ** -sum(le for le in _as_ints(ell, "kernel entry") if le < 0)


class Slices(Sequence):
    """The m eps-slices of one ``hypergeometric_series`` call, read-only: U[k][n] / E[n]
    is coefficient n of slice k (gcd(E_n, *U_n) = 1, E_n > 0).  Slice k is ``_make``
    of the numerators scaled to D = lcm(E), formed once, and built each time it is read;
    a Python slice of the sequence is the tuple of the slices it selects.
    ``orders`` holds (U_n, E_n) for n = 0..N."""

    def __init__(self, orders):
        self.U = tuple(zip(*(U for U, _ in orders)))
        self.E = tuple(E for _, E in orders)
        self.N, self._D = len(orders) - 1, lcm(*self.E)

    def __len__(self):
        return len(self.U)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self.__getitem__, range(len(self))[k]))
        D = self._D
        return _make([u * (D // E) for u, E in zip(self.U[k], self.E)], D, self.N)


def hypergeometric_series(ell, m, N, scale=1):
    """The ``Slices`` (S_0, ..., S_(m-1)), handed over by order and truncated at
    order N, of sum_n scale^n c_n z^n = sum_k S_k eps^k over Q[eps]/(eps^m), where

        c_n = prod_(l_e<0) prod_(j=0)^(k_e n - 1) (1/2 + k_e eps + j)
            / prod_(l_e>0) prod_(j=0)^(l_e n - 1) (1 + l_e eps + j),   k_e = -l_e,

    the factors of the exponents: base -EXPONENT on each distinguished column,
    1 on each ray column.  Each int is read by ``errors._as_int``; m >= 1.

    The negative entries are exactly the distinguished columns: the n + 1
    rays span R^n with the origin in their interior, so their one relation
    has all coefficients positive, and each distinguished entry is minus the
    sum of its part's.

    c_0 = 1, and c_n is c_(n-1) times the linear factors that order n adds.
    The recurrence runs on Python ints: c_n is kept as integer numerators U
    over one denominator E > 0, and each linear factor acts on U in place.
    A numerator factor 1/2 + k eps + j is (x + y eps)/2 with x = 1 + 2j and
    y = 2k, and U_i <- x U_i + y U_(i-1), top down; the 2^(sum k) goes into E
    once its gcd with the integer ``scale`` is cancelled, so a scale that
    clears it keeps E from growing.  A positive entry l of multiplicity r
    divides by (x + l eps)^r = x^r (1 + l t)^r, t = eps/x, for x = l(n-1) + 1
    .. ln: U_i is scaled by x^i, r passes U_i <- U_i - l U_(i-1) upward divide
    by (1 + l t)^r, U_i is scaled by x^(m-1-i) and E by x^(m-1+r).  That is
    exact, and the one division per order is by gcd(E, *U).
    """
    m, N = _as_int(m, "nilpotency order m"), _as_int(N, "order N")
    scale, ell = _as_int(scale, "scale"), _as_ints(ell, "kernel entry")
    if N < 0:
        raise ValueError("truncation order must be nonnegative")
    if m < 1:
        raise ValueError("nilpotency order m must be at least 1")
    p, q = -EXPONENT.numerator, EXPONENT.denominator  # the base -EXPONENT = p/q
    num = [-le for le in ell if le < 0]
    den = Counter(le for le in ell if le > 0).items()
    a_den = q ** sum(num)
    g = gcd(scale, a_den)
    y_scale, a_den = scale // g, a_den // g
    U, E = [1] + [0] * (m - 1), 1
    orders = [(U, E)]
    down, up = range(m - 1, 0, -1), range(1, m)
    for n in range(1, N + 1):
        U = [u * y_scale for u in U]
        for k in num:
            y = q * k
            for x in range(p + y * (n - 1), p + y * n, q):
                for i in down:
                    U[i] = x * U[i] + y * U[i - 1]
                U[0] *= x
        E *= a_den
        for l, r in den:
            for x in range(l * (n - 1) + 1, l * n + 1):
                powers = [x**i for i in range(m)]
                U = list(map(mul, U, powers))
                for _ in range(r):
                    for i in up:
                        U[i] -= l * U[i - 1]
                U = list(map(mul, U, reversed(powers)))
                E *= powers[-1] * x**r
        g = gcd(E, *U)
        U, E = [u // g for u in U], E // g
        orders.append((U, E))
    return Slices(orders)


holo_solution = None  # for perfbench/spans.py until ROADMAP item 5
