"""Truncated formal power series in z with exact rational coefficients.

``RationalSeries`` is a series over Q, truncated at a fixed order N.  It
holds the product, the quotient, ``inverse``, ``exp`` and theta;
``_lagrange`` reads coefficients of a composite or a compositional inverse
off the powers of one series.  A series over Q[eps]/(eps^m), such as a
Frobenius tower or an I-function, is a tuple of its m eps-slices, each a
``RationalSeries`` (see ``gkz.hypergeometric_series``).

All binary operations truncate to the smaller order; nothing is ever
extended silently.

A RationalSeries is stored as integer numerators A over one denominator
D > 0 with gcd(D, *A) = 1, so (N, A, D) is canonical; ``_make`` divides out
the content of every result.  The O(N^2) kernels run on these ints: a
product is the integer convolution over D_a * D_b, and a quotient,
``inverse`` and ``exp`` each solve one recurrence with the coefficients
found so far held as numerators over their running lcm, which grows only as
fast as the reduced denominators do (scaling by powers of c0's numerator or
by n! D^n instead grows the integers with every order); a division forms no
inverse and no product.  ``_lagrange_powers`` splits the powers of one
series into baby and giant steps (Paterson and Stockmeyer 1973; Brent and
Kung 1978), about 2 sqrt(N) products instead of N, and every ``_lagrange``
call on that series reads the same powers.  The coefficients as
reduced ``Fraction``s (``c``, ``coeff``) are read off (N, A, D) each time.
"""

from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, isqrt, lcm
from operator import mul

from .errors import FracmirrorError, _as_int

__all__ = ["RationalSeries", "parse_fraction", "fraction_str"]

_ZERO = Fraction(0)


def parse_fraction(x):
    """Accept a Fraction, a 'p/q' string or an int (``errors._as_int``)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    return Fraction(_as_int(x, "scalar"))


def fraction_str(q):
    return str(parse_fraction(q))


def _recurrence(b, w, d):
    """(U, E) with x_n = U_n / E for n < len(d), where x_n = (b_n + w_1 x_(n-1)
    + ... + w_n x_0) / d_n with ints ``b``, ``w`` and ``d``.  E is the lcm of the
    reduced denominators so far, so step n is one integer dot product and one
    gcd; U is rescaled when x_n's denominator does not divide E.
    """
    U, E = [], 1
    for n, dn in enumerate(d):
        num = b[n] * E + sum(map(mul, w[1 : n + 1], reversed(U)))
        den = dn * E
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        t = den // g
        if E % t:
            k = t // gcd(E, t)
            U = [u * k for u in U]
            E *= k
        U.append(num // g * (E // t))
    return U, E


def _product(A, B, N):
    """[z^n] A*B for n <= N over the ints: the convolution sum_(i+j=n) A_i B_j."""
    B = B[N::-1]  # B_N, ..., B_0
    return [sum(map(mul, A[: n + 1], B[N - n :])) for n in range(N + 1)]


def _powers(g, m):
    """[g^0, g^1, ..., g^m] at g's order: m - 1 products."""
    P = [_make((1,), 1, g.N), g]
    while len(P) <= m:
        P.append(P[-1] * g)
    return P


def _lagrange_powers(h):
    """The baby powers h^0 ... h^m and the giant powers (h^m)^0 ... (h^m)^j
    that ``_lagrange`` reads, at h's order, with m = isqrt(h.N + 1) and
    j = h.N // m: one ladder that both forms, k0 = 0 and k0 = 1, read."""
    m = isqrt(h.N + 1)
    baby = _powers(h, m)
    return baby, _powers(baby[m], h.N // m)


def _lagrange(powers, k0, F=None):
    """The series of order N + k0 with [z^k] = [w^(k-k0)] F h^k / k^k0, F = 1 if
    None: Lagrange-Buermann's two forms, both read off the one giant ladder of
    ``powers = _lagrange_powers(h)``.  N is the smaller of h.N and F.N, as by a
    binary operation.  For k = jm + a and 0 < a <= m, each is one integer dot
    product of F h^a and h^(jm)."""
    baby, giant = powers
    m = len(baby) - 1
    if F is not None:
        baby = [F] + [F * p for p in baby[1:]]
    N = baby[m].N + k0
    nums, dens = [0 if k0 else baby[0].A[0]], [baby[0].D]
    for k in range(1, N + 1):
        p, g, i = baby[(k - 1) % m + 1], giant[(k - 1) // m], k - k0
        nums.append(sum(map(mul, p.A[: i + 1], g.A[i::-1])))
        dens.append(k**k0 * p.D * g.D)
    D = lcm(*dens)
    return _make([p * (D // q) for p, q in zip(nums, dens)], D, N)


def _coeff_strs(A, D, s=1, c=1):
    """``fraction_str`` of each c A_n / (D s^n) for ints A, D > 0, s > 0 and
    c, so a series f in x = z/s is written as c f(z/s) in z: one gcd per
    coefficient, so A and D need not be in lowest terms."""
    dens = accumulate(repeat(s, len(A) - 1), mul, initial=D)
    return [str(n // g) if (g := gcd(n := c * a, d)) == d else f"{n // g}/{d // g}" for a, d in zip(A, dens)]


def _make(A, D, N):
    """The RationalSeries sum_n (A_n / D) z^n for ints A and D > 0, cut or
    zero-padded to order N, with the content gcd(D, *A) divided out."""
    A = tuple(A[: N + 1]) + (0,) * (N + 1 - len(A))
    g = gcd(D, *A)
    if g > 1:
        A, D = tuple(a // g for a in A), D // g
    obj = object.__new__(RationalSeries)
    obj._hold(A, D, N)
    return obj


class RationalSeries:
    """Truncated series in z over Q: coefficient n is A[n] / D, with D > 0
    and gcd(D, *A) == 1, so (N, A, D) is canonical."""

    __slots__ = ("N", "A", "D")

    # perfbench/spans.py wraps the methods of ``series._Series`` and labels a
    # span "rational" when ``args[0].ring.m is None``.  This ``m``, ``ring``,
    # the ``_Series`` alias below and the names ``log``, ``compose`` and
    # ``reversion``, which it wraps and nothing calls, exist only for it, and
    # go when ROADMAP item 5 stages the spans inside the program.
    m = log = compose = reversion = None

    @property
    def ring(self):
        return self

    def __init__(self, coeffs=(), N=None):
        vals = [parse_fraction(x) for x in coeffs]
        N = max(len(vals) - 1, 0) if N is None else _as_int(N, "order N")
        if N < 0:
            raise ValueError("truncation order must be nonnegative")
        vals = vals[: N + 1] + [_ZERO] * (N + 1 - len(vals))
        D = lcm(*(x.denominator for x in vals))  # so gcd(D, *A) == 1
        self._hold(tuple(x.numerator * (D // x.denominator) for x in vals), D, N)

    def _hold(self, A, D, N):
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "D", D)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("series are immutable")

    @property
    def c(self):
        """The coefficients as reduced Fractions, built on each read."""
        return tuple(Fraction(a, self.D) for a in self.A)

    def coeff(self, n):
        return Fraction(self.A[n], self.D) if 0 <= _as_int(n, "index n") <= self.N else _ZERO

    def truncate(self, N):
        N = _as_int(N, "order N")
        if N < 0:
            raise ValueError("truncation order must be nonnegative")
        if N > self.N:
            raise FracmirrorError("cannot extend a truncated series")
        return self if N == self.N else _make(self.A, self.D, N)

    def __add__(self, other):
        if isinstance(other, RationalSeries):
            D = lcm(self.D, other.D)
            a, b = D // self.D, D // other.D
            return _make([x * a + y * b for x, y in zip(self.A, other.A)], D, min(self.N, other.N))
        x = parse_fraction(other)
        return self + _make((x.numerator,), x.denominator, self.N)

    __radd__ = __add__

    def __neg__(self):
        return _make([-x for x in self.A], self.D, self.N)

    def __mul__(self, other):
        if isinstance(other, RationalSeries):
            N = min(self.N, other.N)
            return _make(_product(self.A, other.A, N), self.D * other.D, N)
        x = parse_fraction(other)
        return _make([y * x.numerator for y in self.A], self.D * x.denominator, self.N)

    __rmul__ = __mul__

    def inverse(self):
        """1/self, as the quotient 1 / self."""
        return _make((1,), 1, self.N) / self

    def __truediv__(self, other):
        """self / other for a series other, as one recurrence: with self = A/D
        and other = B/F, y = A/B solves y_n = (A_n - B_1 y_(n-1) - ... - B_n y_0)
        / B_0, and self / other = y F/D.  Divide by a scalar x as * (1/x)."""
        N = min(self.N, other.N)
        B = other.A
        if not B[0]:
            raise FracmirrorError("constant term is not invertible")
        U, E = _recurrence(self.A, [-x for x in B], [B[0]] * (N + 1))
        return _make([u * other.D for u in U], E * self.D, N)

    def theta(self):
        """z d/dz."""
        return _make([n * x for n, x in enumerate(self.A)], self.D, self.N)

    def shift(self, j):
        """Multiply by z^j (j >= 0), truncating at the same order."""
        j = _as_int(j, "shift j")
        if j < 0:
            raise FracmirrorError("division by z is not defined for truncated series")
        return _make((0,) * j + self.A, self.D, self.N)

    def exp(self):
        """exp(self), c_0 = 0: with c = A/D, e_n = (sum_k k A_k e_(n-k)) / (n D)."""
        if self.A[0]:
            raise FracmirrorError("exp needs a zero constant term")
        A, D = self.A, self.D
        d = [n * D or 1 for n in range(len(A))]  # e_0 = b_0 / d_0 = 1
        U, E = _recurrence((1,) + (0,) * self.N, [k * x for k, x in enumerate(A)], d)
        return _make(U, E, self.N)

    def __eq__(self, other):
        if not isinstance(other, RationalSeries):
            return False
        return (self.N, self.D, self.A) == (other.N, other.D, other.A)

    def __hash__(self):
        return hash((self.N, self.A, self.D))

    def to_json(self, s=1, c=1):
        """The coefficients as text; with a scale s and a factor c, those of
        c self(z/s)."""
        return {"N": self.N, "coeffs": _coeff_strs(self.A, self.D, s, c)}


_Series = RationalSeries  # for perfbench/spans.py until ROADMAP item 5
