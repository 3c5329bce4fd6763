"""Truncated formal power series in z with exact rational coefficients.

``RationalSeries`` is a series over Q, truncated at a fixed order N.  It
holds the product, ``inverse``, ``exp`` and theta; ``_lagrange`` reads
coefficients of a composite or a compositional inverse off the powers of
one series.  A series over Q[eps]/(eps^m), such as a Frobenius tower or an
I-function, is a tuple of its m eps-slices, each a ``RationalSeries`` (see
``gkz.hypergeometric_series``).

All binary operations truncate to the smaller order; nothing is ever
extended silently.

A RationalSeries is stored as integer numerators A over one denominator
D > 0 with gcd(D, *A) = 1, so (N, A, D) is canonical; ``_make`` divides out
the content of every result.  The O(N^2) kernels run on these ints: a
product is the integer convolution over D_a * D_b, and ``inverse`` and
``exp`` solve their recurrences with the coefficients found so far held as
numerators over their running lcm, which grows only as fast as the reduced
denominators do (scaling by powers of c0's numerator or by n! D^n instead
grows the integers with every order).  ``/`` is built from these, and
``_lagrange`` splits the powers of one series into baby and giant steps
(Paterson and Stockmeyer 1973; Brent and Kung 1978), forming about
2 sqrt(N) products instead of N.  The coefficients as reduced ``Fraction``s
(``c``, ``coeff``) are built once.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import index, mul

from .errors import FracmirrorError

__all__ = ["RationalSeries", "parse_fraction", "fraction_str"]

_ZERO = Fraction(0)


def parse_fraction(x):
    """Accept int, Fraction, or 'p/q' string; a float or a bool is refused."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def _order(n):
    """n as an int; a float or a bool is refused, as by ``parse_fraction``."""
    if isinstance(n, bool):
        raise TypeError(f"an order must be an integer, got {n!r}")
    return index(n)


def fraction_str(q):
    q = parse_fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _recurrence(u0, e0, w, d):
    """(U, E) with x_n = U_n / E, where x_0 = u0 / e0 and, for 0 < n < len(w),
    x_n = (w_1 x_(n-1) + ... + w_n x_0) / d_n with ints ``w`` and ``d``.  E is
    the lcm of the reduced denominators so far, so step n is one integer dot
    product and one gcd; U is rescaled when x_n's denominator does not divide E.
    """
    U, E = [], 1
    for n in range(len(w)):
        num, den = (sum(map(mul, w[1 : n + 1], reversed(U))), d[n] * E) if n else (u0, e0)
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


def _lagrange(h, k0, F=None):
    """The series of order h.N + k0 with [z^k] = [w^(k-k0)] F h^k / k^k0, F = 1 if
    None: Lagrange-Buermann's two forms.  For k = jm + a, m = isqrt(h.N + 1) and
    0 < a <= m, each is one integer dot product of F h^a and h^(jm)."""
    m = isqrt(h.N + 1)
    baby = _powers(h, m)
    giant = _powers(baby[m], (h.N + k0 - 1) // m)
    if F is not None:
        baby = [F] + [F * p for p in baby[1:]]
    nums, dens = [0 if k0 else baby[0].A[0]], [baby[0].D]
    for k in range(1, h.N + k0 + 1):
        p, g, i = baby[(k - 1) % m + 1], giant[(k - 1) // m], k - k0
        nums.append(sum(map(mul, p.A[: i + 1], g.A[i::-1])))
        dens.append(k**k0 * p.D * g.D)
    D = lcm(*dens)
    return _make([p * (D // q) for p, q in zip(nums, dens)], D, h.N + k0)


def _coeff_strs(A, D):
    """``fraction_str`` of each A_n / D for ints A and D > 0: the numerators
    themselves when D == 1, else one gcd per coefficient, so A and D need
    not be in lowest terms."""
    if D == 1:
        return list(map(str, A))
    G = map(gcd, A, [D] * len(A))
    return [str(a // g) if g == D else f"{a // g}/{D // g}" for a, g in zip(A, G)]


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

    __slots__ = ("N", "A", "D", "_c")

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
        N = max(len(vals) - 1, 0) if N is None else _order(N)
        if N < 0:
            raise ValueError("truncation order must be nonnegative")
        vals = vals[: N + 1] + [_ZERO] * (N + 1 - len(vals))
        D = lcm(*(x.denominator for x in vals))  # so gcd(D, *A) == 1
        self._hold(tuple(x.numerator * (D // x.denominator) for x in vals), D, N, tuple(vals))

    def _hold(self, A, D, N, c=None):
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "_c", c)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("series are immutable")

    @property
    def c(self):
        """The coefficients as reduced Fractions, built on first read."""
        if self._c is None:
            object.__setattr__(self, "_c", tuple(Fraction(a, self.D) for a in self.A))
        return self._c

    def coeff(self, n):
        return self.c[n] if 0 <= n <= self.N else _ZERO

    def truncate(self, N):
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
        """1/self: u_0 = D/A_0 and u_n = -(A_1 u_(n-1) + ... + A_n u_0) / A_0."""
        A = self.A
        if not A[0]:
            raise FracmirrorError("constant term is not invertible")
        U, E = _recurrence(self.D, A[0], [-x for x in A], [A[0]] * len(A))
        return _make(U, E, self.N)

    def __truediv__(self, other):
        """self / other for a series other; divide by a scalar x as * (1/x)."""
        N = min(self.N, other.N)
        return self.truncate(N) * other.truncate(N).inverse()

    def theta(self):
        """z d/dz."""
        return _make([n * x for n, x in enumerate(self.A)], self.D, self.N)

    def shift(self, j):
        """Multiply by z^j (j >= 0), truncating at the same order."""
        if j < 0:
            raise FracmirrorError("division by z is not defined for truncated series")
        return _make((0,) * j + self.A, self.D, self.N)

    def exp(self):
        """exp(self), c_0 = 0: with c = A/D, e_n = (sum_k k A_k e_(n-k)) / (n D)."""
        if self.A[0]:
            raise FracmirrorError("exp needs a zero constant term")
        A, D = self.A, self.D
        U, E = _recurrence(1, 1, [k * x for k, x in enumerate(A)], [n * D for n in range(len(A))])
        return _make(U, E, self.N)

    def __eq__(self, other):
        if not isinstance(other, RationalSeries):
            return False
        return (self.N, self.D, self.A) == (other.N, other.D, other.A)

    def __hash__(self):
        return hash((self.N, self.A, self.D))

    def to_json(self):
        return {"N": self.N, "coeffs": _coeff_strs(self.A, self.D)}


_Series = RationalSeries  # for perfbench/spans.py until ROADMAP item 5
