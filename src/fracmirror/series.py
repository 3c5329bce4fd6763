"""Truncated formal power series with exact rational coefficients.

Three classes:

* ``RationalSeries`` — series in z over Q, truncated at a fixed order N.  It
  holds every kernel: product, ``inverse``, ``exp``, ``log``, ``compose``,
  ``reversion``, theta and its inverse.
* ``NilpotentSeries`` — series over Q[eps]/(eps^m), used for
  cohomology-valued solutions.  Since Q[eps]/(eps^m)[[z]] =
  Q[[z]][eps]/(eps^m), it is stored as its m eps-slices, each a
  ``RationalSeries``: +, -, scalar multiples, theta, shift and truncation act
  slice by slice, a product is the truncated convolution
  sum_(i+j=k) A_i B_j on the Q product, and ``coeff(n)`` reads an ``EpsPoly``.
* ``LogSeries`` — polynomials in the formal symbol L = log z whose
  coefficients are series of either kind; theta = z d/dz acts by
  theta(L^k S) = k L^(k-1) S + L^k theta(S).

All binary operations truncate to the smaller order; nothing is ever
extended silently.

Coefficients are stored as reduced ``Fraction``s, but the O(N^2) kernels
(product, ``inverse``, ``exp``) run on Python ints: the operands are brought
to integer numerators over the lcm of their denominators, each output
coefficient is one integer dot product, and one reduced ``Fraction`` is built
per output coefficient.  A product is the integer convolution over
D_a * D_b.  ``inverse`` and ``exp`` solve their recurrences with the
coefficients found so far held as numerators over their running lcm, which
grows only as fast as the reduced denominators do (scaling by powers of c0's
numerator or by n! D^n instead grows the integers with every order).
``log``, ``/``, ``compose`` and ``reversion`` are built from these.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import add, index, mul, neg

from .errors import FracmirrorError

__all__ = [
    "EpsPoly",
    "RationalSeries",
    "NilpotentSeries",
    "LogSeries",
    "parse_fraction",
    "fraction_str",
]

_ZERO = Fraction(0)


def parse_fraction(x):
    """Accept int, Fraction, or 'p/q' string."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def fraction_str(q):
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class EpsPoly:
    """Element of Q[eps]/(eps^m): coefficients (c0, ..., c_(m-1))."""

    __slots__ = ("m", "c")

    def __init__(self, m, coeffs=()):
        m = index(m)
        if m < 1:
            raise ValueError("nilpotency order m must be at least 1")
        vals = [parse_fraction(x) for x in coeffs][:m]
        vals += [_ZERO] * (m - len(vals))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "c", tuple(vals))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("EpsPoly is immutable")

    @classmethod
    def constant(cls, m, value):
        return cls(m, (parse_fraction(value),))

    @classmethod
    def eps(cls, m, power=1):
        if power < 0:
            raise ValueError("eps power must be nonnegative")
        return cls(m, (0,) * power + (1,))

    def coeff(self, k):
        return self.c[k] if 0 <= k < self.m else _ZERO

    @property
    def is_zero(self):
        return all(x == 0 for x in self.c)

    def _coerce(self, other):
        if isinstance(other, EpsPoly):
            if other.m != self.m:
                raise ValueError("EpsPoly operands have different nilpotency orders")
            return other
        if isinstance(other, (int, Fraction, str)):
            return EpsPoly.constant(self.m, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return EpsPoly(self.m, tuple(a + b for a, b in zip(self.c, o.c)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return EpsPoly(self.m, tuple(a - b for a, b in zip(self.c, o.c)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return EpsPoly(self.m, tuple(-a for a in self.c))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = [Fraction(0)] * self.m
        for i, a in enumerate(self.c):
            if a == 0:
                continue
            for j in range(self.m - i):
                b = o.c[j]
                if b != 0:
                    out[i + j] += a * b
        return EpsPoly(self.m, out)

    __rmul__ = __mul__

    def invert(self):
        if self.c[0] == 0:
            raise FracmirrorError("EpsPoly with zero constant term is not invertible")
        inv0 = Fraction(1) / self.c[0]
        out = [inv0] + [Fraction(0)] * (self.m - 1)
        for n in range(1, self.m):
            acc = Fraction(0)
            for k in range(1, n + 1):
                acc += self.c[k] * out[n - k]
            out[n] = -inv0 * acc
        return EpsPoly(self.m, out)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.invert()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.invert()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = EpsPoly.constant(self.m, other)
        return isinstance(other, EpsPoly) and (self.m, self.c) == (other.m, other.c)

    def __hash__(self):
        # a constant equals its c0 (see __eq__), so it must hash like it
        if not any(self.c[1:]):
            return hash(self.c[0])
        return hash((self.m, self.c))

    def __repr__(self):
        terms = [f"{fraction_str(a)}*eps^{k}" for k, a in enumerate(self.c) if a != 0]
        return " + ".join(terms) if terms else "0"

    def to_json(self):
        return [fraction_str(a) for a in self.c]


def _over_lcm(coeffs):
    """(nums, D) with coeffs[i] == nums[i] / D and D the lcm of the denominators."""
    D = lcm(*(x.denominator for x in coeffs))
    return [x.numerator * (D // x.denominator) for x in coeffs], D


def _recurrence(x0, w, d):
    """x_0 = x0 and x_n = (w_1 x_(n-1) + ... + w_n x_0) / d_n for 0 < n < len(w).

    ``w`` and ``d`` are ints.  x_0..x_(n-1) are kept as numerators U over
    their lcm E, so step n is one integer dot product and one reduced
    Fraction; U is rescaled when x_n's denominator does not divide E.
    """
    out = [x0]
    U, E = [x0.numerator], x0.denominator
    for n in range(1, len(w)):
        x = Fraction(sum(map(mul, w[1 : n + 1], reversed(U))), d[n] * E)
        out.append(x)
        t = x.denominator
        if E % t:
            k = t // gcd(E, t)
            U = [u * k for u in U]
            E *= k
        U.append(x.numerator * (E // t))
    return out


def _product(a, b, N):
    """[z^n] a*b for n <= N from coefficient tuples: one integer convolution
    over D_a * D_b."""
    A, Da = _over_lcm(a[: N + 1])
    B, Db = _over_lcm(b[N::-1])  # b_N, ..., b_0
    D = Da * Db
    return [Fraction(sum(map(mul, A[: n + 1], B[N - n :])), D) for n in range(N + 1)]


def _invert(x):
    if x == 0:
        raise FracmirrorError("constant term is not invertible")
    return 1 / x


def _scalar(x, m=None):
    """x as a Fraction (as an EpsPoly of order m when m is given), or None
    when it is no such scalar."""
    try:
        return parse_fraction(x) if m is None else _eps(m, x)
    except (TypeError, ValueError):
        return None


def _rational(vals, N):
    """The RationalSeries of the reduced Fractions ``vals``, cut or
    zero-padded to order N."""
    obj = object.__new__(RationalSeries)
    object.__setattr__(obj, "N", N)
    object.__setattr__(obj, "c", tuple(vals[: N + 1]) + (_ZERO,) * (N + 1 - len(vals)))
    return obj


class RationalSeries:
    """Truncated series in z over Q."""

    __slots__ = ("N", "c")

    # perfbench/spans.py wraps the methods of ``series._Series`` and labels a
    # span "rational" when ``args[0].ring.m is None``.  This ``m``, ``ring``
    # and the ``_Series`` alias below exist only for it, and go when ROADMAP
    # item 5 stages the spans inside the program.
    m = None

    @property
    def ring(self):
        return self

    def __init__(self, coeffs=(), N=None):
        vals = [parse_fraction(x) for x in coeffs]
        N = max(len(vals) - 1, 0) if N is None else index(N)
        if N < 0:
            raise ValueError("truncation order must be nonnegative")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "c", _rational(vals, N).c)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("series are immutable")

    @classmethod
    def zero(cls, N):
        return cls((), N)

    @classmethod
    def one(cls, N):
        return cls((1,), N)

    @classmethod
    def z(cls, N):
        return cls((0, 1), N)

    # -- basics -----------------------------------------------------------

    def coeff(self, n):
        return self.c[n] if 0 <= n <= self.N else _ZERO

    def is_zero(self):
        return not any(self.c)

    def truncate(self, N):
        if N > self.N:
            raise FracmirrorError("cannot extend a truncated series")
        return _rational(self.c, N)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, RationalSeries):
            return _rational(list(map(add, self.c, other.c)), min(self.N, other.N))
        x = _scalar(other)
        if x is None:
            return NotImplemented
        return _rational((self.c[0] + x,) + self.c[1:], self.N)

    __radd__ = __add__

    def __neg__(self):
        return _rational([-x for x in self.c], self.N)

    def __sub__(self, other):
        return self + (-other if isinstance(other, RationalSeries) else -parse_fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, RationalSeries):
            N = min(self.N, other.N)
            return _rational(_product(self.c, other.c, N), N)
        x = _scalar(other)
        if x is None:
            return NotImplemented
        return _rational([y * x for y in self.c], self.N)

    __rmul__ = __mul__

    def inverse(self):
        """1/self: with c = A/D, u_n = -(A_1 u_(n-1) + ... + A_n u_0) / A_0."""
        A, _ = _over_lcm(self.c)
        return _rational(_recurrence(_invert(self.c[0]), [-x for x in A], [A[0]] * len(A)), self.N)

    def __truediv__(self, other):
        if isinstance(other, RationalSeries):
            N = min(self.N, other.N)
            return self.truncate(N) * other.truncate(N).inverse()
        x = _scalar(other)
        if x is None:
            return NotImplemented
        return self * _invert(x)

    # -- calculus -----------------------------------------------------------

    def theta(self):
        """z d/dz."""
        return _rational([x * n for n, x in enumerate(self.c)], self.N)

    def antitheta(self):
        """Inverse of theta on series with zero constant term."""
        if self.c[0]:
            raise FracmirrorError("antitheta needs a zero constant term")
        return _rational([_ZERO] + [self.c[n] / n for n in range(1, self.N + 1)], self.N)

    def shift(self, j):
        """Multiply by z^j (j >= 0), truncating at the same order."""
        if j < 0:
            raise FracmirrorError("division by z is not defined for truncated series")
        return _rational((_ZERO,) * j + self.c, self.N)

    def compose(self, inner):
        """Self evaluated at ``inner``; inner must have zero constant term."""
        if not isinstance(inner, RationalSeries):
            raise TypeError("composition requires a RationalSeries")
        if inner.c[0]:
            raise FracmirrorError("composition requires a zero inner constant term")
        N = min(self.N, inner.N)
        inner = inner.truncate(N)
        res = _rational([self.c[N]], N)
        for k in range(N - 1, -1, -1):
            res = res * inner + self.c[k]
        return res

    def exp(self):
        """exp(self), c_0 = 0: with c = A/D, e_n = (sum_k k A_k e_(n-k)) / (n D)."""
        if self.c[0]:
            raise FracmirrorError("exp needs a zero constant term")
        A, D = _over_lcm(self.c)
        e = _recurrence(Fraction(1), [k * x for k, x in enumerate(A)], [n * D for n in range(len(A))])
        return _rational(e, self.N)

    def log(self):
        if self.c[0] != 1:
            raise FracmirrorError("log needs constant term 1")
        return (self.theta() / self).antitheta()

    def reversion(self):
        """Compositional inverse T with self(T(q)) = q + O(q^(N+1)).

        Lagrange inversion: with c1 nonzero and h = w / self(w) of order N-1,
        [q^k] T = (1/k) [w^(k-1)] h^k, read off the running powers of h.
        """
        if self.N < 1:
            raise FracmirrorError("reversion needs a series of order N >= 1")
        if self.c[0]:
            raise FracmirrorError("reversion needs a zero constant term")
        if not self.c[1]:
            raise FracmirrorError("reversion needs an invertible linear coefficient")
        h = _rational(self.c[1:], self.N - 1).inverse()
        out, power = [_ZERO, h.c[0]], h  # power = h^1
        for k in range(2, self.N + 1):
            power = power * h
            out.append(power.c[k - 1] / k)
        return _rational(out, self.N)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, RationalSeries) and (self.N, self.c) == (other.N, other.c)

    def __hash__(self):
        return hash((self.N, self.c))

    def __repr__(self):
        terms = [f"{fraction_str(x)}*z^{n}" for n, x in enumerate(self.c) if x != 0]
        body = " + ".join(terms) if terms else "0"
        return f"RationalSeries({body} + O(z^{self.N + 1}))"

    def to_json(self):
        return {"N": self.N, "coeffs": [fraction_str(x) for x in self.c]}


_Series = RationalSeries  # for perfbench/spans.py until ROADMAP item 5


def _eps(m, x):
    """x as an element of Q[eps]/(eps^m)."""
    if isinstance(x, EpsPoly):
        if x.m != m:
            raise ValueError("EpsPoly has the wrong nilpotency order")
        return x
    return EpsPoly.constant(m, x)


class NilpotentSeries:
    """Truncated series in z over Q[eps]/(eps^m), held as its m eps-slices.

    ``slices[k]`` is the RationalSeries multiplying eps^k.
    """

    __slots__ = ("m", "N", "slices")

    def __init__(self, m, coeffs=(), N=None):
        m = index(m)
        if m < 1:
            raise ValueError("nilpotency order m must be at least 1")
        vals = [_eps(m, x) for x in coeffs]
        self._hold([RationalSeries([x.c[k] for x in vals], N) for k in range(m)])

    @classmethod
    def from_slices(cls, slices):
        """sum_k slices[k] eps^k, truncated at the smallest order among them."""
        obj = object.__new__(cls)
        obj._hold(list(slices))
        return obj

    def _hold(self, slices):
        if not slices:
            raise ValueError("a nilpotent series needs at least one eps-slice")
        if not all(isinstance(s, RationalSeries) for s in slices):
            raise TypeError("eps-slices must be RationalSeries")
        N = min(s.N for s in slices)
        object.__setattr__(self, "m", len(slices))
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "slices", tuple(s.truncate(N) for s in slices))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("series are immutable")

    def _map(self, f):
        return NilpotentSeries.from_slices([f(s) for s in self.slices])

    def _slices_of(self, other):
        if other.m != self.m:
            raise TypeError("series live over different coefficient rings")
        return other.slices

    def coeff(self, n):
        return EpsPoly(self.m, [s.coeff(n) for s in self.slices])

    @property
    def c(self):
        return tuple(self.coeff(n) for n in range(self.N + 1))

    def eps_slice(self, k):
        """The RationalSeries multiplying eps^k."""
        return self.slices[k] if 0 <= k < self.m else RationalSeries.zero(self.N)

    def is_zero(self):
        return all(s.is_zero() for s in self.slices)

    def truncate(self, N):
        return self._map(lambda s: s.truncate(N))

    def __add__(self, other):
        if isinstance(other, NilpotentSeries):
            return NilpotentSeries.from_slices(list(map(add, self.slices, self._slices_of(other))))
        x = _scalar(other, self.m)
        if x is None:
            return NotImplemented
        return NilpotentSeries.from_slices(list(map(add, self.slices, x.c)))

    __radd__ = __add__

    def __neg__(self):
        return self._map(neg)

    def __sub__(self, other):
        return self + (-other if isinstance(other, NilpotentSeries) else -_eps(self.m, other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, NilpotentSeries):
            x = _scalar(other, self.m)
            if x is None:
                return NotImplemented
            if not any(x.c[1:]):
                return self._map(lambda s: s * x.c[0])
            other = NilpotentSeries(self.m, [x], self.N)
        B = self._slices_of(other)
        out = [RationalSeries.zero(min(self.N, other.N))] * self.m
        for i, a in enumerate(self.slices):
            if a.is_zero():
                continue
            for j in range(self.m - i):
                if not B[j].is_zero():
                    out[i + j] = out[i + j] + a * B[j]
        return NilpotentSeries.from_slices(out)

    __rmul__ = __mul__

    def theta(self):
        """z d/dz."""
        return self._map(RationalSeries.theta)

    def shift(self, j):
        """Multiply by z^j (j >= 0), truncating at the same order."""
        return self._map(lambda s: s.shift(j))

    def __eq__(self, other):
        return isinstance(other, NilpotentSeries) and self.slices == other.slices

    def __hash__(self):
        return hash(self.slices)

    def __repr__(self):
        return f"NilpotentSeries(m={self.m}, N={self.N}, c0={self.coeff(0)!r}, ...)"

    def to_json(self):
        rows = zip(*(s.c for s in self.slices))
        return {"N": self.N, "coeffs": [[fraction_str(x) for x in row] for row in rows], "m": self.m}


class LogSeries:
    """Polynomial in L = log z with truncated-series coefficients.

    ``parts[k]`` multiplies L^k.  theta acts by
    theta(L^k S) = k L^(k-1) S + L^k theta(S), i.e. theta(L) = 1.
    """

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise ValueError("LogSeries needs at least one part")
        if not all(isinstance(p, (RationalSeries, NilpotentSeries)) for p in parts):
            raise TypeError("LogSeries parts must be series")
        if len({(type(p), getattr(p, "m", None)) for p in parts}) > 1:
            raise TypeError("LogSeries parts live over different rings")
        N = min(p.N for p in parts)
        parts = [p.truncate(N) for p in parts]
        while len(parts) > 1 and parts[-1].is_zero():
            parts.pop()
        object.__setattr__(self, "parts", tuple(parts))

    def __setattr__(self, name, value):
        raise AttributeError("LogSeries is immutable")

    @property
    def N(self):
        return self.parts[0].N

    @property
    def log_degree(self):
        return len(self.parts) - 1

    def part(self, k):
        if 0 <= k < len(self.parts):
            return self.parts[k]
        return self.parts[0] * 0

    def __add__(self, other):
        if isinstance(other, LogSeries):
            n = max(len(self.parts), len(other.parts))
            return LogSeries([self.part(k) + other.part(k) for k in range(n)])
        return LogSeries([self.parts[0] + other] + list(self.parts[1:]))

    __radd__ = __add__

    def __neg__(self):
        return LogSeries([-p for p in self.parts])

    def __sub__(self, other):
        return self + (-other if isinstance(other, LogSeries) else -(self.parts[0] * 0 + other))

    def __mul__(self, other):
        if isinstance(other, LogSeries):
            acc = [None] * (len(self.parts) + len(other.parts) - 1)
            for i, p in enumerate(self.parts):
                for j, q in enumerate(other.parts):
                    acc[i + j] = p * q if acc[i + j] is None else acc[i + j] + p * q
            return LogSeries(acc)
        return LogSeries([p * other for p in self.parts])

    __rmul__ = __mul__

    def theta(self):
        P = self.parts + (self.parts[0] * 0,)
        return LogSeries([P[k].theta() + P[k + 1] * (k + 1) for k in range(len(self.parts))])

    def shift(self, j):
        return LogSeries([p.shift(j) for p in self.parts])

    def is_zero(self):
        return all(p.is_zero() for p in self.parts)

    def truncate(self, N):
        return LogSeries([p.truncate(N) for p in self.parts])

    def __eq__(self, other):
        return isinstance(other, LogSeries) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"LogSeries(log_degree={self.log_degree}, N={self.N})"

    def to_json(self):
        parts = [{"log_power": k, **p.to_json()} for k, p in enumerate(self.parts)]
        return {"N": self.N, "log_degree": self.log_degree, "parts": parts}
