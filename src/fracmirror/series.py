"""Truncated formal power series with exact rational coefficients.

Three layers:

* ``RationalSeries`` — series in z over Q, truncated at a fixed order N.
* ``NilpotentSeries`` — series over the ring Q[eps]/(eps^m) (``EpsPoly``
  coefficients), used for cohomology-valued solutions.
* ``LogSeries`` — polynomials in the formal symbol L = log z whose
  coefficients are series of either kind; theta = z d/dz acts by
  theta(L^k S) = k L^(k-1) S + L^k theta(S).

All binary operations truncate to the smaller order; nothing is ever
extended silently.

Coefficients are stored as reduced ``Fraction``s, but the O(N^2) kernels over
Q (product, ``inverse``, ``exp``) run on Python ints: the operands are
brought to integer numerators over the lcm of their denominators, each output
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
from operator import mul

from .errors import FracmirrorError

__all__ = [
    "EpsPoly",
    "RationalSeries",
    "NilpotentSeries",
    "LogSeries",
    "parse_fraction",
    "fraction_str",
]


def parse_fraction(x):
    """Accept int, Fraction, or 'p/q' string."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def fraction_str(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class EpsPoly:
    """Element of Q[eps]/(eps^m): coefficients (c0, ..., c_(m-1))."""

    __slots__ = ("m", "c")

    def __init__(self, m, coeffs=()):
        m = int(m)
        if m < 1:
            raise ValueError("nilpotency order m must be at least 1")
        vals = [parse_fraction(x) for x in coeffs][:m]
        if len(vals) < m:
            vals += [Fraction(0)] * (m - len(vals))
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
        if power >= m:
            return cls(m)
        return cls(m, (0,) * power + (1,))

    def coeff(self, k):
        return self.c[k] if 0 <= k < self.m else Fraction(0)

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


class _RationalRing:
    m = None

    def coerce(self, x):
        return parse_fraction(x)

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def is_zero(self, x):
        return x == 0

    def invert(self, x):
        if x == 0:
            raise FracmirrorError("constant term is not invertible")
        return Fraction(1) / x

    def to_json(self, x):
        return fraction_str(x)

    def series_product(self, a, b, N):
        """[z^n] a*b for n <= N: one integer convolution over D_a * D_b."""
        A, Da = _over_lcm(a[: N + 1])
        B, Db = _over_lcm(b[N::-1])  # b_N, ..., b_0
        D = Da * Db
        return [Fraction(sum(map(mul, A[: n + 1], B[N - n :])), D) for n in range(N + 1)]

    def series_inverse(self, c):
        """1/c: with c = A/D, u_n = -(A_1 u_(n-1) + ... + A_n u_0) / A_0."""
        A, _ = _over_lcm(c)
        return _recurrence(self.invert(c[0]), [-x for x in A], [A[0]] * len(A))

    def series_exp(self, c):
        """exp(c), c_0 = 0: with c = A/D, e_n = (sum_k k A_k e_(n-k)) / (n D)."""
        A, D = _over_lcm(c)
        return _recurrence(
            Fraction(1), [k * x for k, x in enumerate(A)], [n * D for n in range(len(A))]
        )

    def __eq__(self, other):
        return isinstance(other, _RationalRing)

    def __hash__(self):
        return hash("Q")


class _EpsRing:
    def __init__(self, m):
        self.m = int(m)

    def coerce(self, x):
        if isinstance(x, EpsPoly):
            if x.m != self.m:
                raise ValueError("EpsPoly has the wrong nilpotency order")
            return x
        return EpsPoly.constant(self.m, x)

    @property
    def zero(self):
        return EpsPoly(self.m)

    @property
    def one(self):
        return EpsPoly.constant(self.m, 1)

    def is_zero(self, x):
        return x.is_zero

    def invert(self, x):
        return x.invert()

    def to_json(self, x):
        return x.to_json()

    def series_product(self, a, b, N):
        out = [self.zero] * (N + 1)
        for i in range(N + 1):
            x = a[i]
            if x.is_zero:
                continue
            for j in range(N + 1 - i):
                y = b[j]
                if not y.is_zero:
                    out[i + j] = out[i + j] + x * y
        return out

    def series_inverse(self, c):
        inv0 = self.invert(c[0])
        out = [inv0] + [self.zero] * (len(c) - 1)
        for n in range(1, len(c)):
            acc = self.zero
            for k in range(1, n + 1):
                acc = acc + c[k] * out[n - k]
            out[n] = -(inv0 * acc)
        return out

    def series_exp(self, c):
        out = [self.one] + [self.zero] * (len(c) - 1)
        for n in range(1, len(c)):
            acc = self.zero
            for k in range(1, n + 1):
                acc = acc + (c[k] * Fraction(k)) * out[n - k]
            out[n] = acc * Fraction(1, n)
        return out

    def __eq__(self, other):
        return isinstance(other, _EpsRing) and other.m == self.m

    def __hash__(self):
        return hash(("Q[eps]", self.m))


_RATIONALS = _RationalRing()


class _Series:
    """Common truncated-power-series machinery over a coefficient ring."""

    __slots__ = ("ring", "N", "c")

    def __init__(self, ring, coeffs, N):
        vals = [ring.coerce(x) for x in coeffs]
        if N is None:
            N = max(len(vals) - 1, 0)
        N = int(N)
        if N < 0:
            raise ValueError("truncation order must be nonnegative")
        vals = vals[: N + 1]
        vals += [ring.zero] * (N + 1 - len(vals))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "c", tuple(vals))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("series are immutable")

    def _raw(self, coeffs, N):
        obj = object.__new__(type(self))
        object.__setattr__(obj, "ring", self.ring)
        object.__setattr__(obj, "N", N)
        vals = list(coeffs)[: N + 1]
        vals += [self.ring.zero] * (N + 1 - len(vals))
        object.__setattr__(obj, "c", tuple(vals))
        return obj

    # -- basics -----------------------------------------------------------

    def coeff(self, n):
        return self.c[n] if 0 <= n <= self.N else self.ring.zero

    def is_zero(self):
        return all(self.ring.is_zero(x) for x in self.c)

    def truncate(self, N):
        if N > self.N:
            raise FracmirrorError("cannot extend a truncated series")
        return self._raw(self.c[: N + 1], N)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, _Series):
            if other.ring != self.ring:
                raise TypeError("series live over different coefficient rings")
            N = min(self.N, other.N)
            return self._raw(
                [self.c[i] + other.c[i] for i in range(N + 1)], N
            )
        try:
            val = self.ring.coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self._raw([self.c[0] + val] + list(self.c[1:]), self.N)

    __radd__ = __add__

    def __neg__(self):
        return self._raw([-x for x in self.c], self.N)

    def __sub__(self, other):
        return self + (-other if isinstance(other, _Series) else -self.ring.coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _Series):
            if other.ring != self.ring:
                raise TypeError("series live over different coefficient rings")
            N = min(self.N, other.N)
            return self._raw(self.ring.series_product(self.c, other.c, N), N)
        try:
            val = self.ring.coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self._raw([x * val for x in self.c], self.N)

    __rmul__ = __mul__

    def inverse(self):
        return self._raw(self.ring.series_inverse(self.c), self.N)

    def __truediv__(self, other):
        if isinstance(other, _Series):
            N = min(self.N, other.N)
            return self.truncate(N) * other.truncate(N).inverse()
        try:
            val = self.ring.coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self * self.ring.invert(val)

    # -- calculus -----------------------------------------------------------

    def theta(self):
        """z d/dz."""
        return self._raw([x * Fraction(n) for n, x in enumerate(self.c)], self.N)

    def antitheta(self):
        """Inverse of theta on series with zero constant term."""
        if not self.ring.is_zero(self.c[0]):
            raise FracmirrorError("antitheta needs a zero constant term")
        out = [self.ring.zero]
        for n in range(1, self.N + 1):
            out.append(self.c[n] * Fraction(1, n))
        return self._raw(out, self.N)

    def shift(self, j):
        """Multiply by z^j (j >= 0), truncating at the same order."""
        if j < 0:
            raise FracmirrorError("division by z is not defined for truncated series")
        return self._raw([self.ring.zero] * j + list(self.c), self.N)

    def compose(self, inner):
        """Self evaluated at ``inner``; inner must have zero constant term."""
        if not isinstance(inner, _Series) or inner.ring != self.ring:
            raise TypeError("composition requires a series over the same ring")
        if not self.ring.is_zero(inner.c[0]):
            raise FracmirrorError("composition requires a zero inner constant term")
        N = min(self.N, inner.N)
        inner = inner.truncate(N)
        res = inner._raw([self.coeff(N)] + [self.ring.zero] * N, N)
        for k in range(N - 1, -1, -1):
            res = res * inner + self.coeff(k)
        return res

    def exp(self):
        if not self.ring.is_zero(self.c[0]):
            raise FracmirrorError("exp needs a zero constant term")
        return self._raw(self.ring.series_exp(self.c), self.N)

    def log(self):
        if self.c[0] != self.ring.one:
            raise FracmirrorError("log needs constant term 1")
        d = self.theta() / self
        out = [self.ring.zero]
        for n in range(1, self.N + 1):
            out.append(d.c[n] * Fraction(1, n))
        return self._raw(out, self.N)

    def reversion(self):
        """Compositional inverse T with self(T(q)) = q + O(q^(N+1)).

        Lagrange inversion: with c1 a unit and h = w / self(w) of order N-1,
        [q^k] T = (1/k) [w^(k-1)] h^k, read off the running powers of h.
        """
        if self.N < 1:
            raise FracmirrorError("reversion needs a series of order N >= 1")
        if not self.ring.is_zero(self.c[0]):
            raise FracmirrorError("reversion needs a zero constant term")
        if self.ring.is_zero(self.c[1]):
            raise FracmirrorError("reversion needs an invertible linear coefficient")
        h = self._raw(self.c[1:], self.N - 1).inverse()
        out, power = [self.ring.zero, h.c[0]], h  # power = h^1
        for k in range(2, self.N + 1):
            power = power * h
            out.append(power.c[k - 1] * Fraction(1, k))
        return self._raw(out, self.N)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, _Series)
            and self.ring == other.ring
            and self.N == other.N
            and self.c == other.c
        )

    def __hash__(self):
        return hash((self.ring, self.N, self.c))

    def to_json(self):
        return {"N": self.N, "coeffs": [self.ring.to_json(x) for x in self.c]}


class RationalSeries(_Series):
    """Truncated series in z over Q."""

    __slots__ = ()

    def __init__(self, coeffs=(), N=None):
        super().__init__(_RATIONALS, coeffs, N)

    @classmethod
    def zero(cls, N):
        return cls((), N)

    @classmethod
    def one(cls, N):
        return cls((1,), N)

    @classmethod
    def z(cls, N):
        return cls((0, 1), N)

    def __repr__(self):
        terms = [
            f"{fraction_str(x)}*z^{n}" for n, x in enumerate(self.c) if x != 0
        ]
        body = " + ".join(terms) if terms else "0"
        return f"RationalSeries({body} + O(z^{self.N + 1}))"


class NilpotentSeries(_Series):
    """Truncated series in z over Q[eps]/(eps^m)."""

    __slots__ = ()

    def __init__(self, m, coeffs=(), N=None):
        super().__init__(_EpsRing(m), coeffs, N)

    @property
    def m(self):
        return self.ring.m

    def eps_slice(self, k):
        """The RationalSeries multiplying eps^k."""
        return RationalSeries([x.coeff(k) for x in self.c], self.N)

    def __repr__(self):
        return (
            f"NilpotentSeries(m={self.m}, N={self.N}, "
            f"c0={self.c[0]!r}, ...)"
        )

    def to_json(self):
        d = super().to_json()
        d["m"] = self.m
        return d


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
        if any(not isinstance(p, _Series) for p in parts):
            raise TypeError("LogSeries parts must be series")
        ring = parts[0].ring
        if any(p.ring != ring for p in parts):
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
        return self.parts[0]._raw([], self.N)

    def __add__(self, other):
        if isinstance(other, LogSeries):
            n = max(len(self.parts), len(other.parts))
            return LogSeries([self.part(k) + other.part(k) for k in range(n)])
        return LogSeries([self.parts[0] + other] + list(self.parts[1:]))

    __radd__ = __add__

    def __neg__(self):
        return LogSeries([-p for p in self.parts])

    def __sub__(self, other):
        return self + (-other if isinstance(other, LogSeries) else -(
            self.parts[0]._raw([], self.N) + other
        ))

    def __mul__(self, other):
        if isinstance(other, LogSeries):
            n = len(self.parts) + len(other.parts) - 1
            acc = [self.parts[0]._raw([], min(self.N, other.N)) for _ in range(n)]
            for i, p in enumerate(self.parts):
                for j, q in enumerate(other.parts):
                    acc[i + j] = acc[i + j] + p * q
            return LogSeries(acc)
        return LogSeries([p * other for p in self.parts])

    __rmul__ = __mul__

    def theta(self):
        out = []
        for k in range(len(self.parts)):
            term = self.parts[k].theta()
            if k + 1 < len(self.parts):
                term = term + self.parts[k + 1] * Fraction(k + 1)
            out.append(term)
        return LogSeries(out)

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
        return {
            "N": self.N,
            "log_degree": self.log_degree,
            "parts": [
                {"log_power": k, **p.to_json()} for k, p in enumerate(self.parts)
            ],
        }
