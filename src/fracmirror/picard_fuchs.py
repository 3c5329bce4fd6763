"""Picard–Fuchs operators in theta form and their series action.

An operator is a sum over theta-powers of polynomials in z,

    P = sum_k p_k(z) theta^k,      theta = z d/dz,

normalized so the leading theta-power has constant coefficient 1.  The
operator annihilating the holomorphic GKZ solution of a rank-1 kernel vector
l is F(theta) - z G(theta), where F collects the positive kernel entries and
G the negative ones; both factor over Q into linear terms, which the
constructor records for factored display.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import FracmirrorError
from .series import LogSeries, NilpotentSeries, RationalSeries, fraction_str

__all__ = [
    "ThetaOperator",
    "theta_conjugate",
    "apply",
    "yukawa_ode_rhs",
]


def _trim(poly):
    poly = [Fraction(x) for x in poly]
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return tuple(poly)


@dataclass(frozen=True)
class ThetaOperator:
    """sum_k z_polys[k](z) * theta^k with z_polys[degree][0] == 1."""

    z_polys: tuple
    scale: Fraction | None = None  # z-coefficient magnitude in factored form
    f_roots: tuple | None = None  # theta-roots of the z^0 part
    g_roots: tuple | None = None  # (theta + c) offsets of the z^1 part

    def __post_init__(self):
        polys = [
            _trim(p) for p in self.z_polys
        ]
        while len(polys) > 1 and polys[-1] == (Fraction(0),):
            polys.pop()
        object.__setattr__(self, "z_polys", tuple(polys))
        lead = self.z_polys[-1]
        if lead[0] == 0:
            raise FracmirrorError(
                "leading theta-power needs a nonzero constant z-coefficient"
            )

    @property
    def degree(self):
        return len(self.z_polys) - 1

    def indicial(self):
        """theta-polynomial at z = 0, as coefficients of t^k."""
        return tuple(p[0] for p in self.z_polys)

    def normalized(self):
        lead = self.z_polys[-1][0]
        if lead == 1:
            return self
        return ThetaOperator(
            tuple(tuple(x / lead for x in p) for p in self.z_polys),
            scale=self.scale,
            f_roots=self.f_roots,
            g_roots=self.g_roots,
        )

    def display(self):
        """Factored text form when the factorization is known."""
        if self.f_roots is None or self.g_roots is None or self.scale is None:
            parts = []
            for k in range(self.degree, -1, -1):
                poly = self.z_polys[k]
                body = " + ".join(
                    f"({fraction_str(c)})*z^{j}" for j, c in enumerate(poly) if c != 0
                )
                if body:
                    parts.append(f"({body})*theta^{k}")
            return " + ".join(parts) if parts else "0"

        def factor(offset):
            # the linear factor (theta + offset)
            if offset == 0:
                return "theta"
            if offset > 0:
                return f"(theta + {fraction_str(offset)})"
            return f"(theta - {fraction_str(-offset)})"

        def grouped(offsets):
            out = []
            for off in offsets:
                base = factor(off)
                if out and out[-1][0] == base:
                    out[-1][1] += 1
                else:
                    out.append([base, 1])
            return " ".join(
                b if e == 1 else (f"{b}^{e}" if b != "theta" else f"theta^{e}")
                for b, e in out
            )

        f = grouped(tuple(-root for root in self.f_roots))
        g = grouped(self.g_roots)
        s = fraction_str(self.scale)
        s = "" if s == "1" else f"{s} "
        return f"{f} - {s}z {g}"

    def to_json(self):
        return {
            "degree": self.degree,
            "terms": [
                {"theta_power": k, "z_poly": [fraction_str(c) for c in p]}
                for k, p in enumerate(self.z_polys)
            ],
            "factored": self.display(),
        }


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def theta_conjugate(ell, alpha):
    """The theta-form operator F(theta) - z G(theta) of a rank-1 kernel.

    F runs over positive kernel entries with factors (l_e theta - m) for
    m = 0..l_e-1; G runs over negative entries with factors
    (k_e theta - alpha_e + m), k_e = -l_e.  The result is normalized by the
    leading coefficient of F.
    """
    f_poly = [Fraction(1)]
    f_roots = []
    g_poly = [Fraction(1)]
    g_roots = []
    for le, ae in zip(ell, alpha):
        ae = Fraction(ae)
        if le > 0:
            for m in range(le):
                f_poly = _poly_mul(f_poly, [Fraction(-m), Fraction(le)])
                f_roots.append(Fraction(m, le))
        elif le < 0:
            if ae.denominator == 1:
                raise FracmirrorError(
                    "unsupported shape: negative kernel entry on an "
                    "integer-exponent column"
                )
            k = -le
            for m in range(k):
                g_poly = _poly_mul(g_poly, [-ae + m, Fraction(k)])
                g_roots.append((-ae + m) / k)
    d = len(f_poly) - 1
    if d == 0:
        raise FracmirrorError("unsupported shape: no positive kernel entries")
    if len(g_poly) - 1 != d:
        raise FracmirrorError(
            "unsupported shape: kernel entries do not balance in degree"
        )
    lead = f_poly[d]
    z_polys = []
    for k in range(d + 1):
        fk = f_poly[k] / lead
        gk = g_poly[k] / lead
        z_polys.append((fk, -gk))
    scale = g_poly[d] / lead
    return ThetaOperator(
        tuple(z_polys),
        scale=scale,
        f_roots=tuple(f_roots),
        g_roots=tuple(g_roots),
    )


def apply(op, obj):
    """Apply a theta-operator to a series or a log-extended series."""
    if not isinstance(obj, (RationalSeries, NilpotentSeries, LogSeries)):
        raise TypeError("operators act on series or LogSeries")
    total = None
    power = obj
    for k, poly in enumerate(op.z_polys):
        if k > 0:
            power = power.theta()
        term = None
        for j, c in enumerate(poly):
            if c == 0:
                continue
            piece = power.shift(j) * c
            term = piece if term is None else term + piece
        if term is None:
            continue
        total = term if total is None else total + term
    if total is None:
        return obj * Fraction(0)
    return total


def yukawa_ode_rhs(op, N):
    """g with theta(Y) = g Y for the normalized Yukawa coupling of a
    degree-4 operator: g = -p3/(2 p4), expanded to order N."""
    if op.degree != 4:
        raise FracmirrorError("Yukawa ODE defined for threefold operators")
    p3 = RationalSeries(op.z_polys[3], N)
    p4 = RationalSeries(op.z_polys[4], N)
    return -(p3 / p4) * Fraction(1, 2)

