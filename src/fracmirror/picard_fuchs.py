"""Picard–Fuchs operators in theta form.

An operator is a sum over theta-powers of polynomials in z,

    P = sum_k p_k(z) theta^k,      theta = z d/dz,

normalized so the leading theta-power has constant coefficient 1.  The
operator annihilating the holomorphic GKZ solution of a rank-1 kernel vector
l is F(theta) - z G(theta), where F collects the positive kernel entries and
G the negative ones, whose columns all carry the exponent -1/2
(``gkz.EXPONENT``), so the operator reads l alone.  Both factor over Q into
linear terms, which the constructor records for factored display.
"""

from fractions import Fraction

from .errors import FracmirrorError
from .gkz import EXPONENT
from .series import _order, fraction_str

__all__ = [
    "ThetaOperator",
    "theta_conjugate",
]


def _trim(poly):
    poly = [Fraction(x) for x in poly]
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return tuple(poly)


class ThetaOperator:
    """sum_k z_polys[k](z) * theta^k with z_polys[degree][0] == 1."""

    def __init__(self, z_polys, scale=None, f_roots=None, g_roots=None):
        polys = [_trim(p) for p in z_polys]
        while len(polys) > 1 and polys[-1] == (Fraction(0),):
            polys.pop()
        if polys[-1][0] == 0:
            raise FracmirrorError(
                "leading theta-power needs a nonzero constant z-coefficient"
            )
        self.z_polys = tuple(polys)
        self.scale = scale  # z-coefficient magnitude in factored form
        self.f_roots = f_roots  # theta-roots of the z^0 part
        self.g_roots = g_roots  # (theta + c) offsets of the z^1 part

    def __eq__(self, other):
        if type(other) is not ThetaOperator:
            return NotImplemented
        return (self.z_polys, self.scale, self.f_roots, self.g_roots) == (
            other.z_polys, other.scale, other.f_roots, other.g_roots
        )

    @property
    def degree(self):
        return len(self.z_polys) - 1

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
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def theta_conjugate(ell):
    """The theta-form operator F(theta) - z G(theta) of a rank-1 kernel.

    F runs over positive kernel entries with factors (l_e theta - m) for
    m = 0..l_e-1; G runs over negative entries with factors
    (k_e theta - e + m), k_e = -l_e, for the exponent e = p/q =
    ``gkz.EXPONENT`` of their distinguished columns.  The result is
    normalized by the leading coefficient of F.  Both run on ints, G's
    factors times q; their product Q joins the lead in the final Fractions.
    Each entry is read as by ``series._order``.
    """
    f_poly = [1]
    f_roots = []
    g_poly = [1]
    g_roots = []
    Q = 1
    p, q = EXPONENT.numerator, EXPONENT.denominator
    for le in map(_order, ell):
        if le > 0:
            for m in range(le):
                f_poly = _poly_mul(f_poly, [-m, le])
                f_roots.append(Fraction(m, le))
        elif le < 0:
            k = -le
            Q *= q**k
            for m in range(k):
                g_poly = _poly_mul(g_poly, [q * m - p, q * k])
                g_roots.append(Fraction(q * m - p, q * k))
    d = len(f_poly) - 1
    if d == 0:
        raise FracmirrorError("unsupported shape: no positive kernel entries")
    if len(g_poly) - 1 != d:
        raise FracmirrorError(
            "unsupported shape: kernel entries do not balance in degree"
        )
    lead = f_poly[d]
    z_polys = [(Fraction(f_poly[k], lead), Fraction(-g_poly[k], Q * lead)) for k in range(d + 1)]
    return ThetaOperator(
        z_polys,
        scale=Fraction(g_poly[d], Q * lead),
        f_roots=tuple(f_roots),
        g_roots=tuple(g_roots),
    )
