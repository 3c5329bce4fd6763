"""Picard–Fuchs operators in theta form.

The operator annihilating the holomorphic GKZ solution of a rank-1 kernel
vector l is

    P = F(theta) - z G(theta) = sum_k p_k(z) theta^k,      theta = z d/dz,

where F collects the positive kernel entries and G the negative ones, whose
columns all carry the exponent -1/2 (``gkz.EXPONENT``), so the operator
reads l alone.  It is normalized so the leading theta-power has constant
coefficient 1, and each p_k is the pair (F_k, -G_k) of z-coefficients.  F
and G factor over Q into linear terms, which ``theta_conjugate`` records
for the factored display.
"""

from fractions import Fraction
from itertools import groupby

from .errors import FracmirrorError, _as_ints
from .gkz import EXPONENT
from .series import fraction_str

__all__ = [
    "ThetaOperator",
    "theta_conjugate",
]


class ThetaOperator:
    """F(theta) - z G(theta) as ``theta_conjugate`` builds it: z_polys[k] is
    the pair (F_k, -G_k) over the lead of F, so z_polys[degree][0] == 1;
    ``scale`` is the lead of G over it, -z_polys[degree][1], ``f_roots`` the
    theta-roots of F and ``g_roots`` the offsets c of G's linear factors (theta + c)."""

    def __init__(self, z_polys, f_roots, g_roots):
        self.z_polys = z_polys
        self.scale = -z_polys[-1][1]
        self.f_roots = f_roots
        self.g_roots = g_roots

    @property
    def degree(self):
        return len(self.z_polys) - 1

    def display(self):
        """The factored text form F - s z G."""

        def factor(offset):
            # the linear factor (theta + offset)
            if offset == 0:
                return "theta"
            if offset > 0:
                return f"(theta + {fraction_str(offset)})"
            return f"(theta - {fraction_str(-offset)})"

        def grouped(offsets):
            # a run of equal adjacent factors is written once, with its length as a power
            runs = ((b, len(list(run))) for b, run in groupby(map(factor, offsets)))
            return " ".join(b if e == 1 else f"{b}^{e}" for b, e in runs)

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
    The entries are read by the integer rule (``errors._as_ints``).
    """
    f_poly = [1]
    f_roots = []
    g_poly = [1]
    g_roots = []
    Q = 1
    p, q = EXPONENT.numerator, EXPONENT.denominator
    for le in _as_ints(ell, "kernel entry"):
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
    z_polys = tuple((Fraction(f_poly[k], lead), Fraction(-g_poly[k], Q * lead)) for k in range(d + 1))
    return ThetaOperator(z_polys, tuple(f_roots), tuple(g_roots))
