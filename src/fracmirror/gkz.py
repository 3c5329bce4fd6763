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
ever evaluated.  The holomorphic solution is its eps^0 slice.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import FracmirrorError
from .series import EpsPoly, NilpotentSeries

__all__ = [
    "GkzSystem",
    "build_gkz",
    "principal_kernel_vector",
    "hypergeometric_series",
    "holo_solution",
    "box_annihilation_check",
    "gkz_solution_terms",
    "rising",
]


def rising(a, k):
    """Rising factorial a (a+1) ... (a+k-1) as an exact Fraction."""
    a = Fraction(a)
    out = Fraction(1)
    for m in range(k):
        out *= a + m
    return out


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
    rel = linalg.smith_relations([list(row) for row in A])
    kernel = tuple(tuple(int(x) for x in v) for v in rel.kernel)
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

    c_0 = 1, and c_n is c_(n-1) times the k new linear factors of each pair
    (a, k), so each order costs one division in Q[eps]/(eps^m).
    """
    c = EpsPoly.constant(m, 1)
    coeffs = [c]
    for n in range(1, N + 1):
        c = c * _new_factors(num, n, m) / _new_factors(den, n, m)
        coeffs.append(c)
    return NilpotentSeries(m, coeffs, N)


def _new_factors(factors, n, m):
    """prod_((a, k)) prod_(j=k(n-1))^(k n - 1) (a + k eps + j): what order n adds."""
    p = [1] + [0] * (m - 1)
    for a, k in factors:
        for j in range(k * (n - 1), k * n):
            # p *= (a + j) + k eps, top coefficient first
            for i in range(m - 1, 0, -1):
                p[i] = (a + j) * p[i] + k * p[i - 1]
            p[0] *= a + j
    return EpsPoly(m, p)


def holo_solution(ell, alpha, N):
    """The holomorphic solution sum c_n z^n of the rank-1 GKZ system.

    c_n multiplies rising factorials over the negative kernel entries and
    divides by rising factorials over the positive ones; c_0 = 1.  It is the
    eps^0 slice of ``hypergeometric_series`` at m = 1.
    """
    return hypergeometric_series(*_series_factors(ell, alpha), 1, N).eps_slice(0)


def box_annihilation_check(ell, alpha, N, series=None):
    """Verify the two-term box-operator recurrence on a series (exactly).

    With F(t) the product over positive kernel entries of
    prod_(m=0)^(l_e - 1) (l_e t - m) and G(t) the matching product over
    negative entries of prod_(m=0)^(k_e - 1) (k_e t - alpha_e + m), the
    solution satisfies F(n) c_n = G(n-1) c_(n-1).  Defaults to checking
    ``holo_solution``; pass ``series`` to test another candidate.
    """
    if series is None:
        series = holo_solution(ell, alpha, N)
    N = min(N, series.N)

    def F(t):
        out = Fraction(1)
        for le, _ae in zip(ell, alpha):
            if le > 0:
                for m in range(le):
                    out *= Fraction(le) * t - m
        return out

    def G(t):
        out = Fraction(1)
        for le, ae in zip(ell, alpha):
            if le < 0:
                k = -le
                for m in range(k):
                    out *= Fraction(k) * t + (-Fraction(ae)) + m
        return out

    for n in range(1, N + 1):
        if series.coeff(n) * F(n) != series.coeff(n - 1) * G(n - 1):
            return False
    return True


def gkz_solution_terms(gkz, cutoff):
    """Formal multiparameter solution terms with kernel entries |l_e| <= cutoff.

    Enumerates lattice vectors l in ker A reachable from the stored basis
    with combination coefficients bounded by the cutoff, and returns the
    sorted list of (l, coefficient) with coefficient
    prod_e Gamma(alpha_e + 1)/Gamma(alpha_e + l_e + 1) as an exact rational
    (zero where the Gamma ratio hits a pole).
    """
    import itertools

    def term_coeff(vec):
        c = Fraction(1)
        for le, ae in zip(vec, gkz.alpha):
            ae = Fraction(ae)
            if le >= 0:
                denom = rising(ae + 1, le)
                if denom == 0:
                    return Fraction(0)
                c /= denom
            else:
                c *= rising(ae + le + 1, -le)
        return c

    k = len(gkz.kernel)
    out = []
    for combo in itertools.product(range(-cutoff, cutoff + 1), repeat=k):
        vec = tuple(
            sum(c * gkz.kernel[v][e] for v, c in enumerate(combo))
            for e in range(len(gkz.alpha))
        )
        if any(abs(x) > cutoff for x in vec):
            continue
        out.append((vec, term_coeff(vec)))
    out.sort(key=lambda t: t[0])
    return out
