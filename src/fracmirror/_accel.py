"""Lattice-point counting and enumeration: one prefix→interval scan.

Both entry points scan the box ``lo <= x <= hi`` under ``A x + c >= 0`` the
same way, on Python ints, so no coordinate or constraint value can overflow.
The scan fixes one axis at a time in lex order and carries ``b = A x + c``
over the axes fixed so far.  At axis j every row cuts x_j to the values for
which it can still reach 0 over the free axes after j (each free axis at its
best end of the box), so a prefix that no completion can satisfy is never
extended; at the last axis this cut is exact.  ``count_points`` sums the
last-axis interval lengths; ``enumerate_points`` expands them into points.
"""

import operator

__all__ = ["backend_name", "count_points", "enumerate_points"]


def backend_name():
    """Name of the arithmetic the scan runs on (perfbench/run.py records it)."""
    return "python"


# Name-only shim for perfbench/spans.py, which wraps _int64_safe by name to
# count big-integer scans; nothing calls it, since every scan runs on Python
# ints.  Goes with the other patch-only shims in ROADMAP item 5.
_int64_safe = None


def _scan(lo, hi, A, c):
    """Yield ``(prefix, tlo, thi)`` for the box prefixes over all axes but
    the last, in lex order; ``[tlo, thi]`` is the nonempty last-axis interval
    that ``A x + c >= 0`` leaves above ``prefix``.  Prefixes with an empty
    interval are skipped."""
    d = len(lo)
    cols = [[row[j] for row in A] for j in range(d)]
    # reach[j][i]: the largest value row i gains over axes j..d-1 in the box
    reach = [[0] * len(A)]
    for j in range(d - 1, -1, -1):
        best = [max(a * lo[j], a * hi[j]) for a in cols[j]]
        reach.append([r + g for r, g in zip(reach[-1], best)])
    reach.reverse()

    def cut(j, b):
        tlo, thi = lo[j], hi[j]
        for a, bi, r in zip(cols[j], b, reach[j + 1]):
            s = bi + r  # row i holds for some completion iff a x_j + s >= 0
            if a > 0:
                if -(s // a) > tlo:
                    tlo = -(s // a)
            elif a < 0:
                if s // -a < thi:
                    thi = s // -a
            elif s < 0:
                return tlo, tlo - 1
        return tlo, thi

    def walk(j, prefix, b):
        tlo, thi = cut(j, b)
        if j == d - 1:
            if tlo <= thi:
                yield prefix, tlo, thi
            return
        col = cols[j]
        for x in range(tlo, thi + 1):
            yield from walk(j + 1, prefix + (x,), [bi + a * x for bi, a in zip(b, col)])

    return walk(0, (), c)


def _ints(lo, hi, A, c):
    ints = operator.index  # takes Python and NumPy ints, refuses floats
    return ([ints(v) for v in lo], [ints(v) for v in hi],
            [[ints(v) for v in row] for row in A], [ints(v) for v in c])


def count_points(lo, hi, A, c):
    """Count integer points in the box subject to ``A x + c >= 0``.

    ``lo``/``hi`` are int sequences (inclusive bounds) of length d >= 1,
    ``A`` an m x d int matrix, ``c`` length-m ints; a float raises TypeError.
    """
    lo, hi, A, c = _ints(lo, hi, A, c)
    return sum(thi - tlo + 1 for _, tlo, thi in _scan(lo, hi, A, c))


def enumerate_points(lo, hi, A, c):
    """List the integer points of the box with ``A x + c >= 0``, as tuples in
    lex order."""
    lo, hi, A, c = _ints(lo, hi, A, c)
    out = []
    for prefix, tlo, thi in _scan(lo, hi, A, c):
        out.extend(prefix + (t,) for t in range(tlo, thi + 1))
    return out
