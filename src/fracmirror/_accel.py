"""Lattice-point counting: one prefix→interval scan.

``count_points`` scans the box ``lo <= x <= hi`` under ``A x + c >= 0`` on
Python ints, so no coordinate or constraint value can overflow.  The scan
fixes one axis at a time in lex order and carries ``b = A x + c`` over the
axes fixed so far.  At axis j every row cuts x_j to the values for which it
can still reach 0 over the free axes after j (each free axis at its best
end of the box), so a prefix that no completion can satisfy is never
extended; at the last axis this cut is exact, and the count adds the
lengths of the last-axis intervals.

The scan's work is bounded.  A prefix it visits costs one step per row of
A and ten steps for the visit itself, and a scan that would take more than
``SCAN_BUDGET`` steps raises ``FracmirrorError`` (exit 3) when it gets there.
"""

from .errors import FracmirrorError, _as_ints

__all__ = ["backend_name", "count_points"]

# The most steps one scan takes.  The time per prefix visited fits
# 0.11 µs × (rows + 10) from 4 to 41 rows (one core of an x86-64 server), so
# a refused scan stops after about 0.25 s in any dimension.  The commands
# scan only for n >= 4: Delta* on every input, and nabla* off a simplex, on a
# simplex whose rays span a proper sublattice, or where the knapsack of
# topology._nabla_dual_count would take more than this many steps.  So the
# one-parameter inputs reach the budget only through Delta*; the input of
# tests/test_rejected_inputs.py::OVER_BUDGET, Delta_8 x [-1, 1], reaches it
# through nabla*.  The largest scan of a digest input takes 890 steps, of a
# perfbench input 395 (seeds 1-5), the largest in the tests (a random
# 5-polytope of tests/test_polytope.py) 1.64 million.  As a polytope the
# reflexive 9-simplex takes 1.51 million and is counted; the 10-simplex
# (7.4 million, 0.5–0.7 s) is refused.
SCAN_BUDGET = 2_000_000


def backend_name():
    """Name of the arithmetic the scan runs on (perfbench/run.py records it)."""
    return "python"


# Name-only shims for perfbench/spans.py, which wraps _int64_safe by name to
# count big-integer scans and enumerate_points to time a listing; nothing
# calls them, since every scan runs on Python ints and only counts.  They go
# with the other patch-only shims in ROADMAP item 5.
_int64_safe = enumerate_points = None


def count_points(lo, hi, A, c):
    """Count integer points in the box subject to ``A x + c >= 0``.

    ``lo``/``hi`` are int sequences (inclusive bounds) of length d >= 1,
    ``A`` an m x d int matrix, ``c`` length-m ints (``errors._as_ints``).
    """
    lo, hi = _as_ints(lo, "box bound"), _as_ints(hi, "box bound")
    c, A = _as_ints(c, "constraint entry"), [_as_ints(row, "constraint entry") for row in A]
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

    left = SCAN_BUDGET // (len(A) + 10)  # the prefixes the budget pays for

    def walk(j, b):
        """The points above one prefix of j fixed axes, with b = A x + c over them."""
        nonlocal left
        tlo, thi = cut(j, b)
        if j == d - 1:
            return max(thi - tlo + 1, 0)
        left -= max(thi - tlo + 1, 0)
        if left < 0:
            raise FracmirrorError(f"a lattice-point scan exceeds the budget of {SCAN_BUDGET} steps")
        col = cols[j]
        return sum(walk(j + 1, [bi + a * x for bi, a in zip(b, col)]) for x in range(tlo, thi + 1))

    return walk(0, c)
