"""Lattice-point counting and enumeration: one prefix→interval scan.

Both entry points scan the box ``lo <= x <= hi`` under ``A x + c >= 0`` the
same way.  Every prefix of all axes but the last is visited in lex order, and
the constraints cut the last axis above it to an interval ``[tlo, thi]``.
``count_points`` sums the interval lengths; ``enumerate_points`` expands the
intervals into points.  The scan runs chunked in int64 NumPy, or on NumPy
object arrays of exact Python ints when ``_int64_safe`` says int64
intermediates could overflow.
"""

import math

import numpy as np

__all__ = ["backend_name", "count_points", "enumerate_points"]

_INT64_LIMIT = 2 ** 62
_CHUNK = 1 << 12


def backend_name():
    """Name of the array backend the scan runs on."""
    return "numpy"


def _int64_safe(lo, hi, A, c):
    # Bound |c_i + A_i . x| over the box; stay clear of int64 edges.
    for i, row in enumerate(A):
        bound = abs(c[i])
        for j, a in enumerate(row):
            bound += max(abs(a * lo[j]), abs(a * hi[j]))
        if bound >= _INT64_LIMIT:
            return False
    return all(abs(v) < _INT64_LIMIT for v in list(lo) + list(hi))


def _scan(lo, hi, A, c):
    """Yield ``(P, tlo, thi)`` per chunk of box prefixes.

    Column ``P[:, k]`` is a point of the box over all axes but the last, in
    lex order; ``[tlo[k], thi[k]]`` is the last-axis interval that
    ``A x + c >= 0`` leaves above it (empty where ``thi < tlo``).
    """
    d, m, last = len(lo), len(A), len(lo) - 1
    dtype = np.int64 if _int64_safe(lo, hi, A, c) else object
    An = np.array(A, dtype=dtype).reshape(m, d)
    cn = np.array(c, dtype=dtype).reshape(m, 1)
    ranges = [hi[j] - lo[j] + 1 for j in range(last)]
    total = math.prod(ranges)
    for start in range(0, total, _CHUNK):
        rem = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        k = rem.size
        P = np.empty((last, k), dtype=dtype)
        B = np.repeat(cn, k, axis=1)  # A x + c over the prefix axes
        for j in range(last - 1, -1, -1):
            rem, P[j] = np.divmod(rem, ranges[j])
            P[j] += lo[j]
            B += An[:, j, None] * P[j]
        tlo = np.full(k, lo[last], dtype=dtype)
        thi = np.full(k, hi[last], dtype=dtype)
        for a, b in zip(An[:, last].tolist(), B):
            if a > 0:
                np.maximum(tlo, -(b // a), out=tlo)
            elif a < 0:
                np.minimum(thi, b // -a, out=thi)
            else:
                # tlo never drops below lo[last], so this stays empty
                thi[b < 0] = lo[last] - 1
        yield P, tlo, thi


def _ints(lo, hi, A, c):
    return ([int(v) for v in lo], [int(v) for v in hi],
            [[int(v) for v in row] for row in A], [int(v) for v in c])


def count_points(lo, hi, A, c):
    """Count integer points in the box subject to ``A x + c >= 0``.

    ``lo``/``hi`` are int sequences (inclusive bounds), ``A`` an m x d int
    matrix, ``c`` length-m ints.
    """
    lo, hi, A, c = _ints(lo, hi, A, c)
    if any(l > h for l, h in zip(lo, hi)):
        return 0
    if not lo:
        return 1 if all(v >= 0 for v in c) else 0
    total = 0
    for _, tlo, thi in _scan(lo, hi, A, c):
        cnt = thi - tlo + 1
        total += int(cnt[cnt > 0].sum())
    return total


def enumerate_points(lo, hi, A, c):
    """List the integer points of the box with ``A x + c >= 0``, as tuples in
    lex order."""
    lo, hi, A, c = _ints(lo, hi, A, c)
    if any(l > h for l, h in zip(lo, hi)):
        return []
    if not lo:
        return [()] if all(v >= 0 for v in c) else []
    out = []
    for P, tlo, thi in _scan(lo, hi, A, c):
        keep = thi >= tlo
        for row, a, b in zip(P.T[keep].tolist(), tlo[keep].tolist(), thi[keep].tolist()):
            out.extend((*row, t) for t in range(a, b + 1))
    return out
