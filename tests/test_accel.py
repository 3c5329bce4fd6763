"""Lattice-point count: the one exact-int scan against brute force."""

import contextlib
import itertools
import math
import random
import signal

import pytest

from fracmirror import _accel
from fracmirror.errors import FracmirrorError
from fracmirror.polytope import LatticePolytope


def brute_points(lo, hi, A, c):
    """Direct product-loop oracle: the feasible points in lex order."""
    return [
        p for p in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi)))
        if all(ci + sum(a * x for a, x in zip(row, p)) >= 0 for row, ci in zip(A, c))
    ]


def random_instance(rng, d):
    lo = [rng.randint(-4, 0) for _ in range(d)]
    hi = [l + rng.randint(-1, 5) for l in lo]  # -1: an inverted box
    m = rng.randint(0, 4)
    A = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(m)]
    c = [rng.randint(-2, 6) for _ in range(m)]
    if m and rng.random() < 0.3:
        A[0][-1] = 0  # a constraint that does not cut the last axis
    return lo, hi, A, c


def test_scan_agrees_with_brute_force():
    rng = random.Random(5)
    cases = [random_instance(rng, rng.randint(1, 4)) for _ in range(200)]
    rng = random.Random(6)
    cases += [random_instance(rng, 5) for _ in range(40)]
    assert any(row[-1] == 0 for _, _, A, _ in cases for row in A)
    assert any(l > h for lo, hi, _, _ in cases for l, h in zip(lo, hi))
    for case in cases:
        expect = brute_points(*case)
        assert _accel.count_points(*case) == len(expect)


def test_zero_dimensional_and_empty_boxes():
    # a zero-dimensional or flat set is refused before any scan, so every
    # box the scan sees has at least one axis
    for points in ([()], [(1, 2, 3)]):
        with pytest.raises(FracmirrorError, match="full-dimensional"):
            LatticePolytope(points).lattice_point_count()
    assert _accel.count_points([0], [-1], [], []) == 0
    # a float bound or coefficient is refused, not truncated ([0, 2.9] would
    # count 3 points)
    with pytest.raises(TypeError):
        _accel.count_points([0], [2.9], [], [])
    with pytest.raises(TypeError):
        _accel.count_points([0], [2], [[1.5]], [0])


def test_offsets_past_int64_stay_exact():
    # constraints whose intermediates exceed int64: x >= huge is asked of a
    # shifted unit box
    big = 2 ** 63
    lo, hi = [big], [big + 3]
    A, c = [[1]], [-big - 1]
    assert _accel.count_points(lo, hi, A, c) == 3
    # d = 3: the prefix axes carry huge offsets too;
    # x0 + x1 + x2 >= 2 big + 3 and x2 <= big + 2
    lo, hi = [big, 0, big], [big + 2, 1, big + 3]
    A, c = [[1, 1, 1], [0, 0, -1]], [-2 * big - 3, big + 2]
    expect = [
        p for p in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi)))
        if sum(p) >= 2 * big + 3 and p[2] <= big + 2
    ]
    assert len(expect) == 9
    assert _accel.count_points(lo, hi, A, c) == len(expect)


@contextlib.contextmanager
def deadline(seconds):
    """Turn a scan that does not finish into a failure instead of a hang."""
    def fail(signum, frame):
        raise TimeoutError(f"scan did not finish in {seconds} s")

    old = signal.signal(signal.SIGALRM, fail)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@deadline(10)
def test_scan_prunes_prefixes_no_completion_satisfies():
    # boxes of 10^54 points: each finishes only because a prefix that no
    # completion can satisfy is cut before its subtree is walked
    d, big = 6, 10 ** 9
    eye = [[int(i == j) for j in range(d)] for i in range(d)]
    # x >= 0, x0 + ... + x5 <= 3: C(9, 6) points
    A, c = [[-1] * d] + eye, [3] + [0] * d
    assert _accel.count_points([0] * d, [big] * d, A, c) == math.comb(9, 6)
    # only the last axis is constrained, beyond its box: empty at once
    A, c = [[0] * (d - 1) + [1]], [-big - 1]
    assert _accel.count_points([0] * d, [big] * d, A, c) == 0


def test_backend_name_is_python():
    assert _accel.backend_name() == "python"
