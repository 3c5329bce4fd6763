"""Lattice-point scan: int64 and exact-int arithmetic against brute force."""

import itertools
import random

from fracmirror import _accel


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


def test_backends_agree_with_brute_force(monkeypatch):
    rng = random.Random(5)
    cases = [random_instance(rng, rng.randint(1, 4)) for _ in range(200)]
    assert any(row[-1] == 0 for _, _, A, _ in cases for row in A)
    assert any(l > h for lo, hi, _, _ in cases for l, h in zip(lo, hi))
    expected = [brute_points(*case) for case in cases]
    # int64 and forced exact-int arithmetic, each in one chunk and in chunks
    # of 7 prefixes that split the prefix axes mid-row
    for exact, chunk in itertools.product((False, True), (_accel._CHUNK, 7)):
        with monkeypatch.context() as mp:
            if exact:
                mp.setattr(_accel, "_int64_safe", lambda *a: False)
            mp.setattr(_accel, "_CHUNK", chunk)
            for case, expect in zip(cases, expected):
                assert _accel.count_points(*case) == len(expect)
                assert _accel.enumerate_points(*case) == expect


def test_enumerate_matches_count_and_is_sorted():
    rng = random.Random(8)
    for _ in range(10):
        d = rng.randint(1, 3)
        lo, hi, A, c = random_instance(rng, d)
        pts = _accel.enumerate_points(lo, hi, A, c)
        assert len(pts) == _accel.count_points(lo, hi, A, c)
        assert pts == sorted(pts)
        assert len(set(pts)) == len(pts)


def test_zero_dimensional_and_empty_boxes():
    assert _accel.count_points([], [], [], []) == 1
    assert _accel.count_points([], [], [[]], [-1]) == 0
    assert _accel.count_points([0], [-1], [], []) == 0
    assert _accel.enumerate_points([0], [-1], [], []) == []


def test_overflow_falls_back_to_exact_bigints():
    # constraints whose intermediates exceed int64: x >= huge is asked of a
    # shifted unit box
    big = 2 ** 63
    lo, hi = [big], [big + 3]
    A, c = [[1]], [-big - 1]
    assert not _accel._int64_safe(lo, hi, A, c)
    assert _accel.count_points(lo, hi, A, c) == 3
    assert _accel.enumerate_points(lo, hi, A, c) == [(big + 1,), (big + 2,), (big + 3,)]
    # d = 3: the prefix axes carry huge offsets too, so the exact prefix
    # loop runs; x0 + x1 + x2 >= 2 big + 3 and x2 <= big + 2
    lo, hi = [big, 0, big], [big + 2, 1, big + 3]
    A, c = [[1, 1, 1], [0, 0, -1]], [-2 * big - 3, big + 2]
    assert not _accel._int64_safe(lo, hi, A, c)
    expect = [
        p for p in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi)))
        if sum(p) >= 2 * big + 3 and p[2] <= big + 2
    ]
    assert len(expect) == 9
    assert _accel.count_points(lo, hi, A, c) == len(expect)
    assert _accel.enumerate_points(lo, hi, A, c) == expect


def test_backend_name_is_numpy():
    assert _accel.backend_name() == "numpy"
