"""Reference algorithms kept only to check the package against.

Each one is a slower, independent route to a result the package computes
another way; the tests compare the two.
"""


def reversion_by_composition(f):
    """Compositional inverse of ``f`` one coefficient at a time.

    T_1 = 1/c1, and T_k = -(1/c1) [q^k] f(T_1 q + ... + T_(k-1) q^(k-1)):
    N compositions of the whole series, O(N^4) ring operations.
    """
    inv1 = f.ring.invert(f.c[1])
    out = [f.ring.zero, inv1] + [f.ring.zero] * (f.N - 1)
    for k in range(2, f.N + 1):
        err = f.compose(f._raw(out, f.N)).coeff(k)
        out[k] = -(inv1 * err)
    return f._raw(out, f.N)
