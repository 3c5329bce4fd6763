"""Seeded nef-partition inputs: reflexive simplices in sheared lattice frames.

A *shape* is the reflexive simplex Delta_n (vertices (n+1)e_i - 1 and -1)
together with a set partition of its n+1 dual vertices into parts of given
sizes.  A *frame* is a unimodular matrix U: a product of elementary +-1
shears, then a signed permutation of the coordinates.  The framed input has
Delta' = U Delta; its dual vertices are U^-T Delta^v, so part indices
(positions in the lex-sorted dual vertex list) are remapped through the lex
order of the transformed dual vertices.

A frame changes every coordinate the program sees but none of the invariants
the checker compares, so no job's result can be reused for another.  This
module does not import the program under test.
"""

import json
import math
import random

# name -> (n, part sizes).  The set stops at Cayley dimension n + r <= 7:
# P4 with r = 3 already costs seconds per euler, and P4 with r >= 4 does not
# finish in minutes while volumes come from dilation box scans.
SHAPES = {
    "p2_3": (2, (3,)),
    "p2_21": (2, (2, 1)),
    "p2_111": (2, (1, 1, 1)),
    "p3_4": (3, (4,)),
    "p3_31": (3, (3, 1)),
    "p3_22": (3, (2, 2)),
    "p3_211": (3, (2, 1, 1)),
    "p3_1111": (3, (1, 1, 1, 1)),
    "p4_5": (4, (5,)),
    "p4_41": (4, (4, 1)),
    "p4_32": (4, (3, 2)),
    "p4_311": (4, (3, 1, 1)),
    "p4_221": (4, (2, 2, 1)),
}

# The bundled data/*.json inputs are these shapes in the identity frame.
BUNDLED = {"p2_k3": "p2_3", "p3_quartic": "p3_4", "p3_eight_hyperplanes": "p3_1111"}


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def matmul(A, B):
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0])))
        for i in range(len(A))
    )


def apply(M, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in M)


def transpose(M):
    return tuple(zip(*M))


def simplex_vertices(n):
    """Vertices of Delta_n in the order the bundled inputs list them."""
    return [tuple(n if j == i else -1 for j in range(n)) for i in range(n)] + [
        tuple([-1] * n)
    ]


def dual_vertices(n):
    """Lex-sorted vertices of the polar dual of Delta_n: e_i and -1."""
    return sorted(
        [tuple(int(i == j) for j in range(n)) for i in range(n)] + [tuple([-1] * n)]
    )


def canonical_parts(n, sizes):
    """Consecutive blocks of the lex-sorted dual vertex indices."""
    parts, start = [], 0
    for s in sizes:
        parts.append(list(range(start, start + s)))
        start += s
    if start != n + 1:
        raise ValueError(f"part sizes {sizes} do not partition {n + 1} dual vertices")
    return parts


def shear(n, i, j, s):
    """The elementary matrix I + s e_i e_j^T (i != j); its inverse is shear(n, i, j, -s)."""
    return tuple(tuple(int(a == b) + s * ((a, b) == (i, j)) for b in range(n)) for a in range(n))


def random_frame(n, shears, rng):
    """(U, U^-1) for a product of ``shears`` elementary +-1 shears."""
    U = Uinv = identity(n)
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        U = matmul(shear(n, i, j, s), U)
        Uinv = matmul(Uinv, shear(n, i, j, -s))
    return U, Uinv


def framed_input(shape, U, Uinv):
    """The nef-partition document of ``shape`` in frame U (Delta' = U Delta)."""
    n, sizes = SHAPES[shape]
    delta = [list(apply(U, v)) for v in simplex_vertices(n)]
    duals = dual_vertices(n)
    moved = [apply(transpose(Uinv), w) for w in duals]
    order = sorted(moved)
    new_index = [order.index(w) for w in moved]
    parts = [sorted(new_index[j] for j in part) for part in canonical_parts(n, sizes)]
    return {"delta": {"dim": n, "vertices": delta}, "parts": parts}


def write_input(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def signed_permutation(n, rng):
    """A seeded n x n signed permutation matrix P; its inverse is P^T."""
    perm = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return tuple(tuple(signs[i] * int(perm[i] == j) for j in range(n)) for i in range(n))


def job_frames(shape, command, N, shears, count, rng):
    """``count`` distinct frames (U, U^-1) of one job: fixed shears, then seeded P.

    The shears of (shape, command, N) take the input out of normal form and
    set its box-scan cost.  A signed permutation P changes every coordinate
    the program sees but only permutes the bounding box, so a job scans the
    same boxes in each of its frames and at every seed.
    """
    n = SHAPES[shape][0]
    if count > 2**n * math.factorial(n):
        raise ValueError(f"{shape} has fewer than {count} signed permutations")
    S, Sinv = random_frame(n, shears, random.Random(f"{shape}:{command}:{N}"))
    seen, frames = set(), []
    while len(frames) < count:
        P = signed_permutation(n, rng)
        if P not in seen:
            seen.add(P)
            frames.append((matmul(P, S), matmul(Sinv, transpose(P))))
    return frames
