import functools
import importlib.util
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from fracmirror import NefPartition
from fracmirror.nefpart import validate_nef_partition
from fracmirror.polytope import LatticePolytope, _pairing, _pyramid, _transpose
from fracmirror.topology import euler_double_cover

REPO = Path(__file__).resolve().parents[1]
DATA = REPO / "data"


def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", REPO / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _load_gen()

_P2 = [(2, -1), (-1, 2), (-1, -1)]

# small reflexive polytopes by their vertices
SMALL_REFLEXIVE = {
    "p2": _P2,
    "hexagon": [(1, 0), (0, 1), (-1, 0), (0, -1), (1, -1), (-1, 1)],
    "square": [(1, 1), (1, -1), (-1, 1), (-1, -1)],
    "quartic": [(3, -1, -1), (-1, 3, -1), (-1, -1, 3), (-1, -1, -1)],
    "cube": list(itertools.product((-1, 1), repeat=3)),
    "octahedron": [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    "p2_x_p1": [(x, y, z) for x, y in _P2 for z in (1, -1)],
}


@functools.cache
def reflexive_polygons():
    """The distinct reflexive polygons spanned by three or more boundary
    points of one of the three largest reflexive polygons, those of P^2,
    P(1,1,2) and P^1 x P^1 (Poonen and Rodriguez-Villegas, "Lattice polygons
    and the number 12", 2000).  A polygon inside a reflexive one whose
    interior holds the origin has no other interior point, so it is
    reflexive."""
    found = {}
    for cycle in (_P2, [(-1, -1), (3, -1), (-1, 1)], [(1, 1), (-1, 1), (-1, -1), (1, -1)]):
        boundary = []  # the lattice points of each edge but its end
        for (a, b), (c, d) in zip(cycle, cycle[1:] + cycle[:1]):
            g = math.gcd(c - a, d - b)
            boundary += [(a + t * (c - a) // g, b + t * (d - b) // g) for t in range(g)]
        for k in range(3, len(boundary) + 1):
            for points in itertools.combinations(boundary, k):
                P = LatticePolytope(points, 2)
                if P.is_reflexive():
                    found.setdefault(P.vertices, P)
    return tuple(found.values())


@functools.cache
def reflexive_3polytopes():
    """The distinct reflexive hulls among 3000 seeded draws of 4 to 12
    points of {-1, 0, 1}^3 minus the origin."""
    cube = [p for p in itertools.product((-1, 0, 1), repeat=3) if any(p)]
    rng, found = random.Random(1), {}
    for _ in range(3000):
        P = LatticePolytope(rng.sample(cube, rng.randint(4, 12)), 3)
        if P.is_reflexive():
            found.setdefault(P.vertices, P)
    return tuple(found.values())


def cayley_pyramids(part_vertices, part_rays):
    """(Lambda, Lambda_dual) of a nef-partition, both read off one
    ``polytope._pairing`` by ``polytope._pyramid``, Lambda on the transposed
    masks, as ``topology.euler_double_cover`` reads them."""
    r = len(part_rays)
    rows, verts, on_rows = _pairing(part_vertices, part_rays)
    return _pyramid(rows, verts, _transpose(on_rows, len(verts)), r), _pyramid(verts, rows, on_rows, r)


@functools.cache
def reflexive_4polytopes():
    """The reflexive 4-polytopes of ``tests/reflexive_4polytopes.json``: a
    seeded draw, committed so that it does not rerun; its "about" says how
    it was drawn."""
    doc = json.loads((REPO / "tests" / "reflexive_4polytopes.json").read_text())
    return tuple(LatticePolytope(V, 4) for V in doc["polytopes"])


@st.composite
def kernel_vectors(draw, degree=None):
    """A balanced kernel vector (positive entries sum to minus the negative
    ones), zeros mixed in, with the exponent -1/2 on each negative entry; its
    positive entries sum to ``degree`` when one is given."""
    if degree is None:
        pos = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    else:
        cuts = sorted(draw(st.sets(st.integers(1, degree - 1))))
        pos = [b - a for a, b in zip([0] + cuts, cuts + [degree])]
    neg, left = [], sum(pos)
    while left:
        neg.append(-draw(st.integers(1, left)))
        left += neg[-1]
    ell = draw(st.permutations(pos + neg + [0] * draw(st.integers(0, 2))))
    return tuple(ell), tuple(Fraction(-1, 2) if le < 0 else 0 for le in ell)


def set_partitions(items):
    """Every set partition of ``items``, each a list of ascending tuples."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for parts in set_partitions(rest):
        for i in range(len(parts)):
            yield parts[:i] + [(first,) + parts[i]] + parts[i + 1 :]
        yield [(first,)] + parts


@functools.cache
def accepted_partitions():
    """(name, NefPartition) for every accepted set partition of the rays of
    the hexagon, the square, Delta_3 and its dual, P(1,1,2) and P(1,2,3),
    then the bundled inputs and the 13 perfbench shapes in seeded frames."""
    deltas = {
        "hexagon": SMALL_REFLEXIVE["hexagon"],
        "square": SMALL_REFLEXIVE["square"],
        "delta_3": GEN.simplex_vertices(3),
        "delta_3_dual": GEN.dual_vertices(3),
        "p112": [(1, 0), (0, 1), (-1, -2)],
        "p123": [(1, 0), (0, 1), (-2, -3)],
    }
    cases = []
    for name, verts in deltas.items():
        delta = LatticePolytope(verts)
        for parts in set_partitions(tuple(range(len(delta.polar_dual().vertices)))):
            if not validate_nef_partition(delta, parts):
                cases.append((name, NefPartition(delta, parts)))
    cases += [(name, load_case(name)) for name in GEN.BUNDLED]
    rng = random.Random(31)
    for shape, (n, _) in GEN.SHAPES.items():
        U, Uinv = GEN.random_frame(n, 3, rng)
        cases.append((shape, NefPartition.from_dict(GEN.framed_input(shape, U, Uinv))))
    return tuple(cases)


def load_case(name):
    with open(DATA / f"{name}.json", "r", encoding="utf-8") as fh:
        return NefPartition.from_dict(json.load(fh))


def load_json(name):
    with open(DATA / f"{name}.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def quartic():
    return load_case("p3_quartic")


@pytest.fixture(scope="session")
def eight_hyperplanes():
    return load_case("p3_eight_hyperplanes")


@pytest.fixture(scope="session")
def eight_hyperplanes_topology(eight_hyperplanes):
    """Euler data of the eight-hyperplane double cover, computed once."""
    return euler_double_cover(eight_hyperplanes)


@pytest.fixture(scope="session")
def k3():
    return load_case("p2_k3")


@pytest.fixture(scope="session")
def transition():
    return load_json("transition_polytopes")
