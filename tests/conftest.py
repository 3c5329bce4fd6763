import itertools
import json
from pathlib import Path

import pytest

from fracmirror import NefPartition
from fracmirror.topology import euler_double_cover

REPO = Path(__file__).resolve().parents[1]
DATA = REPO / "data"

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
