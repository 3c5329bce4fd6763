import json
from pathlib import Path

import pytest

from fracmirror import NefPartition
from fracmirror.topology import euler_double_cover

REPO = Path(__file__).resolve().parents[1]
DATA = REPO / "data"


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
