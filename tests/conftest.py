import json
import pathlib
import random

import pytest

from tropfan.cli import load_fan_data
from tropfan.fan import Fan
from tropfan.matroid import Matroid, bergman_fan

ROOT = pathlib.Path(__file__).resolve().parent.parent
FANS = ROOT / "fans"


def load_fixture(name):
    with open(FANS / f"{name}.json") as fh:
        return load_fan_data(json.load(fh), origin=name)


@pytest.fixture(scope="session")
def p2():
    return load_fixture("p2")[0]


@pytest.fixture(scope="session")
def p2_weights():
    fan, w, _ = load_fixture("p2")
    return w


@pytest.fixture(scope="session")
def delta():
    return load_fixture("delta")[0]


@pytest.fixture(scope="session")
def delta_weights():
    return load_fixture("delta")[1]


@pytest.fixture(scope="session")
def sigma3():
    return load_fixture("sigma3")[0]


@pytest.fixture(scope="session")
def cone2():
    return load_fixture("cone2")[0]


@pytest.fixture(scope="session")
def cube():
    return load_fixture("cube")[0]


@pytest.fixture(scope="session")
def cube_weights():
    return load_fixture("cube")[1]


@pytest.fixture(scope="session")
def u23():
    return load_fixture("u23")[0]


@pytest.fixture(scope="session")
def u23_weights():
    return load_fixture("u23")[1]


@pytest.fixture(scope="session")
def u24_pair():
    return bergman_fan(Matroid.uniform(4, 2), name="u24")


@pytest.fixture(scope="session")
def k4_pair():
    m = Matroid.graphic(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    return bergman_fan(m, name="k4")


def _reordered(fan, seed):
    """The same fan with its rays renumbered and its maximal cones listed in a seeded order."""
    rng = random.Random(seed)
    new_index = list(range(len(fan.rays)))
    rng.shuffle(new_index)
    rays = [None] * len(new_index)
    for i, ray in enumerate(fan.rays):
        rays[new_index[i]] = ray
    maximal = [[new_index[j] for j in fan.cones[c]] for c in sorted(fan.maximal)]
    rng.shuffle(maximal)
    return Fan.from_max_cones(fan.rank, rays, maximal)


@pytest.fixture(scope="session")
def reordered():
    """``reordered(fan, seed)``: the fan with seeded ray and cone numbering."""
    return _reordered
