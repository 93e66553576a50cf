import multiprocessing
import pathlib

import hypothesis
import pytest

from macrosim.network import load_network
from macrosim.solver import read_speeds_csv

hypothesis.settings.register_profile("fast", max_examples=25, deadline=None)
hypothesis.settings.load_profile("fast")

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(autouse=True)
def no_worker_outlives_a_test():
    """Fail a test after which a worker process still runs; the leftover is stopped so later tests start clean."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join(timeout=10)
    assert not left, f"worker processes still running after the test: {left}"


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture(scope="session")
def ring_net():
    return load_network(FIXTURES / "ring.json")


@pytest.fixture(scope="session")
def cross_net():
    return load_network(FIXTURES / "cross.json")


@pytest.fixture(scope="session")
def twolights_net():
    return load_network(FIXTURES / "twolights.json")


@pytest.fixture(scope="session")
def roadcats_net():
    return load_network(FIXTURES / "roadcats.json")


@pytest.fixture(scope="session")
def twolights_speeds():
    speeds, default = read_speeds_csv(FIXTURES / "twolights_init.csv")
    return speeds, default
