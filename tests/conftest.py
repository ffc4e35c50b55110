import numpy as np
import pytest

from slspec import forward
from slspec.potentials import builtin


@pytest.fixture(scope="session")
def q1():
    return builtin("q1")


@pytest.fixture(scope="session")
def sw():
    return builtin("square_well")


@pytest.fixture(scope="session")
def q4():
    return builtin("quartic_rational")


@pytest.fixture(scope="session")
def q1_sd10(q1):
    return forward(q1, 10.0)


@pytest.fixture(scope="session")
def q1_sd20(q1):
    return forward(q1, 20.0)


@pytest.fixture(scope="session")
def q4_sd20(q4):
    return forward(q4, 20.0)
