import pytest

from oracles import make_grid


@pytest.fixture(scope="session")
def grid():
    return make_grid()
