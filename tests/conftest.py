import pytest

from tempres import PulseSpec, make_grid


@pytest.fixture(scope="session")
def spec():
    return PulseSpec(sigma_t=1.0, mode_cutoff=8)


@pytest.fixture(scope="session")
def wide_spec():
    # enough modes that truncation is negligible up to tau = 3 sigma_t
    return PulseSpec(sigma_t=1.0, mode_cutoff=16)


@pytest.fixture(scope="session")
def grid(spec):
    return make_grid(spec)
