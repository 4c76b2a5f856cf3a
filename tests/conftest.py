import pytest

from critlab import GNParams, solve_ground_state


@pytest.fixture(scope="session")
def gs105():
    return solve_ground_state(GNParams(1, 0.5), resolution=4096)


@pytest.fixture(scope="session")
def gs205():
    return solve_ground_state(GNParams(2, 0.5), resolution=4096)


@pytest.fixture(scope="session")
def gs31():
    return solve_ground_state(GNParams(3, 1.0), resolution=4096)


@pytest.fixture(scope="session")
def gs105_hi():
    return solve_ground_state(GNParams(1, 0.5), resolution=16384)


@pytest.fixture(scope="session")
def gs31_hi():
    return solve_ground_state(GNParams(3, 1.0), resolution=16384)


@pytest.fixture(scope="session")
def solved():
    """Ground state at the default resolution for (N, b), solved once per pair."""
    cache = {}

    def get(N, b):
        if (N, b) not in cache:
            cache[(N, b)] = solve_ground_state(GNParams(N, b))
        return cache[(N, b)]

    return get
