import pytest
from helpers import q2

from q2quartic.oracle import tower
from q2quartic.padic.field import field_from_spec


@pytest.fixture(scope="session")
def Q2():
    return q2()


@pytest.fixture(scope="session")
def U2():
    return field_from_spec({"f": 2})


@pytest.fixture(scope="session")
def K_sqrt2():
    return field_from_spec({"f": 1, "eisenstein": [-2, 0, 1]})


@pytest.fixture
def check_every(monkeypatch):
    """``check_every(n)`` makes density, dedup and tower cross-check one
    item in n (0: none) for the rest of the test, through their one rate."""

    def set_rate(n: int):
        monkeypatch.setattr(tower, "_CROSS_CHECK_EVERY", n)

    return set_rate
