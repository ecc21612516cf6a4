import pytest
from helpers import q2

from q2quartic import counts, masses
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


@pytest.fixture
def fresh_count_rows():
    """Empty every closed-form cache, each attribute of ``counts`` and
    ``masses`` with a ``cache_clear`` (the count rows, N_C4 rows and masses
    kept per tuple and per (e, f)), before and after the test, so it builds
    every value under what it patches and leaves none built that way behind."""

    def clear():
        for module in (counts, masses):
            for cached in vars(module).values():
                if hasattr(cached, "cache_clear"):
                    cached.cache_clear()

    clear()
    yield
    clear()
