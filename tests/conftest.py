import pytest

from voamodes import heisenberg


def _clear_engine_caches():
    heisenberg._EXPAND_CACHE.clear()
    heisenberg._DRESSING_CACHE.clear()


@pytest.fixture
def clear_engine_caches():
    """Starts and ends the test with empty engine caches; yields the reset."""
    _clear_engine_caches()
    yield _clear_engine_caches
    _clear_engine_caches()
