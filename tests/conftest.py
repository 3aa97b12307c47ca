import pytest

from voamodes import fock, heisenberg, matrices, series


def _clear_engine_caches():
    heisenberg._EXPAND_CACHE.clear()
    heisenberg._creation_dressing.cache_clear()


def _clear_caches():
    _clear_engine_caches()
    series._binom_cached.cache_clear()
    fock._basis.cache_clear()
    matrices._left_entry_cached.cache_clear()
    matrices._right_entry_cached.cache_clear()
    matrices._conjugated_series.cache_clear()
    matrices._direct_series.cache_clear()
    matrices._right_op_series.cache_clear()
    matrices._module_mode.cache_clear()
    matrices._exp_l1_parity.cache_clear()
    matrices._residue_weights.cache_clear()
    matrices.jacobi_sums.cache_clear()


@pytest.fixture
def clear_engine_caches():
    """Starts and ends the test with empty engine caches; yields the reset."""
    _clear_engine_caches()
    yield _clear_engine_caches
    _clear_engine_caches()


@pytest.fixture
def clear_caches():
    """Yields the reset of every cache of the package; the test calls it."""
    return _clear_caches
