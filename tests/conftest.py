import pytest

from rabi_est import posterior


@pytest.fixture(autouse=True)
def clear_posterior_caches():
    """Each test starts without cached posteriors or grids, so that what a
    test computes, and counts, does not depend on the tests run before it."""
    posterior._moments.cache_clear()
    posterior._grid.cache_clear()
