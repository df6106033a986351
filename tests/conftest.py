import tracemalloc

import pytest

from rabi_est import posterior


@pytest.fixture(autouse=True)
def clear_posterior_caches():
    """Each test starts without cached mass grids, so that what a test
    computes, and counts, does not depend on the tests run before it."""
    posterior._grid.cache_clear()


@pytest.fixture
def traced_peak():
    """peak(fn, *args, **kwargs) calls fn and returns (the most bytes that
    tracemalloc saw allocated during the call beyond those allocated when it
    began, fn's result). Memory that numpy allocates for arrays counts."""
    def peak(fn, *args, **kwargs):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] - before, result
        finally:
            if started:
                tracemalloc.stop()

    return peak
