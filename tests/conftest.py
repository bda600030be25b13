"""The gate's solver runs, computed once per session and shared by the
tests, and `traced`, the memory count of one call.  A test reads a mixing
point's extraction off the triangle check that made it."""

import tracemalloc

import pytest

from magnonbs.acceptance import _triangle_pair, curve_and_quarter
from magnonbs.scenarios import FIG2_CURVES


def traced(fn, *args, **kwargs) -> tuple[int, int]:
    """The bytes `fn(*args, **kwargs)` allocated and still held when it
    returned, its result included, and the most it held at once, both as
    `tracemalloc` counts them from the call's start."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)  # held while the counts are read
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def fig2_pairs():
    """Each gate depth's storage-drive curve and its optimum's run on a
    quarter of the curve's finest grid, as the gate builds them."""
    return {params.od: curve_and_quarter(params) for params in FIG2_CURVES}


@pytest.fixture(scope="session")
def mixing_checks():
    """The gate's triangle checks of the resonant and the detuned mixing
    point, each holding the extraction behind it."""
    return _triangle_pair()
