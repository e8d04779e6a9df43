"""Set-up shared by every test module."""

import pytest

from gpsq import input_process


@pytest.fixture(autouse=True)
def _no_cached_read():
    """Every test starts and ends without a cached input read, so a test
    that swaps the Philox kernel leaves no read of its kernel behind."""
    input_process._read.cache_clear()
    yield
    input_process._read.cache_clear()
