"""Tests for the package's public names."""

import gpsq


def test_every_exported_name_resolves():
    # a name deleted from its module but left in __all__ fails here
    missing = [name for name in gpsq.__all__ if not hasattr(gpsq, name)]
    assert missing == []
    namespace: dict = {}
    exec("from gpsq import *", namespace)
    assert set(gpsq.__all__) <= set(namespace)
