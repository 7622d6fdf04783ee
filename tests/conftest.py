import sys

import pytest


def _clear_order_caches():
    for name, module in list(sys.modules.items()):
        if name == "fsusy" or name.startswith("fsusy."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture
def clear_order_caches():
    """A call that empties every per-order cache of fsusy, as a fresh process
    starts; the caches are emptied again when the test ends."""
    yield _clear_order_caches
    _clear_order_caches()
