import sys

import numpy as np
import pytest

from fsusy.wkalg import Scoring


def _clear_order_caches():
    for name, module in list(sys.modules.items()):
        if name == "fsusy" or name.startswith("fsusy."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture
def clear_order_caches():
    """A call that empties every per-order cache of fsusy and the CLI's
    parser cache, as a fresh process starts; the caches are emptied again
    when the test ends."""
    yield _clear_order_caches
    _clear_order_caches()


def flat(basis, n, s):
    """Row and column of |n, s> in a dense matrix of an operator on ``basis``:
    the C order of its (k, d) weight table, the sector cyclic."""
    return s % basis.k * basis.d + n


def multilinear_roundoff(k):
    """Bound on the column deviation between two orders of forming and adding
    the k ordered products Q-^(k-1-j) Q+ Q-^j.  The weights are nonnegative,
    so a column of a product of k factors is off by at most (k-1) eps
    relative, and a sum of k such terms by (k-1) eps more: each route is
    within 2(k-1) eps of exact, and two routes differ by less than 4k eps."""
    return 4 * k * np.finfo(float).eps


def entries(records):
    """The report entries of a check's records, at the default tolerance 1e-10."""
    return Scoring(1e-10).entries(records)


def by_name(records):
    """The report entries of a check's records by name."""
    return {e.name: e for e in entries(records)}


def one_entry(records):
    """The report entry of a check that makes one record."""
    [entry] = entries(records)
    return entry
