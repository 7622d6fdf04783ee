"""Roots of unity and q-deformed integers of one order k.

q is the primitive k-th root of unity, and every power q^m is read from the
table of the k roots at m mod k, never multiplied up: a running product
drifts in phase by about one rounding a step.  q-numbers are evaluated as
explicit geometric sums 1 + q + ... + q^(n-1) of those roots.  Near a root
of unity the textbook quotient (1 - q^n) / (1 - q) cancels catastrophically,
the sum form does not.
"""

from __future__ import annotations

import cmath
from functools import lru_cache

import numpy as np

from .errors import InvalidOrderError


@lru_cache(maxsize=8)
def roots(k: int) -> np.ndarray:
    """The k roots exp(2*pi*i*m/k), m = 0 .. k-1, built once per order and
    read-only; q^m is ``roots(k)[m % k]``."""
    if k < 2:
        raise InvalidOrderError(f"cyclic order must be at least 2, got {k}")
    table = np.array([cmath.exp(2j * cmath.pi * m / k) for m in range(k)])
    table.flags.writeable = False
    return table


def primitive_root(k: int) -> complex:
    """Primitive k-th root of unity exp(2*pi*i/k)."""
    return complex(roots(k)[1])


def q_numbers(k: int) -> np.ndarray:
    """[0]_q .. [k]_q of order k: [n]_q adds roots(k)[:n] left to right, so
    [0]_q = 0 and [k]_q is 0 up to round-off."""
    return np.concatenate(([0j], np.cumsum(roots(k))))

