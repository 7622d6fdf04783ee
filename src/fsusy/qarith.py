"""Roots of unity, q-deformed integers and q-factorials.

q-numbers are evaluated as explicit geometric sums 1 + q + ... + q^(n-1).
Near a root of unity the textbook quotient (1 - q^n) / (1 - q) cancels
catastrophically, the sum form does not.
"""

from __future__ import annotations

import cmath

from .errors import DivisionDegenerateError, InvalidOrderError


def primitive_root(k: int) -> complex:
    """Primitive k-th root of unity exp(2*pi*i/k)."""
    if k < 2:
        raise InvalidOrderError(f"cyclic order must be at least 2, got {k}")
    return cmath.exp(2j * cmath.pi / k)


def q_number(n: int, q: complex) -> complex:
    """q-deformed integer [n] = 1 + q + ... + q^(n-1), with [0] = 0."""
    if n < 0:
        raise ValueError(f"q-numbers are defined for n >= 0, got {n}")
    if q == 1:
        raise DivisionDegenerateError("q-numbers are degenerate at q = 1")
    total = 0j
    power = 1 + 0j
    for _ in range(n):
        total += power
        power *= q
    return total


def q_factorial(n: int, q: complex) -> complex:
    """q-deformed factorial [n]! = [1][2]...[n], with [0]! = 1."""
    if n < 0:
        raise ValueError(f"q-factorials are defined for n >= 0, got {n}")
    out = 1 + 0j
    for i in range(1, n + 1):
        out *= q_number(i, q)
    return out
