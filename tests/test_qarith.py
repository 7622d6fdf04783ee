import cmath

import pytest
from hypothesis import given, settings, strategies as st

from fsusy.errors import DivisionDegenerateError, InvalidOrderError
from fsusy.qarith import primitive_root, q_factorial, q_number


def test_primitive_root_values():
    assert primitive_root(2) == pytest.approx(-1)
    assert primitive_root(4) == pytest.approx(1j)
    q = primitive_root(3)
    assert q == pytest.approx(cmath.exp(2j * cmath.pi / 3))


@pytest.mark.parametrize("k", [1, 0, -3])
def test_primitive_root_rejects_low_order(k):
    with pytest.raises(InvalidOrderError):
        primitive_root(k)


def test_q_number_base_cases():
    q = primitive_root(5)
    assert q_number(0, q) == 0
    assert q_number(1, q) == 1
    assert q_number(2, q) == pytest.approx(1 + q)


def test_q_number_rejects_degenerate_point():
    with pytest.raises(DivisionDegenerateError):
        q_number(3, 1)
    with pytest.raises(ValueError):
        q_number(-1, primitive_root(3))


@given(k=st.integers(2, 12), n=st.integers(0, 30))
@settings(max_examples=60, deadline=None)
def test_q_number_matches_geometric_quotient(k, n):
    # the quotient form is fine away from q^n ~ 1, which n % k == 0 hits
    q = primitive_root(k)
    if n % k == 0:
        assert abs(q_number(n, q)) < 1e-10
    else:
        expected = (q**n - 1) / (q - 1)
        assert q_number(n, q) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("k", range(2, 9))
def test_q_number_vanishes_at_the_order(k):
    assert abs(q_number(k, primitive_root(k))) < 1e-12


def test_q_factorial_values():
    q = primitive_root(5)
    assert q_factorial(0, q) == 1
    assert q_factorial(1, q) == 1
    expected = q_number(1, q) * q_number(2, q) * q_number(3, q)
    assert q_factorial(3, q) == pytest.approx(expected)
    with pytest.raises(ValueError):
        q_factorial(-2, q)


@pytest.mark.parametrize("k", range(2, 9))
def test_q_factorial_below_order_is_nonzero(k):
    # [k-1]! divides the cyclic lowering operator, so it must not vanish
    assert abs(q_factorial(k - 1, primitive_root(k))) > 1e-6


@pytest.mark.parametrize("k", range(2, 9))
def test_root_of_unity_primitive(k):
    # primitive_root(k) lies on the unit circle and has order exactly k
    q = primitive_root(k)
    assert abs(abs(q) - 1) < 1e-14
    assert abs(q**k - 1) < 1e-12
    assert all(abs(q**j - 1) > 1e-12 for j in range(1, k))


@given(k=st.integers(2, 10))
@settings(max_examples=20, deadline=None)
def test_roots_sum_to_zero(k):
    q = primitive_root(k)
    total = sum(q**t for t in range(k))
    assert abs(total) < 1e-12
