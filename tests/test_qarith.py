import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fsusy.errors import InvalidOrderError
from fsusy.qarith import primitive_root, q_numbers, roots


@pytest.mark.parametrize("k", [2, 3, 5, 64, 327, 1000])
def test_roots_are_the_exponentials_at_their_exponents(k):
    assert roots(k).shape == (k,)
    assert roots(k).tolist() == [cmath.exp(2j * cmath.pi * m / k) for m in range(k)]
    assert primitive_root(k) == roots(k)[1] and type(primitive_root(k)) is complex


def test_primitive_root_values():
    assert primitive_root(2) == pytest.approx(-1)
    assert primitive_root(4) == pytest.approx(1j)
    assert primitive_root(3) == pytest.approx(cmath.exp(2j * cmath.pi / 3))


@pytest.mark.parametrize("k", [1, 0, -3])
def test_primitive_root_rejects_low_order(k):
    for of_order in (primitive_root, roots, q_numbers):
        with pytest.raises(InvalidOrderError):
            of_order(k)


@pytest.mark.parametrize("k", [2, 5, 327, 1000])
def test_q_numbers_add_the_roots_left_to_right(k):
    total, sums = 0j, []
    for power in roots(k).tolist():
        sums.append(total)
        total += power
    assert q_numbers(k).tolist() == [*sums, total]


def test_q_number_base_cases():
    q = primitive_root(5)
    assert q_numbers(5).shape == (6,)
    assert q_numbers(5)[0] == 0
    assert q_numbers(5)[1] == 1
    assert q_numbers(5)[2] == pytest.approx(1 + q)


@given(k=st.integers(2, 40), data=st.data())
@settings(max_examples=60, deadline=None)
def test_q_number_matches_geometric_quotient(k, data):
    # the quotient form is fine away from q^n ~ 1, which n = 0 and n = k hit
    n = data.draw(st.integers(1, k - 1))
    q = primitive_root(k)
    assert q_numbers(k)[n] == pytest.approx((q**n - 1) / (q - 1), abs=1e-12)


@pytest.mark.parametrize("k", [*range(2, 9), 327, 1000])
def test_q_number_vanishes_at_the_order(k):
    assert q_numbers(k)[0] == 0
    assert abs(q_numbers(k)[k]) < 1e-12


@given(k=st.integers(2, 1000))
@settings(max_examples=20, deadline=None)
def test_roots_sum_to_zero(k):
    assert abs(roots(k).sum()) < 1e-12


@pytest.mark.parametrize("k", range(2, 9))
def test_root_of_unity_primitive(k):
    # every root lies on the unit circle, and only roots(k)[0] is 1
    assert np.abs(np.abs(roots(k)) - 1).max() < 1e-14
    assert roots(k)[0] == 1
    assert np.abs(roots(k)[1:] - 1).min() > 1e-12
