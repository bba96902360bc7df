"""Truncated Taylor-series products on coefficient lists."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptbound.errors import DomainError
from ptbound.jets import jet_mul, jet_reciprocal


class TestArithmetic:
    def test_product_one_plus_u_one_minus_u(self):
        # (1+u)(1-u) = 1 - u^2 exactly, truncated tail zero
        order = 5
        u = np.zeros(order + 1)
        u[1] = 1.0
        one = np.zeros(order + 1)
        one[0] = 1.0
        prod = jet_mul(one + u, one - u)
        expect = np.zeros(order + 1)
        expect[0], expect[2] = 1.0, -1.0
        assert np.allclose(prod, expect, atol=1e-15)

    def test_identity_element(self):
        one = np.zeros(7)
        one[0] = 1.0
        j = np.array([2.0, -1.0, 0.5, 0.0, 3.0, 0.0, 1.0])
        assert np.array_equal(jet_mul(one, j), j)


class TestSummationOrder:
    """Coefficient j is summed as acc += a[i] * b[j - i] for i = 0..j, in
    ascending i: not compensated, and not in any other order."""

    def test_not_compensated(self):
        # -1e16 + 1 rounds back to -1e16, and + 1e16 gives 0.0; a
        # compensated sum (math.fsum, or sum() from Python 3.12) gives 1.0.
        assert jet_mul([1.0, 1.0, 1.0], [1e16, 1.0, -1e16])[2] == 0.0

    def test_ascending(self):
        # -1e16 + 1e16 + 1 is 1.0; summed in descending i, 1 + 1e16 rounds
        # to 1e16 and the sum is 0.0.
        assert jet_mul([1.0, 1.0, 1.0], [1.0, 1e16, -1e16])[2] == 1.0

    def test_reciprocal_ascending(self):
        # r[3] = -(a[1] r[2] + a[2] r[1] + a[3] r[0]) sums 1e8 * 1e16, -1e8
        # and -1e8: in ascending i it rounds twice, to -9.999999999999997e23;
        # in descending i, or by math.fsum, once, to -9.999999999999998e23.
        r = jet_reciprocal([1.0, 1e8, 1.0, -1e8])
        assert r == [1.0, -1e8, 1e16, -9.999999999999997e23]

    def test_shorter_factor_counts_as_zero_padded(self):
        assert jet_mul([1.0, 2.0, 3.0, 4.0], [5.0, 6.0]) == [5.0, 16.0, 27.0, 38.0]


class TestReciprocal:
    def test_exp_jet(self):
        # exp about 0: reciprocal must be the exp(-x) jet
        order = 8
        c = np.array([1.0 / math.factorial(k) for k in range(order + 1)])
        r = jet_reciprocal(c)
        expect = np.array([(-1.0) ** k / math.factorial(k) for k in range(order + 1)])
        assert np.allclose(r, expect, atol=1e-14)

    def test_mul_by_reciprocal_is_one(self):
        j = np.array([2.0, -0.3, 0.11, 0.5, -1.0, 0.07])
        prod = jet_mul(j, jet_reciprocal(j))
        expect = np.zeros(j.size)
        expect[0] = 1.0
        assert np.allclose(prod, expect, atol=1e-13)

    def test_div_roundtrip(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([3.0, -1.0, 0.5, 2.0])
        back = jet_mul(jet_mul(a, jet_reciprocal(b)), b)
        assert np.allclose(back, a, atol=1e-12)

    def test_zero_constant_rejected(self):
        with pytest.raises(DomainError):
            jet_reciprocal(np.array([0.0, 1.0, 0.0, 0.0]))  # the series x about 0


def _poly_eval(coeffs, t):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


@given(
    st.lists(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), min_size=4, max_size=4),
    st.lists(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), min_size=4, max_size=4),
    st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
)
@settings(max_examples=150)
def test_jet_mul_agrees_with_polynomial_product(ca, cb, t):
    # Degree-3 factors in order-7 arrays: the Cauchy product is exact, so
    # evaluating it at x0 + t must match the pointwise product.
    pad = lambda c: np.concatenate([np.array(c), np.zeros(4)])
    a, b = pad(ca), pad(cb)
    prod = jet_mul(a, b)
    assert _poly_eval(prod, t) == pytest.approx(
        _poly_eval(a, t) * _poly_eval(b, t), rel=1e-10, abs=1e-10
    )
