"""Truncated Taylor-jet arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptbound.errors import DomainError, JetMismatchError
from ptbound.jets import (
    SeriesJet,
    jet_add,
    jet_div,
    jet_mul,
    jet_reciprocal,
    jet_scale,
)


class TestConstructors:
    def test_constant(self):
        j = SeriesJet.constant(3.5, x0=2.0, order=4)
        assert j.value == 3.5
        assert j.order == 4
        assert j.x0 == 2.0
        assert list(j.coeffs) == [3.5, 0.0, 0.0, 0.0, 0.0]

    def test_variable(self):
        j = SeriesJet.variable(x0=2.0, order=3)
        assert j.value == 2.0
        assert list(j.coeffs) == [2.0, 1.0, 0.0, 0.0]

    def test_variable_order_zero(self):
        j = SeriesJet.variable(x0=-1.5, order=0)
        assert j.value == -1.5
        assert j.order == 0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            SeriesJet(np.array([]), x0=0.0)

    def test_two_dim_rejected(self):
        with pytest.raises(DomainError):
            SeriesJet(np.zeros((2, 2)), x0=0.0)


class TestArithmetic:
    def test_product_one_plus_u_one_minus_u(self):
        # (1+u)(1-u) = 1 - u^2 exactly, truncated tail zero
        x0, order = 0.7, 5
        u = SeriesJet.variable(x0, order) + (-x0)
        prod = jet_mul(u + 1.0, jet_scale(u, -1.0) + 1.0)
        expect = np.zeros(order + 1)
        expect[0], expect[2] = 1.0, -1.0
        assert np.allclose(prod.coeffs, expect, atol=1e-15)

    def test_identity_element(self):
        one = SeriesJet.constant(1.0, 0.0, 6)
        j = SeriesJet(np.array([2.0, -1.0, 0.5, 0.0, 3.0, 0.0, 1.0]), 0.0)
        assert np.array_equal(jet_mul(one, j).coeffs, j.coeffs)

    def test_scale_and_neg(self):
        j = SeriesJet.variable(1.0, 2)
        assert np.array_equal(jet_scale(j, -2.0).coeffs, (j * -2.0).coeffs)
        assert np.array_equal(jet_scale(j, -1.0).coeffs, -j.coeffs)

    def test_scalar_add_shifts_constant_only(self):
        j = SeriesJet.variable(0.0, 3)
        shifted = j + 4.0
        assert shifted.value == 4.0
        assert np.array_equal(shifted.coeffs[1:], j.coeffs[1:])

    def test_mismatched_x0(self):
        a = SeriesJet.variable(0.0, 3)
        b = SeriesJet.variable(1.0, 3)
        with pytest.raises(JetMismatchError):
            jet_add(a, b)

    def test_mismatched_order(self):
        a = SeriesJet.variable(0.0, 3)
        b = SeriesJet.variable(0.0, 4)
        with pytest.raises(JetMismatchError):
            jet_mul(a, b)


class TestReciprocal:
    def test_exp_jet(self):
        # exp about 0: reciprocal must be the exp(-x) jet
        order = 8
        c = np.array([1.0 / math.factorial(k) for k in range(order + 1)])
        r = jet_reciprocal(SeriesJet(c, 0.0))
        expect = np.array([(-1.0) ** k / math.factorial(k) for k in range(order + 1)])
        assert np.allclose(r.coeffs, expect, atol=1e-14)

    def test_mul_by_reciprocal_is_one(self):
        j = SeriesJet(np.array([2.0, -0.3, 0.11, 0.5, -1.0, 0.07]), 1.2)
        prod = jet_mul(j, jet_reciprocal(j))
        expect = np.zeros(j.order + 1)
        expect[0] = 1.0
        assert np.allclose(prod.coeffs, expect, atol=1e-13)

    def test_div_roundtrip(self):
        a = SeriesJet(np.array([1.0, 2.0, 3.0, 4.0]), 0.0)
        b = SeriesJet(np.array([3.0, -1.0, 0.5, 2.0]), 0.0)
        back = jet_mul(jet_div(a, b), b)
        assert np.allclose(back.coeffs, a.coeffs, atol=1e-12)

    def test_zero_constant_rejected(self):
        j = SeriesJet.variable(0.0, 3)  # value 0 at x0=0
        with pytest.raises(DomainError):
            jet_reciprocal(j)


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
@settings(max_examples=150, deadline=None)
def test_jet_mul_agrees_with_polynomial_product(ca, cb, t):
    # Degree-3 factors in order-7 jets: the Cauchy product is exact, so
    # evaluating the jet at x0 + t must match the pointwise product.
    pad = lambda c: np.concatenate([np.array(c), np.zeros(4)])
    a = SeriesJet(pad(ca), 0.0)
    b = SeriesJet(pad(cb), 0.0)
    prod = jet_mul(a, b)
    assert _poly_eval(prod.coeffs, t) == pytest.approx(
        _poly_eval(a.coeffs, t) * _poly_eval(b.coeffs, t), rel=1e-10, abs=1e-10
    )

