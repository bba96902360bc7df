"""Special-function layer: identities, reference values, error handling."""

import hashlib
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptbound.cli import FIGURE_MOLECULES, RunConfig
from ptbound.errors import DomainError, OverflowRangeError
from ptbound.molecules import builtin_molecules, thermo_context_for
from ptbound.oracle import integrate_adaptive
from ptbound.specfun import (
    _SCALAR_TAIL,
    _SERIES_CUT,
    ERFI_MAX_ARG,
    _erfi_family_array,
    _integral,
    _integral_array,
    _retire,
    dawson,
    erfi,
    hyp2f1_terminating,
    ln_erfi,
    pochhammer,
)

SQRT_PI = math.sqrt(math.pi)

# Both sides of the series/asymptotic cut at 7 and of zero, signed zero included.
_NEAR_CUT = [math.nextafter(7.0, 0.0), 7.0, math.nextafter(7.0, 8.0)]
SYMMETRIC_GRID = (
    [-0.0, 0.0] + [-26.0 + i / 100.0 for i in range(1, 5200)]
    + _NEAR_CUT + [-x for x in _NEAR_CUT]
)
POSITIVE_GRID = [i / 100.0 for i in range(1, 4001)] + _NEAR_CUT


class TestDawson:
    def test_zero(self):
        assert dawson(0.0) == 0.0

    def test_odd(self):
        for x in (0.25, 1.0, 6.0, 9.0, 20.0):
            assert dawson(-x) == -dawson(x)

    def test_value_at_one_vs_quadrature(self):
        # F(1) = e^{-1} * int_0^1 e^{t^2} dt
        integral = integrate_adaptive(lambda t: math.exp(t * t), 0.0, 1.0, tol=1e-14)
        assert dawson(1.0) == pytest.approx(math.exp(-1.0) * integral, rel=1e-10)

    def test_high_precision_reference(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for x in (0.1, 0.5, 1.0, 2.0, 5.0, 6.9, 7.1, 10.0, 30.0):
            ref = float(mp.sqrt(mp.pi) / 2 * mp.exp(-mp.mpf(x) ** 2) * mp.erfi(x))
            assert dawson(x) == pytest.approx(ref, rel=5e-15), f"x={x}"

    def test_asymptotic_tail(self):
        # 2x F(x) -> 1 + 1/(2x^2) + O(x^-4)
        x = 50.0
        assert 2.0 * x * dawson(x) == pytest.approx(1.0 + 1.0 / (2.0 * x * x), abs=1e-6)

    def test_tail_past_the_overflow_of_2x(self):
        # F(x) = 1/(2x) to the last bit once 1/(2x^2) underflows, also
        # where 2x overflows and 1/(2x) is subnormal.
        for x in (1e160, 1e307, 1e308, 1.7976931348623157e308):
            assert dawson(x) == 0.5 / x > 0.0
            assert dawson(-x) == -dawson(x)


class TestErfi:
    def test_value_at_one_vs_quadrature(self):
        integral = integrate_adaptive(lambda t: math.exp(t * t), 0.0, 1.0, tol=1e-14)
        assert erfi(1.0) == pytest.approx(2.0 / SQRT_PI * integral, rel=1e-10)

    def test_dawson_identity_on_range(self):
        # erfi(x) = 2/sqrt(pi) e^{x^2} dawson(x), the overflow-safe route
        for i in range(101):
            x = 10.0 * i / 100.0
            lhs = erfi(x)
            rhs = 2.0 / SQRT_PI * math.exp(x * x) * dawson(x)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300), f"x={x}"

    @given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    @settings(max_examples=200)
    def test_dawson_identity_property(self, x):
        assert erfi(x) == pytest.approx(
            2.0 / SQRT_PI * math.exp(x * x) * dawson(x), rel=1e-12, abs=1e-300
        )

    def test_overflow_raises(self):
        with pytest.raises(OverflowRangeError):
            erfi(ERFI_MAX_ARG + 0.5)

    def test_strictly_increasing(self):
        xs = [0.0, 0.5, 1.0, 3.0, 7.0, 12.0, 25.0]
        vals = [erfi(x) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestLnErfi:
    def test_matches_plain_log_small(self):
        for x in (0.1, 1.0, 3.0, 6.5):
            assert ln_erfi(x) == pytest.approx(math.log(erfi(x)), rel=1e-13)

    def test_beyond_overflow_cap(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        for x in (30.0, 100.0):
            ref = float(mp.log(mp.erfi(x)))
            assert ln_erfi(x) == pytest.approx(ref, rel=1e-14)

    def test_series_asymptotic_crossover_consistent(self):
        below, above = ln_erfi(6.999999), ln_erfi(7.000001)
        assert abs(above - below) < 1e-4


class TestBitPattern:
    """sha256 of ``float.hex`` of every value on a fixed grid: any change to
    the order of the arithmetic behind the erfi family shows here."""

    @pytest.mark.parametrize(
        "fn, grid, digest",
        [
            (dawson, SYMMETRIC_GRID,
             "03d05b43216c524687c996b221a0c5235050d394e47f1e682d21ed869c66921c"),
            (erfi, SYMMETRIC_GRID,
             "1045f2a171fb41181c1b06e2d89d572e4f8348d683145f2f4ac8fb2e54a21eac"),
            (ln_erfi, POSITIVE_GRID,
             "c0c91e97fb16e1eb266919b9a3c9dd40f9ce816bac4bf0fbef8138ecf736fbbd"),
        ],
        ids=["dawson", "erfi", "ln_erfi"],
    )
    def test_digest(self, fn, grid, digest):
        text = "\n".join(float.hex(fn(x)) for x in grid)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def _hexes(*columns):
    return [tuple(float.hex(v) for v in row) for row in zip(*columns)]


def figure_data_chis() -> list[float]:
    """chi at figure-data's 448 default points (tau = 1), spread over 0-14:
    the four figure molecules over the beta grid, then zeta over 1-100 at
    three fixed betas."""
    config = RunConfig()
    mols = {mol.name: mol for mol in builtin_molecules()}
    zetas = [
        thermo_context_for(mols[name], config.potential(mols[name].alpha_invA), tau=1.0).zeta
        for name in FIGURE_MOLECULES
    ]
    betas = [1e-4 * math.exp(i * math.log(1e4) / 63) for i in range(64)]
    grid = np.linspace(1.0, 100.0, 64).tolist()
    return [z * math.sqrt(b) for b in betas for z in zetas] + [
        z * math.sqrt(b) for z in grid for b in (1e-4, 1e-3, 1e-2)
    ]


class TestArrayTwin:
    """The array pass behind the batched thermo_table against the scalar
    series, bit for bit, on both sides of the series/asymptotic cut.  Past
    _SCALAR_TAIL elements a series steps as arrays first."""

    @given(st.lists(
        st.one_of(
            st.floats(0.0, 0.05), st.floats(0.0, _SERIES_CUT), st.floats(6.9, 7.1),
            st.floats(_SERIES_CUT, ERFI_MAX_ARG),
        ),
        min_size=1, max_size=200,
    ))
    @example([0.0, 5e-324, *_NEAR_CUT, ERFI_MAX_ARG])
    @example(POSITIVE_GRID)
    @example(figure_data_chis())
    def test_integral(self, xs):
        p, v = _integral_array(np.array(xs))
        assert _hexes(p.tolist(), v.tolist()) == _hexes(*zip(*map(_integral, xs)))

    def test_figure_data_chis_span_both_series(self):
        xs = np.array(figure_data_chis())
        assert len(xs) == 448 and xs.max() > 14.0
        assert (xs <= _SERIES_CUT).sum() > _SCALAR_TAIL

    def test_out_of_order_finish_keeps_its_own_step(self):
        # Working set [1:] of four: the element at 3 stops ahead of the
        # prefix and is recorded; later steps record only new stops.
        out, done = np.full(4, np.nan), np.array([True, False, False, False])
        lo = _retire(np.array([False, False, True]), np.array([1.0, 2.0, 3.0]), 1, out, done)
        assert lo == 1 and out[3] == 3.0 and done.tolist() == [True, False, False, True]
        lo = _retire(np.array([True, False, True]), np.array([4.0, 5.0, 6.0]), 1, out, done)
        assert lo == 2 and out[1] == 4.0 and math.isnan(out[2]) and out[3] == 3.0
        lo = _retire(np.array([True, True]), np.array([7.0, 8.0]), 2, out, done)
        assert lo == 4 and out[1:].tolist() == [4.0, 7.0, 3.0]

    @given(st.lists(st.floats(5e-324, ERFI_MAX_ARG), min_size=1, max_size=200))
    @example([5e-324, 1e-160, *_NEAR_CUT, ERFI_MAX_ARG])
    @example([x for x in POSITIVE_GRID if x <= ERFI_MAX_ARG])
    def test_erfi_family(self, xs):
        family = _erfi_family_array(np.array(xs))
        singles = [(dawson(x), erfi(x), ln_erfi(x)) for x in xs]
        assert _hexes(*(f.tolist() for f in family)) == _hexes(*zip(*singles))


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(2.7, 0) == 1.0

    def test_integer_case(self):
        assert pochhammer(3.0, 4) == 3.0 * 4.0 * 5.0 * 6.0

    def test_non_integer(self):
        assert pochhammer(1.1, 2) == pytest.approx(1.1 * 2.1, rel=1e-15)

    def test_negative_base_hits_zero(self):
        assert pochhammer(-3.0, 5) == 0.0

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            pochhammer(1.0, -1)

    def test_huge_order_ends_at_once(self):
        # The product is past the double range after a few hundred
        # factors, or 0 after a few; the loop ran all 10**18 before.
        t0 = time.perf_counter()
        with pytest.raises(OverflowRangeError, match="pochhammer exceeds the double range"):
            pochhammer(1.5, 10**18)
        assert pochhammer(-3.0, 10**18) == 0.0
        assert math.copysign(1.0, pochhammer(-2.0, 10**18)) == 1.0
        assert time.perf_counter() - t0 < 1.0

    @given(
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=200)
    def test_recurrence(self, s, n):
        assert pochhammer(s, n + 1) == pytest.approx(
            pochhammer(s, n) * (s + n), rel=1e-12, abs=1e-300
        )


def _hyp2f1_reference(n, b, c, z):
    # Direct Pochhammer-ratio term sum, the defining series.
    total = 0.0
    for k in range(n + 1):
        total += (
            pochhammer(-n, k) * pochhammer(b, k) / pochhammer(c, k) * z**k / math.factorial(k)
        )
    return total


class TestHyp2F1Terminating:
    def test_degree_zero(self):
        assert hyp2f1_terminating(0, 3.7, 0.4, -2.3) == 1.0

    def test_degree_one_exact(self):
        # 2F1(-1, b; c; z) = 1 - b z / c
        b, c, z = 2.5, 1.5, -0.7
        assert hyp2f1_terminating(1, b, c, z) == pytest.approx(1.0 - b * z / c, rel=1e-15)

    def test_against_term_sum_reference(self):
        cases = [
            (2, 4.903, 0.5, -1.44),
            (3, 1.2, 2.3, 0.9),
            (5, -0.7, 1.9, -3.0),
            (8, 6.0, 0.9031, -0.25),
        ]
        for n, b, c, z in cases:
            assert hyp2f1_terminating(n, b, c, z) == pytest.approx(
                _hyp2f1_reference(n, b, c, z), rel=1e-13
            ), (n, b, c, z)

    def test_chu_vandermonde(self):
        # 2F1(-n, b; c; 1) = (c-b)_n / (c)_n
        n, b, c = 4, 0.8, 2.6
        assert hyp2f1_terminating(n, b, c, 1.0) == pytest.approx(
            pochhammer(c - b, n) / pochhammer(c, n), rel=1e-13
        )

    def test_zero_denominator_rejected(self):
        with pytest.raises(DomainError):
            hyp2f1_terminating(3, 1.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            hyp2f1_terminating(4, 1.0, -2.0, 0.5)

    def test_c_below_terminating_range_is_fine(self):
        # c = -5 with n = 3 never multiplies by zero: factors c, c+1, c+2.
        val = hyp2f1_terminating(3, 1.5, -5.0, 0.5)
        assert math.isfinite(val)
        assert val == pytest.approx(_hyp2f1_reference(3, 1.5, -5.0, 0.5), rel=1e-13)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            hyp2f1_terminating(-2, 1.0, 1.0, 0.5)

    def test_overflow_raises(self):
        # the terms pass the double range: raise, never return NaN
        with pytest.raises(OverflowRangeError):
            hyp2f1_terminating(400, 1.5, 0.5, -1e6)

    def test_huge_order_ends_at_once(self):
        # The sum is past the double range after a few dozen terms, so
        # the loop must stop there rather than run all 10**18.
        t0 = time.perf_counter()
        with pytest.raises(OverflowRangeError, match="2F1 terms exceed the double range"):
            hyp2f1_terminating(10**18, 0.5, 1.5, 0.5)
        assert time.perf_counter() - t0 < 1.0
