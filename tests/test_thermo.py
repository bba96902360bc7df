"""Tests for the vibrational partition function and derived thermodynamics.

The closed form and the finite ladder sum are compared honestly: the sum
carries an endpoint correction of order (1 + e^{chi^2})/(2 Z) relative,
about 1/(zeta+1) at small chi, so 2% agreement needs zeta >= 64 over the
whole chi <= 1 band.  The two tests marked strict-xfail document where
the advertised agreement is not attainable; the measured deviations are
frozen alongside them.
"""

import csv
import math
import sys
from decimal import ROUND_HALF_EVEN, Decimal

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptbound.cli import RunConfig, _grid, cli_thermo
from ptbound.errors import DomainError, OverflowRangeError, PtboundError
from ptbound.oracle import finite_difference, integrate_adaptive
from ptbound.specfun import ERFI_MAX_ARG, dawson
from ptbound.thermo import (
    ThermoContext,
    ThermoPoint,
    chi,
    entropy,
    free_energy,
    log_partition_closed,
    mean_energy,
    partition_closed,
    partition_sum,
    specific_heat,
    thermo_point,
    thermo_table,
)
from ptbound.thermo import _one_minus_chi_over_dawson

mpmath.mp.dps = 60


def ctx_for_chi(x, zeta=None):
    """Context and beta giving chi(beta) == x exactly (tau = 1)."""
    z = x if zeta is None else zeta
    ctx = ThermoContext(zeta=z, tau=1.0)
    beta = (x / z) ** 2
    return ctx, beta


def mp_dawson(x):
    return mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-x * x) * mpmath.erfi(x)


class TestPartitionSum:
    def test_single_level_is_exp_chi_squared(self):
        # zeta < 1 leaves one rung on the ladder, so the sum is one term.
        ctx = ThermoContext(zeta=0.9, tau=1.0)
        beta = 0.3
        x = chi(ctx, beta)
        assert partition_sum(ctx, beta, 0) == pytest.approx(
            math.exp(x * x), rel=1e-15
        )

    def test_high_temperature_counts_levels(self):
        ctx = ThermoContext(zeta=50.0, tau=1.0)
        assert partition_sum(ctx, 1e-12, 50) == pytest.approx(51.0, abs=1e-6)

    def test_terms_grow_toward_n_zero(self):
        # Positive exponent: the deepest level carries the largest weight,
        # so extending the sum from above only adds smaller terms.
        ctx = ThermoContext(zeta=8.0, tau=1.0)
        beta = 0.05
        partial = partition_sum(ctx, beta, 4)
        full = partition_sum(ctx, beta, 8)
        assert full > partial
        assert full - partial < 5 * math.exp(((4 + 1 - 8.0) / ctx.tau) ** 2 * beta)

    def test_overflow_guard(self):
        ctx = ThermoContext(zeta=30.0, tau=1.0)
        with pytest.raises(OverflowRangeError):
            partition_sum(ctx, 1.0, 30)  # leading exponent 900

    def test_overflow_guard_top_of_ladder(self):
        # Past n = 2 zeta the largest term is the last one: exponent
        # (40 - 2)^2 * 4 = 5776, while the n = 0 term's is only 16.
        with pytest.raises(OverflowRangeError):
            partition_sum(ThermoContext(zeta=2.0, tau=1.0), 4.0, n_max=40)

    def test_far_ladder_past_the_square_range(self):
        # far * far overflows, but every term is e^1: (n - 1e160)/1e160 = -1.
        assert partition_sum(ThermoContext(1e160, 1e10), 1e-300, 3) == 4.0 * math.e
        with pytest.raises(OverflowRangeError, match="exponent inf"):
            partition_sum(ThermoContext(1e160, 1.0), 1.0, 3)

    def test_overflow_message_prints_the_exponent_in_exponent_form(self):
        # In fixed point the exponent 1e300 took 303 characters, and the
        # message 351.
        with pytest.raises(OverflowRangeError) as exc:
            partition_sum(ThermoContext(1e300, 1.0), 1e-300, 3)
        assert str(exc.value) == "largest term exponent 1.000e+300 exceeds the floating range"

    def test_integer_valued_ladder_top(self):
        ctx = ThermoContext(zeta=5.0, tau=1.0)
        assert partition_sum(ctx, 0.1, 2.0) == partition_sum(ctx, 0.1, 2)

    @pytest.mark.xfail(
        strict=True,
        reason="measured |closed - sum|/sum = 0.2056 at the quoted point; "
        "chi = 3.54 there is far outside the classical band (see the "
        "companion regression test for the frozen numbers)",
    )
    def test_quoted_two_percent_example(self):
        ctx = ThermoContext(zeta=50.0, tau=1.0)
        beta = 0.005
        s = partition_sum(ctx, beta, 50)
        c = partition_closed(ctx, beta)
        assert abs(c - s) / s <= 0.02

    def test_quoted_example_measured_deviation(self):
        # Frozen regression values for the point above.
        ctx = ThermoContext(zeta=50.0, tau=1.0)
        beta = 0.005
        s = partition_sum(ctx, beta, 50)
        c = partition_closed(ctx, beta)
        assert s == pytest.approx(706782.465273, rel=1e-10)
        assert c == pytest.approx(561484.387018, rel=1e-10)
        assert 0.20 < abs(c - s) / s < 0.21


class TestPartitionClosed:
    def test_matches_quadrature(self):
        # Z = gamma * integral_0^chi e^{y^2} dy
        for zeta, beta in [(50.0, 0.005), (10.0, 0.01), (3.0, 0.2)]:
            ctx = ThermoContext(zeta=zeta, tau=1.0)
            x = chi(ctx, beta)
            gamma = ctx.tau / math.sqrt(beta)
            # quadrature tol is absolute; scale it to the e^{chi^2} peak
            quad = gamma * integrate_adaptive(
                lambda y: math.exp(y * y), 0.0, x, tol=1e-12 * math.exp(x * x)
            )
            assert partition_closed(ctx, beta) == pytest.approx(quad, rel=1e-10)

    def test_small_chi_series(self):
        ctx = ThermoContext(zeta=50.0, tau=1.0)
        beta = 1e-8  # chi = 5e-3
        z = partition_closed(ctx, beta)
        approx = ctx.zeta + ctx.zeta**3 * beta / (3.0 * ctx.tau**2)
        assert z == pytest.approx(approx, rel=1e-9)

    def test_zero_zeta_vanishes(self):
        ctx = ThermoContext(zeta=0.0, tau=1.0)
        assert partition_closed(ctx, 0.1) == 0.0
        with pytest.raises(DomainError):
            log_partition_closed(ctx, 0.1)

    def test_log_form_consistent(self):
        ctx = ThermoContext(zeta=12.0, tau=0.7)
        beta = 0.02
        assert log_partition_closed(ctx, beta) == pytest.approx(
            math.log(partition_closed(ctx, beta)), rel=1e-13
        )

    def test_log_form_survives_erfi_overflow(self):
        # erfi(40) overflows a double; the log path stays finite.
        ctx = ThermoContext(zeta=40.0, tau=1.0)
        with pytest.raises(OverflowRangeError):
            partition_closed(ctx, 1.0)
        val = log_partition_closed(ctx, 1.0)
        assert math.isfinite(val)
        ref = float(
            mpmath.log(mpmath.sqrt(mpmath.pi) / 2 * mpmath.erfi(40))
        )
        assert val == pytest.approx(ref, rel=1e-12)

    def test_monotone_in_zeta_and_beta(self):
        beta = 0.01
        values = [
            partition_closed(ThermoContext(zeta=z, tau=1.0), beta)
            for z in [0.5 + 0.3 * i for i in range(64)]
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        ctx = ThermoContext(zeta=10.0, tau=1.0)
        betas = [1e-4 * 10 ** (3 * i / 40) for i in range(41)]
        zs = [partition_closed(ctx, b) for b in betas]
        assert all(b > a for a, b in zip(zs, zs[1:]))


class TestClassicalAgreement:
    @pytest.mark.parametrize("zeta", [64.0, 80.0, 120.0])
    @pytest.mark.parametrize("chi2", [0.01, 0.25, 1.0])
    def test_within_two_percent_for_zeta_from_64(self, zeta, chi2):
        tau = 1.0
        beta = chi2 * (tau / zeta) ** 2
        ctx = ThermoContext(zeta=zeta, tau=tau)
        s = partition_sum(ctx, beta, math.floor(zeta))
        c = partition_closed(ctx, beta)
        assert abs(c - s) / s <= 0.02

    @pytest.mark.xfail(
        strict=True,
        reason="the endpoint correction floor is ~1/(zeta+1) = 1.96% at "
        "zeta = 50, and the measured deviation at chi = 1 is 2.49%; the "
        "advertised 2% band starts holding at zeta >= 64",
    )
    def test_within_two_percent_at_zeta_50(self):
        ctx = ThermoContext(zeta=50.0, tau=1.0)
        beta = (1.0 / 50.0) ** 2  # chi = 1
        s = partition_sum(ctx, beta, 50)
        c = partition_closed(ctx, beta)
        assert abs(c - s) / s <= 0.02

    def test_measured_deviation_at_zeta_50(self):
        # Frozen floor for the xfail above, and its beta -> 0 limit.
        ctx = ThermoContext(zeta=50.0, tau=1.0)
        s = partition_sum(ctx, 4e-4, 50)
        c = partition_closed(ctx, 4e-4)
        assert abs(c - s) / s == pytest.approx(2.4909e-2, rel=1e-3)
        s0 = partition_sum(ctx, 1e-10, 50)
        c0 = partition_closed(ctx, 1e-10)
        # (1 + e^{chi^2})/(2 Z) -> 1/(n_max + 1) as beta -> 0
        assert abs(c0 - s0) / s0 == pytest.approx(1.0 / 51.0, rel=1e-3)


class TestMeanEnergy:
    @pytest.mark.parametrize("zeta,beta", [(10.0, 0.04), (50.0, 0.002), (5.0, 0.01)])
    def test_matches_log_derivative(self, zeta, beta):
        ctx = ThermoContext(zeta=zeta, tau=1.0)
        deriv, err = finite_difference(
            lambda b: log_partition_closed(ctx, b), beta, order=1, h=beta * 1e-2
        )
        assert mean_energy(ctx, beta) == pytest.approx(-deriv, rel=1e-6)
        assert err < 1e-4 * abs(deriv)

    def test_high_temperature_plateau(self):
        # beta = 1e-6 tau^2/zeta^2 puts chi at 1e-3.
        ctx = ThermoContext(zeta=50.0, tau=1.0)
        beta = 1e-6 * (ctx.tau / ctx.zeta) ** 2
        plateau = -ctx.zeta**2 / (3.0 * ctx.tau**2)
        assert mean_energy(ctx, beta) == pytest.approx(plateau, rel=0.01)
        # and far more tightly than the quoted 1%:
        assert mean_energy(ctx, beta) == pytest.approx(plateau, rel=1e-5)

    def test_small_chi_product_vanishes(self):
        ctx, beta = ctx_for_chi(1e-4, zeta=1.0)
        u = mean_energy(ctx, beta)
        assert abs(2.0 * beta * u) < 1e-8

    def test_limit_past_the_overflow_of_chi_over_dawson(self):
        # chi/dawson(chi) ~ 2 chi^2 overflows near beta = 3.6e306 here; U
        # is -zeta^2/tau^2 = -25 on both sides.
        ctx = ThermoContext(zeta=5.0, tau=1.0)
        assert mean_energy(ctx, 3e306) == pytest.approx(-25.0, rel=1e-15)
        assert mean_energy(ctx, 4e306) == -25.0
        assert mean_energy(ctx, sys.float_info.max) == -25.0
        assert mean_energy(ThermoContext(zeta=3e150, tau=2e-3), 1.0) == -(1.5e153**2)
        # chi = 1.2e308, where dawson(chi) is subnormal.
        assert mean_energy(ThermoContext(zeta=1e154, tau=1.0), 1.5e308) == -1e308
        with pytest.raises(OverflowRangeError, match="mean energy"):
            mean_energy(ThermoContext(zeta=2e154, tau=1.0), 1.0)

    def test_two_beta_past_the_double_range(self):
        # U = (1 - chi/dawson(chi)) / (2 beta) came out as -0.0 once 2 beta
        # overflowed (chi = 5e153 here), where U = -(zeta/tau)^2 = -0.25.
        ctx = ThermoContext(zeta=0.5, tau=1.0)
        assert mean_energy(ctx, 1e307) == pytest.approx(-0.25, rel=1e-15)
        assert mean_energy(ctx, 1e308) == pytest.approx(-0.25, rel=1e-15)

    def test_series_matches_direct_form(self):
        # Both branches of 1 - chi/dawson(chi) against 60-digit arithmetic,
        # straddling the series cutover at chi = 0.02.
        for x in [0.005, 0.012, 0.019, 0.021, 0.05, 0.4]:
            ref = float(1 - x / mp_dawson(x))
            assert _one_minus_chi_over_dawson(x, dawson(x)) == pytest.approx(ref, rel=5e-12)


class TestSpecificHeat:
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.4824, 5.0, 12.0, 20.0])
    def test_matches_printed_formula_high_precision(self, x):
        # The e^{chi^2}-free rearrangement against the printed expression
        # C/k = 1/2 [1 - chi(2 chi e^{chi^2} + sqrt(pi)(1-2 chi^2) erfi)
        #            / (4 e^{chi^2} dawson^2)]
        # evaluated with 60-digit arithmetic, where it cannot overflow.
        xm = mpmath.mpf(x)
        e = mpmath.exp(xm * xm)
        d = mp_dawson(xm)
        printed = 0.5 * (
            1
            - xm
            * (2 * xm * e + mpmath.sqrt(mpmath.pi) * (1 - 2 * xm * xm) * mpmath.erfi(xm))
            / (4 * e * d * d)
        )
        ctx, beta = ctx_for_chi(x)
        assert specific_heat(ctx, beta) == pytest.approx(float(printed), rel=1e-10)

    @staticmethod
    def mp_specific_heat(x):
        # The dawson form in 60-digit arithmetic: it cancels about chi^4
        # ulps, leaving 40 digits at chi = 1e5.
        xm = mpmath.mpf(x)
        d = mp_dawson(xm)
        return float(0.5 - xm * (xm + (1 - 2 * xm * xm) * d) / (4 * d * d))

    @pytest.mark.parametrize("x", [26.000001, 30.0, 50.0, 100.0, 300.0, 1e4, 1e5])
    def test_large_chi_asymptotic_series(self, x):
        # Past ERFI_MAX_ARG the series is within an ulp of C (the
        # rearranged form was 3.8e-10 off at chi = 50 and 2.32 at 1e4).
        ctx = ThermoContext(zeta=x, tau=1.0)
        assert chi(ctx, 1.0) == x > ERFI_MAX_ARG
        reference = self.mp_specific_heat(x)
        assert abs(specific_heat(ctx, 1.0) - reference) <= math.ulp(reference)

    def test_large_chi_tends_to_one(self):
        # C = 1 + 1/chi^2 + ... rounds to 1 from chi ~ 1e8 (the rearranged
        # form gave 0.5 there and raised past chi ~ 9.5e153).
        for x in (1e8, 1e100, 1e154, 1e200):
            assert specific_heat(ThermoContext(zeta=x, tau=1.0), 1.0) == 1.0
        assert specific_heat(ThermoContext(zeta=5.0, tau=1.0), sys.float_info.max) == 1.0

    def test_branches_meet_at_the_erfi_range(self):
        below = specific_heat(ThermoContext(zeta=ERFI_MAX_ARG, tau=1.0), 1.0)
        above = specific_heat(ThermoContext(zeta=math.nextafter(ERFI_MAX_ARG, 30.0), tau=1.0), 1.0)
        assert below == pytest.approx(above, rel=1e-10)

    @pytest.mark.parametrize("zeta,beta", [(10.0, 0.04), (10.0, 0.0025), (80.0, 0.001)])
    def test_matches_minus_k_beta2_du_dbeta(self, zeta, beta):
        ctx = ThermoContext(zeta=zeta, tau=1.0)
        du, err = finite_difference(
            lambda b: mean_energy(ctx, b), beta, order=1, h=beta * 1e-2
        )
        assert specific_heat(ctx, beta) == pytest.approx(
            -(beta**2) * du, rel=1e-5
        )

    def test_high_temperature_limit_vanishes(self):
        ctx = ThermoContext(zeta=50.0, tau=1.0)
        beta = 1e-6 * (ctx.tau / ctx.zeta) ** 2
        assert abs(specific_heat(ctx, beta)) < 1e-10

    def test_single_interior_peak(self):
        # C rises from 0, peaks near chi = 2.48, then decays: one sign
        # change in the discrete slope over a wide chi scan.
        xs = [0.05 * i for i in range(1, 201)]
        cs = []
        for x in xs:
            ctx, beta = ctx_for_chi(x)
            cs.append(specific_heat(ctx, beta))
        rises = [b > a for a, b in zip(cs, cs[1:])]
        flips = sum(1 for a, b in zip(rises, rises[1:]) if a and not b)
        assert flips == 1
        peak_x = xs[cs.index(max(cs))]
        assert 2.3 < peak_x < 2.7
        assert max(cs) == pytest.approx(1.3225, abs=5e-4)
        # refined peak location and height, frozen from a golden-section
        # search over the same function
        ctx, beta = ctx_for_chi(2.4765428322450447)
        assert specific_heat(ctx, beta) == pytest.approx(1.322507790350, rel=1e-10)


class TestFreeEnergyEntropy:
    GRID = [
        (zeta, beta)
        for zeta in (5.0, 20.0, 80.0)
        for beta in (1e-4, 1e-3, 1e-2, 1e-1)
    ]

    @pytest.mark.parametrize("zeta,beta", GRID)
    def test_consistency_chain(self, zeta, beta):
        # S = ln Z + beta U and F = U - TS (k_B = 1), on a log-spaced grid.
        ctx = ThermoContext(zeta=zeta, tau=1.0)
        ln_z = log_partition_closed(ctx, beta)
        u = mean_energy(ctx, beta)
        s = entropy(ctx, beta)
        f = free_energy(ctx, beta)
        assert s == pytest.approx(ln_z + beta * u, rel=1e-8)
        assert f == pytest.approx(u - s / beta, rel=1e-8)

    def test_free_energy_small_chi(self):
        ctx = ThermoContext(zeta=50.0, tau=1.0)
        beta = 1e-11  # chi = 1.6e-4, Z ~ zeta
        assert free_energy(ctx, beta) == pytest.approx(
            -math.log(ctx.zeta) / beta, rel=1e-8
        )

    def test_free_energy_grid_point_vs_quadrature(self):
        ctx = ThermoContext(zeta=60.0, tau=1.0)
        beta = 0.01
        x = chi(ctx, beta)
        gamma = ctx.tau / math.sqrt(beta)
        z_quad = gamma * integrate_adaptive(
            lambda y: math.exp(y * y), 0.0, x, tol=1e-12 * math.exp(x * x)
        )
        assert free_energy(ctx, beta) == pytest.approx(
            -math.log(z_quad) / beta, rel=1e-9
        )

    def test_entropy_small_chi(self):
        ctx = ThermoContext(zeta=50.0, tau=1.0)
        beta = 1e-10  # chi = 5e-4: S -> ln(zeta) + O(chi^2)
        assert entropy(ctx, beta) == pytest.approx(math.log(50.0), abs=1e-5)

    def test_entropy_grid_point_vs_oracles(self):
        ctx = ThermoContext(zeta=80.0, tau=1.0)
        beta = 0.005
        x = chi(ctx, beta)
        gamma = ctx.tau / math.sqrt(beta)
        z_quad = gamma * integrate_adaptive(
            lambda y: math.exp(y * y), 0.0, x, tol=1e-12 * math.exp(x * x)
        )
        du, _ = finite_difference(
            lambda b: log_partition_closed(ctx, b), beta, order=1, h=beta * 1e-2
        )
        assert entropy(ctx, beta) == pytest.approx(
            math.log(z_quad) + beta * (-du), rel=1e-7
        )

    # (zeta, tau, beta): chi = 1e3, 1e4, 1e6, 1e8, 1e10, 5e150, 6.7e154 (beta
    # = max) and 5e153 (2 beta overflows)
    LARGE_CHI = [
        (1e3, 1.0, 1.0), (1e4, 1.0, 1.0), (1e6, 1.0, 1.0), (1e8, 1.0, 1.0), (5.0, 1.0, 4e18),
        (5.0, 1.0, 1e300), (5.0, 1.0, sys.float_info.max), (0.5, 1.0, 1e308),
    ]

    @pytest.mark.parametrize("zeta,tau,beta", LARGE_CHI)
    def test_large_chi_against_the_printed_form(self, zeta, tau, beta):
        # S cancelled -2 chi^2 against +2 chi^2 (an absolute error of 7e-3
        # at chi = 1e8, half of S at chi = 1e10), and S and F overflowed in
        # chi^2 at beta = max; the reference is the printed form in
        # 700-digit arithmetic.
        with mpmath.workdps(700):
            z, t, b = map(mpmath.mpf, (zeta, tau, beta))
            x = z * mpmath.sqrt(b) / t
            erfi_x = mpmath.erfi(x)
            dawson_x = mp_dawson(x)
            ln_scaled = mpmath.log(t * erfi_x / mpmath.sqrt(b))
            s_ref = (1 - x / dawson_x + 2 * ln_scaled + mpmath.log(mpmath.pi / 4)) / 2
            f_ref = -(ln_scaled + mpmath.log(mpmath.sqrt(mpmath.pi) / 2)) / b
        ctx = ThermoContext(zeta=zeta, tau=tau)
        assert entropy(ctx, beta) == pytest.approx(float(s_ref), rel=1e-15)
        assert free_energy(ctx, beta) == pytest.approx(float(f_ref), rel=1e-15)

    def test_finite_well_past_erfi_overflow(self):
        # The documented envelope relies on the log-scaled path only.
        ctx = ThermoContext(zeta=500.0, tau=1.0)
        beta = 1.0  # chi = 500
        for fn in (mean_energy, specific_heat, free_energy, entropy):
            assert math.isfinite(fn(ctx, beta))


class TestThermoPoint:
    def test_bundles_scalar_functions(self):
        ctx = ThermoContext(zeta=12.0, tau=0.8)
        beta = 0.03
        pt = thermo_point(ctx, beta)
        assert type(pt) is ThermoPoint
        assert pt._fields == ("beta", "chi", "Z", "U", "C", "F", "S")
        assert pt.beta == beta
        assert pt.chi == chi(ctx, beta)
        assert pt.Z == partition_closed(ctx, beta)
        assert pt.U == mean_energy(ctx, beta)
        assert pt.C == specific_heat(ctx, beta)
        assert pt.F == free_energy(ctx, beta)
        assert pt.S == entropy(ctx, beta)
        assert pt.Z > 0.0

    @pytest.mark.filterwarnings("error")
    def test_numpy_and_int_fields_are_floats(self):
        # Stored as floats where they enter: numpy fields once overflowed
        # with a numpy warning in the far ladder, and came back as numpy
        # scalars in five of thermo_point's seven fields.
        far = ThermoContext(np.float64(1e160), np.float64(1e10))
        assert partition_sum(far, 1e-300, 3) == 10.87312731383618
        for ctx in (ThermoContext(np.float64(12.0), np.float64(0.8)), ThermoContext(12, 1)):
            assert type(ctx.zeta) is type(ctx.tau) is float
            assert all(type(v) is float for v in thermo_point(ctx, 0.03))


def _outcome(fn, ctx, beta):
    """fn's value, or the type and message of the package error it raises."""
    try:
        return fn(ctx, beta)
    except PtboundError as exc:
        return type(exc), str(exc)


class TestThermoPointRoutes:
    """thermo_point against the standalone functions, field by field and
    bit for bit, across both branch points (chi = 0.02 for the small-chi
    series, chi = 7 for Dawson's asymptotic series) and past erfi's range."""

    STANDALONE = (chi, partition_closed, mean_energy, specific_heat, free_energy, entropy)

    @given(
        x=st.one_of(
            st.floats(1e-4, 0.05),
            st.floats(0.05, 6.5),
            st.floats(6.5, 7.5),
            st.floats(7.5, 26.5),
        ),
        zeta=st.floats(1e-2, 1e3),
        sign=st.sampled_from((1.0, 1.0, 1.0, -1.0)),
        tau=st.floats(1e-2, 1e2),
    )
    @example(x=0.0199, zeta=3.0, sign=1.0, tau=0.5)
    @example(x=0.0201, zeta=3.0, sign=1.0, tau=0.5)
    @example(x=6.999, zeta=40.0, sign=1.0, tau=2.0)
    @example(x=7.001, zeta=40.0, sign=1.0, tau=2.0)
    @example(x=25.99, zeta=90.0, sign=1.0, tau=1.0)
    @example(x=26.01, zeta=90.0, sign=1.0, tau=1.0)
    @example(x=26.01, zeta=90.0, sign=-1.0, tau=1.0)
    @settings(max_examples=300)
    def test_fields_equal_standalone(self, x, zeta, sign, tau):
        ctx = ThermoContext(zeta=sign * zeta, tau=tau)
        beta = (x * tau / zeta) ** 2
        standalone = [_outcome(fn, ctx, beta) for fn in self.STANDALONE]
        errors = [o for o in standalone if isinstance(o, tuple)]
        try:
            pt = thermo_point(ctx, beta)
        except PtboundError as exc:
            assert errors and (type(exc), str(exc)) == errors[0]
        else:
            assert errors == []
            assert pt == (beta, *standalone)

    @pytest.mark.parametrize(
        "zeta, beta, error, message",
        [
            (5.0, 0.0, DomainError, "beta must be finite and positive, got 0.0"),
            (5.0, -1.0, DomainError, "beta must be finite and positive, got -1.0"),
            (5.0, math.nan, DomainError, "beta must be finite and positive, got nan"),
            (0.0, -1.0, DomainError, "beta must be finite and positive, got -1.0"),
            # reported as "x must be finite" from inside erfi before
            (5.0, math.inf, DomainError, "beta must be finite and positive, got inf"),
            (0.0, 0.1, DomainError, "mean energy needs chi > 0"),
            (-3.0, 0.1, DomainError, "mean energy needs chi > 0"),
            (
                30.0, 1.0, OverflowRangeError,
                "erfi(30.0) exceeds the supported range |x| <= 26.0; "
                "use ln_erfi for log-scaled values",
            ),
            (
                -30.0, 1.0, OverflowRangeError,
                "erfi(-30.0) exceeds the supported range |x| <= 26.0; "
                "use ln_erfi for log-scaled values",
            ),
        ],
        ids=[
            "beta-zero", "beta-negative", "beta-nan", "beta-before-zeta", "chi-inf",
            "zeta-zero", "zeta-negative", "chi-past-range", "chi-past-negative-range",
        ],
    )
    def test_error_precedence(self, zeta, beta, error, message):
        with pytest.raises(PtboundError) as info:
            thermo_point(ThermoContext(zeta=zeta, tau=1.0), beta)
        assert type(info.value) is error
        assert str(info.value) == message



def _pair(x, zeta, tau):
    """A context and the beta giving chi close to x (-x for zeta < 0)."""
    return ThermoContext(zeta=zeta, tau=tau), (x * tau / zeta) ** 2


ZETAS, TAUS = st.floats(1e-2, 1e3), st.floats(1e-2, 1e2)
# chi on both sides of the small-chi series cut (0.02) and of Dawson's
# asymptotic cut (7), up to erfi's range (26).
VALID_PAIRS = st.builds(
    _pair,
    x=st.one_of(
        st.floats(1e-4, 0.05), st.floats(0.05, 6.5), st.floats(6.5, 7.5), st.floats(7.5, 25.9),
    ),
    zeta=ZETAS,
    tau=TAUS,
)
INVALID_PAIRS = st.one_of(
    st.builds(_pair, x=st.floats(26.01, 26.5), zeta=ZETAS, tau=TAUS),  # past erfi's range
    st.builds(_pair, x=st.floats(1e-4, 26.0), zeta=ZETAS.map(lambda z: -z), tau=TAUS),
    st.sampled_from([
        (ThermoContext(5.0, 1.0), 0.0),
        (ThermoContext(5.0, 1.0), -1.0),
        (ThermoContext(5.0, 1.0), math.nan),
        (ThermoContext(5.0, 1.0), math.inf),
        (ThermoContext(0.0, 1.0), 0.1),
        (ThermoContext(26e20, 1e20), 1.0),  # Z past the double range
        (ThermoContext(5.0, 1.0), 5e-324),  # F past the double range
        (ThermoContext(5, 1), 0.1),  # int fields take the scalar route
        (ThermoContext(5.0, 1.0), 1),  # so does an int beta
    ]),
)


def _point_fails(pair) -> bool:
    """Whether thermo_point rejects the pair (the int-field pairs above
    only leave the array pass)."""
    try:
        thermo_point(*pair)
    except PtboundError:
        return True
    return False


# chi spread over (0, 26): both series run as arrays, then a scalar tail
SPREAD_PAIRS = [_pair(1e-3 + 25.9 * i / 199, 40.0, 2.0) for i in range(200)]


def _hexes(points):
    return [[float(v).hex() for v in p] for p in points]


class TestThermoTable:
    """thermo_table against the list of pointwise thermo_point calls: equal
    bit for bit, or the same first error, type and message.  Past 32
    points the series run as arrays before their scalar tail
    (specfun._SCALAR_TAIL)."""

    @given(
        pairs=st.lists(VALID_PAIRS, max_size=120),
        bad=st.lists(st.tuples(st.integers(0, 120), INVALID_PAIRS), max_size=2),
    )
    @example(
        pairs=[_pair(x, 40.0, 2.0) for x in (0.0199, 0.0201, 6.999, 7.0, 7.001, 25.99, 26.0)],
        bad=[],
    )
    @example(pairs=SPREAD_PAIRS, bad=[])
    @example(pairs=SPREAD_PAIRS, bad=[(150, (ThermoContext(5.0, 1.0), 0.0))])
    @settings(max_examples=200)
    def test_equals_pointwise_calls(self, pairs, bad):
        pairs = list(pairs)  # the explicit examples share SPREAD_PAIRS
        for i, pair in bad:
            pairs.insert(i, pair)
        try:
            expected = [thermo_point(c, b) for c, b in pairs]
        except PtboundError as exc:
            with pytest.raises(PtboundError) as info:
                thermo_table(pairs)
            assert (type(info.value), str(info.value)) == (type(exc), str(exc))
        else:
            table = thermo_table(pairs)
            assert table.shape == (len(pairs), 7) and table.dtype == np.float64
            assert _hexes(table.tolist()) == _hexes(expected)

    def test_empty(self):
        assert thermo_table([]).shape == (0, 7)

    # numpy's log and math.log round 1.9065484200403235 to neighbouring
    # doubles (x86-64, numpy 2.4); the table takes math's, as thermo_point
    # does, and F and S show the difference
    @pytest.mark.parametrize("tau, beta", [(1.9065484200403235, 1.0), (2.0, 1.9065484200403235)])
    def test_logs_from_math(self, tau, beta):
        pairs = [(ThermoContext(zeta=1.0, tau=tau), beta)]
        assert _hexes(thermo_table(pairs).tolist()) == _hexes([thermo_point(*pairs[0])])

    @staticmethod
    def _assert_as_loop(stream):
        """thermo_table(stream()) against the pointwise loop over another
        stream() (a fresh iterable each call): the same rows, bit for bit,
        or the same first error, type and message."""
        try:
            expected = [thermo_point(c, b) for c, b in stream()]
        except Exception as exc:
            with pytest.raises(type(exc)) as info:
                thermo_table(stream())
            assert (type(info.value), str(info.value)) == (type(exc), str(exc))
            return exc
        table = thermo_table(stream())
        assert table.shape == (len(expected), 7) and table.dtype == np.float64
        assert _hexes(table.tolist()) == _hexes(expected)
        return None

    @given(pairs=st.lists(VALID_PAIRS, max_size=80))
    @example(pairs=SPREAD_PAIRS)
    @settings(max_examples=50)
    def test_generator_of_valid_pairs(self, pairs):
        assert self._assert_as_loop(lambda: (pair for pair in pairs)) is None

    @given(pairs=st.lists(VALID_PAIRS, max_size=80))
    @example(pairs=[])
    @example(pairs=SPREAD_PAIRS)
    @settings(max_examples=50)
    def test_generator_raising_after_k_pairs(self, pairs):
        def stream():
            yield from pairs
            raise ValueError(f"no pair after {len(pairs)}")

        error = self._assert_as_loop(stream)
        assert (type(error), str(error)) == (ValueError, f"no pair after {len(pairs)}")

    @given(
        before=st.lists(VALID_PAIRS, max_size=40),
        bad=INVALID_PAIRS.filter(_point_fails),
        after=st.lists(VALID_PAIRS, max_size=40),
    )
    @example(before=SPREAD_PAIRS, bad=(ThermoContext(5.0, 1.0), 0.0), after=[])
    @settings(max_examples=50)
    def test_generator_raising_after_a_failing_pair(self, before, bad, after):
        # the failing pair's error comes first, not the stream's
        def stream():
            yield from before
            yield bad
            yield from after
            raise ValueError("no more pairs")

        assert isinstance(self._assert_as_loop(stream), PtboundError)

    def test_failing_pair_before_a_non_pair(self):
        # the loop fails on the pair before it could unpack the non-pair
        error = self._assert_as_loop(lambda: [(ThermoContext(5.0, 1.0), 0.0), 5])
        assert isinstance(error, DomainError)


def _printed(ref) -> str | None:
    """ref's 11-significant-digit text as the CSVs print it (f"{x:.10e}"),
    rounded half-even; None where ref lies within 1e-3 of the last digit
    from a tie, where a 60-digit reference cannot settle the rounding."""
    d = Decimal(mpmath.nstr(ref, 50, strip_zeros=False))
    e = d.adjusted()
    scaled = abs(d).scaleb(10 - e)
    if abs(scaled % 1 - Decimal("0.5")) < Decimal("1e-3"):
        return None
    digits = str(int(scaled.to_integral_value(ROUND_HALF_EVEN)))
    if len(digits) == 12:  # rounded up to the next power of ten
        digits, e = digits[:11], e + 1
    return f"{'-' if d < 0 else ''}{digits[0]}.{digits[1:]}e{e:+03d}"


def _reference_row(ctx, beta):
    """chi, Z, U, C, F, S at 60 digits from the same double zeta, tau, beta."""
    with mpmath.workdps(60):
        zeta, tau, beta = mpmath.mpf(ctx.zeta), mpmath.mpf(ctx.tau), mpmath.mpf(beta)
        x = zeta * mpmath.sqrt(beta) / tau
        e = mpmath.erfi(x)
        d = mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-x * x) * e
        z = mpmath.sqrt(mpmath.pi) * tau * e / (2 * mpmath.sqrt(beta))
        u = (1 - x / d) / (2 * beta)
        c = (1 - x * (x + (1 - 2 * x * x) * d) / (2 * d * d)) / 2
        ln_z = mpmath.log(z)
        return {"chi": x, "Z": z, "U": u, "C": c, "F": -ln_z / beta, "S": ln_z + beta * u}


@pytest.fixture(scope="module")
def digit_audit(tmp_path_factory):
    """Per column of the default `ptbound thermo` CSV: (cells whose text
    differs from the rounded reference, cells skipped at a tie, cells)."""
    config = RunConfig(out=tmp_path_factory.mktemp("audit") / "thermo.csv")
    cli_thermo(config)
    with open(config.out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    betas = _grid(1e-4, 1.0, 64, log=True)
    pairs = [(mol.name, config.thermo_context(mol, tau=None), beta)
             for mol in config.molecules() for beta in betas]
    assert [(r["molecule"], r["beta"]) for r in rows] == [(n, f"{b:.10e}") for n, _, b in pairs]
    audit = {}
    for row, (_, ctx, beta) in zip(rows, pairs):
        for column, ref in _reference_row(ctx, beta).items():
            text = _printed(ref)
            misses, ties, cells = audit.get(column, (0, 0, 0))
            audit[column] = (misses + (text is not None and text != row[column]),
                             ties + (text is None), cells + 1)
    return audit


class TestPrintedDigits:
    """Every printed digit of the default thermo CSV against an independent
    60-digit reference (ROADMAP direction 22)."""

    def test_chi_z_u_f_s(self, digit_audit):
        audit = {k: v for k, v in digit_audit.items() if k != "C"}
        assert {k: misses for k, (misses, _, _) in audit.items()} == dict.fromkeys(audit, 0)
        # the tie skip leaves nearly every cell checked
        assert all(cells == 768 and ties <= 8 for _, ties, cells in audit.values()), audit

    @pytest.mark.xfail(
        strict=True,
        reason="C keeps about eight digits near chi = 0.02: its small-chi series "
        "stops at x^6 and the direct form cancels ~chi^-4 ulps (ROADMAP direction 22)",
    )
    def test_c(self, digit_audit):
        assert digit_audit["C"][0] == 0
