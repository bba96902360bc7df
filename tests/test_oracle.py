"""Independent numerical cross-check machinery: quadrature, derivatives,
outward shooting.  These routines must stand on their own, so they are
validated against problems with known closed-form answers."""

import functools
import hashlib
import math
import re
import sys
from collections import Counter
from dataclasses import dataclass, replace
from decimal import Decimal

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ptbound import oracle
from ptbound.errors import ConvergenceError, DomainError, NodeCountError, OverflowRangeError
from ptbound.oracle import (
    finite_difference, harmonic_problem, integrate_adaptive, shoot_eigenvalue,
)
from ptbound.schrodinger import NRContext, PTPotential, pt_radial_problem, spectral_params
from ptbound.specfun import erfi
import test_acceptance

SQRT_PI = math.sqrt(math.pi)


class TestQuadrature:
    def test_polynomial_exact(self):
        assert integrate_adaptive(lambda x: x * x, 0.0, 1.0, tol=1e-14) == pytest.approx(
            1.0 / 3.0, abs=1e-14
        )

    def test_gaussian_growth_integral(self):
        # int_0^1 e^{y^2} dy = (sqrt(pi)/2) erfi(1)
        val = integrate_adaptive(lambda y: math.exp(y * y), 0.0, 1.0, tol=1e-13)
        assert val == pytest.approx(0.5 * SQRT_PI * erfi(1.0), rel=1e-10)

    def test_oscillatory(self):
        val = integrate_adaptive(math.sin, 0.0, math.pi, tol=1e-12)
        assert val == pytest.approx(2.0, rel=1e-11)

    def test_additivity(self):
        f = lambda x: math.exp(-x) * math.cos(3.0 * x)
        whole = integrate_adaptive(f, 0.0, 2.0, tol=1e-13)
        parts = integrate_adaptive(f, 0.0, 0.7, tol=1e-13) + integrate_adaptive(
            f, 0.7, 2.0, tol=1e-13
        )
        assert whole == pytest.approx(parts, abs=1e-12)

    def test_mapped_semi_infinite_tail(self):
        # int_0^inf r^2 e^{-2r} dr = 1/4, folded onto [0,1) by r = t/(1-t).
        # The integrand underflows to an exact 0 well before t -> 1, so a
        # fixed right endpoint just below 1 captures the whole tail.
        def folded(t):
            r = t / (1.0 - t)
            return r * r * math.exp(-2.0 * r) / (1.0 - t) ** 2

        coarse = integrate_adaptive(folded, 0.0, 1.0 - 1e-9, tol=1e-8)
        fine = integrate_adaptive(folded, 0.0, 1.0 - 1e-9, tol=1e-12)
        assert fine == pytest.approx(0.25, rel=1e-10)
        assert abs(coarse - fine) < 1e-7

    def test_gaussian_peak(self):
        # Five samples of [0, 40] all miss this peak (a single Simpson
        # panel returned 1.149e-195); the 32 starting panels do not.
        val = integrate_adaptive(lambda r: math.exp(-50.0 * (r - 3.0) ** 2), 0.0, 40.0, tol=1e-12)
        assert val == pytest.approx(math.sqrt(math.pi / 50.0), abs=1e-11)

    @given(
        a=st.floats(-100.0, 100.0),
        length=st.floats(0.01, 1000.0),
        panels=st.floats(1.0, 32.0),
        frac=st.floats(0.0, 1.0),
        rel_tol=st.floats(1e-12, 1e-4),
    )
    @settings(max_examples=200)
    def test_peak_a_panel_wide_is_resolved(self, a, length, panels, frac, rel_tol):
        # The docstring's promise: a Gaussian peak at least one of the 32
        # starting panels wide, centred anywhere in [a, b], integrates to
        # within 10 tol, or the quadrature raises; it is never missed.
        b = a + length
        w = (b - a) / 32.0 * panels
        c = min(a + frac * (b - a), b)
        tol = rel_tol * w
        exact = 0.5 * SQRT_PI * w * (math.erf((b - c) / w) - math.erf((a - c) / w))
        try:
            val = integrate_adaptive(lambda x: math.exp(-(((x - c) / w) ** 2)), a, b, tol=tol)
        except ConvergenceError:
            return
        assert abs(val - exact) <= 10.0 * tol

    def test_depth_exhaustion_carries_estimate(self):
        with pytest.raises(ConvergenceError) as exc:
            integrate_adaptive(lambda x: math.sin(10.0 * x), 0.0, 3.0, tol=1e-15, max_depth=2)
        assert math.isfinite(exc.value.estimate)


class TestFiniteDifference:
    def test_first_derivative_cubic(self):
        val, err = finite_difference(lambda x: x**3, 2.0)
        assert val == pytest.approx(12.0, rel=1e-9)
        assert err < 1e-6

    def test_second_derivative_quartic(self):
        val, err = finite_difference(lambda x: x**4, 1.0, order=2)
        assert val == pytest.approx(12.0, rel=1e-7)
        assert err < 1e-4

    def test_exponential(self):
        val, _ = finite_difference(math.exp, 0.5)
        assert val == pytest.approx(math.exp(0.5), rel=1e-10)

    @pytest.mark.parametrize("order, calls", [(1, 8), (2, 9)])
    def test_each_stencil_point_is_evaluated_once(self, order, calls):
        # Order 2 once took f(x) anew at each of the four levels: 12 calls.
        counting = _CountingW(math.exp)
        value, err = finite_difference(counting, 1.0, order=order)
        assert counting.calls == calls
        expected = {1: ("0x1.5bf0a8b1453a3p+1", "0x1.8000000000000p-46"),
                    2: ("0x1.5bf0a8d768ad9p+1", "0x1.ade0000000000p-38")}[order]
        assert (float.hex(value), float.hex(err)) == expected

    @pytest.mark.parametrize("order", [1, 2])
    def test_non_finite_f_is_a_domain_error(self, order):
        # Once returned (nan, nan).
        with pytest.raises(DomainError, match=r"got inf at x=1\.001"):
            finite_difference(lambda x: math.inf, 1.0, order=order)

    @pytest.mark.parametrize("order", [1, 2])
    def test_quotient_past_the_double_range(self, order):
        # f is finite on the stencil, its difference quotients are not;
        # this once returned (nan, nan).
        with pytest.raises(OverflowRangeError, match="derivative exceeds the double range"):
            finite_difference(lambda x: 1e308 * x * x, 1.0, order=order)


class TestShooting:
    """Radial oscillator: q_n = omega (4n + 3) exactly."""

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_oscillator_levels(self, n):
        res = shoot_eigenvalue(harmonic_problem(), n, (4 * n + 1, 4 * n + 5))
        assert res.value == pytest.approx(4 * n + 3, rel=1e-8)
        assert res.refinements >= 1
        assert res.gaps[-1] <= 1e-9 * max(1.0, abs(res.value))

    def test_frequency_scaling(self):
        res = shoot_eigenvalue(harmonic_problem(omega=2.0), 1, (10.0, 18.0))
        assert res.value == pytest.approx(14.0, rel=1e-8)

    def test_frequency_past_the_double_range(self):
        # omega^2 = origin_w2 leaves the double range past about 1.34e154.
        with pytest.raises(DomainError, match=r"frequency omega=1e\+155 squared"):
            harmonic_problem(1e155)

    @pytest.mark.parametrize("omega", [1e12, 1e14])
    def test_frequency_scales_the_window(self, omega):
        # The window (1e-6, 9)/sqrt(omega) makes the problem the same at
        # every omega.  With r_min fixed at 1e-6, omega = 1e12 raised
        # ConvergenceError (gap 3.835e+07) and 1e14 a DomainError.
        unit = shoot_eigenvalue(harmonic_problem(), 0, (1.0, 5.0))
        res = shoot_eigenvalue(harmonic_problem(omega), 0, (omega, 5.0 * omega))
        assert res.value == pytest.approx(3.0 * omega, rel=1e-11)
        assert (res.npts, res.refinements, res.passes, res.points) == (
            unit.npts, unit.refinements, unit.passes, unit.points
        )

    def test_level_below_one_is_resolved_relative_to_its_bracket(self):
        # A bracket inside (-1, 1) scales xtol and the refinement test by
        # its own magnitude.  Scaled by 1, as every bracket was once, this
        # one returned 2.5e-12, its midpoint, for the level 3e-12.
        unit = shoot_eigenvalue(harmonic_problem(), 0, (1.0, 4.0))
        res = shoot_eigenvalue(harmonic_problem(1e-12), 0, (1e-12, 4e-12))
        assert res.value == pytest.approx(3e-12, rel=1e-9)
        assert (res.npts, res.refinements, res.passes, res.points) == (
            unit.npts, unit.refinements, unit.passes, unit.points
        )

    def test_mesh_doubles(self):
        coarse = harmonic_problem(npts=501)
        res = shoot_eigenvalue(coarse, 0, (1.0, 5.0))
        assert res.npts > 501
        assert res.value == pytest.approx(3.0, rel=1e-7)

    def test_bracket_above_level(self):
        with pytest.raises(NodeCountError, match="above"):
            shoot_eigenvalue(harmonic_problem(), 0, (8.0, 10.0))

    def test_bracket_below_level(self):
        with pytest.raises(NodeCountError, match="below"):
            shoot_eigenvalue(harmonic_problem(), 1, (1.0, 2.0))

    def test_w_overflow_is_a_range_error(self):
        # The problem's own w, (omega r)**2, overflows on a mesh out to the
        # largest double.
        problem = replace(harmonic_problem(), r_cut=sys.float_info.max)
        with pytest.raises(OverflowRangeError, match="w overflows"):
            shoot_eigenvalue(problem, 0, (1.0, 5.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1j, None])
    def test_non_finite_w_is_a_domain_error(self, bad):
        # One first-mesh point, r = 6.75 up to the mesh's rounding.  NaN
        # there once gave a level near 3 and +inf a NodeCountError; 1j and
        # None raised a bare TypeError.
        problem = harmonic_problem()
        r_bad = problem.r_min + 1500 * (problem.r_cut - problem.r_min) / (problem.npts - 1)
        problem = replace(problem, w=lambda r: bad if r == r_bad else r * r)
        with pytest.raises(DomainError, match=rf"got {bad!r} at r=6\.75"):
            shoot_eigenvalue(problem, 0, (1.0, 5.0))

    def test_decimal_w_is_a_domain_error(self):
        # Decimal values add up among themselves to a finite sum, which
        # once let them through to the Numerov pass and its bare
        # TypeError (Decimal minus float).
        problem = replace(harmonic_problem(), w=lambda r: Decimal(1))
        with pytest.raises(DomainError, match=r"got Decimal\('1'\) at r=1e-06"):
            shoot_eigenvalue(problem, 0, (1.0, 5.0))

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_int_past_the_double_range_is_a_domain_error(self, digits):
        # An int w value has no float past the double range: the sum's
        # finiteness check once raised a bare OverflowError, and repr of an
        # int past 4,300 digits raises ValueError.
        problem = replace(harmonic_problem(), w=lambda r: 10**digits if r > 5 else r * r)
        with pytest.raises(DomainError, match=r"got an int past the double range at r=5\.0"):
            shoot_eigenvalue(problem, 0, (1.0, 5.0))

    def test_nan_pass_is_a_range_error(self):
        # From q near 1e65 the first mesh's pass has a NaN tail mismatch,
        # which was once read as a shot below the level: this bracket,
        # which holds levels 0 to 3, raised "upper bracket edge 1e+200
        # still lies below level n=0".
        with pytest.raises(OverflowRangeError, match=r"pass at q=1e\+200 "):
            shoot_eigenvalue(harmonic_problem(), 0, (1.0, 1e200))


class TestZeroin:
    def test_zeroin(self):
        # A mismatch that grows exponentially away from its root, as the
        # tail mismatch does: every trial stays strictly inside the
        # bracket, and the bracket reaches 2*tol in far fewer trials than
        # the 40 halvings bisection needs.
        root, tol = math.pi, 1e-12
        g = lambda x: math.exp(8.0 * (root - x)) - 1.0
        bracket = [1.0, 5.0]
        trials = []

        def f(x):
            assert bracket[0] < x < bracket[1]
            trials.append(x)
            bracket[x > root] = x
            return g(x)

        oracle._zeroin(f, 1.0, g(1.0), 5.0, g(5.0), tol)
        assert bracket[1] - bracket[0] <= 2.0 * tol
        assert len(trials) <= 20

    def test_zeroin_stops_without_value(self):
        trials = []
        oracle._zeroin(lambda x: trials.append(x), 1.0, 1.0, 5.0, -1.0, 1e-12)
        assert len(trials) == 1 and 1.0 < trials[0] < 5.0




def _cold_mesh_value(problem, n, lo, hi, npts, xtol):
    """Reference mesh search: bisect the whole bracket, shooting every midpoint."""
    h = (problem.r_cut - problem.r_min) / (npts - 1)
    wvals = [problem.w(problem.r_min + i * h) for i in range(npts)]
    parity = 1.0 if n % 2 == 0 else -1.0

    def above(q):
        kappa = math.sqrt(max(wvals[-1] - q, 1e-12))
        nodes, g = oracle._numerov_outward(
            wvals, h, q, problem.origin_exponent, problem.r_min, kappa,
            problem.origin_w0, problem.origin_w2,
        )
        return nodes > n if nodes != n else g * parity < 0.0

    assert not above(lo) and above(hi)
    a, b = lo, hi
    while b - a > xtol:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        if above(mid):
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def _cold_shoot(problem, n, bracket, tol=1e-9, max_refinements=6):
    """Reference refinement loop over the cold mesh search."""
    lo, hi = bracket
    xtol = tol * max(1.0, abs(lo), abs(hi)) * 1e-2
    npts = problem.npts
    value = _cold_mesh_value(problem, n, lo, hi, npts, xtol)
    for refinement in range(1, max_refinements + 1):
        npts = 2 * npts - 1
        new_value = _cold_mesh_value(problem, n, lo, hi, npts, xtol)
        gap = abs(new_value - value)
        value = new_value
        if gap <= tol * max(1.0, abs(new_value)):
            return value, npts, refinement, gap
    raise AssertionError("reference search did not converge")


def _pt_level(a, b, alpha, n):
    """Criterion 2's problem and bracket for level n of one well."""
    pot = PTPotential(A=a, B=b, alpha=alpha)
    ctx = NRContext.natural(mu=0.5)
    reg = spectral_params(pot, ctx, 0, "regular")
    closed = reg.k1(n)
    deeper = reg.k1(n - 1) if n else 1.44 * closed
    bracket = (0.5 * (closed + deeper), 0.5 * (closed + reg.k1(n + 1)))
    return pt_radial_problem(pot, ctx, 0, k1_estimate=reg.k1(0)), bracket


@functools.cache
def _criterion2_results():
    """shoot_eigenvalue on criterion 2's 15 levels, in its order."""
    results = []
    for well in test_acceptance.TestCriterion2.WELLS:
        for n in range(3):
            problem, bracket = _pt_level(*well, n)
            results.append(shoot_eigenvalue(problem, n, bracket))
    return tuple(results)


class TestStall:
    def test_stall_carries_the_last_mesh_value(self):
        # One doubling is not enough on this level: the 4001- and 8001-point
        # values differ by 4.8e-7, far above the 1e-9 tolerance.
        problem, bracket = _pt_level(-60.0, 0.5, 1.0, 0)
        with pytest.raises(ConvergenceError) as info:
            shoot_eigenvalue(problem, 0, bracket, max_refinements=1)
        assert str(info.value) == "mesh refinement stalled after 1 doublings (gap 4.764e-07)"
        lo, hi = bracket
        xtol = 1e-9 * max(1.0, abs(lo), abs(hi)) * 1e-2
        assert info.value.estimate == _cold_mesh_value(problem, 0, lo, hi, 8001, xtol)


class TestWarmStart:
    """Each warm mesh shoots the bisection lattice's cell end nearest a
    guess, extrapolated through the chain's last two meshes at the order
    that three coarse rungs show (4 without them), and a Newton step
    from it.  A rough rung stops there; every other mesh shoots the
    undecided ends of the predicted level's final cell, then squeezes
    the window its shots leave around the level with Brent's method on
    the tail mismatch until the shots decide every midpoint of the
    bisection of the whole bracket.  The results must be the cold
    search's, bit for bit, in a fraction of its Numerov passes."""

    STRONG_WELL = (-150.0, 3.0, 1.3)  # criterion 2's: two meshes, 38 passes each when cold
    REFINING_WELL = (-60.0, 0.5, 1.0)  # n = 0 refines three times, to 32k points

    @staticmethod
    def _check(problem, n, bracket):
        res = shoot_eigenvalue(problem, n, bracket)
        assert (res.value, res.npts, res.refinements, res.gaps[-1]) == _cold_shoot(
            problem, n, bracket
        )
        return res

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_oscillator(self, n):
        res = self._check(harmonic_problem(), n, (4 * n + 1, 4 * n + 5))
        # 5-6 passes and 16,269-18,773 points with two rungs solved in
        # full and the h^4 guess, 7-8 and 22,397-26,272 before the lattice
        # shots, 32,013-38,015 points with a cold first mesh
        assert res.passes <= 5
        assert res.points <= 17_021

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_strong_well(self, n):
        problem, bracket = _pt_level(*self.STRONG_WELL, n)
        res = self._check(problem, n, bracket)
        # 7-8 passes and 43,151-50,902 points before the lattice shots,
        # 84,017-92,019 points with a cold first mesh
        assert res.passes <= 7
        assert res.points <= 44_000

    def test_refining_well(self):
        problem, bracket = _pt_level(*self.REFINING_WELL, 0)
        res = self._check(problem, 0, bracket)
        assert res.refinements == 3
        assert res.passes <= 15  # 16 before the lattice shots

    def test_edge_without_mismatch(self):
        # The upper edge lies above level n = 2, with more nodes than the
        # mismatch is continuous through, so the squeeze halves the
        # window before Brent's method can start.
        problem = harmonic_problem()
        h = 9.0 / (problem.npts - 1)
        wvals = [problem.w(problem.r_min + i * h) for i in range(problem.npts)]
        nodes, _ = oracle._numerov_outward(
            wvals, h, 13.0, problem.origin_exponent, problem.r_min, 1.0
        )
        assert nodes > 1
        res = self._check(problem, 0, (1.0, 13.0))
        assert res.value == pytest.approx(3.0, rel=1e-8)
        assert res.passes <= 4  # 8 before the lattice shots

    def test_criterion2_points(self):
        # 6,443,710 before the Newton shots, 4,816,557 with the two-term
        # seed, 1,909,994 with the three-term seed and 1,705,723 with
        # lattice shots and the h^4 guess
        assert sum(res.points for res in _criterion2_results()) <= 1_750_000

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_guess_near_the_level_cell_takes_two_passes(self, n):
        # The Newton step from the cell end nearest the guess puts the level
        # in that end's cell, so only its other end is shot.  A guess less
        # than half a cell outside the level's cell is shot at its end too.
        problem, (lo, hi) = harmonic_problem(), (4 * n + 1, 4 * n + 5)
        xtol = 1e-9 * max(1.0, abs(lo), abs(hi)) * 1e-2
        _, slope = oracle._solve_on_mesh(
            problem, n, lo, hi, oracle._mesh_w(problem, 0), xtol, Counter()
        )
        wvals = oracle._mesh_w(problem, 1)
        cold = _cold_mesh_value(problem, n, lo, hi, len(wvals), xtol)
        a, b, undecided = oracle._replay(lo, hi, xtol, cold, cold)
        assert undecided is None and 0.5 * (a + b) == cold
        for guess in (a - 0.3 * (b - a), a + 0.05 * (b - a), cold, b + 0.3 * (b - a)):
            tally = Counter()
            value, _ = oracle._solve_on_mesh(
                problem, n, lo, hi, wvals, xtol, tally, guess, slope
            )
            assert value == cold and tally["passes"] == 2, guess

    def test_oscillator_ground_level_work(self):
        # The 4,001-point mesh's guess lies 0.4 xtol from its level, and
        # the mesh takes 2 passes.  With the last value as guess, shot off
        # the lattice, it took 4 (the guess, two shots 0.1 xtol either
        # side of the Newton step, a midpoint), and the level 8 passes and
        # 26,272 steps; with two rungs solved in full and the h^4 guess,
        # 5 passes and 16,269 steps.
        res = shoot_eigenvalue(harmonic_problem(), 0, (1.0, 5.0))
        assert (res.passes, res.points) == (4, 15_269)

    # (A, alpha, frac) of wells spread over shoot_scan's box, with
    # B = 2 alpha^2 + frac (3 - 2 alpha^2), as in test_strong_core_box.
    BOX_WELLS = [
        (-150.0, 0.8, 0.0), (-95.0, 1.0, 0.5), (-130.0, 1.15, 0.75), (-120.0, 0.85, 0.5),
        (-100.0, 0.8, 1.0), (-140.0, 1.0, 0.3), (-110.0, 0.95, 0.8), (-150.0, 1.2, 0.5),
        (-80.0, 0.8, 0.3), (-150.0, 1.0, 1.0),
    ]

    def test_strong_core_box_points(self):
        # Levels n = 0..2 of each well: 1,063,252 points with two rungs
        # solved in full and the h^4 guess, 947,193 with three rungs, the
        # finer two rough, and the fitted order.
        points = 0
        for a, alpha, frac in self.BOX_WELLS:
            b = 2.0 * alpha**2 + frac * (3.0 - 2.0 * alpha**2)
            for n in range(3):
                problem, bracket = _pt_level(a, b, alpha, n)
                points += shoot_eigenvalue(problem, n, bracket).points
        assert points <= 960_000

    @given(
        a=st.floats(-150.0, -40.0),
        alpha=st.floats(0.8, math.sqrt(1.5)),
        frac=st.floats(0.0, 1.0),
        n=st.integers(0, 2),
    )
    @settings(max_examples=6)
    def test_strong_core_box(self, a, alpha, frac, n):
        # Criterion 2's ranges with B / alpha^2 >= 2, where a level
        # converges on 8k points after one refinement.
        b = 2.0 * alpha**2 + frac * (3.0 - 2.0 * alpha**2)
        reg = spectral_params(PTPotential(A=a, B=b, alpha=alpha), NRContext.natural(mu=0.5), 0,
                              "regular")
        assume(reg.bound_possible(3))
        problem, bracket = _pt_level(a, b, alpha, n)
        self._check(problem, n, bracket)

    def test_far_guess_without_slope_gives_cold_value(self):
        problem, (lo, hi) = _pt_level(*self.STRONG_WELL, 1)
        xtol = 1e-9 * max(1.0, abs(lo), abs(hi)) * 1e-2
        wvals = oracle._mesh_w(problem, 1)
        value, _ = oracle._solve_on_mesh(problem, 1, lo, hi, wvals, xtol, Counter(), lo)
        assert value == _cold_mesh_value(problem, 1, lo, hi, len(wvals), xtol)


class TestNewtonShots:
    """A mesh given a guess and a mismatch slope first shoots a Newton
    prediction of its level.  Those shots only feed the shot record, so
    whatever the slope or guess, the value is the cold search's bit for
    bit; a bad slope may cost passes."""

    @pytest.mark.parametrize("well", test_acceptance.TestCriterion2.WELLS)
    def test_adversarial_inputs(self, well):
        for n in range(3):
            problem, (lo, hi) = _pt_level(*well, n)
            xtol = 1e-9 * max(1.0, abs(lo), abs(hi)) * 1e-2
            wvals = oracle._mesh_w(problem, 1)
            cold = _cold_mesh_value(problem, n, lo, hi, len(wvals), xtol)
            value, slope = oracle._solve_on_mesh(problem, n, lo, hi, wvals, xtol, Counter())
            assert value == cold and slope < 0.0
            near, far = cold + 3.0 * xtol, cold - 1e3 * xtol
            cases = [(guess, s) for guess in (near, far) for s in (
                slope, -slope, 1e3 * slope, 1e-3 * slope, 0.0, math.nan, math.inf
            )]
            cases += [(lo - 1.0, slope), (hi + 1.0, slope)]
            for guess, s in cases:
                value, _ = oracle._solve_on_mesh(
                    problem, n, lo, hi, wvals, xtol, Counter(), guess, s
                )
                assert value == cold, (n, guess, s)

    @pytest.mark.parametrize("side", ["above", "below"])
    def test_bracket_missing_the_level(self, side):
        # A refined mesh with a guess in the bracket and the level's own
        # slope: every shot lands on one side, and the end on that side
        # is named.
        problem, (lo, hi) = _pt_level(*TestWarmStart.STRONG_WELL, 1)
        xtol = 1e-9 * max(1.0, abs(lo), abs(hi)) * 1e-2
        wvals = oracle._mesh_w(problem, 1)
        cold, slope = oracle._solve_on_mesh(problem, 1, lo, hi, wvals, xtol, Counter())
        if side == "above":
            lo, hi = cold + 64 * xtol, cold + 4096 * xtol
            message = f"lower bracket edge {lo!r} already lies above level n=1"
        else:
            lo, hi = cold - 4096 * xtol, cold - 64 * xtol
            message = f"upper bracket edge {hi!r} still lies below level n=1"
        for guess in (lo + 8 * xtol, 0.5 * (lo + hi), hi - 8 * xtol):
            with pytest.raises(NodeCountError, match=re.escape(message)):
                oracle._solve_on_mesh(problem, 1, lo, hi, wvals, xtol, Counter(), guess, slope)


class TestCoarseRungs:
    """A level's meshes are one chain: up to three coarse rungs made of
    the first mesh's own points, the first mesh, then its refinements,
    each warm from the mesh before.  The rungs after the coarsest are
    rough: only their guesses are needed.  Without two rungs, or when a
    rung's bracket misses the level, the chain starts cold at the first
    mesh; either way the result is the cold search's."""

    @staticmethod
    def _record_meshes(monkeypatch):
        """(mesh size, guess) of each _solve_on_mesh call from here on."""
        solve, calls = oracle._solve_on_mesh, []

        def recording(problem, n, lo, hi, wvals, xtol, tally, guess=None, slope=None,
                      **kwargs):
            calls.append((len(wvals), guess))
            return solve(problem, n, lo, hi, wvals, xtol, tally, guess, slope, **kwargs)

        monkeypatch.setattr(oracle, "_solve_on_mesh", recording)
        return calls

    def test_rungs_take_the_first_mesh_points(self, monkeypatch):
        problem = harmonic_problem()
        calls = []

        def w(r):
            calls.append(r)
            return problem.w(r)

        meshes = self._record_meshes(monkeypatch)
        res = shoot_eigenvalue(replace(problem, w=w), 0, (1.0, 5.0))
        assert len(calls) == res.npts
        # 2000 intervals: rungs of 125, 250 and 500, then 2000 and 4000.
        assert [npts for npts, _ in meshes] == [126, 251, 501, 2001, 4001]
        assert meshes[0][1] is None and all(guess is not None for _, guess in meshes[1:])

    def test_intervals_halving_twice_keep_two_rungs(self, monkeypatch):
        # 500 intervals: rungs of 125 and 250, then 500 and its doublings.
        meshes = self._record_meshes(monkeypatch)
        TestWarmStart._check(harmonic_problem(npts=501), 0, (1.0, 5.0))
        assert [npts for npts, _ in meshes[:3]] == [126, 251, 501]

    def test_warm_rung_without_prediction_is_solved_in_full(self, monkeypatch):
        # With no answer from _predict, each warm rung bisects to its
        # cold value.
        problem, (lo, hi) = harmonic_problem(), (1.0, 5.0)
        xtol = 1e-9 * max(1.0, abs(lo), abs(hi)) * 1e-2
        solve, values = oracle._solve_on_mesh, {}

        def recording(problem, n, lo, hi, wvals, *args, **kwargs):
            result = solve(problem, n, lo, hi, wvals, *args, **kwargs)
            values[len(wvals)] = result[0]
            return result

        monkeypatch.setattr(oracle, "_predict", lambda *args: None)
        monkeypatch.setattr(oracle, "_solve_on_mesh", recording)
        TestWarmStart._check(problem, 0, (lo, hi))
        for npts in (251, 501):
            assert values[npts] == _cold_mesh_value(problem, 0, lo, hi, npts, xtol)

    def test_rough_rung(self):
        # From the coarser rung's value and slope the 501-point rung takes
        # 2 passes, a Newton and a secant shot, and its value is their
        # prediction, within a few xtol of its level's cell.  Given its own
        # cold value as guess, the Newton step is too short for a second
        # shot, and the rung is solved in full.
        problem, (lo, hi) = harmonic_problem(), (1.0, 5.0)
        xtol = 1e-9 * max(1.0, abs(lo), abs(hi)) * 1e-2
        first = oracle._mesh_w(problem, 0)
        guess, slope = oracle._solve_on_mesh(problem, 0, lo, hi, first[::8], xtol, Counter())
        cold = _cold_mesh_value(problem, 0, lo, hi, 501, xtol)
        tally = Counter()
        value, rough_slope = oracle._solve_on_mesh(
            problem, 0, lo, hi, first[::4], xtol, tally, guess, slope, rough=True
        )
        assert tally["passes"] == 2 and value != cold and abs(value - cold) < 4.0 * xtol
        assert rough_slope == pytest.approx(slope, rel=0.1)
        value, _ = oracle._solve_on_mesh(
            problem, 0, lo, hi, first[::4], xtol, Counter(), cold, slope, rough=True
        )
        assert value == cold

    def test_fitted_order(self):
        # The order is fitted only through three meshes whose differences
        # shrink; a guess whose powers leave the double range is the last
        # value.
        assert oracle._order([(125, 3.0), (250, 2.0), (500, 1.75)]) == 2.0
        for chain in (
            [(125, 3.0), (250, 2.0)],
            [(125, 3.0), (250, 2.0), (500, 2.5)],
            [(125, 3.0), (250, 2.9), (500, 2.7)],
            [(125, 3.0), (250, 2.0), (500, 2.0)],
        ):
            assert oracle._order(chain) == 4.0, chain
        assert oracle._guess([(500, 1.0), (4000, 1.001)], 8000, 2000.0) == 1.001

    def test_no_rung_pair_runs_cold(self, monkeypatch):
        # 2002 intervals halve only once
        problem = harmonic_problem(npts=2003)
        meshes = self._record_meshes(monkeypatch)
        TestWarmStart._check(problem, 0, (1.0, 5.0))
        assert meshes[0] == (2003, None)

    def test_coarse_rung_outside_bracket(self, monkeypatch):
        # The 126-point rung puts the level at 2.9999985, below the
        # bracket; the first mesh puts it at 2.99999999997.
        problem, bracket = harmonic_problem(), (2.9999995, 3.5)
        wvals = oracle._mesh_w(problem, 0)
        with pytest.raises(NodeCountError):
            oracle._solve_on_mesh(problem, 0, *bracket, wvals[::16], 1e-11, Counter())
        meshes = self._record_meshes(monkeypatch)
        res = TestWarmStart._check(problem, 0, bracket)
        assert meshes[:2] == [(126, None), (2001, None)]
        assert res.value == pytest.approx(3.0, rel=1e-9)

    def test_fine_rung_node_count_error(self, monkeypatch):
        problem, bracket = _pt_level(*TestWarmStart.STRONG_WELL, 1)
        solve, failed = oracle._solve_on_mesh, []

        def fine_rung_fails(problem, n, lo, hi, wvals, *args, **kwargs):
            if len(wvals) == 251:
                failed.append(args)
                raise NodeCountError("rung")
            return solve(problem, n, lo, hi, wvals, *args, **kwargs)

        monkeypatch.setattr(oracle, "_solve_on_mesh", fine_rung_fails)
        TestWarmStart._check(problem, 1, bracket)
        assert len(failed) == 1

    @staticmethod
    def _count_steps(monkeypatch):
        """The Numerov steps of every pass from here on, one entry a pass."""
        march, steps = oracle._numerov_outward, []

        def counting(wvals, *args):
            steps.append(len(wvals))
            return march(wvals, *args)

        monkeypatch.setattr(oracle, "_numerov_outward", counting)
        return steps

    def test_points_count_a_coarse_rung_that_missed(self, monkeypatch):
        # The restart once dropped the missed rung's pass: 24,009 points
        # for 24,135 steps (20,134 since the lattice shots).
        steps = self._count_steps(monkeypatch)
        res = shoot_eigenvalue(harmonic_problem(), 0, (2.9999995, 3.5))
        assert res.points == sum(steps) == 20_134

    def test_points_count_a_fine_rung_that_missed(self, monkeypatch):
        # Both rungs' passes stay counted when the fine one misses.
        problem, bracket = _pt_level(*TestWarmStart.STRONG_WELL, 1)
        solve = oracle._solve_on_mesh

        def fine_rung_misses(problem, n, lo, hi, wvals, *args, **kwargs):
            result = solve(problem, n, lo, hi, wvals, *args, **kwargs)
            if len(wvals) == 251:
                raise NodeCountError("rung")
            return result

        monkeypatch.setattr(oracle, "_solve_on_mesh", fine_rung_misses)
        steps = self._count_steps(monkeypatch)
        res = shoot_eigenvalue(problem, 1, bracket)
        assert 126 in steps and 251 in steps
        assert res.points == sum(steps)

    def test_error_is_the_first_mesh_error(self):
        # The coarse rung holds the level; the first mesh does not.
        with pytest.raises(NodeCountError, match="upper bracket edge 2.9999995 still lies below"):
            shoot_eigenvalue(harmonic_problem(), 0, (1.0, 2.9999995))


class TestProblemIdentity:
    def test_unhashable_w(self):
        # The mesh cache keys a problem by identity, so w need not hash.
        @dataclass
        class Square:
            def __call__(self, r):
                return r * r

        res = shoot_eigenvalue(replace(harmonic_problem(), w=Square()), 0, (1.0, 5.0))
        assert res == shoot_eigenvalue(harmonic_problem(), 0, (1.0, 5.0))

    def test_w_must_be_callable(self):
        with pytest.raises(DomainError, match="w must be callable, got 5.0"):
            replace(harmonic_problem(), w=5.0)


class TestMeshReuse:
    """A refined mesh takes w at its even points from the coarse mesh;
    the values must be those of a fresh evaluation, bit for bit."""

    @pytest.mark.parametrize(
        "problem",
        [harmonic_problem(), _pt_level(-45.0, 0.1, 0.8, 0)[0]],
        ids=["harmonic", "weak_core"],
    )
    def test_interleaved_equals_fresh(self, problem):
        for doublings in range(1, 7):
            npts = (problem.npts - 1) * 2**doublings + 1
            h = (problem.r_cut - problem.r_min) / (npts - 1)
            fresh = [problem.w(problem.r_min + i * h) for i in range(npts)]
            assert oracle._mesh_w(problem, doublings) == fresh


class _CountingW:
    def __init__(self, w):
        self.w, self.calls = w, 0

    def __call__(self, r):
        self.calls += 1
        return self.w(r)


class TestMeshSharing:
    """A problem keeps the finest mesh built for it, so the levels of a
    well shot on one problem evaluate w once per point of its finest
    mesh, with the results of problems that share nothing."""

    def test_levels_of_a_well_share_their_meshes(self):
        problem = _pt_level(*TestWarmStart.STRONG_WELL, 0)[0]
        counting = _CountingW(problem.w)
        shared = replace(problem, w=counting)
        for n in range(3):
            bracket = _pt_level(*TestWarmStart.STRONG_WELL, n)[1]
            res = shoot_eigenvalue(shared, n, bracket)
            assert res.npts == 8001
            assert res == shoot_eigenvalue(replace(problem, w=lambda r: problem.w(r)), n, bracket)
        assert counting.calls == 8001  # 24,003 when each level builds its own meshes

    def test_caller_owns_the_mesh(self):
        problem = replace(harmonic_problem(), w=lambda r: r * r)
        first = oracle._mesh_w(problem, 1)
        expected = list(first)
        first[:] = [math.nan] * len(first)
        assert oracle._mesh_w(problem, 1) == expected
        fine = oracle._mesh_w(problem, 2)
        fine[0] = math.inf
        assert oracle._mesh_w(problem, 2)[0] == expected[0]
        assert oracle._mesh_w(problem, 1) == expected

    def test_radial_problem_is_rebuilt_only_for_new_arguments(self):
        pot, ctx = PTPotential(-150.0, 3.0, 1.3), NRContext.natural(mu=0.5)
        first = pt_radial_problem(pot, ctx, 1, k1_estimate=-100.0)
        again = pt_radial_problem(PTPotential(-150.0, 3.0, 1.3), ctx, 1, k1_estimate=-100.0)
        assert again is first
        # Equal arguments of another type are built anew.
        assert pt_radial_problem(pot, ctx, 1.0, k1_estimate=-100.0) is not first
        assert pt_radial_problem(pot, ctx, 1, k1_estimate=-101.0).r_cut != first.r_cut


class TestFourthOrder:
    """Blatt's summed Numerov form and the three-term Frobenius seed leave
    no round-off floor or origin error above the tolerances the solver
    is run at, so the gaps shrink at the method's h^4 order."""

    WEAK_CORE_WELL = (-45.0, 0.1, 0.8)  # criterion 2's; n = 2 refines to 32k points
    STALLED_WELL = (-108.38468982155987, 0.26891787363534336, 1.2422303788240925)

    def test_gap_history(self):
        problem, bracket = _pt_level(*TestWarmStart.STRONG_WELL, 0)
        res = shoot_eigenvalue(problem, 0, bracket)
        assert len(res.gaps) == res.refinements
        # Refinement stops at the first gap within the tolerance.
        tol = 1e-9 * max(1.0, abs(res.value))
        assert res.gaps[-1] <= tol < min(res.gaps[:-1], default=math.inf)

    def test_weak_core_gap_ratios_rise_to_fourth_order(self):
        problem, bracket = _pt_level(*self.WEAK_CORE_WELL, 2)
        res = shoot_eigenvalue(problem, 2, bracket)
        # The three-term seed lets a weak core start three first-mesh steps
        # out; with the two-term seed from 0.36 of a step, this level and
        # the stalled well's refined five times, to 128,001 points.
        assert res.npts <= 32_001
        gaps = res.gaps
        ratios = [coarse / fine for coarse, fine in zip(gaps, gaps[1:])]
        assert all(a < b for a, b in zip(ratios, ratios[1:])), ratios
        assert ratios[-1] >= 12.0, ratios

    def test_stalled_well_converges(self):
        # Refinement stalled on this level once the gap met the round-off
        # floor (gap 1.58e-8 at 256k points, tolerance 1.17e-8).
        problem, bracket = _pt_level(*self.STALLED_WELL, 2)
        res = shoot_eigenvalue(problem, 2, bracket)
        pot = PTPotential(*self.STALLED_WELL)
        closed = spectral_params(pot, NRContext.natural(mu=0.5), 0, "regular").k1(2)
        assert res.npts <= 32_001
        assert res.value == pytest.approx(closed, rel=1e-8)

    def test_strong_well_tight_tolerance(self):
        problem, bracket = _pt_level(*TestWarmStart.STRONG_WELL, 2)
        res = shoot_eigenvalue(problem, 2, bracket, tol=1e-12)
        assert res.gaps[-1] <= 1e-12 * abs(res.value)


def _march(problem, wvals, q):
    """One Numerov pass over wvals at q: its node count and float.hex mismatch."""
    h = (problem.r_cut - problem.r_min) / (len(wvals) - 1)
    kappa = math.sqrt(max(wvals[-1] - q, 1e-12))
    nodes, g = oracle._numerov_outward(
        wvals, h, q, problem.origin_exponent, problem.r_min, kappa,
        problem.origin_w0, problem.origin_w2,
    )
    return f"{nodes} {float.hex(g)}"


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestKernelDigest:
    """sha256 pins of the Numerov march's bits and of every ShootResult
    field: any change to the order of the arithmetic in a pass shows
    here.  TestWarmStart cannot show one, as its cold reference calls
    the same march.  The values and the work are pinned apart, so a
    change that saves passes re-pins only the work."""

    WELLS = test_acceptance.TestCriterion2.WELLS

    def test_march(self):
        cases = [(harmonic_problem(npts=4001), [(4 * n + 1, 4 * n + 5) for n in range(3)])]
        cases += [
            (_pt_level(*well, 0)[0], [_pt_level(*well, n)[1] for n in range(3)])
            for well in self.WELLS
        ]
        lines = []
        for problem, brackets in cases:
            for doublings in (0, 1):  # 4001 and 8001 points
                wvals = oracle._mesh_w(problem, doublings)
                for lo, hi in brackets:
                    lines += [_march(problem, wvals, lo + (hi - lo) * i / 6) for i in range(7)]
        # Far below the levels u grows past 1e250 and is rescaled: twice
        # on the strong well, once on the weak core.
        for well, q in ((TestWarmStart.STRONG_WELL, -1e5), (TestFourthOrder.WEAK_CORE_WELL, -1e4)):
            problem = _pt_level(*well, 0)[0]
            lines.append(_march(problem, oracle._mesh_w(problem, 1), q))
        # One non-finite w where u > 0 (r = 0.45) or u < 0 (r = 3.375): NaN
        # poisons the march, +-inf first gives u = +-0.
        problem = harmonic_problem()
        for i in (200, 1500):
            for bad in (math.nan, math.inf, -math.inf):
                wvals = oracle._mesh_w(problem, 1)
                wvals[i] = bad
                lines.append(_march(problem, wvals, 7.0))
        assert _digest(lines) == (
            "5921333edac3af0d36c7976066dc0e09ed6adcc5f101cc54e1baa4454ce3e49d"
        )

    def test_shoot_results(self):
        lines = [
            f"{float.hex(res.value)} {res.npts} {res.refinements} "
            f"{' '.join(map(float.hex, res.gaps))}"
            for res in _criterion2_results()
        ]
        assert _digest(lines) == (
            "33939c01b604b05c06c19d91fd989124c2b2524e751304169056560b873fdcef"
        )

    def test_shoot_work(self):
        # 302 passes and 6,443,710 points before the Newton shots, 241 and
        # 4,821,075 with them and the warm replay and widening search, 241
        # and 4,816,557 with the bracket checked against the shot record,
        # 186 and 1,909,994 with the three-term seed, 166 and 1,705,723
        # with lattice shots and the h^4 guess, 155 and 1,706,973 with
        # three rungs, the finer two rough, and the fitted order.
        lines = [f"{res.passes} {res.points}" for res in _criterion2_results()]
        assert _digest(lines) == (
            "5d057984276477698f2beb03f4cd7303e6e4ce8c57e9de98f14a5194729f9a47"
        )
