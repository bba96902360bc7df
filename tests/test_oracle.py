"""Independent numerical cross-check machinery: quadrature, derivatives,
outward shooting.  These routines must stand on their own, so they are
validated against problems with known closed-form answers."""

import hashlib
import math
import sys
from dataclasses import replace

import pytest

from ptbound import oracle
from ptbound.errors import ConvergenceError, NodeCountError, OverflowRangeError
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


def _cold_mesh_value(problem, n, lo, hi, npts, xtol):
    """Reference mesh search: bisect the whole bracket, shooting every midpoint."""
    h = (problem.r_cut - problem.r_min) / (npts - 1)
    wvals = [problem.w(problem.r_min + i * h) for i in range(npts)]
    parity = 1.0 if n % 2 == 0 else -1.0

    def above(q):
        kappa = math.sqrt(max(wvals[-1] - q, 1e-12))
        nodes, g = oracle._numerov_outward(
            wvals, h, q, problem.origin_exponent, problem.r_min, kappa, problem.origin_w0
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


class TestStall:
    def test_stall_carries_the_last_mesh_value(self):
        # One doubling is not enough on this level: the 4001- and 8001-point
        # values differ by 7.1e-6, far above the 1e-9 tolerance.
        problem, bracket = _pt_level(-60.0, 0.5, 1.0, 0)
        with pytest.raises(ConvergenceError) as info:
            shoot_eigenvalue(problem, 0, bracket, max_refinements=1)
        assert str(info.value) == "mesh refinement stalled after 1 doublings (gap 7.149e-06)"
        lo, hi = bracket
        xtol = 1e-9 * max(1.0, abs(lo), abs(hi)) * 1e-2
        assert info.value.estimate == _cold_mesh_value(problem, 0, lo, hi, 8001, xtol)


class TestWarmStart:
    """Each refined mesh starts from the previous mesh's value, and every
    mesh squeezes the level with Brent's method on the tail mismatch
    before its bisection; the results must be the cold search's, bit for
    bit, in a fraction of its Numerov passes."""

    STRONG_WELL = (-150.0, 3.0, 1.3)  # criterion 2's: two meshes, 38 passes each when cold
    REFINING_WELL = (-60.0, 0.5, 1.0)  # n = 0 refines four times, to 64k points

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
        assert res.passes <= 20
        assert res.points <= 30_000  # 32,013-38,015 with a cold first mesh

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_strong_well(self, n):
        problem, bracket = _pt_level(*self.STRONG_WELL, n)
        res = self._check(problem, n, bracket)
        assert res.passes <= 24
        assert res.points <= 60_000  # 84,017-92,019 with a cold first mesh

    def test_refining_well(self):
        problem, bracket = _pt_level(*self.REFINING_WELL, 0)
        res = self._check(problem, 0, bracket)
        assert res.refinements == 4
        assert res.passes <= 50

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
        assert res.passes <= 20

    def test_far_guess_widens_to_bracket(self):
        problem, (lo, hi) = _pt_level(*self.STRONG_WELL, 1)
        xtol = 1e-9 * max(1.0, abs(lo), abs(hi)) * 1e-2
        npts = 2 * problem.npts - 1
        wvals = oracle._mesh_w(problem, npts)
        value, _ = oracle._solve_on_mesh(problem, 1, lo, hi, wvals, xtol, lo, 2 * xtol)
        assert value == _cold_mesh_value(problem, 1, lo, hi, npts, xtol)


class TestCoarseRungs:
    """The first mesh is warm-started from two coarse rungs made of its
    own points; without a usable rung it runs cold, and either way the
    result is the cold search's."""

    def test_rungs_take_the_first_mesh_points(self):
        problem = harmonic_problem()
        assert oracle._rung_guess(problem, 0, 1.0, 5.0, oracle._mesh_w(problem, 2001), 1e-11)[0]
        calls = []

        def w(r):
            calls.append(r)
            return problem.w(r)

        res = shoot_eigenvalue(replace(problem, w=w), 0, (1.0, 5.0))
        assert len(calls) == res.npts

    def test_no_rung_pair_runs_cold(self):
        # 2002 intervals halve only once
        problem = harmonic_problem(npts=2003)
        wvals = oracle._mesh_w(problem, problem.npts)
        assert oracle._rung_guess(problem, 0, 1.0, 5.0, wvals, 1e-11) == (None, 0.0, 0)
        res = shoot_eigenvalue(problem, 0, (1.0, 5.0))
        assert (res.value, res.npts, res.refinements, res.gaps[-1]) == _cold_shoot(
            problem, 0, (1.0, 5.0)
        )

    def test_coarse_rung_outside_bracket(self):
        # The 126-point rung puts the level at 2.9999985, below the
        # bracket; the first mesh puts it at 2.99999999997.
        problem, bracket = harmonic_problem(), (2.9999995, 3.5)
        wvals = oracle._mesh_w(problem, problem.npts)
        with pytest.raises(NodeCountError):
            oracle._solve_on_mesh(problem, 0, *bracket, wvals[::16], 1e-11)
        assert oracle._rung_guess(problem, 0, *bracket, wvals, 1e-11) == (None, 0.0, 0)
        res = TestWarmStart._check(problem, 0, bracket)
        assert res.value == pytest.approx(3.0, rel=1e-9)

    def test_fine_rung_node_count_error(self, monkeypatch):
        problem, bracket = _pt_level(*TestWarmStart.STRONG_WELL, 1)
        solve, failed = oracle._solve_on_mesh, []

        def fine_rung_fails(problem, n, lo, hi, wvals, *args):
            if len(wvals) == 251:
                failed.append(args)
                raise NodeCountError("rung")
            return solve(problem, n, lo, hi, wvals, *args)

        monkeypatch.setattr(oracle, "_solve_on_mesh", fine_rung_fails)
        TestWarmStart._check(problem, 1, bracket)
        assert len(failed) == 1

    def test_error_is_the_first_mesh_error(self):
        # The coarse rung holds the level; the first mesh does not.
        with pytest.raises(NodeCountError, match="upper bracket edge 2.9999995 still lies below"):
            shoot_eigenvalue(harmonic_problem(), 0, (1.0, 2.9999995))


class TestMeshReuse:
    """A refined mesh takes w at its even points from the coarse mesh;
    the values must be those of a fresh evaluation, bit for bit."""

    @pytest.mark.parametrize(
        "problem",
        [harmonic_problem(), _pt_level(-45.0, 0.1, 0.8, 0)[0]],
        ids=["harmonic", "weak_core"],
    )
    def test_interleaved_equals_fresh(self, problem):
        npts = problem.npts
        for _ in range(6):
            npts = 2 * npts - 1
            fresh = replace(problem, w=lambda r: problem.w(r))
            assert oracle._mesh_w(problem, npts) == oracle._mesh_w(fresh, npts)


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
        first = oracle._mesh_w(problem, 4001)
        expected = list(first)
        first[:] = [math.nan] * len(first)
        assert oracle._mesh_w(problem, 4001) == expected
        fine = oracle._mesh_w(problem, 8001)
        fine[0] = math.inf
        assert oracle._mesh_w(problem, 8001)[0] == expected[0]
        assert oracle._mesh_w(problem, 4001) == expected

    def test_meshes_off_the_doubling_ladder(self):
        # 3001 points are not 4001 halved or doubled: built fresh, and
        # the kept mesh is unchanged.
        problem = replace(harmonic_problem(), w=lambda r: r * r)
        counting = _CountingW(problem.w)
        shared = replace(problem, w=counting)
        oracle._mesh_w(shared, 4001)
        odd = oracle._mesh_w(shared, 3001)
        assert odd == oracle._mesh_w(replace(problem, w=lambda r: r * r), 3001)
        assert oracle._mesh_w(shared, 1001) == oracle._mesh_w(problem, 4001)[::4]
        assert counting.calls == 4001 + 3001

    def test_radial_problem_is_rebuilt_only_for_new_arguments(self):
        pot, ctx = PTPotential(-150.0, 3.0, 1.3), NRContext.natural(mu=0.5)
        first = pt_radial_problem(pot, ctx, 1, k1_estimate=-100.0)
        again = pt_radial_problem(PTPotential(-150.0, 3.0, 1.3), ctx, 1, k1_estimate=-100.0)
        assert again is first
        # Equal arguments of another type are built anew.
        assert pt_radial_problem(pot, ctx, 1.0, k1_estimate=-100.0) is not first
        assert pt_radial_problem(pot, ctx, 1, k1_estimate=-101.0).r_cut != first.r_cut


class TestFourthOrder:
    """Blatt's summed Numerov form and the two-term Frobenius seed leave
    no round-off floor or origin error above the tolerances the solver
    is run at, so the gaps shrink at the method's h^4 order."""

    WEAK_CORE_WELL = (-45.0, 0.1, 0.8)  # criterion 2's; n = 2 refines to 128k points
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
        gaps = shoot_eigenvalue(problem, 2, bracket).gaps
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
        assert res.npts <= 128_001
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
        wvals, h, q, problem.origin_exponent, problem.r_min, kappa, problem.origin_w0
    )
    return f"{nodes} {float.hex(g)}"


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestKernelDigest:
    """sha256 pins of the Numerov march's bits and of every ShootResult
    field: any change to the order of the arithmetic in a pass shows
    here.  TestWarmStart cannot show one, as its cold reference calls
    the same march."""

    WELLS = test_acceptance.TestCriterion2.WELLS

    def test_march(self):
        cases = [(harmonic_problem(), [(4 * n + 1, 4 * n + 5) for n in range(3)])]
        cases += [
            (_pt_level(*well, 0)[0], [_pt_level(*well, n)[1] for n in range(3)])
            for well in self.WELLS
        ]
        lines = []
        for problem, brackets in cases:
            for npts in (4001, 8001):
                wvals = oracle._mesh_w(problem, npts)
                for lo, hi in brackets:
                    lines += [_march(problem, wvals, lo + (hi - lo) * i / 6) for i in range(7)]
        # Far below the levels u grows past 1e250 and is rescaled: twice
        # on the strong well, once on the weak core.
        for well, q in ((TestWarmStart.STRONG_WELL, -1e5), (TestFourthOrder.WEAK_CORE_WELL, -1e4)):
            problem = _pt_level(*well, 0)[0]
            lines.append(_march(problem, oracle._mesh_w(problem, 8001), q))
        # One non-finite w where u > 0 (r = 0.45) or u < 0 (r = 3.375): NaN
        # poisons the march, +-inf first gives u = +-0.
        problem = harmonic_problem()
        for i in (200, 1500):
            for bad in (math.nan, math.inf, -math.inf):
                wvals = oracle._mesh_w(problem, 4001)
                wvals[i] = bad
                lines.append(_march(problem, wvals, 7.0))
        assert _digest(lines) == (
            "44e97193bfa2484a294888c437fc388cd2a848a276f4c8f7debcdedf6e146010"
        )

    def test_shoot_results(self):
        lines = []
        for well in self.WELLS:
            for n in range(3):
                problem, bracket = _pt_level(*well, n)
                res = shoot_eigenvalue(problem, n, bracket)
                lines.append(
                    f"{float.hex(res.value)} {res.npts} {res.refinements} {res.passes} "
                    f"{res.points} {' '.join(map(float.hex, res.gaps))}"
                )
        assert _digest(lines) == (
            "fe2a2fd8af739b3d07c4888298a0bbe34a33519d88610d84bfbff26b47394b64"
        )
