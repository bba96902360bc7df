"""Nonrelativistic hyperbolic-well spectra: closed forms, branches,
wavefunctions, and the shooting cross-check."""

import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ptbound.dirac import DiracContext, plain_params, spinor_wavefunction, tilde_params
from ptbound.errors import DomainError, NodeCountError, OverflowRangeError
from ptbound.oracle import (
    finite_difference, harmonic_problem, integrate_adaptive, shoot_eigenvalue,
)
from ptbound.schrodinger import (
    NRContext,
    PTPotential,
    centrifugal_approx_residual,
    energy_from_k1,
    energy_nr,
    k1_from_energy,
    level_count,
    potential_value,
    pt_aim_problem,
    pt_radial_problem,
    spectral_params,
    wavefunction_nr,
)
from ptbound.thermo import ThermoContext, partition_sum

import strategies as S

POT = PTPotential(A=-30.0, B=2.3, alpha=1.0)
CTX = NRContext.natural(mu=0.5)  # 2 mu / hbar^2 = 1


class TestPotential:
    @pytest.mark.filterwarnings("error")
    def test_numpy_scalar_fields_are_floats(self):
        # Stored as floats where they enter: a numpy alpha once reached
        # require_normal_square's power, which warned about its overflow
        # before the DomainError.
        pot = PTPotential(np.float64(-1.0), np.float64(0.0), np.float64(1e150))
        ctx = NRContext(np.float64(1.0), np.float64(1e10))
        assert all(type(v) is float for v in (pot.A, pot.B, pot.alpha, ctx.mu, ctx.hbar_c))
        with pytest.raises(DomainError, match=r"\(alpha hbar_c\)\*\*2 must be a normal double"):
            energy_nr(pot, ctx, 0, 0)

    def test_values(self):
        pot = PTPotential(A=-4.0, B=1.0, alpha=2.0)
        r = 0.7
        x = 2.0 * 0.7
        expect = -4.0 / math.cosh(x) ** 2 + 1.0 / math.sinh(x) ** 2
        assert potential_value(pot, r) == pytest.approx(expect, rel=1e-15)

    def test_origin_without_core(self):
        assert potential_value(PTPotential(A=-4.0, B=0.0, alpha=1.0), 0.0) == -4.0

    def test_vanishes_at_infinity(self):
        assert abs(potential_value(POT, 40.0)) < 1e-30

    def test_tail_past_the_cosh_range(self):
        # past alpha r = 355, cosh^2 and sinh^2 overflow and V is formed in
        # logs as (A + B) 4 exp(-2 alpha r); at 354.9 it is the direct form
        pot = PTPotential(A=-1e300, B=1e299, alpha=-1.0)
        for r in (354.9, 355.1, 400.0):
            expect = -math.exp(math.log(3.6e300) - 2.0 * r)
            assert potential_value(pot, r) == pytest.approx(expect, rel=1e-12, abs=0.0)


class TestEnergyRoutes:
    """The direct bracket expression and the quantized-K1 route must agree
    algebraically; they are computed independently on purpose."""

    CASES = [
        (PTPotential(-30.0, 2.3, 1.0), 0, 0),
        (PTPotential(-30.0, 2.3, 1.0), 2, 1),
        (PTPotential(-12.0, 0.0, 0.7), 1, 0),
        (PTPotential(-50.0, 5.0, 1.3), 3, 2),
        (PTPotential(-8.0, 1.0, 2.0), 0, 4),
    ]

    @pytest.mark.parametrize("pot,n,l", CASES)
    @pytest.mark.parametrize("branch", ["paper", "regular"])
    def test_bracket_equals_k1_route(self, pot, n, l, branch):
        par = spectral_params(pot, CTX, l, branch)
        via_k1 = energy_from_k1(CTX, pot.alpha, l, par.k1(n))
        direct = energy_nr(pot, CTX, n, l, branch)
        assert direct == pytest.approx(via_k1, rel=1e-13, abs=1e-13)

    def test_k1_energy_roundtrip(self):
        for k1 in (-24.0406647505, -0.5, -118.878):
            e = energy_from_k1(CTX, 1.0, 3, k1)
            assert k1_from_energy(CTX, 1.0, 3, e) == pytest.approx(k1, rel=1e-14)

    def test_branches_disagree(self):
        # The exponent pairs give genuinely different spectra; the gap is
        # the published-formula vs regular-spectrum discrepancy.
        e_paper = energy_nr(POT, CTX, 0, 0, "paper")
        e_regular = energy_nr(POT, CTX, 0, 0, "regular")
        assert abs(e_paper - e_regular) > 1.0

    def test_free_case(self):
        # A = B = 0, l = 0: bracket collapses to -(2 alpha^2 hbar^2/mu)(n+1/2)^2
        pot = PTPotential(0.0, 0.0, 1.0)
        assert energy_nr(pot, CTX, 0, 0) == pytest.approx(-1.0, rel=1e-14)
        zeta, n_max = level_count(pot, CTX, 0)
        assert zeta == pytest.approx(-0.5)
        assert n_max == 0

    def test_attractive_core_lifted_by_the_centrifugal_term(self):
        # 1 + 8 mu B/(alpha hbar)^2 = -3 < 0 <= (2l+1)^2 + 8 mu B/(alpha hbar)^2 = 5:
        # the printed count has no real root here, but the l = 1 energy does.
        # It is the K1 route's value, k1(0) plus the 4 l(l+1) alpha^2 d0 offset.
        pot = PTPotential(-10.0, -1.0, 1.0)
        with pytest.raises(DomainError, match="core-strength discriminant negative: -3.0"):
            level_count(pot, CTX, 1)
        assert spectral_params(pot, CTX, 1).k1(0) == -9.508145728294881
        assert energy_nr(pot, CTX, 0, 1) == -8.841479061628215


class TestAlphaSignSymmetry:
    @given(
        st.floats(min_value=-50.0, max_value=-1.0),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.5, max_value=3.0),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=80)
    def test_energy_even_in_alpha(self, a, b, alpha, n, l):
        e_pos = energy_nr(PTPotential(a, b, alpha), CTX, n, l)
        e_neg = energy_nr(PTPotential(a, b, -alpha), CTX, n, l)
        assert e_pos == e_neg

    def test_wavefunction_even_in_alpha(self):
        for r in (0.3, 1.0, 2.5):
            up = wavefunction_nr(POT, CTX, 1, 0, r, "regular", "squared")
            un = wavefunction_nr(PTPotential(POT.A, POT.B, -POT.alpha), CTX, 1, 0, r, "regular", "squared")
            assert up == un

    def test_level_count_even_in_alpha(self):
        za, _ = level_count(POT, CTX, 2)
        zb, _ = level_count(PTPotential(POT.A, POT.B, -POT.alpha), CTX, 2)
        assert za == zb


class TestCentrifugalSubstitution:
    def test_small_x_leading_term(self):
        # residual ~ -(x^2)/15 for small x
        r = 0.05
        assert centrifugal_approx_residual(1, 1.0, r) == pytest.approx(
            -(r * r) / 15.0, rel=1e-3
        )

    def test_series_direct_continuity(self):
        # direct evaluation cancels ~5 digits at the cut, so the match is
        # limited by that, not by the series
        below = centrifugal_approx_residual(1, 1.0, 0.0999999)
        above = centrifugal_approx_residual(1, 1.0, 0.1000001)
        assert below == pytest.approx(above, rel=1e-4)

    @pytest.mark.parametrize("alpha, r", [(1.0, 0.05), (100.0, 1.0), (1.0, 2.0), (1.0, 800.0)])
    def test_even_in_alpha(self, alpha, r):
        # a negative alpha took the small-x series, and alpha r > 355 overflowed
        value = centrifugal_approx_residual(1, alpha, r)
        assert centrifugal_approx_residual(1, -alpha, r) == value
        assert value == pytest.approx(
            1.0 / (alpha * r) ** 2 - 1.0 / 3.0 - 1.0 / math.sinh(min(alpha * r, 300.0)) ** 2,
            rel=1e-6, abs=1e-9,
        )

    def test_grows_at_large_x(self):
        # the substitution is a small-x device; by x ~ 2 the error is O(0.1)
        assert abs(centrifugal_approx_residual(1, 1.0, 2.0)) > 0.05


class TestWavefunction:
    def test_node_counts_regular_squared(self):
        # level n has n interior sign changes on the regular pair
        for n, expected in ((0, 0), (1, 1)):
            rs = [0.02 + 6.0 * i / 800 for i in range(801)]
            vals = [wavefunction_nr(POT, CTX, n, 0, r, "regular", "squared") for r in rs]
            nodes = sum(1 for a, b in zip(vals, vals[1:]) if (a < 0) != (b < 0))
            assert nodes == expected

    def test_published_form_hides_the_node(self):
        # the published (paper-pair, linear-argument) expression for n = 1
        # never changes sign: it cannot be the n = 1 bound state
        rs = [0.02 + 6.0 * i / 800 for i in range(801)]
        vals = [wavefunction_nr(POT, CTX, 1, 0, r, "paper", "linear") for r in rs]
        nodes = sum(1 for a, b in zip(vals, vals[1:]) if (a < 0) != (b < 0))
        assert nodes == 0

    @pytest.mark.parametrize(
        "branch,argument,solves",
        [("regular", "squared", True), ("regular", "linear", False), ("paper", "squared", True)],
    )
    def test_radial_equation_residual(self, branch, argument, solves):
        # plug u into u'' = (w - K1) u; only the squared-argument variant
        # satisfies the equation (on either exponent pair)
        par = spectral_params(POT, CTX, 0, branch)
        q = par.k1(1)
        worst = 0.0
        for r in (0.4, 0.8, 1.3, 2.0):
            u = lambda x: wavefunction_nr(POT, CTX, 1, 0, x, branch, argument)
            d2, _ = finite_difference(u, r, order=2, h=1e-3)
            w = par.a1 / math.cosh(r) ** 2 + par.b1 / math.sinh(r) ** 2
            resid = d2 - (w - q) * u(r)
            scale = abs(d2) + abs((w - q) * u(r)) + 1e-30
            worst = max(worst, abs(resid) / scale)
        if solves:
            assert worst < 1e-6
        else:
            assert worst > 1e-2

    def test_square_integrable(self):
        norm2 = integrate_adaptive(
            lambda r: wavefunction_nr(POT, CTX, 1, 0, r, "regular", "squared") ** 2,
            1e-4,
            12.0,
            tol=1e-10,
        )
        assert math.isfinite(norm2) and norm2 > 0.0
        tail = integrate_adaptive(
            lambda r: wavefunction_nr(POT, CTX, 1, 0, r, "regular", "squared") ** 2,
            12.0,
            24.0,
            tol=1e-12,
        )
        assert tail < 1e-6 * norm2

    def test_ground_state_is_nodeless_product(self):
        # n = 0: the polynomial factor is 1, so u = cosh^gamma sinh^beta
        par = spectral_params(POT, CTX, 0, "regular")
        r = 1.1
        expect = math.cosh(r) ** par.gamma * math.sinh(r) ** par.beta
        assert wavefunction_nr(POT, CTX, 0, 0, r, "regular", "squared") == pytest.approx(
            expect, rel=1e-13
        )

    def test_origin_cutoff_on_divergent_branch(self):
        with pytest.raises(DomainError, match="divergent-exponent"):
            wavefunction_nr(POT, CTX, 0, 0, 1e-12, "paper", "linear")

    def test_overflow_raises(self):
        # The paper-branch amplitude grows like exp(4.9 alpha r): past the
        # double range at r = 800.
        with pytest.raises(OverflowRangeError, match="amplitude at r=800.0"):
            wavefunction_nr(POT, CTX, 0, 0, 800.0, "paper")

    @pytest.mark.parametrize("r", [339.0, 340.0, 400.0, 800.0])
    def test_tiny_amplitude_is_zero(self, r):
        # cosh^-5 sinh^2.097 decays like exp(-2.9 alpha r); sinh^beta alone
        # overflows from r = 340 on, and cosh and sinh from r = 711.
        assert wavefunction_nr(POT, CTX, 0, 0, r) == 0.0

    def test_underflowed_factor_is_combined_in_logs(self):
        # gamma = -20, beta = 19.5: cosh^gamma underflows at r = 50, where
        # u = tanh^19.5 / sqrt(cosh) is about 2e-11.
        pot = PTPotential(A=-420.0, B=360.75, alpha=1.0)
        par = spectral_params(pot, CTX, 0, "regular")
        assert (par.gamma, par.beta) == (-20.0, 19.5)
        expect = math.tanh(50.0) ** 19.5 / math.sqrt(math.cosh(50.0))
        assert wavefunction_nr(pot, CTX, 0, 0, 50.0) == pytest.approx(expect, rel=1e-12)

    def test_overflowed_factor_is_combined_in_logs(self):
        # Paper branch, gamma = 6: cosh^gamma overflows at r = 130, where
        # u = cosh^(gamma + beta) / tanh^beta is about 1e275.
        par = spectral_params(POT, CTX, 0, "paper")
        expect = math.cosh(130.0) ** (par.gamma + par.beta) / math.tanh(130.0) ** par.beta
        u = wavefunction_nr(POT, CTX, 0, 0, 130.0, "paper")
        assert u == pytest.approx(expect, rel=1e-12)

    def test_high_level_overflow_raises(self):
        # the lead's 2**n leaked a bare OverflowError from n = 1024 on
        with pytest.raises(OverflowRangeError):
            wavefunction_nr(PTPotential(-30.0, 2.3, 1.0), NRContext.natural(0.5), 1100, 0, 0.01)


# Each case builds one amplitude from the drawn parameters and returns its
# 2F1 lower parameter c with a call that evaluates it.  Its exponents are
# real where p A <= alpha^2 and -p B <= (j alpha)^2, with the scale p and
# odd integer j that its region gives at (mass, kappa, x).  A Schrodinger
# case reads kappa as the orbital l it belongs to (kappa = l or -(l + 1))
# and ignores the energy x, which only the spinor needs.
def _orbital(kappa):
    return kappa if kappa > 0 else -kappa - 1


def _nr_amplitude(branch, argument):
    def case(pot, mass, n, kappa, x, r):
        ctx = NRContext.natural(mu=mass)
        l = _orbital(kappa)
        par = spectral_params(pot, ctx, l, branch)
        c = par.beta + (1.0 if argument == "linear" else 0.5)
        return c, lambda: wavefunction_nr(pot, ctx, n, l, r, branch, argument)
    return (lambda mass, kappa, x: (8.0 * mass, 2 * _orbital(kappa) + 1)), case


def _spinor_amplitude(component):
    params, side = (tilde_params, -1) if component == "lower" else (plain_params, 1)

    def case(pot, mass, n, kappa, x, r):
        ctx = DiracContext(M=mass, kappa=kappa, n=n)
        c = 2.0 * params(x * mass, ctx, pot).beta2 + 0.5
        return c, lambda: spinor_wavefunction(component, ctx, pot, x * mass, r)
    return (lambda mass, kappa, x: (4.0 * (x + side) * mass, 2 * kappa + side)), case


AMPLITUDES = {
    f"{branch}-{argument}": _nr_amplitude(branch, argument)
    for branch in ("regular", "paper") for argument in ("linear", "squared")
} | {f"spinor-{component}": _spinor_amplitude(component) for component in ("upper", "lower")}


class TestAmplitudeDomain:
    """Both closed-form amplitudes, on input inside their domain and past
    the origin cutoff, return a finite value or raise OverflowRangeError:
    an amplitude the double range cannot hold is never a domain error.
    The only DomainError is the 2F1 of a c that is a nonpositive integer
    > -n, where it is undefined."""

    @staticmethod
    def _check(amplitude, pot, mass, n, kappa, x, r):
        r = max(r, 1e-8 / abs(pot.alpha))
        try:
            c, evaluate = AMPLITUDES[amplitude][1](pot, mass, n, kappa, x, r)
        except DomainError:
            assume(False)  # a strength drawn on the rounded edge of its region
        try:
            u = evaluate()
        except OverflowRangeError:
            return
        except DomainError:
            assert c == math.floor(c) and -(n - 1) <= c <= 0.0
            return
        assert math.isfinite(u)

    @pytest.mark.parametrize("amplitude", AMPLITUDES)
    @given(
        data=st.data(),
        alpha=S.alphas,
        mass=S.masses,
        n=st.integers(min_value=0, max_value=5),
        kappa=S.kappas,
        x=S.mass_units,
        r=st.floats(min_value=0.0, max_value=1e3),
    )
    @settings(max_examples=200)
    def test_finite_or_overflow(self, amplitude, data, alpha, mass, n, kappa, x, r):
        # A and B from the shared potentials' ranges, where the exponents are real
        p, j = AMPLITUDES[amplitude][0](mass, kappa, x)
        (a_lo, a_hi), (b_lo, b_hi) = S.A_RANGE, S.B_RANGE
        if p > 0.0:
            a_hi, b_lo = min(a_hi, alpha**2 / p), max(b_lo, -((j * alpha) ** 2) / p)
        elif p < 0.0:
            a_lo, b_hi = max(a_lo, alpha**2 / p), min(b_hi, -((j * alpha) ** 2) / p)
        a = data.draw(st.floats(min_value=a_lo, max_value=a_hi), label="A")
        b = data.draw(st.floats(min_value=b_lo, max_value=b_hi), label="B")
        self._check(amplitude, PTPotential(a, b, alpha), mass, n, kappa, x, r)

    # the lower spinor has no real exponents at these parameters
    @pytest.mark.parametrize("amplitude", [name for name in AMPLITUDES if name != "spinor-lower"])
    def test_sinh_squared_past_range(self, amplitude):
        # sinh^2 overflows at r = 400 while sinh does not
        self._check(amplitude, PTPotential(-2.0, 0.1, 1.0), 0.5, 1, -1, 0.0, 400.0)


class TestShootingCrossCheck:
    def test_natural_unit_well(self):
        reg = spectral_params(POT, CTX, 0, "regular")
        prob = pt_radial_problem(POT, CTX, 0, k1_estimate=reg.k1(0))
        res0 = shoot_eigenvalue(prob, 0, (reg.k1(0) - 2.0, reg.k1(0) + 0.5), tol=1e-9)
        assert res0.value == pytest.approx(reg.k1(0), rel=1e-8)
        res1 = shoot_eigenvalue(prob, 1, (-4.0, -0.2), tol=1e-9)
        assert res1.value == pytest.approx(reg.k1(1), rel=1e-8)

    def test_regular_level_past_printed_count(self):
        # The printed level count gives n_max = 0 on criterion 2's strong
        # core, but the regular pair still decays at n = 3 and shooting
        # finds that level at its closed-form value.
        pot = PTPotential(A=-150.0, B=3.0, alpha=1.3)
        assert level_count(pot, CTX, 0).n_max == 0
        reg = spectral_params(pot, CTX, 0, "regular")
        n = 3
        assert reg.bound_possible(n)
        closed = reg.k1(n)
        prob = pt_radial_problem(pot, CTX, 0, k1_estimate=closed)
        res = shoot_eigenvalue(prob, n, (0.5 * (closed + reg.k1(n - 1)), 0.5 * closed), tol=1e-9)
        assert res.value == pytest.approx(closed, rel=1e-8)

    # criterion 2's wells (tests/test_acceptance.py), at l = 0 and l = 1
    @pytest.mark.parametrize("l", [0, 1])
    @pytest.mark.parametrize(
        "well", [(-60.0, 0.5, 1.0), (-100.0, 2.0, 1.0), (-45.0, 0.1, 0.8), (-150.0, 3.0, 1.3),
                 (-75.0, 1.2, 1.1)],
    )
    def test_shooting_finds_exactly_the_regular_levels(self, well, l):
        # The regular pair admits levels n = 0..N (Poschl and Teller's
        # count); the printed count admits none.  Shooting finds each of
        # them at k1(n) and nothing above, and their Boltzmann sum is the
        # thermodynamic ladder at zeta_reg = -(gamma + beta)/2, tau = 1/(2 alpha).
        pot = PTPotential(*well)
        reg = spectral_params(pot, CTX, l, "regular")
        top = max(n for n in range(10) if reg.bound_possible(n))
        assert top in (2, 3)
        assert level_count(pot, CTX, l).n_max == 0
        prob = pt_radial_problem(pot, CTX, l, k1_estimate=reg.k1(top))
        shot = []
        for n in range(top + 1):
            deeper = reg.k1(n - 1) if n else 1.44 * reg.k1(0)
            upper = 0.5 * (reg.k1(n) + reg.k1(n + 1)) if n < top else 0.5 * reg.k1(top)
            # With the two-term origin seed the top levels of (-45, 0.1, 0.8)
            # at l = 0 and (-150, 3, 1.3) at l = 1 stalled at the default 6
            # refinements, with mesh gaps near 1.3e-9, and the worst level
            # lay 1.1e-7 from k1(n) even at 8.
            res = shoot_eigenvalue(prob, n, (0.5 * (reg.k1(n) + deeper), upper), tol=1e-9)
            assert res.value == pytest.approx(reg.k1(n), rel=1e-9)
            shot.append(res.value)
        with pytest.raises(NodeCountError):
            shoot_eigenvalue(prob, top + 1, (0.5 * reg.k1(top), -1e-6), tol=1e-9)
        ladder = ThermoContext(-0.5 * (reg.gamma + reg.beta), 0.5 / pot.alpha)
        for beta in (0.01, 0.05, 0.2):
            boltzmann = math.fsum(math.exp(-beta * q) for q in shot)
            assert boltzmann == pytest.approx(partition_sum(ladder, beta, top), rel=1e-7)

    def test_molecule_scale_well(self):
        # CO-sized reduced mass and range parameter with a binding core
        mu = 6.860586 * 931.494061e6
        ctx = NRContext(mu=mu)
        pot = PTPotential(A=-2.0, B=0.2, alpha=2.2994)
        reg = spectral_params(pot, ctx, 0, "regular")
        prob = pt_radial_problem(pot, ctx, 0, k1_estimate=reg.k1(0))
        for n in (0, 1):
            k1n = reg.k1(n)
            lo = k1n + 0.5 * ((reg.k1(n - 1) if n else 1.2 * k1n) - k1n)
            hi = k1n + 0.5 * (reg.k1(n + 1) - k1n)
            res = shoot_eigenvalue(prob, n, (lo, hi), tol=1e-8)
            assert res.value == pytest.approx(k1n, rel=1e-6)

    def test_exact_centrifugal_route_quantifies_substitution(self):
        # l > 0: solve the raw equation (true l(l+1)/r^2) and compare with
        # the closed form built on the approximate substitution.  They
        # must be close but NOT identical at natural-unit x ~ 1.
        l = 1
        reg = spectral_params(POT, CTX, l, "regular")
        e_model = energy_nr(POT, CTX, 0, l, "regular")
        q_expect = 2.0 * CTX.mu * e_model / CTX.hbar_c**2
        prob = pt_radial_problem(POT, CTX, l, centrifugal="exact", k1_estimate=reg.k1(0))
        res = shoot_eigenvalue(prob, 0, (q_expect - 2.0, q_expect + 2.0), tol=1e-9)
        rel = abs(res.value - q_expect) / abs(q_expect)
        assert rel < 0.2, "substitution error should stay moderate"
        assert rel > 1e-6, "the two routes are genuinely different equations"

    def test_substitution_gap_shrinks_as_alpha_squared(self):
        # Same potential shape at shrinking alpha: the gap between the
        # raw-centrifugal eigenvalue and the closed form built on the
        # approximate substitution falls off at order >= 1.8 per octave
        # (measured orders 3.9, 2.7, 2.3 across this decade).
        l = 1
        gaps = []
        for alpha in (1.0, 0.5, 0.25, 0.1):
            pot = PTPotential(A=-30.0, B=2.3, alpha=alpha)
            reg = spectral_params(pot, CTX, l, "regular")
            e_model = energy_nr(pot, CTX, 0, l, "regular")
            q = 2.0 * CTX.mu * e_model / CTX.hbar_c**2
            prob = pt_radial_problem(
                pot, CTX, l, centrifugal="exact", k1_estimate=reg.k1(0)
            )
            span = abs(q) * 0.2 + 0.5 * alpha**2
            res = shoot_eigenvalue(prob, 0, (q - span, q + span), tol=1e-11)
            gaps.append((alpha, abs(res.value - q) / abs(q)))
        for (a_hi, g_hi), (a_lo, g_lo) in zip(gaps, gaps[1:]):
            order = math.log(g_hi / g_lo) / math.log(a_hi / a_lo)
            assert order >= 1.8
        decade = math.log(gaps[0][1] / gaps[-1][1]) / math.log(gaps[0][0] / gaps[-1][0])
        assert decade >= 1.8

    @pytest.mark.parametrize("centrifugal", ["approx", "exact"])
    def test_origin_w0_is_constant_term(self, centrifugal):
        # Near the origin w = s(s-1)/r^2 + origin_w0 + O(r^2): what is
        # left at alpha r = 1e-3 must be the r^2 term, so it quadruples
        # when r doubles (a wrong origin_w0 would leave it flat).
        pot = PTPotential(A=-30.0, B=2.3, alpha=1.3)
        prob = pt_radial_problem(pot, NRContext.natural(mu=0.8), 2, centrifugal=centrifugal)
        s = prob.origin_exponent

        def rest(r):
            return prob.w(r) - s * (s - 1.0) / r**2 - prob.origin_w0

        r = 1e-3 / pot.alpha
        assert abs(rest(r)) < 1e-4
        assert rest(2.0 * r) / rest(r) == pytest.approx(4.0, rel=1e-2)

    @pytest.mark.parametrize(
        "problem, r",
        [
            *(
                pytest.param(
                    pt_radial_problem(PTPotential(*well), NRContext.natural(mu=0.8), l,
                                      centrifugal=centrifugal),
                    1e-2 / well[2],
                    id=f"{well}-l{l}-{centrifugal}",
                )
                for well in ((-30.0, 2.3, 1.3), (-45.0, 0.1, 0.8), (-150.0, 3.0, 1.3))
                for l in (0, 1)
                for centrifugal in ("approx", "exact")
            ),
            pytest.param(harmonic_problem(omega=2.0), 1e-2, id="harmonic"),
        ],
    )
    def test_origin_coefficients_are_those_of_w(self, problem, r):
        # Near the origin w = s(s-1)/r^2 + origin_w0 + origin_w2 r^2 + O(r^4).
        # Each coefficient is read off w at r and 2r, with the next term's
        # r^2 dependence extrapolated away.  A wrong origin_w2 moves the
        # levels only near 1e-10, so this is what catches it.
        s = problem.origin_exponent

        def extrapolated(rest):
            return (4.0 * rest(r) - rest(2.0 * r)) / 3.0

        def w0_at(r):
            return problem.w(r) - s * (s - 1.0) / r**2

        def w2_at(r):
            return (w0_at(r) - problem.origin_w0) / r**2

        assert extrapolated(w0_at) == pytest.approx(problem.origin_w0, rel=1e-6, abs=1e-9)
        assert extrapolated(w2_at) == pytest.approx(problem.origin_w2, rel=1e-6)

    @pytest.mark.parametrize("centrifugal", ["approx", "exact"])
    def test_origin_r2_term_past_the_range_names_it(self, centrifugal):
        # alpha^2 A overflows, so the seed cannot take the r^2 term.
        with pytest.raises(OverflowRangeError, match=r"r\^2 term of w at the origin"):
            pt_radial_problem(PTPotential(-1e300, 0.1, 1e5), CTX, 0, centrifugal=centrifugal)

    @pytest.mark.parametrize("b", [1e8, 1e308])
    def test_core_past_the_window_names_the_core(self, b):
        # r_min grows with sqrt(B1); past r_cut = 40/alpha it is the core
        # strength that is out of range, not a window the caller passed.
        with pytest.raises(DomainError, match="core strength"):
            pt_radial_problem(PTPotential(-30.0, b, 1.0), CTX, 0)


def criterion1_wells():
    """The criterion-1 wells (tests/test_acceptance.py's draws)."""
    rng = random.Random(20260814)
    return [
        PTPotential(rng.uniform(-80.0, -5.0), rng.uniform(0.1, 5.0), rng.uniform(0.5, 2.0))
        for _ in range(10)
    ]


def coefficient_digest():
    """sha256 of float.hex of every coefficient of lambda0 and s0 on the
    criterion-1 wells, depths 1-9, both branches, at the default and an
    explicit expansion point: any change to the order of the arithmetic
    that builds them shows here.
    test_cli.py::test_aim_verify_bytes_do_not_depend_on_the_blas_kernel
    recomputes it under other BLAS kernels."""
    problems = (
        pt_aim_problem(pot, CTX, 0, depth, branch, z0)
        for pot in criterion1_wells() for depth in range(1, 10)
        for branch in ("paper", "regular") for z0 in (None, 0.8)
    )
    text = "\n".join(float.hex(float(c)) for p in problems for c in (*p.lambda0, *p.s0))
    return hashlib.sha256(text.encode()).hexdigest()


class TestAimProblem:
    @pytest.mark.parametrize("a, b", [(-30.0, 5e-324), (-1.0, 0.9999999999999999)])
    def test_minimum_abscissa_rounding_to_an_edge(self, a, b):
        # tanh = (B1/|A1|)^(1/4) rounds to 0 or to 1: the expansion point
        # came out as 0.0 (a DomainError about a z0 never passed) or the
        # map to z divided by zero.  The documented fallback is z = 1,
        # where s0 = -1 / (1 + z^2) is -1/2.
        assert pt_aim_problem(PTPotential(a, b, 1.0), CTX, 0, 3).s0[0] == -0.5

    def test_coefficient_digest(self):
        assert coefficient_digest() == (
            "4c7d41886b92b01baefb69607c680f54bfc38eb60ad33a56e12cc13a3668e873"
        )

    @pytest.mark.parametrize("depth", [1, 4, 9])
    def test_builds_the_orders_its_depth_reads(self, depth):
        assert pt_aim_problem(POT, CTX, 0, depth).max_order == depth

    @pytest.mark.parametrize("branch", ["paper", "regular"])
    def test_orders_do_not_depend_on_the_cut(self, branch):
        # Each product sums in one fixed order, so a build to order k has
        # the bits of the first k + 1 orders of a longer build (np.convolve
        # once rounded the top coefficient differently at each length).
        for pot in criterion1_wells():
            for depth in range(1, 10):
                cut = pt_aim_problem(pot, CTX, 0, depth, branch)
                long = pt_aim_problem(pot, CTX, 0, 2 * depth + 8, branch)
                for name in ("lambda0", "s0"):
                    want = [float.hex(c) for c in getattr(long, name)[: depth + 1]]
                    assert [float.hex(c) for c in getattr(cut, name)] == want, (pot, depth, name)

    @pytest.mark.filterwarnings("error")
    def test_expansion_point_overflow(self):
        # B far below |A| puts z0 near 0, where 1 / (z (1 + z^2)) has
        # coefficients near z0^-(k+1): with z0 = 1e-43, past the double
        # range from order 7 on (1e344), and depth 7 builds order 7.
        with pytest.raises(OverflowRangeError, match="z0=1e-43"):
            pt_aim_problem(PTPotential(-1e12, 1e-160, 3.0), CTX, 0, 7)
        assert pt_aim_problem(PTPotential(-1e12, 1e-160, 3.0), CTX, 0, 6).max_order == 6


class TestReferenceWellShape:
    """The A = -2, B = 3 well used for the molecular tables has B > |A|:
    it is everywhere repulsive and supports no true bound state.  The
    tabulated negative energies are values of the closed-form expression
    on the paper exponent pair, not eigenvalues of this potential."""

    POT_REF = PTPotential(A=-2.0, B=3.0, alpha=2.2994)
    CTX_CO = NRContext(mu=6.860586 * 931.494061e6)

    def test_potential_everywhere_positive(self):
        for i in range(1, 200):
            r = 0.02 * i
            assert potential_value(self.POT_REF, r) > 0.0

    def test_regular_branch_binds_nothing(self):
        reg = spectral_params(self.POT_REF, self.CTX_CO, 0, "regular")
        assert reg.gamma + reg.beta > 0.0
        assert not reg.bound_possible(0)

    def test_paper_formula_still_negative(self):
        assert energy_nr(self.POT_REF, self.CTX_CO, 0, 0, "paper") < 0.0
