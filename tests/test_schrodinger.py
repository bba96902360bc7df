"""Nonrelativistic hyperbolic-well spectra: closed forms, branches,
wavefunctions, and the shooting cross-check."""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ptbound.dirac import DiracContext, plain_params, spinor_wavefunction, tilde_params
from ptbound.errors import DomainError, OverflowRangeError
from ptbound.oracle import finite_difference, integrate_adaptive, shoot_eigenvalue
from ptbound.schrodinger import (
    FLAG_BEYOND_NMAX,
    FLAG_DISCRIMINANT_EDGE,
    NRContext,
    PTPotential,
    centrifugal_approx_residual,
    energy_from_k1,
    energy_nr,
    k1_from_energy,
    level_count,
    potential_value,
    pt_radial_problem,
    spectral_params,
    wavefunction_nr,
)

POT = PTPotential(A=-30.0, B=2.3, alpha=1.0)
CTX = NRContext.natural(mu=0.5)  # 2 mu / hbar^2 = 1


class TestPotential:
    def test_values(self):
        pot = PTPotential(A=-4.0, B=1.0, alpha=2.0)
        r = 0.7
        x = 2.0 * 0.7
        expect = -4.0 / math.cosh(x) ** 2 + 1.0 / math.sinh(x) ** 2
        assert potential_value(pot, r) == pytest.approx(expect, rel=1e-15)

    def test_origin(self):
        assert potential_value(PTPotential(A=-4.0, B=0.0, alpha=1.0), 0.0) == -4.0
        with pytest.raises(DomainError):
            potential_value(POT, 0.0)
        with pytest.raises(DomainError):
            potential_value(POT, -1.0)
        with pytest.raises(DomainError):
            potential_value(POT, math.nan)

    def test_vanishes_at_infinity(self):
        assert abs(potential_value(POT, 40.0)) < 1e-30

    def test_alpha_validation(self):
        with pytest.raises(DomainError):
            PTPotential(A=-1.0, B=0.0, alpha=0.0)
        with pytest.raises(DomainError):
            PTPotential(A=-1.0, B=0.0, alpha=float("inf"))
        PTPotential(A=-1.0, B=0.0, alpha=-2.0)  # sign is immaterial

    @pytest.mark.parametrize(
        "a,b", [(math.nan, 1.0), (-math.inf, 1.0), (-1.0, math.inf), (-1.0, math.nan)]
    )
    def test_strength_validation(self, a, b):
        # rejected where they enter, before level_count's math.floor
        with pytest.raises(DomainError, match="finite"):
            PTPotential(A=a, B=b, alpha=1.0)

    def test_context_validation(self):
        with pytest.raises(DomainError):
            NRContext(mu=0.0)
        with pytest.raises(DomainError):
            NRContext(mu=1.0, hbar_c=-1.0)

    def test_context_finiteness(self):
        # rejected where they enter, before level_count's math.floor
        with pytest.raises(DomainError, match="finite"):
            NRContext.natural(mu=math.inf)
        with pytest.raises(DomainError, match="finite"):
            NRContext(mu=1.0, hbar_c=math.inf)
        with pytest.raises(DomainError):
            NRContext(mu=1.0, hbar_c=math.nan)

    @pytest.mark.parametrize("hbar_c", [1e-200, 1e-160, 1e160])
    def test_context_square_in_range(self, hbar_c):
        # hbar_c**2 underflowed and spectral_params divided by zero
        with pytest.raises(DomainError, match="hbar_c"):
            NRContext(mu=1.0, hbar_c=hbar_c)

    @pytest.mark.parametrize("mu, hbar_c", [(1e300, 1e-10), (1e-300, 1e10)])
    def test_context_ratio_in_range(self, mu, hbar_c):
        # 2 mu / hbar_c**2 overflowed (level_count's zeta and energy_nr's E
        # came out nan) or went subnormal (E = -inf)
        with pytest.raises(DomainError, match="2 mu / hbar_c"):
            NRContext(mu=mu, hbar_c=hbar_c)


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
        direct = energy_nr(pot, CTX, n, l, branch).E
        assert direct == pytest.approx(via_k1, rel=1e-13, abs=1e-13)

    def test_k1_energy_roundtrip(self):
        for k1 in (-24.0406647505, -0.5, -118.878):
            e = energy_from_k1(CTX, 1.0, 3, k1)
            assert k1_from_energy(CTX, 1.0, 3, e) == pytest.approx(k1, rel=1e-14)

    def test_branches_disagree(self):
        # The exponent pairs give genuinely different spectra; the gap is
        # the published-formula vs regular-spectrum discrepancy.
        e_paper = energy_nr(POT, CTX, 0, 0, "paper").E
        e_regular = energy_nr(POT, CTX, 0, 0, "regular").E
        assert abs(e_paper - e_regular) > 1.0

    def test_free_case(self):
        # A = B = 0, l = 0: bracket collapses to -(2 alpha^2 hbar^2/mu)(n+1/2)^2
        pot = PTPotential(0.0, 0.0, 1.0)
        lev = energy_nr(pot, CTX, 0, 0)
        assert lev.E == pytest.approx(-1.0, rel=1e-14)
        zeta, n_max = level_count(pot, CTX, 0)
        assert zeta == pytest.approx(-0.5)
        assert n_max == 0
        assert FLAG_BEYOND_NMAX in lev.flags

    @pytest.mark.parametrize("bad", [1.5, -1, math.nan, math.inf])
    @pytest.mark.parametrize(
        "call",
        [
            lambda bad: spectral_params(POT, CTX, 0, "regular").k1(bad),
            lambda bad: spectral_params(POT, CTX, bad),
            lambda bad: energy_nr(POT, CTX, 0, bad),
            lambda bad: level_count(POT, CTX, bad),
            lambda bad: wavefunction_nr(POT, CTX, bad, 0, 1.0),
            lambda bad: wavefunction_nr(POT, CTX, 0, bad, 1.0),
        ],
        ids=["k1_n", "spectral_params_l", "energy_nr_l", "level_count_l",
             "wavefunction_n", "wavefunction_l"],
    )
    def test_quantum_numbers_are_nonnegative_integers(self, call, bad):
        # a half-integer used to flow into the formulas: k1(2.5) = -4.397
        with pytest.raises(DomainError, match="integer"):
            call(bad)

    def test_discriminant_edge_flag(self):
        # 8 mu A / (alpha hbar)^2 = 1 zeroes the first discriminant.
        pot = PTPotential(0.25, 0.0, 1.0)
        lev = energy_nr(pot, CTX, 0, 0)
        assert FLAG_DISCRIMINANT_EDGE in lev.flags

    def test_validation(self):
        with pytest.raises(DomainError):
            energy_nr(POT, CTX, -1, 0)
        with pytest.raises(DomainError):
            energy_nr(POT, CTX, 0, -1)
        with pytest.raises(DomainError):
            energy_nr(POT, CTX, 0, 0, "bogus")
        with pytest.raises(DomainError, match="integer"):
            energy_nr(POT, CTX, 2.5, 0)
        with pytest.raises(DomainError):
            # deep repulsive A flips the first discriminant negative
            energy_nr(PTPotential(5.0, 0.0, 1.0), CTX, 0, 0)
        with pytest.raises(DomainError):
            spectral_params(PTPotential(-1.0, -1.0, 1.0), CTX, 0)


class TestAlphaSignSymmetry:
    @given(
        st.floats(min_value=-50.0, max_value=-1.0),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.5, max_value=3.0),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=80, deadline=None)
    def test_energy_even_in_alpha(self, a, b, alpha, n, l):
        e_pos = energy_nr(PTPotential(a, b, alpha), CTX, n, l).E
        e_neg = energy_nr(PTPotential(a, b, -alpha), CTX, n, l).E
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

    def test_grows_at_large_x(self):
        # the substitution is a small-x device; by x ~ 2 the error is O(0.1)
        assert abs(centrifugal_approx_residual(1, 1.0, 2.0)) > 0.05

    def test_validation(self):
        with pytest.raises(DomainError):
            centrifugal_approx_residual(0, 1.0, 1.0)
        with pytest.raises(DomainError):
            centrifugal_approx_residual(1, 1.0, 0.0)


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

    def test_validation(self):
        with pytest.raises(DomainError):
            wavefunction_nr(POT, CTX, -1, 0, 1.0)
        with pytest.raises(DomainError):
            wavefunction_nr(POT, CTX, 0, 0, 0.0)
        with pytest.raises(DomainError, match="radius"):
            wavefunction_nr(POT, CTX, 0, 0, math.inf)
        with pytest.raises(DomainError):
            wavefunction_nr(POT, CTX, 0, 0, 1.0, argument="cubed")

    def test_overflow_raises(self):
        # cosh(alpha r) is past the double range
        with pytest.raises(OverflowRangeError):
            wavefunction_nr(POT, CTX, 0, 0, 800.0)

    def test_high_level_overflow_raises(self):
        # the lead's 2**n leaked a bare OverflowError from n = 1024 on
        with pytest.raises(OverflowRangeError):
            wavefunction_nr(PTPotential(-30.0, 2.3, 1.0), NRContext.natural(0.5), 1100, 0, 0.01)


# Each case builds one amplitude from the drawn parameters and returns its
# 2F1 lower parameter c with a call that evaluates it.  A Schrodinger case
# reads kappa as the orbital l it belongs to (kappa = l or -(l + 1)) and
# ignores the energy x, which only the spinor needs.
def _nr_amplitude(branch, argument):
    def case(pot, mass, n, kappa, x, r):
        ctx = NRContext.natural(mu=mass)
        l = kappa if kappa > 0 else -kappa - 1
        par = spectral_params(pot, ctx, l, branch)
        c = par.beta + (1.0 if argument == "linear" else 0.5)
        return c, lambda: wavefunction_nr(pot, ctx, n, l, r, branch, argument)
    return case


def _spinor_amplitude(component):
    params = tilde_params if component == "lower" else plain_params

    def case(pot, mass, n, kappa, x, r):
        ctx = DiracContext(M=mass, kappa=kappa, n=n)
        c = 2.0 * params(x * mass, ctx, pot).beta2 + 0.5
        return c, lambda: spinor_wavefunction(component, ctx, pot, x * mass, r)
    return case


AMPLITUDES = {
    f"{branch}-{argument}": _nr_amplitude(branch, argument)
    for branch in ("regular", "paper") for argument in ("linear", "squared")
} | {f"spinor-{component}": _spinor_amplitude(component) for component in ("upper", "lower")}


class TestAmplitudeDomain:
    """Both closed-form amplitudes, on input inside their domain and past
    the origin cutoff, return a finite value or raise OverflowRangeError:
    an amplitude the double range cannot hold is never a domain error."""

    @pytest.mark.parametrize("amplitude", AMPLITUDES)
    @given(
        pot=st.builds(
            PTPotential,
            A=st.floats(min_value=-50.0, max_value=20.0),
            B=st.floats(min_value=-5.0, max_value=20.0),
            alpha=st.sampled_from((1.0, -1.0)).flatmap(
                lambda sign: st.floats(min_value=0.1, max_value=5.0).map(lambda a: sign * a)
            ),
        ),
        mass=st.floats(min_value=1e-3, max_value=50.0),
        n=st.integers(min_value=0, max_value=5),
        kappa=st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4)),
        x=st.floats(min_value=-3.0, max_value=3.0),
        r=st.floats(min_value=0.0, max_value=1e3),
    )
    # sinh^2 overflows at r = 400 while sinh does not
    @example(pot=PTPotential(-2.0, 0.1, 1.0), mass=0.5, n=1, kappa=-1, x=0.0, r=400.0)
    @settings(max_examples=200, deadline=None)
    def test_finite_or_overflow(self, amplitude, pot, mass, n, kappa, x, r):
        r = max(r, 1e-8 / abs(pot.alpha))
        try:
            c, evaluate = AMPLITUDES[amplitude](pot, mass, n, kappa, x, r)
        except DomainError:
            assume(False)  # no real exponents at these parameters
        # 2F1(-n, b; c; z) is undefined where c is a nonpositive integer > -n
        assume(not (c == math.floor(c) and -(n - 1) <= c <= 0.0))
        try:
            u = evaluate()
        except OverflowRangeError:
            return
        assert math.isfinite(u)


class TestShootingCrossCheck:
    def test_natural_unit_well(self):
        reg = spectral_params(POT, CTX, 0, "regular")
        prob = pt_radial_problem(POT, CTX, 0, k1_estimate=reg.k1(0))
        res0 = shoot_eigenvalue(prob, 0, (reg.k1(0) - 2.0, reg.k1(0) + 0.5), tol=1e-9)
        assert res0.value == pytest.approx(reg.k1(0), rel=1e-8)
        res1 = shoot_eigenvalue(prob, 1, (-4.0, -0.2), tol=1e-9)
        assert res1.value == pytest.approx(reg.k1(1), rel=1e-8)

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
        e_model = energy_nr(POT, CTX, 0, l, "regular").E
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
            e_model = energy_nr(pot, CTX, 0, l, "regular").E
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

    def test_centrifugal_mode_validation(self):
        with pytest.raises(DomainError):
            pt_radial_problem(POT, CTX, 0, centrifugal="other")


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
        lev = energy_nr(self.POT_REF, self.CTX_CO, 0, 0, "paper")
        assert lev.E < 0.0
