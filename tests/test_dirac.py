"""Relativistic symmetric-limit spectra: energy conditions, exchange map,
special-case reductions, and the nonrelativistic limit."""

import hashlib
import itertools
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptbound.dirac import (
    FLAG_NEAR_MINUS_M,
    SCAN_CELLS,
    DiracContext,
    nr_limit_energy,
    plain_params,
    pspin_residual,
    reflectionless_nr_energy,
    special_case_residual,
    spin_residual,
    spin_residual_shifted,
    spin_residual_via_map,
    spinor_wavefunction,
    solve_levels,
    symmetric_nr_energy,
    tilde_params,
)
from ptbound.errors import (
    BracketError, DomainError, OverflowRangeError, PtboundError, require_normal_square,
)
from ptbound.rootfind import bisect, sign_change_brackets, uniform_grid
from ptbound.schrodinger import D0, NRContext, PTPotential, energy_nr

import strategies as S

POT = PTPotential(A=-2.0, B=3.0, alpha=1.0)


def both_nan_or_close(a, b, rel=1e-12):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == pytest.approx(b, rel=rel, abs=1e-12)


class TestExchangeMap:
    """The two energy conditions transform into each other under
    V -> -V, E -> -E, kappa -> kappa + 1, Cps -> -Cs."""

    @pytest.mark.parametrize("kappa", [-2, -1, 1, 2])
    @pytest.mark.parametrize("c_shift", [0.0, 1.5])
    def test_pointwise_identity(self, kappa, c_shift):
        ctx = DiracContext(M=20.0, kappa=kappa, n=1, c_shift=c_shift)
        for i in range(81):
            e = -40.0 + i * 1.0
            assert both_nan_or_close(
                spin_residual_via_map(e, ctx, POT), spin_residual(e, ctx, POT)
            ), f"e={e}"

    @given(
        st.floats(min_value=-10.0, max_value=-0.1),
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=-30.0, max_value=30.0),
        st.sampled_from((-3, -2, -1, 1, 2, 3)),
    )
    @settings(max_examples=150)
    def test_identity_property(self, a, b, e, kappa):
        pot = PTPotential(A=a, B=b, alpha=1.0)
        ctx = DiracContext(M=15.0, kappa=kappa, n=0)
        assert both_nan_or_close(
            spin_residual_via_map(e, ctx, pot), spin_residual(e, ctx, pot)
        )


class TestShiftedForm:
    def test_matches_plain_spin_residual(self):
        ctx = DiracContext(M=20.0, kappa=-1, n=0)
        for e in (-15.0, 3.0, 18.0, 19.99, 21.0):
            assert both_nan_or_close(
                spin_residual_shifted(e - 20.0, ctx, POT),
                spin_residual(e, ctx, POT),
                rel=1e-9,
            )

    def test_keeps_precision_near_rest_mass(self):
        # At W = E - M ~ 1e-9 M the direct form subtracts two 1e+? numbers;
        # the shifted form must stay smooth in W.
        ctx = DiracContext(M=1e6, kappa=-1, n=0)
        pot = PTPotential(A=-2.0, B=0.0, alpha=1.0)
        w = -2.0
        v1 = spin_residual_shifted(w, ctx, pot)
        v2 = spin_residual_shifted(w + 1e-9, ctx, pot)
        assert v1 != v2  # resolves a 1e-9 shift in the gap variable


class TestSpecialCaseReductions:
    """Each printed reduced condition must agree pointwise with the general
    residual under its documented specialization."""

    M = 20.0

    def _sweep(self, fn_special, fn_general, lo=-40.0, hi=40.0, npts=161):
        for i in range(npts):
            e = lo + (hi - lo) * i / (npts - 1)
            assert both_nan_or_close(fn_special(e), fn_general(e)), f"e={e}"

    def test_swave_pspin(self):
        ctx = DiracContext(M=self.M, kappa=1, n=2)
        self._sweep(
            lambda e: special_case_residual(
                "swave_pspin", e, m=self.M, n=2, alpha=1.0, a=POT.A, b=POT.B
            ),
            lambda e: pspin_residual(e, ctx, POT),
        )

    def test_swave_spin(self):
        ctx = DiracContext(M=self.M, kappa=-1, n=1)
        self._sweep(
            lambda e: special_case_residual(
                "swave_spin", e, m=self.M, n=1, alpha=1.0, a=POT.A, b=POT.B
            ),
            lambda e: spin_residual(e, ctx, POT),
        )

    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.3])
    def test_reflectionless_pspin(self, eta):
        pot = PTPotential(A=-eta * (eta + 1.0) / 2.0, B=0.0, alpha=1.0)
        ctx = DiracContext(M=self.M, kappa=1, n=1)
        self._sweep(
            lambda e: special_case_residual(
                "reflectionless_pspin", e, m=self.M, n=1, eta=eta
            ),
            lambda e: pspin_residual(e, ctx, pot),
        )

    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.3])
    def test_reflectionless_spin(self, eta):
        pot = PTPotential(A=-eta * (eta + 1.0) / 2.0, B=0.0, alpha=1.0)
        ctx = DiracContext(M=self.M, kappa=-1, n=1)
        self._sweep(
            lambda e: special_case_residual(
                "reflectionless_spin", e, m=self.M, n=1, eta=eta
            ),
            lambda e: spin_residual(e, ctx, pot),
        )

    @pytest.mark.parametrize("eta", [0.1, 0.45])
    def test_hyperbolic_symmetric_pair(self, eta):
        pot = PTPotential(A=0.25 - eta * eta, B=0.0, alpha=1.0)
        ctx_ps = DiracContext(M=self.M, kappa=1, n=0)
        ctx_s = DiracContext(M=self.M, kappa=-1, n=0)
        self._sweep(
            lambda e: special_case_residual("hyperbolic_mpt_pspin", e, m=self.M, n=0, eta=eta),
            lambda e: pspin_residual(e, ctx_ps, pot),
        )
        self._sweep(
            lambda e: special_case_residual("hyperbolic_mpt_spin", e, m=self.M, n=0, eta=eta),
            lambda e: spin_residual(e, ctx_s, pot),
        )


class TestSolveLevels:
    def test_reference_root(self):
        ctx = DiracContext(M=20.0, kappa=1, n=0)
        roots = solve_levels(ctx, POT, "pspin")
        assert len(roots) == 1
        root = roots[0]
        assert root.E == pytest.approx(19.97340513040207, rel=1e-9)
        assert abs(root.residual) < 1e-8
        assert root.flags == frozenset()

    def test_light_mass_has_no_root(self):
        with pytest.raises(BracketError):
            solve_levels(DiracContext(M=5.0, kappa=1, n=0), POT, "pspin")

    def test_mass_shell_flagging(self):
        # engineer a potential whose pseudospin condition is satisfied
        # exactly on the lower shell E = -M
        M = 0.05
        target = (2.0 + math.sqrt(1.0 - 16.0 * M)) ** 2
        b = (1.0 - target) / (8.0 * M)
        pot = PTPotential(A=-2.0, B=b, alpha=1.0)
        ctx = DiracContext(M=M, kappa=1, n=0)
        assert pspin_residual(-M, ctx, pot) == 0.0
        roots = solve_levels(ctx, pot, "pspin", (-0.06, -0.04))
        shell = [r for r in roots if FLAG_NEAR_MINUS_M in r.flags]
        assert len(shell) == 1
        assert shell[0].E == pytest.approx(-M, abs=1e-10)

    def test_all_nan_bracket(self):
        with pytest.raises(DomainError, match="complex on the entire bracket"):
            solve_levels(
                DiracContext(M=5.0, kappa=1, n=0),
                PTPotential(-2.0, 100.0, 1.0),
                "pspin",
                (-30.0, -20.0),
            )

    def test_no_sign_change_raises_bracket_error(self):
        # (25, 40) is fully on-domain for this condition but holds no root
        with pytest.raises(BracketError):
            solve_levels(DiracContext(M=20.0, kappa=1, n=0), POT, "pspin", (25.0, 40.0))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_zero_on_first_node(self, monkeypatch, sign):
        import ptbound.dirac as dirac

        monkeypatch.setattr(dirac, "_pspin_kernel", lambda *args: lambda e: sign * (e - 1.0))
        roots = solve_levels(DiracContext(M=20.0, kappa=1, n=0), POT, "pspin", (1.0, 3.0))
        assert [r.E for r in roots] == [1.0]

    @pytest.mark.parametrize(
        "bracket", [(-math.inf, 40.0), (-40.0, math.inf), (math.nan, 40.0), (-40.0, math.nan)]
    )
    def test_rejects_nonfinite_bracket(self, bracket):
        # Checked before any grid is built: no numpy warning, and the
        # message names the bracket, not the residual.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="bracket must be finite"):
                solve_levels(DiracContext(M=20.0, kappa=1, n=0), POT, "pspin", bracket)

    @pytest.mark.parametrize("symmetry", ["pspin", "spin"])
    def test_checks_the_square_once(self, monkeypatch, symmetry):
        # (alpha hbar_c)^2 is checked where the solve starts, not at each
        # of the scan's 1,025 nodes and each bisection step
        import ptbound.dirac as dirac

        calls = []

        def counting(x, what):
            calls.append(what)
            return require_normal_square(x, what)

        monkeypatch.setattr(dirac, "require_normal_square", counting)
        assert solve_levels(DiracContext(M=20.0, kappa=-1, n=0), POT, symmetry)
        assert len(calls) == 1


def reference_levels(ctx, pot, symmetry, tol=1e-12):
    """solve_levels' roots on its default bracket, found the plain way:
    one public residual call per scan node, then bisection of each sign
    change, the same halving on the same function."""
    residual = pspin_residual if symmetry == "pspin" else spin_residual

    def f(x):
        return residual(x, ctx, pot)

    lo, hi = -ctx.M - ctx.M, ctx.M + ctx.M
    xs = uniform_grid(lo, hi, SCAN_CELLS + 1)
    xtol = tol * max(1.0, abs(lo), abs(hi))
    roots = []
    for a, b, fa, fb in sign_change_brackets(xs, [f(x) for x in xs]):
        hit = bisect(f, a, b, xtol=xtol, fab=(fa, fb))
        if not (roots and abs(hit - roots[-1][0]) <= 4.0 * xtol):
            roots.append((hit, f(hit)))
    return roots


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestKernelDigest:
    """sha256 pins of the Dirac residuals' bits: solve_levels' roots,
    residuals and flags on a seeded sample, and the four public
    residuals on a grid.  Any change to the order of the arithmetic in
    either energy condition shows here."""

    WELLS = [(-2.0, 3.0, 1.0), (-30.0, 2.3, 1.0), (-150.0, 3.0, 1.3), (-0.5, 0.0, 0.8),
             (4.0, -1.5, 2.0)]

    def contexts(self):
        """Both symmetries, kappa = +-1..+-3, n = 0..2, c_shift zero and
        not, hbar_c 1 and 0.7; M log-uniform on [0.5, 1e3] and the well
        drawn by a seeded generator."""
        rng = random.Random(49)
        for symmetry, kappa, n, shift, hbar_c in itertools.product(
            ("pspin", "spin"), (-3, -2, -1, 1, 2, 3), range(3), (0.0, 0.4375), (1.0, 0.7)
        ):
            m = 0.5 * 2000.0 ** rng.random()
            pot = PTPotential(*rng.choice(self.WELLS))
            yield symmetry, DiracContext(m, kappa, n, c_shift=shift * m, hbar_c=hbar_c), pot

    def test_solve_levels(self):
        lines = []
        for symmetry, ctx, pot in self.contexts():
            # the default bracket, a wider one and one far below -M: every
            # sampled scan has NaN segments, and some are all NaN
            for bracket in (None, (-3.0 * ctx.M - 5.0, 3.0 * ctx.M + 5.0),
                            (-40.0 * ctx.M, -30.0 * ctx.M)):
                try:
                    roots = solve_levels(ctx, pot, symmetry, bracket)
                except PtboundError as exc:
                    lines.append(type(exc).__name__)
                    continue
                lines += [
                    f"{float.hex(r.E)} {float.hex(r.residual)} {','.join(sorted(r.flags))}"
                    for r in roots
                ]
        assert _digest(lines) == (
            "4efbb9055d364a31afcf24a6be386d1e148191761d1e04161d70d176d81cf510"
        )

    def test_residuals(self):
        lines = []
        for _, ctx, pot in itertools.islice(self.contexts(), 0, None, 4):
            for residual in (pspin_residual, spin_residual, spin_residual_shifted,
                             spin_residual_via_map):
                lines.append(" ".join(
                    float.hex(residual(ctx.M * (i / 32.0 - 3.0), ctx, pot)) for i in range(193)
                ))
        assert _digest(lines) == (
            "204666348faa5b8cdfb2894720556f87aa612e6202b239c0dc240061402b2c09"
        )

    def test_spinor_wavefunction(self):
        # both components at energies across the mass shell and radii into
        # the log-combined range, with the error wherever one is raised
        lines = []
        for _, ctx, pot in itertools.islice(self.contexts(), 0, None, 3):
            for component, x in itertools.product(("lower", "upper"), (-1.5, -0.5, 0.0, 0.5, 1.5)):
                cells = []
                for r in (0.0, 1e-12, 1e-3, 0.4, 2.0, 30.0, 300.0, 800.0):
                    try:
                        cells.append(float.hex(spinor_wavefunction(
                            component, ctx, pot, x * ctx.M, r / abs(pot.alpha)
                        )))
                    except Exception as exc:
                        cells.append(f"{type(exc).__name__}: {exc}")
                lines.append(" ".join(cells))
        assert _digest(lines) == (
            "0197632e1c79deb2d813bdbfb159af58eff8838ac6c228752d54359aa06c2776"
        )


class TestNonrelativisticLimit:
    def test_limit_formula_matches_bound_state_module(self):
        # identical algebra, independent transcriptions (hbar = 1 units)
        for mu in (0.5, 1.0, 7.3):
            ctx = NRContext(mu=mu, hbar_c=1.0)
            for n, l in ((0, 0), (1, 0), (2, 3)):
                assert nr_limit_energy(mu, POT, n, l) == pytest.approx(
                    energy_nr(POT, ctx, n, l, "paper"), rel=1e-12
                )

    def test_gap_variable_converges_with_first_order_rate(self):
        # solve the spin condition at growing mass; the gap W = E - M must
        # approach the limit formula at least linearly in 1/M
        pot = PTPotential(A=-2.0, B=0.0, alpha=1.0)
        errs = []
        for mass in (50.0, 100.0, 200.0, 400.0):
            enr = nr_limit_energy(mass, pot, 0, 0)
            roots = solve_levels(
                DiracContext(M=mass, kappa=-1, n=0),
                pot,
                "spin",
                (mass + enr - 1.0, mass + enr + 1.0),
                tol=1e-14,
            )
            errs.append(abs((roots[0].E - mass) - enr))
        for e1, e2 in zip(errs, errs[1:]):
            assert e2 < e1 / 1.8, f"errors {errs} shrink slower than 1/M"

    def test_reflectionless_reduction(self):
        for mu, alpha, eta, n in ((1.0, 1.0, 1.5, 0), (2.0, 0.7, 0.5, 2)):
            pot = PTPotential(A=-eta * (eta + 1.0) / 2.0, B=0.0, alpha=alpha)
            assert reflectionless_nr_energy(mu, alpha, eta, n) == pytest.approx(
                nr_limit_energy(mu, pot, n, 0), rel=1e-13
            )

    def test_symmetric_reduction(self):
        # the discriminant needs 2 mu (1 - 4 eta^2) <= 1
        for mu, eta, n in ((0.4, 0.3, 0), (0.4, 0.1, 1)):
            pot = PTPotential(A=0.25 - eta * eta, B=0.0, alpha=1.0)
            assert symmetric_nr_energy(mu, eta, n) == pytest.approx(
                nr_limit_energy(mu, pot, n, 0), rel=1e-13
            )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("residual", [pspin_residual, spin_residual])
def test_numpy_scalar_fields_are_floats(residual):
    # The context stores floats where they enter, so (alpha hbar_c)**2
    # past the range is a DomainError with no numpy overflow warning first.
    ctx = DiracContext(M=np.float64(5.0), kappa=1, n=0, c_shift=np.float64(0.0),
                       hbar_c=np.float64(1e200))
    assert all(type(v) is float for v in (ctx.M, ctx.c_shift, ctx.hbar_c))
    with pytest.raises(DomainError, match=r"\(alpha hbar_c\)\*\*2 must be a normal double"):
        residual(1.0, ctx, PTPotential(-3.0, 0.5, np.float64(1e100)))


class TestSymmetryParams:
    def test_spin_side_angular_constant_keeps_d0(self):
        # k3 carries 4 kappa (kappa+1) d0 on the spin side, mirroring the
        # pseudospin side (the asymmetric printed variant is a misprint)
        ctx = DiracContext(M=20.0, kappa=2, n=0)
        e = 3.0
        pp = plain_params(e, ctx, POT)
        assert pp.k3 == pytest.approx(4.0 * 2.0 * 3.0 * D0 + (20.0 + e) * (20.0 - e), rel=1e-14)

    def test_pspin_side_angular_constant(self):
        ctx = DiracContext(M=20.0, kappa=2, n=0)
        e = 19.9  # keeps both exponent discriminants positive
        tp = tilde_params(e, ctx, POT)
        assert tp.k3 == pytest.approx(4.0 * 2.0 * 1.0 * D0 + (20.0 - e) * (20.0 + e), rel=1e-12)


class TestSpinor:
    CTX = DiracContext(M=20.0, kappa=1, n=0)
    E = 19.97340513040207

    def test_ground_state_is_pure_product(self):
        par = tilde_params(self.E, self.CTX, POT)
        for r in (0.4, 1.0):
            expect = math.cosh(r) ** (2.0 * par.beta2) * math.sinh(r) ** (2.0 * par.gamma2)
            assert spinor_wavefunction("lower", self.CTX, POT, self.E, r) == pytest.approx(
                expect, rel=1e-13
            )

    def test_first_excited_polynomial_factor(self):
        ctx = DiracContext(M=20.0, kappa=1, n=1)
        par = tilde_params(self.E, ctx, POT)
        c = 2.0 * par.beta2 + 0.5
        bparam = 2.0 * (par.beta2 + par.gamma2) + 1.0
        r = 0.8
        sh2 = math.sinh(r) ** 2
        expect = (
            c
            * math.cosh(r) ** (2.0 * par.beta2)
            * math.sinh(r) ** (2.0 * par.gamma2)
            * (1.0 - bparam * sh2 / c)
        )
        assert spinor_wavefunction("lower", ctx, POT, self.E, r) == pytest.approx(
            expect, rel=1e-12
        )

    def test_upper_component_uses_spin_parameters(self):
        ctx = DiracContext(M=20.0, kappa=-1, n=0)
        e = 15.0
        par = plain_params(e, ctx, POT)
        r = 0.6
        expect = math.cosh(r) ** (2.0 * par.beta2) * math.sinh(r) ** (2.0 * par.gamma2)
        assert spinor_wavefunction("upper", ctx, POT, e, r) == pytest.approx(expect, rel=1e-13)

    def test_even_in_alpha(self):
        neg = PTPotential(A=POT.A, B=POT.B, alpha=-POT.alpha)
        assert spinor_wavefunction("lower", self.CTX, POT, self.E, 0.9) == spinor_wavefunction(
            "lower", self.CTX, neg, self.E, 0.9
        )

    @pytest.mark.parametrize("r", [400.0, 800.0])
    def test_overflow_raises_range_error(self, r):
        # n = 1: the 2F1 argument sinh^2 is past the double range
        ctx = DiracContext(M=20.0, kappa=1, n=1)
        with pytest.raises(OverflowRangeError, match="2F1 argument"):
            spinor_wavefunction("lower", ctx, POT, self.E, r)

    @pytest.mark.parametrize("r", [400.0, 800.0])
    def test_ground_state_needs_no_2f1_argument(self, r):
        # 2F1(0, b; c; z) = 1, so sinh^2 past the range does not matter,
        # and cosh^0.056 sinh^0.087 is about 1e25 at r = 400 and 1e49 at 800.
        par = tilde_params(self.E, self.CTX, POT)
        expect = math.exp((r - math.log(2.0)) * 2.0 * (par.beta2 + par.gamma2))
        u = spinor_wavefunction("lower", self.CTX, POT, self.E, r)
        assert u == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("r", [300.0, 800.0])
    def test_tiny_amplitude_is_zero(self, r):
        # cosh^-4.6 sinh^-2.06 underflows; sinh is past the range at r = 800.
        ctx = DiracContext(M=5.0, kappa=1, n=0)
        assert spinor_wavefunction("upper", ctx, PTPotential(-3.0, 0.5, 1.0), 3.6, r) == 0.0

    # The printed form fails its equation for n >= 1: the spreads of the
    # four n = 1 levels are 147 to 2,330.  (4, -0.1, 0.8) at kappa 1 has
    # no n = 1 level.
    PRINTED_FORM_FAILS = pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="printed spinor form, n >= 1"
    )

    @pytest.mark.parametrize("symmetry, component, well, kappa, n", [
        ("pspin", "lower", (3.0, -0.2, 1.0), 2, 0),
        ("pspin", "lower", (4.0, -0.1, 0.8), 1, 0),
        ("spin", "upper", (-3.0, 0.5, 1.0), 1, 0),
        pytest.param("pspin", "lower", (3.0, -0.2, 1.0), 2, 1, marks=PRINTED_FORM_FAILS),
        pytest.param("spin", "upper", (-3.0, 0.5, 1.0), 1, 1, marks=PRINTED_FORM_FAILS),
    ])
    def test_ground_state_solves_its_equation(self, symmetry, component, well, kappa, n):
        # G'' = (w - k) G with w = a/cosh^2 + b/sinh^2 (alpha r), so a
        # fourth-order difference G''/G - w is one constant over r.  The
        # n = 0 spreads are 1e-9 to 7e-9; a 0.25 -> 0.3 slip in the gamma2
        # or beta2 line of _tilde_params_raw gives at least 0.0139.
        ctx, pot = DiracContext(M=5.0, kappa=kappa, n=n), PTPotential(*well)
        h, alpha2 = 1e-3, pot.alpha**2
        for root in solve_levels(ctx, pot, symmetry):
            if component == "lower":
                t = ctx.M - root.E + ctx.c_shift
                a, b = -pot.A * t, -pot.B * t + kappa * (kappa - 1) * alpha2
            else:
                t = ctx.M + root.E - ctx.c_shift
                a, b = pot.A * t, pot.B * t + kappa * (kappa + 1) * alpha2
            g = lambda r: spinor_wavefunction(component, ctx, pot, root.E, r)
            constants = []
            for i in range(19):
                r = 0.6 + 0.1 * i
                d2 = (16.0 * (g(r + h) + g(r - h)) - g(r + 2 * h) - g(r - 2 * h) - 30.0 * g(r)) / (
                    12.0 * h * h
                )
                x = pot.alpha * r
                constants.append(d2 / g(r) - a / math.cosh(x) ** 2 - b / math.sinh(x) ** 2)
            assert max(constants) - min(constants) <= 1e-6, root.E


# -- properties beyond the contract table's: a residual may be NaN, but
# only off its real domain, and solve_levels' roots lie in its bracket.


def off_domain(spin, e, ctx, pot):
    """True where a square-root argument of the condition is negative, up
    to rounding."""
    sgn = 1.0 if spin else -1.0
    ae2 = (pot.alpha * ctx.hbar_c) ** 2
    t = ctx.M + sgn * (e - ctx.c_shift)
    pa, pb = 4.0 * pot.A * t / ae2, 4.0 * pot.B * t / ae2
    a0 = (2.0 * ctx.kappa + sgn) ** 2
    slack = 1e-9
    return 1.0 - sgn * pa < slack * (1.0 + abs(pa)) or a0 + sgn * pb < slack * (a0 + abs(pb))


class TestProperties:
    @given(
        st.one_of(S.masses, S.NONFINITE, st.sampled_from((0.0, -1.0))),
        st.integers(-3, 3),
        st.integers(-2, 3),
        st.one_of(st.floats(min_value=-50.0, max_value=50.0), S.NONFINITE),
        st.one_of(st.floats(min_value=0.1, max_value=10.0), S.NONFINITE, st.just(0.0)),
    )
    @settings(max_examples=300)
    def test_context(self, m, kappa, n, c_shift, hbar_c):
        ctx = S.finite_or_ptbound_error(
            lambda: DiracContext(M=m, kappa=kappa, n=n, c_shift=c_shift, hbar_c=hbar_c)
        )
        if ctx is not None:
            assert kappa != 0 and n >= 0
            assert 0.0 < ctx.M < math.inf and 0.0 < ctx.hbar_c < math.inf
            assert math.isfinite(ctx.c_shift)

    @pytest.mark.parametrize(
        "residual, spin, shifted",
        [(spin_residual, True, False), (spin_residual_shifted, True, True),
         (pspin_residual, False, False)],
        ids=["spin_residual", "spin_residual_shifted", "pspin_residual"],
    )
    @given(ctx=S.dirac_contexts, pot=S.potentials, x=S.mass_units)
    @settings(max_examples=200)
    def test_residual(self, residual, spin, shifted, ctx, pot, x):
        e = x * ctx.M
        v = S.finite_or_ptbound_error(residual, e - ctx.M if shifted else e, ctx, pot)
        if v is not None:
            assert math.isfinite(v) or (math.isnan(v) and off_domain(spin, e, ctx, pot))

    @given(ctx=S.dirac_contexts, pot=S.potentials, symmetry=st.sampled_from(("spin", "pspin")))
    @settings(max_examples=60)
    def test_solve_levels(self, ctx, pot, symmetry):
        roots = S.finite_or_ptbound_error(solve_levels, ctx, pot, symmetry)
        for root in roots or ():
            assert -2.0 * ctx.M <= root.E <= 2.0 * ctx.M
            assert math.isfinite(root.residual)

    @given(ctx=S.dirac_contexts, pot=S.potentials, symmetry=st.sampled_from(("spin", "pspin")))
    @settings(max_examples=60)
    def test_solve_levels_matches_reference_scan(self, ctx, pot, symmetry):
        roots = S.finite_or_ptbound_error(solve_levels, ctx, pot, symmetry)
        reference = S.finite_or_ptbound_error(reference_levels, ctx, pot, symmetry)
        if roots is not None:
            assert [(float.hex(r.E), float.hex(r.residual)) for r in roots] == [
                (float.hex(e), float.hex(v)) for e, v in reference
            ]
        else:
            # no root, an all-NaN scan or a residual past the range
            assert reference in (None, []) or not all(math.isfinite(v) for _, v in reference)
