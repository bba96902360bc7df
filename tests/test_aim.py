"""Iterative quantization engine: recurrence algebra, scans, stability grading.

Cross-checks use the hyperbolic two-term well (closed-form eigenvalues
K1(n) = -alpha^2 (gamma + beta + 2n)^2) and a Hermite-type problem whose
eigenvalues are the nonnegative integers.
"""

import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptbound.aim
from ptbound.aim import AimProblem, aim_delta, aim_eigen_scan, aim_iterate
from ptbound.errors import DomainError, OverflowRangeError
from ptbound.rootfind import sign_change_brackets, uniform_grid
from ptbound.schrodinger import NRContext, PTPotential, pt_aim_problem, spectral_params
import strategies as S

POT = PTPotential(A=-30.0, B=2.3, alpha=1.0)
CTX = NRContext.natural(mu=0.5)  # 2 mu / hbar^2 = 1: strengths pass through
PAR = spectral_params(POT, CTX, 0)


def pt_problem(depth):
    return pt_aim_problem(POT, CTX, 0, depth)


def constant(value, order):
    """Taylor coefficients of order 0..order of a constant function."""
    c = np.zeros(order + 1)
    c[0] = value
    return c


def hermite_problem(depth):
    # y'' = 2x y' - 2E y about x = 0: eigenvalues E = 0, 1, 2, ...
    order = 2 * depth + 8
    lambda0 = np.zeros(order + 1)
    lambda0[1] = 2.0
    return AimProblem(lambda0=lambda0, s0=constant(-2.0, order))


def normalized_delta(problem, e, k):
    """|delta_k| relative to the size of the two products it cancels."""
    lam_prev, s_prev, _ = aim_iterate(problem, e, k - 1)
    lam_cur, s_cur, delta = aim_iterate(problem, e, k)
    scale = abs(lam_cur * s_prev) + abs(lam_prev * s_cur)
    return abs(delta) / scale


class TestRecurrenceAlgebra:
    """Constant coefficient jets make the recurrence solvable by hand:

    lambda0 = c, s0 = E gives delta_1 = E^2 and delta_2 = -E^3 exactly.
    """

    @staticmethod
    def _const_problem(c, order=12):
        return AimProblem(lambda0=constant(c, order), s0=constant(1.0, order))

    @pytest.mark.parametrize("c", [0.0, 1.0, -2.5])
    @pytest.mark.parametrize("e", [0.7, -1.3, 4.0])
    def test_delta1(self, c, e):
        assert aim_delta(self._const_problem(c), e, 1) == pytest.approx(e * e, rel=1e-14)

    @pytest.mark.parametrize("c", [0.0, 1.0, -2.5])
    @pytest.mark.parametrize("e", [0.7, -1.3, 4.0])
    def test_delta2(self, c, e):
        assert aim_delta(self._const_problem(c), e, 2) == pytest.approx(-(e**3), rel=1e-13)

    def test_iterate_returns_values_at_x0(self):
        values = aim_iterate(self._const_problem(1.0), 2.0, 1)
        # lambda_1 = E + c^2 = 3, s_1 = E c = 2, delta_1 = E^2 = 4
        assert all(type(v) is float for v in values)
        assert values == pytest.approx((3.0, 2.0, 4.0))


class TestVanishingS0:
    def test_all_depths_zero_when_s0_vanishes(self):
        # For the hyperbolic well the shifted constant K2 = K1 + (gamma+beta)^2
        # vanishes at the ground eigenvalue, so s0 is the zero jet and every
        # delta_k is identically zero, not just small.
        k1_ground = PAR.k1(0)
        prob = pt_problem(5)
        for k in range(1, 6):
            assert aim_delta(prob, k1_ground, k) == 0.0

    def test_zero_s0_generic_lambda0(self):
        # lambda0 = 2x about x = 0.3
        prob = AimProblem(lambda0=2.0 * np.array([0.3, 1.0] + [0.0] * 9), s0=constant(0.0, 10))
        for k in (1, 2, 3):
            assert aim_delta(prob, 1.7, k) == 0.0

    @pytest.mark.parametrize("k", range(2, 10))
    def test_scan_polynomials_zero_where_s0_vanishes(self, k):
        # The scan carries s_j / t, so both its polynomials are t times
        # q, and t's zero, E = -e_shift, is a root of each exactly,
        # though the bracket's midpoint, about which they are expanded,
        # lies elsewhere.
        prob = pt_problem(k)
        z = -prob.e_shift
        for lo, hi in ((z - 7.0, z + 3.0), (z - 1.0, z + 40.0)):
            for f in ptbound.aim._delta_polys(prob, lo, hi, k):
                assert z in f.roots(1e-12 * max(abs(lo), abs(hi)))


class TestClosedFormEigenvalues:
    def test_delta2_vanishes_at_first_excited(self):
        assert normalized_delta(pt_problem(2), PAR.k1(1), 2) < 1e-12

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_scan_recovers_level(self, n):
        k = max(2 * n + 1, 2)
        prob = pt_problem(k)
        center = PAR.k1(n)
        rep = aim_eigen_scan(prob, (center - 3.0, center + 3.0), k)
        stable = [r for r in rep.roots if r.converged]
        assert len(stable) == 1
        assert stable[0].value == pytest.approx(center, rel=1e-9)
        assert math.isfinite(stable[0].residual)

    def test_broad_scan_contains_all_levels(self):
        k = 9
        rep = aim_eigen_scan(pt_problem(k), (-130.0, -5.0), k)
        stable = rep.converged_roots()
        for n in range(4):
            assert any(
                abs(r - PAR.k1(n)) <= 1e-8 * abs(PAR.k1(n)) for r in stable
            ), f"level {n} missing from converged roots {stable}"

    def test_depth_consistency(self):
        # A genuine eigenvalue sits at the same place at consecutive depths.
        vals = []
        for k in (3, 4):
            rep = aim_eigen_scan(pt_problem(k), (-49.0, -46.5), k)
            stable = rep.converged_roots()
            assert len(stable) == 1
            vals.append(stable[0])
        assert vals[0] == pytest.approx(vals[1], abs=1e-8)

    def test_expansion_point_independence(self):
        # The terminating eigenvalue cannot depend on where the jets are
        # expanded; two different z0 choices must agree.
        roots = []
        for z0 in (0.8, 1.3):
            prob = pt_aim_problem(POT, CTX, 0, 3, z0=z0)
            rep = aim_eigen_scan(prob, (-49.0, -46.5), 3)
            stable = rep.converged_roots()
            assert len(stable) == 1
            roots.append(stable[0])
        assert roots[0] == pytest.approx(roots[1], abs=1e-9)


def criterion1_level(rng, n):
    """A well from the acceptance criterion-1 ranges and the bracket of its
    level n, halfway to the neighboring levels."""
    pot = PTPotential(A=rng.uniform(-80.0, -5.0), B=rng.uniform(0.1, 5.0),
                      alpha=rng.uniform(0.5, 2.0))
    par = spectral_params(pot, CTX, 0)
    above = par.k1(n - 1) if n else 0.0
    return pot, (0.5 * (par.k1(n) + par.k1(n + 1)), 0.5 * (par.k1(n) + above))


class TestKernelDigest:
    """sha256 pins of the recurrence's bits, scalar and polynomial, in the
    style of test_schrodinger's coefficient digest: any change to the
    order of the arithmetic in a step shows here."""

    @staticmethod
    def _levels():
        """The criterion-1 wells (tests/test_acceptance.py's draws), each
        with its levels n = 0..3 and the midpoints between them."""
        rng = random.Random(20260814)
        for _ in range(10):
            pot = PTPotential(
                rng.uniform(-80.0, -5.0), rng.uniform(0.1, 5.0), rng.uniform(0.5, 2.0)
            )
            k1 = spectral_params(pot, CTX, 0).k1
            yield pot, [k1(n) for n in range(4)] + [0.5 * (k1(n) + k1(n + 1)) for n in range(4)]

    @staticmethod
    def _digest(values):
        text = "\n".join(v if isinstance(v, str) else float.hex(float(v)) for v in values)
        return hashlib.sha256(text.encode()).hexdigest()

    # The digest methods are public so that
    # test_cli.py::test_aim_verify_bytes_do_not_depend_on_the_blas_kernel
    # can recompute them under other BLAS kernels.
    @classmethod
    def iterate_digest(cls):
        return cls._digest(
            v
            for pot, energies in cls._levels()
            for k in range(1, 10)
            for e in energies
            for v in aim_iterate(pt_aim_problem(pot, CTX, 0, k), e, k)
        )

    @classmethod
    def delta_polys_digest(cls):
        values = []
        for pot, energies in cls._levels():
            es = uniform_grid(1.1 * energies[0], 0.0, 64)
            for k in range(2, 10):
                problem = pt_aim_problem(pot, CTX, 0, k)
                polys = ptbound.aim._delta_polys(problem, es[0], es[-1], k)
                values += [
                    (e + problem.e_shift) / problem.e_scale * f(e)  # delta = t q
                    for f in polys for e in es.tolist()
                ]
        return cls._digest(values)

    @classmethod
    def scan_reports_digest(cls):
        # Every AimScanReport field but delta_evals, a work count: level n
        # of each well scanned at depth 2n + 2 over the bracket halfway to
        # its neighbors (0 above the ground level).
        values = []
        for pot, energies in cls._levels():
            for n in range(4):
                upper = 0.5 * (energies[0] if n == 0 else energies[n - 1] + energies[n])
                k = 2 * n + 2
                rep = aim_eigen_scan(pt_aim_problem(pot, CTX, 0, k), (energies[4 + n], upper), k)
                for r in rep.roots:
                    values += [r.value, r.residual, r.stability_gap, r.converged]
                values += [len(rep.roots), *rep.shallow_roots]
        return cls._digest(values)

    def test_iterate(self):
        assert self.iterate_digest() == (
            "b49fe4a65f4a9b2063f149b26cfec85707dbba9ae3ccea2cfb4a7b21906717e5"
        )

    def test_delta_polys(self):
        assert self.delta_polys_digest() == (
            "e4ec21dcfe7d17b6e1c3a6f46376b4ba9580c02b27e77dc5a4a16413fa882b87"
        )

    def test_scan_reports(self):
        assert self.scan_reports_digest() == (
            "bc85488b0b381e82e325a605fc6bac518dfa644bf0c9c78645272072a4d2c6a8"
        )


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_sum(*ps):
    out = [Fraction(0)] * max(map(len, ps))
    for p in ps:
        for i, a in enumerate(p):
            out[i] += a
    return out


def exact_scan_q(problem, lo, hi, k):
    """q_(k-1) and q_k of the scan over [lo, hi] in exact rationals, as
    coefficient lists in powers of tau = t - t_c, lowest first: the
    recurrence of the module docstring on Taylor coefficients that are
    polynomials in tau, with s0(E) = s0 (t_c + tau), and delta_j over
    t = t_c + tau by synthetic division, which must leave no remainder."""
    t_c = Fraction((0.5 * lo + 0.5 * hi + problem.e_shift) / problem.e_scale)
    lam0 = [[Fraction(c)] for c in problem.lambda0[: k + 1]]
    s0 = [[Fraction(c) * t_c, Fraction(c)] for c in problem.s0[: k + 1]]
    states = [(lam0, s0)]
    lam, s = lam0, s0
    for m in range(k, 0, -1):
        lam, s = (
            [
                _poly_sum([(i + 1) * c for c in lam[i + 1]], s[i],
                          *(_poly_mul(lam0[p], lam[i - p]) for p in range(i + 1)))
                for i in range(m)
            ],
            [
                _poly_sum([(i + 1) * c for c in s[i + 1]],
                          *(_poly_mul(s0[p], lam[i - p]) for p in range(i + 1)))
                for i in range(m)
            ],
        )
        states.append((lam, s))
    qs = []
    for (prev_lam, prev_s), (lam, s) in zip(states[-3:-1], states[-2:]):
        delta = _poly_sum(_poly_mul(lam[0], prev_s[0]), [-c for c in _poly_mul(prev_lam[0], s[0])])
        q = [Fraction(0)] * (len(delta) - 1)
        rest = delta[-1]
        for i in range(len(delta) - 2, -1, -1):
            q[i] = rest
            rest = delta[i] - t_c * rest
        assert rest == 0
        qs.append(q)
    return qs


class TestExactScanPolynomials:
    """The scan's polynomials are t q(tau), and its evaluators give q
    with each coefficient the correctly rounded double of the exact one,
    by Horner's rule in the module's operation order: the scan's bits do
    not depend on the platform's floating-point types."""

    @staticmethod
    def _cases():
        # The scans of TestKernelDigest's wells, and one aim_scan op
        # (seed 3, the eighth seeded well, n = 3) where rounding q from a
        # 64-bit-significand recurrence moved a shallow root by 1.7e-10.
        for pot, energies in TestKernelDigest._levels():
            for n in range(4):
                upper = 0.5 * (energies[0] if n == 0 else energies[n - 1] + energies[n])
                yield pot, (energies[4 + n], upper), 2 * n + 2
        pot = PTPotential(A=-20.64914493040954, B=4.571632586738696, alpha=1.65133848464576)
        k1 = spectral_params(pot, CTX, 0).k1
        yield pot, (0.5 * (k1(3) + k1(4)), 0.5 * (k1(3) + k1(2))), 8

    def test_values_are_horner_on_the_rounded_exact_q(self):
        for pot, (lo, hi), k in self._cases():
            problem = pt_aim_problem(pot, CTX, 0, k)
            t_c = (0.5 * lo + 0.5 * hi + problem.e_shift) / problem.e_scale
            es = uniform_grid(lo, hi, 33)
            for f, q in zip(ptbound.aim._delta_polys(problem, lo, hi, k),
                            exact_scan_q(problem, lo, hi, k)):
                coeffs = [float(c) for c in reversed(q)]
                expected = []
                for e in es.tolist():
                    t = (e + problem.e_shift) / problem.e_scale
                    acc = 0.0
                    for c in coeffs:
                        acc = acc * (t - t_c) + c
                    expected.append(acc)
                assert [f(e) for e in es.tolist()] == expected, (pot, k)


def _poly_divmod(p, d):
    """Quotient and remainder of p by d, lowest power first, with no
    zero top coefficient left in the remainder."""
    p, quotient = list(p), [Fraction(0)] * max(len(p) - len(d) + 1, 1)
    for i in range(len(p) - len(d), -1, -1):
        quotient[i] = p[i + len(d) - 1] / d[-1]
        for j, c in enumerate(d):
            p[i + j] -= quotient[i] * c
    rest = p[: len(d) - 1]
    while rest and rest[-1] == 0:
        rest.pop()
    return quotient, rest


def _poly_value(p, x):
    return sum(c * x**i for i, c in enumerate(p))


def _derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def sturm_root_count(p, a, b):
    """Distinct real roots on [a, b] of the nonzero polynomial p (lowest
    power first, exact rationals): Sturm's theorem on p's squarefree
    part, whose sign changes drop by one at each root, counted on (a, b],
    with a root at a added."""
    g, h = p, _derivative(p)
    while h:
        g, h = h, _poly_divmod(g, h)[1]
    chain = [_poly_divmod(p, g)[0]]
    chain.append(_derivative(chain[0]))
    while chain[-1]:
        chain.append([-c for c in _poly_divmod(chain[-2], chain[-1])[1]])

    def changes(x):
        signs = [v > 0 for v in (_poly_value(f, x) for f in chain) if v]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    return changes(a) - changes(b) + (_poly_value(chain[0], a) == 0)


class TestPolynomialScan:
    """The scan's roots against exact rationals: the roots of delta_(k-1)
    and delta_k it reports are as many as Sturm's theorem counts on the
    exact t q(tau) over the bracket, and each lies within the bisection
    tolerance of an exact sign change of delta, or is an exact zero."""

    @staticmethod
    def _check(prob, bracket, k):
        lo, hi = bracket
        rep = aim_eigen_scan(prob, bracket, k)
        assert [r.residual for r in rep.roots] == [aim_delta(prob, r.value, k) for r in rep.roots]
        xtol = Fraction(1e-12 * max(abs(lo), abs(hi), 1.0))
        t_c = Fraction((0.5 * lo + 0.5 * hi + prob.e_shift) / prob.e_scale)

        def tau(e):
            return (Fraction(e) + Fraction(prob.e_shift)) / Fraction(prob.e_scale) - t_c

        for roots, q in zip((rep.shallow_roots, [r.value for r in rep.roots]),
                            exact_scan_q(prob, lo, hi, k)):
            delta = _poly_mul([t_c, Fraction(1)], q)
            assert len(roots) == sturm_root_count(delta, *sorted((tau(lo), tau(hi))))
            for r in roots:
                at, left, right = (
                    _poly_value(delta, tau(Fraction(r) + d)) for d in (0, -xtol, xtol)
                )
                assert at == 0 or (left < 0) != (right < 0), r

    @pytest.mark.parametrize("k", range(2, 10))
    def test_matches_exact_roots(self, k):
        rng = random.Random(7919 * k)
        for _ in range(2):
            pot, bracket = criterion1_level(rng, (k - 2) // 2)
            self._check(pt_aim_problem(pot, CTX, 0, k), bracket, k)

    def test_matches_exact_roots_hermite(self):
        self._check(hermite_problem(3), (-0.5, 4.5), 3)

    def test_root_on_a_split_point(self):
        # The bracket's midpoint 2 is a root of q (t's zero, 0, lies
        # outside, so the bracket is not split there first): found
        # exactly where isolation halves the bracket.
        rep = aim_eigen_scan(hermite_problem(3), (0.5, 3.5), 3)
        values = [r.value for r in rep.roots]
        assert values[1] == 2.0
        assert values == pytest.approx([1.0, 2.0, 3.0], abs=3.5e-12)
        self._check(hermite_problem(3), (0.5, 3.5), 3)

    @pytest.mark.parametrize(
        "p, found",
        [
            ([-1, 2], [(0.0, 1.0, (-1.0, 1.0))]),  # 2x - 1: one part holds it
            ([1, -6, 8], [(0.5, 0.5, None), (0.0, 0.5, (1.0, -1.0))]),  # a root at the split point
            ([0, 1, -1], [(1.0, 1.0, None), (0.0, 0.0, None)]),  # roots at both ends
        ],
    )
    def test_isolate(self, p, found):
        assert sorted(ptbound.aim._isolate(p, 30), key=repr) == sorted(found, key=repr)

    def test_double_root_stops_at_the_cap(self):
        # (3x - 1)^2 counts two sign changes on every part that holds 1/3:
        # the halving stops at depth cap, a part 2^-30 wide, with one root
        # at its midpoint.
        (found,) = ptbound.aim._isolate([1, -6, 9], 30)
        x0, x1, fab = found
        assert fab is None and x0 == x1 and abs(x0 - 1 / 3) < 2.0**-31

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(
        a=st.floats(-80.0, -5.0),
        b=st.floats(0.1, 5.0),
        alpha=st.floats(0.5, 2.0),
        frac=st.floats(0.0, 1.0),
        k=st.integers(2, 9),
        branch=st.sampled_from(("paper", "regular")),
    )
    @settings(max_examples=300)
    def test_polynomials_are_delta(self, a, b, alpha, frac, k, branch):
        # Over a level's bracket t times each polynomial is aim_delta up
        # to rounding: within 1e-12 of the two products delta cancels
        # (8.9e-14 the worst of 3,000 random draws).
        pot = PTPotential(a, b, alpha)
        par = spectral_params(pot, CTX, 0, branch)
        n = (k - 2) // 2
        lo, hi = sorted((1.3 * par.k1(n) - 1.0, 0.7 * par.k1(n) + 1.0))
        problem = pt_aim_problem(pot, CTX, 0, k, branch)
        e = lo + frac * (hi - lo)
        t = (e + problem.e_shift) / problem.e_scale
        for j, f in zip((k - 1, k), ptbound.aim._delta_polys(problem, lo, hi, k)):
            if j >= 2:
                lam_prev, s_prev, _ = aim_iterate(problem, e, j - 1)
                lam_cur, s_cur, delta = aim_iterate(problem, e, j)
                scale = abs(lam_cur * s_prev) + abs(lam_prev * s_cur)
                assert abs(t * f(e) - delta) <= 1e-12 * scale


class TestDeltaEvals:
    """AimScanReport.delta_evals counts the values of delta the scan takes
    at single energies: its bisections' and its residuals."""

    def test_counts_every_single_energy_value(self, monkeypatch):
        # One exact recurrence run (_delta_polys) gives the scan
        # polynomials, and one scalar pass (aim_delta's list recurrence)
        # per root gives its residual; every other value comes from the
        # polynomials, in a bisection.
        runs, scalar_runs, residuals, bisected = [], [], [], []
        polys, scalar = ptbound.aim._delta_polys, ptbound.aim._scalar_recurrence
        delta, bisect = ptbound.aim.aim_delta, ptbound.aim.bisect

        def counted_bisect(f, a, b, **kwargs):
            return bisect(lambda e: bisected.append(e) or f(e), a, b, **kwargs)

        monkeypatch.setattr(ptbound.aim, "_delta_polys", lambda *a: runs.append(a) or polys(*a))
        monkeypatch.setattr(
            ptbound.aim, "_scalar_recurrence", lambda *a: scalar_runs.append(a) or scalar(*a)
        )
        monkeypatch.setattr(ptbound.aim, "aim_delta", lambda *a: residuals.append(a) or delta(*a))
        monkeypatch.setattr(ptbound.aim, "bisect", counted_bisect)
        rng = random.Random(11)
        for _ in range(6):
            pot, bracket = criterion1_level(rng, 2)
            for log in (runs, scalar_runs, residuals, bisected):
                log.clear()
            rep = aim_eigen_scan(pt_aim_problem(pot, CTX, 0, 6), bracket, 6)
            assert len(runs) == 1
            assert len(scalar_runs) == len(residuals) == len(rep.roots)
            assert rep.delta_evals == len(bisected) + len(rep.roots) > 0

    def test_scan_polynomials_count_their_single_energy_calls(self):
        lo, hi = -30.0, -1.0
        shallow, deep = ptbound.aim._delta_polys(pt_problem(3), lo, hi, 3)
        deep(lo)
        deep(0.5 * lo + 0.5 * hi)
        shallow(hi)
        assert (shallow.calls, deep.calls) == (1, 2)

    def test_not_compared(self):
        rep = aim_eigen_scan(pt_problem(4), (PAR.k1(1) - 1.0, PAR.k1(1) + 1.0), 4)
        assert rep.delta_evals > 0
        assert dataclasses.replace(rep, delta_evals=0) == rep


class TestShallowRootPairs:
    """Close delta_(k-1) root pairs, which a scan on a grid of values
    missed: exact isolation finds both roots, so the level they grade
    converges."""

    # Depth 5 has a root pair (-64.5076, -64.4726) 0.035 apart, inside
    # one cell of a 512-node grid over the bracket.
    POT = PTPotential(A=-34.60422904704596, B=3.3898324336221726, alpha=0.8039863706786297)

    def test_level_beside_root_pair_converges(self):
        par = spectral_params(self.POT, CTX, 0)
        bracket = (0.5 * (par.k1(2) + par.k1(3)), 0.5 * (par.k1(2) + par.k1(1)))
        rep = aim_eigen_scan(pt_aim_problem(self.POT, CTX, 0, 6), bracket, 6)
        stable = rep.converged_roots()
        assert len(stable) == 1
        assert abs(stable[0] - par.k1(2)) <= 1e-8 * abs(par.k1(2))

    def test_root_pair_on_the_level_converges(self):
        # Depth 3 has a root pair 9.2e-4 apart, one of them on the n = 1
        # level (aim_scan seed 9).
        pot = PTPotential(A=-10.96063264973641, B=1.9935694823814056, alpha=1.6814612693305482)
        closed = spectral_params(pot, CTX, 0).k1(1)
        rep = aim_eigen_scan(pt_aim_problem(pot, CTX, 0, 4), (-75.04880478893833, -29.1996492800036), 4)
        (stable,) = rep.converged_roots()
        assert abs(stable - closed) <= 1e-8 * abs(closed)


class TestRootPairInDeepCell:
    """Levels a scan on a grid of values left unanswered: delta_k itself
    has a root pair inside one grid cell, which makes no sign change
    there.  Exact isolation finds both roots."""

    # Two n = 1 levels at depth 4 with the benchmark's brackets (midpoints
    # to the neighbouring levels).  delta_4 roots: -141.2433 and -141.1913
    # in a 0.183-wide cell of a 512-node grid; -103.1345 and -103.0590 in
    # a 0.084-wide cell.
    LEVELS = [
        (-57.782334629394924, 1.9166354813246282, 1.9723251639883461,
         (-195.84337064109445, -102.09957450191192)),
        (-63.07457070817321, 0.6613989252571173, 1.0551542904822453,
         (-126.792496582679, -83.92994814349902)),
    ]

    @pytest.mark.parametrize("a, b, alpha, bracket", LEVELS)
    def test_level_answered(self, a, b, alpha, bracket):
        pot = PTPotential(A=a, B=b, alpha=alpha)
        closed = spectral_params(pot, CTX, 0).k1(1)
        rep = aim_eigen_scan(pt_aim_problem(pot, CTX, 0, 4), bracket, 4)
        assert any(abs(v - closed) <= 1e-8 * abs(closed) for v in rep.converged_roots())


class TestDepthThresholds:
    """Level n first appears at depth 2n and is graded converged at 2n + 1."""

    BRACKET = (-85.0, -73.0)  # isolates the n = 2 eigenvalue -79.2656892...

    def _roots_at(self, k):
        rep = aim_eigen_scan(pt_problem(k), self.BRACKET, k)
        return rep.roots

    def test_absent_below_threshold(self):
        for k in (2, 3):
            assert self._roots_at(k) == ()

    def test_present_but_unconverged_at_2n(self):
        roots = self._roots_at(4)
        assert len(roots) == 1
        assert roots[0].value == pytest.approx(PAR.k1(2), rel=1e-9)
        assert not roots[0].converged

    def test_converged_at_2n_plus_1(self):
        roots = self._roots_at(5)
        assert len(roots) == 1
        assert roots[0].value == pytest.approx(PAR.k1(2), rel=1e-9)
        assert roots[0].converged
        assert roots[0].stability_gap <= 1e-8 * abs(roots[0].value)


class TestTerminationPattern:
    """Arbitrates the closed-form value of the depth-(n+1) termination point.

    One candidate says the second termination happens at shifted constant
    -4 alpha^2 (gamma + beta + 2); the quantization pattern says level n
    terminates at -4 alpha^2 n (gamma + beta + n).  Only the pattern
    survives a numerical check.
    """

    GB = PAR.gamma + PAR.beta

    def test_single_level_claim_refuted(self):
        k1_claim = -(self.GB**2) - 4.0 * (self.GB + 2.0)
        resid = normalized_delta(pt_problem(3), k1_claim, 3)
        # measured 6.6e-2: nowhere near a cancellation
        assert resid > 1e-3

    def test_pattern_value_confirmed(self):
        k1_pattern = -(self.GB**2) - 8.0 * (self.GB + 2.0)  # n = 2 pattern value
        assert k1_pattern == pytest.approx(PAR.k1(2), rel=1e-12)
        resid = normalized_delta(pt_problem(4), k1_pattern, 4)
        assert resid < 1e-10


def _scaled(problem, c):
    return AimProblem(
        lambda0=[v * c for v in problem.lambda0],
        s0=[v * c for v in problem.s0],
        e_shift=problem.e_shift,
        e_scale=problem.e_scale,
    )


class TestScaleInvariance:
    def test_delta1_homogeneous(self):
        # Scaling both coefficient jets by c multiplies delta_1 by c^2,
        # so the depth-1 root set is exactly invariant.
        base = pt_problem(4)
        scaled = _scaled(base, 3.0)
        for e in (-60.0, -40.0, -25.5):
            assert aim_delta(scaled, e, 1) == pytest.approx(
                9.0 * aim_delta(base, e, 1), rel=1e-12
            )

    def test_terminating_ground_root_survives_scaling(self):
        # s0 = 0 at the ground eigenvalue stays 0 after scaling.
        scaled = _scaled(pt_problem(3), 3.0)
        assert aim_delta(scaled, PAR.k1(0), 2) == 0.0

    def test_scaled_first_excited_root_moves(self):
        # Documents the measured behaviour: at depth 2 with c = 3 the root
        # near -47.653 migrates to -46.320 while the ground root persists.
        base = pt_problem(2)
        rep_b = aim_eigen_scan(base, (-55.0, -20.0), 2)
        rep_s = aim_eigen_scan(_scaled(base, 3.0), (-55.0, -20.0), 2)
        base_vals = [r.value for r in rep_b.roots]
        scaled_vals = [r.value for r in rep_s.roots]
        assert any(abs(v - PAR.k1(1)) < 1e-6 for v in base_vals)
        assert any(abs(v - (-46.319843648)) < 1e-6 for v in scaled_vals)
        assert all(abs(v - PAR.k1(1)) > 1.0 for v in scaled_vals)
        # the ground root is common to both
        assert any(abs(v - PAR.k1(0)) < 1e-6 for v in scaled_vals)

    @pytest.mark.xfail(
        strict=True,
        reason="stated invariant: scaling both jets by a common constant leaves"
        " every delta_k root set unchanged; holds at k = 1 but fails for"
        " k >= 2 (first-excited root moves by 1.33 under c = 3)",
    )
    def test_root_sets_invariant_at_depth_two(self):
        base = pt_problem(2)
        rep_s = aim_eigen_scan(_scaled(base, 3.0), (-48.2, -47.2), 2)
        assert any(abs(r.value - PAR.k1(1)) < 1e-6 for r in rep_s.roots)


class TestScanDiagnostics:
    def test_no_sign_change_gives_empty_report(self):
        rep = aim_eigen_scan(pt_problem(2), (-5.0, -1.0), 2)
        assert rep.roots == ()
        assert rep.shallow_roots == ()

    def test_hermite_scan_finds_integer_spectrum(self):
        rep = aim_eigen_scan(hermite_problem(3), (-0.5, 4.5), 3)
        vals = [r.value for r in rep.roots]
        assert len(vals) == 4
        for expect, got in zip((0.0, 1.0, 2.0, 3.0), vals):
            assert got == pytest.approx(expect, abs=1e-9)
        assert vals[0] == 0.0  # t's zero, reported exactly


class TestValidation:
    def test_depth_exceeding_jet_order(self):
        prob = pt_problem(2)  # jets carry order 2, the depth they are built for
        with pytest.raises(DomainError, match="exceeds the problem's jet order"):
            aim_delta(prob, -30.0, prob.max_order + 1)

    def test_depth_at_jet_order(self):
        # The deepest pass reads every order of the jets, and only those:
        # orders past max_order change nothing, one more depth raises.
        prob = pt_problem(2)
        k = prob.max_order
        longer = AimProblem(
            lambda0=(*prob.lambda0, 0.5, -1.25), s0=(*prob.s0, 2.0, 3.0),
            e_shift=prob.e_shift, e_scale=prob.e_scale,
        )
        for e in (-30.0, PAR.k1(1) + 0.5):
            assert aim_delta(prob, e, k) == aim_delta(longer, e, k)
        with pytest.raises(DomainError, match="exceeds the problem's jet order"):
            aim_delta(prob, -30.0, k + 1)

    def test_nonpositive_depth(self):
        with pytest.raises(DomainError):
            aim_delta(pt_problem(2), -30.0, 0)

    def test_scan_needs_depth_two(self):
        with pytest.raises(DomainError):
            aim_eigen_scan(pt_problem(2), (-30.0, -20.0), 1)

    def test_scan_rejects_empty_bracket(self):
        with pytest.raises(DomainError):
            aim_eigen_scan(pt_problem(2), (-20.0, -20.0), 2)
        with pytest.raises(DomainError):
            aim_eigen_scan(pt_problem(2), (-20.0, -30.0), 2)

    def test_builder_order_mismatch(self):
        with pytest.raises(DomainError, match="one length"):
            AimProblem(lambda0=constant(1.0, 5), s0=constant(1.0, 4))

    @pytest.mark.parametrize(
        "coeffs", [[], [[1.0, 0.0], [0.0, 1.0]], "12", b"12"], ids=["empty", "two-dim", "str", "bytes"]
    )
    def test_problem_rejects_bad_shape(self, coeffs):
        with pytest.raises(DomainError):
            AimProblem(lambda0=coeffs, s0=coeffs)

    @pytest.mark.parametrize(
        "lam_coeff, s_coeff",
        [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.inf), (1.0, math.nan)],
    )
    def test_problem_rejects_nonfinite_jets(self, lam_coeff, s_coeff):
        # accepted, and each aim_delta then raised OverflowRangeError
        with pytest.raises(DomainError, match="finite"):
            AimProblem(
                lambda0=[1.0, lam_coeff, 0.0, 0.0, 0.0, 0.0],
                s0=[1.0, s_coeff, 0.0, 0.0, 0.0, 0.0],
            )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_delta_overflow_raises(self):
        with pytest.raises(OverflowRangeError):
            aim_delta(pt_problem(3), 1e300, 3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_scan_coefficient_overflow_raises(self):
        # Finite jets whose delta polynomial has coefficients past the
        # double range: building the polynomials raises, as the scan does.
        prob = AimProblem(lambda0=constant(1e300, 4) + 1e300, s0=constant(1e300, 4) + 1e300)
        with pytest.raises(OverflowRangeError, match="double range"):
            ptbound.aim._delta_polys(prob, -1.0, 1.0, 3)
        with pytest.raises(OverflowRangeError, match="double range"):
            aim_eigen_scan(prob, (-1.0, 1.0), 3)

    def test_scan_value_overflow_raises(self):
        # Finite coefficients about the midpoint 0 of a bracket whose ends
        # give delta values past the double range: each value raises.
        prob = pt_problem(3)
        deltas = ptbound.aim._delta_polys(prob, -1e300, 1e300, 3)
        for f in deltas:
            assert math.isfinite(f(0.0))
            with pytest.raises(OverflowRangeError, match="double range"):
                f(1e300)
        # Values past the range in a root's residual (the first two
        # brackets, whose roots lie within their tolerance, 1e288 and
        # 1e188, of one another) or coefficients past it (the last two):
        # the scan raises its own error, and no warning comes before it.
        for bracket, message in (
            ((-1e300, 1e300), "is nan"), ((-1e200, 1e200), "is nan"),
            ((1e150, 2e150), "double range"), ((1e300, 1.5e300), "double range"),
        ):
            with pytest.raises(OverflowRangeError, match=message):
                aim_eigen_scan(prob, bracket, 3)

    def test_scan_bracket_wider_than_the_double_range(self):
        # hi - lo overflows, and delta_2 = -c^3 t^3 has coefficients far
        # below the smallest double (c = 1e-300): the exact polynomials
        # still give the one root, E = 0, where doubles gave every point.
        prob = AimProblem((0.0, 0.0, 0.0), (1e-300, 0.0, 0.0))
        rep = aim_eigen_scan(prob, (-1e308, 1e308), 2)
        assert [r.value for r in rep.roots] == [0.0] and rep.shallow_roots == (0.0,)
        assert rep.roots[0].converged and rep.roots[0].residual == 0.0

    def test_scan_refuses_delta_zero_at_every_energy(self):
        # s0 = 0 makes every delta_k vanish identically: no root is isolated.
        prob = AimProblem((1.0, 0.5, 0.0), (0.0, 0.0, 0.0))
        with pytest.raises(DomainError, match="vanishes at every E"):
            aim_eigen_scan(prob, (-1.0, 1.0), 2)

    def test_scan_t_past_the_range_raises(self):
        # t = (E + e_shift) / e_scale overflows at the bracket's ends,
        # where the exact polynomials in x need it: the package's error.
        prob = AimProblem((0.0, 0.0, 0.0), (-1.0, 0.0, 0.0), e_scale=1e-300)
        with pytest.raises(OverflowRangeError, match="double range"):
            aim_eigen_scan(prob, (-1e10, 1e10), 2)
        # Within the range, a value where t overflows raises as well.
        for f in ptbound.aim._delta_polys(prob, -1e-290, 1e-290, 2):
            with pytest.raises(OverflowRangeError, match="double range"):
                f(1e10)


class TestProblemIdentity:
    def test_builds_compare_by_identity(self):
        # Problems are never compared or used as keys by value; two equal
        # builds are two objects.
        a, b = pt_problem(3), pt_problem(3)
        assert a == a and a != b
        assert {a: "level"}.get(b) is None


class TestZeroOnNode:
    """A value exactly zero on a scan node is one degenerate bracket (x, x),
    whatever its neighbours, the first node included."""

    @pytest.mark.parametrize(
        "fx, expected",
        [
            ([0.0, 1.0, 2.0], [(0.0, 0.0, 0.0, 0.0)]),
            ([0.0, -1.0, -2.0], [(0.0, 0.0, 0.0, 0.0)]),
            ([1.0, 0.0, -1.0], [(1.0, 1.0, 0.0, 0.0)]),
            ([math.nan, 0.0, 1.0], [(1.0, 1.0, 0.0, 0.0)]),
            ([-1.0, 1.0, 0.0], [(0.0, 1.0, -1.0, 1.0), (2.0, 2.0, 0.0, 0.0)]),
        ],
    )
    def test_sign_change_brackets(self, fx, expected):
        assert sign_change_brackets(fx, 0.0, 2.0, 3) == expected

    def test_scan_keeps_root_on_either_end(self):
        # s0(E) vanishes at E = -e_shift, and with it every delta_k.
        prob = pt_problem(3)
        z = -prob.e_shift
        assert aim_delta(prob, z, 3) == 0.0
        for bracket in ((z, z + 5.0), (z - 5.0, z)):
            rep = aim_eigen_scan(prob, bracket, 3)
            assert [r.value for r in rep.roots] == [z], bracket


class TestProperties:
    """Postconditions beyond the contract table's finite-or-PtboundError,
    on input that includes non-finite numbers."""

    @given(
        lam=st.lists(st.one_of(S.finite_floats, S.NONFINITE), min_size=1, max_size=8),
        s=st.lists(st.one_of(S.finite_floats, S.NONFINITE), min_size=1, max_size=8),
        e_shift=st.one_of(S.finite_floats, S.NONFINITE),
        e_scale=st.one_of(S.finite_floats, S.NONFINITE),
    )
    @settings(max_examples=300)
    def test_problem(self, lam, s, e_shift, e_scale):
        p = S.finite_or_ptbound_error(lambda: AimProblem(lam, s, e_shift, e_scale))
        if p is not None:
            assert p.max_order >= 1 and len(p.lambda0) == len(p.s0) == p.max_order + 1
            assert type(p.lambda0) is type(p.s0) is tuple
            assert all(type(c) is float and math.isfinite(c) for c in (*p.lambda0, *p.s0))
            assert all(math.isfinite(v) for v in (p.e_shift, p.e_scale)) and p.e_scale
            # Checked once, where it is built: nothing can change it after.
            for coeffs in (p.lambda0, p.s0):
                with pytest.raises(TypeError):
                    coeffs[0] = math.nan

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(
        problem=S.aim_problems, e=st.one_of(S.aim_energies, S.NONFINITE), k=S.aim_depths
    )
    @settings(max_examples=300)
    def test_iterate(self, problem, e, k):
        values = S.finite_or_ptbound_error(aim_iterate, problem, e, k)
        if values is not None:
            assert all(type(v) is float and math.isfinite(v) for v in values)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(
        problem=S.aim_problems,
        lo=st.one_of(st.floats(min_value=-1e14, max_value=0.0), S.NONFINITE),
        width=st.one_of(st.floats(min_value=-1.0, max_value=1e14), S.NONFINITE),
        k=S.aim_depths,
    )
    @settings(max_examples=200)
    def test_scan(self, problem, lo, width, k):
        report = S.finite_or_ptbound_error(aim_eigen_scan, problem, (lo, lo + width), k)
        if report is not None:
            assert all(math.isfinite(v) for v in report.shallow_roots)
            for root in report.roots:
                assert math.isfinite(root.value) and math.isfinite(root.residual)
                # inf means no shallower root to compare against
                assert not math.isnan(root.stability_gap)
                assert not root.converged or math.isfinite(root.stability_gap)
            assert report.delta_evals >= len(report.roots)
