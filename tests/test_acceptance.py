"""Acceptance gate: one test per shipped guarantee, each printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s``
to see them).

Criterion 5's classical-agreement clause is encoded twice: once
verbatim (strict xfail: the advertised 2% band is structurally
unattainable at zeta = 50, where the ladder-sum endpoint correction
already floors at 1/(zeta+1) = 1.96% and reaches 2.49% at chi = 1) and
once on the attainable zeta >= 64 envelope, which passes.

Criteria 1 to 5 beat their bounds by orders of magnitude, so each also
asserts its worst deviation within 10 times the floor committed in
floors.json, with the case that gave it (criterion 3 takes the larger of
its two sweeps' worst, criterion 4 the limit formula's, and criterion 5
has one floor for each link of its consistency chain).  A change that
moves a floor edits that file.
"""

import json
import math
import random
import time
from pathlib import Path

import pytest

from ptbound.aim import aim_eigen_scan, aim_iterate
from ptbound.cli import RunConfig, cli_figure_data, cli_table2
from ptbound.dirac import (
    DiracContext,
    nr_limit_energy,
    pspin_residual,
    solve_levels,
    special_case_residual,
    spin_residual,
    spin_residual_via_map,
)
from ptbound.molecules import builtin_molecules, load_molecules, save_molecules
from ptbound.oracle import finite_difference, integrate_adaptive, shoot_eigenvalue
from ptbound.schrodinger import (
    NRContext,
    PTPotential,
    energy_nr,
    pt_aim_problem,
    pt_radial_problem,
    spectral_params,
)
from ptbound.specfun import dawson, erfi, hyp2f1_terminating, pochhammer
from ptbound.thermo import (
    ThermoContext,
    chi,
    entropy,
    free_energy,
    log_partition_closed,
    mean_energy,
    partition_closed,
    partition_sum,
    specific_heat,
)

NATURAL = NRContext.natural(mu=0.5)


def report(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


FLOORS = json.loads((Path(__file__).parent / "floors.json").read_text(encoding="utf-8"))


def check_floor(num, worst, case):
    """worst within 10 times the criterion's committed floor: the paper's
    bound is far looser, so this is what catches a quiet loss of accuracy."""
    floor = FLOORS[f"criterion {num}"]
    assert worst <= 10.0 * floor["worst_rel_dev"], (
        f"criterion {num}: worst rel dev {worst:.2e} at {case} exceeds 10 times the floor "
        f"{floor['worst_rel_dev']:.2e} at {floor['case']}"
    )


def gap(x, y):
    """Mixed abs/rel distance; NaN-on-both counts as agreement."""
    if math.isnan(x) and math.isnan(y):
        return 0.0
    if math.isnan(x) or math.isnan(y):
        return math.inf
    return abs(x - y) / max(1.0, abs(x), abs(y))


class TestCriterion1:
    def test_aim_matches_closed_form(self):
        rng = random.Random(20260814)
        t0 = time.perf_counter()
        worst, worst_case = 0.0, None
        for _ in range(10):
            pot = PTPotential(
                A=rng.uniform(-80.0, -5.0),
                B=rng.uniform(0.1, 5.0),
                alpha=rng.uniform(0.5, 2.0),
            )
            par = spectral_params(pot, NATURAL, 0)
            for n in range(4):
                k = max(2, 2 * n + 2)
                problem = pt_aim_problem(pot, NATURAL, 0, k)
                closed = par.k1(n)
                above = par.k1(n - 1) if n else 0.0
                bracket = (0.5 * (closed + par.k1(n + 1)), 0.5 * (closed + above))
                scan = aim_eigen_scan(problem, bracket, k)
                stable = [r for r in scan.roots if r.converged]
                assert stable, f"no stable root for n={n}, well {pot}"
                root = min(stable, key=lambda r: abs(r.value - closed))
                dev = abs(root.value - closed) / abs(closed)
                if dev > worst:
                    worst, worst_case = dev, {"A": pot.A, "B": pot.B, "alpha": pot.alpha, "n": n}
        elapsed = time.perf_counter() - t0

        # Arbitration of the two printed depth-(n+1) termination values:
        # the per-level pattern -4 alpha^2 n (gamma+beta+n) terminates the
        # recurrence; the single-level "-4 alpha^2 (gamma+beta+2)" claim
        # does not.  Residuals are delta_k normalized by the size of the
        # products it cancels.
        pot = PTPotential(A=-30.0, B=2.3, alpha=1.0)
        par = spectral_params(pot, NATURAL, 0)
        gb = par.gamma + par.beta

        def normalized_delta(depth, e):
            problem = pt_aim_problem(pot, NATURAL, 0, depth)
            lam_prev, s_prev, _ = aim_iterate(problem, e, depth - 1)
            lam_cur, s_cur, delta = aim_iterate(problem, e, depth)
            scale = abs(lam_cur * s_prev) + abs(lam_prev * s_cur)
            return abs(delta) / scale

        claim_resid = normalized_delta(3, -(gb**2) - 4.0 * (gb + 2.0))
        pattern_resid = normalized_delta(4, -(gb**2) - 8.0 * (gb + 2.0))
        print(
            f"[criterion 1] note: termination pattern K2(n) = -4a^2 n(g+b+n) "
            f"confirmed (residual {pattern_resid:.1e}); single-level claim "
            f"refuted (residual {claim_resid:.1e})"
        )
        ok = (
            worst <= 1e-8
            and elapsed < 60.0
            and pattern_resid < 1e-10
            and claim_resid > 1e-3
        )
        report(
            1, ok,
            f"40 randomized levels, scan vs closed form worst rel dev "
            f"{worst:.2e} (tol 1e-8) in {elapsed:.1f}s (limit 60s)",
        )
        check_floor(1, worst, worst_case)


class TestCriterion2:
    # Deep binding wells (B < |A|) holding at least three regular-branch
    # levels; the published reference well A=-2, B=3 is purely repulsive
    # and binds nothing, so it cannot serve here.
    WELLS = [
        (-60.0, 0.5, 1.0),
        (-100.0, 2.0, 1.0),
        (-45.0, 0.1, 0.8),
        (-150.0, 3.0, 1.3),
        (-75.0, 1.2, 1.1),
    ]

    def test_shooting_matches_regular_branch(self):
        worst, worst_case = 0.0, None
        for a, b, alpha in self.WELLS:
            pot = PTPotential(A=a, B=b, alpha=alpha)
            reg = spectral_params(pot, NATURAL, 0, "regular")
            prob = pt_radial_problem(pot, NATURAL, 0, k1_estimate=reg.k1(0))
            for n in range(3):
                # regular-branch ladder ascends toward zero with n, so
                # the deeper neighbor is k1(n-1)
                closed = reg.k1(n)
                deeper = reg.k1(n - 1) if n else 1.44 * closed
                lo = 0.5 * (closed + deeper)
                hi = 0.5 * (closed + reg.k1(n + 1))
                res = shoot_eigenvalue(prob, n, (lo, hi), tol=1e-9)
                dev = abs(res.value - closed) / abs(closed)
                if dev > worst:
                    worst, worst_case = dev, {"A": a, "B": b, "alpha": alpha, "n": n}

        # The published sign convention picks the other exponent pair;
        # its ladder disagrees with the solved spectrum at every level.
        pot = PTPotential(*self.WELLS[0][:2], alpha=self.WELLS[0][2])
        reg = spectral_params(pot, NATURAL, 0, "regular")
        pap = spectral_params(pot, NATURAL, 0, "paper")
        branch_gap = min(
            abs(pap.k1(n) - reg.k1(n)) / abs(reg.k1(n)) for n in range(3)
        )
        print(
            f"[criterion 2] note: published-branch ladder differs from the "
            f"solved spectrum by >= {branch_gap:.2%} per level (quantified, "
            f"not suppressed)"
        )
        ok = worst <= 1e-6 and branch_gap > 1e-3
        report(
            2, ok,
            f"15 shooting eigenvalues vs closed form, worst rel dev "
            f"{worst:.2e} (tol 1e-6)",
        )
        check_floor(2, worst, worst_case)


class TestCriterion3:
    M = 20.0

    def _sweep_worst(self, case, fn_special, fn_general, npts=641):
        """The largest gap over the energy sweep, and case with its E."""
        worst, at = 0.0, None
        for i in range(npts):
            e = -40.0 + 80.0 * i / (npts - 1)
            g = gap(fn_special(e), fn_general(e))
            if g > worst:
                worst, at = g, e
        return worst, {**case, "E": at}

    def test_reductions_and_parameter_map(self):
        pot_ref = PTPotential(A=-2.0, B=3.0, alpha=1.0)
        sweeps = []

        ctx = DiracContext(M=self.M, kappa=1, n=2)
        sweeps.append(self._sweep_worst(
            {"condition": "swave_pspin"},
            lambda e: special_case_residual(
                "swave_pspin", e, m=self.M, n=2, a=pot_ref.A, b=pot_ref.B
            ),
            lambda e: pspin_residual(e, ctx, pot_ref),
        ))
        ctx = DiracContext(M=self.M, kappa=-1, n=1)
        sweeps.append(self._sweep_worst(
            {"condition": "swave_spin"},
            lambda e: special_case_residual(
                "swave_spin", e, m=self.M, n=1, a=pot_ref.A, b=pot_ref.B
            ),
            lambda e: spin_residual(e, ctx, pot_ref),
        ))
        for eta in (0.5, 1.0, 2.3):
            pot = PTPotential(A=-eta * (eta + 1.0) / 2.0, B=0.0, alpha=1.0)
            ctx = DiracContext(M=self.M, kappa=1, n=1)
            sweeps.append(self._sweep_worst(
                {"condition": "reflectionless_pspin", "eta": eta},
                lambda e: special_case_residual(
                    "reflectionless_pspin", e, m=self.M, n=1, eta=eta
                ),
                lambda e: pspin_residual(e, ctx, pot),
            ))
            ctx = DiracContext(M=self.M, kappa=-1, n=1)
            sweeps.append(self._sweep_worst(
                {"condition": "reflectionless_spin", "eta": eta},
                lambda e: special_case_residual(
                    "reflectionless_spin", e, m=self.M, n=1, eta=eta
                ),
                lambda e: spin_residual(e, ctx, pot),
            ))
        for eta in (0.1, 0.45):
            pot = PTPotential(A=0.25 - eta * eta, B=0.0, alpha=1.0)
            ctx = DiracContext(M=self.M, kappa=1, n=0)
            sweeps.append(self._sweep_worst(
                {"condition": "hyperbolic_mpt_pspin", "eta": eta},
                lambda e: special_case_residual(
                    "hyperbolic_mpt_pspin", e, m=self.M, n=0, eta=eta
                ),
                lambda e: pspin_residual(e, ctx, pot),
            ))
            ctx = DiracContext(M=self.M, kappa=-1, n=0)
            sweeps.append(self._sweep_worst(
                {"condition": "hyperbolic_mpt_spin", "eta": eta},
                lambda e: special_case_residual(
                    "hyperbolic_mpt_spin", e, m=self.M, n=0, eta=eta
                ),
                lambda e: spin_residual(e, ctx, pot),
            ))
        worst = max(g for g, _ in sweeps)

        # kappa -> kappa+1 exchange map between the two symmetry residuals
        map_sweeps = []
        for kappa in (-2, -1, 1, 2):
            for c_shift in (0.0, 1.5):
                ctx = DiracContext(M=self.M, kappa=kappa, n=1, c_shift=c_shift)
                map_sweeps.append(self._sweep_worst(
                    {"condition": "exchange_map", "kappa": kappa, "c_shift": c_shift},
                    lambda e: spin_residual_via_map(e, ctx, pot_ref),
                    lambda e: spin_residual(e, ctx, pot_ref),
                    npts=321,
                ))
        map_worst = max(g for g, _ in map_sweeps)

        ok = worst <= 1e-12 and map_worst <= 1e-12
        report(
            3, ok,
            f"six reduced conditions pointwise vs general residuals, worst "
            f"{worst:.2e}; exchange map worst {map_worst:.2e} (tol 1e-12)",
        )
        check_floor(3, *max(sweeps + map_sweeps, key=lambda s: s[0]))


class TestCriterion4:
    def test_nonrelativistic_limit(self):
        pot = PTPotential(A=-2.0, B=3.0, alpha=1.0)
        alg_worst, alg_case = 0.0, None
        for mu in (0.5, 1.0, 7.3):
            ctx = NRContext.natural(mu=mu)
            for n, l in ((0, 0), (1, 0), (2, 3)):
                limit = nr_limit_energy(mu, pot, n, l)
                closed = energy_nr(pot, ctx, n, l, branch="paper")
                dev = abs(limit - closed) / abs(closed)
                if dev > alg_worst:
                    alg_worst, alg_case = dev, {"mu": mu, "n": n, "l": l}

        # Large-M study: solve the spin-symmetry condition and watch
        # E - M approach the limit value across a decade of M.
        pot0 = PTPotential(A=-2.0, B=0.0, alpha=1.0)
        masses = (50.0, 100.0, 200.0, 500.0)
        errs = []
        for m in masses:
            enr = nr_limit_energy(m, pot0, 0, 0)
            ctx = DiracContext(M=m, kappa=-1, n=0)
            roots = solve_levels(
                ctx, pot0, "spin", (m + enr - 1.0, m + enr + 1.0), tol=1e-14
            )
            assert len(roots) == 1
            errs.append(abs((roots[0].E - m) - enr))
        orders = [
            math.log(e_lo / e_hi) / math.log(m_hi / m_lo)
            for (m_lo, e_lo), (m_hi, e_hi) in zip(
                zip(masses, errs), zip(masses[1:], errs[1:])
            )
        ]
        decade_order = math.log(errs[0] / errs[-1]) / math.log(masses[-1] / masses[0])
        ok = alg_worst <= 1e-12 and decade_order >= 1.0 and min(orders) >= 1.0
        report(
            4, ok,
            f"limit formula vs closed form worst rel {alg_worst:.2e} "
            f"(tol 1e-12); E-M convergence order {decade_order:.2f} over "
            f"M in {masses} (need >= 1)",
        )
        check_floor(4, alg_worst, alg_case)


BETA_GRID = [1e-6 * (1e5) ** (i / 63) for i in range(64)]
ZETA_GRID = (5.0, 10.0, 20.0, 35.0, 50.0, 64.0, 80.0, 120.0)


def classical_points():
    for zeta in ZETA_GRID:
        ctx = ThermoContext(zeta=zeta, tau=1.0)
        for beta in BETA_GRID:
            if zeta >= 50.0 and chi(ctx, beta) <= 1.0:
                yield ctx, beta


class TestCriterion5:
    def test_consistency_chain_and_limits(self):
        # quantity -> (worst rel dev, the point that gave it)
        worst = dict.fromkeys(("U-vs-FD", "C-vs-FD", "S identity", "F identity"), (0.0, None))

        def track(quantity, dev, ctx, beta):
            worst[quantity] = max(worst[quantity], (dev, {"zeta": ctx.zeta, "beta": beta}),
                                  key=lambda w: w[0])

        for zeta in ZETA_GRID:
            ctx = ThermoContext(zeta=zeta, tau=1.0)
            for beta in BETA_GRID:
                ln_z = log_partition_closed(ctx, beta)
                u = mean_energy(ctx, beta)
                du, _ = finite_difference(
                    lambda s: log_partition_closed(ctx, s), beta, order=1, h=beta * 1e-2
                )
                track("U-vs-FD", abs(u - (-du)) / max(1.0, abs(u)), ctx, beta)
                c = specific_heat(ctx, beta)
                dudb, _ = finite_difference(
                    lambda s: mean_energy(ctx, s), beta, order=1, h=beta * 1e-2
                )
                track("C-vs-FD", abs(c - (-(beta**2) * dudb)) / max(1.0, abs(c)), ctx, beta)
                s_val = entropy(ctx, beta)
                track("S identity", abs(s_val - (ln_z + beta * u)) / max(1.0, abs(s_val)),
                      ctx, beta)
                f_val = free_energy(ctx, beta)
                t = 1.0 / beta
                track("F identity", abs(f_val - (u - t * s_val)) / max(1.0, abs(f_val)),
                      ctx, beta)
        worst_u, worst_c, worst_s, worst_f = (w for w, _ in worst.values())

        limit_ok = True
        for zeta in ZETA_GRID:
            ctx = ThermoContext(zeta=zeta, tau=1.0)
            beta = 1e-6 * (ctx.tau / ctx.zeta) ** 2
            plateau = -ctx.zeta**2 / (3.0 * ctx.tau**2)
            limit_ok &= abs(mean_energy(ctx, beta) - plateau) <= 0.01 * abs(plateau)
            limit_ok &= abs(specific_heat(ctx, beta)) <= 0.01

        ok = (
            worst_u <= 1e-6 and worst_c <= 1e-5
            and worst_s <= 1e-8 and worst_f <= 1e-8 and limit_ok
        )
        report(
            5, ok,
            f"64x8 grid: U-vs-FD {worst_u:.1e} (1e-6), C-vs-FD {worst_c:.1e} "
            f"(1e-5), S identity {worst_s:.1e} (1e-8), F identity {worst_f:.1e} "
            f"(1e-8), beta->0 limits within 1%: {limit_ok}",
        )
        for quantity, (dev, case) in worst.items():
            check_floor(f"5 {quantity}", dev, case)

    @pytest.mark.xfail(
        strict=True,
        reason="the 2% classical band cannot hold at zeta = 50: the "
        "ladder-sum endpoint correction floors at 1/(zeta+1) = 1.96% and "
        "measures 2.49% at chi = 1; it holds from zeta >= 64",
    )
    def test_classical_agreement_as_stated(self):
        worst = 0.0
        for ctx, beta in classical_points():
            s = partition_sum(ctx, beta, math.floor(ctx.zeta))
            c = partition_closed(ctx, beta)
            worst = max(worst, abs(c - s) / s)
        report(
            5, worst <= 0.02,
            f"classical regime (zeta >= 50, chi <= 1): worst "
            f"|closed - sum|/sum = {worst:.2%} (stated tol 2%)",
        )

    def test_classical_agreement_attainable_envelope(self):
        worst = 0.0
        for ctx, beta in classical_points():
            if ctx.zeta < 64.0:
                continue
            s = partition_sum(ctx, beta, math.floor(ctx.zeta))
            c = partition_closed(ctx, beta)
            worst = max(worst, abs(c - s) / s)
        report(
            5, 0.0 < worst <= 0.02,
            f"classical regime restricted to zeta >= 64: worst "
            f"|closed - sum|/sum = {worst:.2%} (tol 2%)",
        )


class TestCriterion6:
    def test_special_function_identities(self):
        ident_worst = 0.0
        for i in range(1001):
            x = 10.0 * i / 1000
            lhs = erfi(x)
            rhs = 2.0 / math.sqrt(math.pi) * math.exp(x * x) * dawson(x)
            ident_worst = max(ident_worst, abs(lhs - rhs) / max(1.0, abs(lhs)))

        quad = integrate_adaptive(lambda y: math.exp(y * y), 0.0, 1.0, tol=1e-14)
        dawson_dev = abs(dawson(1.0) - math.exp(-1.0) * quad)
        erfi_dev = abs(erfi(1.0) - 2.0 / math.sqrt(math.pi) * quad)

        def reference_sum(n, b, c, z):
            total = 0.0
            for k in range(n + 1):
                num = pochhammer(-n, k) * pochhammer(b, k)
                total += num / (pochhammer(c, k) * math.factorial(k)) * z**k
            return total

        cases = [
            (3, 1.5, 2.5, 0.3),
            (5, -2.2, 1.25, -0.8),
            (4, 0.7, 0.5, 0.9),
            (6, 2.0, 3.0, -0.35),
        ]
        f21_worst = max(
            abs(hyp2f1_terminating(n, b, c, z) - reference_sum(n, b, c, z))
            / max(1.0, abs(reference_sum(n, b, c, z)))
            for n, b, c, z in cases
        )
        ok = ident_worst <= 1e-12 and dawson_dev <= 1e-10 and erfi_dev <= 1e-10 and f21_worst <= 1e-13
        report(
            6, ok,
            f"erfi/dawson identity on [0,10] worst {ident_worst:.1e} (1e-12); "
            f"dawson(1)/erfi(1) vs quadrature {dawson_dev:.1e}/{erfi_dev:.1e} "
            f"(1e-10); terminating 2F1 vs term-sum {f21_worst:.1e} (1e-13)",
        )


class TestCriterion7:
    def test_table_regeneration(self, tmp_path):
        out1 = tmp_path / "one.csv"
        out2 = tmp_path / "two.csv"
        csv1, rep1 = cli_table2(RunConfig(out=out1))
        csv2, _ = cli_table2(RunConfig(out=out2))
        deterministic = csv1.read_bytes() == csv2.read_bytes()

        text = csv1.read_text(encoding="utf-8")
        lines = text.splitlines()
        grid_ok = len(lines) == 1 + 12 * 9
        verbatim_ok = ",-2.01518700249," in text

        # exact ingestion round-trip of the bundled molecule table
        data = tmp_path / "mols.csv"
        save_molecules(data, builtin_molecules())
        ingest_ok = load_molecules(data) == builtin_molecules()

        report_text = rep1.read_text(encoding="utf-8")
        report_ok = (
            "worst |rel_dev_calibrated|" in report_text
            and "1973.0" in report_text
            and "entries compared: 108" in report_text
        )
        ok = deterministic and grid_ok and verbatim_ok and ingest_ok and report_ok
        report(
            7, ok,
            f"byte-deterministic={deterministic}, 12x9 grid with verbatim "
            f"reference column={grid_ok and verbatim_ok}, exact dataset "
            f"round-trip={ingest_ok}, calibration report={report_ok} "
            f"(numeric table match is documented, not gated)",
        )


class TestCriterion8:
    def test_figure_data_gates(self, tmp_path):
        path_alpha, path_beta, path_zeta = cli_figure_data(RunConfig(out=tmp_path))

        def columns(path):
            lines = path.read_text(encoding="utf-8").splitlines()
            header = lines[0].split(",")
            cols = {h: [] for h in header}
            for line in lines[1:]:
                for h, cell in zip(header, line.split(",")):
                    cols[h].append(float(cell))
            return cols

        zeta_cols = columns(path_zeta)
        z_increasing = all(
            all(b > a for a, b in zip(zeta_cols[col], zeta_cols[col][1:]))
            for col in ("Z_beta1", "Z_beta2", "Z_beta3")
        )

        beta_cols = columns(path_beta)
        mol_names = ("N2", "TiH", "NiC", "I2")
        u_monotone = all(
            all(b <= a for a, b in zip(beta_cols[f"U_{m}"], beta_cols[f"U_{m}"][1:]))
            for m in mol_names
        )

        peaked = []
        for m in mol_names:
            c = beta_cols[f"C_{m}"]
            rises = [b > a for a, b in zip(c, c[1:])]
            flips = sum(1 for a, b in zip(rises, rises[1:]) if a and not b)
            interior = 0 < c.index(max(c)) < len(c) - 1
            if flips == 1 and interior:
                peaked.append(m)

        alpha_ok = path_alpha.exists() and len(
            path_alpha.read_text(encoding="utf-8").splitlines()
        ) == 65
        ok = z_increasing and u_monotone and len(peaked) >= 1 and alpha_ok
        report(
            8, ok,
            f"Z strictly increasing in zeta={z_increasing}; U nonincreasing "
            f"in beta={u_monotone}; interior C peak for {peaked or 'none'}",
        )
