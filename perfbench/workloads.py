"""Seeded op streams for the three workloads, with per-op correctness gates.

A workload is an endless, deterministic stream of rounds made from the
seed; a round is a list of ops (one well's levels, one cycle of the
artifact commands) and runs end only between rounds, so every run holds
the same mix of op kinds.  An op is one call into the package: ``run``
is the timed call and ``check`` turns its output into ``(verdict,
observations)`` outside the clock.  The gates reuse the acceptance
suite's tolerances unchanged.  See WORKLOADS.md for why each workload
exists.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

AIM_REL_TOL = 1e-8  # acceptance criterion 1
SHOOT_REL_TOL = 1e-6  # acceptance criterion 2
SHOOT_TOL = 1e-9  # shooting tolerance used by criterion 2
IDENTITY_TOL = 1e-8  # identities between 11-significant-digit CSV cells

DIGESTS = Path(__file__).with_name("digests.json")

# R3 low-discrepancy sequence: 1/g, 1/g^2, 1/g^3 with g the real root of
# x^4 = x + 1.  Every prefix spreads evenly over the parameter box, so runs
# with different seeds see the same mix of cheap and expensive wells.
_G3 = 1.2207440846057596
_R3_STEP = (1.0 / _G3, 1.0 / _G3**2, 1.0 / _G3**3)


# Gate verdicts.  UNANSWERED is the package declining to answer, as when
# no scanned root is graded converged (`ptbound aim-verify` raises there);
# it fails the op like an exception.  WRONG is an answer that contradicts
# the reference, and makes the run incorrect.
PASS, UNANSWERED, WRONG = "pass", "unanswered", "wrong"


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, dict]]


def _verdict(ok: bool) -> str:
    return PASS if ok else WRONG


def _spread_points(rng):
    offset = [rng.random() for _ in range(3)]
    i = 0
    while True:
        i += 1
        yield [(o + i * s) % 1.0 for o, s in zip(offset, _R3_STEP)]


def _scale(u: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) * u


def _cli(pkg, command: str, *args, **kwargs):
    # Looked up at call time, so the traced run sees its wrapped commands.
    return getattr(pkg.cli, command)(*args, **kwargs)


def _rel_dev(value: float, expected: float) -> float:
    return abs(value - expected) / abs(expected)


# -- aim_scan ------------------------------------------------------------------


# About one criterion-1 level in 600 is left unanswered: the depth-k scan
# finds the true root, the depth k - 1 scan finds none near it, and
# stability grading marks the root unconverged.  This is one of them,
# n = 2; it runs as the first round of every run, so the defect shows
# whatever the seed draws, until the grading converges on it.
UNANSWERED_WELL = (-34.60422904704596, 3.3898324336221726, 0.8039863706786297)


def aim_scan(pkg, rng, workdir):
    """A first round of the unanswered level, then rounds of one seeded
    criterion-1 well: an op per level n = 0..3 at depth 2n + 2."""
    sch = pkg.schrodinger
    ctx = sch.NRContext.natural(mu=0.5)
    a, b, alpha = UNANSWERED_WELL
    yield [replace(_aim_well(pkg, ctx, sch.PTPotential(A=a, B=b, alpha=alpha))[2],
                   label="aim_scan unanswered n=2")]
    for u in _spread_points(rng):
        pot = sch.PTPotential(
            A=_scale(u[0], -80.0, -5.0), B=_scale(u[1], 0.1, 5.0), alpha=_scale(u[2], 0.5, 2.0)
        )
        yield _aim_well(pkg, ctx, pot)


def _aim_well(pkg, ctx, pot):
    par = pkg.schrodinger.spectral_params(pot, ctx, 0)
    ops = []
    for n in range(4):
        k = 2 * n + 2
        closed = par.k1(n)
        above = par.k1(n - 1) if n else 0.0
        bracket = (0.5 * (closed + par.k1(n + 1)), 0.5 * (closed + above))
        ops.append(Op(
            f"aim_scan n={n}",
            partial(_aim_level, pkg, pot, ctx, k, bracket),
            partial(_aim_gate, closed),
        ))
    return ops


def _aim_level(pkg, pot, ctx, k, bracket):
    problem = pkg.schrodinger.pt_aim_problem(pot, ctx, 0, k)
    return pkg.aim.aim_eigen_scan(problem, bracket, k)


def _aim_gate(closed, report):
    stable = [r.value for r in report.roots if r.converged]
    obs = {"roots": len(report.roots), "converged": len(stable)}
    if not stable:
        return UNANSWERED, obs
    obs["rel_dev"] = min(_rel_dev(v, closed) for v in stable)
    return _verdict(obs["rel_dev"] <= AIM_REL_TOL), obs


# -- shoot_scan ----------------------------------------------------------------


# Seeded wells keep B / alpha^2 >= 2, where shooting converges on the
# 8k-point mesh after one refinement.  Below that the mesh doubles up to
# 256k points and one level takes seconds, so a run holds only a few such
# wells and their draw would swing it by a third from seed to seed.
STRONG_CORE = 2.0
# The weak-core regime is measured on two fixed n = 2 levels from the
# same ranges, each refined six times to 256k points (about 5 s apiece).
# Criterion 2's own weak-core well converges there.  The other level then
# raises ConvergenceError (gap 1.58e-8, tolerance 1.17e-8): a known
# failure that stays in every run until the oracle converges on it.
WEAK_CORE_WELL = (-45.0, 0.1, 0.8)
STALLED_WELL = (-108.38468982155987, 0.26891787363534336, 1.2422303788240925)


def shoot_scan(pkg, rng, workdir):
    """A first round of the two weak-core levels, then rounds of one
    seeded strong-core well from the criterion-2 ranges, n = 0..2."""
    sch = pkg.schrodinger
    yield [replace(_shoot_well(pkg, sch.PTPotential(A=a, B=b, alpha=alpha))[2],
                   label="shoot_scan weak core n=2")
           for a, b, alpha in (WEAK_CORE_WELL, STALLED_WELL)]
    for u in _spread_points(rng):
        alpha = _scale(u[2], 0.8, math.sqrt(3.0 / STRONG_CORE))
        pot = sch.PTPotential(
            A=_scale(u[0], -150.0, -40.0),
            B=_scale(u[1], STRONG_CORE * alpha**2, 3.0),
            alpha=alpha,
        )
        round_ = _shoot_well(pkg, pot)
        if round_:
            yield round_


def _shoot_well(pkg, pot):
    sch = pkg.schrodinger
    ctx = sch.NRContext.natural(mu=0.5)
    reg = sch.spectral_params(pot, ctx, 0, "regular")
    # Each level's bracket reaches halfway to the next level up, so the
    # well must bind n = 3 as well.
    if not reg.bound_possible(3):
        return []
    ops = []
    for n in range(3):
        closed = reg.k1(n)
        deeper = reg.k1(n - 1) if n else 1.44 * closed
        bracket = (0.5 * (closed + deeper), 0.5 * (closed + reg.k1(n + 1)))
        ops.append(Op(
            f"shoot_scan n={n}",
            partial(_shoot_level, pkg, pot, ctx, reg.k1(0), n, bracket),
            partial(_shoot_gate, closed),
        ))
    return ops


def _shoot_level(pkg, pot, ctx, k1_ground, n, bracket):
    problem = pkg.schrodinger.pt_radial_problem(pot, ctx, 0, k1_estimate=k1_ground)
    return pkg.oracle.shoot_eigenvalue(problem, n, bracket, tol=SHOOT_TOL)


def _shoot_gate(closed, result):
    dev = _rel_dev(result.value, closed)
    obs = {"refinements": result.refinements, "npts": result.npts, "rel_dev": dev}
    return _verdict(dev <= SHOOT_REL_TOL), obs


# -- artifacts -----------------------------------------------------------------

def default_calls(pkg, workdir: Path) -> dict:
    """Each artifact command at the `ptbound` CLI's default arguments.

    Maps command -> (call, files it writes).
    """
    cli = pkg.cli
    figs = workdir / "figures"
    return {
        "spectrum": (
            partial(_cli, pkg, "cli_spectrum", cli.RunConfig(n=(0, 1, 2), l=(0,), out=workdir / "spectrum.csv")),
            [workdir / "spectrum.csv"],
        ),
        "table2": (
            partial(_cli, pkg, "cli_table2", cli.RunConfig(out=workdir / "table2.csv")),
            [workdir / "table2.csv", workdir / "table2.report.txt"],
        ),
        "thermo": (
            partial(_cli, pkg, "cli_thermo", cli.RunConfig(out=workdir / "thermo.csv")),
            [workdir / "thermo.csv"],
        ),
        "dirac": (
            partial(_cli, pkg, "cli_dirac", cli.RunConfig(out=workdir / "dirac.csv")),
            [workdir / "dirac.csv"],
        ),
        "figure_data": (
            partial(_cli, pkg, "cli_figure_data", cli.RunConfig(out=figs)),
            [figs / "fig_energy_vs_alpha.csv", figs / "fig_thermo_vs_beta.csv",
             figs / "fig_thermo_vs_zeta.csv"],
        ),
    }


def sha256_files(paths) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def artifacts(pkg, rng, workdir):
    """A first round of the five artifact commands at default arguments,
    checked against the recorded digests, then rounds of the five with
    seeded arguments."""
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    yield [Op(f"{command} defaults", call, partial(_digest_gate, files, expected[command]))
           for command, (call, files) in default_calls(pkg, workdir).items()]
    makers = (_spectrum_op, _table2_op, _thermo_op, _dirac_op, _figure_op)
    while True:
        yield [make(pkg, rng, workdir) for make in makers]


def _digest_gate(files, expected, _result):
    return _verdict(sha256_files(files) == expected), {}


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _finite(cells) -> bool:
    return all(math.isfinite(float(c)) for c in cells)


def _close(x: float, y: float, scale: float) -> bool:
    return abs(x - y) <= IDENTITY_TOL * scale


def _spectrum_op(pkg, rng, workdir):
    sch = pkg.schrodinger
    a, b = rng.uniform(-4.0, -0.5), rng.uniform(0.5, 5.0)
    ns = tuple(sorted(rng.sample(range(8), rng.randint(1, 4))))
    ls = tuple(sorted(rng.sample(range(11), rng.randint(1, 3))))
    config = pkg.cli.RunConfig(a=a, b=b, n=ns, l=ls, out=workdir / "spectrum_seeded.csv")

    def check(_result):
        _, rows = _read_csv(config.out)
        ok = len(rows) == 12 * len(ns) * len(ls) and all(_finite(r[3:6]) for r in rows)
        # Cross-check one level against the quantized-K1 route.
        name, n, l = rows[-1][0], int(rows[-1][1]), int(rows[-1][2])
        mol = next(m for m in pkg.molecules.builtin_molecules() if m.name == name)
        ctx, pot = config.context(mol), config.potential(mol.alpha_invA)
        k1 = sch.spectral_params(pot, ctx, l).k1(n)
        energy = sch.energy_from_k1(ctx, pot.alpha, l, k1)
        shift = sch.energy_from_k1(ctx, pot.alpha, l, 0.0)
        return _verdict(ok and _close(float(rows[-1][5]), energy, abs(energy) + abs(shift))), {}

    return Op("spectrum seeded", partial(_cli, pkg, "cli_spectrum", config), check)


def _table2_op(pkg, rng, workdir):
    a, b = rng.uniform(-4.0, -0.5), rng.uniform(0.5, 5.0)
    config = pkg.cli.RunConfig(a=a, b=b, out=workdir / "table2_seeded.csv")
    reference = pkg.refdata.REFERENCE_ENERGY_STRINGS

    def check(result):
        csv_path, report_path = result
        _, rows = _read_csv(csv_path)
        verbatim = all(r[5] == reference.get((r[0], int(r[1]), int(r[2])), "") for r in rows)
        report = report_path.read_text(encoding="utf-8")
        ok = len(rows) == 12 * 9 and verbatim and f"entries compared: {len(reference)}" in report
        return _verdict(ok and all(_finite(r[3:5]) for r in rows)), {}

    return Op("table2 seeded", partial(_cli, pkg, "cli_table2", config), check)


def _thermo_op(pkg, rng, workdir):
    a, b = _thermo_well(pkg, rng)
    l = rng.randint(0, 2)
    tau = rng.choice((None, 1.0))
    points = rng.randint(16, 96)
    # Stretch the beta grid until the largest chi lands in [8, 20]: past
    # chi = 7 Dawson switches to its asymptotic series, and erfi overflows
    # past chi = 26.
    contexts = [_thermo_ctx(pkg, m, a, b, l, tau) for m in pkg.molecules.builtin_molecules()]
    beta_max = (rng.uniform(8.0, 20.0) / max(c.zeta / c.tau for c in contexts)) ** 2
    beta_min = beta_max * 10.0 ** -rng.uniform(2.0, 4.0)
    config = pkg.cli.RunConfig(a=a, b=b, out=workdir / "thermo_seeded.csv")
    call = partial(_cli, pkg, "cli_thermo", config, l=l, beta_min=beta_min, beta_max=beta_max,
                   points=points, tau=tau)

    def check(_result):
        _, rows = _read_csv(config.out)
        ok = len(rows) == 12 * points and all(_finite(r[1:]) for r in rows)
        for row in rows[points - 1 :: points]:  # each molecule's largest beta
            beta, z, u, f, s = (float(row[i]) for i in (1, 3, 4, 6, 7))
            ln_z = math.log(z)
            ok = ok and _close(f * beta, -ln_z, abs(ln_z) + 1.0)  # F = -ln Z / beta
            ok = ok and _close(s, ln_z + beta * u, abs(ln_z) + abs(beta * u) + 1.0)  # S = ln Z + beta U
        return _verdict(ok), {}

    return Op("thermo seeded", call, check)


def _thermo_well(pkg, rng):
    """A/B with B > |A| by a margin, so every bundled molecule has zeta > 0."""
    mols = pkg.molecules.builtin_molecules()
    while True:
        a = rng.uniform(-3.0, -0.5)
        b = -a + rng.uniform(0.5, 3.0)
        if min(_thermo_ctx(pkg, m, a, b, 0, None).zeta for m in mols) > 0.0:
            return a, b


def _thermo_ctx(pkg, mol, a, b, l, tau):
    pot = pkg.schrodinger.PTPotential(A=a, B=b, alpha=mol.alpha_invA)
    return pkg.molecules.thermo_context_for(mol, pot, l=l, tau=tau)


def _dirac_op(pkg, rng, workdir):
    dirac = pkg.dirac
    # Levels exist throughout these ranges: spin symmetry with n <= 1, and
    # pseudospin with n = 0 away from kappa = 1 (a pseudospin kappa = 1
    # ground level is absent for part of the range, and so is a spin
    # n = 1 level for M < 10).
    symmetry = rng.choice(("spin", "pspin"))
    if symmetry == "spin":
        kappa = rng.choice((-2, -1, 1, 2, 3))
        n_values = tuple(sorted(rng.sample((0, 1), rng.randint(1, 2))))
    else:
        kappa = rng.choice((-2, -1, 2, 3))
        n_values = (0,)
    m = rng.uniform(10.0, 40.0)
    alpha = rng.uniform(0.5, 2.0)
    config = pkg.cli.RunConfig(a=rng.uniform(-4.0, -0.5), b=rng.uniform(0.5, 5.0),
                               out=workdir / "dirac_seeded.csv")
    call = partial(_cli, pkg, "cli_dirac", config, m=m, kappa=kappa, alpha=alpha,
                   symmetry=symmetry, n_values=n_values)
    pot = pkg.schrodinger.PTPotential(A=config.a, B=config.b, alpha=alpha)
    residual = dirac.spin_residual if symmetry == "spin" else dirac.pspin_residual

    def check(_result):
        _, rows = _read_csv(config.out)
        ok = bool(rows) and {int(r[1]) for r in rows} == set(n_values)
        for row in rows:
            e, n = float(row[5]), int(row[1])
            ctx = dirac.DiracContext(M=m, kappa=kappa, n=n)
            scale = m * m + 4.0 * alpha**2 * (n + 2 + abs(kappa)) ** 2
            ok = ok and -2.0 * m <= e <= 2.0 * m and _close(residual(e, ctx, pot), 0.0, scale)
        return _verdict(ok), {}

    return Op("dirac seeded", call, check)


def _figure_op(pkg, rng, workdir):
    points = rng.randint(16, 96)
    # zeta_max * sqrt(1e-2) > 7 puts the zeta series on Dawson's asymptotic
    # branch; beta_max <= 1 keeps the molecule series inside erfi's range.
    kwargs = dict(
        alpha_min=rng.uniform(0.02, 0.1), alpha_max=rng.uniform(0.3, 1.0),
        beta_min=10.0 ** rng.uniform(-5.0, -3.0), beta_max=rng.uniform(0.2, 1.0),
        zeta_min=rng.uniform(0.5, 5.0), zeta_max=rng.uniform(75.0, 200.0), points=points,
    )
    config = pkg.cli.RunConfig(out=workdir / "figures_seeded")

    def check(paths):
        ok = True
        for path in paths:
            _, rows = _read_csv(path)
            ok = ok and len(rows) == points and all(_finite(r) for r in rows)
        # Z grows with zeta at every fixed beta (acceptance criterion 8).
        header, rows = _read_csv(paths[2])
        for col in (i for i, h in enumerate(header) if h.startswith("Z_")):
            zs = [float(r[col]) for r in rows]
            ok = ok and all(x < y for x, y in zip(zs, zs[1:]))
        return _verdict(ok), {}

    return Op("figure_data seeded", partial(_cli, pkg, "cli_figure_data", config, **kwargs), check)


WORKLOADS = {"aim_scan": aim_scan, "shoot_scan": shoot_scan, "artifacts": artifacts}
