"""Command-line interface: CSV artifacts for tables, figures, and self-checks.

Every subcommand writes deterministic CSV (see tableio) and exits
nonzero with a single-line JSON error record on stderr when anything
fails; partial outputs are removed by the atomic writer.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import click

from . import __version__, oracle
from .aim import aim_eigen_scan
from .dirac import DiracContext, solve_levels
from .errors import PtboundError
from .molecules import (
    AMU_TO_EV,
    MoleculeParams,
    builtin_molecules,
    load_molecules,
    nr_context_for,
    reference_energy,
    thermo_context_for,
)
from .refdata import REFERENCE_ENERGY_STRINGS, REFERENCE_GRID
from .schrodinger import (
    HBARC_EV_ANG,
    NRContext,
    PTPotential,
    energy_nr,
    level_count,
    pt_aim_problem,
    spectral_params,
)
from .specfun import erfi
from .tableio import write_csv
from .thermo import ThermoContext, thermo_point

__all__ = [
    "RunConfig",
    "cli_aim_verify",
    "cli_dirac",
    "cli_figure_data",
    "cli_oracle_check",
    "cli_spectrum",
    "cli_table2",
    "cli_thermo",
    "main",
]

FIGURE_MOLECULES = ("N2", "TiH", "NiC", "I2")


@dataclass(frozen=True)
class RunConfig:
    """Shared knobs for the molecule-based commands (defaults match the
    published table settings)."""

    a: float = -2.0
    b: float = 3.0
    hbar_c: float = HBARC_EV_ANG
    amu_to_ev: float = AMU_TO_EV
    n: tuple[int, ...] = (0, 5, 7)
    l: tuple[int, ...] = (0, 5, 10)
    out: Path = Path(".")
    molecules_path: Path | None = None
    fmt: str = "csv"

    def molecules(self) -> list[MoleculeParams]:
        if self.molecules_path is None:
            return builtin_molecules()
        return load_molecules(self.molecules_path)

    def potential(self, alpha: float) -> PTPotential:
        return PTPotential(A=self.a, B=self.b, alpha=alpha)

    def context(self, mol: MoleculeParams) -> NRContext:
        return nr_context_for(mol, hbar_c=self.hbar_c, amu_to_ev=self.amu_to_ev)


def cli_spectrum(config: RunConfig) -> Path:
    """Closed-form bound levels for each molecule on the (n, l) grid."""
    header = ["molecule", "n", "l", "zeta", "n_max", "energy_ev", "beyond_nmax"]
    rows = []
    for mol in config.molecules():
        ctx = config.context(mol)
        pot = config.potential(mol.alpha_invA)
        for l in config.l:
            zeta, n_max = level_count(pot, ctx, l)
            for n in config.n:
                level = energy_nr(pot, ctx, n, l)
                rows.append(
                    [mol.name, n, l, zeta, n_max, level.E, "beyond_nmax" in level.flags]
                )
    write_csv(config.out, header, rows)
    return config.out


def cli_table2(config: RunConfig, report_path: Path | None = None) -> tuple[Path, Path]:
    """Published-table regeneration with side-by-side reference values.

    Every row carries the full closed-form value (model), the
    calibrated-convention value, the published value verbatim, and both
    relative deviations; rows past the bound-level ceiling are flagged,
    never dropped.  A companion text report states the calibration.
    """
    header = [
        "molecule", "n", "l",
        "energy_model_ev", "energy_calibrated_ev", "energy_reference_ev",
        "rel_dev_model", "rel_dev_calibrated", "beyond_nmax",
    ]
    rows = []
    devs: list[tuple[float, str, int, int]] = []
    for mol in config.molecules():
        ctx = config.context(mol)
        pot = config.potential(mol.alpha_invA)
        for n, l in REFERENCE_GRID:
            level = energy_nr(pot, ctx, n, l)
            calibrated = reference_energy(
                mol, n, l, a=config.a, b=config.b, amu_to_ev=config.amu_to_ev
            )
            ref_text = REFERENCE_ENERGY_STRINGS.get((mol.name, n, l))
            if ref_text is None:
                ref_text, ref = "", math.nan
                dev_model = dev_cal = math.nan
            else:
                ref = float(ref_text)
                dev_model = (level.E - ref) / abs(ref)
                dev_cal = (calibrated - ref) / abs(ref)
                devs.append((abs(dev_cal), mol.name, n, l))
            rows.append(
                [
                    mol.name, n, l,
                    level.E, calibrated, ref_text,
                    dev_model, dev_cal, "beyond_nmax" in level.flags,
                ]
            )
    write_csv(config.out, header, rows)

    if report_path is None:
        report_path = config.out.with_suffix(".report.txt")
    devs.sort(reverse=True)
    lines = [
        "Calibration report: bundled reference energies",
        "=" * 47,
        "",
        "The energy_reference_ev column reproduces the published values",
        "verbatim.  The closed-form spectrum (energy_model_ev, computed",
        f"with hbar*c = {config.hbar_c} eV*Angstrom) does not match them;",
        "a parameter search over plausible conventions found that the",
        "reference values follow the closed form with three systematic",
        "differences:",
        "",
        "  1. the l(l+1)/12 offset term is dropped;",
        "  2. the well strength B does not enter the second square root,",
        "     which collapses to (2l+1);",
        "  3. hbar*c = 1973.0 eV*Angstrom instead of the stated 1973.29.",
        "",
        "The energy_calibrated_ev column applies that convention; its",
        "per-entry deviations are in rel_dev_calibrated.",
        "",
    ]
    if devs:
        lines.append(
            f"worst |rel_dev_calibrated| = {devs[0][0]:.3e} "
            f"at ({devs[0][1]}, n={devs[0][2]}, l={devs[0][3]})"
        )
        lines.append(f"entries compared: {len(devs)}")
    lines.append("")
    tmp = report_path.with_name(report_path.name + ".partial")
    try:
        tmp.write_text("\n".join(lines), encoding="utf-8", newline="\n")
        tmp.replace(report_path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return config.out, report_path


def cli_thermo(
    config: RunConfig,
    *,
    l: int = 0,
    beta_min: float = 1e-4,
    beta_max: float = 1.0,
    points: int = 64,
    tau: float | None = None,
) -> Path:
    """Closed-form thermodynamics over a log-spaced beta grid per molecule."""
    header = ["molecule", "beta", "chi", "Z", "U", "C", "F", "S"]
    betas = _log_grid(beta_min, beta_max, points)
    rows = []
    for mol in config.molecules():
        pot = config.potential(mol.alpha_invA)
        tctx = thermo_context_for(
            mol, pot, l=l, tau=tau, hbar_c=config.hbar_c, amu_to_ev=config.amu_to_ev
        )
        for beta in betas:
            p = thermo_point(tctx, beta)
            rows.append([mol.name, p.beta, p.chi, p.Z, p.U, p.C, p.F, p.S])
    write_csv(config.out, header, rows)
    return config.out


def cli_dirac(
    config: RunConfig,
    *,
    m: float = 20.0,
    kappa: int = 1,
    alpha: float = 1.0,
    symmetry: str = "pspin",
    c_shift: float = 0.0,
    hbar_c: float = 1.0,
    n_values: tuple[int, ...] = (0,),
) -> Path:
    """Relativistic levels from the transcendental residual, natural units."""
    header = ["symmetry", "n", "kappa", "M", "c_shift", "E", "residual", "flags"]
    pot = PTPotential(A=config.a, B=config.b, alpha=alpha)
    rows = []
    for n in n_values:
        if symmetry == "pspin":
            dctx = DiracContext(M=m, kappa=kappa, n=n, cps=c_shift, hbar_c=hbar_c)
        else:
            dctx = DiracContext(M=m, kappa=kappa, n=n, cs=c_shift, hbar_c=hbar_c)
        for root in solve_levels(dctx, pot, symmetry):
            rows.append(
                [
                    symmetry, n, kappa, m, c_shift,
                    root.E, root.residual, "|".join(sorted(root.flags)),
                ]
            )
    write_csv(config.out, header, rows)
    return config.out


def cli_figure_data(
    config: RunConfig,
    *,
    alpha_min: float = 0.05,
    alpha_max: float = 0.5,
    beta_min: float = 1e-4,
    beta_max: float = 1.0,
    zeta_min: float = 1.0,
    zeta_max: float = 100.0,
    points: int = 64,
) -> tuple[Path, Path, Path]:
    """Data series behind the published figures.

    Three files land in the output directory:

      fig_energy_vs_alpha.csv   E(alpha) for n = 1..4 (N2 mass, l = 0)
      fig_thermo_vs_beta.csv    Z,U,C,F,S over beta for N2, TiH, NiC, I2
                                at tau = 1 with each molecule's zeta
      fig_thermo_vs_zeta.csv    Z,U,C,F,S over zeta at three fixed betas

    tau = 1 keeps chi = zeta*sqrt(beta) inside the erfi range on the
    default grids while preserving every qualitative feature.
    """
    out_dir = config.out
    out_dir.mkdir(parents=True, exist_ok=True)
    mols = {mol.name: mol for mol in config.molecules()}
    wanted = [name for name in FIGURE_MOLECULES if name in mols]

    # E vs alpha, n = 1..4, N2 reduced mass.
    path_alpha = out_dir / "fig_energy_vs_alpha.csv"
    ns = (1, 2, 3, 4)
    header = ["alpha"] + [f"E_n{n}" for n in ns]
    mol = mols.get("N2", next(iter(mols.values())))
    ctx = nr_context_for(mol, hbar_c=config.hbar_c, amu_to_ev=config.amu_to_ev)
    rows = []
    for alpha in _lin_grid(alpha_min, alpha_max, points):
        pot = config.potential(alpha)
        rows.append([alpha] + [energy_nr(pot, ctx, n, 0).E for n in ns])
    write_csv(path_alpha, header, rows)

    # Thermo vs beta at tau = 1, one column block per molecule.
    path_beta = out_dir / "fig_thermo_vs_beta.csv"
    header = ["beta"]
    contexts: list[ThermoContext] = []
    for name in wanted:
        header += [f"{q}_{name}" for q in ("Z", "U", "C", "F", "S")]
        contexts.append(
            thermo_context_for(
                mols[name], config.potential(mols[name].alpha_invA),
                tau=1.0, hbar_c=config.hbar_c, amu_to_ev=config.amu_to_ev,
            )
        )
    rows = []
    for beta in _log_grid(beta_min, beta_max, points):
        row: list[float] = [beta]
        for tctx in contexts:
            p = thermo_point(tctx, beta)
            row += [p.Z, p.U, p.C, p.F, p.S]
        rows.append(row)
    write_csv(path_beta, header, rows)

    # Thermo vs zeta at tau = 1 for three betas (chi stays < 10).
    path_zeta = out_dir / "fig_thermo_vs_zeta.csv"
    betas = (1e-4, 1e-3, 1e-2)
    header = ["zeta"]
    for i, _ in enumerate(betas, start=1):
        header += [f"{q}_beta{i}" for q in ("Z", "U", "C", "F", "S")]
    rows = []
    for zeta in _lin_grid(zeta_min, zeta_max, points):
        row = [zeta]
        for beta in betas:
            p = thermo_point(ThermoContext(zeta=zeta, tau=1.0), beta)
            row += [p.Z, p.U, p.C, p.F, p.S]
        rows.append(row)
    write_csv(path_zeta, header, rows)
    return path_alpha, path_beta, path_zeta


def cli_aim_verify(
    config: RunConfig,
    *,
    a1: float = -30.0,
    b1: float = 2.3,
    alpha: float = 1.0,
    n_max: int = 3,
    depth: int | None = None,
) -> Path:
    """Iterative-scheme eigenvalues against the closed-form ladder.

    Runs in natural units (mu = 1/2, hbar = 1) so the well strengths are
    the dimensionless a1, b1 directly; scans each level in a bracket
    bounded by the midpoints to its neighbors.
    """
    header = ["n", "depth", "k1_closed", "k1_scan", "rel_dev", "converged", "residual"]
    ctx = NRContext.natural(mu=0.5)
    pot = PTPotential(A=a1, B=b1, alpha=alpha)
    params = spectral_params(pot, ctx, l=0)
    rows = []
    for n in range(n_max + 1):
        k = depth if depth is not None else max(2, 2 * n + 2)
        problem = pt_aim_problem(pot, ctx, l=0, depth=k)
        closed = params.k1(n)
        above = params.k1(n - 1) if n > 0 else 0.0
        below = params.k1(n + 1)
        bracket = (0.5 * (closed + below), 0.5 * (closed + above))
        report = aim_eigen_scan(problem, bracket, k)
        # Spurious termination-condition roots do not stabilize under a
        # depth increment; the converged flag separates them.
        stable = [r for r in report.roots if r.converged]
        if not stable:
            raise PtboundError(
                f"eigen-scan found no stable root for n={n} in bracket {bracket}"
            )
        root = min(stable, key=lambda r: r.stability_gap / max(1.0, abs(r.value)))
        rows.append(
            [n, k, closed, root.value, abs(root.value - closed) / abs(closed),
             root.converged, root.residual]
        )
    write_csv(config.out, header, rows)
    return config.out


def cli_oracle_check(config: RunConfig) -> Path:
    """Self-tests of the independent numerical layer against exact values."""
    header = ["check", "computed", "expected", "rel_dev", "pass"]
    rows = []

    def record(name: str, computed: float, expected: float, tol: float) -> None:
        rel = abs(computed - expected) / max(1.0, abs(expected))
        rows.append([name, computed, expected, rel, rel <= tol])

    sho = oracle.harmonic_problem()
    for n in range(3):
        got = oracle.shoot_eigenvalue(sho, n, (4.0 * n + 1.0, 4.0 * n + 5.0))
        record(f"oscillator_n{n}", got.value, 4.0 * n + 3.0, 1e-8)
    record(
        "quadrature_x_squared",
        oracle.integrate_adaptive(lambda x: x * x, 0.0, 1.0),
        1.0 / 3.0,
        1e-13,
    )
    record(
        "quadrature_exp_y_squared",
        oracle.integrate_adaptive(lambda y: math.exp(y * y), 0.0, 1.0),
        0.5 * math.sqrt(math.pi) * erfi(1.0),
        1e-10,
    )
    value, _ = oracle.finite_difference(lambda x: x**3, 2.0, order=1)
    record("derivative_cubic", value, 12.0, 1e-9)
    value, _ = oracle.finite_difference(lambda x: x**4, 1.0, order=2)
    record("second_derivative_quartic", value, 12.0, 1e-8)
    write_csv(config.out, header, rows)
    return config.out


def _lin_grid(lo: float, hi: float, count: int) -> list[float]:
    if count < 2 or not hi > lo:
        raise PtboundError(f"grid needs count >= 2 and hi > lo, got {count}, [{lo}, {hi}]")
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _log_grid(lo: float, hi: float, count: int) -> list[float]:
    if not 0.0 < lo < hi:
        raise PtboundError(f"log grid needs 0 < lo < hi, got [{lo}, {hi}]")
    ratio = math.log(hi / lo) / (count - 1)
    return [lo * math.exp(i * ratio) for i in range(count)]


def _guarded(fn):
    """Convert failures into a JSON error record on stderr + exit 1."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            record = {"error": type(exc).__name__, "message": str(exc)}
            print(json.dumps(record), file=sys.stderr)
            raise SystemExit(1) from exc

    return wrapper


_shared = [
    click.option("--molecules", "molecules_path", type=click.Path(exists=True, path_type=Path), default=None, help="Molecule CSV (default: bundled dataset)."),
    click.option("--A", "a", type=float, default=-2.0, show_default=True, help="Well strength A (eV)."),
    click.option("--B", "b", type=float, default=3.0, show_default=True, help="Well strength B (eV)."),
    click.option("--hbar-c", type=float, default=HBARC_EV_ANG, show_default=True, help="hbar*c (eV*Angstrom)."),
    click.option("--amu-ev", "amu_to_ev", type=float, default=AMU_TO_EV, show_default=True, help="amu -> eV conversion."),
    click.option("--format", "fmt", type=click.Choice(["csv"]), default="csv", show_default=True),
]


def _with_shared(fn):
    for opt in reversed(_shared):
        fn = opt(fn)
    return fn


def _config(out, molecules_path, a, b, hbar_c, amu_to_ev, fmt, n=(0, 5, 7), l=(0, 5, 10)):
    return RunConfig(
        a=a, b=b, hbar_c=hbar_c, amu_to_ev=amu_to_ev,
        n=tuple(n), l=tuple(l), out=Path(out),
        molecules_path=molecules_path, fmt=fmt,
    )


@click.group()
@click.version_option(version=__version__, prog_name="ptbound")
def main():
    """Bound states and thermodynamics of the hyperbolic Poschl-Teller well."""


@main.command("spectrum")
@_with_shared
@click.option("--n", "n_values", type=int, multiple=True, default=(0, 1, 2), show_default=True)
@click.option("--l", "l_values", type=int, multiple=True, default=(0,), show_default=True)
@click.option("--out", type=click.Path(path_type=Path), default=Path("ptbound_spectrum.csv"), show_default=True)
@_guarded
def spectrum_cmd(out, molecules_path, a, b, hbar_c, amu_to_ev, fmt, n_values, l_values):
    """Closed-form energy levels per molecule."""
    path = cli_spectrum(_config(out, molecules_path, a, b, hbar_c, amu_to_ev, fmt, n_values, l_values))
    click.echo(f"wrote {path}")


@main.command("table2")
@_with_shared
@click.option("--out", type=click.Path(path_type=Path), default=Path("ptbound_table2.csv"), show_default=True)
@click.option("--report", type=click.Path(path_type=Path), default=None, help="Calibration report path (default: <out>.report.txt).")
@_guarded
def table2_cmd(out, molecules_path, a, b, hbar_c, amu_to_ev, fmt, report):
    """Regenerate the published energy table with reference columns."""
    csv_path, report_path = cli_table2(
        _config(out, molecules_path, a, b, hbar_c, amu_to_ev, fmt), report_path=report
    )
    click.echo(f"wrote {csv_path}")
    click.echo(f"wrote {report_path}")


@main.command("thermo")
@_with_shared
@click.option("--l", type=int, default=0, show_default=True)
@click.option("--beta-min", type=float, default=1e-4, show_default=True)
@click.option("--beta-max", type=float, default=1.0, show_default=True)
@click.option("--points", type=int, default=64, show_default=True)
@click.option("--tau", type=float, default=None, help="Override the physical tau (e.g. 1.0 for reduced units).")
@click.option("--out", type=click.Path(path_type=Path), default=Path("ptbound_thermo.csv"), show_default=True)
@_guarded
def thermo_cmd(out, molecules_path, a, b, hbar_c, amu_to_ev, fmt, l, beta_min, beta_max, points, tau):
    """Thermodynamic functions over a beta grid per molecule."""
    path = cli_thermo(
        _config(out, molecules_path, a, b, hbar_c, amu_to_ev, fmt),
        l=l, beta_min=beta_min, beta_max=beta_max, points=points, tau=tau,
    )
    click.echo(f"wrote {path}")


@main.command("dirac")
@click.option("--M", "m", type=float, default=20.0, show_default=True, help="Fermion mass (natural units).")
@click.option("--kappa", type=int, default=1, show_default=True)
@click.option("--n", "n_values", type=int, multiple=True, default=(0,), show_default=True)
@click.option("--symmetry", type=click.Choice(["pspin", "spin"]), default="pspin", show_default=True)
@click.option("--A", "a", type=float, default=-2.0, show_default=True)
@click.option("--B", "b", type=float, default=3.0, show_default=True)
@click.option("--alpha", type=float, default=1.0, show_default=True)
@click.option("--c-shift", type=float, default=0.0, show_default=True, help="Constant Sigma (pspin) or Delta (spin) value.")
@click.option("--hbar-c", type=float, default=1.0, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv"]), default="csv", show_default=True)
@click.option("--out", type=click.Path(path_type=Path), default=Path("ptbound_dirac.csv"), show_default=True)
@_guarded
def dirac_cmd(m, kappa, n_values, symmetry, a, b, alpha, c_shift, hbar_c, fmt, out):
    """Relativistic levels under spin or pseudospin symmetry."""
    config = RunConfig(a=a, b=b, out=Path(out), fmt=fmt)
    path = cli_dirac(
        config, m=m, kappa=kappa, alpha=alpha, symmetry=symmetry,
        c_shift=c_shift, hbar_c=hbar_c, n_values=tuple(n_values),
    )
    click.echo(f"wrote {path}")


@main.command("figure-data")
@_with_shared
@click.option("--alpha-min", type=float, default=0.05, show_default=True)
@click.option("--alpha-max", type=float, default=0.5, show_default=True)
@click.option("--beta-min", type=float, default=1e-4, show_default=True)
@click.option("--beta-max", type=float, default=1.0, show_default=True)
@click.option("--zeta-min", type=float, default=1.0, show_default=True)
@click.option("--zeta-max", type=float, default=100.0, show_default=True)
@click.option("--points", type=int, default=64, show_default=True)
@click.option("--out", type=click.Path(path_type=Path), default=Path("."), show_default=True, help="Output directory.")
@_guarded
def figure_data_cmd(out, molecules_path, a, b, hbar_c, amu_to_ev, fmt,
                    alpha_min, alpha_max, beta_min, beta_max, zeta_min, zeta_max, points):
    """Data series behind the energy and thermodynamics figures."""
    paths = cli_figure_data(
        _config(out, molecules_path, a, b, hbar_c, amu_to_ev, fmt),
        alpha_min=alpha_min, alpha_max=alpha_max,
        beta_min=beta_min, beta_max=beta_max,
        zeta_min=zeta_min, zeta_max=zeta_max, points=points,
    )
    for path in paths:
        click.echo(f"wrote {path}")


@main.command("aim-verify")
@click.option("--a1", type=float, default=-30.0, show_default=True, help="Dimensionless well strength A1.")
@click.option("--b1", type=float, default=2.3, show_default=True, help="Dimensionless core strength B1.")
@click.option("--alpha", type=float, default=1.0, show_default=True)
@click.option("--n-max", type=int, default=3, show_default=True)
@click.option("--depth", type=int, default=None, help="Iteration depth (default: 2n+2 per level).")
@click.option("--format", "fmt", type=click.Choice(["csv"]), default="csv", show_default=True)
@click.option("--out", type=click.Path(path_type=Path), default=Path("ptbound_aim_verify.csv"), show_default=True)
@_guarded
def aim_verify_cmd(a1, b1, alpha, n_max, depth, fmt, out):
    """Check iterative-scheme eigenvalues against the closed form."""
    config = RunConfig(out=Path(out), fmt=fmt)
    path = cli_aim_verify(config, a1=a1, b1=b1, alpha=alpha, n_max=n_max, depth=depth)
    click.echo(f"wrote {path}")


@main.command("oracle-check")
@click.option("--format", "fmt", type=click.Choice(["csv"]), default="csv", show_default=True)
@click.option("--out", type=click.Path(path_type=Path), default=Path("ptbound_oracle_check.csv"), show_default=True)
@_guarded
def oracle_check_cmd(fmt, out):
    """Exercise the shooting/quadrature/derivative layer on exact cases."""
    config = RunConfig(out=Path(out), fmt=fmt)
    path = cli_oracle_check(config)
    click.echo(f"wrote {path}")


if __name__ == "__main__":
    main(prog_name="ptbound")
