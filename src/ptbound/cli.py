"""Command-line interface: CSV artifacts for tables, figures, and self-checks.

Every subcommand writes deterministic CSV (see tableio) and exits
nonzero with a single-line JSON error record on stderr when anything
fails; partial outputs are removed by the atomic writer.  The commands
are one table at the end of this module: each option sets a RunConfig
field or a keyword of the command's cli_* function, and takes its
default from there.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import click
import numpy as np

from . import __version__, oracle, schrodinger, thermo
from .aim import aim_eigen_scan
from .dirac import DiracContext, solve_levels
from .errors import ConvergenceError, DomainError, require_bracket, require_index, require_positive
from .molecules import (
    AMU_TO_EV,
    HBARC_CALIBRATED,
    MoleculeParams,
    _calibrated_ladder,
    builtin_molecules,
    load_molecules,
    nr_context_for,
    thermo_context_for,
)
from .refdata import REFERENCE_ENERGY_STRINGS, REFERENCE_GRID, REFERENCE_WELL_A, REFERENCE_WELL_B
from .rootfind import uniform_grid
from .schrodinger import (
    HBARC_EV_ANG,
    NRContext,
    PTPotential,
    _energy_ladder,
    level_count,
    pt_aim_problem,
    spectral_params,
)
from .specfun import erfi
from .tableio import ColumnTable, write_csv, write_text
from .thermo import ThermoContext, thermo_table

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

# perfbench/tracing.py wraps these names; thermo_table calls thermo's own
# thermo_point, and the commands take their levels from energy ladders.
thermo_point = thermo.thermo_point
energy_nr = schrodinger.energy_nr


@dataclass(frozen=True)
class RunConfig:
    """Shared knobs of the commands; each default is also the CLI's.

    a, b: well strengths at the published table settings (eV; natural
    units for dirac).  n, l: the spectrum grid.  out: the output file
    (figure-data: directory).  molecules_path: a molecule CSV in place
    of the bundled dataset."""

    a: float = REFERENCE_WELL_A
    b: float = REFERENCE_WELL_B
    hbar_c: float = HBARC_EV_ANG
    amu_to_ev: float = AMU_TO_EV
    n: tuple[int, ...] = (0, 1, 2)
    l: tuple[int, ...] = (0,)
    out: Path = Path(".")
    molecules_path: Path | None = None

    def molecules(self) -> list[MoleculeParams]:
        if self.molecules_path is None:
            return builtin_molecules()
        return load_molecules(self.molecules_path)

    def potential(self, alpha: float) -> PTPotential:
        return PTPotential(A=self.a, B=self.b, alpha=alpha)

    def context(self, mol: MoleculeParams) -> NRContext:
        return nr_context_for(mol, hbar_c=self.hbar_c, amu_to_ev=self.amu_to_ev)

    def thermo_context(self, mol: MoleculeParams, *, tau: float, l: int = 0) -> ThermoContext:
        pot = self.potential(mol.alpha_invA)
        return thermo_context_for(
            mol, pot, l=l, tau=tau, hbar_c=self.hbar_c, amu_to_ev=self.amu_to_ev
        )


def cli_spectrum(config: RunConfig) -> Path:
    """Closed-form bound levels for each molecule on the (n, l) grid."""
    header = ["molecule", "n", "l", "zeta", "n_max", "energy_ev", "beyond_nmax"]
    rows = []
    for mol in config.molecules():
        ctx = config.context(mol)
        pot = config.potential(mol.alpha_invA)
        for l in config.l:
            zeta, n_max = level_count(pot, ctx, l)
            ladder = None
            for n in config.n:
                # the index first and the ladder at the first level, as energy_nr checks them
                require_index(n, "level index")
                if ladder is None:
                    ladder = _energy_ladder(pot, ctx, l)
                rows.append([mol.name, n, l, zeta, n_max, ladder(n), n >= n_max])
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
        # Each part free of n is built at the first row that needs it, in
        # the order energy_nr, level_count and reference_energy ran, so the
        # first error is theirs.
        ladders, n_maxes, calibrated_ladder = {}, {}, None
        for n, l in REFERENCE_GRID:
            if l not in ladders:
                ladders[l] = _energy_ladder(pot, ctx, l)
            energy = ladders[l](n)
            if l not in n_maxes:
                n_maxes[l] = level_count(pot, ctx, l).n_max
            n_max = n_maxes[l]
            if calibrated_ladder is None:
                calibrated_ladder = _calibrated_ladder(mol, a=config.a, amu_to_ev=config.amu_to_ev)
            calibrated = calibrated_ladder(n, l)
            ref_text = REFERENCE_ENERGY_STRINGS.get((mol.name, n, l))
            if ref_text is None:
                ref_text, ref = "", math.nan
                dev_model = dev_cal = math.nan
            else:
                ref = float(ref_text)
                dev_model = (energy - ref) / abs(ref)
                dev_cal = (calibrated - ref) / abs(ref)
                devs.append((abs(dev_cal), mol.name, n, l))
            rows.append(
                [
                    mol.name, n, l,
                    energy, calibrated, ref_text,
                    dev_model, dev_cal, n >= n_max,
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
        f"  3. hbar*c = {HBARC_CALIBRATED} eV*Angstrom instead of the stated {HBARC_EV_ANG}.",
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
    write_text(report_path, "\n".join(lines))
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
    betas = _grid(beta_min, beta_max, points, log=True)
    mols = config.molecules()

    def pairs():
        for mol in mols:
            tctx = config.thermo_context(mol, l=l, tau=tau)
            for beta in betas:
                yield tctx, beta

    table = thermo_table(pairs())
    write_csv(config.out, header, ColumnTable(table, [mol.name for mol in mols for _ in betas]))
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
    pot = config.potential(alpha)
    rows = []
    for n in n_values:
        dctx = DiracContext(M=m, kappa=kappa, n=n, c_shift=c_shift, hbar_c=hbar_c)
        for root in solve_levels(dctx, pot, symmetry):
            flags = "|".join(sorted(root.flags))
            rows.append([symmetry, n, kappa, m, c_shift, root.E, root.residual, flags])
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
    mols = {mol.name: mol for mol in config.molecules()}
    if not mols:
        raise DomainError("figure-data needs at least one molecule")
    alphas = _grid(alpha_min, alpha_max, points)
    betas = _grid(beta_min, beta_max, points, log=True)
    zetas = _grid(zeta_min, zeta_max, points)
    wanted = [name for name in FIGURE_MOLECULES if name in mols]
    tables = []  # (file name, header, table), all built before the first write

    # E vs alpha, n = 1..4, N2 reduced mass (else the first molecule's).
    ns = (1, 2, 3, 4)
    header = ["alpha"] + [f"E_n{n}" for n in ns]
    ctx = config.context(mols.get("N2") or next(iter(mols.values())))
    rows = []
    for alpha in alphas:
        ladder = _energy_ladder(config.potential(alpha), ctx, 0)
        rows.append([alpha] + [ladder(n) for n in ns])
    tables.append(("fig_energy_vs_alpha.csv", header, ColumnTable(rows)))

    # Z, U, C, F, S at tau = 1: over beta, one column block per molecule,
    # and over zeta, one block per fixed beta (chi stays < 10).
    contexts = [config.thermo_context(mols[name], tau=1.0) for name in wanted]
    fixed_betas = (1e-4, 1e-3, 1e-2)

    def pairs():  # both tables' points in row order
        for beta in betas:
            for tctx in contexts:
                yield tctx, beta
        for zeta in zetas:
            for beta in fixed_betas:
                yield ThermoContext(zeta=zeta, tau=1.0), beta

    fields = thermo_table(pairs())[:, 2:]  # Z, U, C, F, S
    split = len(betas) * len(contexts)
    for name, column, grid, blocks, block_fields in (
        ("fig_thermo_vs_beta.csv", "beta", betas, wanted, fields[:split]),
        ("fig_thermo_vs_zeta.csv", "zeta", zetas, [f"beta{i}" for i in (1, 2, 3)], fields[split:]),
    ):
        header = [column] + [f"{q}_{block}" for block in blocks for q in ("Z", "U", "C", "F", "S")]
        # a grid value's pairs are consecutive, so its row is theirs side by side
        values = np.column_stack((grid, block_fields.reshape(len(grid), 5 * len(blocks))))
        tables.append((name, header, ColumnTable(values)))

    config.out.mkdir(parents=True, exist_ok=True)
    paths = tuple(config.out / name for name, _, _ in tables)
    for path, (_, header, table) in zip(paths, tables):
        write_csv(path, header, table)
    return paths


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
    n_max = require_index(n_max, "n_max")
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
            raise ConvergenceError(f"eigen-scan found no stable root for n={n} in bracket {bracket}")
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


def _grid(lo: float, hi: float, count: int, *, log: bool = False) -> list[float]:
    """count points from lo to hi, evenly spaced or (log) geometric."""
    require_index(count, "grid count", 2)
    require_bracket((lo, hi), "grid range")
    if log:
        require_positive(lo, "log grid start")
        if hi / lo < math.inf:
            ratio = math.log(hi / lo) / (count - 1)
            return [lo * math.exp(i * ratio) for i in range(count)]
        # hi / lo is past the double range: step in logs
        log_lo = math.log(lo)
        ratio = (math.log(hi) - log_lo) / (count - 1)
        return [math.exp(log_lo + i * ratio) for i in range(count)]
    return uniform_grid(lo, hi, count)


@click.group()
@click.version_option(version=__version__, prog_name="ptbound")
def main():
    """Bound states and thermodynamics of the hyperbolic Poschl-Teller well."""


class _Opt(NamedTuple):
    """An option's flag, the RunConfig field or keyword it sets (by default
    the flag's name), help, and the click type where the default's won't do."""

    flag: str
    dest: str | None = None
    help: str | None = None
    kind: object = None

    def option(self, defaults: dict) -> click.Option:
        name = self.dest or self.flag.lstrip("-").replace("-", "_").lower()
        default = defaults[name]
        multiple = isinstance(default, tuple)
        kind = self.kind or type(default[0] if multiple else default)
        return click.Option([self.flag, name], type=kind, default=default, multiple=multiple,
                            show_default=True, help=self.help)


_CONFIG_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}
_PATH = click.Path(path_type=Path)


def _command(name, fn, help, out, config_options=(), keyword_options=()):
    """Register ``ptbound <name>``: config_options set RunConfig fields and
    keyword_options fn's keywords, each with its default from there; out
    is the default of --out.  fn's paths are echoed, a failure is one JSON
    error record on stderr and exit status 1."""
    keywords = {k: p.default for k, p in inspect.signature(fn).parameters.items()}
    config_params = [opt.option(_CONFIG_DEFAULTS) for opt in config_options]
    params = config_params + [opt.option(keywords) for opt in keyword_options]
    out_help = "Output directory." if out == "." else "Output CSV file."
    params.append(_Opt("--out", help=out_help, kind=_PATH).option({"out": Path(out)}))

    def run(out, **values):
        try:
            config = RunConfig(out=out, **{p.name: values.pop(p.name) for p in config_params})
            paths = fn(config, **values)
        except Exception as exc:
            record = {"error": type(exc).__name__, "message": str(exc)}
            print(json.dumps(record), file=sys.stderr)
            raise SystemExit(1) from exc
        for path in paths if isinstance(paths, tuple) else (paths,):
            click.echo(f"wrote {path}")

    main.add_command(click.Command(name, params=params, callback=run, help=help))


_MOLECULE_OPTIONS = (
    _Opt("--molecules", "molecules_path", "Molecule CSV (default: bundled dataset).",
         click.Path(exists=True, path_type=Path)),
    _Opt("--A", help="Well strength A (eV)."),
    _Opt("--B", help="Well strength B (eV)."),
    _Opt("--hbar-c", help="hbar*c (eV*Angstrom)."),
    _Opt("--amu-ev", "amu_to_ev", "amu -> eV conversion."),
)
_BETA_RANGE = (_Opt("--beta-min"), _Opt("--beta-max"))

_command("spectrum", cli_spectrum, "Closed-form energy levels per molecule.",
         "ptbound_spectrum.csv", _MOLECULE_OPTIONS + (_Opt("--n"), _Opt("--l")))
_command("table2", cli_table2, "Regenerate the published energy table with reference columns.",
         "ptbound_table2.csv", _MOLECULE_OPTIONS,
         [_Opt("--report", "report_path",
               "Calibration report path (default: <out>.report.txt).", _PATH)])
_command("thermo", cli_thermo, "Thermodynamic functions over a beta grid per molecule.",
         "ptbound_thermo.csv", _MOLECULE_OPTIONS,
         [_Opt("--l"), *_BETA_RANGE, _Opt("--points"),
          _Opt("--tau", None, "Override the physical tau (e.g. 1.0 for reduced units).", float)])
_command("dirac", cli_dirac, "Relativistic levels under spin or pseudospin symmetry.",
         "ptbound_dirac.csv", [_Opt("--A"), _Opt("--B")],
         [_Opt("--M", help="Fermion mass (natural units)."), _Opt("--kappa"),
          _Opt("--n", "n_values"), _Opt("--symmetry", kind=click.Choice(["pspin", "spin"])),
          _Opt("--alpha"), _Opt("--c-shift", help="Constant Sigma (pspin) or Delta (spin) value."),
          _Opt("--hbar-c")])
_command("figure-data", cli_figure_data,
         "Data series behind the energy and thermodynamics figures.", ".", _MOLECULE_OPTIONS,
         [_Opt("--alpha-min"), _Opt("--alpha-max"), *_BETA_RANGE,
          _Opt("--zeta-min"), _Opt("--zeta-max"), _Opt("--points")])
_command("aim-verify", cli_aim_verify,
         "Check iterative-scheme eigenvalues against the closed form.", "ptbound_aim_verify.csv",
         keyword_options=[
             _Opt("--a1", help="Dimensionless well strength A1."),
             _Opt("--b1", help="Dimensionless core strength B1."), _Opt("--alpha"), _Opt("--n-max"),
             _Opt("--depth", help="Iteration depth (default: 2n+2 per level).", kind=int)])
_command("oracle-check", cli_oracle_check,
         "Exercise the shooting/quadrature/derivative layer on exact cases.",
         "ptbound_oracle_check.csv")


if __name__ == "__main__":
    main(prog_name="ptbound")
