"""Diatomic molecule parameters, unit conversion, and dataset I/O.

The on-disk format is header-bearing CSV, ``name,mu_amu,alpha_invA``,
chosen for diff-friendliness and exact decimal preservation.  Reduced
masses are in amu, screening parameters in 1/Angstrom; energies come
out in eV with hbar*c in eV*Angstrom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    DomainError, TableFormatError, require_finite, require_index, require_normal_square,
    require_positive, within_range,
)
from .refdata import MOLECULE_CONSTANTS, REFERENCE_WELL_A
from .schrodinger import HBARC_EV_ANG, NRContext, PTPotential, level_count
from .tableio import write_csv
from .thermo import ThermoContext

__all__ = [
    "AMU_TO_EV",
    "HBARC_CALIBRATED",
    "MoleculeParams",
    "builtin_molecules",
    "load_molecules",
    "nr_context_for",
    "reference_energy",
    "save_molecules",
    "thermo_context_for",
]

AMU_TO_EV = 931.494061e6
# hbar*c that reproduces the bundled reference energies (see
# reference_energy); the standard value HBARC_EV_ANG is the default
# everywhere else.
HBARC_CALIBRATED = 1973.0

_HEADER = ("name", "mu_amu", "alpha_invA")


@dataclass(frozen=True)
class MoleculeParams:
    """One molecule: reduced mass (amu) and screening parameter (1/Angstrom)."""

    name: str
    mu_amu: float
    alpha_invA: float

    def __post_init__(self):
        if not self.name or self.name != self.name.strip():
            raise DomainError(f"molecule name must be non-empty and trimmed, got {self.name!r}")
        require_positive(self.mu_amu, f"{self.name}: reduced mass")
        alpha = require_positive(self.alpha_invA, f"{self.name}: screening parameter")
        require_normal_square(alpha, "alpha_invA")


def builtin_molecules() -> list[MoleculeParams]:
    """The twelve bundled molecules, in tabulated order."""
    return [
        MoleculeParams(name, float(mu), float(alpha))
        for name, (mu, alpha) in MOLECULE_CONSTANTS.items()
    ]


def load_molecules(path: str | Path) -> list[MoleculeParams]:
    """Parse a molecule CSV.  Empty (or header-only) file -> empty list.

    Errors carry the 1-based line number; duplicate names are rejected.
    """
    text = Path(path).read_text(encoding="utf-8")
    rows: list[MoleculeParams] = []
    seen: set[str] = set()
    header_done = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if not header_done:
            if tuple(parts) != _HEADER:
                raise TableFormatError(
                    f"{path}:{lineno}: expected header {','.join(_HEADER)!r}, got {line!r}"
                )
            header_done = True
            continue
        if len(parts) != 3:
            raise TableFormatError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
        name, mu_text, alpha_text = parts
        try:
            mu = float(mu_text)
            alpha = float(alpha_text)
        except ValueError as exc:
            raise TableFormatError(f"{path}:{lineno}: {exc}") from exc
        if name in seen:
            raise TableFormatError(f"{path}:{lineno}: duplicate molecule name {name!r}")
        seen.add(name)
        try:
            rows.append(MoleculeParams(name, mu, alpha))
        except DomainError as exc:
            raise TableFormatError(f"{path}:{lineno}: {exc}") from exc
    return rows


def save_molecules(path: str | Path, molecules: list[MoleculeParams]) -> None:
    """Write a dataset in the load_molecules format (atomic, LF endings).

    Floats are written as their repr, so a reload gives the same values;
    a name that would break the format raises TableFormatError.
    """
    rows = [(m.name, repr(m.mu_amu), repr(m.alpha_invA)) for m in molecules]
    write_csv(path, _HEADER, rows)


def nr_context_for(
    mol: MoleculeParams,
    *,
    hbar_c: float = HBARC_EV_ANG,
    amu_to_ev: float = AMU_TO_EV,
) -> NRContext:
    """Schrodinger context in eV/Angstrom units for one molecule."""
    return NRContext(mu=mol.mu_amu * require_finite(amu_to_ev, "amu_to_ev"), hbar_c=hbar_c)


def thermo_context_for(
    mol: MoleculeParams,
    pot: PTPotential,
    *,
    l: int = 0,
    tau: float | None = None,
    hbar_c: float = HBARC_EV_ANG,
    amu_to_ev: float = AMU_TO_EV,
) -> ThermoContext:
    """Thermodynamic context: zeta from the level-count formula, physical tau.

    tau = sqrt(mu/2)/(alpha hbar c) in eV^(-1/2); pass tau explicitly to
    work in reduced units (e.g. tau=1) while keeping the molecular zeta.
    """
    ctx = nr_context_for(mol, hbar_c=hbar_c, amu_to_ev=amu_to_ev)
    zeta, _ = level_count(pot, ctx, l)
    if tau is None:
        tau = math.sqrt(0.5 * ctx.mu) / (mol.alpha_invA * hbar_c)
    return ThermoContext(zeta=zeta, tau=tau)


def reference_energy(
    mol: MoleculeParams,
    n: int,
    l: int,
    *,
    a: float = REFERENCE_WELL_A,
    amu_to_ev: float = AMU_TO_EV,
) -> float:
    """Best-found convention reproducing the bundled reference energies.

    Calibration result (worst relative deviation 3.2e-8 over all 108
    bundled entries): the reference values follow the closed-form
    spectrum with three systematic differences from the full formula:

      - the l(l+1)/12 offset term is dropped,
      - the B well strength does not enter the second square root,
        which collapses to (2l+1),
      - hbar*c = 1973.0 eV*Angstrom rather than the stated 1973.29.

    A well parameter a that makes the first square root complex raises
    DomainError.
    """
    require_index(n, "level index")
    require_index(l, "angular momentum")
    require_finite(a, "well parameter a")
    mu = mol.mu_amu * require_positive(amu_to_ev, "amu_to_ev")
    alpha = mol.alpha_invA
    hbarc2 = HBARC_CALIBRATED * HBARC_CALIBRATED
    x = 8.0 * mu / (alpha * alpha * hbarc2)
    if 1.0 - a * x < 0.0:
        raise DomainError(f"well parameter a={a!r} makes a square root complex for {mol.name}")
    bracket = n + 0.5 + 0.25 * math.sqrt(1.0 - a * x) - 0.25 * (2 * l + 1)
    return within_range(-2.0 * alpha * alpha * hbarc2 / mu * bracket * bracket, "reference energy")
