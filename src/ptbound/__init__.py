"""Bound states and thermodynamics of the hyperbolic Poschl-Teller well.

Layers, bottom to top:

- specfun / jets / rootfind: special functions, truncated Taylor-series
  arithmetic, and bracketing root finding.
- aim: the generic iterative eigenvalue engine over coefficient jets.
- oracle: independent numerics (shooting solver, adaptive quadrature,
  Richardson finite differences) used to cross-check everything else.
- schrodinger / dirac: closed-form spectra, wavefunctions, and the
  transcendental relativistic level conditions.
- thermo: partition function and thermodynamic functions.
- molecules / refdata / tableio / cli: datasets, unit handling, and the
  deterministic CSV artifact layer.
"""

from .aim import AimProblem, AimRoot, AimScanReport, aim_delta, aim_eigen_scan, aim_iterate
from .dirac import (
    DiracContext,
    RelativisticRoot,
    SymmetryParams,
    nr_limit_energy,
    plain_params,
    pspin_residual,
    reflectionless_nr_energy,
    solve_levels,
    special_case_residual,
    spin_residual,
    spinor_wavefunction,
    symmetric_nr_energy,
    tilde_params,
)
from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    JetMismatchError,
    NodeCountError,
    OverflowRangeError,
    PtboundError,
    TableFormatError,
)
from .jets import SeriesJet
from .molecules import (
    AMU_TO_EV,
    MoleculeParams,
    builtin_molecules,
    load_molecules,
    nr_context_for,
    reference_energy,
    save_molecules,
    thermo_context_for,
)
from .oracle import (
    RadialProblem,
    ShootResult,
    finite_difference,
    harmonic_problem,
    integrate_adaptive,
    shoot_eigenvalue,
)
from .schrodinger import (
    D0,
    HBARC_EV_ANG,
    EnergyLevel,
    LevelCount,
    NRContext,
    PTPotential,
    SpectralParams,
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
from .specfun import dawson, erfi, hyp2f1_terminating, ln_erfi, pochhammer
from .thermo import (
    ThermoContext,
    ThermoPoint,
    chi,
    entropy,
    free_energy,
    log_partition_closed,
    mean_energy,
    partition_closed,
    partition_sum,
    specific_heat,
    thermo_point,
)

__version__ = "0.1.0"

__all__ = [
    "AMU_TO_EV",
    "AimProblem",
    "AimRoot",
    "AimScanReport",
    "BracketError",
    "ConvergenceError",
    "D0",
    "DiracContext",
    "DomainError",
    "EnergyLevel",
    "HBARC_EV_ANG",
    "JetMismatchError",
    "LevelCount",
    "MoleculeParams",
    "NRContext",
    "NodeCountError",
    "OverflowRangeError",
    "PTPotential",
    "PtboundError",
    "RadialProblem",
    "RelativisticRoot",
    "SeriesJet",
    "ShootResult",
    "SpectralParams",
    "SymmetryParams",
    "TableFormatError",
    "ThermoContext",
    "ThermoPoint",
    "aim_delta",
    "aim_eigen_scan",
    "aim_iterate",
    "builtin_molecules",
    "centrifugal_approx_residual",
    "chi",
    "dawson",
    "energy_from_k1",
    "energy_nr",
    "entropy",
    "erfi",
    "finite_difference",
    "free_energy",
    "harmonic_problem",
    "hyp2f1_terminating",
    "integrate_adaptive",
    "k1_from_energy",
    "level_count",
    "ln_erfi",
    "load_molecules",
    "log_partition_closed",
    "mean_energy",
    "nr_context_for",
    "nr_limit_energy",
    "partition_closed",
    "partition_sum",
    "plain_params",
    "pochhammer",
    "potential_value",
    "pspin_residual",
    "pt_aim_problem",
    "pt_radial_problem",
    "reference_energy",
    "reflectionless_nr_energy",
    "save_molecules",
    "shoot_eigenvalue",
    "solve_levels",
    "special_case_residual",
    "specific_heat",
    "spectral_params",
    "spin_residual",
    "spinor_wavefunction",
    "symmetric_nr_energy",
    "thermo_context_for",
    "thermo_point",
    "tilde_params",
    "wavefunction_nr",
]
