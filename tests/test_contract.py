"""The finite-or-PtboundError contract of the public surface, as one table.

Every callable that ``ptbound`` exports and that takes numbers has a row
here: a call that works, naming every parameter.  Finite input drawn
from the row's strategy in ``strategies.ROWS`` must give a finite result
(every float of a number, tuple, NamedTuple or record) or raise a
PtboundError, and so must each float argument of the row's call, and
each float field of a record argument, set to 5e-324, the largest double,
its negative or the int 10**400, and each integer argument set to
10**400 (the calls that still leak are strict xfails, each with its
reason).  Each numeric argument of the row's call (and each numeric
element of a tuple such as a bracket, or of the tuples in a tuple such
as thermo_table's pairs) set to NaN, +inf or -inf must raise a
DomainError.  The bad arguments of each row, one at a time, must raise
a DomainError that names them, and each bad call must raise its error
or return its value.  A meta-test fails when an export has neither a
row nor a stated reason to have none, or a row has no strategy.
"""

import dataclasses
import inspect
import math
import numbers
import sys
from itertools import chain

import pytest
from hypothesis import given, settings

import ptbound as pb
from ptbound.errors import DomainError, OverflowRangeError, PtboundError
from strategies import ROWS

POT = pb.PTPotential(-30.0, 2.3, 1.0)
CTX = pb.NRContext.natural(0.5)
AIM = pb.pt_aim_problem(POT, CTX, 0, 3)
DPOT = pb.PTPotential(-2.0, 3.0, 1.0)
DCTX = pb.DiracContext(M=20.0, kappa=2, n=0)
TCTX = pb.ThermoContext(zeta=5.0, tau=1.0)
MOL = pb.builtin_molecules()[0]
MOL_UNITS = dict(hbar_c=pb.HBARC_EV_ANG, amu_to_ev=pb.AMU_TO_EV)
BETA = dict(ctx=TCTX, beta=0.1)
# An int past the double range: it compares as finite, but float() of it
# raises OverflowError.
BIG_INT = 10**400

# Export -> a call that works, as keyword arguments naming every parameter.
CONTRACT = {
    "AimProblem": dict(lambda0=AIM.lambda0, s0=AIM.s0, e_shift=0.0, e_scale=1.0),
    "aim_delta": dict(problem=AIM, e=-5.0, k=3),
    "aim_iterate": dict(problem=AIM, e=-5.0, k=3),
    "aim_eigen_scan": dict(problem=AIM, bracket=(-30.0, -1.0), k=3),
    "DiracContext": dict(M=20.0, kappa=2, n=0, c_shift=0.0, hbar_c=1.0),
    "nr_limit_energy": dict(mu=1.0, pot=DPOT, n=0, l=0),
    "plain_params": dict(e=3.0, ctx=DCTX, pot=DPOT),
    "tilde_params": dict(e=19.9, ctx=DCTX, pot=DPOT),
    "reflectionless_nr_energy": dict(mu=1.0, alpha=1.0, eta=1.0, n=0),
    "solve_levels": dict(
        ctx=pb.DiracContext(M=20.0, kappa=1, n=0), pot=DPOT, symmetry="pspin",
        bracket=(-40.0, 40.0), tol=1e-12,
    ),
    "special_case_residual": dict(
        kind="swave_spin", e=1.0, m=5.0, n=0, alpha=1.0, a=-1.0, b=0.5, eta=0.5, hbar_c=1.0
    ),
    "spinor_wavefunction": dict(component="lower", ctx=DCTX, pot=DPOT, e=19.9, r=1.0),
    "symmetric_nr_energy": dict(mu=0.1, eta=0.0, n=0),
    "MoleculeParams": dict(name="X", mu_amu=6.8, alpha_invA=2.3),
    "nr_context_for": dict(mol=MOL, **MOL_UNITS),
    "reference_energy": dict(mol=MOL, n=0, l=0, a=-2.0, amu_to_ev=pb.AMU_TO_EV),
    "thermo_context_for": dict(
        mol=MOL, pot=pb.PTPotential(-2.0, 3.0, MOL.alpha_invA), l=0, tau=1.0, **MOL_UNITS
    ),
    "RadialProblem": dict(
        w=lambda r: r * r, r_min=1e-6, r_cut=9.0, origin_exponent=1.0, npts=2001, origin_w0=0.0,
        origin_w2=1.0,
    ),
    "finite_difference": dict(f=math.exp, x=0.0, order=1, h=1e-3),
    "harmonic_problem": dict(omega=1.0, npts=2001),
    "integrate_adaptive": dict(f=math.sin, a=0.0, b=1.0, tol=1e-12, max_depth=48),
    "shoot_eigenvalue": dict(
        problem=pb.harmonic_problem(), n=0, bracket=(1.0, 5.0), tol=1e-9, max_refinements=6
    ),
    "PTPotential": dict(A=-30.0, B=2.3, alpha=1.0),
    "NRContext": dict(mu=0.5, hbar_c=1.0),
    "centrifugal_approx_residual": dict(l=1, alpha=1.0, r=0.5),
    "energy_from_k1": dict(ctx=CTX, alpha=1.0, l=1, k1=-5.0),
    "k1_from_energy": dict(ctx=CTX, alpha=1.0, l=1, energy=-5.0),
    "energy_nr": dict(pot=POT, ctx=CTX, n=0, l=0, branch="paper"),
    "level_count": dict(pot=POT, ctx=CTX, l=0),
    "potential_value": dict(pot=POT, r=1.0),
    "pt_aim_problem": dict(pot=POT, ctx=CTX, l=0, depth=3, branch="paper", z0=1.0),
    "pt_radial_problem": dict(pot=POT, ctx=CTX, l=0, centrifugal="approx", k1_estimate=-5.0),
    "spectral_params": dict(pot=POT, ctx=CTX, l=0, branch="paper"),
    "wavefunction_nr": dict(
        pot=POT, ctx=CTX, n=0, l=0, r=1.0, branch="regular", argument="linear"
    ),
    "dawson": dict(x=1.0),
    "erfi": dict(x=1.0),
    "ln_erfi": dict(x=1.0),
    "hyp2f1_terminating": dict(n=2, b=1.5, c=0.5, z=-0.3),
    "pochhammer": dict(s=2.7, n=3),
    "ThermoContext": dict(zeta=5.0, tau=1.0),
    "chi": BETA,
    "entropy": BETA,
    "free_energy": BETA,
    "log_partition_closed": BETA,
    "mean_energy": BETA,
    "partition_closed": BETA,
    "partition_sum": dict(ctx=TCTX, beta=0.1, n_max=5),
    "specific_heat": BETA,
    "thermo_point": BETA,
    "thermo_table": dict(pairs=((TCTX, 0.1), (TCTX, 0.2))),
}

_RECORD = "a result record the package builds, not an input"
EXEMPT = {
    "pspin_residual": "per-node residual of the root scans: NaN is its documented "
    "off-domain value, and no check runs per node",
    "spin_residual": "per-node residual of the root scans, as pspin_residual",
    "spin_residual_shifted": "spin_residual in the gap variable: NaN off-domain, as spin_residual",
    "spin_residual_via_map": "spin_residual through the exchange map: NaN off-domain, as "
    "spin_residual",
    "builtin_molecules": "takes no argument",
    "load_molecules": "takes a path; MoleculeParams checks each row's numbers",
    "save_molecules": "takes a path and MoleculeParams records",
    **{name: _RECORD for name in (
        "AimRoot", "AimScanReport", "LevelCount", "RelativisticRoot",
        "ShootResult", "SpectralParams", "SymmetryParams", "ThermoPoint",
    )},
}

NOT_INDICES = (-1, 1.5, 2.5, math.nan, math.inf)
# Arguments each row's call rejects with a DomainError naming them: (export,
# parameter, values, what the message says), each value in turn in place
# of the row's own.
BAD_ARGUMENTS = [
    ("AimProblem", "e_scale", (0.0, math.inf, math.nan), "e_scale"),
    ("aim_delta", "k", (math.nan,), "depth"),
    ("aim_eigen_scan", "k", (2.5,), "depth"),
    ("DiracContext", "M", (0.0, math.inf, math.nan), "M must be finite and positive"),
    ("DiracContext", "hbar_c", (0.0, math.inf, math.nan), "hbar_c must be finite and positive"),
    ("DiracContext", "c_shift", (math.inf, -math.inf, math.nan), "c_shift must be finite"),
    ("DiracContext", "kappa", (0, 1.5, math.nan, math.inf), "kappa. must be an integer"),
    ("DiracContext", "n", NOT_INDICES, "level index must be an integer"),
    ("nr_limit_energy", "mu", (-1.0, math.inf, math.nan), "mass parameter"),
    ("nr_limit_energy", "n", NOT_INDICES, "level index must be an integer"),
    ("nr_limit_energy", "l", NOT_INDICES, "angular momentum must be an integer"),
    ("plain_params", "e", (math.nan,), "energy"),
    ("tilde_params", "e", (math.nan,), "energy"),
    ("tilde_params", "e", (3.0,), "exponent"),
    ("reflectionless_nr_energy", "mu", (0.0,), "mass parameter"),
    ("reflectionless_nr_energy", "alpha", (0.0, 1e200), "alpha"),
    ("reflectionless_nr_energy", "n", NOT_INDICES, "level index must be an integer"),
    ("solve_levels", "symmetry", ("other",), "symmetry"),
    ("solve_levels", "bracket", ((1.0, 1.0),), "bracket"),
    ("solve_levels", "tol", (math.nan, -1.0), "tolerance"),
    ("special_case_residual", "kind", ("bogus",), "kind"),
    ("special_case_residual", "n", NOT_INDICES, "level index must be an integer"),
    ("special_case_residual", "alpha", (0.0, 1e200), "alpha"),
    ("special_case_residual", "hbar_c", (0.0,), "hbar_c"),
    ("spinor_wavefunction", "component", ("middle",), "component"),
    ("spinor_wavefunction", "e", (math.nan,), "energy"),
    ("spinor_wavefunction", "r", (0.0, math.inf), "radius"),
    ("symmetric_nr_energy", "mu", (0.0,), "mass parameter"),
    ("symmetric_nr_energy", "mu", (10.0,), "discriminant"),
    ("symmetric_nr_energy", "eta", (math.nan,), "eta"),
    ("symmetric_nr_energy", "n", NOT_INDICES, "level index must be an integer"),
    ("MoleculeParams", "name", ("", " CO"), "name"),
    ("MoleculeParams", "mu_amu", (0.0, math.inf), "reduced mass must be finite"),
    ("MoleculeParams", "alpha_invA", (-2.0, math.inf), "screening parameter must be finite"),
    ("MoleculeParams", "alpha_invA", (5e-324, 1e-160, 1e200), "alpha_invA..2 must be a normal double"),
    ("reference_energy", "a", (math.nan, 1e9), "well parameter a"),
    ("reference_energy", "n", (-1,), "level index"),
    ("RadialProblem", "r_cut", (1e-7, math.inf), "r_cut"),
    ("RadialProblem", "r_min", (0.0,), "r_min"),
    ("RadialProblem", "npts", (2001.0,), "npts"),
    ("RadialProblem", "origin_exponent", (math.nan, -0.5), "origin_exponent"),
    ("RadialProblem", "origin_w0", (math.nan,), "origin_w0"),
    ("RadialProblem", "origin_w2", (math.inf,), "origin_w2"),
    ("finite_difference", "order", (3,), "order"),
    ("finite_difference", "h", (0.0,), "step"),
    ("harmonic_problem", "omega", (-1.0, math.nan, math.inf), "omega"),
    ("integrate_adaptive", "b", (0.0,), "interval"),
    ("integrate_adaptive", "tol", (0.0,), "tolerance"),
    ("shoot_eigenvalue", "n", NOT_INDICES, "level index must be an integer"),
    ("shoot_eigenvalue", "bracket", ((5.0, 5.0), (1.0, math.inf), (-math.inf, 5.0)), "bracket"),
    ("shoot_eigenvalue", "tol", (0.0, -1e-9, math.nan, math.inf), "tolerance"),
    ("shoot_eigenvalue", "max_refinements", (0, -1, 2.5), "max_refinements"),
    ("PTPotential", "A", (math.nan, -math.inf), "A must be finite"),
    ("PTPotential", "B", (math.inf, math.nan), "B must be finite"),
    ("PTPotential", "alpha", (0.0,), "alpha"),
    ("PTPotential", "alpha", (1e-200, 1e-160, 1e155, -1e200), "alpha..2 must be a normal double"),
    ("NRContext", "mu", (0.0, math.inf), "reduced mass must be finite"),
    ("NRContext", "hbar_c", (-1.0, math.inf, math.nan), "hbar_c must be finite"),
    ("NRContext", "hbar_c", (1e-200, 1e-160, 1e160), "hbar_c..2 must be a normal double"),
    ("centrifugal_approx_residual", "l", (0, math.nan), "angular momentum"),
    ("centrifugal_approx_residual", "alpha", (math.nan,), "alpha"),
    ("centrifugal_approx_residual", "r", (0.0,), "radius"),
    ("energy_from_k1", "l", (-3,), "angular momentum"),
    ("k1_from_energy", "energy", (math.nan,), "energy"),
    ("energy_nr", "n", NOT_INDICES, "level index must be an integer"),
    ("energy_nr", "l", NOT_INDICES, "angular momentum must be an integer"),
    ("energy_nr", "branch", ("bogus",), "branch"),
    ("energy_nr", "pot", (pb.PTPotential(5.0, 0.0, 1.0),), "square-root argument negative"),
    ("level_count", "l", NOT_INDICES, "angular momentum must be an integer"),
    ("potential_value", "r", (0.0,), "singular at r = 0"),
    ("potential_value", "r", (-1.0,), "radius"),
    ("pt_aim_problem", "depth", (2.5, math.nan), "depth"),
    ("pt_radial_problem", "centrifugal", ("other",), "centrifugal"),
    ("pt_radial_problem", "pot", (pb.PTPotential(-30.0, -10.0, 1.0),),
     "core-strength discriminant"),
    ("pt_radial_problem", "k1_estimate", (-1e-320,), "k1_estimate"),
    ("spectral_params", "l", NOT_INDICES, "angular momentum must be an integer"),
    ("spectral_params", "pot", (pb.PTPotential(-1.0, -1.0, 1.0),), "discriminant negative"),
    ("wavefunction_nr", "n", NOT_INDICES, "level index must be an integer"),
    ("wavefunction_nr", "l", NOT_INDICES, "angular momentum must be an integer"),
    ("wavefunction_nr", "r", (0.0, math.inf), "radius"),
    ("wavefunction_nr", "argument", ("cubed",), "argument"),
    ("ln_erfi", "x", (0.0, -1.0), "x must be finite and positive"),
    ("ThermoContext", "tau", (math.inf, -math.inf, math.nan, 0.0, -1.0), "finite and positive"),
    ("chi", "beta", (math.inf,), "beta"),
    ("entropy", "beta", (0.0,), "beta"),
    ("entropy", "ctx", (pb.ThermoContext(0.0, 1.0),), "chi > 0"),
    ("free_energy", "ctx", (pb.ThermoContext(0.0, 1.0),), "zeta > 0"),
    ("mean_energy", "beta", (-1.0, math.inf), "beta"),
    ("mean_energy", "ctx", (pb.ThermoContext(0.0, 1.0),), "chi > 0"),
    ("partition_sum", "beta", (0.0, -0.1, math.inf), "beta"),
    ("partition_sum", "n_max", NOT_INDICES, "n_max must be an integer"),
    ("thermo_point", "beta", (math.inf,), "beta"),
]

# Calls with another outcome than a DomainError, or that change more than
# one argument: (export, call, outcome, what the message says), where the
# outcome is the error the call raises or the value it returns.  Most are
# finite input whose result leaves the double range, or whose
# intermediate does while the result does not.
BAD_CALLS = [
    ("AimProblem", lambda: pb.AimProblem([1.0], [1.0]), DomainError, "max_order"),
    ("AimProblem", lambda: pb.AimProblem(lambda e: AIM.lambda0, lambda e: AIM.s0),
     DomainError, "arrays of Taylor coefficients"),
    ("NRContext", lambda: pb.NRContext(1e300, 1e-10), DomainError, "2 mu / hbar_c"),
    ("NRContext", lambda: pb.NRContext(1e-300, 1e10), DomainError, "2 mu / hbar_c"),
    ("special_case_residual",
     lambda: pb.special_case_residual("hyperbolic_mpt_spin", 1.0, m=1.0, n=0, alpha=2.0),
     DomainError, "alpha = hbar = 1"),
    *[("spectral_params", lambda bad=bad: pb.spectral_params(POT, CTX, 0).k1(bad), DomainError,
       "level index must be an integer") for bad in NOT_INDICES],
    ("potential_value", lambda: pb.potential_value(POT, 800.0), 0.0, None),
    ("potential_value", lambda: pb.potential_value(POT, 5e-324), OverflowRangeError, "potential"),
    ("k1_from_energy", lambda: pb.k1_from_energy(CTX, 1e200, 1, 1.0), OverflowRangeError, "K1"),
    ("energy_from_k1", lambda: pb.energy_from_k1(pb.NRContext(1e-3, 1.0), 1.0, 0, -1e308),
     OverflowRangeError, "energy"),
    ("special_case_residual",
     lambda: pb.special_case_residual("swave_spin", 1e200, m=5.0, n=0, a=-1.0, b=0.5),
     OverflowRangeError, "residual"),
    ("chi", lambda: pb.chi(pb.ThermoContext(1e300, 1e-300), 1.0), OverflowRangeError, "chi"),
    ("thermo_point", lambda: pb.thermo_point(pb.ThermoContext(1e300, 1e-300), 1.0),
     OverflowRangeError, "chi"),
    # chi = 26 inside erfi's range, but tau erfi(chi) overflows (ln Z is 718.1)
    ("partition_closed", lambda: pb.partition_closed(pb.ThermoContext(26e20, 1e20), 1.0),
     OverflowRangeError, "partition function"),
    ("thermo_point", lambda: pb.thermo_point(pb.ThermoContext(26e20, 1e20), 1.0),
     OverflowRangeError, "partition function"),
    ("centrifugal_approx_residual", lambda: pb.centrifugal_approx_residual(1, 1.0, 800.0),
     1.0 / 800.0**2 - 1.0 / 3.0, None),
    ("dawson", lambda: pb.dawson(2e154), 2.5e-155, None),
    ("ln_erfi", lambda: pb.ln_erfi(1e300), OverflowRangeError, "ln_erfi"),
    ("ln_erfi", lambda: pb.ln_erfi(1.7e308), OverflowRangeError, "ln_erfi"),
    ("nr_limit_energy", lambda: pb.nr_limit_energy(5e-324, DPOT, 0, 0),
     OverflowRangeError, "energy"),
    ("reflectionless_nr_energy", lambda: pb.reflectionless_nr_energy(1.0, 1.0, 1e200, 0),
     OverflowRangeError, "energy"),
    ("symmetric_nr_energy", lambda: pb.symmetric_nr_energy(5e-324, 0.0, 0),
     OverflowRangeError, "energy"),
    ("reference_energy", lambda: pb.reference_energy(MOL, 0, 0, a=-1e308),
     OverflowRangeError, "energy"),
    ("plain_params", lambda: pb.plain_params(1e308, DCTX, DPOT), OverflowRangeError, "symmetry"),
    ("tilde_params", lambda: pb.tilde_params(1e308, DCTX, DPOT), OverflowRangeError, "symmetry"),
    ("pochhammer", lambda: pb.pochhammer(1e200, 2), OverflowRangeError, "pochhammer"),
    ("finite_difference", lambda: pb.finite_difference(math.atan, 0.0, h=5e-324),
     DomainError, "step h=5e-324 underflows"),
    ("finite_difference", lambda: pb.finite_difference(math.atan, 0.0, order=2, h=1e-200),
     DomainError, "step h=1e-200 underflows"),
    ("finite_difference", lambda: pb.finite_difference(math.atan, 1e308, h=1e308),
     OverflowRangeError, "x"),
    ("integrate_adaptive", lambda: pb.integrate_adaptive(lambda x: 1.0, -1e308, 1e308, tol=1e300),
     OverflowRangeError, "integral"),
    ("integrate_adaptive", lambda: pb.integrate_adaptive(lambda x: 1e300, -1e300, 1e300),
     OverflowRangeError, "integral"),
    ("partition_sum", lambda: pb.partition_sum(TCTX, 5e-324, 5), 6.0, None),
    ("free_energy", lambda: pb.free_energy(TCTX, 5e-324), OverflowRangeError, "free energy"),
    ("thermo_point", lambda: pb.thermo_point(TCTX, 5e-324), OverflowRangeError, "free energy"),
    ("thermo_table", lambda: pb.thermo_table([(TCTX, 0.1), (TCTX, 5e-324)]),
     OverflowRangeError, "free energy"),
    ("partition_sum", lambda: pb.partition_sum(pb.ThermoContext(1e160, 1e10), 1e-300, 3),
     4.0 * math.e, None),
    ("mean_energy", lambda: pb.mean_energy(TCTX, sys.float_info.max), -25.0, None),
    ("specific_heat", lambda: pb.specific_heat(TCTX, sys.float_info.max), 1.0, None),
    # (alpha hbar_c)**2 leaves the double range while alpha**2 and hbar_c**2 do not
    *[(name, lambda call=call, alpha=alpha, hbar_c=hbar_c: call(alpha, hbar_c), DomainError,
       r"\(alpha hbar_c\)\*\*2 must be a normal double")
      for alpha, hbar_c in ((1e150, 1e10), (1e-150, 1e-10))
      for name, call in (
          ("energy_nr", lambda alpha, hbar_c: pb.energy_nr(
              pb.PTPotential(-1.0, 0.0, alpha), pb.NRContext(1e-20 * hbar_c**2, hbar_c), 0, 0)),
          ("level_count", lambda alpha, hbar_c: pb.level_count(
              pb.PTPotential(-1.0, 0.0, alpha), pb.NRContext(1e-20 * hbar_c**2, hbar_c), 0)),
          ("tilde_params", lambda alpha, hbar_c: pb.tilde_params(
              19.9, pb.DiracContext(20.0, 2, 0, hbar_c=hbar_c), pb.PTPotential(-2.0, 3.0, alpha))),
      )],
    ("spectral_params",
     lambda: pb.spectral_params(pb.PTPotential(-30.0, 2.3, 1e150), CTX, 0).k1(10**10),
     OverflowRangeError, "K1"),
    # gamma = tau/sqrt(beta) whose square underflows, or gamma itself
    ("partition_sum", lambda: pb.partition_sum(pb.ThermoContext(5.0, 1e-200), 1.0, 3),
     OverflowRangeError, "largest term exponent"),
    ("partition_sum", lambda: pb.partition_sum(pb.ThermoContext(0.0, 1e-160), 1.0, 0), 1.0, None),
    ("partition_sum",
     lambda: pb.partition_sum(pb.ThermoContext(0.0, 5e-324), sys.float_info.max, 0),
     OverflowRangeError, "tau/sqrt.beta. underflows"),
    # 200,001 terms near e^700 sum past the double range
    ("partition_sum", lambda: pb.partition_sum(pb.ThermoContext(2.6457e7, 1e6), 1.0, 200000),
     OverflowRangeError, "partition sum"),
    # an int past the double range, refused where it enters and named
    ("ThermoContext", lambda: pb.ThermoContext(BIG_INT, 1.0),
     DomainError, "zeta must be finite, got an int past the double range"),
    ("PTPotential", lambda: pb.PTPotential(-30.0, 2.3, BIG_INT),
     DomainError, r"\|alpha\| must be finite and positive, got an int past the double range"),
    ("shoot_eigenvalue", lambda: pb.shoot_eigenvalue(pb.harmonic_problem(), 0, (1.0, BIG_INT)),
     DomainError, "shooting bracket must be finite and nonempty, got an int past the double range"),
    ("potential_value", lambda: pb.potential_value(POT, BIG_INT),
     DomainError, "radius must be finite, got an int past the double range"),
    ("pochhammer", lambda: pb.pochhammer(1.5, BIG_INT),
     DomainError, "pochhammer order must be an integer >= 0, got an int past the double range"),
    # (alpha hbar_c)**2 underflows to 0 or overflows in the per-node residuals
    # (once a bare ZeroDivisionError or OverflowError), or alpha and hbar_c
    # are ints whose product is past the double range (once a bare
    # OverflowError; the constructors now store them as floats)
    *[(name, lambda name=name, alpha=alpha, hbar_c=hbar_c: getattr(pb, name)(
        1.0, pb.DiracContext(M=5.0, kappa=1, n=0, hbar_c=hbar_c), pb.PTPotential(-3.0, 0.5, alpha)),
       DomainError, r"\(alpha hbar_c\)\*\*2 must be a normal double")
      for alpha, hbar_c in ((1e-150, 1e-20), (1e100, 1e200), (10**150, 10**300))
      for name in ("pspin_residual", "spin_residual", "spin_residual_shifted",
                   "spin_residual_via_map")],
    *[("solve_levels", lambda alpha=alpha, hbar_c=hbar_c, symmetry=symmetry: pb.solve_levels(
        pb.DiracContext(M=5.0, kappa=1, n=0, hbar_c=hbar_c), pb.PTPotential(-3.0, 0.5, alpha),
        symmetry), DomainError, r"\(alpha hbar_c\)\*\*2 must be a normal double")
      for alpha, hbar_c in ((1e-150, 1e-20), (1e100, 1e200), (10**150, 10**300))
      for symmetry in ("pspin", "spin")],
    # a node's residual past the double range reads as a sign change (once
    # a level at E = 4.5e287 with residual -inf)
    ("solve_levels", lambda: pb.solve_levels(
        pb.DiracContext(M=5.0, kappa=1, n=0), pb.PTPotential(-3.0, 0.5, 1.0), "spin",
        (-1e300, 1e300)), OverflowRangeError, "residual"),
]


# Examples of the finite-input property per row; a row not named takes
# the default.  The AIM, Dirac-parameter and spinor rows keep the counts
# of the module properties they replaced; shooting, at tens of ms a
# call, takes fewer.
EXAMPLES = {
    "aim_delta": 300, "plain_params": 200, "tilde_params": 200, "spinor_wavefunction": 300,
    "shoot_eigenvalue": 10,
}
DEFAULT_EXAMPLES = 20

# Documented non-finite results on finite input: the floats each row may return.
NONFINITE_RESULTS = {
    "special_case_residual": math.isnan,  # NaN where its square roots go complex
    "aim_eigen_scan": math.isinf,  # a root's stability_gap with no shallower root
}


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_float(value):
    return isinstance(value, float)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def floats_of(result):
    """Every number of a result: itself, or those of its items or fields."""
    if isinstance(result, numbers.Real):
        yield float(result)
    elif dataclasses.is_dataclass(result):
        for field in dataclasses.fields(result):
            yield from floats_of(getattr(result, field.name))
    elif isinstance(result, (tuple, list)) or hasattr(result, "tolist"):
        for item in list(result):
            yield from floats_of(item)


def slots(value, accept):
    """The index paths of value's slots that accept() takes: value itself,
    every element of a tuple of such, or every such element of the tuples
    in a tuple of tuples (as the (context, beta) pairs of thermo_table)."""
    if accept(value):
        return [()]
    if not isinstance(value, tuple):
        return []
    if all(map(accept, value)):
        return [(i,) for i in range(len(value))]
    if all(isinstance(item, tuple) for item in value):
        return [(i, j) for i, item in enumerate(value) for j, v in enumerate(item) if accept(v)]
    return []


def replaced(value, path, bad):
    """value with the slot at the index path set to bad."""
    if not path:
        return bad
    i = path[0]
    return value[:i] + (replaced(value[i], path[1:], bad),) + value[i + 1:]


def substitutions(kwargs, accept, values):
    """(label, kwargs) for every argument slot that accept() takes (see
    slots) set to each of values in turn."""
    for param, value in kwargs.items():
        for path in slots(value, accept):
            index = "".join(f"[{i}]" for i in path)
            for bad in values:
                label = f"{param}{index}={'10**400' if bad == BIG_INT else bad}"
                yield label, kwargs | {param: replaced(value, path, bad)}


def nonfinite_calls():
    """Every numeric argument of every row set to NaN, +inf and -inf in turn."""
    for name, kwargs in CONTRACT.items():
        for label, call in substitutions(kwargs, _is_number, (math.nan, math.inf, -math.inf)):
            yield pytest.param(name, call, id=f"{name}-{label}")


TINY, HUGE = 5e-324, sys.float_info.max
# finite_difference's own f, exp, overflows at x = HUGE; atan is finite
# everywhere, as in its strategy row.
EXTREME_ROWS = CONTRACT | {"finite_difference": CONTRACT["finite_difference"] | {"f": math.atan}}
# Extreme arguments that still leak: the call's id -> what comes back.
EXTREME_LEAKS: dict[str, str] = {}


def record_substitutions(kwargs, values):
    """(label, kwargs) for every float field of every record argument set to
    each of values in turn.  A value the record refuses with a PtboundError
    never reaches a call, so it gives none.  A RadialProblem is left out: what
    its w does at an extreme radius is the caller's function's business."""
    for param, record in kwargs.items():
        if not dataclasses.is_dataclass(record) or isinstance(record, pb.RadialProblem):
            continue
        own = {field.name: getattr(record, field.name) for field in dataclasses.fields(record)}
        for label, changed in substitutions(own, _is_float, values):
            try:
                changed = dataclasses.replace(record, **changed)
            except PtboundError:
                continue
            yield f"{param}.{label}", kwargs | {param: changed}


def extreme_calls():
    """Every float argument of every row, and every float field of a record
    argument, set to 5e-324, max, -max and 10**400 in turn; every integer
    argument set to 10**400."""
    for name, kwargs in EXTREME_ROWS.items():
        extremes = (TINY, HUGE, -HUGE, BIG_INT)
        for label, call in chain(
            substitutions(kwargs, _is_float, extremes), record_substitutions(kwargs, extremes),
            substitutions(kwargs, _is_int, (BIG_INT,)),
        ):
            reason = EXTREME_LEAKS.get(f"{name}-{label}")
            marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
            yield pytest.param(name, call, id=f"{name}-{label}", marks=marks)


def public_callables():
    for name in pb.__all__:
        obj = getattr(pb, name)
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, BaseException)):
            yield name


def test_every_public_callable_has_a_row():
    missing = [name for name in public_callables() if name not in CONTRACT | EXEMPT]
    assert missing == []
    assert set(CONTRACT) & set(EXEMPT) == set()
    assert set(CONTRACT) | set(EXEMPT) <= set(pb.__all__)
    assert set(ROWS) == set(CONTRACT)
    assert set(EXAMPLES) | set(NONFINITE_RESULTS) <= set(CONTRACT)
    assert {row[0] for row in BAD_ARGUMENTS} <= set(CONTRACT)
    assert {row[0] for row in BAD_CALLS} <= set(CONTRACT) | set(EXEMPT)
    assert set(EXTREME_LEAKS) <= {call.id for call in extreme_calls()}


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_row_names_every_parameter_and_works(name):
    fn, kwargs = getattr(pb, name), CONTRACT[name]
    assert set(kwargs) == set(inspect.signature(fn).parameters)
    result = fn(**kwargs)
    if _is_number(result):
        assert math.isfinite(result)


def check_finite_or_ptbound_error(name, kwargs):
    """The row's export at kwargs raises a PtboundError or returns finite
    floats (or its documented non-finite ones)."""
    allowed = NONFINITE_RESULTS.get(name, lambda v: False)
    try:
        result = getattr(pb, name)(**kwargs)
    except PtboundError:
        return
    assert [v for v in floats_of(result) if not (math.isfinite(v) or allowed(v))] == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_finite_input_gives_finite_result_or_ptbound_error(name):
    @settings(max_examples=EXAMPLES.get(name, DEFAULT_EXAMPLES))
    @given(kwargs=ROWS[name])
    def check(kwargs):
        assert set(kwargs) == set(CONTRACT[name])
        check_finite_or_ptbound_error(name, kwargs)

    check()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name, kwargs", extreme_calls())
def test_extreme_argument_gives_finite_result_or_ptbound_error(name, kwargs):
    check_finite_or_ptbound_error(name, kwargs)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name, kwargs", nonfinite_calls())
def test_nonfinite_argument_raises(name, kwargs):
    with pytest.raises(DomainError):
        getattr(pb, name)(**kwargs)


@pytest.mark.parametrize("name, param, bad, what", [
    pytest.param(name, param, bad, what, id=f"{name}-{param}={bad!r}")
    for name, param, values, what in BAD_ARGUMENTS for bad in values
])
def test_bad_argument_is_named(name, param, bad, what):
    with pytest.raises(DomainError, match=what):
        getattr(pb, name)(**CONTRACT[name] | {param: bad})


@pytest.mark.parametrize(
    "name, call, outcome, what",
    [pytest.param(*row, id=f"{row[0]}-{i}") for i, row in enumerate(BAD_CALLS)],
)
def test_bad_call(name, call, outcome, what):
    if isinstance(outcome, float):
        assert call() == pytest.approx(outcome, rel=1e-15)
    else:
        with pytest.raises(outcome, match=what):
            call()
