"""The finite-or-PtboundError contract of the public surface, as one table.

Every callable that ``ptbound`` exports and that takes numbers has a row
here: a call that works, naming every parameter.  Each numeric argument
of that call (and each element of a numeric tuple such as a bracket) set
to NaN, +inf or -inf must raise a PtboundError subclass.  The argument
checks found missing or misnamed are listed as bad calls of their own,
each of which must raise a DomainError that names the caller's argument.
A meta-test fails when an export has neither a row nor a stated reason
to have none.
"""

import inspect
import math

import pytest

import ptbound as pb
from ptbound.errors import DomainError, PtboundError

POT = pb.PTPotential(-30.0, 2.3, 1.0)
CTX = pb.NRContext.natural(0.5)
AIM = pb.pt_aim_problem(POT, CTX, 0, 3)
DPOT = pb.PTPotential(-2.0, 3.0, 1.0)
DCTX = pb.DiracContext(M=20.0, kappa=2, n=0)
TCTX = pb.ThermoContext(zeta=5.0, tau=1.0)
MOL = pb.builtin_molecules()[0]
MOL_UNITS = dict(hbar_c=pb.HBARC_EV_ANG, amu_to_ev=pb.AMU_TO_EV)
BETA = dict(ctx=TCTX, beta=0.1)

# Export -> a call that works, as keyword arguments naming every parameter.
CONTRACT = {
    "AimProblem": dict(lambda0=AIM.lambda0, s0=AIM.s0, e_shift=0.0, e_scale=1.0),
    "aim_delta": dict(problem=AIM, e=-5.0, k=3),
    "aim_iterate": dict(problem=AIM, e=-5.0, k=3),
    "aim_eigen_scan": dict(problem=AIM, bracket=(-30.0, -1.0), k=3, grid=64),
    "DiracContext": dict(M=20.0, kappa=2, n=0, c_shift=0.0, hbar_c=1.0),
    "nr_limit_energy": dict(mu=1.0, pot=DPOT, n=0, l=0),
    "plain_params": dict(e=3.0, ctx=DCTX, pot=DPOT),
    "tilde_params": dict(e=19.9, ctx=DCTX, pot=DPOT),
    "reflectionless_nr_energy": dict(mu=1.0, alpha=1.0, eta=1.0, n=0),
    "solve_levels": dict(
        ctx=pb.DiracContext(M=20.0, kappa=1, n=0), pot=DPOT, symmetry="pspin",
        bracket=(-40.0, 40.0), tol=1e-12, grid=1024,
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
        w=lambda r: r * r, r_min=1e-6, r_cut=9.0, origin_exponent=1.0, npts=2001, origin_w0=0.0
    ),
    "finite_difference": dict(f=math.exp, x=0.0, order=1, h=1e-3, levels=4),
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
}

_RECORD = "a result record the package builds, not an input"
EXEMPT = {
    "pspin_residual": "per-node residual of the root scans: NaN is its documented "
    "off-domain value, and no check runs per node",
    "spin_residual": "per-node residual of the root scans, as pspin_residual",
    "SeriesJet": "a jet arithmetic value; AimProblem checks the jets it is given",
    "builtin_molecules": "takes no argument",
    "load_molecules": "takes a path; MoleculeParams checks each row's numbers",
    "save_molecules": "takes a path and MoleculeParams records",
    **{name: _RECORD for name in (
        "AimRoot", "AimScanReport", "EnergyLevel", "LevelCount", "RelativisticRoot",
        "ShootResult", "SpectralParams", "SymmetryParams", "ThermoPoint",
    )},
}

# Calls that returned NaN, leaked a bare exception, were accepted, or
# named an argument the caller never passed: (export, call, name in the message).
BAD_CALLS = [
    ("partition_sum", lambda: pb.partition_sum(TCTX, math.inf, 2), "beta"),
    ("chi", lambda: pb.chi(TCTX, math.inf), "beta"),
    ("mean_energy", lambda: pb.mean_energy(TCTX, math.inf), "beta"),
    ("thermo_point", lambda: pb.thermo_point(TCTX, math.inf), "beta"),
    ("pt_aim_problem", lambda: pb.pt_aim_problem(POT, CTX, 0, 2.5), "depth"),
    ("pt_aim_problem", lambda: pb.pt_aim_problem(POT, CTX, 0, math.nan), "depth"),
    ("aim_eigen_scan", lambda: pb.aim_eigen_scan(AIM, (-30.0, -1.0), 2.5), "depth"),
    ("aim_delta", lambda: pb.aim_delta(AIM, -5.0, math.nan), "depth"),
    ("solve_levels", lambda: pb.solve_levels(DCTX, DPOT, "pspin", grid=math.nan), "grid"),
    ("solve_levels", lambda: pb.solve_levels(DCTX, DPOT, "pspin", tol=math.nan), "tolerance"),
    ("solve_levels", lambda: pb.solve_levels(DCTX, DPOT, "pspin", tol=-1.0), "tolerance"),
    ("centrifugal_approx_residual", lambda: pb.centrifugal_approx_residual(1, math.nan, 1.0),
     "alpha"),
    ("centrifugal_approx_residual", lambda: pb.centrifugal_approx_residual(math.nan, 1.0, 1.0),
     "angular momentum"),
    ("k1_from_energy", lambda: pb.k1_from_energy(CTX, 1.0, 0, math.nan), "energy"),
    ("energy_from_k1", lambda: pb.energy_from_k1(CTX, 1.0, -3, -5.0), "angular momentum"),
    ("symmetric_nr_energy", lambda: pb.symmetric_nr_energy(0.5, math.nan, 0), "eta"),
    ("reference_energy", lambda: pb.reference_energy(MOL, 0, 0, a=math.nan), "well parameter a"),
    ("reference_energy", lambda: pb.reference_energy(MOL, 0, 0, a=1e9), "well parameter a"),
    ("reference_energy", lambda: pb.reference_energy(MOL, -1, 0), "level index"),
    ("tilde_params", lambda: pb.tilde_params(math.nan, DCTX, DPOT), "energy"),
    ("plain_params", lambda: pb.plain_params(math.nan, DCTX, DPOT), "energy"),
    ("harmonic_problem", lambda: pb.harmonic_problem(math.nan), "omega"),
    ("harmonic_problem", lambda: pb.harmonic_problem(math.inf), "omega"),
    ("spinor_wavefunction",
     lambda: pb.spinor_wavefunction("lower", DCTX, DPOT, math.nan, 1.0), "energy"),
]


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def nonfinite_calls():
    """(id, export, kwargs) for every numeric argument of every row set to
    NaN, +inf and -inf in turn."""
    for name, kwargs in CONTRACT.items():
        for param, value in kwargs.items():
            if _is_number(value):
                slots = [(param, None)]
            elif isinstance(value, tuple) and all(map(_is_number, value)):
                slots = [(param, i) for i in range(len(value))]
            else:
                continue
            for param, index in slots:
                for bad in (math.nan, math.inf, -math.inf):
                    if index is None:
                        arg = bad
                    else:
                        arg = kwargs[param][:index] + (bad,) + kwargs[param][index + 1:]
                    label = param if index is None else f"{param}[{index}]"
                    yield pytest.param(name, kwargs | {param: arg}, id=f"{name}-{label}={bad}")


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
    assert {export for export, _, _ in BAD_CALLS} <= set(CONTRACT)


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_row_names_every_parameter_and_works(name):
    fn, kwargs = getattr(pb, name), CONTRACT[name]
    assert set(kwargs) == set(inspect.signature(fn).parameters)
    result = fn(**kwargs)
    if _is_number(result):
        assert math.isfinite(result)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name, kwargs", nonfinite_calls())
def test_nonfinite_argument_raises(name, kwargs):
    with pytest.raises(PtboundError):
        getattr(pb, name)(**kwargs)


@pytest.mark.parametrize(
    "name, call, what", [pytest.param(*row, id=f"{row[0]}-{i}") for i, row in enumerate(BAD_CALLS)]
)
def test_bad_call_names_its_argument(name, call, what):
    with pytest.raises(DomainError, match=what):
        call()
