"""Hypothesis input strategies: the one place the suite defines them.

The building blocks (potentials, the NR, Dirac and thermo contexts, AIM
problems, energies in mass units, NONFINITE) serve the module properties.
ROWS holds one strategy per row of ``test_contract.CONTRACT``, keyed by
the export name: each draws finite keyword arguments naming every
parameter.  A float of a row is mostly its working value times 10**u, u
uniform on [-3, 3] (``around``).
"""

import math
import operator

from hypothesis import strategies as st

import ptbound as pb
from ptbound.errors import PtboundError


def finite_or_ptbound_error(f, *args, **kwargs):
    """f's result, or None where it raises a PtboundError."""
    try:
        return f(*args, **kwargs)
    except PtboundError:
        return None


NONFINITE = st.sampled_from((math.nan, math.inf, -math.inf))
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def scaled(value):
    """value times 10**u, u uniform on [-3, 3]."""
    return st.floats(-3.0, 3.0).map(lambda u: value * 10.0**u)


def around(value):
    """scaled(value) in 8 draws of 10, else its negative or 0."""
    return st.builds(operator.mul, st.sampled_from((1.0,) * 8 + (-1.0, 0.0)), scaled(value))


def optional(strategy):
    return st.one_of(st.none(), strategy)


def row(**params):
    return st.fixed_dictionaries(params)


masses = st.floats(1e-3, 1e4)
kappas = st.sampled_from((-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6))
mass_units = st.floats(-3.0, 3.0)  # energies in units of the context's mass
A_RANGE, B_RANGE = (-50.0, 20.0), (-5.0, 20.0)
alphas = st.builds(operator.mul, st.sampled_from((1.0, -1.0)), st.floats(0.1, 5.0))
potentials = st.builds(pb.PTPotential, st.floats(*A_RANGE), st.floats(*B_RANGE), alphas)
hbar_cs = st.floats(0.1, 10.0)
nr_contexts = st.builds(pb.NRContext, masses, hbar_cs)
dirac_contexts = st.builds(
    pb.DiracContext, masses, kappas, st.integers(0, 5), st.floats(-50.0, 50.0), hbar_cs
)
thermo_contexts = st.builds(pb.ThermoContext, st.floats(-1e3, 1e3), st.floats(1e-2, 1e2))

# Criterion-1 wells and far deeper ones, at every depth the recurrence
# runs.  A well with B far below |A| puts the expansion point so near
# z = 0 that its Taylor coefficients overflow (OverflowRangeError); the
# filter drops those few.
aim_problems = st.builds(
    lambda a, b, alpha, depth: finite_or_ptbound_error(
        pb.pt_aim_problem, pb.PTPotential(a, b, alpha), pb.NRContext.natural(0.5), 0, depth
    ),
    st.floats(-1e12, -1.0), st.floats(0.0, 50.0), st.floats(0.2, 5.0), st.integers(1, 8),
).filter(lambda problem: problem is not None)
aim_energies = st.one_of(st.floats(-1e14, 1e3), finite_floats)
aim_depths = st.integers(-1, 30)


@st.composite
def dirac_energy_call(draw):
    """ctx, pot and an energy e drawn in units of ctx.M."""
    ctx = draw(dirac_contexts)
    return dict(ctx=ctx, pot=draw(potentials), e=draw(mass_units) * ctx.M)


levels, ls = st.integers(-1, 5), st.integers(-1, 3)
branches = st.sampled_from(("paper", "regular"))
molecules = st.builds(pb.MoleculeParams, st.just("X"), scaled(6.8), scaled(2.3))
units = dict(hbar_c=around(pb.HBARC_EV_ANG), amu_to_ev=around(pb.AMU_TO_EV))
nr_call = dict(pot=potentials, ctx=nr_contexts, l=ls)
thermo_call = row(ctx=thermo_contexts, beta=around(0.1))
special_kinds = st.sampled_from([
    f"{case}_{side}" for case in ("swave", "reflectionless", "hyperbolic_mpt")
    for side in ("pspin", "spin")
])

ROWS = {
    "AimProblem": row(
        lambda0=st.lists(finite_floats, min_size=1, max_size=8),
        s0=st.lists(finite_floats, min_size=1, max_size=8), e_shift=finite_floats,
        e_scale=finite_floats,
    ),
    "aim_delta": row(problem=aim_problems, e=aim_energies, k=aim_depths),
    "aim_iterate": row(problem=aim_problems, e=aim_energies, k=aim_depths),
    "aim_eigen_scan": st.builds(
        lambda problem, lo, width, k, grid: dict(
            problem=problem, bracket=(lo, lo + width), k=k, grid=grid
        ),
        aim_problems, st.floats(-1e14, 0.0), st.floats(-1.0, 1e14), aim_depths,
        st.integers(-1, 64),
    ),
    "DiracContext": row(
        M=around(20.0), kappa=st.integers(-3, 3), n=st.integers(-2, 3), c_shift=around(1.0),
        hbar_c=around(1.0),
    ),
    "nr_limit_energy": row(mu=around(1.0), pot=potentials, n=levels, l=ls),
    "plain_params": dirac_energy_call(),
    "tilde_params": dirac_energy_call(),
    "reflectionless_nr_energy": row(mu=around(1.0), alpha=around(1.0), eta=around(1.0), n=levels),
    "solve_levels": row(
        ctx=dirac_contexts, pot=potentials, symmetry=st.sampled_from(("pspin", "spin")),
        bracket=optional(st.tuples(around(-40.0), around(40.0))), tol=around(1e-12),
    ),
    "special_case_residual": row(
        kind=special_kinds, e=around(1.0), m=around(5.0), n=levels,
        alpha=st.one_of(st.just(1.0), around(1.0)), a=around(-1.0), b=around(0.5),
        eta=around(0.5), hbar_c=st.one_of(st.just(1.0), around(1.0)),
    ),
    "spinor_wavefunction": st.builds(
        lambda call, component, r: dict(call, component=component, r=r),
        dirac_energy_call(), st.sampled_from(("upper", "lower")), st.floats(1e-6, 1e6),
    ),
    "symmetric_nr_energy": row(mu=around(0.1), eta=around(1.0), n=levels),
    "MoleculeParams": row(
        name=st.sampled_from(("X", "", " X")), mu_amu=around(6.8), alpha_invA=around(2.3)
    ),
    "nr_context_for": row(mol=molecules, **units),
    "reference_energy": row(
        mol=molecules, n=levels, l=ls, a=around(-2.0), amu_to_ev=around(pb.AMU_TO_EV)
    ),
    "thermo_context_for": row(
        mol=molecules, pot=potentials, l=ls, tau=optional(around(1.0)), **units
    ),
    "RadialProblem": row(
        w=st.just(lambda r: r * r), r_min=around(1e-6), r_cut=around(9.0),
        origin_exponent=around(1.0), npts=st.integers(0, 4001), origin_w0=around(1.0),
        origin_w2=around(1.0),
    ),
    # atan is finite at every float, so the row checks finite_difference, not f
    "finite_difference": row(
        f=st.just(math.atan), x=around(1.0), order=st.integers(0, 3), h=around(1e-3)
    ),
    "harmonic_problem": row(omega=around(1.0), npts=st.integers(0, 4001)),
    "integrate_adaptive": row(
        f=st.just(math.sin), a=around(-1.0), b=around(1.0), tol=around(1e-6),
        max_depth=st.integers(-1, 48),
    ),
    "shoot_eigenvalue": row(
        problem=st.builds(pb.harmonic_problem, st.floats(0.1, 10.0)), n=st.integers(-1, 3),
        bracket=st.tuples(around(1.0), around(5.0)), tol=around(1e-9),
        max_refinements=st.integers(0, 6),
    ),
    "PTPotential": row(A=around(-30.0), B=around(2.3), alpha=around(1.0)),
    "NRContext": row(mu=around(0.5), hbar_c=around(1.0)),
    "centrifugal_approx_residual": row(l=st.integers(0, 3), alpha=around(1.0), r=around(0.5)),
    "energy_from_k1": row(ctx=nr_contexts, alpha=around(1.0), l=ls, k1=around(-5.0)),
    "k1_from_energy": row(ctx=nr_contexts, alpha=around(1.0), l=ls, energy=around(-5.0)),
    "energy_nr": row(**nr_call, n=levels, branch=branches),
    "level_count": row(**nr_call),
    "potential_value": row(pot=potentials, r=around(1.0)),
    "pt_aim_problem": row(
        **nr_call, depth=st.integers(-1, 8), branch=branches, z0=optional(around(1.0))
    ),
    "pt_radial_problem": row(
        **nr_call, centrifugal=st.sampled_from(("approx", "exact")),
        k1_estimate=optional(around(-5.0)),
    ),
    "spectral_params": row(**nr_call, branch=branches),
    "wavefunction_nr": row(
        **nr_call, n=levels, r=around(1.0), branch=branches,
        argument=st.sampled_from(("linear", "squared")),
    ),
    "dawson": row(x=around(1.0)),
    "erfi": row(x=around(1.0)),
    "ln_erfi": row(x=around(1.0)),
    "hyp2f1_terminating": row(n=st.integers(-1, 6), b=around(1.5), c=around(0.5), z=around(-0.3)),
    "pochhammer": row(s=around(2.7), n=st.integers(-1, 8)),
    "ThermoContext": row(zeta=around(5.0), tau=around(1.0)),
    "partition_sum": row(ctx=thermo_contexts, beta=around(0.1), n_max=st.integers(-1, 8)),
    **dict.fromkeys((
        "chi", "entropy", "free_energy", "log_partition_closed", "mean_energy",
        "partition_closed", "specific_heat", "thermo_point",
    ), thermo_call),
    "thermo_table": st.lists(thermo_call, max_size=6).map(
        lambda calls: {"pairs": [(c["ctx"], c["beta"]) for c in calls]}
    ),
}
