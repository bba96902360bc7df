"""Relativistic bound states of the hyperbolic potential.

The radial Dirac problem with the potential placed in the sum (spin
symmetry, constant difference Delta = C_s) or the difference (pseudospin
symmetry, constant sum Sigma = C_ps) reduces to transcendental energy
conditions.  With ae = alpha * hbar_c and d0 = 1/12:

pseudospin (lower component, kappa(kappa-1) sector):

    4 ae^2 [ d0 k(k-1) - (n + 1/2
        + (1/4) sqrt(1 + 4A(M - E + Cps)/ae^2)
        - (1/4) sqrt((2k-1)^2 - 4B(M - E + Cps)/ae^2) )^2 ]
    + (M + E)(M - E + Cps) = 0

spin (upper component, kappa(kappa+1) sector):

    4 ae^2 [ d0 k(k+1) - (n + 1/2
        + (1/4) sqrt(1 - 4A(M + E - Cs)/ae^2)
        - (1/4) sqrt((2k+1)^2 + 4B(M + E - Cs)/ae^2) )^2 ]
    + (M - E)(M + E - Cs) = 0

The two are exchanged exactly by the substitution map A -> -A, B -> -B,
E -> -E, kappa -> kappa + 1, Cps -> -Cs.  Energies enter the square
roots, so parts of the E axis make the residual complex; those segments
are marked with NaN and excluded from root scans rather than patched.

Everything defaults to natural units (hbar = c = 1); passing hbar_c in
eV*Angstrom reuses the nonrelativistic constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import BracketError, DomainError
from .rootfind import bisect, sign_change_brackets, uniform_grid
from .schrodinger import D0, PTPotential
from .specfun import hyp2f1_terminating, pochhammer

__all__ = [
    "DiracContext",
    "RelativisticRoot",
    "SymmetryParams",
    "nr_limit_energy",
    "plain_params",
    "pspin_residual",
    "reflectionless_nr_energy",
    "solve_levels",
    "special_case_residual",
    "spin_residual",
    "spin_residual_shifted",
    "spin_residual_via_map",
    "spinor_wavefunction",
    "symmetric_nr_energy",
    "tilde_params",
]

_NAN = float("nan")

FLAG_NEAR_PLUS_M = "near_plus_m"
FLAG_NEAR_MINUS_M = "near_minus_m"


@dataclass(frozen=True)
class DiracContext:
    """Mass, quantum numbers, and symmetry constants for one solve.

    Exactly one of cps/cs is meaningful per residual; both default to
    zero.  hbar_c = 1 keeps natural units.
    """

    M: float
    kappa: int
    n: int
    cps: float = 0.0
    cs: float = 0.0
    hbar_c: float = 1.0

    def __post_init__(self):
        if self.kappa == 0:
            raise DomainError("kappa must be a nonzero integer")
        if self.n < 0:
            raise DomainError(f"level index must be >= 0, got {self.n}")
        if not self.M > 0.0:
            raise DomainError(f"mass must be positive, got {self.M!r}")
        if not self.hbar_c > 0.0:
            raise DomainError(f"hbar_c must be positive, got {self.hbar_c!r}")


@dataclass(frozen=True)
class RelativisticRoot:
    n: int
    kappa: int
    E: float
    symmetry: str
    bracket_used: tuple[float, float]
    residual: float
    flags: frozenset = frozenset()


@dataclass(frozen=True)
class SymmetryParams:
    """Scaled strengths and exponents of the factored relativistic equation.

    k3 includes the d0 factor on the angular term for both symmetries;
    the printed spin-side definition omits it, inconsistently with both
    the pseudospin side and the energy condition it feeds, and is
    treated as a misprint here.
    """

    a3: float
    b3: float
    k3: float
    gamma2: float
    beta2: float


def _ae2(ctx: DiracContext, pot: PTPotential) -> float:
    return (pot.alpha * ctx.hbar_c) ** 2


def _pspin_residual_raw(e, m, kappa, n, cps, ae2, pot):
    # kappa enters only through (2k-1)^2 and k(k-1), so the formal value
    # k = 0 produced by the exchange map is evaluable here even though it
    # is not a legal quantum number for a context object.
    t = m - e + cps
    arg1 = 1.0 + 4.0 * pot.A * t / ae2
    arg2 = (2.0 * kappa - 1.0) ** 2 - 4.0 * pot.B * t / ae2
    if arg1 < 0.0 or arg2 < 0.0:
        return _NAN
    bracket = n + 0.5 + 0.25 * math.sqrt(arg1) - 0.25 * math.sqrt(arg2)
    return 4.0 * ae2 * (D0 * kappa * (kappa - 1) - bracket * bracket) + (m + e) * t


def pspin_residual(e: float, ctx: DiracContext, pot: PTPotential) -> float:
    """Left-hand side of the pseudospin energy condition; NaN off-domain."""
    return _pspin_residual_raw(e, ctx.M, ctx.kappa, ctx.n, ctx.cps, _ae2(ctx, pot), pot)


def spin_residual(e: float, ctx: DiracContext, pot: PTPotential) -> float:
    """Left-hand side of the spin energy condition; NaN off-domain."""
    ae2 = _ae2(ctx, pot)
    k = ctx.kappa
    t = ctx.M + e - ctx.cs
    arg1 = 1.0 - 4.0 * pot.A * t / ae2
    arg2 = (2.0 * k + 1.0) ** 2 + 4.0 * pot.B * t / ae2
    if arg1 < 0.0 or arg2 < 0.0:
        return _NAN
    bracket = ctx.n + 0.5 + 0.25 * (math.sqrt(arg1) - math.sqrt(arg2))
    return 4.0 * ae2 * (D0 * k * (k + 1) - bracket * bracket) + (ctx.M - e) * t


def spin_residual_shifted(w: float, ctx: DiracContext, pot: PTPotential) -> float:
    """Spin condition in the gap variable W = E - M.

    Algebraically identical to spin_residual(M + W), but (M - E) is
    carried as -W exactly, so the near-rest-mass regime W << M keeps
    full precision instead of losing it to cancellation.
    """
    ae2 = _ae2(ctx, pot)
    k = ctx.kappa
    t = 2.0 * ctx.M + w - ctx.cs
    arg1 = 1.0 - 4.0 * pot.A * t / ae2
    arg2 = (2.0 * k + 1.0) ** 2 + 4.0 * pot.B * t / ae2
    if arg1 < 0.0 or arg2 < 0.0:
        return _NAN
    bracket = ctx.n + 0.5 + 0.25 * (math.sqrt(arg1) - math.sqrt(arg2))
    return 4.0 * ae2 * (D0 * k * (k + 1) - bracket * bracket) - w * t


def spin_residual_via_map(e: float, ctx: DiracContext, pot: PTPotential) -> float:
    """Spin residual obtained from the pseudospin one by the exchange map

    V -> -V, E -> -E, kappa -> kappa + 1, Cps -> -Cs.

    Pointwise equality with spin_residual is a correctness check on the
    transcription of both conditions.  kappa = -1 maps to the formal
    kappa = 0, which the raw evaluator accepts.
    """
    mapped_pot = PTPotential(A=-pot.A, B=-pot.B, alpha=pot.alpha)
    return _pspin_residual_raw(
        -e, ctx.M, ctx.kappa + 1, ctx.n, -ctx.cs, _ae2(ctx, pot), mapped_pot
    )


def tilde_params(e: float, ctx: DiracContext, pot: PTPotential) -> SymmetryParams:
    """Pseudospin-side scaled parameters and exponents at energy e."""
    ae2 = _ae2(ctx, pot)
    k = ctx.kappa
    s = e - ctx.M - ctx.cps
    a3 = s * pot.A / ae2
    b3 = s * pot.B / ae2 + k * (k - 1)
    k3 = 4.0 * k * (k - 1) * D0 + (ctx.M - e + ctx.cps) * (ctx.M + e) / ae2
    disc_a = 1.0 - 4.0 * a3
    disc_b = 1.0 + 4.0 * b3
    if disc_a < 0.0 or disc_b < 0.0:
        raise DomainError("exponent discriminant negative at this energy")
    beta2 = 0.25 * (1.0 - math.sqrt(disc_a))
    gamma2 = 0.25 * (1.0 - math.sqrt(disc_b))
    return SymmetryParams(a3=a3, b3=b3, k3=k3, gamma2=gamma2, beta2=beta2)


def plain_params(e: float, ctx: DiracContext, pot: PTPotential) -> SymmetryParams:
    """Spin-side scaled parameters and exponents at energy e."""
    ae2 = _ae2(ctx, pot)
    k = ctx.kappa
    s = e + ctx.M - ctx.cs
    a3 = s * pot.A / ae2
    b3 = s * pot.B / ae2 + k * (k + 1)
    k3 = 4.0 * k * (k + 1) * D0 + (ctx.M + e - ctx.cs) * (ctx.M - e) / ae2
    disc_a = 1.0 - 4.0 * a3
    disc_b = 1.0 + 4.0 * b3
    if disc_a < 0.0 or disc_b < 0.0:
        raise DomainError("exponent discriminant negative at this energy")
    beta2 = 0.25 * (1.0 - math.sqrt(disc_a))
    gamma2 = 0.25 * (1.0 - math.sqrt(disc_b))
    return SymmetryParams(a3=a3, b3=b3, k3=k3, gamma2=gamma2, beta2=beta2)


_SYMMETRIES = ("pspin", "spin")


def solve_levels(
    ctx: DiracContext,
    pot: PTPotential,
    symmetry: str,
    bracket: Optional[tuple[float, float]] = None,
    *,
    n: Optional[int] = None,
    tol: float = 1e-12,
    grid: int = 1024,
) -> list[RelativisticRoot]:
    """All residual roots in the bracket, refined by bisection.

    NaN (complex-domain) segments subdivide the scan; sign changes
    between finite neighbors are refined.  A bracket whose every sample
    is off-domain raises DomainError; a fully real bracket with no sign
    change raises BracketError (empty result).  Roots sitting on either
    mass shell E = +/-M are flagged, since the published validity
    remarks prune one shell per symmetry.
    """
    if symmetry not in _SYMMETRIES:
        raise DomainError(f"symmetry must be one of {_SYMMETRIES}, got {symmetry!r}")
    if n is not None:
        ctx = DiracContext(
            M=ctx.M, kappa=ctx.kappa, n=n, cps=ctx.cps, cs=ctx.cs, hbar_c=ctx.hbar_c
        )
    residual = pspin_residual if symmetry == "pspin" else spin_residual
    if bracket is None:
        span = abs(ctx.M)
        bracket = (-ctx.M - span, ctx.M + span)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise DomainError(f"empty energy bracket ({lo!r}, {hi!r})")
    f = lambda x: residual(x, ctx, pot)
    vals = [f(x) for x in uniform_grid(lo, hi, grid + 1).tolist()]
    if all(math.isnan(v) for v in vals):
        raise DomainError("residual is complex on the entire bracket")
    xtol = tol * max(1.0, abs(lo), abs(hi))
    roots: list[RelativisticRoot] = []
    for a, b, fa, fb in sign_change_brackets(vals, lo, hi, grid + 1):
        hit = a if a == b else bisect(f, a, b, xtol=xtol, fab=(fa, fb))
        if roots and abs(hit - roots[-1].E) <= 4.0 * xtol:
            continue
        flags = set()
        shell_tol = 1e-8 * max(1.0, ctx.M)
        if abs(hit - ctx.M) <= shell_tol:
            flags.add(FLAG_NEAR_PLUS_M)
        if abs(hit + ctx.M) <= shell_tol:
            flags.add(FLAG_NEAR_MINUS_M)
        roots.append(
            RelativisticRoot(
                n=ctx.n,
                kappa=ctx.kappa,
                E=hit,
                symmetry=symmetry,
                bracket_used=(lo, hi),
                residual=f(hit),
                flags=frozenset(flags),
            )
        )
    if not roots:
        raise BracketError(
            f"no {symmetry} level with n={ctx.n}, kappa={ctx.kappa} in ({lo!r}, {hi!r})"
        )
    return roots


_SPECIAL_KINDS = (
    "swave_pspin",
    "swave_spin",
    "reflectionless_pspin",
    "reflectionless_spin",
    "hyperbolic_mpt_pspin",
    "hyperbolic_mpt_spin",
)


def special_case_residual(
    kind: str,
    e: float,
    *,
    m: float,
    n: int,
    alpha: float = 1.0,
    a: float = 0.0,
    b: float = 0.0,
    eta: float = 0.0,
    hbar_c: float = 1.0,
) -> float:
    """Published reduced energy conditions, transcribed independently.

    Each kind is written from its own printed formula (not by
    substituting into the general residuals), so pointwise agreement
    with pspin_residual/spin_residual under the documented parameter
    specializations is a genuine two-route check:

      swave_*            kappa = +/-1 with the symmetry constant zero
      reflectionless_*   additionally B = 0, A = -eta(eta+1)/2
      hyperbolic_mpt_*   alpha = hbar_c = 1, B = 0, A = 1/4 - eta^2

    Returns NaN where the square root goes complex.
    """
    if kind not in _SPECIAL_KINDS:
        raise DomainError(f"kind must be one of {_SPECIAL_KINDS}, got {kind!r}")
    if n < 0:
        raise DomainError(f"level index must be >= 0, got {n}")
    ae2 = (alpha * hbar_c) ** 2
    if kind == "swave_pspin":
        t = m - e
        arg1 = 1.0 + 4.0 * a * t / ae2
        arg2 = 1.0 - 4.0 * b * t / ae2
        if arg1 < 0.0 or arg2 < 0.0:
            return _NAN
        bracket = n + 0.5 + 0.25 * math.sqrt(arg1) - 0.25 * math.sqrt(arg2)
    elif kind == "swave_spin":
        t = m + e
        arg1 = 1.0 - 4.0 * a * t / ae2
        arg2 = 1.0 + 4.0 * b * t / ae2
        if arg1 < 0.0 or arg2 < 0.0:
            return _NAN
        bracket = n + 0.5 + 0.25 * math.sqrt(arg1) - 0.25 * math.sqrt(arg2)
    elif kind == "reflectionless_pspin":
        arg = 1.0 - (2.0 * eta * (eta + 1.0) / ae2) * (m - e)
        if arg < 0.0:
            return _NAN
        bracket = n + 0.25 + 0.25 * math.sqrt(arg)
    elif kind == "reflectionless_spin":
        arg = 1.0 + (2.0 * eta * (eta + 1.0) / ae2) * (m + e)
        if arg < 0.0:
            return _NAN
        bracket = n + 0.25 + 0.25 * math.sqrt(arg)
    elif kind == "hyperbolic_mpt_pspin":
        if alpha != 1.0 or hbar_c != 1.0:
            raise DomainError("the symmetric hyperbolic case is printed for alpha = hbar = 1")
        arg = 1.0 + (1.0 - 4.0 * eta * eta) * (m - e)
        if arg < 0.0:
            return _NAN
        bracket = n + 0.25 + 0.25 * math.sqrt(arg)
    else:
        if alpha != 1.0 or hbar_c != 1.0:
            raise DomainError("the symmetric hyperbolic case is printed for alpha = hbar = 1")
        arg = 1.0 - (1.0 - 4.0 * eta * eta) * (m + e)
        if arg < 0.0:
            return _NAN
        bracket = n + 0.25 + 0.25 * math.sqrt(arg)
    return m * m - e * e - 4.0 * ae2 * bracket * bracket


def nr_limit_energy(mu: float, pot: PTPotential, n: int, l: int) -> float:
    """Nonrelativistic limit of the spin condition (hbar = 1 units).

    E = (2 alpha^2 / mu) [ l(l+1) d0 - (n + 1/2
        + (1/4) sqrt(1 - 8 mu A/alpha^2)
        - (1/4) sqrt((2l+1)^2 + 8 mu B/alpha^2) )^2 ]
    """
    if n < 0 or l < 0:
        raise DomainError("quantum numbers must be >= 0")
    if not mu > 0.0:
        raise DomainError(f"mass parameter must be positive, got {mu!r}")
    alpha2 = pot.alpha**2
    arg1 = 1.0 - 8.0 * mu * pot.A / alpha2
    arg2 = (2.0 * l + 1.0) ** 2 + 8.0 * mu * pot.B / alpha2
    if arg1 < 0.0 or arg2 < 0.0:
        raise DomainError("square-root argument negative in the limit formula")
    bracket = n + 0.5 + 0.25 * math.sqrt(arg1) - 0.25 * math.sqrt(arg2)
    return (2.0 * alpha2 / mu) * (l * (l + 1) * D0 - bracket * bracket)


def reflectionless_nr_energy(mu: float, alpha: float, eta: float, n: int) -> float:
    """E_n = -(2 alpha^2/mu) [n + 1/4 + (1/4) sqrt(1 + 4 mu eta(eta+1)/alpha^2)]^2."""
    if n < 0:
        raise DomainError(f"level index must be >= 0, got {n}")
    arg = 1.0 + 4.0 * mu * eta * (eta + 1.0) / alpha**2
    if arg < 0.0:
        raise DomainError("square-root argument negative")
    bracket = n + 0.25 + 0.25 * math.sqrt(arg)
    return -(2.0 * alpha**2 / mu) * bracket * bracket


def symmetric_nr_energy(mu: float, eta: float, n: int) -> float:
    """E_n = -(2/mu) [n + 1/4 + (1/4) sqrt(1 - 2 mu (1 - 4 eta^2))]^2."""
    if n < 0:
        raise DomainError(f"level index must be >= 0, got {n}")
    arg = 1.0 - 2.0 * mu * (1.0 - 4.0 * eta * eta)
    if arg < 0.0:
        raise DomainError("square-root argument negative")
    bracket = n + 0.25 + 0.25 * math.sqrt(arg)
    return -(2.0 / mu) * bracket * bracket


_COMPONENTS = ("upper", "lower")


def spinor_wavefunction(
    component: str,
    ctx: DiracContext,
    pot: PTPotential,
    e: float,
    r: float,
) -> float:
    """Unnormalized spinor component at radius r for a level of energy e.

    component="lower" evaluates the pseudospin-sector G, "upper" the
    spin-sector F; both follow the printed closed form

        poch(2 beta2 + 1/2, n) cosh^{2 beta2}(alpha r)
            * sinh^{2 gamma2}(alpha r)
            * 2F1(-n, 2(beta2 + gamma2) + n; 2 beta2 + 1/2; sinh^2(alpha r))

    with the Gamma-function ratio expressed as a rising factorial and
    the exponents taken from the matching parameter set.
    """
    if component not in _COMPONENTS:
        raise DomainError(f"component must be one of {_COMPONENTS}, got {component!r}")
    if not r > 0.0:
        raise DomainError(f"radius must be positive, got {r!r}")
    params = tilde_params(e, ctx, pot) if component == "lower" else plain_params(e, ctx, pot)
    if 2.0 * params.gamma2 < 0.0 and r < 1e-8 / abs(pot.alpha):
        raise DomainError(
            "divergent-exponent branch evaluated inside the origin cutoff"
        )
    x = abs(pot.alpha) * r
    sh = math.sinh(x)
    c = 2.0 * params.beta2 + 0.5
    bparam = 2.0 * (params.beta2 + params.gamma2) + ctx.n
    poly = hyp2f1_terminating(ctx.n, bparam, c, sh * sh)
    prefactor = pochhammer(c, ctx.n)
    return (
        prefactor
        * math.cosh(x) ** (2.0 * params.beta2)
        * sh ** (2.0 * params.gamma2)
        * poly
    )
