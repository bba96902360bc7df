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
E -> -E, kappa -> kappa + 1, Cps -> -Cs.  A context carries one symmetry
constant, c_shift, read as Cps by the pseudospin routines and as Cs by
the spin ones.  The spin condition is transcribed once (its plain and
gap-variable forms share it); the spin-side exponent parameters are the
pseudospin ones taken through the map.  Energies enter the square
roots, so parts of the E axis make the residual complex; those segments
are marked with NaN and excluded from root scans rather than patched.

Everything defaults to natural units (hbar = c = 1); passing hbar_c in
eV*Angstrom reuses the nonrelativistic constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import (
    BracketError, DomainError, OverflowRangeError, require_bracket, require_choice,
    require_finite, require_index, require_normal_square, require_positive, within_range,
)
from .rootfind import bisect, sign_change_brackets, uniform_grid
from .schrodinger import D0, PTPotential, _discriminant_root, _hyperbolic_amplitude
from .specfun import pochhammer

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
    """Mass, quantum numbers, and the one symmetry constant for a solve.

    c_shift is Sigma = Cps to the pseudospin routines and Delta = Cs to
    the spin ones.  hbar_c = 1 keeps natural units.
    """

    M: float
    kappa: int
    n: int
    c_shift: float = 0.0
    hbar_c: float = 1.0

    def __post_init__(self):
        require_index(abs(self.kappa), "|kappa|", 1)
        require_index(self.n, "level index")
        # Stored as floats, once, as in schrodinger.PTPotential.
        object.__setattr__(self, "M", require_positive(self.M, "M"))
        object.__setattr__(self, "hbar_c", require_positive(self.hbar_c, "hbar_c"))
        object.__setattr__(self, "c_shift", require_finite(self.c_shift, "c_shift"))


@dataclass(frozen=True)
class RelativisticRoot:
    """A level of solve_levels: its energy, the residual there, and
    mass-shell flags."""

    E: float
    residual: float
    flags: frozenset


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


def _reflected(pot: PTPotential) -> PTPotential:
    return PTPotential(A=-pot.A, B=-pot.B, alpha=pot.alpha)


def _pspin_kernel(m, kappa, n, cps, hbar_c, pot):
    """The pseudospin residual as a function of E, NaN off-domain, with
    (alpha hbar_c)^2 checked and each term free of E formed once, when it
    is built.  kappa enters only through (2k-1)^2 and k(k-1), so the
    exchange map's formal k = 0, which no context may hold, is evaluable."""
    ae2 = require_normal_square(pot.alpha * hbar_c, "(alpha hbar_c)")
    four_a, four_b, k2, half = 4.0 * pot.A, 4.0 * pot.B, (2.0 * kappa - 1.0) ** 2, n + 0.5
    angular, four_ae2 = D0 * kappa * (kappa - 1), 4.0 * ae2

    def residual(e):
        t = m - e + cps
        arg1, arg2 = 1.0 + four_a * t / ae2, k2 - four_b * t / ae2
        if arg1 < 0.0 or arg2 < 0.0:
            return _NAN
        bracket = half + 0.25 * math.sqrt(arg1) - 0.25 * math.sqrt(arg2)
        return four_ae2 * (angular - bracket * bracket) + (m + e) * t
    return residual


def _spin_kernel(m, k, n, cs, hbar_c, pot, shifted=False):
    """The spin residual as a function of E (of the gap W = E - M when
    shifted), NaN off-domain; checked and formed as _pspin_kernel."""
    ae2 = require_normal_square(pot.alpha * hbar_c, "(alpha hbar_c)")
    four_a, four_b, k2, half = 4.0 * pot.A, 4.0 * pot.B, (2.0 * k + 1.0) ** 2, n + 0.5
    angular, four_ae2, base = D0 * k * (k + 1), 4.0 * ae2, (2.0 * m if shifted else m)

    def residual(e):
        # t = M + E - Cs and gap = M - E, as exact as the variable allows
        t, gap = base + e - cs, (-e if shifted else m - e)
        arg1, arg2 = 1.0 - four_a * t / ae2, k2 + four_b * t / ae2
        if arg1 < 0.0 or arg2 < 0.0:
            return _NAN
        bracket = half + 0.25 * (math.sqrt(arg1) - math.sqrt(arg2))
        return four_ae2 * (angular - bracket * bracket) + gap * t
    return residual


def pspin_residual(e: float, ctx: DiracContext, pot: PTPotential) -> float:
    """Left-hand side of the pseudospin energy condition; NaN off-domain."""
    return _pspin_kernel(ctx.M, ctx.kappa, ctx.n, ctx.c_shift, ctx.hbar_c, pot)(e)


def spin_residual(e: float, ctx: DiracContext, pot: PTPotential) -> float:
    """Left-hand side of the spin energy condition; NaN off-domain."""
    return _spin_kernel(ctx.M, ctx.kappa, ctx.n, ctx.c_shift, ctx.hbar_c, pot)(e)


def spin_residual_shifted(w: float, ctx: DiracContext, pot: PTPotential) -> float:
    """Spin condition in the gap variable W = E - M.

    Algebraically identical to spin_residual(M + W), but (M - E) is
    carried as -W exactly, so the near-rest-mass regime W << M keeps
    full precision instead of losing it to cancellation.
    """
    kernel = _spin_kernel(ctx.M, ctx.kappa, ctx.n, ctx.c_shift, ctx.hbar_c, pot, shifted=True)
    return kernel(w)


def spin_residual_via_map(e: float, ctx: DiracContext, pot: PTPotential) -> float:
    """Spin residual obtained from the pseudospin one by the exchange map

    V -> -V, E -> -E, kappa -> kappa + 1, Cps -> -Cs.

    Pointwise equality with spin_residual is a correctness check on the
    transcription of both conditions.  kappa = -1 maps to the formal
    kappa = 0, which the pseudospin kernel accepts.
    """
    kernel = _pspin_kernel(ctx.M, ctx.kappa + 1, ctx.n, -ctx.c_shift, ctx.hbar_c, _reflected(pot))
    return kernel(-e)


def _tilde_params_raw(e, m, k, cps, ae2, pot):
    # Like _pspin_kernel, evaluable at the formal k = 0 of the map.
    s = e - m - cps
    a3 = s * pot.A / ae2
    b3 = s * pot.B / ae2 + k * (k - 1)
    k3 = 4.0 * k * (k - 1) * D0 + (m - e + cps) * (m + e) / ae2
    beta2 = 0.25 * (1.0 - _discriminant_root(1.0 - 4.0 * a3, "exponent a3"))
    gamma2 = 0.25 * (1.0 - _discriminant_root(1.0 + 4.0 * b3, "exponent b3"))
    if not all(map(math.isfinite, (a3, b3, k3, gamma2, beta2))):
        raise OverflowRangeError("symmetry parameters exceed the double range")
    return SymmetryParams(a3=a3, b3=b3, k3=k3, gamma2=gamma2, beta2=beta2)


def tilde_params(e: float, ctx: DiracContext, pot: PTPotential) -> SymmetryParams:
    """Pseudospin-side scaled parameters and exponents at energy e."""
    require_finite(e, "energy")
    ae2 = require_normal_square(pot.alpha * ctx.hbar_c, "(alpha hbar_c)")
    return _tilde_params_raw(e, ctx.M, ctx.kappa, ctx.c_shift, ae2, pot)


def plain_params(e: float, ctx: DiracContext, pot: PTPotential) -> SymmetryParams:
    """Spin-side scaled parameters and exponents at energy e: the
    pseudospin ones through the exchange map, bit for bit a direct
    transcription's but for the sign of a zero a3 (where E + M = Cs).
    """
    require_finite(e, "energy")
    ae2 = require_normal_square(pot.alpha * ctx.hbar_c, "(alpha hbar_c)")
    return _tilde_params_raw(-e, ctx.M, ctx.kappa + 1, -ctx.c_shift, ae2, _reflected(pot))


_SYMMETRIES = ("pspin", "spin")
# Cells of the residual scan over the energy bracket.
SCAN_CELLS = 1024


def solve_levels(
    ctx: DiracContext,
    pot: PTPotential,
    symmetry: str,
    bracket: Optional[tuple[float, float]] = None,
    *,
    tol: float = 1e-12,
) -> list[RelativisticRoot]:
    """All residual roots in the bracket, refined by bisection.

    NaN (complex-domain) segments subdivide the scan; sign changes
    between finite neighbors are refined.  A non-finite or empty
    bracket, or one whose every sample is off-domain, raises DomainError;
    a fully real bracket with no sign change raises BracketError (empty
    result), and a root whose residual is not finite OverflowRangeError.
    Roots sitting on either mass shell E = +/-M are flagged, since the
    published validity remarks prune one shell per symmetry.
    """
    require_choice(symmetry, _SYMMETRIES, "symmetry")
    require_positive(tol, "tolerance")
    if bracket is None:
        span = abs(ctx.M)
        bracket = (-ctx.M - span, ctx.M + span)
    lo, hi = require_bracket(bracket, "energy bracket")
    xs = uniform_grid(lo, hi, SCAN_CELLS + 1)
    kernel = _pspin_kernel if symmetry == "pspin" else _spin_kernel
    f = kernel(ctx.M, ctx.kappa, ctx.n, ctx.c_shift, ctx.hbar_c, pot)
    vals = [f(x) for x in xs]
    if all(map(math.isnan, vals)):
        raise DomainError("residual is complex on the entire bracket")
    xtol = tol * max(1.0, abs(lo), abs(hi))
    roots: list[RelativisticRoot] = []
    for a, b, fa, fb in sign_change_brackets(xs, vals):
        hit = bisect(f, a, b, xtol=xtol, fab=(fa, fb))
        if roots and abs(hit - roots[-1].E) <= 4.0 * xtol:
            continue
        flags = set()
        shell_tol = 1e-8 * max(1.0, ctx.M)
        if abs(hit - ctx.M) <= shell_tol:
            flags.add(FLAG_NEAR_PLUS_M)
        if abs(hit + ctx.M) <= shell_tol:
            flags.add(FLAG_NEAR_MINUS_M)
        value = within_range(f(hit), f"{symmetry} residual at E={hit!r}")
        roots.append(RelativisticRoot(E=hit, residual=value, flags=frozenset(flags)))
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

    Returns NaN where the square root goes complex; OverflowRangeError past the range.
    """
    require_choice(kind, _SPECIAL_KINDS, "kind")
    require_index(n, "level index")
    for what, value in (
        ("e", e), ("m", m), ("a", a), ("b", b), ("eta", eta), ("alpha", alpha), ("hbar_c", hbar_c),
    ):
        require_finite(value, what)
    ae2 = require_normal_square(alpha * hbar_c, "(alpha hbar_c)")
    if kind.startswith("hyperbolic_mpt") and (alpha != 1.0 or hbar_c != 1.0):
        raise DomainError("the symmetric hyperbolic case is printed for alpha = hbar = 1")
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
        arg = 1.0 + (1.0 - 4.0 * eta * eta) * (m - e)
        if arg < 0.0:
            return _NAN
        bracket = n + 0.25 + 0.25 * math.sqrt(arg)
    else:
        arg = 1.0 - (1.0 - 4.0 * eta * eta) * (m + e)
        if arg < 0.0:
            return _NAN
        bracket = n + 0.25 + 0.25 * math.sqrt(arg)
    return within_range(m * m - e * e - 4.0 * ae2 * bracket * bracket, "special-case residual")


def nr_limit_energy(mu: float, pot: PTPotential, n: int, l: int) -> float:
    """Nonrelativistic limit of the spin condition (hbar = 1 units).

    E = (2 alpha^2 / mu) [ l(l+1) d0 - (n + 1/2
        + (1/4) sqrt(1 - 8 mu A/alpha^2)
        - (1/4) sqrt((2l+1)^2 + 8 mu B/alpha^2) )^2 ]
    """
    require_index(n, "level index")
    require_index(l, "angular momentum")
    require_positive(mu, "mass parameter")
    alpha2 = pot.alpha**2
    arg1 = 1.0 - 8.0 * mu * pot.A / alpha2
    arg2 = (2.0 * l + 1.0) ** 2 + 8.0 * mu * pot.B / alpha2
    root1 = _discriminant_root(arg1, "well-depth")
    root2 = _discriminant_root(arg2, "core-strength")
    bracket = n + 0.5 + 0.25 * root1 - 0.25 * root2
    return within_range(
        (2.0 * alpha2 / mu) * (l * (l + 1) * D0 - bracket * bracket), "NR-limit energy"
    )


def reflectionless_nr_energy(mu: float, alpha: float, eta: float, n: int) -> float:
    """E_n = -(2 alpha^2/mu) [n + 1/4 + (1/4) sqrt(1 + 4 mu eta(eta+1)/alpha^2)]^2."""
    require_index(n, "level index")
    require_positive(mu, "mass parameter")
    require_finite(eta, "eta")
    alpha2 = require_normal_square(alpha, "alpha")
    arg = 1.0 + 4.0 * mu * eta * (eta + 1.0) / alpha2
    bracket = n + 0.25 + 0.25 * _discriminant_root(arg, "reflectionless")
    return within_range(-(2.0 * alpha2 / mu) * bracket * bracket, "reflectionless energy")


def symmetric_nr_energy(mu: float, eta: float, n: int) -> float:
    """E_n = -(2/mu) [n + 1/4 + (1/4) sqrt(1 - 2 mu (1 - 4 eta^2))]^2."""
    require_index(n, "level index")
    require_positive(mu, "mass parameter")
    require_finite(eta, "eta")
    arg = 1.0 - 2.0 * mu * (1.0 - 4.0 * eta * eta)
    bracket = n + 0.25 + 0.25 * _discriminant_root(arg, "symmetric-case")
    return within_range(-(2.0 / mu) * bracket * bracket, "symmetric-case energy")


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
    the exponents taken from the matching parameter set.  Errors follow
    schrodinger._hyperbolic_amplitude.
    """
    require_choice(component, _COMPONENTS, "component")
    params = tilde_params(e, ctx, pot) if component == "lower" else plain_params(e, ctx, pot)
    c = 2.0 * params.beta2 + 0.5
    return _hyperbolic_amplitude(
        pot.alpha, r, ctx.n, 2.0 * params.beta2, 2.0 * params.gamma2,
        2.0 * (params.beta2 + params.gamma2) + ctx.n, c, lambda sh: sh * sh,
        pochhammer(c, ctx.n),
    )
