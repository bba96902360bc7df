"""Bound states of the hyperbolic two-term potential.

The potential is V(r) = A/cosh^2(alpha r) + B/sinh^2(alpha r) on r > 0,
with an attractive well A < 0 and repulsive core B > 0 in the cases of
physical interest.  For l > 0 the centrifugal term is approximated by
1/r^2 ~ alpha^2 [4 d0 + 1/sinh^2(alpha r)], d0 = 1/12, which folds the
angular momentum into a shifted core strength B1 and an additive energy
offset.  The reduced problem

    u'' + [K1 - A1/cosh^2(alpha r) - B1/sinh^2(alpha r)] u = 0
    A1 = 2 mu A / hbar^2,  B1 = 2 mu B / hbar^2 + l(l+1) alpha^2
    K1 = 2 mu E / hbar^2 - 4 l(l+1) alpha^2 d0

is solved by u = cosh^gamma * sinh^beta * F with exponents

    gamma = (1 +/- sqrt(1 - 4 A1/alpha^2)) / 2
    beta  = (1 -/+ sqrt(1 + 4 B1/alpha^2)) / 2

and quantization K1 = -alpha^2 (gamma + beta + 2n)^2.  Two sign choices
circulate: the "paper" pair (gamma+, beta-) underlying the published
closed-form energy, and the "regular" pair (gamma-, beta+) whose radial
functions are finite at the origin and square-integrable.  Both are
implemented; an independent shooting solver (see oracle) shows the
regular pair carries the true bound spectrum, and the disagreement is
surfaced rather than hidden.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .aim import AimProblem
from .errors import (
    DomainError, OverflowRangeError, require_choice, require_finite, require_index,
    require_normal_square, require_positive, within_range,
)
from .jets import jet_mul, jet_reciprocal
from .oracle import RadialProblem
from .specfun import hyp2f1_terminating, pochhammer

__all__ = [
    "D0",
    "HBARC_EV_ANG",
    "LevelCount",
    "NRContext",
    "PTPotential",
    "SpectralParams",
    "centrifugal_approx_residual",
    "energy_from_k1",
    "energy_nr",
    "k1_from_energy",
    "level_count",
    "potential_value",
    "pt_aim_problem",
    "pt_radial_problem",
    "spectral_params",
    "wavefunction_nr",
]

D0 = 1.0 / 12.0
HBARC_EV_ANG = 1973.29

_BRANCHES = ("paper", "regular")

# Points on the first shooting mesh of pt_radial_problem.
_SHOOT_NPTS = 4001


@dataclass(frozen=True)
class PTPotential:
    """Two-term hyperbolic potential: A/cosh^2(alpha r) + B/sinh^2(alpha r).

    A and B carry energy units, alpha inverse length.  A < 0 with B >= 0
    is the physically expected shape; other signs are legal (special
    cases set B = 0, the pseudospin map flips both).  Every routine
    depends on alpha only through even combinations or |alpha|, so the
    sign of alpha is immaterial; alpha**2 must be a normal double.
    """

    A: float
    B: float
    alpha: float

    def __post_init__(self):
        alpha = require_positive(abs(self.alpha), "|alpha|")
        # Stored as floats, once: numpy scalars would reach every power
        # downstream, where numpy warns before a range check raises.
        object.__setattr__(self, "A", require_finite(self.A, "A"))
        object.__setattr__(self, "B", require_finite(self.B, "B"))
        object.__setattr__(self, "alpha", float(self.alpha))
        # Every closed-form route divides by alpha**2.
        require_normal_square(alpha, "alpha")


@dataclass(frozen=True)
class NRContext:
    """Reduced mass and unit constants for the nonrelativistic problem.

    mu is the reduced mass in energy units (e.g. eV via amu conversion),
    hbar_c the conversion constant in energy*length (1973.29 eV*Angstrom
    by default; 1.0 recovers natural units).  The centrifugal
    approximation constant is the module constant D0 = 1/12.
    """

    mu: float
    hbar_c: float = HBARC_EV_ANG

    def __post_init__(self):
        # Stored as floats, once, as in PTPotential.
        object.__setattr__(self, "mu", require_positive(self.mu, "reduced mass"))
        object.__setattr__(self, "hbar_c", require_positive(self.hbar_c, "hbar_c"))
        # Every closed-form route divides by hbar_c**2.
        hbar_c2 = require_normal_square(self.hbar_c, "hbar_c")
        if not sys.float_info.min <= 2.0 * self.mu / hbar_c2 < math.inf:
            raise DomainError(
                f"2 mu / hbar_c**2 must be a normal double, got mu={self.mu!r}, "
                f"hbar_c={self.hbar_c!r}"
            )

    @classmethod
    def natural(cls, mu: float) -> "NRContext":
        return cls(mu=mu, hbar_c=1.0)


@dataclass(frozen=True)
class SpectralParams:
    """Exponent pair and scaled strengths for one (potential, l, branch)."""

    alpha: float
    a1: float
    b1: float
    gamma: float
    beta: float

    def k1(self, n: int) -> float:
        """Quantized scaled energy K1 = -alpha^2 (gamma + beta + 2n)^2."""
        require_index(n, "level index")
        s = self.gamma + self.beta + 2.0 * n
        return within_range(-(self.alpha**2) * s * s, "K1")

    def bound_possible(self, n: int) -> bool:
        """Decay at infinity needs gamma + beta + 2n < 0 (regular pair)."""
        return self.gamma + self.beta + 2.0 * n < 0.0


class LevelCount(NamedTuple):
    """Result of the bound-level count: zeta and n_max = floor(zeta), or 0."""

    zeta: float
    n_max: int


def potential_value(pot: PTPotential, r: float) -> float:
    """V(r) for r > 0; at r = 0 only the B = 0 case is finite.  A core
    term past the double range raises OverflowRangeError."""
    r = require_finite(r, "radius")
    if r < 0.0:
        raise DomainError(f"radius must be nonnegative and finite, got {r!r}")
    if r == 0.0:
        if pot.B != 0.0:
            raise DomainError("potential is singular at r = 0 when B != 0")
        return pot.A
    a = abs(pot.alpha)
    x = a * r
    if x > 355.0:  # cosh^2 and sinh^2 overflow; V = 16 s exp(-2x), formed in logs
        s = 0.25 * pot.A + 0.25 * pot.B
        return math.copysign(math.exp(math.log(abs(s)) + math.log(16.0) - 2.0 * x), s) if s else s
    sh2 = math.sinh(x) ** 2  # where it is not a normal double, sinh x = x
    core = pot.B / sh2 if sh2 >= sys.float_info.min else pot.B / a / r / a / r
    return within_range(pot.A / math.cosh(x) ** 2 + core, f"potential at r={r!r}")


def centrifugal_approx_residual(l: int, alpha: float, r: float) -> float:
    """Error of the centrifugal substitution, per unit l(l+1) alpha^2.

    Returns 1/(alpha r)^2 - [4 d0 + 1/sinh^2(alpha r)], even in alpha.  The
    limit at alpha r -> 0 is exactly 0; the leading behavior is -(alpha r)^2/15,
    so the substitution is only trustworthy for small alpha r.
    """
    require_index(l, "angular momentum", 1)
    require_finite(alpha, "alpha")
    require_positive(r, "radius")
    x = abs(alpha) * r
    if x < 0.1:
        # Direct evaluation loses all significant digits here; use the
        # Laurent tail of 1/sinh^2, which is at machine accuracy for
        # x < 0.1.
        x2 = x * x
        return x2 * (-1.0 / 15.0 + x2 * (2.0 / 189.0 - x2 / 675.0))
    # past x = 355, where sinh^2 overflows, 1/sinh^2 is far below an ulp of the rest
    return 1.0 / (x * x) - 4.0 * D0 - (1.0 / math.sinh(x) ** 2 if x < 355.0 else 0.0)


def _scaled_strengths(pot: PTPotential, ctx: NRContext, l: int) -> tuple[float, float]:
    require_index(l, "angular momentum")
    two_mu = 2.0 * ctx.mu / ctx.hbar_c**2
    a1 = two_mu * pot.A
    b1 = two_mu * pot.B + l * (l + 1) * pot.alpha**2
    return a1, b1


def spectral_params(
    pot: PTPotential, ctx: NRContext, l: int, branch: str = "paper"
) -> SpectralParams:
    """Exponents (gamma, beta) for the chosen sign branch.

    "paper" selects (gamma+, beta-): the combination behind the
    published energy formula.  "regular" selects (gamma-, beta+): the
    origin-regular, normalizable combination the shooting solver
    confirms as the actual bound spectrum.
    """
    require_choice(branch, _BRANCHES, "branch")
    a1, b1 = _scaled_strengths(pot, ctx, l)
    alpha2 = pot.alpha**2
    root_g = _discriminant_root(1.0 - 4.0 * a1 / alpha2, "well-depth")
    root_b = _discriminant_root(1.0 + 4.0 * b1 / alpha2, "core-strength")
    within_range(root_g + root_b, "sum of the exponent roots")
    if branch == "paper":
        gamma = 0.5 * (1.0 + root_g)
        beta = 0.5 * (1.0 - root_b)
    else:
        gamma = 0.5 * (1.0 - root_g)
        beta = 0.5 * (1.0 + root_b)
    return SpectralParams(alpha=pot.alpha, a1=a1, b1=b1, gamma=gamma, beta=beta)


def _discriminant_root(disc: float, what: str) -> float:
    """sqrt(disc) of an exponent discriminant; DomainError when negative."""
    if disc < 0.0:
        raise DomainError(f"{what} discriminant negative: {disc!r}")
    return math.sqrt(disc)


def _square(x: float) -> float:
    """x**2, or inf where a float's ** raises OverflowError instead."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _centrifugal_offset(l: int, alpha: float) -> float:
    return 4.0 * l * (l + 1) * _square(alpha) * D0 if l else 0.0


def k1_from_energy(ctx: NRContext, alpha: float, l: int, energy: float) -> float:
    """Scaled energy: K1 = 2 mu E / hbar^2 - 4 l(l+1) alpha^2 d0."""
    require_index(l, "angular momentum")
    require_finite(alpha, "alpha")
    require_finite(energy, "energy")
    k1 = 2.0 * ctx.mu * energy / ctx.hbar_c**2 - _centrifugal_offset(l, alpha)
    return within_range(k1, "K1")


def energy_from_k1(ctx: NRContext, alpha: float, l: int, k1: float) -> float:
    require_index(l, "angular momentum")
    require_finite(alpha, "alpha")
    require_finite(k1, "k1")
    energy = (ctx.hbar_c**2 / (2.0 * ctx.mu)) * (k1 + _centrifugal_offset(l, alpha))
    return within_range(energy, "energy")


def energy_nr(
    pot: PTPotential, ctx: NRContext, n: int, l: int, branch: str = "paper"
) -> float:
    """Closed-form level via the published bracket expression.

    E = (2 alpha^2 hbar^2 / mu) [ l(l+1) d0 - (n + 1/2
        + (1/4) sqrt(1 - 8 mu A/(alpha hbar)^2)
        - (1/4) sqrt((2l+1)^2 + 8 mu B/(alpha hbar)^2) )^2 ]

    branch="regular" flips the signs of both square roots, matching the
    origin-regular exponent pair.  The value is computed directly from
    this expression (not through SpectralParams) so the algebraic
    equivalence with the quantized K1 route stays an actual test.
    """
    require_choice(branch, _BRANCHES, "branch")
    require_index(n, "level index")
    require_index(l, "angular momentum")
    ah = require_normal_square(pot.alpha * ctx.hbar_c, "(alpha hbar_c)")
    disc_a = 1.0 - 8.0 * ctx.mu * pot.A / ah
    disc_b = (2.0 * l + 1.0) ** 2 + 8.0 * ctx.mu * pot.B / ah
    for disc in (disc_a, disc_b):
        if disc < 0.0:
            raise DomainError(f"square-root argument negative: {disc!r}")
    sign = 1.0 if branch == "paper" else -1.0
    bracket = n + 0.5 + sign * 0.25 * (math.sqrt(disc_a) - math.sqrt(disc_b))
    scale = 2.0 * pot.alpha**2 * ctx.hbar_c**2 / ctx.mu
    return within_range(scale * (l * (l + 1) * D0 - bracket * bracket), "energy")


def level_count(pot: PTPotential, ctx: NRContext, l: int) -> LevelCount:
    """Bound-level budget zeta and n_max = floor(zeta).

    zeta = (1/4) sqrt(1 + 8 mu B/(alpha hbar)^2)
         - (1/4) sqrt(1 - 8 mu A/(alpha hbar)^2)
         - 1/2 + sqrt(l(l+1) d0)

    as printed in the source formula; note the l-dependence enters only
    through the last term here, unlike the energy bracket.  zeta <= 0
    (no bound level predicted by the count) reports n_max = 0.
    """
    require_index(l, "angular momentum")
    ah = require_normal_square(pot.alpha * ctx.hbar_c, "(alpha hbar_c)")
    disc_a = 1.0 - 8.0 * ctx.mu * pot.A / ah
    disc_b = 1.0 + 8.0 * ctx.mu * pot.B / ah
    zeta = within_range(
        0.25 * _discriminant_root(disc_b, "core-strength")
        - 0.25 * _discriminant_root(disc_a, "well-depth")
        - 0.5
        + math.sqrt(l * (l + 1) * D0),
        "zeta",
    )
    return LevelCount(zeta, math.floor(zeta) if zeta > 0.0 else 0)


_ARGUMENTS = ("linear", "squared")


def wavefunction_nr(
    pot: PTPotential,
    ctx: NRContext,
    n: int,
    l: int,
    r: float,
    branch: str = "regular",
    argument: str = "linear",
) -> float:
    """Unnormalized radial amplitude u(r) (caller normalizes numerically).

    u = 2^n (-1)^n poch(c, n) cosh^gamma(alpha r) sinh^beta(alpha r)
        * 2F1(-n, beta + gamma + n; c; z)

    argument="linear" evaluates the published form, z = -sinh(alpha r)
    with c = beta + 1.  argument="squared" evaluates z = -sinh^2(alpha r)
    with c = beta + 1/2, the variant that actually solves the radial
    equation (the companion relativistic expressions use the squared
    argument): see the residual diagnostics in the test suite.  The
    branch switch selects the exponent pair as in spectral_params; node
    counts and square-integrability hold on the regular pair.  Errors
    follow _hyperbolic_amplitude.
    """
    require_choice(argument, _ARGUMENTS, "argument")
    require_index(n, "level index")
    params = spectral_params(pot, ctx, l, branch)
    if argument == "linear":
        c, z_of = params.beta + 1.0, lambda sh: -sh
    else:
        c, z_of = params.beta + 0.5, lambda sh: -sh * sh
    try:
        lead = 2.0**n * (-1.0) ** n * pochhammer(c, n)
    except OverflowError:
        raise OverflowRangeError(f"amplitude lead at n={n!r} exceeds the double range") from None
    return _hyperbolic_amplitude(
        pot.alpha, r, n, params.gamma, params.beta, params.beta + params.gamma + n, c, z_of, lead
    )


def _hyperbolic_amplitude(alpha, r, n, cosh_pow, sinh_pow, b, c, z_of, lead):
    """lead cosh^cosh_pow(x) sinh^sinh_pow(x) 2F1(-n, b; c; z_of(sinh x)), x = |alpha| r.

    Every closed-form bound state, Schrodinger and Dirac, is this
    product.  It is formed directly, in that order, when both powers and
    both partial products before the 2F1 value are normal doubles;
    otherwise the four factors are combined in logs with the sign
    carried, so an amplitude that is only tiny comes back as its value
    or 0.0.  A radius that is not positive and finite, or a negative sinh
    exponent inside the origin cutoff r < 1e-8/|alpha|, raises
    DomainError; the 2F1 argument (formed only for n >= 1: 2F1(0, b; c; z)
    is 1) or the amplitude past the double range raises
    OverflowRangeError.
    """
    require_positive(r, "radius")
    if sinh_pow < 0.0 and r < 1e-8 / abs(alpha):
        raise DomainError("divergent-exponent branch evaluated inside the origin cutoff")
    x = abs(alpha) * r
    try:
        sh, ch = math.sinh(x), math.cosh(x)
    except OverflowError:
        sh = ch = math.inf
    z = z_of(sh) if n else 0.0
    if math.isinf(z):
        raise OverflowRangeError(f"2F1 argument at r={r!r} exceeds the double range")
    f = hyp2f1_terminating(n, b, c, z)
    try:
        powers = (ch**cosh_pow, sh**sinh_pow)
    except OverflowError:
        powers = (math.inf, math.inf)
    head = lead * powers[0]
    body = head * powers[1]
    u = body * f
    normal = all(sys.float_info.min <= abs(v) < math.inf for v in (*powers, head, body))
    if not (normal and math.isfinite(u)):
        # log cosh x = log sinh x = x - log 2 where both are past the range
        logs = [_log_abs(lead), _log_abs(f)]
        for p, base in ((cosh_pow, ch), (sinh_pow, sh)):
            if p:
                logs.append(p * (x - math.log(2.0) if base == math.inf else _log_abs(base)))
        try:
            u = math.copysign(math.exp(sum(logs)), lead * f)
        except OverflowError:
            u = math.inf
    if not math.isfinite(u):
        raise OverflowRangeError(f"amplitude at r={r!r} exceeds the double range")
    return u


def _log_abs(v: float) -> float:
    return math.log(abs(v)) if v else -math.inf


def _potential_minimum_z(a1: float, b1: float) -> float:
    # Stationary point of A1/cosh^2 + B1/sinh^2 solves tanh^4 = B1/|A1|;
    # outside the regime where that exists, or where tanh rounds to 0 or
    # 1, fall back to z = 1.
    t = (b1 / -a1) ** 0.25 if a1 < 0.0 and 0.0 < b1 < -a1 else 0.0
    return t / math.sqrt(1.0 - t * t) if 0.0 < t < 1.0 else 1.0


def pt_aim_problem(
    pot: PTPotential,
    ctx: NRContext,
    l: int,
    depth: int,
    branch: str = "paper",
    z0: Optional[float] = None,
) -> AimProblem:
    """Iterative-engine formulation of the reduced radial equation.

    In the variable z = sinh(alpha r) the factored equation reads

        F'' + [((2 gamma + 1) z^2 + 2 beta (z^2 + 1)) / (z (z^2 + 1))] F'
            + [K2 / (alpha^2 (1 + z^2))] F = 0,
        K2 = K1 + alpha^2 (gamma + beta)^2,

    whose coefficients are negated into the canonical y'' = lambda0 y'
    + s0 y convention.  The scan parameter fed to the engine is K1, so
    reported roots compare directly against SpectralParams.k1(n).  The
    expansion point defaults to the potential-minimum abscissa mapped
    to z, falling back to z = 1 when no interior minimum exists.

    The coefficients are built to order ``depth``, all that an iteration
    of that depth reads, with ``jets``' fixed-order products: each order
    comes out with the same bits whatever order the build stops at.
    """
    depth = require_index(depth, "depth", 1)
    params = spectral_params(pot, ctx, l, branch)
    if z0 is None:
        z0 = _potential_minimum_z(params.a1, params.b1)
    z0 = require_positive(z0, "expansion point z0")
    alpha2 = pot.alpha**2
    gb_shift = alpha2 * (params.gamma + params.beta) ** 2
    two_gamma_1 = 2.0 * params.gamma + 1.0
    two_beta = 2.0 * params.beta

    # Taylor coefficients in z - z0.  K1 enters s0 = -K2 / (alpha^2 (1 + z^2))
    # only, through K2 = K1 + gb_shift: -1 / (1 + z^2) times (K1 + gb_shift) / alpha^2.
    # Python floats overflow to inf and NaN without a warning; one check
    # below refuses both.
    z = [z0, 1.0] + [0.0] * (depth - 1)
    z2 = jet_mul(z, z)
    one_p_z2 = [z2[0] + 1.0] + z2[1:]
    num = [c * two_gamma_1 + d * two_beta for c, d in zip(z2, one_p_z2)]
    lam0 = [-c for c in jet_mul(num, jet_reciprocal(jet_mul(z, one_p_z2)))]
    s0 = [-c for c in jet_reciprocal(one_p_z2)]
    if not all(map(math.isfinite, lam0 + s0)):
        raise OverflowRangeError(
            f"Taylor coefficients at the expansion point z0={z0!r} exceed the double range"
        )
    return AimProblem(lambda0=lam0, s0=s0, e_shift=gb_shift, e_scale=alpha2)


# One entry: the previous well's problem, and with it the meshes the
# oracle keeps for it, is freed when the next well's is built.
@functools.lru_cache(maxsize=1, typed=True)
def pt_radial_problem(
    pot: PTPotential,
    ctx: NRContext,
    l: int,
    *,
    centrifugal: str = "approx",
    k1_estimate: Optional[float] = None,
) -> RadialProblem:
    """Shooting-solver formulation of the radial equation, in K1 units.

    The returned problem solves u'' = (w(r) - q) u where q is the scaled
    energy K1 and w = A1/cosh^2 + B1/sinh^2 (centrifugal="approx", the
    reduced form) or w = 2 mu V/hbar^2 + l(l+1)/r^2 with q = 2 mu E/hbar^2
    (centrifugal="exact", the raw form; no d0 offset applies).  Both
    share the origin exponent s = (1 + sqrt(1 + 4 B1/alpha^2))/2.  Each
    mode's origin_w0 and origin_w2 are the r^0 and r^2 terms of its own
    w at the origin, from 1/cosh^2 x = 1 - x^2 + ... and
    1/sinh^2 x = 1/x^2 - 1/3 + x^2/15 - ...

    The integration window ends at r_cut = 40/alpha or, given a negative
    k1_estimate (the deepest level of interest), 32 decay lengths
    1/sqrt(-k1_estimate) past that level's outer turning point (at least
    1/alpha), so the exponential tail neither dominates the mesh nor
    underflows; a k1_estimate so near 0 that this end overflows raises
    DomainError.  It starts at r_min inside the forbidden core, at least
    three first-mesh steps out unless the origin seed would lose accuracy
    there, and the first mesh has 4001 points; a core so strong that r_min
    reaches r_cut raises DomainError too, and an origin_w2 past the
    double range OverflowRangeError.

    A call with the arguments of the call before (equal, and of the same
    types) returns the same problem, so the levels shot on one well
    share the meshes the oracle keeps for it.
    """
    require_choice(centrifugal, ("approx", "exact"), "centrifugal")
    a1, b1 = _scaled_strengths(pot, ctx, l)
    alpha = abs(pot.alpha)
    s_exp = 0.5 * (1.0 + _discriminant_root(1.0 + 4.0 * b1 / alpha**2, "core-strength"))
    if k1_estimate is not None and require_finite(k1_estimate, "k1_estimate") < 0.0:
        kappa = math.sqrt(-k1_estimate)
        turn = 1.0 / alpha
        if a1 < k1_estimate:
            turn = max(turn, math.acosh(math.sqrt(a1 / k1_estimate)) / alpha)
        r_cut = turn + 32.0 / kappa
        if r_cut == math.inf:
            raise DomainError(f"k1_estimate={k1_estimate!r} puts the window end out of range")
    else:
        r_cut = 40.0 / alpha
    if centrifugal == "approx":
        w0 = a1 - b1 / 3.0
        w2 = alpha**2 * (b1 / 15.0 - a1)

        def w(r: float) -> float:
            x = alpha * r
            return a1 / math.cosh(x) ** 2 + b1 / math.sinh(x) ** 2
    else:
        two_mu = 2.0 * ctx.mu / ctx.hbar_c**2
        ll1 = float(l * (l + 1))
        w0 = two_mu * (pot.A - pot.B / 3.0)
        w2 = two_mu * alpha**2 * (pot.B / 15.0 - pot.A)

        def w(r: float) -> float:
            x = alpha * r
            return (
                two_mu * (pot.A / math.cosh(x) ** 2 + pot.B / math.sinh(x) ** 2)
                + ll1 / (r * r)
            )
    # Start inside the forbidden core, but not so deep that the stiff
    # b1/sinh^2 wall breaks the marching stencil: near the origin
    # w ~ (b1/alpha^2)/r^2, so keeping h^2 w(r_min)/12 below ~0.1 on the
    # coarsest mesh needs r_min >= h sqrt(b1/1.2)/alpha.  A weaker core
    # starts three first-mesh steps out, so that u ~ r^s is smooth on the
    # scale of the first steps, but no farther than rho: the seed is a
    # series in r^2 that drops the r^6 term, and that term stays small
    # only while r^2 (|w0 - q| + alpha^2) does.  Without a k1_estimate,
    # q = 0 stands in for the level: it bounds |w0 - q| over every bound
    # level above w0.
    h0 = r_cut / _SHOOT_NPTS
    q = 0.0 if k1_estimate is None else k1_estimate
    rho = math.sqrt(2e-3 / (abs(w0 - q) + alpha**2))
    r_min = max(
        1e-4 / alpha,
        h0 * math.sqrt(max(b1, 0.0) / 1.2) / alpha,
        min(3.0 * h0, rho),
    )
    if not r_min < r_cut:
        raise DomainError(
            f"core strength B1={b1!r} puts the window start r_min={r_min!r} "
            f"at or past its end r_cut={r_cut!r}"
        )
    return RadialProblem(
        w=w, r_min=r_min, r_cut=r_cut, origin_exponent=s_exp, npts=_SHOOT_NPTS,
        origin_w0=w0, origin_w2=within_range(w2, "r^2 term of w at the origin"),
    )
