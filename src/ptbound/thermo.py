"""High-temperature vibrational thermodynamics of the bound spectrum.

The level ladder E_n = (2 alpha^2 hbar^2/mu)[l(l+1) d0 - (n - zeta)^2],
n = 0..floor(zeta), turns the vibrational partition function into a
finite sum of e^{+((n-zeta)/gamma)^2} terms.  The rotational prefactor
exp(-beta*E_rot) is dropped, as the paper drops it for being
approximately 1.  In the classical regime the sum is replaced by

    Z = sqrt(pi) tau erfi(chi) / (2 sqrt(beta)),
    chi = zeta sqrt(beta) / tau,  tau = sqrt(mu/2) / (alpha hbar)

and all derived quantities follow from Z.  Both e^{chi^2} and erfi(chi)
overflow quickly, so U, C, S, F are evaluated through dawson(chi) and
ln(erfi) combinations in which every e^{chi^2} factor cancels
analytically; the small-chi region, where 1 - chi/dawson(chi) loses all
leading digits, switches to series.

thermo_point gives every quantity at one beta, each from its standalone
function.  thermo_table(pairs) is, by contract, the loop
[thermo_point(ctx, beta) for ctx, beta in pairs] over any iterable of
(context, beta) pairs, as a float64 block: one row per pair, the whole
ThermoPoint (beta, chi, Z, U, C, F, S) bit for bit, and the loop's first
error, also one the iterable raises after some pairs.  It draws the
pairs, then evaluates them in one array pass (the erfi series of every
point summed together, each element with the scalar operations in the
scalar order), or, where the pass cannot cover a pair, by that loop.
The tables of the CLI are formatted from the block itself.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (
    DomainError, OverflowRangeError, require_finite, require_index, require_positive, within_range,
)
from .specfun import ERFI_MAX_ARG, _erfi_family_array, dawson, erfi, ln_erfi

__all__ = [
    "ThermoContext",
    "ThermoPoint",
    "chi",
    "entropy",
    "free_energy",
    "log_partition_closed",
    "mean_energy",
    "partition_closed",
    "partition_sum",
    "specific_heat",
    "thermo_point",
    "thermo_table",
]

_LN_SQRTPI_HALF = 0.5 * math.log(math.pi) - math.log(2.0)
_HALF_SQRT_PI = 0.5 * math.sqrt(math.pi)
_LN_PI_4 = math.log(math.pi / 4.0)
_LN2 = math.log(2.0)
_EXP_MAX = 700.0
# Below this chi, 1 - chi/dawson(chi) (U) and C are evaluated by series.
# For U the direct form's rounding error grows as ~chi^-2, and the
# three-term series still has ~1e-12 relative truncation error at the
# cutover; C is worse on both sides (see _specific_heat).
_SERIES_CHI = 0.02
# C = sum_k c_k t^k with t = 1/(2 chi^2), highest order first: the large-chi
# series of the closed form.  With S = 2 chi dawson(chi) = sum_k (2k-1)!! t^k,
# C = 1/2 + (S - 1 - t S) / (4 t^2 S^2).  Past ERFI_MAX_ARG (t < 7.4e-4) the
# orders left out add under 2e-19 to C, which tends to 1.
_C_ASYMPTOTIC = (133884297.0, 6833576.0, 386435.0, 24486.0, 1765.0, 148.0, 15.0, 2.0, 1.0)


@dataclass(frozen=True)
class ThermoContext:
    """Level-count parameter and molecular scale; C and S come out in units of k_B."""

    zeta: float
    tau: float

    def __post_init__(self):
        # Stored as floats, once, as PTPotential's fields are: numpy scalars
        # would reach every product downstream, where numpy warns before a
        # range check raises.
        object.__setattr__(self, "tau", require_positive(self.tau, "tau"))
        object.__setattr__(self, "zeta", require_finite(self.zeta, "zeta"))


class ThermoPoint(NamedTuple):
    """Every closed-form quantity at one beta, as thermo_point returns it."""

    beta: float
    chi: float
    Z: float
    U: float
    C: float
    F: float
    S: float


def chi(ctx: ThermoContext, beta: float) -> float:
    """Scaling variable chi = zeta sqrt(beta) / tau."""
    require_positive(beta, "beta")
    return within_range(ctx.zeta * math.sqrt(beta) / ctx.tau, "chi")


def partition_sum(ctx: ThermoContext, beta: float, n_max: int) -> float:
    """Finite ladder sum: Z = sum_{n=0}^{n_max} e^{((n - zeta)/gamma)^2}.

    The exponent is positive as printed (the ladder is written relative
    to the zero crossing at n = zeta, not as a Boltzmann sum).  Exponents
    beyond the double range raise OverflowRangeError.
    """
    require_positive(beta, "beta")
    n_max = require_index(n_max, "n_max")
    gamma = ctx.tau / math.sqrt(beta)
    if gamma == 0.0:
        raise OverflowRangeError(f"tau/sqrt(beta) underflows to 0 at beta={beta!r}")
    # The exponent is a parabola in n, so its largest value on the ladder
    # sits at one of the two ends.  Squares formed with * overflow to inf
    # where ** would raise.  Past a finite far * far, or below a normal
    # gamma * gamma, squaring far / gamma cannot give inf / inf = NaN or
    # divide by 0.
    far = max(abs(ctx.zeta), abs(n_max - ctx.zeta))
    square, gamma2 = far * far, gamma * gamma
    if square < math.inf and gamma2 >= sys.float_info.min:
        worst = square / gamma2
    else:
        ratio = far / gamma
        worst = ratio * ratio
    if not worst <= _EXP_MAX:
        raise OverflowRangeError(
            f"largest term exponent {worst:.3e} exceeds the floating range"
        )
    try:
        return math.fsum(math.exp(((n - ctx.zeta) / gamma) ** 2) for n in range(n_max + 1))
    except OverflowError:  # fsum's intermediate overflow
        pass
    raise OverflowRangeError(f"partition sum of {n_max + 1} terms exceeds the double range")


# The closed forms below take a float or an array in each argument: the
# standalone functions pass floats, the batched thermo_table arrays.
def _pick(cond, taken, other):
    """taken() where cond holds, else other(): element by element for an
    array cond, and for a bool only the branch taken is evaluated."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, taken(), other())
    return taken() if cond else other()


def _partition(erfi_x, tau, sqrt_beta):
    return _HALF_SQRT_PI * tau * erfi_x / sqrt_beta


def _log_partition(ln_erfi_x, ln_tau, ln_beta):
    return _LN_SQRTPI_HALF + ln_tau - 0.5 * ln_beta + ln_erfi_x


def _one_minus_chi_over_dawson(x, d):
    # 1 - x/d with d = dawson(x); both branches agree to ~1e-12 at the cutover.
    x2 = x * x
    return _pick(
        x < _SERIES_CHI,
        lambda: -x2 * (2.0 / 3.0 + x2 * (8.0 / 45.0 + x2 * (16.0 / 945.0))),
        lambda: 1.0 - x / d,
    )


def _mean_energy(omd, beta):
    # omd / (2 beta); where 2 beta overflows, 0.5 omd / beta
    two_beta = 2.0 * beta
    return _pick(two_beta < math.inf, lambda: omd / two_beta, lambda: 0.5 * omd / beta)


def _specific_heat(x, d):
    # Good to about eight digits only, against a 60-digit reference on the
    # same doubles: the two-term series is 5.97e-9 off at chi = 0.0199; the
    # direct form, which cancels ~chi^-4 ulps, 2.89e-10 at 0.0201, up to
    # 1.55e-8 on (0.02, 0.03), and 5.30e-12 at 0.1.  ROADMAP direction 22
    # extends the series.
    x2 = x * x
    return _pick(
        x < _SERIES_CHI,
        lambda: 0.5 * x2 * x2 * (8.0 / 45.0 + x2 * (32.0 / 945.0)),
        lambda: 0.5 * (1.0 - x * (x + (1.0 - 2.0 * x * x) * d) / (2.0 * d * d)),
    )


def _entropy(omd, ln_erfi_x, ln_tau, ln_beta):
    # omd is 1 - chi/dawson(chi).
    return 0.5 * (omd + 2.0 * (ln_tau + ln_erfi_x) - ln_beta + _LN_PI_4)


def _asymptotic_dawson(x: float) -> tuple[float, float]:
    """(ln dawson(x), 2 x^2 - x/dawson(x)) for x > ERFI_MAX_ARG, with no x^2
    formed: from Dawson's series 2 x dawson(x) = sum_k (2k-1)!! t^k,
    t = 1/(2 x^2), the second is sum_{k>=1} (2k-1)!! t^(k-1) over that sum.
    Where x^2 overflows, t = 0 and the pair is (-ln 2x, 1)."""
    t = 0.5 / (x * x)
    term = series = 1.0
    shifted = 0.0
    for k in range(1, 64):
        shifted += (2 * k - 1) * term
        term *= (2 * k - 1) * t
        series += term
        if (2 * k + 1) * term <= 1e-18 * shifted:
            break
    return math.log(series) - math.log(x) - _LN2, shifted / series


def partition_closed(ctx: ThermoContext, beta: float) -> float:
    """Classical-limit partition function sqrt(pi) tau erfi(chi)/(2 sqrt(beta))."""
    return within_range(
        _partition(erfi(chi(ctx, beta)), ctx.tau, math.sqrt(beta)), "partition function"
    )


def log_partition_closed(ctx: ThermoContext, beta: float) -> float:
    """ln of partition_closed via ln(erfi), finite far past the erfi overflow."""
    x = chi(ctx, beta)
    if x <= 0.0:
        raise DomainError("log of the closed form needs zeta > 0")
    return _log_partition(ln_erfi(x), math.log(ctx.tau), math.log(beta))


def mean_energy(ctx: ThermoContext, beta: float) -> float:
    """U = (1/(2 beta)) [1 - chi/dawson(chi)]; tends to -zeta^2/(3 tau^2) as
    beta -> 0 and to -zeta^2/tau^2 as chi -> inf."""
    x = chi(ctx, beta)
    if x <= 0.0:
        raise DomainError("mean energy needs chi > 0")
    omd = _one_minus_chi_over_dawson(x, dawson(x))
    if omd == -math.inf:
        # chi/dawson(chi) = 2 chi^2 - 1 - chi^-2 + ... has overflowed, and
        # U = -(zeta/tau)^2 (1 - chi^-2 + ...) rounds to its limit.
        z = ctx.zeta / ctx.tau
        return within_range(-(z * z), "mean energy")
    return within_range(_mean_energy(omd, beta), "mean energy")


def specific_heat(ctx: ThermoContext, beta: float) -> float:
    """C per the printed closed form, rearranged to cancel every e^{chi^2}.

    C = (1/2) [1 - chi (chi + (1 - 2 chi^2) dawson(chi)) / (2 dawson(chi)^2)]

    which is the printed erfi/exponential expression with
    erfi = (2/sqrt(pi)) e^{chi^2} dawson substituted through.  That form
    cancels about chi^4 ulps, so past ERFI_MAX_ARG C is summed from its
    asymptotic series 1 + 1/chi^2 + 15/(4 chi^4) + 37/(2 chi^6) + ...,
    which tends to 1.
    """
    x = chi(ctx, beta)
    if x <= 0.0:
        raise DomainError("specific heat needs chi > 0")
    if x > ERFI_MAX_ARG:
        t = 0.5 / (x * x)
        c = 0.0
        for coefficient in _C_ASYMPTOTIC:
            c = c * t + coefficient
        return c
    return within_range(_specific_heat(x, dawson(x)), "specific heat")


def free_energy(ctx: ThermoContext, beta: float) -> float:
    """F = -(1/beta) ln Z, with the log-scaled erfi path.  Where chi^2
    overflows, ln Z = chi^2 + ln(dawson(chi) tau/sqrt(beta)) is divided by
    beta term by term, with chi^2/beta = (zeta/tau)^2: F tends to
    -(zeta/tau)^2."""
    x = chi(ctx, beta)
    if x > 0.0 and x * x == math.inf:
        ln_d, _ = _asymptotic_dawson(x)
        z = ctx.zeta / ctx.tau
        rest = (ln_d + math.log(ctx.tau) - 0.5 * math.log(beta)) / beta
        return within_range(-(z * z) - rest, "free energy")
    return within_range(-log_partition_closed(ctx, beta) / beta, "free energy")


def entropy(ctx: ThermoContext, beta: float) -> float:
    """S = (1/2)[1 - chi/dawson(chi) + 2 ln(tau erfi(chi)/sqrt(beta)) + ln(pi/4)].

    The printed formula passes zeta to the Dawson factor; dimensional
    consistency and the defining identity S = ln Z + beta U require chi
    there, and chi is what this uses.  Algebraically this expression IS
    ln Z + beta U, so the identity holds to rounding.  Past ERFI_MAX_ARG the
    2 chi^2 of 1 - chi/dawson(chi) and of 2 ln erfi(chi) cancel, so S is
    formed as (1 + 2 chi^2 - chi/dawson(chi))/2 + ln(dawson(chi) tau/sqrt(beta))
    with no chi^2 (see _asymptotic_dawson).
    """
    x = chi(ctx, beta)
    if x <= 0.0:
        raise DomainError("entropy needs chi > 0")
    if x > ERFI_MAX_ARG:
        ln_d, gap = _asymptotic_dawson(x)
        return 0.5 * (1.0 + gap) + ln_d + math.log(ctx.tau) - 0.5 * math.log(beta)
    return _entropy(
        _one_minus_chi_over_dawson(x, dawson(x)), ln_erfi(x), math.log(ctx.tau), math.log(beta)
    )


def thermo_point(ctx: ThermoContext, beta: float) -> ThermoPoint:
    """All closed-form quantities at one temperature: each field is what
    its standalone function returns, and the first of them to reject an
    argument raises."""
    return ThermoPoint(beta, *(f(ctx, beta) for f in (
        chi, partition_closed, mean_energy, specific_heat, free_energy, entropy,
    )))


def _math_log(a: np.ndarray) -> np.ndarray:
    # math.log at each element, taken once per distinct value
    values, inverse = np.unique(a, return_inverse=True)
    return np.array(list(map(math.log, values.tolist())))[inverse]


def thermo_table(pairs: Iterable[tuple[ThermoContext, float]]) -> np.ndarray:
    """[thermo_point(ctx, beta) for ctx, beta in pairs] as a float64 block,
    one row per pair: each row is that pair's ThermoPoint bit for bit, and
    the first error of that loop is raised, also one the iterable raises
    after some pairs (the pairs drawn before it are evaluated first).

    The drawn pairs go through one array pass, which runs as long as the
    slowest pair's series.  It covers pairs of a ThermoContext and a float
    beta with 0 < chi <= ERFI_MAX_ARG and finite results; if it does not
    cover every pair, the loop itself runs.
    """
    drawn: list[tuple[ThermoContext, float]] = []
    try:
        drawn.extend(pairs)
    except Exception:
        for ctx, beta in drawn:
            thermo_point(ctx, beta)
        raise
    if all(isinstance(p, tuple) and len(p) == 2 and isinstance(p[0], ThermoContext)
           and isinstance(p[1], float) for p in drawn):
        with np.errstate(all="ignore"):  # the branch np.where drops may divide by 0
            tau, beta = np.array([c.tau for c, _ in drawn]), np.array([b for _, b in drawn])
            sqrt_beta = np.sqrt(beta)
            x = np.array([c.zeta for c, _ in drawn]) * sqrt_beta / tau
            if np.all((0.0 < x) & (x <= ERFI_MAX_ARG)):
                d, erfi_x, ln_erfi_x = _erfi_family_array(x)
                omd = _one_minus_chi_over_dawson(x, d)
                # logs from math, as in the scalar form: numpy's differ in the last bit
                ln_tau, ln_beta = _math_log(tau), _math_log(beta)
                fields = np.stack([
                    beta,
                    x,
                    _partition(erfi_x, tau, sqrt_beta),
                    _mean_energy(omd, beta),
                    _specific_heat(x, d),
                    -_log_partition(ln_erfi_x, ln_tau, ln_beta) / beta,
                    _entropy(omd, ln_erfi_x, ln_tau, ln_beta),
                ], axis=1)
                if np.isfinite(fields).all():
                    return fields
    points = [thermo_point(ctx, beta) for ctx, beta in drawn]
    return np.array(points, dtype=np.float64).reshape(len(points), len(ThermoPoint._fields))
