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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    DomainError, OverflowRangeError, require_finite, require_index, require_positive, within_range,
)
from .specfun import ERFI_MAX_ARG, dawson, erfi, erfi_family, ln_erfi

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
]

_LN_SQRTPI_HALF = 0.5 * math.log(math.pi) - math.log(2.0)
_EXP_MAX = 700.0
# Below this chi, 1 - chi/dawson(chi) is evaluated by series: the direct
# form has lost ~chi^-2 leading digits, the three-term series still has
# ~1e-12 relative truncation error at the cutover.
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
        require_positive(self.tau, "tau")
        require_finite(self.zeta, "zeta")


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
    # The exponent is a parabola in n, so its largest value on the ladder
    # sits at one of the two ends.  Squares formed with * overflow to inf
    # where ** would raise.  Past a finite far * far, squaring far / gamma
    # cannot give inf / inf = NaN.
    far = max(abs(ctx.zeta), abs(n_max - ctx.zeta))
    square = far * far
    if square < math.inf:
        worst = square / (gamma * gamma)
    else:
        ratio = far / gamma
        worst = ratio * ratio
    if not worst <= _EXP_MAX:
        raise OverflowRangeError(
            f"largest term exponent {worst:.1f} exceeds the floating range"
        )
    return math.fsum(
        math.exp(((n - ctx.zeta) / gamma) ** 2) for n in range(n_max + 1)
    )


def _partition(ctx: ThermoContext, beta: float, erfi_x: float) -> float:
    return 0.5 * math.sqrt(math.pi) * ctx.tau * erfi_x / math.sqrt(beta)


def _log_partition(ctx: ThermoContext, beta: float, ln_erfi_x: float) -> float:
    return _LN_SQRTPI_HALF + math.log(ctx.tau) - 0.5 * math.log(beta) + ln_erfi_x


def _one_minus_chi_over_dawson(x: float, d: float) -> float:
    # 1 - x/d with d = dawson(x); both branches agree to ~1e-12 at the cutover.
    if x < _SERIES_CHI:
        x2 = x * x
        return -x2 * (2.0 / 3.0 + x2 * (8.0 / 45.0 + x2 * (16.0 / 945.0)))
    return 1.0 - x / d


def _specific_heat(x: float, d: float) -> float:
    if x < _SERIES_CHI:
        x2 = x * x
        return 0.5 * x2 * x2 * (8.0 / 45.0 + x2 * (32.0 / 945.0))
    return 0.5 * (1.0 - x * (x + (1.0 - 2.0 * x * x) * d) / (2.0 * d * d))


def _entropy(ctx: ThermoContext, beta: float, omd: float, ln_erfi_x: float) -> float:
    # omd is 1 - chi/dawson(chi).
    return 0.5 * (
        omd
        + 2.0 * (math.log(ctx.tau) + ln_erfi_x)
        - math.log(beta)
        + math.log(math.pi / 4.0)
    )


def partition_closed(ctx: ThermoContext, beta: float) -> float:
    """Classical-limit partition function sqrt(pi) tau erfi(chi)/(2 sqrt(beta))."""
    return _partition(ctx, beta, erfi(chi(ctx, beta)))


def log_partition_closed(ctx: ThermoContext, beta: float) -> float:
    """ln of partition_closed via ln(erfi), finite far past the erfi overflow."""
    x = chi(ctx, beta)
    if x <= 0.0:
        raise DomainError("log of the closed form needs zeta > 0")
    return _log_partition(ctx, beta, ln_erfi(x))


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
    return within_range(omd / (2.0 * beta), "mean energy")


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
    """F = -(1/beta) ln Z, with the log-scaled erfi path."""
    return within_range(-log_partition_closed(ctx, beta) / beta, "free energy")


def entropy(ctx: ThermoContext, beta: float) -> float:
    """S = (1/2)[1 - chi/dawson(chi) + 2 ln(tau erfi(chi)/sqrt(beta)) + ln(pi/4)].

    The printed formula passes zeta to the Dawson factor; dimensional
    consistency and the defining identity S = ln Z + beta U require chi
    there, and chi is what this uses.  Algebraically this expression IS
    ln Z + beta U, so the identity holds to rounding.
    """
    x = chi(ctx, beta)
    if x <= 0.0:
        raise DomainError("entropy needs chi > 0")
    return _entropy(ctx, beta, _one_minus_chi_over_dawson(x, dawson(x)), ln_erfi(x))


def thermo_point(ctx: ThermoContext, beta: float) -> ThermoPoint:
    """All closed-form quantities at one temperature.

    chi and the erfi series are evaluated once; every field equals what
    the standalone function returns, bit for bit, and an argument they
    reject raises what the first of partition_closed, mean_energy,
    specific_heat and free_energy to reject it would.
    """
    x = chi(ctx, beta)
    if not 0.0 < x <= ERFI_MAX_ARG:
        # chi past erfi's range fails in partition_closed, any other in mean_energy
        partition_closed(ctx, beta)
        mean_energy(ctx, beta)
    d, erfi_x, ln_erfi_x = erfi_family(x)
    omd = _one_minus_chi_over_dawson(x, d)
    return ThermoPoint(
        beta=beta,
        chi=x,
        Z=_partition(ctx, beta, erfi_x),
        U=within_range(omd / (2.0 * beta), "mean energy"),
        C=within_range(_specific_heat(x, d), "specific heat"),
        F=within_range(-_log_partition(ctx, beta, ln_erfi_x) / beta, "free energy"),
        S=_entropy(ctx, beta, omd, ln_erfi_x),
    )
