"""Special functions backing the spectrum and thermodynamics code.

The imaginary error function and the Dawson integral, plus Pochhammer
symbols and a terminating Gauss hypergeometric sum.  erfi and the Dawson
function are not in the stdlib, so they are implemented here:

* central range: the integral ``int_0^x exp(t^2) dt`` has an all-positive
  Maclaurin series, so it is summed directly (compensated) with no
  cancellation; Dawson multiplies by exp(-x^2), erfi by 2/sqrt(pi).
* large |x|: Dawson uses its asymptotic series, erfi the identity
  ``erfi(x) = 2/sqrt(pi) * exp(x^2) * dawson(x)``.

The branch between the two is taken in one place, and ``erfi_family``
returns Dawson, erfi and log-erfi at one x from a single summation.

Accuracy is a few ulp over the supported range (checked against
quadrature and high-precision references in the test suite).
"""

from __future__ import annotations

import math

from .errors import (
    DomainError, OverflowRangeError, require_finite, require_index, require_positive, within_range,
)

__all__ = [
    "ERFI_MAX_ARG",
    "dawson",
    "erfi",
    "erfi_family",
    "hyp2f1_terminating",
    "ln_erfi",
    "pochhammer",
]

_SQRT_PI = math.sqrt(math.pi)
_TWO_OVER_SQRT_PI = 2.0 / _SQRT_PI

# exp(x^2) overflows just past x = 26.6; cap the supported erfi range below it.
ERFI_MAX_ARG = 26.0

# crossover between the positive power series and the asymptotic series
_SERIES_CUT = 7.0


def _exp_series(x: float) -> float:
    """Compensated sum of ``int_0^x exp(t^2) dt`` for x >= 0.

    Every term is positive, so the relative error stays at machine level;
    the sum itself grows like exp(x^2) and overflows past x ~ 26.6.
    """
    if x == 0.0:
        return 0.0
    x2 = x * x
    power = x  # x^(2n+1) / n!
    total = x
    comp = 0.0
    n = 0
    while True:
        n += 1
        power *= x2 / n
        term = power / (2 * n + 1)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if term <= 1e-17 * total:
            return total


def _dawson_asymptotic(x: float) -> float:
    # F(x) ~ 1/(2x) * sum_k (2k-1)!! / (2x^2)^k, truncated at machine level.
    # 0.5/x is 1/(2x) bit for bit, and stays above 0 where 2x overflows.
    inv2x2 = 1.0 / (2.0 * x * x)
    term = 0.5 / x
    total = term
    for k in range(1, 64):
        term *= (2 * k - 1) * inv2x2
        total += term
        if term <= 1e-18 * total:
            break
    return total


def _integral(ax: float) -> tuple[float, float]:
    """``int_0^ax exp(t^2) dt`` for finite ax >= 0, as (p, v) with value exp(p) * v.

    Up to _SERIES_CUT, p = 0 and v is the positive power series; above it
    p = ax^2 and v = dawson(ax) from its asymptotic series, so the
    exp(ax^2) factor stays out of the double range until a caller needs it.
    """
    if ax <= _SERIES_CUT:
        return 0.0, _exp_series(ax)
    return ax * ax, _dawson_asymptotic(ax)


# The erfi family from one (p, v) pair of _integral(ax).  Dawson's factor
# exp(p - ax^2) is 1.0 where p = ax^2 (even past its overflow).
def _dawson_of(ax: float, p: float, v: float) -> float:
    return v if p else math.exp(-ax * ax) * v


def _erfi_of(p: float, v: float) -> float:
    return _TWO_OVER_SQRT_PI * math.exp(p) * v


def _ln_erfi_of(p: float, v: float) -> float:
    return p + math.log(_TWO_OVER_SQRT_PI * v)


def _erfi_arg(x: float) -> float:
    x = require_finite(x, "x")
    if abs(x) > ERFI_MAX_ARG:
        raise OverflowRangeError(
            f"erfi({x!r}) exceeds the supported range |x| <= {ERFI_MAX_ARG}; "
            "use ln_erfi for log-scaled values"
        )
    return x


def dawson(x: float) -> float:
    """Dawson integral ``exp(-x^2) * int_0^x exp(t^2) dt``."""
    x = require_finite(x, "x")
    ax = abs(x)
    if ax == 0.0:
        return 0.0
    return math.copysign(_dawson_of(ax, *_integral(ax)), x)


def erfi(x: float) -> float:
    """Imaginary error function ``2/sqrt(pi) * int_0^x exp(t^2) dt``.

    Supported for |x| <= ERFI_MAX_ARG; beyond that the value would leave
    the double range and OverflowRangeError is raised.  Use ln_erfi for
    the log-scaled value instead.
    """
    x = _erfi_arg(x)
    return math.copysign(_erfi_of(*_integral(abs(x))), x)


def ln_erfi(x: float) -> float:
    """log(erfi(x)) ~ x^2 for x > 0, far past the plain-erfi cap, up to where x^2 overflows."""
    x = require_positive(x, "x")
    within_range(x * x, "ln_erfi(x) ~ x**2")
    return _ln_erfi_of(*_integral(x))


def erfi_family(x: float) -> tuple[float, float, float]:
    """``(dawson(x), erfi(x), ln_erfi(x))`` for 0 < x <= ERFI_MAX_ARG.

    The three share one summation of their series, and each value is
    the one its own function returns, bit for bit.  Past the range,
    erfi's OverflowRangeError is raised.
    """
    x = require_positive(_erfi_arg(x), "x")
    p, v = _integral(x)
    return _dawson_of(x, p, v), _erfi_of(p, v), _ln_erfi_of(p, v)


def pochhammer(s: float, n: int) -> float:
    """Rising factorial ``(s)_n = s (s+1) ... (s+n-1)``.

    Evaluated as a finite product so negative and non-integer s are fine
    (ratios of Gamma functions would not be).
    """
    require_index(n, "pochhammer order")
    s = require_finite(s, "s")
    result = 1.0
    for j in range(int(n)):
        result *= s + j
    return within_range(result, "pochhammer")


def hyp2f1_terminating(n: int, b: float, c: float, z: float) -> float:
    """Terminating Gauss sum ``2F1(-n, b; c; z)`` (a polynomial of degree n).

    Terms follow the ratio recurrence and are accumulated with compensated
    summation.  Raises DomainError when c is a nonpositive integer with
    -c < n, because a zero denominator factor (c)_k would then occur
    inside the sum range, and OverflowRangeError when the terms or the sum
    leave the double range.
    """
    n = require_index(n, "series order")
    b = require_finite(b, "b")
    c = require_finite(c, "c")
    z = require_finite(z, "z")
    if c == math.floor(c) and -(n - 1) <= c <= 0.0:
        raise DomainError(
            f"lower parameter c={c!r} hits a nonpositive integer inside the "
            f"terminating range of length {n}"
        )
    total = 1.0
    comp = 0.0
    term = 1.0
    for k in range(n):
        term *= (k - n) * (b + k) / ((c + k) * (k + 1)) * z
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    if not math.isfinite(total):
        raise OverflowRangeError(f"2F1 terms exceed the double range (n={n}, z={z!r})")
    return total
