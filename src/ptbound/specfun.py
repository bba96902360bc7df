"""Special functions backing the spectrum and thermodynamics code.

The error-function family (erf, erfi, Dawson integral) plus log-gamma,
Pochhammer symbols and a terminating Gauss hypergeometric sum.  erfi and
the Dawson function are not in the stdlib, so they are implemented here:

* central range: the integral ``int_0^x exp(t^2) dt`` has an all-positive
  Maclaurin series, so it is summed directly (compensated) with no
  cancellation; Dawson multiplies by exp(-x^2), erfi by 2/sqrt(pi).
* large |x|: Dawson uses its asymptotic series, erfi the identity
  ``erfi(x) = 2/sqrt(pi) * exp(x^2) * dawson(x)``.

Accuracy is a few ulp over the supported range (checked against
quadrature and high-precision references in the test suite).
"""

from __future__ import annotations

import math

from .errors import DomainError, OverflowRangeError

__all__ = [
    "ERFI_MAX_ARG",
    "dawson",
    "erf",
    "erfi",
    "hyp2f1_terminating",
    "ln_erfi",
    "ln_gamma",
    "pochhammer",
]

_SQRT_PI = math.sqrt(math.pi)
_TWO_OVER_SQRT_PI = 2.0 / _SQRT_PI

# exp(x^2) overflows just past x = 26.6; cap the supported erfi range below it.
ERFI_MAX_ARG = 26.0

# crossover between the positive power series and the asymptotic series
_SERIES_CUT = 7.0


def _require_finite(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


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
    inv2x2 = 1.0 / (2.0 * x * x)
    term = 1.0 / (2.0 * x)
    total = term
    for k in range(1, 64):
        term *= (2 * k - 1) * inv2x2
        total += term
        if term <= 1e-18 * total:
            break
    return total


def erf(x: float) -> float:
    """Gauss error function, odd, bounded by 1 in magnitude."""
    return math.erf(_require_finite(x, "x"))


def dawson(x: float) -> float:
    """Dawson integral ``exp(-x^2) * int_0^x exp(t^2) dt``."""
    x = _require_finite(x, "x")
    ax = abs(x)
    if ax == 0.0:
        return 0.0
    if ax <= _SERIES_CUT:
        val = math.exp(-ax * ax) * _exp_series(ax)
    else:
        val = _dawson_asymptotic(ax)
    return math.copysign(val, x)


def erfi(x: float) -> float:
    """Imaginary error function ``2/sqrt(pi) * int_0^x exp(t^2) dt``.

    Supported for |x| <= ERFI_MAX_ARG; beyond that the value would leave
    the double range and OverflowRangeError is raised.  Use ln_erfi for
    the log-scaled value instead.
    """
    x = _require_finite(x, "x")
    ax = abs(x)
    if ax > ERFI_MAX_ARG:
        raise OverflowRangeError(
            f"erfi({x!r}) exceeds the supported range |x| <= {ERFI_MAX_ARG}; "
            "use ln_erfi for log-scaled values"
        )
    if ax <= _SERIES_CUT:
        val = _TWO_OVER_SQRT_PI * _exp_series(ax)
    else:
        val = _TWO_OVER_SQRT_PI * math.exp(ax * ax) * _dawson_asymptotic(ax)
    return math.copysign(val, x)


def ln_erfi(x: float) -> float:
    """log(erfi(x)) for x > 0, valid far beyond the plain-erfi overflow cap."""
    x = _require_finite(x, "x")
    if x <= 0.0:
        raise DomainError(f"ln_erfi requires x > 0, got {x!r}")
    if x <= _SERIES_CUT:
        return math.log(_TWO_OVER_SQRT_PI * _exp_series(x))
    return x * x + math.log(_TWO_OVER_SQRT_PI * _dawson_asymptotic(x))


def ln_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    x = _require_finite(x, "x")
    if x <= 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def pochhammer(s: float, n: int) -> float:
    """Rising factorial ``(s)_n = s (s+1) ... (s+n-1)``.

    Evaluated as a finite product so negative and non-integer s are fine
    (ratios of Gamma functions would not be).
    """
    if n != int(n) or n < 0:
        raise DomainError(f"pochhammer order must be a nonnegative integer, got {n!r}")
    s = _require_finite(s, "s")
    result = 1.0
    for j in range(int(n)):
        result *= s + j
    return result


def hyp2f1_terminating(n: int, b: float, c: float, z: float) -> float:
    """Terminating Gauss sum ``2F1(-n, b; c; z)`` (a polynomial of degree n).

    Terms follow the ratio recurrence and are accumulated with compensated
    summation.  Raises DomainError when c is a nonpositive integer with
    -c < n, because a zero denominator factor (c)_k would then occur
    inside the sum range, and OverflowRangeError when the terms or the sum
    leave the double range.
    """
    if n != int(n) or n < 0:
        raise DomainError(f"series order must be a nonnegative integer, got {n!r}")
    n = int(n)
    b = _require_finite(b, "b")
    c = _require_finite(c, "c")
    z = _require_finite(z, "z")
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
