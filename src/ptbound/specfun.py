"""Special functions backing the spectrum and thermodynamics code.

The imaginary error function and the Dawson integral, plus Pochhammer
symbols and a terminating Gauss hypergeometric sum.  erfi and the Dawson
function are not in the stdlib, so they are implemented here:

* central range: the integral ``int_0^x exp(t^2) dt`` has an all-positive
  Maclaurin series, so it is summed directly (compensated) with no
  cancellation; Dawson multiplies by exp(-x^2), erfi by 2/sqrt(pi).
* large |x|: Dawson uses its asymptotic series, erfi the identity
  ``erfi(x) = 2/sqrt(pi) * exp(x^2) * dawson(x)``.

The branch between the two is taken in one place, ``_integral``, which
dawson, erfi and ln_erfi share.  Its array twin sums the series of many
x at once, each element bit for bit as the scalar form does, and
``_erfi_family_array`` gives the three functions of every element from
that one summation, for the batched thermodynamics.

Accuracy is a few ulp over the supported range (checked against
quadrature and high-precision references in the test suite).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DomainError, OverflowRangeError, require_finite, require_index, require_positive, within_range,
)

__all__ = [
    "ERFI_MAX_ARG",
    "dawson",
    "erfi",
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
    return _exp_series_from(x * x, x, x, 0.0, 0)


def _exp_series_from(x2: float, power: float, total: float, comp: float, n: int) -> float:
    # The series after its first n terms: power is x^(2n+1)/n!, total and
    # comp the compensated sum so far.
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
    term = 0.5 / x
    return _dawson_asymptotic_from(1.0 / (2.0 * x * x), term, term, 1)


def _dawson_asymptotic_from(inv2x2: float, term: float, total: float, k: int) -> float:
    # The series from its order-k term on, at most to order 63.
    for k in range(k, 64):
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


def _integral_array(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_integral`` at each element of a 1-d array of finite ax >= 0, bit for bit.

    Each element takes the scalar series' operations in the same order
    and stops at its own last term.  The elements are sorted so that they
    finish about in order, and the finished prefix is sliced off as a
    view.  Once fewer than _SCALAR_TAIL are left, where a numpy step costs
    more than their scalar steps, each goes on in the scalar loop.
    """
    series = ax <= _SERIES_CUT
    v = np.empty_like(ax)
    v[series] = _exp_series_array(ax[series])
    v[~series] = _dawson_asymptotic_array(ax[~series])
    return np.where(series, 0.0, ax * ax), v


_SCALAR_TAIL = 64  # a numpy step costs about as much as 64 scalar ones


def _exp_series_array(x: np.ndarray) -> np.ndarray:
    # _exp_series, one term of every unfinished element per step; smaller
    # x finish first
    order = np.argsort(x)
    xs = x[order]
    x2 = xs * xs
    power, total, comp = xs.copy(), xs.copy(), np.zeros_like(xs)
    out, done = np.empty_like(xs), np.zeros(xs.shape, bool)
    lo, n = 0, 0
    while xs.size - lo >= _SCALAR_TAIL:
        n += 1
        p, c = power[lo:], comp[lo:]
        p *= x2[lo:] / n
        term = p / (2 * n + 1)
        y = term - c
        t = total[lo:] + y
        np.subtract(t, total[lo:], out=c)
        c -= y
        total[lo:] = t
        stop = term <= 1e-17 * t
        if stop.any():
            lo = _retire(stop, t, lo, out, done)
    rest = np.flatnonzero(~done)
    states = zip(*(a[rest].tolist() for a in (x2, power, total, comp)))
    out[rest] = [_exp_series_from(*state, n) for state in states]
    return _unsort(out, order)


def _dawson_asymptotic_array(x: np.ndarray) -> np.ndarray:
    # _dawson_asymptotic, one term of every unfinished element per step;
    # larger x finish first
    order = np.argsort(x)[::-1]
    xs = x[order]
    inv2x2 = 1.0 / (2.0 * xs * xs)
    term = 0.5 / xs
    total = term.copy()
    out, done = np.empty_like(xs), np.zeros(xs.shape, bool)
    lo, k = 0, 1
    while xs.size - lo >= _SCALAR_TAIL and k < 64:
        tk, t = term[lo:], total[lo:]
        tk *= (2 * k - 1) * inv2x2[lo:]
        t += tk
        stop = tk <= 1e-18 * t
        if stop.any():
            lo = _retire(stop, t, lo, out, done)
        k += 1
    rest = np.flatnonzero(~done)
    states = zip(*(a[rest].tolist() for a in (inv2x2, term, total)))
    out[rest] = [_dawson_asymptotic_from(*state, k) for state in states]
    return _unsort(out, order)


def _retire(stop, value, lo, out, done) -> int:
    """Record value where the working set [lo:] stops for the first time,
    and return the start of the working set past the finished prefix.
    Elements that finish ahead of the prefix stay in it, recorded."""
    fresh = stop & ~done[lo:]
    out[lo:][fresh] = value[fresh]
    rest = done[lo:]
    rest |= stop
    first = int(rest.argmin())
    return done.size if rest[first] else lo + first


def _unsort(values: np.ndarray, order: np.ndarray) -> np.ndarray:
    out = np.empty_like(values)
    out[order] = values
    return out


def dawson(x: float) -> float:
    """Dawson integral ``exp(-x^2) * int_0^x exp(t^2) dt``."""
    x = require_finite(x, "x")
    ax = abs(x)
    if ax == 0.0:
        return 0.0
    p, v = _integral(ax)
    # exp(p - ax^2) is 1.0 where p = ax^2 (even past its overflow)
    return math.copysign(v if p else math.exp(-ax * ax) * v, x)


def erfi(x: float) -> float:
    """Imaginary error function ``2/sqrt(pi) * int_0^x exp(t^2) dt``.

    Supported for |x| <= ERFI_MAX_ARG; beyond that the value would leave
    the double range and OverflowRangeError is raised.  Use ln_erfi for
    the log-scaled value instead.
    """
    x = require_finite(x, "x")
    if abs(x) > ERFI_MAX_ARG:
        raise OverflowRangeError(
            f"erfi({x!r}) exceeds the supported range |x| <= {ERFI_MAX_ARG}; "
            "use ln_erfi for log-scaled values"
        )
    p, v = _integral(abs(x))
    return math.copysign(_TWO_OVER_SQRT_PI * math.exp(p) * v, x)


def ln_erfi(x: float) -> float:
    """log(erfi(x)) ~ x^2 for x > 0, far past the plain-erfi cap, up to where x^2 overflows."""
    x = require_positive(x, "x")
    within_range(x * x, "ln_erfi(x) ~ x**2")
    p, v = _integral(x)
    return p + math.log(_TWO_OVER_SQRT_PI * v)


def _erfi_family_array(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(dawson(x), erfi(x), ln_erfi(x))`` at each element of a 1-d array of
    0 < x <= ERFI_MAX_ARG, bit for bit, from one summation of the series.

    exp and log come from math, element by element: numpy's differ from
    them in the last bit at some arguments.
    """
    p, v = _integral_array(x)
    series = p == 0.0
    # One exp per element: exp(-x^2) for Dawson below _SERIES_CUT, exp(p) for erfi above.
    e = np.array([math.exp(q) for q in np.where(series, -x * x, p).tolist()])
    return (
        np.where(series, e * v, v),
        _TWO_OVER_SQRT_PI * np.where(series, 1.0, e) * v,
        p + np.array([math.log(w) for w in (_TWO_OVER_SQRT_PI * v).tolist()]),
    )


def pochhammer(s: float, n: int) -> float:
    """Rising factorial ``(s)_n = s (s+1) ... (s+n-1)``.

    Evaluated as a finite product so negative and non-integer s are fine
    (ratios of Gamma functions would not be).  The product stops once it
    is 0, which the later factors, all positive, keep, or past the double
    range, so a huge order costs no more than the steps that get there.
    """
    require_index(n, "pochhammer order")
    s = require_finite(s, "s")
    result = 1.0
    for j in range(int(n)):
        result *= s + j
        if result == 0.0 or not math.isfinite(result):
            break
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
