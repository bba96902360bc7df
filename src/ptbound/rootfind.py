"""Bracketing and bisection helpers shared by the solvers."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import BracketError

__all__ = ["bisect", "sign_change_brackets", "uniform_grid"]


def bisect(
    f,
    a: float,
    b: float,
    *,
    xtol: float,
    maxiter: int = 200,
    fab: Optional[tuple[float, float]] = None,
) -> float:
    """Bisection root of f on [a, b]; endpoints must straddle a sign change.

    ``fab`` passes f(a) and f(b) when the caller already has them, as a
    scan does, so the bracket is judged on the values that found it.
    NaN values of f inside the interval are treated as bracket failures.
    """
    fa, fb = fab if fab is not None else (f(a), f(b))
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if math.isnan(fa) or math.isnan(fb) or (fa < 0.0) == (fb < 0.0):
        raise BracketError(f"no sign change on [{a!r}, {b!r}]: f(a)={fa!r}, f(b)={fb!r}")
    for _ in range(maxiter):
        m = 0.5 * (a + b)
        if m == a or m == b or (b - a) <= xtol:
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if math.isnan(fm):
            raise BracketError(f"f returned NaN at {m!r} during bisection")
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return 0.5 * (a + b)


def uniform_grid(a: float, b: float, n: int) -> np.ndarray:
    """The n nodes a + i (b - a) / (n - 1), i = 0..n-1, of a scan over [a, b]."""
    if not (b > a) or n < 2:
        raise BracketError(f"bad scan interval [{a!r}, {b!r}] with {n} points")
    return a + np.arange(n) * ((b - a) / (n - 1))


def sign_change_brackets(fx, a: float, b: float, n: int):
    """Sub-intervals of the n-point grid ``uniform_grid(a, b, n)`` where the
    sign of fx, the values of f at its nodes, flips.

    Returns ``(x_left, x_right, f_left, f_right)`` per bracket, in grid
    order.  A node where f is exactly zero gives the degenerate bracket
    (x, x).  Nodes where f is NaN are skipped, so a NaN region simply
    contributes no brackets.
    """
    xs = uniform_grid(a, b, n)
    fx = np.asarray(fx, dtype=float)
    if fx.shape != (n,):
        raise BracketError(f"{fx.shape} values for a {n}-point scan")
    left, right = fx[:-1], fx[1:]
    finite = ~(np.isnan(left) | np.isnan(right))
    hits = np.flatnonzero(finite & ((right == 0.0) | ((left < 0.0) != (right < 0.0)))) + 1
    out = []
    for i in hits.tolist():
        x, f = float(xs[i]), float(fx[i])
        if f == 0.0:
            out.append((x, x, f, f))
        else:
            out.append((float(xs[i - 1]), x, float(fx[i - 1]), f))
    return out
