"""Bracketing and bisection helpers shared by the solvers."""

from __future__ import annotations

import math

import numpy as np

from .errors import BracketError

__all__ = ["bisect", "sign_change_brackets", "uniform_grid"]


def bisect(f, a: float, b: float, *, xtol: float, fab: tuple[float, float]) -> float:
    """Bisection root of f on [a, b]; fab = (f(a), f(b)), the values a
    scan found the bracket with, must straddle a sign change.

    The halving runs until the bracket is at most xtol wide or its
    midpoint meets an end, which a bracket with finite ends always
    reaches, so it needs no cap on steps; a NaN or infinite end, whose
    midpoints need not, is a bracket failure.  NaN at a midpoint is a
    bracket failure.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise BracketError(f"bracket ends must be finite, got [{a!r}, {b!r}]")
    fa, fb = fab
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if math.isnan(fa) or math.isnan(fb) or (fa < 0.0) == (fb < 0.0):
        raise BracketError(f"no sign change on [{a!r}, {b!r}]: f(a)={fa!r}, f(b)={fb!r}")
    while True:
        # (a + b)/2 bit for bit where a + b is finite and normal; a + b
        # itself can overflow on a finite bracket.
        m = 0.5 * a + 0.5 * b
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
            b = m
    return 0.5 * a + 0.5 * b


def uniform_grid(a: float, b: float, n: int) -> np.ndarray:
    """The n nodes a + i (b - a) / (n - 1), i = 0..n-1, of a scan over [a, b].

    Where b - a overflows, the nodes are (1 - t) a + t b, t = i / (n - 1),
    which stay finite and end on a and b.
    """
    if not (b > a) or n < 2:
        raise BracketError(f"bad scan interval [{a!r}, {b!r}] with {n} points")
    step = (b - a) / (n - 1)
    if math.isinf(step):
        t = np.arange(n) / (n - 1)
        return (1.0 - t) * a + t * b
    return a + np.arange(n) * step


def sign_change_brackets(fx, a: float, b: float, n: int):
    """Sub-intervals of the n-point grid ``uniform_grid(a, b, n)`` where the
    sign of fx, the values of f at its nodes, flips.

    Returns ``(x_left, x_right, f_left, f_right)`` per bracket, in grid
    order.  Each node where f is exactly zero, the first and last
    included, gives one degenerate bracket (x, x) whatever its
    neighbours.  Nodes where f is NaN are skipped, so a NaN region simply
    contributes no brackets.
    """
    xs = uniform_grid(a, b, n)
    fx = np.asarray(fx, dtype=float)
    if fx.shape != (n,):
        raise BracketError(f"{fx.shape} values for a {n}-point scan")
    sign = np.sign(fx)
    flips = np.append(sign[:-1] * sign[1:] < 0.0, False)
    out = []
    for i in np.flatnonzero((fx == 0.0) | flips).tolist():
        if fx[i] == 0.0:
            out.append((float(xs[i]), float(xs[i]), 0.0, 0.0))
        else:
            out.append((float(xs[i]), float(xs[i + 1]), float(fx[i]), float(fx[i + 1])))
    return out
