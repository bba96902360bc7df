"""Bracketing and bisection helpers shared by the solvers, on plain floats."""

from __future__ import annotations

import math

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


def uniform_grid(a: float, b: float, n: int) -> list[float]:
    """The n nodes a + i (b - a) / (n - 1), i = 0..n-1, of a scan over [a, b].

    Where b - a overflows, the nodes are (1 - t) a + t b, t = i / (n - 1),
    which stay finite and end on a and b.
    """
    if not (b > a) or n < 2:
        raise BracketError(f"bad scan interval [{a!r}, {b!r}] with {n} points")
    step = (b - a) / (n - 1)
    if math.isinf(step):
        return [(1.0 - i / (n - 1)) * a + i / (n - 1) * b for i in range(n)]
    return [a + i * step for i in range(n)]


def sign_change_brackets(xs: list[float], fx: list[float]) -> list[tuple]:
    """Sub-intervals between neighbouring scan nodes xs where the sign of
    fx, the values of f at those nodes, flips.

    Returns ``(x_left, x_right, f_left, f_right)`` per bracket, in node
    order; the two ends carry strictly opposite signs.  Each node where f
    is exactly zero, the first and last included, gives one degenerate
    bracket (x, x) whatever its neighbours.  Nodes where f is NaN are
    skipped, so a NaN region simply contributes no brackets.  Lists of
    unequal length are a BracketError.
    """
    if len(xs) != len(fx):
        raise BracketError(f"{len(fx)} values for a {len(xs)}-point scan")
    # The last node's neighbour is NaN: only a zero there makes a bracket.
    return [
        (x, x, 0.0, 0.0) if fa == 0.0 else (x, y, fa, fb)
        for x, y, fa, fb in zip(xs, xs[1:] + xs[-1:], fx, fx[1:] + [math.nan])
        if fa == 0.0 or fa < 0.0 < fb or fb < 0.0 < fa
    ]
