"""Bracketing and bisection helpers shared by the solvers, on plain floats."""

from __future__ import annotations

import math

from .errors import BracketError

__all__ = ["bisect", "sign_change_brackets", "uniform_grid"]


def bisect(f, a: float, b: float, *, xtol: float, fab: tuple[float, float],
           guess: float | None = None) -> float:
    """Bisection root of f on [a, b]; fab = (f(a), f(b)), the values a
    scan found the bracket with, must straddle a sign change.

    The halving runs until the bracket is at most xtol wide or its
    midpoint meets an end, which a bracket with finite ends always
    reaches, so it needs no cap on steps; a NaN or infinite end, whose
    midpoints need not, is a bracket failure.  NaN at a midpoint is a
    bracket failure.

    With a guess, the same halving goes toward the guess without f, and
    f is taken at the ends of the final cell (fab at a or b).  With fa's
    sign at the left end and the other at the right, the cell's midpoint
    is returned; otherwise, a zero or NaN included, the halving runs on f.
    The two agree when f has fa's sign at every midpoint on the halving's
    path left of the cell and the other sign right of it (the
    monotone-sign condition): when f's sign changes once on [a, b], or is
    noise only on an interval that holds the root and is narrower than
    the cell, since the path's other midpoints lie a cell beyond its ends.
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
    lo, hi = a, b
    # (a + b)/2 bit for bit where a + b is finite and normal; a + b itself
    # can overflow on a finite bracket.
    while (m := 0.5 * lo + 0.5 * hi) != lo and m != hi and not (hi - lo) <= xtol:
        if guess is not None:
            right = m <= guess
        elif (fm := f(m)) == 0.0:
            return m
        elif math.isnan(fm):
            raise BracketError(f"f returned NaN at {m!r} during bisection")
        else:
            right = (fm < 0.0) == (fa < 0.0)  # the root lies right of m
        if right:
            lo = m
        else:
            hi = m
    if guess is None:
        return m
    f_lo, f_hi = fa if lo == a else f(lo), fb if hi == b else f(hi)
    if (f_lo < 0.0 < f_hi) if fa < 0.0 else (f_hi < 0.0 < f_lo):
        return m
    return bisect(f, a, b, xtol=xtol, fab=fab)


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
