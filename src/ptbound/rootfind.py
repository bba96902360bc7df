"""Bracketing and bisection helpers shared by the solvers.

``bisect`` halves a bracket as plain bisection does, with fewer
evaluations of f.  Before halving, Brent's zeroin (``zeroin``) squeezes
the bracket: its trials keep a record window (below, above), below the
largest point seen with f(a)'s sign and above the smallest with
f(b)'s, until the window is at most a margin wide.  The halving loop is
then the plain one, except that a midpoint at least a margin below the
window takes f(a)'s sign, and one at least a margin above it f(b)'s,
without evaluating f there; every other midpoint is evaluated.

The margin covers rounding noise.  Near a root f's sign can be noise
(delta_k of the iterative engine flips within a few dozen tolerances of
its roots), and a margin narrower than twice that band changes which
half the loop keeps.  When the sign of f is f(a)'s left of r - w and
f(b)'s right of r + w for some r and 2w <= margin, every answered
midpoint gets the sign f would give it, and the value is plain
bisection's bit for bit.  Measured on the first 30 rounds of the
benchmark's aim_scan seeds 1-3 and 201-210 (1,521 scans): squeezing to
a quarter tolerance and answering with no margin moved roots by up to
37 tolerances in 181 scan reports; with a margin of 256 or 1024
tolerances every report was unchanged.  The margin is 1024 tolerances,
about 27 times the largest of those moves.

A trial where f is exactly zero has no sign to record.  It is kept
only when f has f(a)'s sign half a margin below it and f(b)'s half a
margin above: those two evaluated points then become the window, which
the argument above covers like any other pair of trials.

The argument needs only that each window end is a point where f was
evaluated, not that zeroin chose it.  A caller that already knows f at
points inside the bracket passes them, and the window starts from them:
zeroin squeezes from the seeded ends, or not at all when they are
already a margin apart.  The AIM scan seeds its shallow bisections with
the delta_(k-1) values its deep passes gave, so a shallow root that
sits on a deep one is nearly always found without a pass of its own.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from types import MappingProxyType
from typing import Optional

import numpy as np

from .errors import BracketError, PtboundError

__all__ = ["bisect", "sign_change_brackets", "uniform_grid", "zeroin"]

# Midpoints this many bisection tolerances outside the squeezed window
# are answered from it; the squeeze stops once the window is this wide.
_MARGIN_XTOLS = 1024.0


def zeroin(f, a, fa, b, fb, tol):
    """Brent's zeroin (Algorithms for Minimization without Derivatives,
    1973, ch. 4) from a bracket [a, b] whose values lie on opposite sides
    (negative on one side only): evaluate f at trial points until the
    bracket is at most 2*tol wide, or until f returns None.

    Each trial is an inverse quadratic or secant step, or a halving when
    those would not shrink the bracket fast enough; it lies strictly
    inside the bracket.
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        xm = 0.5 * (c - b)
        if abs(xm) <= tol:
            return
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * xm * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, xm)
        fb = f(b)
        if fb is None:
            return
        if (fb < 0.0) == (fc < 0.0):
            c, fc = a, fa
            d = e = b - a


def _squeeze(f, a, fa, b, fb, margin, known):
    """The record window (below, above) that the known values of f and
    zeroin's trials on [a, b] leave, squeezed to at most margin wide.

    ``known`` maps points to values of f already evaluated there; the
    finite, nonzero ones strictly inside (a, b) seed the window, and
    zeroin starts from its seeded ends, stopping before any trial when
    they are at most a margin apart.  A trial where f is zero ends
    the squeeze, recording the window (x - margin/2, x + margin/2),
    clipped to [a, b], if f has f(a)'s sign at its lower end and f(b)'s
    at its upper one.  A trial where f is not finite or raises a
    PtboundError ends it unrecorded: the bisection meets such a point
    only if it is one of its own midpoints, and then reacts as it would
    without a squeeze.  A margin within a few ulps of the bracket's
    ends, where zeroin's steps would stop moving, skips the squeeze.
    """
    below, above = -math.inf, math.inf
    negative = fa < 0.0

    def value(x):
        try:
            fx = f(x)
        except PtboundError:
            return None
        return fx if math.isfinite(fx) else None

    def trial(x):
        nonlocal below, above
        fx = value(x)
        if fx == 0.0:
            lo, hi = max(x - 0.5 * margin, a), min(x + 0.5 * margin, b)
            flo, fhi = value(lo), value(hi)
            if flo and fhi and (flo < 0.0) == negative != (fhi < 0.0):
                below, above = max(below, lo), min(above, hi)
            return None
        if fx is None:
            return None
        if (fx < 0.0) == negative:
            below = max(below, x)
        else:
            above = min(above, x)
        return fx

    if not (
        b - a > margin > 8.0 * math.ulp(max(abs(a), abs(b)))
        and math.isfinite(fa)
        and math.isfinite(fb)
    ):
        return below, above
    # Midpoints lie strictly inside [a, b], so its ends answer none.
    below, fbelow, above, fabove = a, fa, b, fb
    for x, fx in known.items():
        if a < x < b and fx != 0.0 and math.isfinite(fx):
            if (fx < 0.0) == negative:
                if x > below:
                    below, fbelow = x, fx
            elif x < above:
                above, fabove = x, fx
    zeroin(trial, below, fbelow, above, fabove, 0.5 * margin)
    return below, above


def bisect(
    f,
    a: float,
    b: float,
    *,
    xtol: float,
    fab: Optional[tuple[float, float]] = None,
    known: Mapping[float, float] = MappingProxyType({}),
) -> float:
    """Bisection root of f on [a, b]; endpoints must straddle a sign change.

    The halving runs until the bracket is at most xtol wide or its
    midpoint meets an end, which a bracket with finite ends always
    reaches, so it needs no cap on steps; a NaN or infinite end, whose
    midpoints need not, is a bracket failure.  ``fab`` passes f(a) and
    f(b) when the caller already has them, as a scan does, so the
    bracket is judged on the values that found it.  ``known`` maps
    points to values of f the caller has already evaluated; those
    strictly inside (a, b) seed the squeeze.  NaN at a midpoint the
    bisection evaluates is a bracket failure.  The module docstring says
    which midpoints it answers without evaluating f, and why the value
    is still plain bisection's.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise BracketError(f"bracket ends must be finite, got [{a!r}, {b!r}]")
    fa, fb = fab if fab is not None else (f(a), f(b))
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if math.isnan(fa) or math.isnan(fb) or (fa < 0.0) == (fb < 0.0):
        raise BracketError(f"no sign change on [{a!r}, {b!r}]: f(a)={fa!r}, f(b)={fb!r}")
    margin = _MARGIN_XTOLS * xtol
    below, above = _squeeze(f, a, fa, b, fb, margin, known)
    while True:
        # (a + b)/2 bit for bit where a + b is finite and normal; a + b
        # itself can overflow on a finite bracket.
        m = 0.5 * a + 0.5 * b
        if m == a or m == b or (b - a) <= xtol:
            break
        if m <= below - margin:
            a = m
            continue
        if m >= above + margin:
            b = m
            continue
        fm = f(m)
        if fm == 0.0:
            return m
        if math.isnan(fm):
            raise BracketError(f"f returned NaN at {m!r} during bisection")
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return 0.5 * a + 0.5 * b


def uniform_grid(a: float, b: float, n: int) -> np.ndarray:
    """The n nodes a + i (b - a) / (n - 1), i = 0..n-1, of a scan over [a, b]."""
    if not (b > a) or n < 2:
        raise BracketError(f"bad scan interval [{a!r}, {b!r}] with {n} points")
    return a + np.arange(n) * ((b - a) / (n - 1))


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
