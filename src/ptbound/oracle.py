"""Independent numerical checks: quadrature, differentiation, shooting.

Everything here is algorithmically unrelated to the series/iteration
machinery elsewhere in the package, so agreement between the two routes
is meaningful evidence rather than a tautology.  The module imports
nothing from the closed form, the iterative engine, its jets or the
special functions; from the package it takes only the error types.
"""

from __future__ import annotations

import functools
import math
import numbers
import weakref
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Callable

from .errors import (
    ConvergenceError, DomainError, NodeCountError, OverflowRangeError, require_bracket,
    require_choice, require_finite, require_index, require_positive, within_range,
)

__all__ = [
    "RadialProblem",
    "ShootResult",
    "finite_difference",
    "harmonic_problem",
    "integrate_adaptive",
    "shoot_eigenvalue",
]


# The quadrature starts from 2^PANEL_LEVELS panels of [a, b], made by
# halving, and refines each adaptively.
PANEL_LEVELS = 5


def integrate_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    tol: float = 1e-12,
    max_depth: int = 48,
) -> float:
    """Adaptive Simpson quadrature of f over [a, b].

    [a, b] is first cut into 2^PANEL_LEVELS = 32 equal panels, and f is
    sampled at their ends and midpoints before any error estimate is
    trusted.  Each panel is then subdivided until the local Richardson
    error estimate is below its share of the tolerance (tol / 32, halved
    at each split).  A feature of f at least a panel wide is therefore
    sampled wherever it lies: a Gaussian peak exp(-((x - c) / w)^2) with
    w >= (b - a) / 32 and c in [a, b] integrates to within 10 tol (the
    estimate is not a bound: the worst of 12,000 random such peaks was
    3.7 tol).  A narrower one can fall between the samples and be missed.

    max_depth counts the halvings of [a, b], the partition's five
    included (made whatever max_depth is).  Exhausting it raises
    ConvergenceError with the best composite value attached; a panel
    value past the double range from finite samples, or a sum past it,
    raises OverflowRangeError.
    Midpoints a/2 + b/2 are (a + b)/2 bit for bit wherever a + b does not
    overflow.
    """
    require_bracket((a, b), "integration interval")
    require_positive(tol, "quadrature tolerance")
    require_index(max_depth, "max_depth")
    xs = [a, b]
    for _ in range(PANEL_LEVELS + 1):  # the panels' ends and midpoints
        xs = [*(x for lo, hi in zip(xs, xs[1:]) for x in (lo, 0.5 * lo + 0.5 * hi)), b]
    fs = list(map(f, xs))
    wholes = [
        (xs[i + 2] - xs[i]) / 6.0 * (fs[i] + 4.0 * fs[i + 1] + fs[i + 2])
        for i in range(0, len(xs) - 1, 2)
    ]
    share, depth = tol / 2**PANEL_LEVELS, max(max_depth - PANEL_LEVELS, 0)
    total = 0.0
    for j, whole in enumerate(wholes):
        i = 2 * j
        value, converged = _simpson_recurse(
            f, xs[i], fs[i], xs[i + 2], fs[i + 2], xs[i + 1], fs[i + 1], whole, share, depth
        )
        if not converged:
            raise ConvergenceError(
                f"quadrature did not converge within depth {max_depth}",
                estimate=total + value + sum(wholes[j + 1 :]),
            )
        total += value
    return within_range(total, "integral")


def _simpson_recurse(f, a, fa, b, fb, m, fm, whole, tol, depth):
    # Returns (value, converged).  A panel that runs out of depth stops the
    # recursion: its partial value plus the coarse values of the panels
    # not yet refined is the estimate.
    lm = 0.5 * a + 0.5 * m
    rm = 0.5 * m + 0.5 * b
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if not math.isfinite(left + right) and all(map(math.isfinite, (fa, flm, fm, frm, fb))):
        raise OverflowRangeError(f"integral exceeds the double range on the panel [{a!r}, {b!r}]")
    diff = left + right - whole
    converged = abs(diff) <= 15.0 * tol
    if converged or depth <= 0:
        return left + right + diff / 15.0, converged
    half = 0.5 * tol
    lval, converged = _simpson_recurse(f, a, fa, m, fm, lm, flm, left, half, depth - 1)
    if not converged:
        return lval + right, False
    rval, converged = _simpson_recurse(f, m, fm, b, fb, rm, frm, right, half, depth - 1)
    return lval + rval, converged


# Steps h, h/2, ... of the Richardson tableau.
RICHARDSON_LEVELS = 4


def finite_difference(
    f: Callable[[float], float],
    x: float,
    *,
    order: int = 1,
    h: float = 1e-3,
) -> tuple[float, float]:
    """Central-difference derivative with Richardson extrapolation.

    Supports order 1 and 2.  Returns (value, error_estimate) where the
    error estimate is the difference between the last two extrapolation
    stages, a usually-pessimistic bound on the truncation error.  An f
    that is not finite at a stencil point raises DomainError naming the
    point; a value or estimate past the double range, or an order-2
    step whose square is, raises OverflowRangeError.
    """
    require_choice(order, (1, 2), "derivative order")
    require_positive(h, "step h")
    require_finite(x, "x")
    if order == 2 and h * h == math.inf:
        raise OverflowRangeError(f"step h={h!r} squared exceeds the double range")
    if math.ldexp(h, 1 - RICHARDSON_LEVELS) ** order == 0.0:
        raise DomainError(f"step h={h!r} underflows to 0 over {RICHARDSON_LEVELS} halving levels")
    within_range(abs(x) + h, "x +- h")

    # Cached, so order 2 takes the centre f(x) once for all its levels.
    @functools.cache
    def f_at(t: float) -> float:
        value = f(t)
        if not math.isfinite(value):
            raise DomainError(f"f must be finite on the stencil, got {value!r} at x={t!r}")
        return value

    def stencil(step: float) -> float:
        if order == 1:
            return (f_at(x + step) - f_at(x - step)) / (2.0 * step)
        return (f_at(x + step) - 2.0 * f_at(x) + f_at(x - step)) / (step * step)

    # Richardson on an even error series: each halving gains a factor 4.
    tableau = [stencil(math.ldexp(h, -i)) for i in range(RICHARDSON_LEVELS)]
    prev_best = tableau[0]
    for col in range(1, RICHARDSON_LEVELS):
        factor = 4.0**col
        tableau = [(factor * b - a) / (factor - 1.0) for a, b in zip(tableau, tableau[1:])]
        err = abs(tableau[-1] - prev_best)
        prev_best = tableau[-1]
    return within_range(prev_best, "derivative"), within_range(err, "derivative error estimate")


@dataclass(frozen=True, eq=False)
class RadialProblem:
    """Radial eigenproblem u'' = (w(r) - q) u on (r_min, r_cut).

    Near the origin w(r) = s(s-1)/r**2 + origin_w0 + origin_w2 r**2 +
    O(r**4), where s is origin_exponent; the outward integration is seeded
    with the three-term Frobenius series u = r**s (1 + c1 r**2 + c2 r**4)
    that this expansion gives, c1 = (origin_w0 - q)/(4s + 2) and
    c2 = ((origin_w0 - q) c1 + origin_w2)/(8s + 12).  npts is the initial
    mesh size (refinement doubles it).  Problems compare and hash by
    identity: the mesh cache keys them so, whatever w is.
    """

    w: Callable[[float], float]
    r_min: float
    r_cut: float
    origin_exponent: float
    npts: int = 4001
    origin_w0: float = 0.0
    origin_w2: float = 0.0

    def __post_init__(self):
        if not callable(self.w):
            raise DomainError(f"w must be callable, got {self.w!r}")
        require_bracket((self.r_min, self.r_cut), "window (r_min, r_cut)")
        require_positive(self.r_min, "r_min")
        if not isinstance(self.npts, int):
            raise DomainError(f"npts must be an integer >= 16, got {self.npts!r}")
        require_index(self.npts, "npts", 16)
        # s and 1 - s both solve s(s - 1) = r^2 w(r) at the origin; the
        # regular solution takes the larger.
        if not 0.5 <= require_finite(self.origin_exponent, "origin_exponent"):
            raise DomainError(
                f"origin_exponent must be finite and >= 1/2, got {self.origin_exponent!r}"
            )
        require_finite(self.origin_w0, "origin_w0")
        require_finite(self.origin_w2, "origin_w2")


@dataclass(frozen=True)
class ShootResult:
    value: float
    npts: int
    refinements: int
    passes: int  # Numerov passes over the first and refined meshes
    # Gap to the previous mesh, per refinement; the last one met tol.
    gaps: tuple[float, ...]
    points: int  # Numerov steps over every mesh, the rungs included


def _numerov_outward(wvals, h, q, s_exp, r_min, kappa, w0=0.0, w2=0.0):
    """March the Numerov recurrence; return (node count, u' + kappa*u at the end).

    The recurrence is carried in Blatt's summed form (J. Comput. Phys. 1,
    382 (1967)): with f = 1 - h^2 (w - q)/12 and y = f u, the second
    difference of y is h^2 (w - q) u, and its running sum D is carried
    instead of forming (12 - 10 f) u, whose cancellation would leave a
    round-off floor near 1e-10 in the level.  Each step tests u's sign once,
    with the rescale check in the branch taken (only u < 0 passes -1e250).
    A node is a step onto +-0 or across a sign (+-inf by its sign, NaN after u < 0).
    """
    # Seed from the three-term Frobenius series u = r^s (1 + c1 r^2 + c2 r^4),
    # with the power law rescaled so both values are representable even
    # when s*log(step ratio) is large.
    r_next = r_min + h
    t = s_exp * math.log(r_next / r_min)
    if t > 300.0:
        u_prev, u_cur = math.exp(-t), 1.0
    else:
        u_prev, u_cur = 1.0, math.exp(t)
    c1 = (w0 - q) / (4.0 * s_exp + 2.0)
    c2 = ((w0 - q) * c1 + w2) / (8.0 * s_exp + 12.0)
    x_prev, x_cur = r_min * r_min, r_next * r_next
    u_prev *= 1.0 + (c1 + c2 * x_prev) * x_prev
    u_cur *= 1.0 + (c1 + c2 * x_cur) * x_cur
    h2 = h * h
    c = h2 / 12.0
    g = wvals[1] - q
    y = (1.0 - c * g) * u_cur
    d = y - (1.0 - c * (wvals[0] - q)) * u_prev
    negative = u_cur < 0.0
    nodes = 0
    for w in islice(wvals, 2, None):
        d += h2 * g * u_cur
        g = w - q
        y += d
        u_prev = u_cur
        u_cur = y / (1.0 - c * g)
        if u_cur < 0.0:
            if not negative:
                nodes, negative = nodes + 1, True
            if u_cur < -1e250:
                u_prev, u_cur, y, d = u_prev / 1e250, u_cur / 1e250, y / 1e250, d / 1e250
        else:
            if negative or u_cur == 0.0:
                nodes, negative = nodes + 1, False
            if u_cur > 1e250:
                u_prev, u_cur, y, d = u_prev / 1e250, u_cur / 1e250, y / 1e250, d / 1e250
    du = (u_cur - u_prev) / h
    return nodes, du + kappa * u_cur


# Brent's method on the tail mismatch stops once the shot record's window
# is at most this many bisection tolerances wide.
_SQUEEZE_XTOLS = 0.25
# A Newton step from the first shot longer than this many bisection
# tolerances is corrected by a secant through the mesh's own two shots.
_NEWTON_XTOLS = 4.0
# The coarsest of the rungs under the first mesh keeps at least this
# many of its intervals.
_RUNG_INTERVALS = 125


# Each live problem's finest mesh of w, as _mesh_w built it.
_FINEST_W: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _mesh_w(problem, doublings):
    """w at the points of the problem's even mesh over [r_min, r_cut]
    with (npts - 1) * 2**doublings intervals, doublings >= 0, in a list
    of the caller's own.

    The problem keeps the finest list built for it, so the levels shot
    on one problem share their meshes: a coarser mesh is a stride of
    the list, a finer one doubles it, evaluating w only at the new
    points.  Those are the points of a fresh mesh bit for bit: with
    x = r_cut - r_min and m intervals, fl(x/2m) = fl(x/m)/2 exactly, so
    fl(2i*fl(x/2m)) = fl(i*fl(x/m)) and both meshes add it to r_min.
    """
    npts = ((problem.npts - 1) << doublings) + 1
    kept = _FINEST_W.get(problem, ())
    finest = kept or _w_at(problem, problem.npts, range(problem.npts))
    while len(finest) < npts:
        doubled = [0.0] * (2 * len(finest) - 1)
        doubled[::2] = finest
        doubled[1::2] = _w_at(problem, len(doubled), range(1, len(doubled), 2))
        finest = doubled
    if len(finest) > len(kept):
        _FINEST_W[problem] = finest
    return finest[:: (len(finest) - 1) // (npts - 1)]


def _w_at(problem, npts, indices):
    """w at the given indices of the even npts-point mesh, as a list; an
    OverflowError of w's own is an OverflowRangeError, and a value that
    is not finite a DomainError naming its r."""
    w, r_min = problem.w, problem.r_min
    h = (problem.r_cut - r_min) / (npts - 1)
    try:
        values = [w(r_min + i * h) for i in indices]
    except OverflowError:
        raise OverflowRangeError(
            f"w overflows on the mesh over [{r_min!r}, {problem.r_cut!r}]"
        ) from None
    # A sum of finite values can overflow too, so only a sum that is not
    # a finite real is searched for the point to name.
    if not _finite_real(values):
        for i, value in zip(indices, values):
            if not _finite_real([value]):
                # An int here is past the double range, and repr of one past
                # 4,300 digits raises.
                got = "an int past the double range" if isinstance(value, int) else repr(value)
                raise DomainError(
                    f"w must be finite and real on the mesh, got {got} at r={r_min + i * h!r}"
                )
    return values


def _finite_real(values):
    """Whether the sum of values is a finite real number: not, say, a
    Decimal sum, whose values need not mix with a Numerov pass's floats,
    nor an int past the double range."""
    try:
        return isinstance(total := sum(values), numbers.Real) and math.isfinite(total)
    except (TypeError, OverflowError):  # a value that does not add, or an int with no float
        return False


def _zeroin(f, a, fa, b, fb, tol):
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


def _replay(lo, hi, xtol, below, above):
    """Replay the bisection of [lo, hi] down to xtol, taking every
    midpoint <= below as below the level and every one >= above as above
    it; return (a, b, mid), the cell reached and the first midpoint left
    undecided (None once the cell is the final one).

    A mesh's value is the midpoint of the final cell, and the cell ends
    the bisection can visit are a fixed lattice, so a shot on it answers
    a midpoint exactly as the bisection would.  With below = above = q
    the replay reaches the final cell that holds q.
    """
    a, b = lo, hi
    while b - a > xtol:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        if mid <= below:
            a = mid
        elif mid >= above:
            b = mid
        else:
            return a, b, mid
    return a, b, None


def _predict(mismatch, guess, slope, lo, hi, xtol):
    """The level a Newton step on the mismatch slope predicts from a shot
    at the lattice point nearest the guess, corrected by a secant through
    a second shot, at the lattice point nearest the step's end, where
    the step is longer than _NEWTON_XTOLS xtol; None where the guess or
    the prediction falls outside (lo, hi), a shot has no mismatch, or
    the slope is 0.  mismatch(q) shoots q and returns its mismatch."""

    def nearest(q):
        a, b, _ = _replay(lo, hi, xtol, q, q)
        return a if q - a <= b - q else b

    if not lo < guess < hi:
        return None
    q0 = nearest(guess)
    m0 = mismatch(q0)
    if m0 is None or slope == 0.0:
        return None
    q = q0 - m0 / slope
    if lo < q < hi and abs(q - q0) > _NEWTON_XTOLS * xtol:
        q1 = nearest(q)
        m1 = mismatch(q1)
        if m1 is None or m1 == m0:
            return None
        q = q1 - m1 * (q1 - q0) / (m1 - m0)
    return q if lo < q < hi else None


def _solve_on_mesh(problem, n, lo, hi, wvals, xtol, tally, guess=None, slope=None, *,
                   rough=False):
    """Bisect the level's predicate over [lo, hi] to xtol on the mesh that
    wvals spans (w at each point, from _mesh_w, or every s-th of them for
    a coarse rung); return (value, slope), the value being the midpoint
    of the bisection's final cell.  Each Numerov pass adds 1 to
    tally["passes"] and its len(wvals) steps to tally["points"].

    The slope is dm/dq of the tail mismatch m through the two shots that
    straddle the level at the end, or None when either has no mismatch.
    Every shot goes into one record: the highest q found below the level
    and the lowest found above it, with their mismatches.  Given the
    guess of the level's chain and the slope of the mesh before (the
    slope moves only at O(h^4) between meshes), the mesh first shoots
    the cell end of the bisection's lattice nearest the guess and a
    Newton step from it (_predict).  A rough mesh, whose value serves
    only as a guess, stops there when those shots straddle the level:
    its value is _predict's level, its slope the secant through the two
    shots.  Otherwise the mesh goes on to shoot those ends of the
    predicted level's final cell that the record does not decide: where
    the guess lies in the level's own cell that is 2 passes.  The ends
    lo and hi are checked against the record, which costs no pass where
    the shots already straddle the level.  Brent's method on the tail
    mismatch then shrinks the record's window until it decides every
    midpoint of the bisection (a midpoint it leaves undecided is shot
    once the window is _SQUEEZE_XTOLS xtol wide, or while an end has no
    mismatch).  For a monotone predicate the record answers each
    midpoint as a shot would, so the value is the same whatever the
    guess and slope: they only choose which q are shot.
    """
    h = (problem.r_cut - problem.r_min) / (len(wvals) - 1)
    w_end = wvals[-1]
    parity = 1.0 if n % 2 == 0 else -1.0
    # Every q <= known_below is below the level, every q >= known_above
    # above it: the shots so far decide those without a pass.  Each end
    # keeps its shot's mismatch where that is continuous through the
    # level (None elsewhere).
    known_below, known_above = -math.inf, math.inf
    mismatch_below = mismatch_above = None

    def above(q: float) -> bool:
        nonlocal known_below, known_above, mismatch_below, mismatch_above
        if q <= known_below:
            return False
        if q >= known_above:
            return True
        tally["passes"] += 1
        tally["points"] += len(wvals)
        # Too-high trial energies show up either as an extra node or, at
        # the right node count, as a tail already bent through zero: the
        # log-derivative combination u' + kappa*u flips sign relative to
        # the parity of the level.  That combination is proportional to
        # the growing exponential's coefficient, so it stays continuous
        # through the tail node that enters r_cut just above the level.
        kappa = math.sqrt(max(w_end - q, 1e-12))
        nodes, g = _numerov_outward(
            wvals, h, q, problem.origin_exponent, problem.r_min, kappa,
            problem.origin_w0, problem.origin_w2,
        )
        if math.isnan(g):
            raise OverflowRangeError(f"the Numerov pass at q={q!r} leaves the double range")
        m = g * parity
        if nodes != n:
            result = nodes > n
            if not (nodes == n + 1 and m < 0.0):
                m = None
        else:
            result = m < 0.0
        if result:
            known_above, mismatch_above = q, m
        else:
            known_below, mismatch_below = q, m
        return result

    def mismatch(q):
        """The mismatch of a shot at q, or None when it has none or q is
        not strictly inside the window."""
        if not known_below < q < known_above:
            return None
        return mismatch_above if above(q) else mismatch_below

    def undecided():
        return _replay(lo, hi, xtol, known_below, known_above)[2]

    def squeeze(q):
        """mismatch(q) while the record leaves a midpoint undecided."""
        return None if undecided() is None else mismatch(q)

    def straddling_slope():
        if mismatch_below is None or mismatch_above is None:
            return None
        return (mismatch_above - mismatch_below) / (known_above - known_below)

    if guess is not None and slope is not None:
        predicted = _predict(mismatch, guess, slope, lo, hi, xtol)
        if predicted is not None:
            if rough and (rough_slope := straddling_slope()) is not None:
                return predicted, rough_slope
            a, b, _ = _replay(lo, hi, xtol, predicted, predicted)
            above(a)
            above(b)
    if above(lo):
        raise NodeCountError(f"lower bracket edge {lo!r} already lies above level n={n}")
    if not above(hi):
        raise NodeCountError(f"upper bracket edge {hi!r} still lies below level n={n}")
    squeezed = _SQUEEZE_XTOLS * xtol
    while (mid := undecided()) is not None:
        if mismatch_below is not None and mismatch_above is not None:
            _zeroin(squeeze, known_below, mismatch_below, known_above, mismatch_above,
                    0.5 * squeezed)
            if (mid := undecided()) is None:
                break
        above(mid)
    a, b, _ = _replay(lo, hi, xtol, known_below, known_above)
    return 0.5 * (a + b), straddling_slope()


def _guess(chain, intervals, order=4.0):
    """The value of a mesh with this many intervals that v(h) = v* + C h^p,
    p = order and h = 1/intervals, predicts through the last two
    (intervals, value) pairs of the chain; the last value where the chain
    has one mesh or the prediction is not finite, and None where it has
    none."""
    if len(chain) < 2:
        return chain[-1][1] if chain else None
    (coarse, v1), (fine, v2) = chain[-2:]
    try:
        guess = v2 + (v1 - v2) * ((fine / intervals) ** order - 1.0) / (
            (fine / coarse) ** order - 1.0
        )
    except OverflowError:
        return v2
    return guess if math.isfinite(guess) else v2


def _order(chain):
    """The order p of v(h) = v* + C h^p that a chain of three meshes, each
    with twice the intervals of the one before, shows:
    p = log2((v1 - v2)/(v2 - v3)).  Numerov's 4 where the chain holds
    another number of meshes, or where that ratio is not above 1 (the
    differences change sign, or do not shrink)."""
    if len(chain) == 3:
        (_, v1), (_, v2), (_, v3) = chain
        if v2 != v3 and (ratio := (v1 - v2) / (v2 - v3)) > 1.0:
            return math.log2(ratio)
    return 4.0


def shoot_eigenvalue(
    problem: RadialProblem,
    n: int,
    bracket: tuple[float, float],
    *,
    tol: float = 1e-9,
    max_refinements: int = 6,
) -> ShootResult:
    """Eigenvalue q of level n (n radial nodes) by outward shooting.

    Bisects the node-count/tail-sign predicate on each mesh of one
    chain, then halves the step until two successive meshes agree to tol
    relative to max(|q|, min(1, max(|lo|, |hi|))): a bracket inside
    (-1, 1) sets the scale of a level below 1.  The chain runs from up to
    three coarse rungs through the first mesh to its refinements.  The
    rungs are every 4s-th, 2s-th and s-th point of the first mesh, with
    4s the largest power of two that divides its intervals and leaves at
    least _RUNG_INTERVALS of them.  A rung of stride 1 is left out, and
    where that leaves one rung there are none.  The coarsest rung is
    solved cold, and every later mesh warm, from a guess and the tail
    mismatch slope of the mesh before.  The finer rungs serve only as
    guesses and are solved rough: their value is the level that the
    Newton and secant shots from their guess predict, where those shots
    straddle it, and they are solved in full elsewhere.  The guess is
    the value that v(h) = v* + C h^p, h = 1/intervals, through the
    chain's last two meshes predicts for the new mesh (the last value
    alone after one mesh, or where that is not finite).  p is the order
    that three rungs show, log2((v1 - v2)/(v2 - v3)), fitted once (at
    125 to 500 intervals it is near 3.9, not 4), and Numerov's 4 with
    fewer rungs or a ratio not above 1.  A rung whose bracket misses the
    level restarts the chain cold at the first mesh.  A mesh's value is
    the midpoint of the final cell of the bisection of the bracket to
    xtol = tol * max(|lo|, |hi|) / 100, and every warm shot lands on
    the lattice of that bisection's cell ends: the end nearest the
    guess, a Newton step from it, then the ends of the predicted level's
    cell that the shots do not decide yet.  A refined mesh's guess
    mostly lies in or next to its level's cell, which then takes 2
    passes.  On every mesh Brent's method on the tail mismatch then
    narrows the level down until the shots decide every midpoint of the
    bisection, which takes them from the shots: a guess or slope changes
    which q are shot, never the value.  A refined mesh evaluates w only
    at its new points, and the problem keeps its finest mesh, so every
    level shot on it reuses the meshes built for the levels before, with
    the same bits.  The result's gaps lists each refinement's mesh gap.
    Its passes count the Numerov passes on the first and refined meshes,
    its points the Numerov steps on every mesh, the rungs included, a
    rung that missed the level too.  Raises NodeCountError when the
    bracket does not straddle the requested level, DomainError when w is
    not a finite real at a mesh point, OverflowRangeError when a pass's tail
    mismatch is NaN and ConvergenceError when mesh refinement stalls.
    """
    require_index(n, "level index")
    require_positive(tol, "shooting tolerance")
    max_refinements = require_index(max_refinements, "max_refinements", 1)
    lo, hi = require_bracket(bracket, "shooting bracket")
    scale = max(abs(lo), abs(hi))
    xtol = tol * scale * 1e-2
    first = _mesh_w(problem, 0)
    intervals, stride = len(first) - 1, 1
    while intervals % (2 * stride) == 0 and intervals // (2 * stride) >= _RUNG_INTERVALS:
        stride *= 2
    strides = [s for s in (stride, stride // 2, stride // 4) if s > 1]
    rungs, meshes = Counter(), Counter()
    chain, slope = [], None  # (intervals, value) of each mesh solved
    try:
        for s in strides if len(strides) > 1 else ():
            wvals = first[::s]
            intervals = len(wvals) - 1
            value, slope = _solve_on_mesh(
                problem, n, lo, hi, wvals, xtol, rungs, _guess(chain, intervals), slope,
                rough=True,
            )
            chain.append((intervals, value))
    except NodeCountError:
        chain, slope = [], None
    order = _order(chain)
    gaps = []
    for refinement in range(max_refinements + 1):
        wvals = _mesh_w(problem, refinement) if refinement else first
        intervals = len(wvals) - 1
        value, slope = _solve_on_mesh(
            problem, n, lo, hi, wvals, xtol, meshes, _guess(chain, intervals, order), slope
        )
        if refinement:
            gap = abs(value - chain[-1][1])
            gaps.append(gap)
            if gap <= tol * max(min(1.0, scale), abs(value)):
                return ShootResult(
                    value=value, npts=len(wvals), refinements=refinement,
                    passes=meshes["passes"], gaps=tuple(gaps),
                    points=rungs["points"] + meshes["points"],
                )
        chain.append((intervals, value))
    raise ConvergenceError(
        f"mesh refinement stalled after {max_refinements} doublings (gap {gap:.3e})",
        estimate=value,
    )


def harmonic_problem(omega: float = 1.0, *, npts: int = 2001) -> RadialProblem:
    """Radial oscillator w(r) = omega^2 r^2; exact q_n = omega*(4n + 3).

    The exact levels make this the standard self-test for the shooting
    machinery (unit mass, p-wave-free ell=0 sector, u ~ r at the origin;
    w has no constant term there, so origin_w0 keeps its default 0, and
    origin_w2 is omega^2).
    The window is (1e-6, 9)/sqrt(omega), so in the variable r sqrt(omega)
    the problem is the same at every omega.  omega^2 must stay within the
    double range: omega below about 1.34e154.
    """
    omega = require_positive(omega, "frequency omega")
    origin_w2 = omega * omega
    if origin_w2 == math.inf:
        raise DomainError(f"frequency omega={omega!r} squared exceeds the double range")
    scale = math.sqrt(omega)
    return RadialProblem(
        w=lambda r: (omega * r) ** 2,
        r_min=1e-6 / scale,
        r_cut=9.0 / scale,
        origin_exponent=1.0,
        npts=npts,
        origin_w2=origin_w2,
    )
