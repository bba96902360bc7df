"""Independent numerical checks: quadrature, differentiation, shooting.

Everything here is algorithmically unrelated to the series/iteration
machinery elsewhere in the package, so agreement between the two routes
is meaningful evidence rather than a tautology.  The module imports
nothing from the closed form, the iterative engine, its jets or the
special functions.  From the package it takes only the error types and
``rootfind.zeroin``, which the shooting search uses to shrink its
window: the level it returns is pinned to what plain bisection of the
shooting predicate gives, so sharing the root finder cannot make the
two routes agree.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from itertools import islice
from typing import Callable

from .errors import (
    ConvergenceError, DomainError, NodeCountError, OverflowRangeError, require_bracket,
    require_choice, require_finite, require_index, require_positive, within_range,
)
from .rootfind import zeroin

__all__ = [
    "RadialProblem",
    "ShootResult",
    "finite_difference",
    "harmonic_problem",
    "integrate_adaptive",
    "shoot_eigenvalue",
]


def integrate_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    tol: float = 1e-12,
    max_depth: int = 48,
) -> float:
    """Adaptive Simpson quadrature of f over [a, b].

    Subdivides until the local Richardson error estimate is below the
    (proportionally split) tolerance.  Exhausting max_depth raises
    ConvergenceError with the best composite value attached; a panel value
    past the double range from finite samples raises OverflowRangeError.
    Midpoints a/2 + b/2 are (a + b)/2 bit for bit wherever a + b does not
    overflow.
    """
    require_bracket((a, b), "integration interval")
    require_positive(tol, "quadrature tolerance")
    require_index(max_depth, "max_depth")
    fa, fb = f(a), f(b)
    m = 0.5 * a + 0.5 * b
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    value, converged = _simpson_recurse(f, a, fa, b, fb, m, fm, whole, tol, max_depth)
    if not converged:
        raise ConvergenceError(
            f"quadrature did not converge within depth {max_depth}", estimate=value
        )
    return within_range(value, "integral")


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
    stages, a usually-pessimistic bound on the truncation error.
    """
    require_choice(order, (1, 2), "derivative order")
    require_positive(h, "step h")
    require_finite(x, "x")
    if math.ldexp(h, 1 - RICHARDSON_LEVELS) ** order == 0.0:
        raise DomainError(f"step h={h!r} underflows to 0 over {RICHARDSON_LEVELS} halving levels")
    within_range(abs(x) + h, "x +- h")

    def stencil(step: float) -> float:
        if order == 1:
            return (f(x + step) - f(x - step)) / (2.0 * step)
        return (f(x + step) - 2.0 * f(x) + f(x - step)) / (step * step)

    # Richardson on an even error series: each halving gains a factor 4.
    tableau = [stencil(math.ldexp(h, -i)) for i in range(RICHARDSON_LEVELS)]
    prev_best = tableau[0]
    for col in range(1, RICHARDSON_LEVELS):
        factor = 4.0**col
        tableau = [(factor * b - a) / (factor - 1.0) for a, b in zip(tableau, tableau[1:])]
        err = abs(tableau[-1] - prev_best)
        prev_best = tableau[-1]
    return prev_best, err


@dataclass(frozen=True)
class RadialProblem:
    """Radial eigenproblem u'' = (w(r) - q) u on (r_min, r_cut).

    Near the origin w(r) = s(s-1)/r**2 + origin_w0 + O(r**2), where s is
    origin_exponent; the outward integration is seeded with the two-term
    Frobenius series u = r**s (1 + c r**2), c = (origin_w0 - q)/(4s + 2),
    that this expansion gives.  npts is the initial mesh size
    (refinement doubles it).
    """

    w: Callable[[float], float]
    r_min: float
    r_cut: float
    origin_exponent: float
    npts: int = 4001
    origin_w0: float = 0.0

    def __post_init__(self):
        require_bracket((self.r_min, self.r_cut), "window (r_min, r_cut)")
        require_positive(self.r_min, "r_min")
        if not (isinstance(self.npts, int) and self.npts >= 16):
            raise DomainError(f"npts must be an int >= 16, got {self.npts!r}")
        # s and 1 - s both solve s(s - 1) = r^2 w(r) at the origin; the
        # regular solution takes the larger.
        if not 0.5 <= self.origin_exponent < math.inf:
            raise DomainError(
                f"origin_exponent must be finite and >= 1/2, got {self.origin_exponent!r}"
            )
        require_finite(self.origin_w0, "origin_w0")


@dataclass(frozen=True)
class ShootResult:
    value: float
    npts: int
    refinements: int
    passes: int  # Numerov passes over the first and refined meshes
    # Gap to the previous mesh, per refinement; the last one met tol.
    gaps: tuple[float, ...]
    points: int  # Numerov steps over every mesh, coarse rungs included


def _numerov_outward(wvals, h, q, s_exp, r_min, kappa, w0=0.0):
    """March the Numerov recurrence; return (node count, u' + kappa*u at the end).

    The recurrence is carried in Blatt's summed form (J. Comput. Phys. 1,
    382 (1967)): with f = 1 - h^2 (w - q)/12 and y = f u, the second
    difference of y is h^2 (w - q) u, and its running sum D is carried
    instead of forming (12 - 10 f) u, whose cancellation would leave a
    round-off floor near 1e-10 in the level.  Each step tests u's sign once,
    with the rescale check in the branch taken (only u < 0 passes -1e250).
    A node is a step onto +-0 or across a sign (+-inf by its sign, NaN after u < 0).
    """
    # Seed from the two-term Frobenius series u = r^s (1 + c r^2), with the
    # power law rescaled so both values are representable even when
    # s*log(step ratio) is large.
    r_next = r_min + h
    t = s_exp * math.log(r_next / r_min)
    if t > 300.0:
        u_prev, u_cur = math.exp(-t), 1.0
    else:
        u_prev, u_cur = 1.0, math.exp(t)
    c_origin = (w0 - q) / (4.0 * s_exp + 2.0)
    u_prev *= 1.0 + c_origin * r_min * r_min
    u_cur *= 1.0 + c_origin * r_next * r_next
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


def _halvings(a, b, width, above):
    """The brackets a bisection of [a, b] passes through: each step keeps
    the half that above(mid) picks, until the bracket is at most width
    wide or its midpoint rounds onto an end."""
    while b - a > width:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            return
        if above(mid):
            b = mid
        else:
            a = mid
        yield a, b


# The first warm search, with no mesh gap yet, stops this many bisection
# tolerances wide.
_FIRST_WARM_XTOLS = 16.0
# A warm search that misses the root widens its bracket by this many
# bisection levels at a time.
_WIDEN_LEVELS = 3
# The squeeze stops once the shot record's window is at most this many
# bisection tolerances wide.
_SQUEEZE_XTOLS = 0.25
# The coarser of the two rungs under the first mesh keeps at least this
# many of its intervals.
_RUNG_INTERVALS = 125


# Each live problem's finest mesh of w, as _mesh_w built it.
_FINEST_W: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _mesh_w(problem, npts):
    """w at the npts points of the even mesh over [r_min, r_cut], in a
    list of the caller's own.

    The problem keeps the finest list built for it, so the levels shot
    on one problem share their meshes.  A mesh with that list's
    intervals times or divided by a power of two takes its values from
    it: a coarser mesh is a stride of the list, a finer one doubles it,
    evaluating w only at the new points.  Those are the points of a
    fresh mesh bit for bit: with x = r_cut - r_min and m intervals,
    fl(x/2m) = fl(x/m)/2 exactly, so fl(2i*fl(x/2m)) = fl(i*fl(x/m))
    and both meshes add it to r_min.
    """
    kept = finest = _FINEST_W.get(problem, ())
    if not (kept and _doublings_apart(len(kept) - 1, npts - 1)):
        finest = _w_at(problem, npts, range(npts))
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
    OverflowError of w's own is an OverflowRangeError."""
    w, r_min = problem.w, problem.r_min
    h = (problem.r_cut - r_min) / (npts - 1)
    try:
        return [w(r_min + i * h) for i in indices]
    except OverflowError:
        raise OverflowRangeError(
            f"w overflows on the mesh over [{r_min!r}, {problem.r_cut!r}]"
        ) from None


def _doublings_apart(m, n):
    """Whether the positive ints m and n differ by a factor 2**k."""
    ratio, rest = divmod(max(m, n), min(m, n))
    return rest == 0 and ratio & (ratio - 1) == 0


def _rung_guess(problem, n, lo, hi, wvals, xtol):
    """A guess for the first mesh from its two coarse rungs; return
    (guess, width, Numerov steps).

    The rungs are the meshes wvals[::2s] and wvals[::s], with 2s the
    largest power of two that divides the first mesh's intervals and
    leaves at least _RUNG_INTERVALS of them.  Their w values are the
    first mesh's own.  The coarse rung is solved cold, the fine one warm
    from it, and the guess is the fine rung's value with twice the gap
    between the two as its width.  Without a pair of rungs, or when a
    rung's bracket misses the level, the guess is None and no steps are
    counted.
    """
    intervals = len(wvals) - 1
    stride = 1
    while intervals % (4 * stride) == 0 and intervals // (4 * stride) >= _RUNG_INTERVALS:
        stride *= 2
    if stride < 2:
        return None, 0.0, 0
    coarse_w, fine_w = wvals[:: 2 * stride], wvals[::stride]
    try:
        coarse, coarse_passes = _solve_on_mesh(problem, n, lo, hi, coarse_w, xtol)
        fine, fine_passes = _solve_on_mesh(
            problem, n, lo, hi, fine_w, xtol, coarse, _FIRST_WARM_XTOLS * xtol
        )
    except NodeCountError:
        return None, 0.0, 0
    steps = coarse_passes * len(coarse_w) + fine_passes * len(fine_w)
    return fine, 2.0 * abs(fine - coarse), steps


def _solve_on_mesh(problem, n, lo, hi, wvals, xtol, guess=None, width=0.0):
    """Bisect the level's predicate over [lo, hi] on the mesh that wvals
    (w at each point, from _mesh_w, or every s-th of them for a coarse
    rung) spans; return (value, Numerov passes).

    Given a guess (a coarse rung's value for the first mesh, the
    previous mesh's for a refined one), the bisection is first replayed
    toward it without shooting, down to the first bracket at most width
    wide; that bracket is shot at both ends and widened up its own
    bisection path until it holds the level.  Brent's method on the tail
    mismatch then shrinks the window the shots leave around the level to
    a fraction of xtol, so the final bisection answers nearly every
    midpoint from the shots.  For a monotone predicate every bracket the
    bisection lands on is one the bisection from [lo, hi] visits, so the
    value is the same whatever the guess.
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
    passes = 0

    def above(q: float) -> bool:
        nonlocal known_below, known_above, mismatch_below, mismatch_above, passes
        if q <= known_below:
            return False
        if q >= known_above:
            return True
        passes += 1
        # Too-high trial energies show up either as an extra node or, at
        # the right node count, as a tail already bent through zero: the
        # log-derivative combination u' + kappa*u flips sign relative to
        # the parity of the level.  That combination is proportional to
        # the growing exponential's coefficient, so it stays continuous
        # through the tail node that enters r_cut just above the level.
        kappa = math.sqrt(max(w_end - q, 1e-12))
        nodes, g = _numerov_outward(
            wvals, h, q, problem.origin_exponent, problem.r_min, kappa, problem.origin_w0
        )
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

    path = [(lo, hi)]
    if guess is not None:
        path += _halvings(lo, hi, max(width, xtol), lambda mid: mid > guess)
    level = len(path) - 1
    while True:
        a, b = path[level]
        if above(a):
            if level == 0:
                raise NodeCountError(f"lower bracket edge {lo!r} already lies above level n={n}")
        elif not above(b):
            if level == 0:
                raise NodeCountError(f"upper bracket edge {hi!r} still lies below level n={n}")
        else:
            break
        level = max(level - _WIDEN_LEVELS, 0)
    # Squeeze the window: zeroin on the ends' mismatches, halving while
    # one of them has none.
    squeezed = _SQUEEZE_XTOLS * xtol
    while known_above - known_below > squeezed:
        if mismatch_below is not None and mismatch_above is not None:
            zeroin(mismatch, known_below, mismatch_below, known_above, mismatch_above,
                    0.5 * squeezed)
            if known_above - known_below <= squeezed:
                break
        mid = 0.5 * (known_below + known_above)
        if not known_below < mid < known_above:
            break
        above(mid)
    for a, b in _halvings(a, b, xtol, above):
        pass
    return 0.5 * (a + b), passes


def shoot_eigenvalue(
    problem: RadialProblem,
    n: int,
    bracket: tuple[float, float],
    *,
    tol: float = 1e-9,
    max_refinements: int = 6,
) -> ShootResult:
    """Eigenvalue q of level n (n radial nodes) by outward shooting.

    Bisects the node-count/tail-sign predicate on each mesh, then halves
    the step until two successive meshes agree to tol (scaled by the
    eigenvalue magnitude).  Every mesh is warm-started.  The first mesh
    starts from the level on two coarse rungs made of its own points
    (see _rung_guess), in a bracket twice their gap wide; it runs cold
    when there is no such pair of rungs or a rung's bracket misses the
    level.  Each refined mesh starts from the previous mesh's value, in
    a bracket twice the last mesh gap wide.  On every mesh Brent's
    method on the tail mismatch narrows the level down before the
    bisection, which then takes its midpoints from those shots and lands
    on the value a bisection of the whole bracket would: a guess changes
    which brackets are shot, never the value.  A refined mesh evaluates
    w only at its new points, and the problem keeps its finest mesh, so
    every level shot on it reuses the meshes built for the levels
    before, with the same bits.  The result's gaps lists each
    refinement's mesh gap.  Its passes count the Numerov passes on the
    first and refined meshes, its points the Numerov steps on every
    mesh, the rungs included.  Raises NodeCountError when the bracket
    does not straddle the requested level and ConvergenceError when
    mesh refinement stalls.
    """
    require_index(n, "level index")
    require_positive(tol, "shooting tolerance")
    max_refinements = require_index(max_refinements, "max_refinements", 1)
    lo, hi = require_bracket(bracket, "shooting bracket")
    xtol = tol * max(1.0, abs(lo), abs(hi)) * 1e-2
    wvals = _mesh_w(problem, problem.npts)
    guess, width, points = _rung_guess(problem, n, lo, hi, wvals, xtol)
    value, passes = _solve_on_mesh(problem, n, lo, hi, wvals, xtol, guess, width)
    points += passes * len(wvals)
    width = _FIRST_WARM_XTOLS * xtol
    gaps = []
    for refinement in range(1, max_refinements + 1):
        wvals = _mesh_w(problem, 2 * len(wvals) - 1)
        new_value, mesh_passes = _solve_on_mesh(problem, n, lo, hi, wvals, xtol, value, width)
        passes += mesh_passes
        points += mesh_passes * len(wvals)
        gap = abs(new_value - value)
        gaps.append(gap)
        value = new_value
        if gap <= tol * max(1.0, abs(new_value)):
            return ShootResult(
                value=value, npts=len(wvals), refinements=refinement, passes=passes,
                gaps=tuple(gaps), points=points,
            )
        width = 2.0 * gap
    raise ConvergenceError(
        f"mesh refinement stalled after {max_refinements} doublings (gap {gap:.3e})",
        estimate=value,
    )


def harmonic_problem(omega: float = 1.0, *, npts: int = 2001) -> RadialProblem:
    """Radial oscillator w(r) = omega^2 r^2; exact q_n = omega*(4n + 3).

    The exact levels make this the standard self-test for the shooting
    machinery (unit mass, p-wave-free ell=0 sector, u ~ r at the origin;
    w has no constant term there, so origin_w0 keeps its default 0).
    """
    require_positive(omega, "frequency omega")
    return RadialProblem(
        w=lambda r: (omega * r) ** 2,
        r_min=1e-6,
        r_cut=9.0 / math.sqrt(omega),
        origin_exponent=1.0,
        npts=npts,
    )
