"""Independent numerical checks: quadrature, differentiation, shooting.

Everything here is deliberately self-contained and algorithmically
unrelated to the series/iteration machinery elsewhere in the package,
so agreement between the two routes is meaningful evidence rather than
a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable

from .errors import ConvergenceError, DomainError, NodeCountError

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
    ConvergenceError with the best composite value attached.
    """
    if not b > a:
        raise DomainError(f"integration interval is empty: [{a!r}, {b!r}]")
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    try:
        return _simpson_recurse(f, a, fa, b, fb, m, fm, whole, tol, max_depth)
    except _DepthExhausted as exc:
        raise ConvergenceError(
            f"quadrature did not converge within depth {max_depth}",
            estimate=exc.partial,
        ) from None


class _DepthExhausted(Exception):
    def __init__(self, partial: float):
        self.partial = partial


def _simpson_recurse(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    diff = left + right - whole
    if abs(diff) <= 15.0 * tol:
        return left + right + diff / 15.0
    if depth <= 0:
        raise _DepthExhausted(left + right + diff / 15.0)
    half = 0.5 * tol
    try:
        lval = _simpson_recurse(f, a, fa, m, fm, lm, flm, left, half, depth - 1)
    except _DepthExhausted as exc:
        raise _DepthExhausted(exc.partial + right) from None
    try:
        rval = _simpson_recurse(f, m, fm, b, fb, rm, frm, right, half, depth - 1)
    except _DepthExhausted as exc:
        raise _DepthExhausted(lval + exc.partial) from None
    return lval + rval


def finite_difference(
    f: Callable[[float], float],
    x: float,
    *,
    order: int = 1,
    h: float = 1e-3,
    levels: int = 4,
) -> tuple[float, float]:
    """Central-difference derivative with Richardson extrapolation.

    Supports order 1 and 2.  Returns (value, error_estimate) where the
    error estimate is the difference between the last two extrapolation
    stages, a usually-pessimistic bound on the truncation error.
    """
    if order not in (1, 2):
        raise DomainError(f"unsupported derivative order {order}")
    if h <= 0.0:
        raise DomainError("step must be positive")
    if levels < 2:
        raise DomainError("need at least two levels to estimate the error")

    def stencil(step: float) -> float:
        if order == 1:
            return (f(x + step) - f(x - step)) / (2.0 * step)
        return (f(x + step) - 2.0 * f(x) + f(x - step)) / (step * step)

    # Richardson on an even error series: each halving gains a factor 4.
    tableau = [stencil(h / 2.0**i) for i in range(levels)]
    prev_best = tableau[0]
    for col in range(1, levels):
        factor = 4.0**col
        tableau = [
            (factor * tableau[i + 1] - tableau[i]) / (factor - 1.0)
            for i in range(len(tableau) - 1)
        ]
        err = abs(tableau[-1] - prev_best)
        prev_best = tableau[-1]
    return prev_best, err


@dataclass(frozen=True)
class RadialProblem:
    """Radial eigenproblem u'' = (w(r) - q) u on (r_min, r_cut).

    origin_exponent is the power s in the near-origin behavior
    u ~ r**s used to seed the outward integration; npts is the initial
    mesh size (refinement doubles it).
    """

    w: Callable[[float], float]
    r_min: float
    r_cut: float
    origin_exponent: float
    npts: int = 4001

    def __post_init__(self):
        if not (self.r_cut > self.r_min > 0.0):
            raise DomainError(
                f"need 0 < r_min < r_cut, got ({self.r_min!r}, {self.r_cut!r})"
            )
        if self.npts < 16:
            raise DomainError("mesh too coarse")


@dataclass(frozen=True)
class ShootResult:
    value: float
    nodes: int
    npts: int
    refinements: int
    mesh_gap: float
    passes: int  # Numerov passes over all meshes


def _numerov_outward(wvals, h, q, s_exp, r_min, kappa):
    """March the Numerov recurrence; return (node count, u' + kappa*u at the end)."""
    # Seed from the power-law behavior, rescaled so both values are
    # representable even when s*log(step ratio) is large.
    t = s_exp * math.log((r_min + h) / r_min)
    if t > 300.0:
        u_prev, u_cur = math.exp(-t), 1.0
    else:
        u_prev, u_cur = 1.0, math.exp(t)
    c = h * h / 12.0
    f_prev = 1.0 - c * (wvals[0] - q)
    f_cur = 1.0 - c * (wvals[1] - q)
    negative = u_cur < 0.0
    nodes = 0
    for w in islice(wvals, 2, None):
        f_next = 1.0 - c * (w - q)
        u_next = ((12.0 - 10.0 * f_cur) * u_cur - f_prev * u_prev) / f_next
        next_negative = u_next < 0.0
        if u_next == 0.0 or next_negative != negative:
            nodes += 1
        negative = next_negative
        if u_next > 1e250 or u_next < -1e250:
            u_prev, u_cur, u_next = u_prev / 1e250, u_cur / 1e250, u_next / 1e250
        u_prev, u_cur = u_cur, u_next
        f_prev, f_cur = f_cur, f_next
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


def _solve_on_mesh(problem, n, lo, hi, npts, xtol, guess=None, width=0.0):
    """Bisect the level's predicate over [lo, hi] on an npts mesh; return
    (value, Numerov passes).

    Given a guess, the bisection is first replayed toward it without
    shooting, down to the first bracket at most width wide; that bracket
    is shot at both ends and widened up its own bisection path until it
    holds the level.  For a monotone predicate every bracket it lands on
    is one the bisection from [lo, hi] visits, so the value is the same.
    """
    h = (problem.r_cut - problem.r_min) / (npts - 1)
    wvals = [problem.w(problem.r_min + i * h) for i in range(npts)]
    w_end = wvals[-1]
    # Every q <= known_below is below the level, every q >= known_above
    # above it: the shots so far decide those without a pass.
    known_below, known_above = -math.inf, math.inf
    passes = 0

    def above(q: float) -> bool:
        nonlocal known_below, known_above, passes
        if q <= known_below:
            return False
        if q >= known_above:
            return True
        passes += 1
        # Too-high trial energies show up either as an extra node or, at
        # the right node count, as a tail already bent through zero: the
        # log-derivative combination u' + kappa*u flips sign relative to
        # the parity of the level.
        kappa = math.sqrt(max(w_end - q, 1e-12))
        nodes, g = _numerov_outward(wvals, h, q, problem.origin_exponent, problem.r_min, kappa)
        if nodes != n:
            result = nodes > n
        else:
            parity = 1.0 if n % 2 == 0 else -1.0
            result = g * parity < 0.0
        if result:
            known_above = q
        else:
            known_below = q
        return result

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
    eigenvalue magnitude).  Each refined mesh is warm-started: its search
    starts from the previous mesh's value, in a bracket twice the last
    mesh gap wide, and lands on the value a bisection of the whole
    bracket would.  Raises NodeCountError when the bracket does not
    straddle the requested level and ConvergenceError when mesh
    refinement stalls.
    """
    if n < 0:
        raise DomainError(f"level index must be >= 0, got {n}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"shooting tolerance must be finite and > 0, got {tol!r}")
    if not (isinstance(max_refinements, int) and max_refinements >= 1):
        raise DomainError(f"max_refinements must be an int >= 1, got {max_refinements!r}")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise DomainError(f"empty shooting bracket ({lo!r}, {hi!r})")
    xtol = tol * max(1.0, abs(lo), abs(hi)) * 1e-2
    npts = problem.npts
    value, passes = _solve_on_mesh(problem, n, lo, hi, npts, xtol)
    width = _FIRST_WARM_XTOLS * xtol
    for refinement in range(1, max_refinements + 1):
        npts = 2 * npts - 1
        new_value, mesh_passes = _solve_on_mesh(problem, n, lo, hi, npts, xtol, value, width)
        passes += mesh_passes
        gap = abs(new_value - value)
        value = new_value
        if gap <= tol * max(1.0, abs(new_value)):
            return ShootResult(
                value=value,
                nodes=n,
                npts=npts,
                refinements=refinement,
                mesh_gap=gap,
                passes=passes,
            )
        width = 2.0 * gap
    raise ConvergenceError(
        f"mesh refinement stalled after {max_refinements} doublings (gap {gap:.3e})",
        estimate=value,
    )


def harmonic_problem(omega: float = 1.0, *, npts: int = 2001) -> RadialProblem:
    """Radial oscillator w(r) = omega^2 r^2; exact q_n = omega*(4n + 3).

    The exact levels make this the standard self-test for the shooting
    machinery (unit mass, p-wave-free ell=0 sector, u ~ r at the origin).
    """
    if omega <= 0.0:
        raise DomainError("frequency must be positive")
    return RadialProblem(
        w=lambda r: (omega * r) ** 2,
        r_min=1e-6,
        r_cut=9.0 / math.sqrt(omega),
        origin_exponent=1.0,
        npts=npts,
    )
