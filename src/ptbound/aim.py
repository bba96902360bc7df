"""Iterative eigenvalue engine for linear second-order ODEs.

Works on equations brought to the canonical form

    y'' = lambda0(x) y' + s0(x) y

(terms moved to the right-hand side; an equation written as
``y'' + P y' + Q y = 0`` therefore has lambda0 = -P, s0 = -Q).  The
coefficient sequence

    lambda_k = lambda_{k-1}' + s_{k-1} + lambda0 * lambda_{k-1}
    s_k      = s_{k-1}'      + s0 * lambda_{k-1}

terminates for exactly solvable problems, and eigenvalues are located as
roots of the termination indicator

    delta_k(x0; E) = lambda_k s_{k-1} - lambda_{k-1} s_k

evaluated at the expansion point.  Coefficient functions are carried as
arrays of their Taylor coefficients there; each iteration differentiates
once, so delta_k reads orders 0..k of lambda0 and s0 only, and the
recurrence runs on those, then drops one order a step (step j carries
orders 0..k - j).  The kept orders keep their bits: np.convolve, whose
core the scalar passes call, and the batched product sum each
coefficient below the shorter factor's top order alike at any length.
Only the top coefficient of equal-length factors is summed otherwise,
so ``schrodinger.pt_aim_problem`` still builds order 2k + 8: its
quotient lambda0 built at order k would change in the last bit at
order k, and scan roots with it.

The scan parameter E enters s0 only, as a scalar factor: a problem holds
two fixed coefficient arrays and two numbers, and

    s0(E) = s0 * ((E + e_shift) / e_scale),

so the coefficients at a whole grid of E values are one broadcast.

Roots of delta_k that correspond to true terminating solutions stay put
as the depth changes; spurious roots drift.  ``aim_eigen_scan``
therefore also locates the roots one level shallower, and reports a
per-root stability gap, flagging drifting roots as not converged.  One
pass over the scan grid gives both depths there.  Each scalar pass that
bisects a delta_k root also gives delta_(k-1) at its E.  The shallow
bisections take that value wherever they evaluate the same E, and seed
their squeeze with all such values (rootfind.bisect's ``known``), so a
delta_(k-1) root on a delta_k root nearly always runs no pass of its
own: all but 2 of 2,110 on the benchmark's aim_scan seeds 1-13 and
201-210, where 45% of shallow evaluations are answered from the deep
passes and the rest run a depth k-1 pass of their own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError, OverflowRangeError, require_bracket, require_finite, require_index,
    require_positive,
)
from .rootfind import bisect, sign_change_brackets, uniform_grid

__all__ = [
    "AimProblem",
    "AimRoot",
    "AimScanReport",
    "aim_delta",
    "aim_eigen_scan",
    "aim_iterate",
]

# Cells of the finer delta_(k-1) grid laid over the two scan cells around
# a root that the scan grid leaves unconverged.
RESCAN_CELLS = 64
# A delta_k root is converged when the nearest delta_(k-1) root lies
# within this distance relative to max(1, |root|).
STABILITY_TOL = 1e-8
# Scan roots are bisected to this tolerance relative to max(1, |lo|, |hi|).
SCAN_TOL = 1e-12


@dataclass(frozen=True)
class AimProblem:
    """Taylor coefficients of order 0..max_order of lambda0 and s0 at the
    expansion point, as two finite 1-d float arrays of one length.

    ``lambda0`` does not depend on the scan parameter E; E enters s0 as
    the scalar factor of ``s0(E) = s0 * ((E + e_shift) / e_scale)``.
    """

    lambda0: np.ndarray
    s0: np.ndarray
    e_shift: float = 0.0
    e_scale: float = 1.0

    def __post_init__(self):
        try:
            lam0, s0 = (np.asarray(c, dtype=float) for c in (self.lambda0, self.s0))
        except (TypeError, ValueError):
            raise DomainError("lambda0 and s0 must be arrays of Taylor coefficients") from None
        if lam0.ndim != 1 or s0.shape != lam0.shape:
            raise DomainError(
                f"lambda0 and s0 must be 1-d and of one length, got {lam0.shape}, {s0.shape}"
            )
        require_index(lam0.size - 1, "max_order", 1)
        if not (np.isfinite(lam0).all() and np.isfinite(s0).all()):
            raise DomainError("lambda0 and s0 coefficients must be finite")
        object.__setattr__(self, "lambda0", lam0)
        object.__setattr__(self, "s0", s0)
        require_finite(self.e_shift, "e_shift")
        require_positive(abs(self.e_scale), "|e_scale|")

    def __eq__(self, other):
        return isinstance(other, AimProblem) and self._value() == other._value()

    def __hash__(self):
        return hash(self._value())

    def _value(self):  # + 0.0 turns -0.0 into 0.0, which compares equal to it
        return *((c + 0.0).tobytes() for c in (self.lambda0, self.s0)), self.e_shift, self.e_scale

    @property
    def max_order(self) -> int:
        return self.lambda0.size - 1


@dataclass(frozen=True)
class AimRoot:
    value: float
    residual: float
    stability_gap: float
    converged: bool


@dataclass(frozen=True)
class AimScanReport:
    roots: tuple[AimRoot, ...]
    shallow_roots: tuple[float, ...]
    warnings: tuple[str, ...]
    # Scalar recurrence passes the scan ran: bisection, re-scan and
    # residuals.  A depth-k pass also gives delta_(k-1) at its E, so a
    # shallow value found that way runs none.  A work count, not a
    # result: reports compare without it.
    delta_evals: int = field(compare=False)

    def converged_roots(self) -> list[float]:
        return [r.value for r in self.roots if r.converged]


def _columns_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Cauchy product of two (orders, columns) coefficient
    arrays, truncated to b's orders; a has at least as many."""
    n = b.shape[0]
    out = a[:1] * b
    for j in range(1, n):
        out[j:] += a[j : j + 1] * b[: n - j]
    return out


def _series_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.convolve(a, b), jets.jet_mul's product, bit for bit when a is
    at least as long as b: the same correlation of a with b reversed,
    without np.convolve's argument wrapping."""
    return np.correlate(a, b[::-1], "full")


@functools.cache
def _ramp(k: int, ndim: int) -> np.ndarray:
    """1.0..k down the first of ndim axes, read-only: derivative factors."""
    ramp = np.arange(1.0, k + 1).reshape((k,) + (1,) * (ndim - 1))
    ramp.flags.writeable = False
    return ramp


def _recurrence(lam0: np.ndarray, s0: np.ndarray, k: int, mul):
    """The last (up to three) states (lambda_j, s_j), j = 0..k, as arrays
    whose first axis is the Taylor order; mul(a, b) is the Cauchy product
    along it, kept below b's top order.  The inputs carry the k + 1
    orders delta_k reads, and each step drops the top order, which its
    derivative leaves inexact: state j carries orders 0..k - j."""
    ramp = _ramp(k, lam0.ndim)
    states = [(lam0, s0)]
    for m in range(k, 0, -1):
        lam, s = states[-1]
        r = ramp[:m]
        new_lam = r * lam[1:]
        new_lam += s[:m]
        new_lam += mul(lam0, lam)[:m]
        new_s = r * s[1:]
        new_s += mul(s0, lam)[:m]
        states.append((new_lam, new_s))
    return states[-3:]


def _delta(prev, cur):
    """lambda_k s_{k-1} - lambda_{k-1} s_k at the expansion point, from the
    states (lambda_{k-1}, s_{k-1}) and (lambda_k, s_k)."""
    return cur[0][0] * prev[1][0] - prev[0][0] * cur[1][0]


def _check_depth(problem: AimProblem, k: int, minimum: int = 1) -> int:
    """k as an int: an integer >= minimum within the problem's max_order."""
    k = require_index(k, "iteration depth", minimum)
    if k > problem.max_order:
        raise DomainError(
            f"depth {k} exceeds the problem's jet order {problem.max_order}; "
            "each iteration consumes one Taylor order"
        )
    return k


def _scalar_pass(problem: AimProblem, e: float, k: int):
    """The last (up to three) recurrence states at one finite E, and
    delta_k from them, which must be finite."""
    require_finite(e, "energy")
    s0 = problem.s0[: k + 1] * ((e + problem.e_shift) / problem.e_scale)
    states = _recurrence(problem.lambda0[: k + 1], s0, k, _series_mul)
    delta = float(_delta(*states[-2:]))
    if not math.isfinite(delta):
        raise OverflowRangeError(f"delta_{k} at E={e!r} is {delta!r}")
    return states, delta


def aim_iterate(problem: AimProblem, e: float, k: int) -> tuple[float, float, float]:
    """Run k recurrence steps; return (lambda_k, s_k, delta_k) at x0.

    E must be finite, and a delta_k beyond the double range raises
    OverflowRangeError rather than coming back as inf or NaN.
    """
    k = _check_depth(problem, k)
    states, delta = _scalar_pass(problem, e, k)
    lam, s = states[-1]
    return float(lam[0]), float(s[0]), delta


def aim_delta(problem: AimProblem, e: float, k: int) -> float:
    """Termination indicator delta_k evaluated at the expansion point."""
    return aim_iterate(problem, e, k)[2]


def _scalar_deltas(problem: AimProblem, e: float, k: int) -> tuple[float, float]:
    """(delta_(k-1), delta_k) at E from one scalar depth-k pass, k >= 2.

    delta_k is aim_delta(problem, e, k), raising where it raises.
    delta_(k-1) has the bits of aim_delta(problem, e, k - 1) where that
    is finite, and is inf or NaN where it raises.  It is formed from
    Python floats, whose overflow does not warn, so the pass warns only
    where aim_delta at depth k would.
    """
    (older, prev, _), delta = _scalar_pass(problem, e, k)
    shallow = float(prev[0][0]) * float(older[1][0]) - float(older[0][0]) * float(prev[1][0])
    return shallow, delta


def _delta_grid(problem: AimProblem, es: np.ndarray, k: int):
    """(delta_{k-1}, delta_k) at every E in es, from one recurrence pass.

    Column i of the coefficient arrays holds the coefficients at es[i].
    """
    s0 = problem.s0[: k + 1, None] * ((es + problem.e_shift) / problem.e_scale)
    lam0 = np.broadcast_to(problem.lambda0[: k + 1, None], s0.shape)
    older, prev, cur = _recurrence(lam0, s0, k, _columns_mul)
    return _delta(older, prev), _delta(prev, cur)


def _scan_roots(f, fx, lo, hi, grid, xtol, known):
    """Bisected roots of f, the scalar delta_k, from its values fx on the
    scan grid, and the indices of cells that follow another
    sign-changing cell.  ``known`` holds values of f at other points,
    which seed each bisection's squeeze."""
    roots = []
    crowded = []
    cells = sign_change_brackets(fx, lo, hi, grid)
    h = (hi - lo) / grid
    prev_cell_index = None
    for a, b, fa, fb in cells:
        cell_index = int((a - lo) / h) if h > 0 else 0
        if prev_cell_index is not None and cell_index == prev_cell_index + 1:
            crowded.append(cell_index)
        prev_cell_index = cell_index
        r = a if a == b else bisect(f, a, b, xtol=xtol, fab=(fa, fb), known=known)
        if not roots or abs(r - roots[-1]) > 4.0 * xtol:
            roots.append(r)
    return roots, crowded


def _rescan_shallow(problem, f, r, h, lo, hi, k, xtol, known):
    """Roots of f, the scalar delta_(k-1), on a RESCAN_CELLS-cell grid
    over the scan cells on either side of r, clipped to the bracket
    [lo, hi]; ``known`` as for _scan_roots."""
    a, b = max(lo, r - h), min(hi, r + h)
    shallow, _ = _delta_grid(problem, uniform_grid(a, b, RESCAN_CELLS + 1), k)
    return _scan_roots(f, shallow, a, b, RESCAN_CELLS + 1, xtol, known)[0]


def _nearest_gap(r: float, roots) -> float:
    return min((abs(r - s) for s in roots), default=float("inf"))


def aim_eigen_scan(
    problem: AimProblem,
    bracket: tuple[float, float],
    k: int,
    *,
    grid: int = 512,
) -> AimScanReport:
    """Locate roots of delta_k over a bracket and grade their stability.

    One recurrence pass gives delta_k and delta_(k-1) on a uniform grid
    of ``grid`` nodes; the sign changes of each are refined with
    bisection.  Each delta_k root is then compared against the roots of
    delta_(k-1): the stability gap is the distance to the nearest
    shallower root, and a root is marked converged when that gap is
    within STABILITY_TOL relative to the root's magnitude.  Exact
    terminating eigenvalues sit at the same position at both depths;
    spurious roots do not.  Two delta_(k-1) roots in one grid cell give
    no sign change, so a root the grid leaves unconverged has
    delta_(k-1) re-scanned on a finer grid around it before it is
    graded, which needs k >= 2.  A bracket with no sign change yields an
    empty report rather than an error; adjacent sign-changing grid cells
    produce a too-coarse warning.
    """
    lo, hi = require_bracket(bracket, "scan bracket")
    k = _check_depth(problem, k, 2)
    grid = require_index(grid, "grid", 2)
    scale = max(abs(lo), abs(hi), 1.0)
    xtol = SCAN_TOL * scale
    evals = 0
    # delta_(k-1) at each E where a depth-k pass ran.  Only finite values
    # are kept: elsewhere the shallow pass runs and raises as aim_delta
    # does, which rootfind's squeeze takes as no value.  The shallow
    # bisections look values up here and seed their squeeze from it.
    recorded = {}

    def deep_delta(e):
        nonlocal evals
        evals += 1
        shallow, deep = _scalar_deltas(problem, e, k)
        if math.isfinite(shallow):
            recorded[e] = shallow
        return deep

    def shallow_delta(e):
        nonlocal evals
        value = recorded.get(e)
        if value is None:
            evals += 1
            value = aim_delta(problem, e, k - 1)
        return value

    shallow_fx, deep_fx = _delta_grid(problem, uniform_grid(lo, hi, grid), k)
    deep, crowded = _scan_roots(deep_delta, deep_fx, lo, hi, grid, xtol, {})
    shallow, _ = _scan_roots(shallow_delta, shallow_fx, lo, hi, grid, xtol, recorded)

    def converged(r):
        return _nearest_gap(r, shallow) <= STABILITY_TOL * max(1.0, abs(r))

    h = (hi - lo) / (grid - 1)
    for r in deep:
        if not converged(r):
            found = _rescan_shallow(problem, shallow_delta, r, h, lo, hi, k, xtol, recorded)
            shallow = sorted(shallow + [s for s in found if _nearest_gap(s, shallow) > 4.0 * xtol])
    graded = tuple(
        AimRoot(
            value=r,
            residual=deep_delta(r),
            stability_gap=_nearest_gap(r, shallow),
            converged=converged(r),
        )
        for r in deep
    )
    warnings = tuple(
        f"adjacent sign changes in scan cells {i - 1} and {i}; grid may be too coarse"
        for i in crowded
    )
    return AimScanReport(
        roots=graded,
        shallow_roots=tuple(shallow),
        warnings=warnings,
        delta_evals=evals,
    )
