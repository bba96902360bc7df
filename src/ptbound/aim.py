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
truncated Taylor jets; each iteration differentiates once, so a depth-k
run needs jets of order at least k, and factories in this package
default to 2k + 8 to keep ample headroom.

The scan parameter E enters s0 only, as a scalar factor: a problem holds
two fixed jets and two numbers, and

    s0(E) = s0 * ((E + e_shift) / e_scale),

so the coefficients at a whole grid of E values are one broadcast.

Roots of delta_k that correspond to true terminating solutions stay put
as the depth changes; spurious roots drift.  ``aim_eigen_scan``
therefore also locates the roots one level shallower, from the same
recurrence pass over its scan grid, and reports a per-root stability
gap, flagging drifting roots as not converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, JetMismatchError, OverflowRangeError
from .jets import SeriesJet
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


@dataclass(frozen=True)
class AimProblem:
    """Canonical coefficient jets of order max_order about x0.

    ``lambda0`` does not depend on the scan parameter E; E enters s0 as
    the scalar factor of ``s0(E) = s0 * ((E + e_shift) / e_scale)``.
    Both jets share the expansion point x0 and the order max_order.
    """

    lambda0: SeriesJet
    s0: SeriesJet
    e_shift: float = 0.0
    e_scale: float = 1.0

    def __post_init__(self):
        for jet in (self.lambda0, self.s0):
            if not isinstance(jet, SeriesJet):
                raise DomainError(f"coefficients must be SeriesJet, got {type(jet).__name__}")
        if self.s0.x0 != self.x0:
            raise JetMismatchError(f"s0 is expanded at x0={self.s0.x0!r}, lambda0 at {self.x0!r}")
        if self.s0.order != self.max_order:
            raise JetMismatchError(f"s0 has order {self.s0.order}, lambda0 has {self.max_order}")
        if self.max_order < 1:
            raise DomainError(f"max_order must be >= 1, got {self.max_order}")
        if not math.isfinite(self.e_shift):
            raise DomainError(f"e_shift must be finite, got {self.e_shift!r}")
        if not (math.isfinite(self.e_scale) and self.e_scale != 0.0):
            raise DomainError(f"e_scale must be finite and nonzero, got {self.e_scale!r}")

    @property
    def x0(self) -> float:
        return self.lambda0.x0

    @property
    def max_order(self) -> int:
        return self.lambda0.order


@dataclass(frozen=True)
class AimRoot:
    value: float
    residual: float
    stability_gap: float
    converged: bool


@dataclass(frozen=True)
class AimScanReport:
    k_used: int
    bracket: tuple[float, float]
    grid: int
    roots: tuple[AimRoot, ...]
    shallow_roots: tuple[float, ...]
    warnings: tuple[str, ...] = field(default=())
    # Scalar aim_delta evaluations the scan made: bisection, re-scan and
    # residuals.  A work count, not a result: reports compare without it.
    delta_evals: int = field(default=0, compare=False)

    def converged_roots(self) -> list[float]:
        return [r.value for r in self.roots if r.converged]


def _columns_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Cauchy product of two (n, columns) coefficient arrays,
    truncated to n coefficients."""
    n = a.shape[0]
    out = a[:1] * b
    for j in range(1, n):
        out[j:] += a[j : j + 1] * b[: n - j]
    return out


def _recurrence(lam0: np.ndarray, s0: np.ndarray, k: int, mul):
    """[(lambda_j, s_j) for j = 0..k] as coefficient arrays whose first axis
    is the Taylor order; mul is the Cauchy product along that axis, cut
    here to the n orders carried."""
    shape = lam0.shape
    n = shape[0]
    ramp = np.arange(1, n, dtype=float).reshape((n - 1,) + (1,) * (lam0.ndim - 1))
    states = [(lam0, s0)]
    for _ in range(k):
        lam, s = states[-1]
        dlam = np.zeros(shape)
        dlam[:-1] = ramp * lam[1:]
        ds = np.zeros(shape)
        ds[:-1] = ramp * s[1:]
        states.append((dlam + s + mul(lam0, lam)[:n], ds + mul(s0, lam)[:n]))
    return states


def _delta(prev, cur):
    """lambda_k s_{k-1} - lambda_{k-1} s_k at the expansion point, from the
    states (lambda_{k-1}, s_{k-1}) and (lambda_k, s_k)."""
    return cur[0][0] * prev[1][0] - prev[0][0] * cur[1][0]


def _check_depth(problem: AimProblem, k: int) -> None:
    if k < 1:
        raise DomainError(f"iteration depth must be >= 1, got {k}")
    if k > problem.max_order:
        raise DomainError(
            f"depth {k} exceeds the problem's jet order {problem.max_order}; "
            "each iteration consumes one Taylor order"
        )


def aim_iterate(problem: AimProblem, e: float, k: int):
    """Run k recurrence steps; return (lambda_k, s_k, delta_k at x0).

    E must be finite, and a delta_k beyond the double range raises
    OverflowRangeError rather than coming back as inf or NaN.
    """
    _check_depth(problem, k)
    if not math.isfinite(e):
        raise DomainError(f"energy must be finite, got {e!r}")
    s0 = problem.s0.coeffs * ((e + problem.e_shift) / problem.e_scale)
    # np.convolve is jets.jet_mul's product: the values are the jet route's.
    prev, cur = _recurrence(problem.lambda0.coeffs, s0, k, np.convolve)[-2:]
    delta = float(_delta(prev, cur))
    if not math.isfinite(delta):
        raise OverflowRangeError(f"delta_{k} at E={e!r} is {delta!r}")
    return SeriesJet(cur[0], problem.x0), SeriesJet(cur[1], problem.x0), delta


def aim_delta(problem: AimProblem, e: float, k: int) -> float:
    """Termination indicator delta_k evaluated at the expansion point."""
    return aim_iterate(problem, e, k)[2]


def _delta_grid(problem: AimProblem, es: np.ndarray, k: int):
    """(delta_{k-1}, delta_k) at every E in es, from one recurrence pass.

    Column i of the coefficient arrays holds the jets at es[i], cut to the
    k + 1 orders delta_k depends on: a step's coefficient m reads orders
    up to m + 1 of the step before, so k steps leave order 0 exact.
    """
    n = k + 1
    s0 = problem.s0.coeffs[:n, None] * ((es + problem.e_shift) / problem.e_scale)
    lam0 = np.broadcast_to(problem.lambda0.coeffs[:n, None], s0.shape)
    older, prev, cur = _recurrence(lam0, s0, k, _columns_mul)[-3:]
    return _delta(older, prev), _delta(prev, cur)


def _scan_roots(f, fx, lo, hi, grid, xtol):
    """Bisected roots of f, the scalar delta_k, from its values fx on the
    scan grid, and the indices of cells that follow another
    sign-changing cell."""
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
        r = a if a == b else bisect(f, a, b, xtol=xtol, fab=(fa, fb))
        if not roots or abs(r - roots[-1]) > 4.0 * xtol:
            roots.append(r)
    return roots, crowded


def _rescan_shallow(problem, f, r, h, lo, hi, k, xtol):
    """Roots of f, the scalar delta_(k-1), on a RESCAN_CELLS-cell grid
    over the scan cells on either side of r, clipped to the bracket
    [lo, hi]."""
    a, b = max(lo, r - h), min(hi, r + h)
    shallow, _ = _delta_grid(problem, uniform_grid(a, b, RESCAN_CELLS + 1), k)
    return _scan_roots(f, shallow, a, b, RESCAN_CELLS + 1, xtol)[0]


def _nearest_gap(r: float, roots) -> float:
    return min((abs(r - s) for s in roots), default=float("inf"))


def aim_eigen_scan(
    problem: AimProblem,
    bracket: tuple[float, float],
    k: int,
    *,
    tol: float = 1e-12,
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
    graded.  A bracket with no sign change
    yields an empty report rather than an error; adjacent sign-changing
    grid cells produce a too-coarse warning.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise DomainError(f"scan bracket must be finite and nonempty, got ({lo!r}, {hi!r})")
    if k < 2:
        raise DomainError("stability grading needs depth k >= 2")
    _check_depth(problem, k)
    scale = max(abs(lo), abs(hi), 1.0)
    xtol = tol * scale
    evals = 0

    def delta(depth):
        def f(e):
            nonlocal evals
            evals += 1
            return aim_delta(problem, e, depth)

        return f

    deep_delta, shallow_delta = delta(k), delta(k - 1)
    shallow_fx, deep_fx = _delta_grid(problem, uniform_grid(lo, hi, grid), k)
    deep, crowded = _scan_roots(deep_delta, deep_fx, lo, hi, grid, xtol)
    shallow, _ = _scan_roots(shallow_delta, shallow_fx, lo, hi, grid, xtol)

    def converged(r):
        return _nearest_gap(r, shallow) <= STABILITY_TOL * max(1.0, abs(r))

    h = (hi - lo) / (grid - 1)
    for r in deep:
        if not converged(r):
            found = _rescan_shallow(problem, shallow_delta, r, h, lo, hi, k, xtol)
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
        k_used=k,
        bracket=(lo, hi),
        grid=grid,
        roots=graded,
        shallow_roots=tuple(shallow),
        warnings=warnings,
        delta_evals=evals,
    )
