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
tuples of their Taylor coefficients there; each iteration differentiates
once, so delta_k reads orders 0..k of lambda0 and s0 only, and the
recurrence runs on those, then drops one order a step (step j carries
orders 0..k - j).

The scan parameter E enters s0 only, as a scalar factor: a problem holds
two fixed coefficient tuples and two numbers, and

    s0(E) = s0 * t,    t = (E + e_shift) / e_scale.

Every lambda_j and s_j coefficient is therefore an exact polynomial in t,
and s_j is t times one, so delta_k = t q_k(t) with q_k of degree at most
k (Ciftci, Hall and Saad, J. Phys. A 36, 11807 (2003), treat delta_k as
a function of E the same way).  ``aim_delta`` runs the recurrence at one
E on plain lists of Python floats, each Cauchy product summed in one
fixed order (ascending in lambda0's and s0's index, as in ``jets``), so
its bits do not depend on the machine's BLAS kernel: it is the public
evaluator and the reference.  ``aim_eigen_scan`` runs the recurrence
once per scan, exactly, on coefficients in powers of tau = t - t_c
about the bracket's midpoint t_c, carrying s_j / t, so that delta_k is
exactly 0 where s0 vanishes, and rounds each coefficient of q_k to a
double once, on every platform alike.  On 585 levels of the benchmark's
aim_scan workload (seeds 1-3, 201 and 205, 30 rounds each) the worst
root lies 4.2e-12 from the closed form, against 2.8e-11 with the
recurrence in doubles; plain powers of t round worse still.  The grid,
its re-scans and its bisections all evaluate q_(k-1) and q_k by
Horner's rule in one operation order, so a bisection sees the grid's
bits.  Those values differ from aim_delta's by rounding; a root's
residual is aim_delta's.

Roots of delta_k that correspond to true terminating solutions stay put
as the depth changes; spurious roots drift.  ``aim_eigen_scan``
therefore also locates the roots one level shallower, and reports a
per-root stability gap, flagging drifting roots as not converged.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import mul

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


@dataclass(frozen=True, eq=False)
class AimProblem:
    """Taylor coefficients of order 0..max_order of lambda0 and s0 at the
    expansion point, as two tuples of one length of finite Python floats.

    ``lambda0`` does not depend on the scan parameter E; E enters s0 as
    the scalar factor of ``s0(E) = s0 * ((E + e_shift) / e_scale)``.
    """

    lambda0: tuple[float, ...]
    s0: tuple[float, ...]
    e_shift: float = 0.0
    e_scale: float = 1.0

    def __post_init__(self):
        try:
            if isinstance(self.lambda0, (str, bytes)) or isinstance(self.s0, (str, bytes)):
                raise TypeError  # iterable, but not of coefficients
            lam0, s0 = (tuple(map(float, c)) for c in (self.lambda0, self.s0))
        except (TypeError, ValueError):
            raise DomainError("lambda0 and s0 must be arrays of Taylor coefficients") from None
        except OverflowError:
            raise DomainError(
                "lambda0 and s0 coefficients must be finite, got an int past the double range"
            ) from None
        if len(s0) != len(lam0):
            raise DomainError(f"lambda0 and s0 must be of one length, got {len(lam0)}, {len(s0)}")
        require_index(len(lam0) - 1, "max_order", 1)
        if not all(map(math.isfinite, lam0 + s0)):
            raise DomainError("lambda0 and s0 coefficients must be finite")
        object.__setattr__(self, "lambda0", lam0)
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "e_shift", require_finite(self.e_shift, "e_shift"))
        require_positive(abs(self.e_scale), "|e_scale|")
        object.__setattr__(self, "e_scale", float(self.e_scale))

    @property
    def max_order(self) -> int:
        return len(self.lambda0) - 1


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
    # Values of delta the scan took at single energies, off its grids:
    # its polynomials' in bisections and each root's aim_delta residual.
    # A work count, not a result: reports compare without it.
    delta_evals: int = field(compare=False)

    def converged_roots(self) -> list[float]:
        return [r.value for r in self.roots if r.converged]


def _scalar_recurrence(lam0, s0, k: int) -> tuple[float, float, float, float]:
    """lambda_(k-1), s_(k-1), lambda_k and s_k at x0 from k recurrence
    steps on sequences of Python floats holding the k + 1 orders delta_k
    reads; each step drops the top order, which its derivative leaves
    inexact, so state j carries orders 0..k - j.
    Coefficient i of each Cauchy product is summed from 0.0 as
    acc += lam0[p] * lam[i - p] (s0[p] for s's) for p = 0..i in ascending
    order, so its bits do not depend on the machine, and the next state's
    coefficient i is (i + 1) lam[i + 1] + s[i] + acc, and
    (i + 1) s[i + 1] + acc for s."""
    lam, s = prev_lam, prev_s = lam0, s0
    for m in range(k, 0, -1):
        new_lam, new_s = [], []
        for i in range(m):
            acc_lam = acc_s = 0.0
            for a, b, x in zip(lam0, s0, lam[i::-1]):
                acc_lam += a * x
                acc_s += b * x
            new_lam.append((i + 1) * lam[i + 1] + s[i] + acc_lam)
            new_s.append((i + 1) * s[i + 1] + acc_s)
        prev_lam, prev_s, lam, s = lam, s, new_lam, new_s
    return prev_lam[0], prev_s[0], lam[0], s[0]


def _check_depth(problem: AimProblem, k: int, minimum: int = 1) -> int:
    """k as an int: an integer >= minimum within the problem's max_order."""
    k = require_index(k, "iteration depth", minimum)
    if k > problem.max_order:
        raise DomainError(
            f"depth {k} exceeds the problem's jet order {problem.max_order}; "
            "each iteration consumes one Taylor order"
        )
    return k


def aim_iterate(problem: AimProblem, e: float, k: int) -> tuple[float, float, float]:
    """Run k recurrence steps; return (lambda_k, s_k, delta_k) at x0.

    E must be finite, and a delta_k beyond the double range raises
    OverflowRangeError rather than coming back as inf or NaN.
    """
    k = _check_depth(problem, k)
    t = (require_finite(e, "energy") + problem.e_shift) / problem.e_scale
    s0 = [c * t for c in problem.s0[: k + 1]]
    prev_lam, prev_s, lam, s = _scalar_recurrence(problem.lambda0[: k + 1], s0, k)
    delta = lam * prev_s - prev_lam * s
    if not math.isfinite(delta):
        raise OverflowRangeError(f"delta_{k} at E={e!r} is {delta!r}")
    return lam, s, delta


def aim_delta(problem: AimProblem, e: float, k: int) -> float:
    """Termination indicator delta_k evaluated at the expansion point."""
    return aim_iterate(problem, e, k)[2]


def _delta_polys(problem: AimProblem, lo: float, hi: float, k: int):
    """delta_(k-1) and delta_k over [lo, hi] as two functions of E, each
    taking one float or an array of them, from one recurrence run.

    Each is t q(tau), tau = t - t_c with t_c the t of the bracket's
    midpoint, q evaluated by Horner's rule.  The inputs (orders 0..k of
    lambda0 and s0, and t_c) are doubles, so integers over 2^shift, the
    largest of their denominators; each step multiplies the denominator
    by 2^shift, and q's coefficients are int / int quotients, which
    CPython rounds correctly.  A t_c, a coefficient or a value beyond the
    double range raises OverflowRangeError.  Each function counts its
    calls at one E, not on an array, in ``calls``.
    """
    e_shift, e_scale = problem.e_shift, problem.e_scale
    t_c = (0.5 * lo + 0.5 * hi + e_shift) / e_scale
    past_range = f"on [{lo!r}, {hi!r}] is past the double range"
    if not math.isfinite(t_c):
        raise OverflowRangeError(f"delta_{k} {past_range}")
    ratios = [x.as_integer_ratio() for x in (t_c, *problem.lambda0[: k + 1], *problem.s0[: k + 1])]
    shift = max(d.bit_length() for _, d in ratios) - 1
    t_c_int, *inputs = (n << shift + 1 - d.bit_length() for n, d in ratios)
    lam0, s0 = inputs[: k + 1], inputs[k + 1 :]
    # The states lambda_j and s_j / t times 2^(shift (j + 1)): lists over the
    # power of tau, to degrees ceil(j/2) and floor(j/2), of Taylor orders.
    lam, s = [lam0], [s0]
    heads = [([lam0[0]], [s0[0]])]  # each state's order 0, the value at x0
    for m in range(k, 0, -1):
        zero = [0] * (m + 1)
        new_lam, new_s = [], []
        for x, below, y in zip(lam, [zero, *s], s + [zero]):
            lam_col, s_col = [], []
            for i in range(m):
                tail = x[i::-1]
                lam_col.append(
                    ((i + 1) * x[i + 1] + below[i] << shift) + t_c_int * y[i]
                    + sum(map(mul, lam0, tail))
                )
                s_col.append(((i + 1) * y[i + 1] << shift) + sum(map(mul, s0, tail)))
            new_lam.append(lam_col)
            new_s.append(s_col)
        if len(lam) == len(s):  # j even: tau s_j alone gives the top power
            new_lam.append([y << shift for y in s[-1][:m]])
        lam, s = new_lam, new_s
        heads.append(([x[0] for x in lam], [y[0] for y in s]))

    def polynomial(j, prev, cur):
        denominator = 1 << shift * (2 * j + 1)  # that of both products
        wide = [0] * (j + 1)
        for a, b in ((cur[0], prev[1]), ([-x for x in prev[0]], cur[1])):
            for p, x in enumerate(a):
                for r, y in enumerate(b):
                    wide[p + r] += x * y
        try:
            coeffs = [c / denominator for c in reversed(wide)]
        except OverflowError:
            raise OverflowRangeError(f"delta_{j} {past_range}") from None

        def horner(t):
            tau = t - t_c
            acc = 0.0
            for c in coeffs:
                acc = acc * tau + c
            return t * acc

        def delta(e):
            if isinstance(e, float):
                delta.calls += 1
                value = horner((e + e_shift) / e_scale)
                finite = math.isfinite(value)
            else:
                with np.errstate(over="ignore", invalid="ignore"):  # refused below
                    value = horner((e + e_shift) / e_scale)
                finite = np.isfinite(value).all()
            if not finite:
                raise OverflowRangeError(f"delta_{j} {past_range}")
            return value

        delta.calls = 0
        return delta

    older, prev, cur = heads[-3:]
    return polynomial(k - 1, older, prev), polynomial(k, prev, cur)


def _scan_roots(f, lo, hi, grid, xtol):
    """Bisected roots of f from its values on a grid of ``grid`` nodes
    over [lo, hi], and the indices of cells that follow another
    sign-changing cell."""
    roots, cells = [], []
    nodes = uniform_grid(lo, hi, grid)
    for a, b, fa, fb in sign_change_brackets(f(nodes), lo, hi, grid):
        cells.append(bisect_right(nodes, a) - 1)  # the bracket's left node
        r = bisect(f, a, b, xtol=xtol, fab=(fa, fb))
        if not roots or abs(r - roots[-1]) > 4.0 * xtol:
            roots.append(r)
    return roots, [i for prev, i in zip(cells, cells[1:]) if i == prev + 1]


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

    One recurrence run gives delta_k and delta_(k-1) over the bracket as
    polynomials in E; their values on a uniform grid of ``grid`` nodes
    are bracketed at each sign change and refined with bisection.  Each
    delta_k root is then compared against the roots of delta_(k-1): the
    stability gap is the distance to the nearest shallower root, and a
    root is marked converged when that gap is within STABILITY_TOL
    relative to the root's magnitude.  Exact terminating eigenvalues sit
    at the same position at both depths; spurious roots do not.  Two
    delta_(k-1) roots in one grid cell give no sign change, so a root
    the grid leaves unconverged has delta_(k-1) re-scanned on a finer
    grid around it, and then across its stability window, before it is
    graded, which needs k >= 2.  A bracket with no sign change yields an
    empty report rather than an error; adjacent sign-changing grid cells
    produce a too-coarse warning.
    """
    lo, hi = require_bracket(bracket, "scan bracket")
    k = _check_depth(problem, k, 2)
    grid = require_index(grid, "grid", 2)
    xtol = SCAN_TOL * max(abs(lo), abs(hi), 1.0)
    shallow_delta, deep_delta = _delta_polys(problem, lo, hi, k)
    deep, crowded = _scan_roots(deep_delta, lo, hi, grid, xtol)
    shallow, _ = _scan_roots(shallow_delta, lo, hi, grid, xtol)

    def converged(r):
        return _nearest_gap(r, shallow) <= STABILITY_TOL * max(1.0, abs(r))

    # A root the scan grid leaves unconverged has delta_(k-1) re-scanned
    # finer over the scan cells on either side, then, if still
    # unconverged, across its own stability window, which finds a
    # delta_(k-1) root there even when a second one shares its re-scan
    # cell (aim_scan seed 9 has such a pair 9.2e-4 apart).
    h = (hi - lo) / (grid - 1)
    for r in deep:
        for half_width, cells in ((h, RESCAN_CELLS), (STABILITY_TOL * max(1.0, abs(r)), 1)):
            if not converged(r):
                a, b = max(lo, r - half_width), min(hi, r + half_width)
                found, _ = _scan_roots(shallow_delta, a, b, cells + 1, xtol)
                shallow = sorted(shallow + [s for s in found if _nearest_gap(s, shallow) > 4.0 * xtol])
    graded = tuple(
        AimRoot(value=r, residual=aim_delta(problem, r, k),
                stability_gap=_nearest_gap(r, shallow), converged=converged(r))
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
        delta_evals=shallow_delta.calls + deep_delta.calls + len(graded),
    )
