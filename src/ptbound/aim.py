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
once per scan, in long doubles, on coefficients in powers of
tau = t - t_c about the bracket's midpoint t_c, carrying s_j / t, so
that delta_k is exactly 0 where s0 vanishes.  On 605 levels of the
benchmark's aim_scan workload (seeds 1-3, 201 and 205, 30 rounds each)
the worst root lies 2.8e-12 from the closed form, against 1.7e-10 in
plain powers of t, whose high powers round badly, and 4.9e-11 with the
recurrence in doubles rather than long doubles (the scalar scan's worst
there was 3.2e-11).  The grid, its re-scans and its bisections all
evaluate q_(k-1) and q_k by Horner's rule in one operation order, so a
bisection sees the grid's bits.  Those values differ from aim_delta's by
rounding; a root's residual is aim_delta's.

Roots of delta_k that correspond to true terminating solutions stay put
as the depth changes; spurious roots drift.  ``aim_eigen_scan``
therefore also locates the roots one level shallower, and reports a
per-root stability gap, flagging drifting roots as not converged.
"""

from __future__ import annotations

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
    midpoint: the recurrence runs on coefficients in powers of tau, in
    np.longdouble (a 64-bit significand on x86-64 Linux; the double
    itself where the platform has no wider type), and q is rounded to
    doubles and evaluated by Horner's rule.  A coefficient or a value
    beyond the double range raises OverflowRangeError.  Each function
    counts its calls at one E, not on an array, in its ``calls``.
    """
    e_shift, e_scale = problem.e_shift, problem.e_scale
    t_c = (0.5 * lo + 0.5 * hi + e_shift) / e_scale
    wide_t_c = np.longdouble(t_c)
    # The states lambda_j and s_j / t are arrays of (Taylor order, power
    # of tau); lambda0 and s0 / t do not depend on tau.  lambda_j has
    # degree ceil(j/2) in tau and s_j / t floor(j/2), so multiplying by
    # t = t_c + tau shifts only zeros off the top power.
    lam0, s0 = (np.array(c[: k + 1], np.longdouble) for c in (problem.lambda0, problem.s0))
    lam, s = np.zeros((2, k + 1, k // 2 + 2), np.longdouble)
    lam[:, 0], s[:, 0] = lam0, s0
    ramp = np.arange(1.0, k + 1)[:, None]  # derivative factors
    heads = [(lam[0], s[0])]  # each state's order 0, the value at x0
    for m in range(k, 0, -1):
        # The state's Cauchy products with lambda0 and s0, summed over
        # lambda0's and s0's index in ascending order, to order m - 1.
        lam_prod, s_prod = lam0[0] * lam[:m], s0[0] * lam[:m]
        for j in range(1, m):
            lam_prod[j:] += lam0[j] * lam[: m - j]
            s_prod[j:] += s0[j] * lam[: m - j]
        t_s = wide_t_c * s[:m]
        t_s[:, 1:] += s[:m, :-1]
        new_lam = ramp[:m] * lam[1:]
        new_lam += t_s
        new_lam += lam_prod
        new_s = ramp[:m] * s[1:]
        new_s += s_prod
        lam, s = new_lam, new_s
        heads.append((lam[0], s[0]))

    def polynomial(j, prev, cur):
        wide = np.convolve(cur[0], prev[1]) - np.convolve(prev[0], cur[1])
        with np.errstate(over="ignore"):  # a coefficient past the range is refused below
            q = wide.astype(float)
        if not np.isfinite(q).all():
            raise OverflowRangeError(f"delta_{j} on [{lo!r}, {hi!r}] is past the double range")
        coeffs = q[::-1].tolist()

        def horner(t):
            tau = t - t_c
            acc = 0.0
            for c in coeffs:
                acc = acc * tau + c
            return t * acc

        def delta(e):
            t = (e + e_shift) / e_scale
            if isinstance(t, float):
                delta.calls += 1
                value = horner(t)
                finite = math.isfinite(value)
            else:
                # values past the range are refused below
                with np.errstate(over="ignore", invalid="ignore"):
                    value = horner(t)
                finite = np.isfinite(value).all()
            if not finite:
                raise OverflowRangeError(f"delta_{j} on [{lo!r}, {hi!r}] is past the double range")
            return value

        delta.calls = 0
        return delta

    older, prev, cur = heads[-3:]
    return polynomial(k - 1, older, prev), polynomial(k, prev, cur)


def _scan_roots(f, lo, hi, grid, xtol):
    """Bisected roots of f from its values on a grid of ``grid`` nodes
    over [lo, hi], and the indices of cells that follow another
    sign-changing cell."""
    roots = []
    crowded = []
    h = (hi - lo) / (grid - 1)
    prev_cell_index = None
    for a, b, fa, fb in sign_change_brackets(f(uniform_grid(lo, hi, grid)), lo, hi, grid):
        cell_index = round((a - lo) / h)
        if prev_cell_index is not None and cell_index == prev_cell_index + 1:
            crowded.append(cell_index)
        prev_cell_index = cell_index
        r = bisect(f, a, b, xtol=xtol, fab=(fa, fb))
        if not roots or abs(r - roots[-1]) > 4.0 * xtol:
            roots.append(r)
    return roots, crowded


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
    scale = max(abs(lo), abs(hi), 1.0)
    xtol = SCAN_TOL * scale
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
        AimRoot(
            value=r,
            residual=aim_delta(problem, r, k),
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
        delta_evals=shallow_delta.calls + deep_delta.calls + len(graded),
    )
