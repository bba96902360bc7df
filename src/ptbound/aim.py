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
exactly 0 where s0 vanishes.  Its roots are t's zero and those of the
integer q_k, isolated exactly by Descartes' rule of signs and bisected
on Horner's rule over q_k's coefficients, each rounded to a double once,
on every platform alike.  On 585 levels of the benchmark's aim_scan
workload (seeds 1-3, 201 and 205, 30 rounds each) the worst root lies
4.0e-12 from the closed form, against 2.8e-11 with the recurrence in
doubles; plain powers of t round worse still.  Those Horner values
differ from aim_delta's by rounding; a root's residual is aim_delta's.

Roots of delta_k that correspond to true terminating solutions stay put
as the depth changes; spurious roots drift.  ``aim_eigen_scan``
therefore also locates the roots one level shallower, and reports a
per-root stability gap, flagging drifting roots as not converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul, ne

from . import rootfind
from .errors import (
    DomainError, OverflowRangeError, require_bracket, require_finite, require_index,
    require_positive,
)
from .rootfind import bisect

__all__ = [
    "AimProblem",
    "AimRoot",
    "AimScanReport",
    "aim_delta",
    "aim_eigen_scan",
    "aim_iterate",
]

# perfbench/tracing.py wraps this name; the scan, which takes no grid, never calls it.
sign_change_brackets = rootfind.sign_change_brackets

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
    # Values taken in bisections and residuals: a work count, not compared.
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


def _taylor_shift(p: list[int]) -> list[int]:
    """The coefficients of p(x + 1), lowest power first, from p's."""
    p = list(p)
    for i in range(len(p) - 1):
        for m in range(len(p) - 2, i - 1, -1):
            p[m] += p[m + 1]
    return p


def _isolate(p: list[int], cap: int) -> list[tuple[float, float, tuple[float, float] | None]]:
    """The real roots on [0, 1] of the nonzero integer polynomial p
    (lowest power first) by Vincent-Collins-Akritas bisection (Collins and
    Akritas, SYMSAC '76, 272), as (x0, x1, fab): a part holding one simple
    root, fab the signs of p just inside its ends, or a root x0 = x1
    exactly, fab None.  With p mapped from a part onto (0, 1), the sign
    changes of (y + 1)^n p(1 / (y + 1)) bound its roots there, with their
    parity; two or more halve the part, down to depth ``cap``, where a
    multiple root, which never isolates, is one root at the midpoint."""
    found = [(1.0, 1.0, None)] if sum(p) == 0 else []
    todo = [(0, 0, p)]
    while todo:
        c, d, p = todo.pop()
        x0, x1 = c / 2**d, (c + 1) / 2**d
        if p[0] == 0:  # a root at the part's left end, 0 or a split point
            found.append((x0, x0, None))
            while p[0] == 0:
                p = p[1:]
        signs = [v > 0 for v in _taylor_shift(p[::-1]) if v]
        changes = sum(map(ne, signs, signs[1:]))
        if changes == 1:
            # p's sign near x0 leads the shifted coefficients, near x1 ends them.
            found.append((x0, x1, (1.0 if signs[-1] else -1.0, 1.0 if signs[0] else -1.0)))
        elif changes and d >= cap:
            mid = (2 * c + 1) / 2 ** (d + 1)
            found.append((mid, mid, None))
        elif changes:
            left = [v << len(p) - 1 - i for i, v in enumerate(p)]  # 2^n p(x / 2)
            todo += [(2 * c, d + 1, left), (2 * c + 1, d + 1, _taylor_shift(left))]
    return found


def _delta_polys(problem: AimProblem, lo: float, hi: float, k: int):
    """q_(k-1) and q_k of delta_j = t q_j(tau) over [lo, hi], from one
    recurrence run, each as a function of one E that evaluates q by
    Horner's rule on its coefficients rounded to doubles.

    tau = t - t_c, with t_c the t of the bracket's midpoint.  The inputs
    (orders 0..k of lambda0 and s0, and t_c) are doubles, so integers
    over 2^shift, the largest of their denominators; each step multiplies
    the denominator by 2^shift, and q's double coefficients are int / int
    quotients, which CPython rounds correctly.  A t at the bracket's ends
    or midpoint, a coefficient or a value beyond the double range raises
    OverflowRangeError.  Each function counts its calls in ``calls``; its
    ``roots(xtol)`` gives t's zero, if on [lo, hi], and the real roots of
    the exact q, isolated on either side of it, then bisected to xtol.
    """
    e_shift, e_scale = problem.e_shift, problem.e_scale
    t_c = (0.5 * lo + 0.5 * hi + e_shift) / e_scale
    t_zero = 0.0 - e_shift  # the E where t = 0
    past_range = f"on [{lo!r}, {hi!r}] is past the double range"
    if not all(map(math.isfinite, (t_c, (lo + e_shift) / e_scale, (hi + e_shift) / e_scale))):
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

        def q(e):
            q.calls += 1
            tau = (e + e_shift) / e_scale - t_c
            acc = 0.0
            for c in coeffs:
                acc = acc * tau + c
            if not math.isfinite(acc):
                raise OverflowRangeError(f"delta_{j} {past_range}")
            return acc

        def roots(xtol):
            if not any(wide):
                raise DomainError(f"delta_{j} vanishes at every E; its roots are not isolated")
            found = {t_zero} if lo <= t_zero <= hi else set()
            ends = [lo, t_zero, hi] if lo < t_zero < hi else [lo, hi]
            for a, b in zip(ends, ends[1:]):
                ends_t = ((a + e_shift) / e_scale, (b + e_shift) / e_scale)
                ratios = [x.as_integer_ratio() for x in (t_c, *ends_t)]
                # den^n q(tau) as a polynomial in x on [0, 1], tau = (alpha + beta x) / den
                den = max(d for _, d in ratios)
                t_c_den, t_a, t_b = (n * (den // d) for n, d in ratios)
                alpha, beta = t_a - t_c_den, t_b - t_a
                p, scale = [wide[-1]], 1
                for w in wide[-2::-1]:
                    scale *= den
                    p = [alpha * u + beta * v for u, v in zip(p + [0], [0] + p)]
                    p[0] += w * scale
                # Parts at depth cap are at most xtol wide; b - a can overflow.
                cap = math.frexp((0.5 * b - 0.5 * a) / xtol)[1] + 1
                for x0, x1, fab in _isolate(p, cap):
                    e0, e1 = (a * (1.0 - x) + b * x for x in (x0, x1))
                    found.add(e0 if fab is None else bisect(q, e0, e1, xtol=xtol, fab=fab))
            return sorted(found)

        q.calls = 0
        q.roots = roots
        return q

    older, prev, cur = heads[-3:]
    return polynomial(k - 1, older, prev), polynomial(k, prev, cur)


def aim_eigen_scan(problem: AimProblem, bracket: tuple[float, float], k: int) -> AimScanReport:
    """Locate roots of delta_k over a bracket and grade their stability.

    One exact recurrence run gives delta_k and delta_(k-1) over the
    bracket, and their real roots there are isolated exactly, then
    bisected.  A delta_k root's stability gap is the distance to the
    nearest delta_(k-1) root, and the root is converged when that gap is
    within STABILITY_TOL relative to its magnitude: exact terminating
    eigenvalues sit at the same position at both depths, spurious roots
    do not.  A bracket with no root yields an empty report.
    """
    lo, hi = require_bracket(bracket, "scan bracket")
    k = _check_depth(problem, k, 2)
    xtol = SCAN_TOL * max(abs(lo), abs(hi), 1.0)
    shallow_q, deep_q = _delta_polys(problem, lo, hi, k)
    shallow, deep = shallow_q.roots(xtol), deep_q.roots(xtol)
    graded = []
    for r in deep:
        gap = min((abs(r - s) for s in shallow), default=math.inf)
        graded.append(AimRoot(value=r, residual=aim_delta(problem, r, k), stability_gap=gap,
                              converged=gap <= STABILITY_TOL * max(1.0, abs(r))))
    return AimScanReport(
        roots=tuple(graded),
        shallow_roots=tuple(shallow),
        delta_evals=shallow_q.calls + deep_q.calls + len(graded),
    )
