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
their Taylor coefficients there; each iteration differentiates once, so
delta_k reads orders 0..k of lambda0 and s0, and step j carries orders
0..k - j.

E enters s0 only, as s0(E) = s0 t with t = (E + e_shift) / e_scale, so
every coefficient is an exact polynomial in t, s_j is t times one, and
delta_k = t q_k(t) with q_k of degree at most k (Ciftci, Hall and Saad,
J. Phys. A 36, 11807 (2003), treat delta_k as a function of E the same
way).  One recurrence on Python ints gives every value, the inputs being
doubles, so integers over one power of two.  It carries s_j / t, so that
delta_k is exactly 0 where s0 vanishes, in powers of tau = t - t_c about
a double t_c, each Taylor order's polynomial in tau packed into one int
(``_recurrence``).  ``aim_iterate`` runs it at tau = 0 and rounds
lambda_k, s_k and delta_k to doubles once each (int / int quotients,
which CPython rounds correctly), the same on every platform.

``aim_eigen_scan`` runs it once, about the bracket's midpoint.  Its roots
are t's zero and those of the integer q_k, isolated exactly by Descartes'
rule of signs.  In each part that holds one, Newton's method on Horner's
rule over q_k's coefficients, each rounded to a double once, guesses it.
The bisection to SCAN_TOL then halves toward the guess without a value
and confirms the final cell by two Horner values at its ends, halving on
values only where they do not straddle: each root is plain bisection's
bit for bit under the monotone-sign condition of ``rootfind.bisect``.
On 2,415 scans of the benchmark's aim_scan workload (seeds 1-13 and
201-210, 27 rounds each) that took 62,520 Horner values and residuals,
against 280,797 with a value at every midpoint.  A root's residual is
the exact delta_k at the root, t q_k(tau) on the scan's integers rounded
once: bit for bit ``aim_delta`` there.

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
    # Horner values (Newton steps, bisections) and residuals: a work count, not compared.
    delta_evals: int = field(compare=False)

    def converged_roots(self) -> list[float]:
        return [r.value for r in self.roots if r.converged]


def _recurrence(problem: AimProblem, t: float, k: int, powers: bool):
    """k exact steps of the recurrence with s0(E) = s0 (t + tau), on
    Python ints: (shift, t_int, heads), heads the last three (fewer for
    k < 2) of the order-0 coefficients (the values at x0) of lambda_j
    and s_j / t, j = 0..k, times 2^(shift (j + 1)).  With powers false
    tau is 0, and a head is the value at t; with powers true it is a
    list over the power of tau.

    The inputs (orders 0..k of lambda0 and s0, and t) are doubles, so
    integers over 2^shift, the largest of their denominators; t_int is t
    times 2^shift, and each step multiplies the denominator by 2^shift.
    A Taylor order's polynomial in tau is one int, its value at tau =
    2^width (Kronecker substitution), so t + tau is t_int + 2^(shift +
    width).  That is a ring map, so a head's signed base-2^width digits
    are exact while each digit d has |d| < 2^(width - 1).  With every
    input int below 2^top in size, c = max(shift, top), and N_j a bound
    on the sum of |digit| of any order at step j, order i < k of step j
    + 1 sums to at most (i + 2) N_j (2^shift + 2^top): N_(j+1) <= (k + 1)
    2^(c + 1) N_j, and N_0 < 2^top gives N_k < 2^(top + k (c + 1 + b)),
    b the bit length of k + 1, whence the width.  lambda_j and s_j / t
    have degree ceil(j/2) and floor(j/2) in tau, so that many digits and
    one more, which ``_digits`` checks.
    """
    ratios = [x.as_integer_ratio() for x in (t, *problem.lambda0[: k + 1], *problem.s0[: k + 1])]
    shift = max(d.bit_length() for _, d in ratios) - 1
    t_int, *inputs = (n << shift + 1 - d.bit_length() for n, d in ratios)
    lam0, s0 = inputs[: k + 1], inputs[k + 1 :]
    top = max(map(int.bit_length, (t_int, *inputs)))
    width = top + k * (max(shift, top) + 1 + (k + 1).bit_length()) + 1
    lam, s = lam0, s0
    t_tau = t_int + (1 << shift + width) if powers else t_int
    heads = [(lam0[0], s0[0])]
    for m in range(k, 0, -1):
        lam, s = (
            [((i + 1) * lam[i + 1] << shift) + t_tau * s[i] + sum(map(mul, lam0, lam[i::-1]))
             for i in range(m)],
            [((i + 1) * s[i + 1] << shift) + sum(map(mul, s0, lam[i::-1])) for i in range(m)],
        )
        heads.append((lam[0], s[0]))
    heads = heads[-3:]
    if powers:
        heads = [(_digits(lam, width, (j + 1) // 2 + 1), _digits(s, width, j // 2 + 1))
                 for j, (lam, s) in enumerate(heads, k + 1 - len(heads))]
    return shift, t_int, heads


def _digits(packed: int, width: int, count: int) -> list[int]:
    """packed as count signed base-2^width digits, each in [-2^(width -
    1), 2^(width - 1)), lowest first; ArithmeticError if more are left."""
    half, digits = 1 << width - 1, []
    for _ in range(count):
        digits.append(d := (packed + half & (half << 1) - 1) - half)
        packed = packed - d >> width
    if packed:
        raise ArithmeticError(f"a packed polynomial has more than {count} digits of {width} bits")
    return digits


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

    The recurrence runs exactly on the double t of E, and each value is
    rounded to a double once.  E must be finite; a t or a value beyond
    the double range raises OverflowRangeError.
    """
    k = _check_depth(problem, k)
    t = (require_finite(e, "energy") + problem.e_shift) / problem.e_scale
    if not math.isfinite(t):
        raise OverflowRangeError(f"t = (E + e_shift) / e_scale at E={e!r} is past the double range")
    shift, t_int, heads = _recurrence(problem, t, k, powers=False)
    (prev_lam, prev_s), (lam, s) = heads[-2:]
    try:
        return (
            lam / (1 << shift * (k + 1)),
            t_int * s / (1 << shift * (k + 2)),
            t_int * (lam * prev_s - prev_lam * s) / (1 << shift * (2 * k + 2)),
        )
    except OverflowError:
        raise OverflowRangeError(
            f"lambda_{k}, s_{k} or delta_{k} at E={e!r} is past the double range"
        ) from None


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


def _newton(f, lo: float, hi: float, sign_lo: float, xtol: float) -> float:
    """A guess at the one root of f on [lo, hi], where f has sign_lo's
    sign at lo: Newton's method from the midpoint on f(e) = (value,
    slope), each step kept inside the bracket the values' signs leave (or
    else to its midpoint), until a step is below xtol / 4 (at a zero, a
    step of 0), a value is not finite, or after 64 steps."""
    e = 0.5 * lo + 0.5 * hi
    for _ in range(64):
        value, slope = f(e)
        if not math.isfinite(value):
            break
        lo, hi = (e, hi) if (value < 0.0) == (sign_lo < 0.0) else (lo, e)
        step = value / slope if slope else math.inf
        if abs(step) < 0.25 * xtol:
            return e - step
        e = e - step if lo < e - step < hi else 0.5 * lo + 0.5 * hi
    return e


def _delta_polys(problem: AimProblem, lo: float, hi: float, k: int):
    """q_(k-1) and q_k of delta_j = t q_j(tau) over [lo, hi], from one
    recurrence run, each as a function of one E that evaluates q by
    Horner's rule on its coefficients rounded to doubles.

    tau = t - t_c, with t_c the t of the bracket's midpoint.  q's double
    coefficients are int / int quotients, which CPython rounds correctly.
    A t at the bracket's ends or midpoint, a coefficient or a value beyond
    the double range raises OverflowRangeError.  Each function counts its
    Horner values in ``calls``; its ``delta(e)`` gives t q at one E on the
    exact integers, rounded once; its ``roots(xtol)`` gives t's zero, if
    on [lo, hi], and the real roots of the exact q, isolated on either
    side of it, then bisected to xtol from a Newton guess.
    """
    e_shift, e_scale = problem.e_shift, problem.e_scale
    t_c = (0.5 * lo + 0.5 * hi + e_shift) / e_scale
    t_zero = 0.0 - e_shift  # the E where t = 0
    past_range = f"on [{lo!r}, {hi!r}] is past the double range"
    if not all(map(math.isfinite, (t_c, (lo + e_shift) / e_scale, (hi + e_shift) / e_scale))):
        raise OverflowRangeError(f"delta_{k} {past_range}")
    shift, t_c_int, heads = _recurrence(problem, t_c, k, powers=True)

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

        def horner(e):
            # q and dq/dE at one E, by Horner's rule: one value counted.
            q.calls += 1
            tau = (e + e_shift) / e_scale - t_c
            acc = slope = 0.0
            for c in coeffs:
                slope = slope * tau + acc
                acc = acc * tau + c
            return acc, slope / e_scale

        def q(e):
            if not math.isfinite(acc := horner(e)[0]):
                raise OverflowRangeError(f"delta_{j} {past_range}")
            return acc

        def delta(e):
            # t q(tau) at E on the exact integers, rounded once, with
            # tau = tau_n / den and den^n the scale of Horner's terms.
            t_n, t_d = ((e + e_shift) / e_scale).as_integer_ratio()
            den = max(t_d, 1 << shift)
            tau_n = t_n * (den // t_d) - t_c_int * (den >> shift)
            acc, scale = wide[-1], 1
            for w in wide[-2::-1]:
                scale *= den
                acc = acc * tau_n + w * scale
            try:
                return t_n * acc / (t_d * scale * denominator)
            except OverflowError:
                raise OverflowRangeError(f"delta_{j} {past_range}") from None

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
                    found.add(e0 if fab is None else bisect(
                        q, e0, e1, xtol=xtol, fab=fab, guess=_newton(horner, e0, e1, fab[0], xtol)
                    ))
            return sorted(found)

        q.calls = 0
        q.delta = delta
        q.roots = roots
        return q

    older, prev, cur = heads[-3:]
    return polynomial(k - 1, older, prev), polynomial(k, prev, cur)


def aim_eigen_scan(problem: AimProblem, bracket: tuple[float, float], k: int) -> AimScanReport:
    """Locate roots of delta_k over a bracket and grade their stability.

    One exact recurrence run gives delta_k and delta_(k-1) over the
    bracket, and their real roots there are isolated exactly, then
    bisected from a Newton guess.  A delta_k root's stability gap is the
    distance to the nearest delta_(k-1) root, and the root is converged
    when that gap is within STABILITY_TOL relative to its magnitude:
    exact terminating eigenvalues sit at the same position at both
    depths, spurious roots do not.  A bracket with no root yields an
    empty report.
    """
    lo, hi = require_bracket(bracket, "scan bracket")
    k = _check_depth(problem, k, 2)
    xtol = SCAN_TOL * max(abs(lo), abs(hi), 1.0)
    shallow_q, deep_q = _delta_polys(problem, lo, hi, k)
    shallow, deep = shallow_q.roots(xtol), deep_q.roots(xtol)
    graded = []
    for r in deep:
        gap = min((abs(r - s) for s in shallow), default=math.inf)
        graded.append(AimRoot(value=r, residual=deep_q.delta(r), stability_gap=gap,
                              converged=gap <= STABILITY_TOL * max(1.0, abs(r))))
    return AimScanReport(
        roots=tuple(graded),
        shallow_roots=tuple(shallow),
        delta_evals=shallow_q.calls + deep_q.calls + len(graded),
    )
