"""Truncated Taylor jets.

A SeriesJet holds the coefficients of a function's Taylor expansion about
a fixed point x0, truncated at a given order.  The iteration engine in
``aim`` differentiates its coefficient jets once per step; each
differentiation loses the top coefficient, so jets must be built with
enough headroom (the engine uses order 2k + 8 for k iterations).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, JetMismatchError

__all__ = [
    "SeriesJet",
    "jet_add",
    "jet_div",
    "jet_mul",
    "jet_reciprocal",
    "jet_scale",
]


@dataclass(frozen=True)
class SeriesJet:
    """Coefficients c[0..K] of sum_k c[k] (x - x0)^k."""

    coeffs: np.ndarray = field(repr=False)
    x0: float

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("jet coefficients must be a nonempty 1-d array")
        object.__setattr__(self, "coeffs", arr)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    @property
    def value(self) -> float:
        """The function value at the expansion point (constant coefficient)."""
        return float(self.coeffs[0])

    @classmethod
    def constant(cls, value: float, x0: float, order: int) -> "SeriesJet":
        c = np.zeros(order + 1)
        c[0] = value
        return cls(c, x0)

    @classmethod
    def variable(cls, x0: float, order: int) -> "SeriesJet":
        """The identity function x, expanded about x0."""
        c = np.zeros(order + 1)
        c[0] = x0
        if order >= 1:
            c[1] = 1.0
        return cls(c, x0)

    def __add__(self, other):
        if isinstance(other, SeriesJet):
            return jet_add(self, other)
        c = self.coeffs.copy()
        c[0] += float(other)
        return SeriesJet(c, self.x0)

    def __mul__(self, other):
        if isinstance(other, SeriesJet):
            return jet_mul(self, other)
        return jet_scale(self, float(other))


def _check_pair(a: SeriesJet, b: SeriesJet):
    if a.x0 != b.x0:
        raise JetMismatchError(f"expansion points differ: {a.x0!r} vs {b.x0!r}")
    if a.order != b.order:
        raise JetMismatchError(f"truncation orders differ: {a.order} vs {b.order}")


def jet_add(a: SeriesJet, b: SeriesJet) -> SeriesJet:
    _check_pair(a, b)
    return SeriesJet(a.coeffs + b.coeffs, a.x0)


def jet_scale(a: SeriesJet, c: float) -> SeriesJet:
    return SeriesJet(a.coeffs * float(c), a.x0)


def jet_mul(a: SeriesJet, b: SeriesJet) -> SeriesJet:
    """Cauchy product truncated to the common order."""
    _check_pair(a, b)
    return SeriesJet(np.convolve(a.coeffs, b.coeffs)[: a.order + 1], a.x0)


def jet_reciprocal(a: SeriesJet) -> SeriesJet:
    """Multiplicative inverse; requires a nonzero constant coefficient."""
    a0 = a.coeffs[0]
    if a0 == 0.0:
        raise DomainError("cannot invert a jet with zero constant coefficient")
    n = a.order
    r = np.zeros(n + 1)
    r[0] = 1.0 / a0
    for k in range(1, n + 1):
        r[k] = -r[0] * np.dot(a.coeffs[1 : k + 1], r[k - 1 :: -1])
    return SeriesJet(r, a.x0)


def jet_div(a: SeriesJet, b: SeriesJet) -> SeriesJet:
    return jet_mul(a, jet_reciprocal(b))
