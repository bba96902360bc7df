"""Products of truncated Taylor series, on lists of coefficients.

A list c[0..K] holds the coefficients of sum_k c[k] (x - x0)^k about an
expansion point the caller keeps.  Every product is summed in one fixed
order, in plain Python floats: coefficient j of a Cauchy product is

    acc = 0.0;  acc += a[i] * b[j - i]  for i = 0, 1, ..., j

so its bits do not depend on the machine's BLAS kernel, and coefficient
j does not depend on how many orders past j the factors carry.  Neither
``sum()`` (compensated from Python 3.12 on), ``math.fsum`` nor numpy
enters, because each would sum in an order of its own.
"""

from __future__ import annotations

from .errors import DomainError

__all__ = ["jet_mul", "jet_reciprocal"]


def jet_mul(a, b) -> list:
    """Cauchy product truncated to a's length; b shorter than a counts as
    padded with zeros."""
    b = list(b) + [0.0] * (len(a) - len(b))
    out = []
    for j in range(len(a)):
        acc = 0.0
        for x, y in zip(a, b[j::-1]):
            acc += x * y
        out.append(acc)
    return out


def jet_reciprocal(a) -> list:
    """Multiplicative inverse; requires a nonzero constant coefficient.
    Coefficient k is -r[0] times the sum of a[i] r[k - i], i = 1..k, in
    ascending i."""
    if a[0] == 0.0:
        raise DomainError("cannot invert a jet with zero constant coefficient")
    r = [1.0 / a[0]]
    tail = a[1:]
    for _ in tail:
        acc = 0.0
        for x, y in zip(tail, reversed(r)):
            acc += x * y
        r.append(-r[0] * acc)
    return r
