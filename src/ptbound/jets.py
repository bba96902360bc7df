"""Products of truncated Taylor series, on coefficient arrays.

An array c[0..K] holds the coefficients of sum_k c[k] (x - x0)^k about
an expansion point the caller keeps; sums, scalar multiples and a
constant added to c[0] are numpy's own.  The iteration engine in ``aim``
differentiates its coefficient arrays once per step, so k iterations
read orders 0..k; ``schrodinger.pt_aim_problem`` builds order 2k + 8 so
that the order-k coefficients do not depend on where its products are
cut.  np.convolve sums each coefficient below the shorter factor's top
order alike at any length, but the top coefficient of equal-length
factors otherwise: a quotient lambda0 built at order k would change in
the last bit at order k, and the iteration engine's roots with it.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["jet_mul", "jet_reciprocal"]


def jet_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cauchy product truncated to a's length."""
    return np.convolve(a, b)[: a.size]


def jet_reciprocal(a: np.ndarray) -> np.ndarray:
    """Multiplicative inverse; requires a nonzero constant coefficient."""
    if a[0] == 0.0:
        raise DomainError("cannot invert a jet with zero constant coefficient")
    r = np.zeros(a.size)
    r[0] = 1.0 / a[0]
    for k in range(1, a.size):
        r[k] = -r[0] * np.dot(a[1 : k + 1], r[k - 1 :: -1])
    return r
