"""Exception types shared across the package, and the input checks that raise them.

Every public entry point checks its numeric input with the ``require_*``
helpers below, where the data enters: each returns the checked value or
raises DomainError naming the argument.  ``within_range`` checks a result.
"""

import math
import sys

__all__ = [
    "BracketError", "ConvergenceError", "DomainError", "NodeCountError", "OverflowRangeError",
    "PtboundError", "TableFormatError",
]


class PtboundError(Exception):
    """Base class for all package-specific errors."""


class DomainError(PtboundError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class OverflowRangeError(PtboundError, OverflowError):
    """The requested value exceeds the representable double range.

    Raised instead of returning inf so callers can switch to a log-scaled
    code path deliberately.
    """


class ConvergenceError(PtboundError, RuntimeError):
    """An iterative scheme exhausted its budget before meeting tolerance.

    The best available estimate is attached as ``.estimate``.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class BracketError(PtboundError, ValueError):
    """A root bracket does not straddle a sign change."""


class NodeCountError(BracketError):
    """A shooting bracket excludes the requested level (wrong node counts)."""


class TableFormatError(PtboundError, ValueError):
    """A molecule table or CSV artifact violates the documented layout."""


# An int past the double range compares as finite but has no float.
_PAST_RANGE = "got an int past the double range"
_FLOAT_MAX = sys.float_info.max
_FLOAT_MIN = sys.float_info.min


def require_finite(x, what: str) -> float:
    """x as a float; DomainError unless it is finite (an int past the double
    range is not)."""
    try:
        if math.isfinite(x):
            return float(x)
    except OverflowError:
        raise DomainError(f"{what} must be finite, {_PAST_RANGE}") from None
    raise DomainError(f"{what} must be finite, got {x!r}")


def require_positive(x, what: str) -> float:
    """x as a float; DomainError unless 0 < x < inf (NaN and an int past the
    double range fail too)."""
    if not 0.0 < x < math.inf:
        raise DomainError(f"{what} must be finite and positive, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise DomainError(f"{what} must be finite and positive, {_PAST_RANGE}") from None


def require_choice(value, choices: tuple, what: str):
    """value; DomainError unless it is one of choices."""
    if value not in choices:
        raise DomainError(f"{what} must be one of {choices}, got {value!r}")
    return value


def require_bracket(bracket, what: str) -> tuple[float, float]:
    """(lo, hi) of a two-element bracket as floats; DomainError unless
    -inf < lo < hi < inf."""
    try:
        lo, hi = float(bracket[0]), float(bracket[1])
    except OverflowError:
        raise DomainError(f"{what} must be finite and nonempty, {_PAST_RANGE}") from None
    if not -math.inf < lo < hi < math.inf:
        raise DomainError(f"{what} must be finite and nonempty, got ({lo!r}, {hi!r})")
    return lo, hi


def require_index(value, what: str, minimum: int = 0) -> int:
    """value as an int; DomainError unless it is an integer >= minimum
    (2.0 counts) within the double range.

    Written with % so that NaN and infinities are rejected here rather
    than raising ValueError or OverflowError from int().
    """
    if not (value >= minimum and value % 1 == 0):
        raise DomainError(f"{what} must be an integer >= {minimum}, got {value!r}")
    if value > _FLOAT_MAX:
        raise DomainError(f"{what} must be an integer >= {minimum}, {_PAST_RANGE}")
    return int(value)


def require_normal_square(x, what: str) -> float:
    """x ** 2.0, the square the routes divide by; DomainError unless it
    is a normal double.  The float power raises OverflowError both for a
    square past the range and for an int past it, which has no float."""
    try:
        square = x ** 2.0
    except OverflowError:
        square = math.inf
    if _FLOAT_MIN <= square < math.inf:
        return square
    try:
        got = f"got {what}={float(x)!r}"
    except OverflowError:
        got = _PAST_RANGE
    raise DomainError(f"{what}**2 must be a normal double, {got}")


def within_range(x, what: str) -> float:
    """x; OverflowRangeError unless it is finite (a result past the double range)."""
    if not math.isfinite(x):
        raise OverflowRangeError(f"{what} exceeds the double range, got {x!r}")
    return x
