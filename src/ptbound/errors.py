"""Exception types shared across the package."""


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


class JetMismatchError(PtboundError, ValueError):
    """Jet operands disagree in expansion point or truncation order."""


class TableFormatError(PtboundError, ValueError):
    """A molecule table or CSV artifact violates the documented layout."""


def require_index(value, what: str) -> None:
    """Raise DomainError unless value is a nonnegative integer (2.0 counts).

    Written with % so that NaN and infinities are rejected here rather
    than raising ValueError or OverflowError from int().
    """
    if not (value >= 0 and value % 1 == 0):
        raise DomainError(f"{what} must be a nonnegative integer, got {value!r}")
