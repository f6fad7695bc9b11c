"""Exception types shared across the package."""


class GraphCodeError(Exception):
    """Base class for all library errors."""


class ZeroInversionError(GraphCodeError, ZeroDivisionError):
    """Multiplicative inverse of the additive identity was requested."""


class UnderdeterminedSystemError(GraphCodeError):
    """Linear system has more than one solution."""


class InconsistentSystemError(GraphCodeError):
    """Linear system has no solution."""


class SingularSystemError(GraphCodeError):
    """Square system whose matrix is not invertible."""


class ErasedAccessError(GraphCodeError):
    """Read of an edge label that is currently erased."""


class NotSystematicError(GraphCodeError):
    """Parity-check matrix does not determine the redundancy edges uniquely."""


class OutsideAlgorithmDomainError(GraphCodeError):
    """Failure pair is not covered by the zig-zag schedule."""


class NonPrimeNodeCountError(GraphCodeError):
    """Construction requires a prime number of nodes."""


class FieldTooSmallError(GraphCodeError):
    """Field order is too small for the requested code."""


class NoSuchCodeError(GraphCodeError):
    """No code with the requested parameters exists."""


class TooLargeError(GraphCodeError):
    """A request exceeds a policy bound: an exhaustive enumeration that is
    too long, or a dense check matrix over its memory budget."""
