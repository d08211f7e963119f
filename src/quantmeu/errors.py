"""Exception types shared across the package."""


class QuantmeuError(Exception):
    """Base class for all package-specific errors."""


class UsageError(QuantmeuError):
    """Bad flags or experiment configuration; the CLI maps it to exit code 1."""


class ShapeError(QuantmeuError, ValueError):
    """Array or layer dimensions do not line up."""


class DomainError(QuantmeuError, ValueError):
    """Scalar argument outside its mathematical domain (e.g. tau not in (0,1))."""


class DataError(QuantmeuError, ValueError):
    """Training data or table contents violate a precondition."""


class SimulationError(QuantmeuError, RuntimeError):
    """A sampler or utility evaluation produced a non-finite value.

    Carries the offending row index when known; the message names it.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index

    def __str__(self):
        message = super().__str__()
        return message if self.index is None else f"{message} at row {self.index}"


class NumericError(QuantmeuError, ArithmeticError):
    """A numeric evaluation diverged or returned non-finite values."""
