"""Exception types shared across the package."""


class FracalcError(Exception):
    """Base class for every error raised by fracalc."""


class DomainError(FracalcError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InsufficientData(FracalcError, ValueError):
    """A sampled series is too short for the requested operation."""


class DenominatorNearZero(FracalcError, ArithmeticError):
    """An indicator ratio is degenerate: its denominator is numerically zero."""


class GridMismatch(FracalcError, ValueError):
    """Two sampled series do not share the same uniform time grid."""


class NonUniformGrid(FracalcError, ValueError):
    """Ingested time stamps are not uniformly spaced."""


class ParseError(FracalcError, ValueError):
    """A CSV file is malformed.  ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class EmptySweep(FracalcError, ValueError):
    """An order sweep was requested with no order values."""
