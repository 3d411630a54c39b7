"""Exception and warning types shared across the package.

Exit codes follow the CLI contract: 2 for input/validation problems,
3 for failures inside a statistical procedure.
"""


class TeflowError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class ParseError(TeflowError):
    """A file could not be parsed; carries path and 1-based line number."""

    def __init__(self, message: str, path=None, line: int | None = None):
        self.path = str(path) if path is not None else None
        self.line = line
        prefix = ""
        if self.path is not None:
            prefix = self.path if line is None else f"{self.path}:{line}"
            prefix += ": "
        super().__init__(prefix + message)


class InvariantViolation(TeflowError):
    """Structured data violates a documented invariant."""


class NonFiniteValue(TeflowError):
    """NaN or infinity where a finite value is required."""


class NonPositivePrice(TeflowError):
    """Prices must be strictly positive."""


class ValueOutOfRange(TeflowError):
    """A value falls outside its documented range."""


class LengthMismatch(TeflowError):
    """Paired series must have equal length."""


class SeriesTooShort(TeflowError):
    """Not enough observations for the requested operation."""


class EmptyCounts(TeflowError):
    """Transfer entropy requires a nonempty transition table."""


class EmptyIntersection(TeflowError):
    """Two series share no common dates."""


class WindowTooSmall(TeflowError):
    """Requested windows are below the minimum viable length."""


class NoConstituentData(TeflowError):
    """No keyword of the requested set has any data."""


class InvalidSpec(TeflowError):
    """A synthetic process specification is malformed."""


class ConfigError(TeflowError):
    """An estimator configuration is malformed."""


class UsageError(TeflowError):
    """The command line does not parse: an unknown flag, a bad value or a missing argument."""


class InsufficientData(TeflowError):
    """A resampling procedure hit a source Markov state that was never visited."""

    exit_code = 3


class NoClosedForm(TeflowError):
    """The requested population quantity has no closed form; estimate by simulation."""

    exit_code = 3


class InternalConsistencyError(TeflowError):
    """A numerical result violates a mathematical guarantee beyond rounding noise."""

    exit_code = 3


class DegenerateSeriesWarning(UserWarning):
    """A series with no variation was symbolized to a single-symbol alphabet."""


class LagTooLargeForSample(UserWarning):
    """State-space coverage is too thin for the requested history lengths."""
