"""Exception hierarchy shared across the package.

The split mirrors the CLI exit codes: configuration parsing, input
validation, and numerical solver failures are distinct failure classes.
"""


class FuzzrelError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(FuzzrelError, ValueError):
    """A config file or CLI argument could not be parsed."""


class ValidationError(FuzzrelError, ValueError):
    """An input violates a documented precondition or invariant."""


class UnknownParameterError(ValidationError):
    """A parameter name does not exist in the table or model."""


class SolverError(FuzzrelError, RuntimeError):
    """A numerical routine failed to produce a usable result."""


class KernelEvaluationError(SolverError):
    """The crisp characteristic could not be evaluated at a point.

    Carries the offending parameter point so callers can see where the
    evaluation broke: a box's corner, a row of the bounds search or of
    calibration, or the rates of a crisp metric.
    """

    def __init__(self, message: str, point: dict | None = None):
        super().__init__(message)
        self.point = dict(point) if point else {}


class NestingError(SolverError):
    """Interval bounds at a higher alpha escaped a lower-alpha interval."""


class NoContainmentError(SolverError):
    """No alpha level produces an interval inside the requested target."""


class CalibrationError(SolverError):
    """Coverage calibration found no root in [0, 1] or missed tolerance."""
