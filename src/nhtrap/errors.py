"""Exception types shared across the package."""

from __future__ import annotations


class NhtrapError(Exception):
    """Base class for all package errors."""


class DomainError(NhtrapError):
    """A phase-space point sits outside the valid exterior chart."""


class ChartExit(NhtrapError):
    """An integrated orbit left the valid chart; carries the exit time."""

    def __init__(self, message: str, exit_time: float):
        super().__init__(message)
        self.exit_time = exit_time


class StepFailure(NhtrapError):
    """The adaptive integrator could not complete a step."""


class NoBracket(NhtrapError):
    """No root, or no bracket of one, where a root was sought."""


class NotHyperbolic(NhtrapError):
    """Linearization does not have a real +/- exponent pair."""


class InvalidHorizon(NhtrapError):
    """Nonpositive or otherwise unusable certification horizon."""


class NewtonDiverged(NhtrapError):
    """Damped Newton iteration failed to converge."""


class GridTooCoarse(NhtrapError):
    """Sampling grid does not resolve the required scale."""


class Unbounded(NhtrapError):
    """No admissible polynomial order bounds the sampled quotients."""


class ConvergenceFailure(NhtrapError):
    """An iterative solve failed to converge or certify.

    Eigenvalue solves carry the failing shift; root searches carry none.
    """

    def __init__(self, message: str, shift=None):
        super().__init__(message)
        self.shift = shift


class ConfigError(NhtrapError):
    """Base class for configuration problems (CLI exit code 2)."""


class ParseError(ConfigError):
    """Malformed config text; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(ConfigError):
    """A parsed key failed validation; carries the dotted key path."""

    def __init__(self, message: str, key: str):
        super().__init__(f"{key}: {message}")
        self.key = key
