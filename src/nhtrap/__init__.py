"""Normally hyperbolic trapping toolkit for Kerr exterior null dynamics.

Geometry and flow symbol (`kerr`), Hamiltonian model wrappers (`models`),
orbit integration (`flow`) on an in-house DOP853 (`ode`), trapped-set
location and certification (`trapping`), escape-function construction
(`escape`), and complex-absorbing-potential spectra (`capspec`), with a
config-driven CLI (`cli`).
"""

from .errors import (
    ChartExit,
    ConfigError,
    ConvergenceFailure,
    Degenerate,
    DomainError,
    GridTooCoarse,
    InvalidHorizon,
    InvalidNesting,
    NewtonDiverged,
    NhtrapError,
    NoBracket,
    NotHyperbolic,
    ParseError,
    StepFailure,
    Unbounded,
    UnderResolved,
    ValidationError,
)
from .kerr import ConservedTriple, KerrParams, PhaseState

__version__ = "0.1.0"

__all__ = [
    "KerrParams",
    "PhaseState",
    "ConservedTriple",
    "NhtrapError",
    "DomainError",
    "ChartExit",
    "StepFailure",
    "NoBracket",
    "Degenerate",
    "NotHyperbolic",
    "InvalidHorizon",
    "NewtonDiverged",
    "GridTooCoarse",
    "InvalidNesting",
    "Unbounded",
    "UnderResolved",
    "ConvergenceFailure",
    "ConfigError",
    "ParseError",
    "ValidationError",
    "__version__",
]
