"""Normally hyperbolic trapping toolkit for Kerr exterior null dynamics.

Geometry and flow symbol (`kerr`), Hamiltonian model wrappers (`models`),
orbit integration (`flow`) on an in-house DOP853 (`ode`), trapped-set
location and certification (`trapping`) on closed-form shell orbits
(`shell`, with the elliptic functions of `elliptic`), escape-function
construction (`escape`), and complex-absorbing-potential spectra
(`capspec`), with a config-driven CLI (`cli`).
"""

from .errors import (
    ChartExit,
    ConfigError,
    ConvergenceFailure,
    DomainError,
    GridTooCoarse,
    InvalidHorizon,
    NewtonDiverged,
    NhtrapError,
    NoBracket,
    NotHyperbolic,
    ParseError,
    StepFailure,
    Unbounded,
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
    "NotHyperbolic",
    "InvalidHorizon",
    "NewtonDiverged",
    "GridTooCoarse",
    "Unbounded",
    "ConvergenceFailure",
    "ConfigError",
    "ParseError",
    "ValidationError",
    "__version__",
]
