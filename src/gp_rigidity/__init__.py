"""Solver and verification harness for a coupled two-component cubic system.

Computes 1D heteroclinic profiles and 2D slab/box steady states of

    -lap(u) = u - u^3 - lam * u * v^2
    -lap(v) = v - v^3 - lam * u^2 * v

and mechanically checks a catalog of rigidity properties against them:
a priori bounds, strict monotonicity, one-dimensional symmetry on slabs,
uniqueness modulo translation, constancy below coupling 1, and the explicit
front structure at coupling 3.
"""

from .errors import (
    NoCrossing,
    NonConvergence,
    RegimeError,
    SingularJacobian,
    SolverError,
    TooAnisotropic,
)
from .grid import Grid1D, ProfilePair, SlabField
from .model import Params
from .solver1d import SolveOptions, SolveOutcome
from .solvernd import FlowOptions, FlowOutcome
from .verify import CheckRecord, SuiteOptions, THEOREM_TAGS, VerifyReport

__version__ = "0.1.0"

__all__ = [
    "CheckRecord",
    "FlowOptions",
    "FlowOutcome",
    "Grid1D",
    "NoCrossing",
    "NonConvergence",
    "Params",
    "ProfilePair",
    "RegimeError",
    "SingularJacobian",
    "SlabField",
    "SolveOptions",
    "SolveOutcome",
    "SolverError",
    "SuiteOptions",
    "THEOREM_TAGS",
    "TooAnisotropic",
    "VerifyReport",
    "__version__",
]
