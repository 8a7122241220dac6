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
    ContinuationStall,
    NoCrossing,
    NonConvergence,
    RegimeError,
    SingularJacobian,
    SolverError,
    TooAnisotropic,
)
from .grid import BoundReport, Grid1D, ProfilePair, SlabField, SumReport
from .model import Params
from .solver1d import SolveOptions, SolveOutcome
from .solvernd import FlowOptions, FlowOutcome
from .verify import CheckRecord, SuiteOptions, THEOREM_TAGS, VerifyReport

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CheckRecord",
    "ContinuationStall",
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
    "SumReport",
    "SuiteOptions",
    "THEOREM_TAGS",
    "TooAnisotropic",
    "VerifyReport",
    "__version__",
]
