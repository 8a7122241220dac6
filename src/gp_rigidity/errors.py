"""Exception types shared across the solver and verification modules."""


class SolverError(Exception):
    """Base of every type here: a solver or experiment could not produce its result."""


class RegimeError(SolverError, ValueError):
    """Requested operation is not defined in this coupling regime."""


class NonConvergence(SolverError, RuntimeError):
    """Iteration budget exhausted before the tolerance was met.

    Carries the partial outcome so callers can inspect the best iterate.
    """

    def __init__(self, message, outcome=None):
        super().__init__(message)
        self.outcome = outcome


class SingularJacobian(SolverError, RuntimeError):
    """The linearized system at some iterate could not be solved.

    ``what`` names the failure: a singular linearization by default, or a
    linearization or step that is not finite (the coupling overflows).
    """

    def __init__(self, lam, iteration, what="singular linearization"):
        super().__init__(f"{what} at coupling {lam} (iteration {iteration})")
        self.lam = lam
        self.iteration = iteration


class NoCrossing(SolverError, ValueError):
    """Profile has no u-v sign change, so no phase can be pinned."""


class ContinuationStall(SolverError, RuntimeError):
    """Continuation step underflowed after repeated halving."""

    def __init__(self, last_good, failed, outcomes):
        if last_good is None:
            message = f"continuation stalled at the first sample (coupling {failed})"
        else:
            message = f"continuation stalled between coupling {last_good} and {failed}"
        super().__init__(message)
        self.last_good = last_good
        self.failed = failed
        self.outcomes = outcomes


class TooAnisotropic(SolverError, ValueError):
    """Field varies too much transversally to be reduced to a 1D profile."""
