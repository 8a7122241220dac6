"""Exception types shared across the solver and verification modules."""


class RegimeError(ValueError):
    """Requested operation is not defined in this coupling regime."""


class NonConvergence(RuntimeError):
    """Iteration budget exhausted before the tolerance was met.

    Carries the partial outcome so callers can inspect the best iterate.
    """

    def __init__(self, message, outcome=None):
        super().__init__(message)
        self.outcome = outcome


class SingularJacobian(RuntimeError):
    """The linearized system was singular at some iterate."""

    def __init__(self, lam, iteration):
        super().__init__(
            f"singular linearization at coupling {lam} (iteration {iteration})"
        )
        self.lam = lam
        self.iteration = iteration


class NoCrossing(ValueError):
    """Profile has no u-v sign change, so no phase can be pinned."""


class ContinuationStall(RuntimeError):
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


class TooAnisotropic(ValueError):
    """Field varies too much transversally to be reduced to a 1D profile."""
