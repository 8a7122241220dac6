"""Damped Newton solver for 1D heteroclinic profiles, with continuation.

The discretized boundary value problem is solved by Newton iteration on the
interleaved unknown vector [u_0, v_0, u_1, v_1, ...].  Each step solves a
block-tridiagonal system with 2x2 blocks, assembled into five scalar bands
and eliminated directly (LAPACK banded LU, exact and O(n)).  Steps are
damped by residual-decrease backtracking with a floor.

A solve holds one (7, 2n) band buffer and a fixed number of node vectors;
the reaction Jacobian is written straight into the buffer's band rows.

:func:`solve_banded` hands the bands, already in dgbsv's layout, to the
LAPACK dgbsv that ``scipy.linalg.solve_banded((2, 2), ...)`` calls, so the
two are bit-identical.  The routine comes from :mod:`gp_rigidity._kernels`,
which loads scipy's compiled LAPACK module on first use, so the package
imports no ``scipy.linalg``, and only commands that solve a front load
LAPACK at all.  :func:`pin_phase` resamples with a fixed four-point stencil
and needs no solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from . import grid as gridmod
from . import model
from .errors import NoCrossing, NonConvergence, RegimeError, SingularJacobian
from .grid import Grid1D, ProfilePair
from .model import Params

# Boundary rows of a Newton guess must match the heteroclinic data to this
# accuracy; solves started from conforming guesses keep the rows exact.
GUESS_BOUNDARY_TOL = 1e-6

# Backtracking halves a Newton step at most down to this fraction.
DAMPING_MIN = 1.0 / 64.0

# A coupling sweep takes fewer steps than this, checked before any sample is formed.
MAX_SWEEP_STEPS = 10_000


@dataclass(frozen=True)
class SolveOptions:
    """Newton iteration controls."""

    newton_tol: float = 1e-10
    max_iters: int = 25

    def __post_init__(self):
        if not self.newton_tol > 0.0:
            raise ValueError(f"newton_tol: residual target must be positive, got {self.newton_tol!r}")
        if not self.max_iters >= 1:
            raise ValueError(f"max_iters: must be >= 1, got {self.max_iters!r}")


@dataclass(frozen=True)
class SolveOutcome:
    """Result of one Newton solve; residual_history has one entry per iterate."""

    profile: ProfilePair
    iterations: int
    final_residual: float
    converged: bool
    lam: float
    residual_history: tuple = field(default=(), repr=False)


def initial_guess(p: Params, g: Grid1D) -> ProfilePair:
    """The one Newton seed: the coupling-3 front blended with the segregated limit.

    With weight w = max(0, 1 - 3/lam), u = (1-w)*u3 + w*tanh(max(x,0)/sqrt2)
    and v = (1-w)*v3 + w*tanh(max(-x,0)/sqrt2), where (u3, v3) is the
    explicit coupling-3 front.  As the coupling grows the front tends to the
    segregated pair, which the blend follows; at coupling 3 and below w = 0
    and the seed is the sampled coupling-3 front, bit for bit.  The end rows
    are overwritten with the exact equilibria so the Dirichlet data hold
    bitwise.
    """
    x = g.nodes()
    u, v = model.tanh_front(0.0, x)
    w = max(0.0, 1.0 - 3.0 / p.lam)
    if w > 0.0:
        u = (1.0 - w) * u + w * np.tanh(np.maximum(x, 0.0) / model.SQRT2)
        v = (1.0 - w) * v + w * np.tanh(np.maximum(-x, 0.0) / model.SQRT2)
    u[0], v[0] = gridmod.LEFT_STATE
    u[-1], v[-1] = gridmod.RIGHT_STATE
    return ProfilePair(g, u, v)


def _assemble_bands(p: Params, g: Grid1D, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Five-band matrix of the Newton system in LAPACK dgbsv layout.

    A Fortran-ordered (7, 2n) buffer: rows 0-1 are dgbsv's fill-in space,
    rows 2-6 the bands from the +2 to the -2 diagonal (the layout that
    ``scipy.linalg.solve_banded((2, 2), ...)`` takes).  The interleaved
    ordering gives bandwidth 2 on each side: the u-equation at node i
    couples u_{i-1}, u_i, v_i, u_{i+1}; the v-equation couples v_{i-1},
    u_i, v_i, v_{i+1}.  End rows are identity (Dirichlet defects).
    The reaction Jacobian is written straight into its band rows, so the
    buffer and one scratch vector are the only allocations.
    """
    n = g.n
    m = 2 * n
    inv_h2 = 1.0 / g.h**2

    work = np.zeros((7, m), order="F")
    ab = work[2:]
    # main diagonal c1, c2 and +1 diagonal dfu/dv at the same node (u-rows only)
    model.jacobian_entries(p, u, v, out=(ab[2, 0::2], ab[2, 1::2], ab[1, 1::2]))
    ab[2] += -2.0 * inv_h2
    # -1 diagonal: dfv/du at the same node (v-rows only)
    ab[3, 0::2] = ab[1, 1::2]
    # +-2 diagonals: neighbor couplings
    ab[0, 2:] = inv_h2
    ab[4, :-2] = inv_h2
    # Dirichlet end rows: identity, no couplings
    for row in (0, 1, m - 2, m - 1):
        ab[2, row] = 1.0
    ab[1, 1] = 0.0
    ab[3, 0] = 0.0
    ab[1, m - 1] = 0.0
    ab[3, m - 2] = 0.0
    ab[0, 2] = ab[0, 3] = 0.0
    ab[4, m - 4] = ab[4, m - 3] = 0.0
    return work


def solve_banded(work: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the Newton system built by :func:`_assemble_bands`, in place.

    One call of LAPACK's dgbsv (banded LU with partial pivoting, two bands
    each side), the routine ``scipy.linalg.solve_banded((2, 2), work[2:],
    rhs)`` calls, so the solution is the same to the bit.  ``work`` and
    ``rhs`` are overwritten.  Raises LinAlgError when a pivot is exactly 0.
    """
    _, _, x, info = _kernels.dgbsv(2, 2, work, rhs, overwrite_ab=1, overwrite_b=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: zero pivot in column {info}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgbsv")
    return x


def _check_heteroclinic_ends(u: np.ndarray, v: np.ndarray, what: str) -> None:
    """ValueError naming ``what`` unless both ends of u and v along the last axis are the heteroclinic data.

    Only the end entries are read; each may miss its value by GUESS_BOUNDARY_TOL.
    """
    # slices, not indices: numpy keeps a few traced bytes after each reduction of a 0-d array
    ends = ((u[..., :1], gridmod.LEFT_STATE[0]), (v[..., :1], gridmod.LEFT_STATE[1]),
            (u[..., -1:], gridmod.RIGHT_STATE[0]), (v[..., -1:], gridmod.RIGHT_STATE[1]))
    if max(float(abs(a - value).max()) for a, value in ends) > GUESS_BOUNDARY_TOL:
        raise ValueError(f"{what} does not satisfy the heteroclinic boundary rows")


def newton_solve(p: Params, guess: ProfilePair, opts: SolveOptions) -> SolveOutcome:
    """Solve the discrete heteroclinic problem by damped Newton iteration.

    Solves on the guess's grid.  Requires coupling > 1 (below that no front exists;
    positive states are constant) and a guess whose end rows carry the heteroclinic
    data.  Damping halves the step until the max-norm residual decreases, with a floor
    at :data:`DAMPING_MIN`; the floored step is taken if no decrease is found.

    Raises NonConvergence when ``opts.max_iters`` updates do not reach
    ``opts.newton_tol``, and SingularJacobian if a linearization is singular
    or it or the step it gives is not finite (coupling overflow).
    """
    if p.lam <= 1.0:
        raise RegimeError(
            f"no heteroclinic solve at coupling {p.lam}: positive states below "
            "coupling 1 are the constant pair (rigidity check T-liouville-sub1); "
            "coupling 1 admits only constants as well"
        )

    # the guess arrays are read-only and every update makes new ones
    g, u, v = guess.grid, guess.u, guess.v
    # since CPython 3.11 a call moves its arguments into the callee's frame,
    # so a guess built inline by the caller (``newton_solve(p,
    # initial_guess(p, g), opts)``) dies with the first update once this
    # name is gone; on older versions the caller keeps it alive
    del guess
    _check_heteroclinic_ends(u, v, "guess")
    ru, rv = gridmod.residual_1d(p, ProfilePair(g, u, v))
    rnorm = gridmod._max_norm(ru, rv)
    history = [rnorm]

    # an overflowing coupling makes inf and inf*0 entries in the Jacobian and
    # trial residuals; the step and residual tests report them, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(opts.max_iters):
            if rnorm <= opts.newton_tol:
                break
            # one band buffer is alive at a time: the right-hand side is formed
            # and the residual pair dropped before assembly, the factored
            # buffer right after the solve
            rhs = np.empty(2 * g.n)
            np.negative(ru, out=rhs[0::2])
            np.negative(rv, out=rhs[1::2])
            del ru, rv
            work = _assemble_bands(p, g, u, v)
            try:
                step = solve_banded(work, rhs)
            except np.linalg.LinAlgError as exc:
                raise SingularJacobian(p.lam, iteration) from exc
            del work
            if not np.all(np.isfinite(step)):
                raise SingularJacobian(p.lam, iteration, "non-finite linearization or Newton step")
            du = step[0::2]
            dv = step[1::2]

            s = 1.0
            while True:
                tu = u + s * du
                tv = v + s * dv
                tru, trv = gridmod.residual_1d(p, ProfilePair(g, tu, tv))
                tnorm = gridmod._max_norm(tru, trv)
                if tnorm < rnorm or s <= DAMPING_MIN:
                    break
                s = max(s / 2.0, DAMPING_MIN)
            u, v, ru, rv, rnorm = tu, tv, tru, trv, tnorm
            history.append(rnorm)
            del step, du, dv, tu, tv, tru, trv

    outcome = SolveOutcome(
        profile=ProfilePair(g, u, v),
        iterations=len(history) - 1,  # the updates taken: history holds the start and one residual per update
        final_residual=rnorm,
        converged=rnorm <= opts.newton_tol,
        lam=p.lam,
        residual_history=tuple(history),
    )
    if outcome.converged:
        return outcome
    raise NonConvergence(
        f"newton iteration did not reach {opts.newton_tol} within "
        f"{opts.max_iters} updates at coupling {p.lam} "
        f"(final residual {rnorm:.3e})",
        outcome=outcome,
    )


def pin_phase(prof: ProfilePair) -> ProfilePair:
    """Translate a profile so the u-v crossing sits at x = 0.

    Locates the sign change of u-v by linear interpolation, at x*, and
    resamples both components at x + x* with the four-point cubic Lagrange
    stencil.  All nodes share one fractional offset, so this is one fixed
    4-tap filter, summed as the middle tap plus weighted differences from
    it so that flat stretches keep their bits.  Taps past either end take
    the end value; queries beyond the grid keep the end values bit for bit.
    The O(h^4) error is what the uniqueness check needs: solves from
    different seeds settle at slightly different translations, and linear
    resampling would leave each with its own O(h^2) artifact.  Idempotent up
    to interpolation error.  Raises NoCrossing when u-v never changes sign
    (for instance on constant profiles).
    """
    x = prof.grid.nodes()
    d = prof.u - prof.v
    zeros = np.flatnonzero(d == 0.0)
    if zeros.size:
        x_star = float(x[zeros[0]])
    else:
        sign_flip = np.flatnonzero(d[:-1] * d[1:] < 0.0)
        if sign_flip.size == 0:
            raise NoCrossing("u-v does not change sign; not a heteroclinic profile")
        i = int(sign_flip[0])
        x_star = float(x[i] - d[i] * prof.grid.h / (d[i + 1] - d[i]))
    if x_star == 0.0:
        return prof
    # node i is resampled at index i + k + t, between nodes j = i + k and
    # j + 1; w0, w2, w3 weigh nodes j - 1, j + 1 and j + 2 against node j
    n = prof.grid.n
    offset = x_star / prof.grid.h
    k = math.floor(offset)
    t = offset - k
    w0 = -t * (t - 1.0) * (t - 2.0) / 6.0
    w2 = -(t + 1.0) * t * (t - 2.0) / 2.0
    w3 = (t + 1.0) * t * (t - 1.0) / 6.0
    # nodes lo <= i < hi have 0 <= j <= n - 2; the others query past an end
    lo, hi = min(max(-k, 0), n), min(max(n - 1 - k, 0), n)
    resampled = []
    for y in (prof.u, prof.v):
        out = np.empty(n)
        out[:lo] = y[0]
        out[hi:] = y[-1]
        # the taps of node i are padded[i + k : i + k + 4]
        padded = np.concatenate(([y[0]], y, [y[-1], y[-1]]))
        base = padded[lo + k + 1 : hi + k + 1]
        s0, s2, s3 = (padded[lo + k + tap : hi + k + tap] - base for tap in (0, 2, 3))
        out[lo:hi] = base + (w0 * s0 + w2 * s2 + w3 * s3)
        resampled.append(out)
    return ProfilePair(prof.grid, *resampled)


def _lambda_samples(lambda_from: float, lambda_to: float, step: float):
    """Coupling samples from start to target inclusive, stepping by +-step.

    The couplings must be finite, the step finite and positive, and the
    range fewer than :data:`MAX_SWEEP_STEPS` steps long; each is checked
    before any sample is formed, and a ValueError names the field at fault.
    """
    for name, value in (("lambda_from", lambda_from), ("lambda_to", lambda_to)):
        if not math.isfinite(value):
            raise ValueError(f"{name}: coupling must be finite, got {value!r}")
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step: must be finite and positive, got {step!r}")
    span = abs(lambda_to - lambda_from) / step  # inf when the quotient overflows
    if not span < MAX_SWEEP_STEPS:
        raise ValueError(f"step: {step!r} takes {MAX_SWEEP_STEPS} or more steps from {lambda_from!r} to {lambda_to!r}")
    direction = 1.0 if lambda_to > lambda_from else -1.0
    count = int(span + 1e-9)
    samples = [lambda_from + direction * step * i for i in range(count + 1)]
    if math.isclose(samples[-1], lambda_to, rel_tol=0.0, abs_tol=1e-9):
        samples[-1] = lambda_to
    else:
        samples.append(lambda_to)
    return samples


def continuation_sweep(
    lambda_from: float,
    lambda_to: float,
    step: float,
    g: Grid1D,
    opts: SolveOptions,
) -> list[SolveOutcome]:
    """Natural-parameter continuation: each converged profile seeds the next.

    Produces one outcome per coupling sample (endpoints included), its
    profile phase-pinned.  The first sample is solved from
    :func:`initial_guess`.  A sample whose solve from the previous profile
    does not converge is solved once more from :func:`initial_guess`; if
    that fails too, its NonConvergence, which names the coupling, propagates.
    """
    samples = _lambda_samples(lambda_from, lambda_to, step)
    if min(lambda_from, lambda_to) <= 1.0:
        raise RegimeError("continuation range must stay above coupling 1")
    outcomes: list[SolveOutcome] = []
    for lam in samples:
        p = Params(lam)
        outcome = None
        if outcomes:
            try:
                outcome = newton_solve(p, outcomes[-1].profile, opts)
            except NonConvergence:
                pass
        if outcome is None:
            outcome = newton_solve(p, initial_guess(p, g), opts)
        outcomes.append(outcome)
    return [replace(o, profile=pin_phase(o.profile)) for o in outcomes]

