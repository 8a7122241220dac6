"""Damped Newton solver for 1D heteroclinic profiles, with continuation.

The discretized boundary value problem is solved by Newton iteration on the
interleaved unknown vector [u_0, v_0, u_1, v_1, ...].  The end nodes carry
Dirichlet data, so each step solves A d = r over the other nodes, where
A = -J is block-tridiagonal with 2x2 blocks: five scalar bands, symmetric
because the reaction is the gradient of the potential.  It is eliminated
directly (LAPACK banded Cholesky, exact and O(n)), and by banded LU where
A is not positive definite.  Steps are damped by residual-decrease
backtracking with a floor.

The front is reflection-symmetric, u(x) = v(-x).  A guess that is so bit
for bit, as the seed :func:`initial_guess` and every solve from it are, is
solved on the half line x >= 0 alone: n - 2 unknowns in place of 2n - 4,
and no translation mode, so the solution is pinned by construction.  Any
other guess, such as the uniqueness probe's noisy ones, is solved on the
whole grid.  Both systems have two bands each side and the same solver
loop; convergence is always certified on the whole profile's residual.

A solve holds one (3, n - 2) band buffer on the half line, (3, 2n - 4) on
the whole grid, and a fixed number of node vectors; the reaction Jacobian
is written straight into the buffer's band rows.

:func:`solve_banded` hands the bands, already in LAPACK's lower band
layout, to the dpbsv that ``scipy.linalg.solveh_banded(..., lower=True)``
calls, and falls back to the dgbsv behind ``scipy.linalg.solve_banded``,
so each is bit-identical to its scipy wrapper.  The routines come from
:mod:`gp_rigidity._kernels`, which loads scipy's compiled LAPACK module on
first use, so the package imports no ``scipy.linalg``, and only commands
that solve a front load LAPACK at all.  :func:`pin_phase` resamples with a
fixed four-point stencil and needs no solve; it pins profiles that were not
solved on the half line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    and the seed is the sampled coupling-3 front.  The seed is formed on the
    nodes x >= 0, with the exact equilibria in the end row, and mirrored,
    u(-x) = v(x), so it is reflection-symmetric bit for bit and
    :func:`newton_solve` takes it on the half line.  For odd n the centre
    node is sampled at x = 0, which linspace may miss by a rounding.
    """
    x = gridmod._block_nodes(g, slice(g.n // 2, g.n))
    if g.n % 2:
        x[0] = 0.0
    u, v = model.tanh_front(0.0, x)
    w = max(0.0, 1.0 - 3.0 / p.lam)
    if w > 0.0:
        u = (1.0 - w) * u + w * np.tanh(np.maximum(x, 0.0) / model.SQRT2)
        v = (1.0 - w) * v + w * np.tanh(np.maximum(-x, 0.0) / model.SQRT2)
    u[-1], v[-1] = gridmod.RIGHT_STATE
    left = g.n // 2
    return ProfilePair(g, np.concatenate((v[::-1][:left], u)), np.concatenate((u[::-1][:left], v)))


def _assemble_bands(p: Params, g: Grid1D, u: np.ndarray, v: np.ndarray, half: bool = False, shift: float = 0.0):
    """Lower bands of the Newton matrix A = -J + shift*I over the unknowns that are not Dirichlet data.

    A Fortran-ordered (3, m) buffer in LAPACK's lower band storage (the
    layout ``scipy.linalg.solveh_banded(..., lower=True)`` takes): row 0 is
    A's diagonal, row k its k-th subdiagonal, A[j + k, j] in column j, and
    the entries past the matrix's corner are not read.  The interleaved
    ordering gives bandwidth 2: the u-equation at node i couples u_{i-1},
    u_i, v_i, u_{i+1}; the v-equation couples v_{i-1}, u_i, v_i, v_{i+1}.
    The reaction is the gradient of the potential, so A is symmetric.  The
    Jacobian entries are written straight into their band rows, so the
    buffer and one scratch vector are the only allocations.  ``shift`` is
    a transverse mode's eigenvalue in the slab's Newton step.

    The end nodes carry Dirichlet data and are no unknowns.  Without
    ``half`` the system is the whole grid's interior, nodes 1 to n - 2,
    m = 2n - 4.  With ``half`` it is the reflection-symmetric half line,
    u(-x) = v(x): the last n entries of the interleaved vector without the
    end node, m = n - 2.  For even n the first node's left neighbour is its
    own mirror (u_{-1} = v_0, v_{-1} = u_0).  For odd n the unknowns are
    [s, u_1, v_1, ...] from the centre node on, s = u_c = v_c, and the
    first row is the centre equation -(u_1 + v_1 - 2s)/h^2 - f(s, s).
    """
    first = g.n // 2 if half else 1  # the first node whose unknowns are solved
    u, v = u[first:-1], v[first:-1]
    inv_h2 = 1.0 / g.h**2

    ab = np.empty((3, 2 * len(u)), order="F")
    # diagonal 2/h^2 + shift - c1, 2/h^2 + shift - c2 and first subdiagonal -dfv/du at the same node
    model.jacobian_entries(p, u, v, out=(ab[0, 0::2], ab[0, 1::2], ab[1, 0::2]))
    np.subtract(2.0 * inv_h2 + shift, ab[0], out=ab[0])
    np.negative(ab[1, 0::2], out=ab[1, 0::2])
    ab[1, 1::2] = 0.0  # v_i and u_{i+1} are not coupled
    ab[2] = -inv_h2  # second subdiagonal: neighbour couplings
    if half and g.n % 2 == 0:  # the mirror neighbour's coupling joins the same node's
        ab[1, 0] -= inv_h2
    elif half:  # u_c's column folds into s = v_c's, and v_{c-1} = u_1 joins the centre row
        ab[0, 1] += ab[1, 0]
        ab[1, 1] = -inv_h2
        return ab[:, 1:]
    return ab


def solve_banded(bands, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs in place, A the symmetric matrix whose lower bands ``bands()`` builds.

    ``bands`` returns a new buffer in the layout of :func:`_assemble_bands`;
    ``rhs`` is a vector or a Fortran-ordered matrix of right-hand sides,
    and is overwritten with the solution, which is returned.  One call of
    LAPACK's dpbsv (banded Cholesky), the routine
    ``scipy.linalg.solveh_banded(..., lower=True)`` calls, so the solution
    is the same to the bit.  When A is not positive definite dpbsv stops at
    a non-positive pivot, with ``rhs`` untouched but the bands overwritten:
    they are built again, spread into dgbsv's layout (two rows of fill-in
    space above the five bands) and solved by banded LU with partial
    pivoting, as ``scipy.linalg.solve_banded((2, 2), ...)`` solves them.
    Raises LinAlgError when an LU pivot is exactly 0.
    """
    _, x, info = _kernels.dpbsv(bands(), rhs, lower=1, overwrite_ab=1, overwrite_b=1)
    if info > 0:
        low = bands()
        work = np.zeros((7, low.shape[1]), order="F")
        work[4] = low[0]
        work[3, 1:] = work[5, :-1] = low[1, :-1]
        work[2, 2:] = work[6, :-2] = low[2, :-2]
        _, _, x, info = _kernels.dgbsv(2, 2, work, rhs, overwrite_ab=1, overwrite_b=1)
        if info > 0:
            raise np.linalg.LinAlgError(f"singular matrix: zero pivot in column {info}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK's banded solver")
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

    A reflection-symmetric guess, u == v[::-1] (as :func:`initial_guess` and
    the solves from it give), is solved on the half line x >= 0 and every
    iterate mirrored, so the solution is symmetric bit for bit and the
    translation mode, which symmetry excludes, is gone; any other guess is
    solved on the whole grid.  Either way every residual, the damping test
    and the stop read :func:`grid.residual_1d` of the whole profile.

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
    half = np.array_equal(u, v[::-1])
    # the unknowns are the interleaved entries [u_0, v_0, u_1, v_1, ...] from
    # index lo on: its u entries are nodes a.., its v entries nodes b..; on the
    # half line the nodes below a (u) and b (v) are the mirrors of the others
    lo = g.n if half else 0
    a, b = (lo + 1) // 2, lo // 2
    ru, rv = gridmod.residual_1d(p, ProfilePair(g, u, v))
    rnorm = gridmod._max_norm(ru, rv)
    history = [rnorm]

    # an overflowing coupling makes inf and inf*0 entries in the Jacobian and
    # trial residuals; the step and residual tests report them, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(opts.max_iters):
            if rnorm <= opts.newton_tol:
                break
            # A = -J, so the right-hand side is the residual.  An end node's
            # step is minus its Dirichlet defect, and moves to the right-hand
            # side of its neighbour's row (on the half line with n = 3, the
            # left end's is the mirror of the right end's u defect)
            for r in (ru, rv):
                r[[0, -1]] *= -1.0
                r[1] += r[0] / g.h**2
                r[-2] += r[-1] / g.h**2
            # one band buffer is alive at a time: the right-hand side is formed
            # and the residual pair dropped before assembly, the factored
            # buffer inside the solve
            step = np.empty(2 * g.n - lo)
            step[lo % 2 :: 2] = ru[a:]
            step[1 - lo % 2 :: 2] = rv[b:]
            del ru, rv, r
            try:
                # in place: the end nodes' entries are not unknowns
                solve_banded(lambda: _assemble_bands(p, g, u, v, half), step[0 if half else 2 : -2])
            except np.linalg.LinAlgError as exc:
                raise SingularJacobian(p.lam, iteration) from exc
            if not np.all(np.isfinite(step)):
                raise SingularJacobian(p.lam, iteration, "non-finite linearization or Newton step")
            du = step[lo % 2 :: 2]
            dv = step[1 - lo % 2 :: 2]

            s = 1.0
            while True:
                tu = np.empty(g.n)
                tv = np.empty(g.n)
                np.add(u[a:], s * du, out=tu[a:])
                np.add(v[b:], s * dv, out=tv[b:])
                tu[:a] = tv[: -a - 1 : -1]
                tv[:b] = tu[: -b - 1 : -1]
                tu.setflags(write=False)  # so the trial profile takes the arrays without a copy
                tv.setflags(write=False)
                tru, trv = gridmod.residual_1d(p, ProfilePair(g, tu, tv))
                tnorm = gridmod._max_norm(tru, trv)
                if tnorm < rnorm or s <= DAMPING_MIN:
                    break
                del tu, tv, tru, trv  # a rejected trial is dropped before the next is made
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

    Produces one outcome per coupling sample (endpoints included).  The
    first sample is solved from :func:`initial_guess`, so every profile is
    reflection-symmetric and solved on the half line, pinned by
    construction.  A sample whose solve from the previous profile
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
    return outcomes

