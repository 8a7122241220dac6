"""Damped Newton solver for 1D heteroclinic profiles, with continuation.

The discretized boundary value problem is solved by Newton iteration on the
interleaved unknown vector [u_0, v_0, u_1, v_1, ...].  Each step solves a
block-tridiagonal system with 2x2 blocks, assembled into five scalar bands
and eliminated directly (LAPACK banded LU, exact and O(n)).  Steps are
damped by residual-decrease backtracking with a floor.

Both numerical kernels call LAPACK directly instead of going through
scipy's Python wrappers, and both are bit-identical to those wrappers:
:func:`solve_banded` hands the bands, already in dgbsv's layout, to the
dgbsv that ``scipy.linalg.solve_banded((2, 2), ...)`` calls, and
:func:`pin_phase` resamples with a private not-a-knot cubic spline that
repeats ``scipy.interpolate.CubicSpline`` and ``PPoly`` operation for
operation (same rows, same dgtsv solve, same coefficient and evaluation
order).  The package therefore never imports ``scipy.interpolate``.
``scipy.linalg`` is imported inside those two kernels, so only commands that
solve a front or resample one load it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import grid as gridmod
from . import model
from .errors import ContinuationStall, NoCrossing, NonConvergence, RegimeError, SingularJacobian
from .grid import Grid1D, ProfilePair
from .model import Params

# Boundary rows of a Newton guess must match the heteroclinic data to this
# accuracy; solves started from conforming guesses keep the rows exact.
GUESS_BOUNDARY_TOL = 1e-6

# Backtracking halves a Newton step at most down to this fraction.
DAMPING_MIN = 1.0 / 64.0


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
    """Universal seed: the explicit coupling-3 front sampled on the grid.

    Used for every coupling; it has the correct limits and topology, and the
    end rows are overwritten with the exact equilibria so the Dirichlet data
    hold bitwise.
    """
    u, v = model.tanh_front(0.0, g.nodes())
    u = np.array(u)
    v = np.array(v)
    u[0], v[0] = gridmod.LEFT_STATE
    u[-1], v[-1] = gridmod.RIGHT_STATE
    return ProfilePair(g, u, v)


def _residual_arrays(p: Params, g: Grid1D, u: np.ndarray, v: np.ndarray):
    prof = ProfilePair(g, u, v)
    return gridmod.residual_1d(p, prof)


def _assemble_bands(p: Params, g: Grid1D, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Five-band matrix of the Newton system in LAPACK dgbsv layout.

    A Fortran-ordered (7, 2n) buffer: rows 0-1 are dgbsv's fill-in space,
    rows 2-6 the bands from the +2 to the -2 diagonal (the layout that
    ``scipy.linalg.solve_banded((2, 2), ...)`` takes).  The interleaved
    ordering gives bandwidth 2 on each side: the u-equation at node i
    couples u_{i-1}, u_i, v_i, u_{i+1}; the v-equation couples v_{i-1},
    u_i, v_i, v_{i+1}.  End rows are identity (Dirichlet defects).
    """
    n = g.n
    m = 2 * n
    inv_h2 = 1.0 / g.h**2
    c1, c2, off = model.jacobian_entries(p, u, v)

    work = np.zeros((7, m), order="F")
    ab = work[2:]
    # main diagonal
    ab[2, 0::2] = -2.0 * inv_h2 + c1
    ab[2, 1::2] = -2.0 * inv_h2 + c2
    # +1 diagonal: dfu/dv at the same node (u-rows only)
    ab[1, 1::2] = off
    # -1 diagonal: dfv/du at the same node (v-rows only)
    ab[3, 0::2] = off
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
    import scipy.linalg

    _, _, x, info = scipy.linalg.lapack.dgbsv(2, 2, work, rhs, overwrite_ab=1, overwrite_b=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: zero pivot in column {info}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgbsv")
    return x


def newton_solve(p: Params, g: Grid1D, guess: ProfilePair, opts: SolveOptions) -> SolveOutcome:
    """Solve the discrete heteroclinic problem by damped Newton iteration.

    Requires coupling > 1 (below that no front exists; positive states are
    constant) and a guess whose end rows carry the heteroclinic data.  Damping
    halves the step until the max-norm residual decreases, with a floor at
    :data:`DAMPING_MIN`; the floored step is taken if no decrease is found.

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
    if guess.grid != g:
        raise ValueError("guess grid does not match the solve grid")
    if gridmod.heteroclinic_boundary_defect(guess) > GUESS_BOUNDARY_TOL:
        raise ValueError("guess does not satisfy the heteroclinic boundary rows")

    u = guess.u.copy()
    v = guess.v.copy()
    ru, rv = _residual_arrays(p, g, u, v)
    rnorm = gridmod._max_norm(ru, rv)
    history = [rnorm]

    for iteration in range(opts.max_iters):
        if rnorm <= opts.newton_tol:
            return SolveOutcome(
                profile=ProfilePair(g, u, v),
                iterations=iteration,
                final_residual=rnorm,
                converged=True,
                lam=p.lam,
                residual_history=tuple(history),
            )
        # an overflowing coupling makes inf and inf*0 entries; the finiteness
        # check on the step reports them, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            work = _assemble_bands(p, g, u, v)
        rhs = np.empty(2 * g.n)
        rhs[0::2] = -ru
        rhs[1::2] = -rv
        try:
            step = solve_banded(work, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(p.lam, iteration) from exc
        if not np.all(np.isfinite(step)):
            raise SingularJacobian(p.lam, iteration, "non-finite linearization or Newton step")
        du = step[0::2]
        dv = step[1::2]

        s = 1.0
        while True:
            tu = u + s * du
            tv = v + s * dv
            tru, trv = _residual_arrays(p, g, tu, tv)
            tnorm = gridmod._max_norm(tru, trv)
            if tnorm < rnorm or s <= DAMPING_MIN:
                break
            s = max(s / 2.0, DAMPING_MIN)
        u, v, ru, rv, rnorm = tu, tv, tru, trv, tnorm
        history.append(rnorm)

    outcome = SolveOutcome(
        profile=ProfilePair(g, u, v),
        iterations=opts.max_iters,
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


def _not_a_knot_spline(x: np.ndarray, ys, xq: np.ndarray) -> list[np.ndarray]:
    """Not-a-knot cubic spline through (x, y) for each y in ``ys``, at ``xq``.

    Bit-identical to ``scipy.interpolate.CubicSpline(x, y)(xq)`` for
    ``x[0] <= xq <= x[-1]``, because it repeats scipy's arithmetic operation
    for operation: the node slopes solve the same tridiagonal rows with
    dgtsv (the parabola system through ``scipy.linalg.solve`` when n = 3),
    the Hermite coefficients come in scipy's order, each query uses
    ``PPoly``'s interval (closed on the right at the last node), and the
    polynomial is summed as ``PPoly`` sums it, from 0.0 with the constant
    term first, which maps -0.0 to +0.0 as scipy does.  The interval index
    and the powers of the local coordinate are shared by all of ``ys``.
    """
    import scipy.linalg

    n = x.size
    dx = np.diff(x)
    idx = np.clip(np.searchsorted(x, xq, "right") - 1, 0, n - 2)
    z1 = xq - x[idx]
    z2 = z1 * z1
    z3 = z2 * z1
    if n > 3:
        # diagonals of the slope system: not-a-knot first and last rows
        d = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]))
        du = np.concatenate(([x[2] - x[0]], dx[:-1]))
        dl = np.concatenate((dx[1:], [x[-1] - x[-3]]))
        d_start, d_end = du[0], dl[-1]
    values = []
    for y in ys:
        slope = np.diff(y) / dx
        if n == 3:
            a = np.array([[1.0, 1.0, 0.0], [dx[1], 2 * (dx[0] + dx[1]), dx[0]], [0.0, 1.0, 1.0]])
            b = np.array([2 * slope[0], 3 * (dx[0] * slope[1] + dx[1] * slope[0]), 2 * slope[1]])
            s = scipy.linalg.solve(
                a, b.reshape(3, 1), overwrite_a=True, overwrite_b=True, check_finite=False
            ).reshape(3)
        else:
            b = np.empty((n, 1))
            b[1:-1, 0] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
            b[0, 0] = ((dx[0] + 2 * d_start) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d_start
            b[-1, 0] = (dx[-1] ** 2 * slope[-2] + (2 * d_end + dx[-1]) * dx[-2] * slope[-1]) / d_end
            _, _, _, s, info = scipy.linalg.lapack.dgtsv(dl, d, du, b, overwrite_b=1)
            if info != 0:
                raise np.linalg.LinAlgError(f"spline slope system failed (dgtsv info {info})")
            s = s[:, 0]
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        c0 = t / dx
        c1 = (slope - s[:-1]) / dx - t
        res = 0.0 + y[idx]
        res = res + s[idx] * z1
        res = res + c1[idx] * z2
        values.append(res + c0[idx] * z3)
    return values


def pin_phase(prof: ProfilePair) -> ProfilePair:
    """Translate a profile so the u-v crossing sits at x = 0.

    Locates the sign change of u-v by linear interpolation, then resamples
    both components at the shifted nodes with a not-a-knot cubic spline
    (queries beyond the grid are clamped to the end values; the tails are
    flat).  Cubic resampling keeps the error near h^4, which the uniqueness
    probe needs: solves from different seeds settle at slightly different
    translations, and linear resampling would leave each with its own
    O(h^2) artifact.  The spline is private and bit-identical to
    ``scipy.interpolate.CubicSpline`` (see :func:`_not_a_knot_spline`), so
    the resampled profiles are exactly scipy's without importing
    ``scipy.interpolate``.  Idempotent up to interpolation error.  Raises
    NoCrossing when u-v never changes sign (for instance on constant
    profiles).
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
    shifted = np.clip(x + x_star, x[0], x[-1])
    new_u, new_v = _not_a_knot_spline(x, (prof.u, prof.v), shifted)
    return ProfilePair(prof.grid, new_u, new_v)


def _lambda_samples(lambda_from: float, lambda_to: float, step: float):
    """Coupling samples from start to target inclusive, stepping by +-step."""
    if lambda_from == lambda_to:
        return [lambda_from]
    if step <= 0.0:
        raise ValueError("continuation step must be positive")
    direction = 1.0 if lambda_to > lambda_from else -1.0
    count = int(abs(lambda_to - lambda_from) / step + 1e-9)
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
    profile phase-pinned.  When a solve fails the gap from the last good
    coupling is bridged with halved sub-steps, up to four halvings; if the
    bridge still fails a ContinuationStall carrying the partial outcomes is
    raised.
    """
    if min(lambda_from, lambda_to) <= 1.0:
        raise RegimeError("continuation range must stay above coupling 1")
    samples = _lambda_samples(lambda_from, lambda_to, step)
    outcomes: list[SolveOutcome] = []
    seed = initial_guess(Params(samples[0]), g)
    prev_lam = None
    for lam in samples:
        try:
            outcome = newton_solve(Params(lam), g, seed, opts)
        except NonConvergence:
            outcome = _bridge(prev_lam, lam, seed, g, opts, outcomes)
        seed = outcome.profile
        prev_lam = lam
        outcomes.append(outcome)
    return [replace(o, profile=pin_phase(o.profile)) for o in outcomes]


def _bridge(lam_from, lam_to, seed, g, opts, outcomes):
    """Walk from the last good coupling to the failed one in halved sub-steps."""
    if lam_from is None:
        raise ContinuationStall(None, lam_to, outcomes)
    gap = lam_to - lam_from
    for halving in range(1, 5):
        parts = 2**halving
        current = seed
        try:
            outcome = None
            for k in range(1, parts + 1):
                lam_k = lam_from + gap * k / parts
                outcome = newton_solve(Params(lam_k), g, current, opts)
                current = outcome.profile
            return outcome
        except NonConvergence:
            continue
    raise ContinuationStall(lam_from, lam_to, outcomes)


def uniqueness_probe(
    p: Params,
    g: Grid1D,
    opts: SolveOptions,
    n_seeds: int,
    rng_seed: int,
) -> float:
    """Max pairwise sup-distance between pinned solves from perturbed seeds.

    Each seed adds uniform noise of amplitude 0.2 to the interior nodes of
    the standard guess (clipped to keep the values positive and below 1),
    solves, pins the phase, and the largest pairwise max-norm distance over
    both components is returned.  All randomness comes from ``rng_seed``.
    """
    rng = np.random.default_rng(rng_seed)
    base = initial_guess(p, g)
    profiles = []
    for k in range(n_seeds):
        u = base.u.copy()
        v = base.v.copy()
        u[1:-1] = np.clip(u[1:-1] + rng.uniform(-0.2, 0.2, g.n - 2), 1e-6, 1.0)
        v[1:-1] = np.clip(v[1:-1] + rng.uniform(-0.2, 0.2, g.n - 2), 1e-6, 1.0)
        try:
            outcome = newton_solve(p, g, ProfilePair(g, u, v), opts)
        except NonConvergence as exc:
            raise NonConvergence(
                f"seed {k} of the uniqueness probe failed: {exc}", outcome=exc.outcome
            ) from exc
        profiles.append(pin_phase(outcome.profile))
    pairs = itertools.combinations(profiles, 2)
    return max((gridmod._max_norm(a.u - b.u, a.v - b.v) for a, b in pairs), default=0.0)
