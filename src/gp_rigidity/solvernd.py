"""Stabilized semi-implicit gradient-flow relaxation on 2D slabs and periodic boxes.

One flow step treats the Laplacian implicitly and the reaction explicitly,
with a stabilizing term sigma*u on both sides (Shen & Yang, DCDS-A 28
(2010); Eyre's convex splitting):

    sigma u' - (D_t + D_n) u' = sigma u + f(u),    sigma = (2 + 3*lam)/2.

The potential's Hessian is bounded by 2 + 3*lam over [-1,1]^2 (Gershgorin
on the c1/c2/off entries of the reaction Jacobian).  With sigma half that
bound, the usual energy argument shows that the step cannot raise the
discrete energy while the iterates stay in [-1,1]^2.  A state is a fixed
point of the step exactly when its discrete steady residual vanishes, and
the step's update max-norm is at most 1/sigma times that residual's.

The implicit operator is diagonal in a fixed tensor basis: the real FFT
along a periodic axis and the type-I discrete sine transform over the
interior nodes of a Dirichlet axis, where the pinned end columns enter the
first and last interior nodes as known neighbours.  The solve is exact up
to rounding, with no splitting, no factorization and no BLAS.  The
transforms are pocketfft's, loaded by :mod:`gp_rigidity._kernels` without
importing a scipy package.

sigma grows like 3*lam/2, so the plain step contracts slowly at large
couplings and near coupling 1.  :func:`relax_to_steady` therefore
accelerates it with depth-1 Anderson mixing (Anderson, J. ACM 12 (1965);
Walker & Ni, SIAM J. Numer. Anal. 49 (2011)) behind an energy safeguard.
The depth is 1 because memory bounds the flow as much as time does: each
further level keeps two more fields alive, and a depth-5 window tripled
the traced allocation peak of the default battery.

Near its end the flow converges only linearly, so the run finishes with
Newton steps whose reaction Jacobian is frozen at a mean of the field,
which makes their operator diagonal or banded in the flow's basis: the
transverse mean on a Dirichlet slab (:func:`_newton_step`, the optimal
circulant approximation; T. Chan, SIAM J. Sci. Stat. Comput. 9 (1988)),
the spatial mean on a periodic box (:func:`_box_newton_step`).  The flow
hands over only once the spread (transverse on a slab, over all nodes on a
box) is small as well as the residual: the frozen Jacobian models a
structured state poorly, and on a curved slab the energy safeguard then
turns down nearly every Newton candidate.  The flow step from a
turned-down candidate is taken when it is downhill, because near coupling
1 the constants lie in a curved energy valley along the unit circle: a
straight Newton step climbs the valley's wall, and the flow damps that
stiff radial error first while keeping the progress along the valley.

Every candidate (Anderson's, Newton's, or the flow step from a turned-down
Newton candidate) passes one energy test, :func:`_downhill`.  Both Newton
steps take the residual pair and the run's eigenvalue pair, so a run picks
its Newton step and its spread once, from the geometry.

Newton's operator is invertible, so it cannot manufacture a
one-dimensional or constant state: a run stops only on the residual
certificate, and the anisotropy and the constancy are measured on the
final field.  On a slab the k=0 block carries the near-neutral translation
mode, so the end state may sit a small shift away from the flow's.  The
pinned end columns stay those of the start field bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from . import grid as gridmod
from . import model
from . import solver1d
from .errors import NonConvergence, SolverError, TooAnisotropic
from .grid import Grid1D, ProfilePair, SlabField
from .model import Params

# A run switches to the Newton finish once the accepted update is below
# _NEWTON_SWITCH/sigma and both the certified residual and the spread
# (transverse on a slab, over all nodes on a box) are at most _NEWTON_SWITCH.
_NEWTON_SWITCH = 1e-2
# After a rejected Newton candidate, Newton is tried again only once the
# residual is below this fraction of its value at the rejected attempt; until
# then the residual is formed only when the update times sigma is too.
_NEWTON_RETRY = 0.1


@dataclass(frozen=True)
class FlowOptions:
    """Relaxation controls.

    Once the max-norm of an accepted update falls below
    ``steady_tol/sigma`` (:func:`stabilization`), or after a Newton step,
    the run computes the max-norm of the steady residual
    (:func:`grid.residual_slab`) and stops when that is at most
    ``steady_tol``; otherwise it keeps stepping.  ``max_steps`` (at least 1)
    bounds the accepted iterates, flow and Newton together.
    """

    steady_tol: float = 1e-9
    max_steps: int = 40000

    def __post_init__(self):
        if not self.steady_tol > 0.0:
            raise ValueError(f"steady_tol: must be positive, got {self.steady_tol!r}")
        if not self.max_steps >= 1:
            raise ValueError(f"max_steps: must be at least 1, got {self.max_steps!r}")


@dataclass(frozen=True)
class FlowOutcome:
    field: SlabField
    steps: int
    final_update: float
    final_residual: float  # max-norm of grid.residual_slab at the final field
    converged: bool
    rejected: int = 0  # Anderson and Newton candidates the energy safeguard turned down
    newton_steps: int = 0  # accepted iterates that came from the Newton finish
    energy_trace: tuple = field(default=(), repr=False)
    update_trace: tuple = field(default=(), repr=False)


def stabilization(p: Params) -> float:
    """sigma = (2 + 3*lam)/2, half the potential's Hessian bound over [-1,1]^2."""
    return (2.0 + 3.0 * p.lam) / 2.0


def _eigenvalues(a: float, m: int, periodic: bool) -> np.ndarray:
    """Eigenvalues of -a * second difference along one axis, in transform order.

    A periodic axis of m nodes goes through the half-complex real FFT
    (``scipy.fftpack.rfft`` layout: mode 0, then the real and imaginary parts
    of modes 1, 2, ..., so entry j holds mode (j + 1) // 2 at angle
    2*pi*mode/m).  The m - 2 interior nodes of a Dirichlet axis go through the
    DST-I, whose entry j holds mode j + 1 at angle pi*(j + 1)/(m - 1).
    """
    if periodic:
        angles = 2.0 * np.pi / m * ((np.arange(m) + 1) // 2)
    else:
        angles = np.pi / (m - 1) * np.arange(1, m - 1)
    return 2.0 * a * (1.0 - np.cos(angles))


def _axis_eigenvalues(f: SlabField) -> tuple:
    """The eigenvalues (kappa_t, kappa_n) of minus the second difference along each axis of f (:func:`_eigenvalues`)."""
    return (
        _eigenvalues(1.0 / f.grid_t.h**2, f.grid_t.n, periodic=True),
        _eigenvalues(1.0 / f.grid_n.h**2, f.grid_n.n, f.periodic_n),
    )


# The four transforms of the flow and the Newton steps, each in x's buffer:
# pocketfft called with the positional arguments that scipy.fftpack.rfft/irfft
# and scipy.fft.dst/idst(type=1) pass it when overwrite_x is set, so the bits
# are scipy's.  The DST calls leave out the trailing ``ortho``, which older
# scipy builds lack.  Keyword arguments would give the same bits, but after a
# few thousand keyword calls the binding layer allocates a 0.94 MB block
# (traced by tracemalloc) that positional calls never need.


def _rfft(x: np.ndarray, axis: int) -> np.ndarray:
    return _kernels.r2r_fftpack(x, (axis,), True, True, 0, x, 1)


def _irfft(x: np.ndarray, axis: int) -> np.ndarray:
    return _kernels.r2r_fftpack(x, (axis,), False, False, 2, x, 1)


def _dst1(x: np.ndarray, axis: int) -> np.ndarray:
    return _kernels.dst(x, 1, (axis,), 0, x, 1)


def _idst1(x: np.ndarray, axis: int) -> np.ndarray:
    return _kernels.dst(x, 1, (axis,), 2, x, 1)


def _diffuse(f: SlabField, old: np.ndarray, rhs: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """Apply the implicit operator's inverse, given by its symbol; Dirichlet end columns keep old's values.

    rhs holds the right-hand side on every node of a periodic box, and on
    the interior columns only of a Dirichlet slab; it is overwritten.  The
    Dirichlet end rows of the operator are identity rows, so the pinned
    columns pass through and enter the first and last interior columns as
    known neighbours.  Both transforms are real and keep the shape, so the
    solve runs in rhs's buffer; a complex spectrum would add a larger array.
    """
    if f.periodic_n:
        _rfft(rhs, 1)
    else:
        a_n = 1.0 / f.grid_n.h**2
        rhs[:, 0] += a_n * old[:, 0]
        rhs[:, -1] += a_n * old[:, -1]
        _dst1(rhs, 1)
    _rfft(rhs, 0)
    rhs *= inverse
    _irfft(rhs, 0)
    if f.periodic_n:
        return _irfft(rhs, 1)
    _idst1(rhs, 1)
    new = np.empty_like(old)
    new[:, 1:-1] = rhs
    new[:, 0] = old[:, 0]
    new[:, -1] = old[:, -1]
    return new


def flow_step(p: Params, f: SlabField, kappa: tuple | None = None) -> SlabField:
    """One stabilized semi-implicit step: explicit reaction, implicit diffusion.

    Solves sigma u' - (D_t + D_n) u' = sigma u + f(u) with
    sigma = :func:`stabilization`.  ``kappa`` is the pair
    :func:`_axis_eigenvalues` of f, formed here when not given
    (:func:`relax_to_steady` forms it once per run).  Dirichlet end
    columns are carried through unchanged.  Raises SolverError when the
    new field is not finite (the coupling overflows the step).
    """
    sigma = stabilization(p)
    # pinned end columns take no reaction; f's arrays were checked when f was built
    cols = slice(None) if f.periodic_n else slice(1, -1)
    u, v = f.u[:, cols], f.v[:, cols]
    rhs_u, rhs_v = model.reaction(p, u, v)
    rhs_u += sigma * u
    rhs_v += sigma * v
    kappa_t, kappa_n = _axis_eigenvalues(f) if kappa is None else kappa
    # the symbol of the operator's inverse in the basis _diffuse uses; it is formed
    # at each step because holding it for the run would raise the run's memory peak
    inverse = 1.0 / (sigma + kappa_t[:, None] + kappa_n)
    new_u = _diffuse(f, f.u, rhs_u, inverse)
    new_v = _diffuse(f, f.v, rhs_v, inverse)
    # read-only arrays that own their memory become the new field without a copy
    new_u.setflags(write=False)
    new_v.setflags(write=False)
    try:
        return f.with_values(new_u, new_v)
    except ValueError as exc:  # the field check is the step's only finiteness test
        raise SolverError(f"flow step at coupling {p.lam}: {exc}") from exc


def _mixed(history: list, f: tuple, g: SlabField) -> SlabField | None:
    """Depth-1 Anderson candidate g + gamma*(g_prev - g); empties history.

    history holds the previous plain update f_prev (two writable arrays,
    overwritten with f_prev - f) and the previous plain step g_prev; f is
    the update g - x of the current plain step g.  The coefficient
    gamma = -<f_prev - f, f> / |f_prev - f|^2, with inner products summed
    over both fields, minimizes |f + gamma*(f_prev - f)|.  Each history
    array is dropped as soon as it is used, so at most one previous pair is
    ever alive.  Returns None when f_prev == f or the candidate is not
    finite (numpy's overflow warnings are off in :func:`relax_to_steady`,
    the only caller).  Dirichlet end columns are copied from g, so they
    stay those of the starting field bit for bit.
    """
    (fu_prev, fv_prev), g_prev = history
    history.clear()
    fu, fv = f
    fu_prev -= fu
    fv_prev -= fv
    num = float((fu_prev * fu).sum() + (fv_prev * fv).sum())
    den = float((fu_prev * fu_prev).sum() + (fv_prev * fv_prev).sum())
    del fu_prev, fv_prev
    if not den > 0.0:
        return None
    gamma = -num / den
    mixed = []
    for new, old in ((g.u, g_prev.u), (g.v, g_prev.v)):
        a = old - new
        a *= gamma
        a += new
        mixed.append(a)
    del g_prev
    return _candidate(g, *mixed)


def _newton_step(p: Params, f: SlabField, ru: np.ndarray, rv: np.ndarray, kappa: tuple) -> SlabField | None:
    """Newton candidate from the Dirichlet slab f, with the Jacobian frozen at the transverse mean.

    ru, rv is the residual pair of :func:`grid.residual_slab` at f; both are
    overwritten.  kappa is the pair :func:`_axis_eigenvalues` of f; only its
    first entry, the eigenvalues kappa_t of minus the transverse second
    difference, is used.  The candidate is f - d, where J_bar d = r and
    J_bar is the slab Laplacian plus the reaction Jacobian at
    (u_bar, v_bar), the transverse means of f, with identity end rows.  The
    right-hand side's end rows are zeroed, so d vanishes on the pinned
    columns, and the candidate's end columns are copied from f bit for bit.
    In the transverse real FFT (``scipy.fftpack.rfft`` layout,
    :func:`_eigenvalues`) J_bar is the 1D Newton matrix of
    :func:`solver1d._assemble_bands` at (u_bar, v_bar) with -kappa_k added
    on its interior diagonal, so each transverse mode k (its one or two
    rows) takes one banded solve in a copy of one (7, 2n) buffer.  Returns
    None when the candidate is not finite or a pivot is exactly zero.
    """
    m, n = f.u.shape
    for r in (ru, rv):
        r[:, 0] = 0.0
        r[:, -1] = 0.0
        _rfft(r, 0)
    bands = solver1d._assemble_bands(p, f.grid_n, f.u.mean(axis=0), f.v.mean(axis=0))
    for k in range(m // 2 + 1):
        rows = slice(max(2 * k - 1, 0), min(2 * k + 1, m))  # entries j with (j + 1) // 2 == k
        work = bands.copy(order="F")
        work[4, 2:-2] -= kappa[0][rows.start]
        rhs = np.empty((2 * n, rows.stop - rows.start), order="F")
        rhs[0::2] = ru[rows].T
        rhs[1::2] = rv[rows].T
        try:
            # through the module attribute, so a wrapper installed there sees the call
            step = solver1d.solve_banded(work, rhs)
        except np.linalg.LinAlgError:
            return None
        ru[rows] = step[0::2].T
        rv[rows] = step[1::2].T
    for r, old in ((ru, f.u), (rv, f.v)):
        np.subtract(old, _irfft(r, 0), out=r)
    return _candidate(f, ru, rv)


def _box_newton_step(p: Params, f: SlabField, ru: np.ndarray, rv: np.ndarray, kappa: tuple) -> SlabField | None:
    """Newton candidate from the periodic box f, with the Jacobian frozen at the spatial mean.

    ru, rv is the residual pair of :func:`grid.residual_slab` at f; both are
    overwritten.  kappa is the pair (kappa_t, kappa_n) of
    :func:`_axis_eigenvalues` at f, the eigenvalues of minus the second
    difference along each axis.  The candidate is f - d, where J_bar d = r
    and J_bar is the box Laplacian plus the reaction Jacobian (c1, c2, off)
    at the means (u_bar, v_bar) of f.  Its coefficients are constant, so the
    2D real FFT of :func:`_diffuse` diagonalizes it: entry (i, j) of the
    spectra solves [[c1 - k, off], [off, c2 - k]] d = r with
    k = kappa_t[i] + kappa_n[j], in closed form by the adjugate over the
    determinant.  The solve runs in ru's and rv's buffers and three
    coefficient arrays.  Returns None when the candidate is not finite (a
    determinant of zero gives one).
    """
    for r in (ru, rv):
        _rfft(_rfft(r, 1), 0)
    c1, c2, off = model.jacobian_entries(p, f.u.mean(), f.v.mean())
    # minus the diagonal entries, k - c1 and k - c2, and the determinant
    # (k - c1)(k - c2) - off^2; the block's inverse is adj/det, so
    # -d_u = ((k - c2) r_u + off r_v)/det and -d_v = ((k - c1) r_v + off r_u)/det
    minus_c1 = np.add.outer(*kappa)
    minus_c2 = minus_c1 - c2
    minus_c1 -= c1
    det = minus_c1 * minus_c2
    det -= off * off
    minus_c1 /= det
    minus_c2 /= det
    np.divide(off, det, out=det)
    minus_c2 *= ru
    minus_c1 *= rv
    ru *= det
    rv *= det
    del det
    ru += minus_c1  # -d_v
    rv += minus_c2  # -d_u
    del minus_c1, minus_c2
    for r, old in ((rv, f.u), (ru, f.v)):
        np.add(_irfft(_irfft(r, 0), 1), old, out=r)
    return _candidate(f, rv, ru)


def _candidate(f: SlabField, u: np.ndarray, v: np.ndarray) -> SlabField | None:
    """The field on f's grids holding u and v, made read-only with f's Dirichlet end columns; None if not finite."""
    for a, old in ((u, f.u), (v, f.v)):
        if not f.periodic_n:
            a[:, 0] = old[:, 0]
            a[:, -1] = old[:, -1]
        a.setflags(write=False)
    try:
        return f.with_values(u, v)
    except ValueError:  # the candidate overflowed
        return None


def _distance(a: SlabField, b: SlabField) -> float:
    """Max-norm of the difference a - b over both fields."""
    return gridmod._max_norm(a.u - b.u, a.v - b.v)


def _downhill(p: Params, candidate: SlabField, update: float, energy: float) -> tuple | None:
    """(candidate, its discrete energy, update) when that energy is at most ``energy``, else None."""
    candidate_energy = gridmod.discrete_energy_slab(p, candidate)
    return (candidate, candidate_energy, update) if candidate_energy <= energy else None


def relax_to_steady(p: Params, f0: SlabField, opts: FlowOptions) -> FlowOutcome:
    """Iterate :func:`flow_step`, accelerated by safeguarded depth-1 Anderson mixing; finish by Newton.

    A candidate is accepted (:func:`_downhill`) when it is finite and its
    discrete energy is at most the last accepted one.  A flow step from x
    offers the candidate of :func:`_mixed`, formed from the plain step
    g = flow_step(x), its update g - x and the previous such pair, and
    otherwise takes g; either way (g - x, g) becomes the next window.  The
    run switches to Newton once the accepted update is below 1e-2/sigma, the
    certified residual is at most newton_below (first 1e-2) and the spread
    is at most 1e-2.  A Newton step (:func:`_newton_step` on a Dirichlet
    slab, :func:`_box_newton_step` on a periodic box) offers its candidate;
    when that is turned down, the flow step from the candidate, and
    otherwise a flow step from x with an empty window.  The run then
    continues by the flow, with newton_below a tenth of the residual at the
    attempt.  ``FlowOutcome.rejected`` counts the turned-down Anderson and
    Newton candidates, ``steps`` every accepted iterate and ``newton_steps``
    the Newton ones.  :func:`_axis_eigenvalues` is formed once per run.

    The residual (:func:`grid.residual_slab`) is formed after each Newton
    attempt, or once the accepted update is below the larger of
    steady_tol/sigma and newton_below/sigma (the module docstring bounds a
    flow step's update by the residual over sigma), and the run stops when
    it is at most steady_tol.  The energy and update traces hold the
    accepted iterates; the records check that the energy never rose rather
    than assume it.  Raises NonConvergence (carrying the partial outcome)
    when max_steps accepted iterates do not get there, or at once when it
    stalls: the plain step is taken, moves nothing and no Newton attempt is due.
    A Dirichlet start that misses the heteroclinic data, so can never settle, raises ValueError.
    """
    if not f0.periodic_n:
        solver1d._check_heteroclinic_ends(f0.u, f0.v, "start field")
    # an overflowing coupling makes inf and nan entries; the field checks
    # report them as a SolverError, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        scale = 1.0 / stabilization(p)
        kappa = _axis_eigenvalues(f0)
        newton_step, spread = (
            (_box_newton_step, spatial_spread) if f0.periodic_n else (_newton_step, transverse_anisotropy)
        )
        newton_below = _NEWTON_SWITCH  # residual bound for the next switch to Newton
        energy = gridmod.discrete_energy_slab(p, f0)
        energies, updates = [energy], []
        rejected = newton_steps = 0
        residual_pair = None  # held only while the next step is a Newton step from current
        history = []
        converged = False
        current = f0
        del f0  # a start field the caller does not hold dies after the first step
        for _ in range(opts.max_steps):
            attempt = residual_pair is not None  # the accepted state's update may not bound its residual then
            accepted = None
            newton = False  # the Newton candidate was accepted, so the next step is one too
            stalled = False  # the plain step was taken and left the field as it was
            if attempt:
                candidate = newton_step(p, current, *residual_pair, kappa)
                residual_pair = None
                if candidate is not None:
                    accepted = _downhill(p, candidate, _distance(candidate, current), energy)
                newton = accepted is not None
                newton_steps += newton
                if not newton:  # back to the flow, whose window is empty
                    rejected += 1
                    newton_below = _NEWTON_RETRY * residual
                    if candidate is not None:
                        # the flow damps first the stiff modes a Newton step overshoots in
                        step = flow_step(p, candidate, kappa)
                        accepted = _downhill(p, step, _distance(step, current), energy)
                        if accepted is not None:
                            history = [(step.u - candidate.u, step.v - candidate.v), step]
                        step = None
                candidate = None
            if accepted is None:
                plain = flow_step(p, current, kappa)
                f = (plain.u - current.u, plain.v - current.v)
                update = gridmod._max_norm(*f)
                if history:
                    mixed = _mixed(history, f, plain)
                    if mixed is not None:
                        mixed_update = _distance(mixed, current)
                        current = None  # plain is the fallback, so the candidate's energy does not need it
                        accepted = _downhill(p, mixed, mixed_update, energy)
                        mixed = None
                    rejected += accepted is None
                if accepted is None:
                    accepted = (plain, gridmod.discrete_energy_slab(p, plain), update)
                    stalled = update == 0.0
                history = [f, plain]
                f = plain = None  # the window alone holds them, and drops them for Newton
            current, energy, update = accepted
            energies.append(energy)
            updates.append(update)
            # the residual is formed only when the update could allow the stop or a switch
            if attempt or update <= max(opts.steady_tol, newton_below) * scale:
                residual_pair = gridmod.residual_slab(p, current)
                residual = gridmod._max_norm(*residual_pair)
                converged = residual <= opts.steady_tol
                if converged:
                    break
                if newton or (
                    update <= _NEWTON_SWITCH * scale and residual <= newton_below and spread(current) <= _NEWTON_SWITCH
                ):
                    history = []
                else:
                    residual_pair = None
                    if stalled:  # the next plain step is this field again: a fixed point that is not steady
                        break
        if not converged:
            residual = gridmod._max_norm(*gridmod.residual_slab(p, current))
        outcome = FlowOutcome(
            field=current,
            steps=len(updates),
            final_update=update,
            final_residual=residual,
            converged=converged,
            rejected=rejected,
            newton_steps=newton_steps,
            energy_trace=tuple(energies),
            update_trace=tuple(updates),
        )
    if converged:
        return outcome
    # only a stall ends an unsettled run early
    what = "stalled" if outcome.steps < opts.max_steps else f"did not settle within {opts.max_steps} steps"
    raise NonConvergence(
        f"relaxation {what} at coupling {p.lam} "
        f"(last update {outcome.final_update:.3e}, residual {outcome.final_residual:.3e}, "
        f"{outcome.newton_steps} Newton steps, {outcome.rejected} candidates rejected)",
        outcome=outcome,
    )


def transverse_anisotropy(f: SlabField) -> float:
    """Largest transverse spread: max over columns of (max - min) of u and v."""
    spread_u = float(np.max(np.max(f.u, axis=0) - np.min(f.u, axis=0)))
    spread_v = float(np.max(np.max(f.v, axis=0) - np.min(f.v, axis=0)))
    return max(spread_u, spread_v)


def spatial_spread(f: SlabField) -> float:
    """Largest spread over all nodes: max of (max - min) of u and of v."""
    return max(float(np.ptp(f.u)), float(np.ptp(f.v)))


def extract_1d(f: SlabField, max_anisotropy: float) -> ProfilePair:
    """Transverse average of a nearly transverse-constant field.

    Raises TooAnisotropic when the transverse spread exceeds the caller's
    threshold; otherwise every transverse slice is within that spread of the
    returned profile.
    """
    spread = transverse_anisotropy(f)
    if spread > max_anisotropy:
        raise TooAnisotropic(
            f"transverse spread {spread:.3e} exceeds threshold {max_anisotropy:.3e}"
        )
    return ProfilePair(f.grid_n, f.u.mean(axis=0), f.v.mean(axis=0))


def embed_profile(prof: ProfilePair, grid_t: Grid1D) -> SlabField:
    """Tile a 1D profile constantly across the transverse axis of a Dirichlet slab."""
    u = np.tile(prof.u, (grid_t.n, 1))
    v = np.tile(prof.v, (grid_t.n, 1))
    return SlabField(grid_t, prof.grid, u, v)


# ---------------------------------------------------------------------------
# Canonical relaxation experiments
# ---------------------------------------------------------------------------


# Amplitude of the uniform noise added to the embedded front of a slab run.
GIBBONS_NOISE = 0.1


def gibbons_run(p: Params, grid_t: Grid1D, grid_n: Grid1D, opts: FlowOptions, seed: int) -> FlowOutcome:
    """Slab relaxation from a transversally perturbed embedded front.

    The coupling-3 front, at every coupling, sampled along the second axis
    is tiled across the transverse axis, uniform noise of amplitude
    GIBBONS_NOISE, drawn from ``seed``, is added on interior columns
    (clipped to [0, 1] so the a priori bounds hold initially), and the flow
    is run to steadiness.  The converged field should lose all transverse
    structure.
    """
    # the start field goes straight to the flow, which alone holds it
    return relax_to_steady(p, _perturbed_front(grid_t, grid_n, seed), opts)


def _perturbed_front(grid_t: Grid1D, grid_n: Grid1D, seed: int) -> SlabField:
    # the coupling-3 front at every coupling: from the blended seed the flow took more steps
    base = embed_profile(solver1d.initial_guess(Params(3.0), grid_n), grid_t)
    u = base.u.copy()
    v = base.v.copy()
    rng = np.random.default_rng(seed)
    shape = (grid_t.n, grid_n.n - 2)
    u[:, 1:-1] = np.clip(u[:, 1:-1] + rng.uniform(-GIBBONS_NOISE, GIBBONS_NOISE, shape), 0.0, 1.0)
    v[:, 1:-1] = np.clip(v[:, 1:-1] + rng.uniform(-GIBBONS_NOISE, GIBBONS_NOISE, shape), 0.0, 1.0)
    # read-only arrays that own their memory are taken without a copy
    u.setflags(write=False)
    v.setflags(write=False)
    return SlabField(grid_t, grid_n, u, v)


def periodic_box_run(p: Params, grid_t: Grid1D, grid_n: Grid1D, opts: FlowOptions, seed: int) -> FlowOutcome:
    """Fully periodic relaxation from random positive data in (0.05, 0.95), drawn from ``seed``.

    Below coupling 1 the flow is attracted to the constant pair with value
    1/sqrt(1+lam); at coupling 1 it settles on a constant pair on the circle
    u^2 + v^2 = 1.
    """
    return relax_to_steady(p, _random_box(grid_t, grid_n, seed), opts)


def _random_box(grid_t: Grid1D, grid_n: Grid1D, seed: int) -> SlabField:
    rng = np.random.default_rng(seed)
    shape = (grid_t.n, grid_n.n)
    u = rng.uniform(0.05, 0.95, shape)
    v = rng.uniform(0.05, 0.95, shape)
    u.setflags(write=False)
    v.setflags(write=False)
    return SlabField(grid_t, grid_n, u, v, periodic_n=True)

