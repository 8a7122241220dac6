"""Stabilized semi-implicit gradient-flow relaxation on 2D slabs and periodic boxes.

One pseudo-time step treats the Laplacian implicitly and the reaction
explicitly, with a stabilizing term S*dt*u added to both sides (Shen & Yang,
DCDS-A 28 (2010); Eyre's convex splitting):

    (1 + S*dt) u' - dt (D_t + D_n) u' = (1 + S*dt) u + dt f(u),
    S = max(0, (2 + 3*lam)/2 - 1/dt).

The potential's Hessian is bounded by 2 + 3*lam over [-1,1]^2 (Gershgorin
on the c1/c2/off entries of the reaction Jacobian).  With 1/dt + S at least
half that bound, the usual energy argument shows that the step cannot raise
the discrete energy while the iterates stay in [-1,1]^2, whatever dt is.  S
is the smallest such value: for dt <= 2/(2 + 3*lam) it is 0 and the step is
the plain explicit-reaction step; for larger dt the step no longer depends
on dt.  A state is a fixed point of the step exactly when its discrete
steady residual vanishes.

The implicit operator is diagonal in a fixed tensor basis: the real FFT
along a periodic axis and the type-I discrete sine transform over the
interior nodes of a Dirichlet axis, where the pinned end columns enter the
first and last interior nodes as known neighbours.  The solve is exact up
to rounding, with no splitting, no factorization and no BLAS.
``scipy.fft`` and ``scipy.fftpack`` are imported inside :func:`_diffuse`,
so only commands that run the flow load them.

The stabilizer S grows like 3*lam/2, so the plain step contracts slowly
at large couplings and near coupling 1: on the 64x801 battery slab it took
3780 steps at coupling 100 and had not settled after 40000 at coupling
1.1.  :func:`relax_to_steady` therefore accelerates the step as a
fixed-point map with depth-1 Anderson mixing (Anderson, J. ACM 12 (1965);
Walker & Ni, SIAM J. Numer. Anal. 49 (2011)).  From the state x, the plain
step g = flow_step(x) and its update f = g - x, and the previous pair
(f_prev, g_prev), it forms

    gamma = -<f_prev - f, f> / |f_prev - f|^2,   candidate = g + gamma (g_prev - g),

with the inner products summed over both fields as (a*b).sum().  An energy
safeguard keeps the run a descent: the candidate is taken only when it is
finite and its discrete energy is at most the last accepted one; otherwise
the plain step is taken, the old pair is dropped and the window restarts
from the current one.  The depth is 1 and fixed, because memory bounds the
flow as much as time does: a depth-5 prototype raised the traced
(tracemalloc) allocation peak of the default `verify` from 5.48 to 16.5 MB
and of a 32x32 box run from 0.172 to 0.26 MB.  Depth 1 keeps one previous
pair, which is overwritten in place and dropped before any energy is
formed, and the peaks are 4.66 and 0.162 MB.  The battery slab then settles
in 42-56 steps at coupling 3 (seeds 0-9), 378 at coupling 100 and 450 at
coupling 1.1 (seed 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import grid as gridmod
from . import model
from . import solver1d
from .errors import NonConvergence, TooAnisotropic
from .grid import Grid1D, ProfilePair, SlabField
from .model import Params

# Pseudo-time step when none is given.  It exceeds 2/(2 + 3*lam) at every
# positive coupling, so default runs take the stabilized step (S > 0), whose
# iterates do not depend on dt.
DEFAULT_DT = 2.0


@dataclass(frozen=True)
class FlowOptions:
    """Relaxation controls.

    ``dt=None`` selects DEFAULT_DT.  Once the max-norm of an accepted
    update falls below ``steady_tol * dt/(1 + S*dt)``, the run computes the
    max-norm of the steady residual (:func:`grid.residual_slab`) and stops
    when that is at most ``steady_tol``; otherwise it keeps stepping.
    """

    dt: float | None = DEFAULT_DT
    steady_tol: float = 1e-9
    max_steps: int = 40000
    rng_seed: int = 0

    def __post_init__(self):
        if self.dt is None:
            object.__setattr__(self, "dt", DEFAULT_DT)
        if not self.dt > 0.0:
            raise ValueError(f"dt: must be positive, got {self.dt!r}")
        if not self.steady_tol > 0.0:
            raise ValueError(f"steady_tol: must be positive, got {self.steady_tol!r}")


@dataclass(frozen=True)
class FlowOutcome:
    field: SlabField
    steps: int
    final_update: float
    final_residual: float  # max-norm of grid.residual_slab at the final field
    converged: bool
    rejected: int = 0  # extrapolations the energy safeguard turned down
    energy_trace: tuple = field(default=(), repr=False)
    update_trace: tuple = field(default=(), repr=False)


def stabilization(p: Params, dt: float) -> float:
    """Smallest S >= 0 with 1/dt + S >= (2 + 3*lam)/2, half the potential's Hessian bound."""
    return max(0.0, (2.0 + 3.0 * p.lam) / 2.0 - 1.0 / dt)


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


def _inverse_symbol(f: SlabField, dt: float, s: float) -> np.ndarray:
    """Inverse eigenvalues of (1 + S*dt) I - dt (D_t + D_n) in the basis :func:`_diffuse` uses."""
    eig_t = _eigenvalues(dt / f.grid_t.h**2, f.grid_t.n, periodic=True)
    eig_n = _eigenvalues(dt / f.grid_n.h**2, f.grid_n.n, f.periodic_n)
    return 1.0 / ((1.0 + s * dt) + eig_t[:, None] + eig_n)


def _diffuse(f: SlabField, old: np.ndarray, rhs: np.ndarray, inverse: np.ndarray, dt: float) -> np.ndarray:
    """Apply the implicit operator's inverse, given by its symbol; Dirichlet end columns keep old's values.

    rhs holds the right-hand side on every node of a periodic box, and on
    the interior columns only of a Dirichlet slab; it is overwritten.  The
    Dirichlet end rows of the operator are identity rows, so the pinned
    columns pass through and enter the first and last interior columns as
    known neighbours.  Both transforms are real and keep the shape, so the
    solve runs in rhs's buffer; a complex spectrum would add a larger array.
    """
    import scipy.fft
    import scipy.fftpack

    if f.periodic_n:
        forward_n, backward_n = scipy.fftpack.rfft, scipy.fftpack.irfft
    else:
        forward_n, backward_n = partial(scipy.fft.dst, type=1), partial(scipy.fft.idst, type=1)
        a_n = dt / f.grid_n.h**2
        rhs[:, 0] += a_n * old[:, 0]
        rhs[:, -1] += a_n * old[:, -1]
    spec = scipy.fftpack.rfft(forward_n(rhs, axis=1, overwrite_x=True), axis=0, overwrite_x=True)
    spec *= inverse
    solved = backward_n(scipy.fftpack.irfft(spec, axis=0, overwrite_x=True), axis=1, overwrite_x=True)
    if f.periodic_n:
        return solved
    new = np.empty_like(old)
    new[:, 1:-1] = solved
    new[:, 0] = old[:, 0]
    new[:, -1] = old[:, -1]
    return new


def flow_step(p: Params, f: SlabField, dt: float) -> SlabField:
    """One stabilized semi-implicit step: explicit reaction, implicit diffusion.

    Solves (1 + S*dt) u' - dt (D_t + D_n) u' = (1 + S*dt) u + dt f(u) with
    S = :func:`stabilization`.  Dirichlet end columns are carried
    through unchanged.  Raises ValueError when the new field is not finite.
    """
    s = stabilization(p, dt)
    # pinned end columns take no reaction; f's arrays were checked when f was
    # built, so the unchecked kernel suffices
    cols = slice(None) if f.periodic_n else slice(1, -1)
    u, v = f.u[:, cols], f.v[:, cols]
    rhs_u, rhs_v = model._reaction(p.lam, u, v)
    rhs_u *= dt
    rhs_u += (1.0 + s * dt) * u
    rhs_v *= dt
    rhs_v += (1.0 + s * dt) * v
    inverse = _inverse_symbol(f, dt, s)
    new_u = _diffuse(f, f.u, rhs_u, inverse, dt)
    new_v = _diffuse(f, f.v, rhs_v, inverse, dt)
    # read-only arrays that own their memory become the new field without a copy
    new_u.setflags(write=False)
    new_v.setflags(write=False)
    return f.with_values(new_u, new_v)


def _max_norm(du: np.ndarray, dv: np.ndarray) -> float:
    return max(float(np.max(np.abs(du))), float(np.max(np.abs(dv))))


def _residual_norm(p: Params, f: SlabField) -> float:
    return _max_norm(*gridmod.residual_slab(p, f))


def _mixed(history: list, f: tuple, g: SlabField) -> SlabField | None:
    """Depth-1 Anderson candidate g + gamma*(g_prev - g); empties history.

    history holds the previous plain update f_prev (two writable arrays,
    overwritten with f_prev - f) and the previous plain step g_prev; f is
    the update g - x of the current plain step g.  The coefficient
    gamma = -<f_prev - f, f> / |f_prev - f|^2, with inner products summed
    over both fields, minimizes |f + gamma*(f_prev - f)|.  Each history
    array is dropped as soon as it is used, so at most one previous pair is
    ever alive.  Returns None when f_prev == f or the candidate is not
    finite.  Dirichlet end columns are copied from g, so they stay those of
    the starting field bit for bit.
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
    with np.errstate(over="ignore", invalid="ignore"):
        for new, old in ((g.u, g_prev.u), (g.v, g_prev.v)):
            a = old - new
            a *= gamma
            a += new
            if not g.periodic_n:
                a[:, 0] = new[:, 0]
                a[:, -1] = new[:, -1]
            a.setflags(write=False)
            mixed.append(a)
    del g_prev
    try:
        return g.with_values(*mixed)
    except ValueError:  # the extrapolation overflowed
        return None


def relax_to_steady(p: Params, f0: SlabField, opts: FlowOptions) -> FlowOutcome:
    """Iterate :func:`flow_step`, accelerated by safeguarded depth-1 Anderson mixing.

    Each step takes the plain step g = flow_step(x) and its update
    f = g - x, and forms the candidate of :func:`_mixed` from the previous
    (f, g) pair.  The candidate is accepted when it is finite and its
    discrete energy is at most the last accepted energy; otherwise the
    plain step g is taken, the extrapolation counts as rejected
    (``FlowOutcome.rejected``) and the old pair is dropped.  Either way
    (f, g) becomes the history for the next step.  The depth is fixed at 1:
    a deeper window holds more fields than the memory budget allows (module
    docstring).  The energy and update traces hold the accepted iterates
    only.  A candidate never raises the energy, nor does a plain step from
    a state in [-1,1]^2, so the trace is non-increasing up to rounding
    there; the records check it rather than assume it.  The pinned end
    columns stay those of f0 bit for bit.

    A plain step's update max-norm is at most dt/(1 + S*dt) times the
    residual max-norm of the state it starts from, so the residual
    (:func:`grid.residual_slab`) is computed only once the accepted update
    falls below steady_tol*dt/(1 + S*dt); the run stops when the residual
    of the accepted state is at most steady_tol.  Raises NonConvergence
    (carrying the partial outcome) when max_steps is exhausted first.
    """
    dt = opts.dt
    update_tol = opts.steady_tol * dt / (1.0 + stabilization(p, dt) * dt)
    energy = gridmod.discrete_energy_slab(p, f0)
    energies = [energy]
    updates = []
    rejected = 0
    history = []
    current = f0
    del f0  # a start field the caller does not hold dies after the first step
    for step in range(1, opts.max_steps + 1):
        plain = flow_step(p, current, dt)
        f = (plain.u - current.u, plain.v - current.v)
        nxt, upd = plain, _max_norm(*f)
        if history:
            candidate = _mixed(history, f, plain)
            if candidate is not None:
                cand_upd = _max_norm(candidate.u - current.u, candidate.v - current.v)
                # the previous state is no longer needed while the energy is formed
                current = None
                cand_energy = gridmod.discrete_energy_slab(p, candidate)
                if cand_energy <= energy:
                    nxt, upd, energy = candidate, cand_upd, cand_energy
                candidate = None
            if nxt is plain:
                rejected += 1
        if nxt is plain:
            energy = gridmod.discrete_energy_slab(p, plain)
        current = nxt
        history = [f, plain]
        energies.append(energy)
        updates.append(upd)
        if upd <= update_tol:
            residual = _residual_norm(p, current)
            if residual <= opts.steady_tol:
                return FlowOutcome(
                    field=current,
                    steps=step,
                    final_update=upd,
                    final_residual=residual,
                    converged=True,
                    rejected=rejected,
                    energy_trace=tuple(energies),
                    update_trace=tuple(updates),
                )
    outcome = FlowOutcome(
        field=current,
        steps=opts.max_steps,
        final_update=updates[-1] if updates else float("nan"),
        final_residual=_residual_norm(p, current),
        converged=False,
        rejected=rejected,
        energy_trace=tuple(energies),
        update_trace=tuple(updates),
    )
    raise NonConvergence(
        f"relaxation did not settle within {opts.max_steps} steps at coupling "
        f"{p.lam} (last update {outcome.final_update:.3e}, "
        f"residual {outcome.final_residual:.3e}, "
        f"{outcome.rejected} extrapolations rejected)",
        outcome=outcome,
    )


def transverse_anisotropy(f: SlabField) -> float:
    """Largest transverse spread: max over columns of (max - min) of u and v."""
    spread_u = float(np.max(np.max(f.u, axis=0) - np.min(f.u, axis=0)))
    spread_v = float(np.max(np.max(f.v, axis=0) - np.min(f.v, axis=0)))
    return max(spread_u, spread_v)


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


def embed_profile(prof: ProfilePair, grid_t: Grid1D, periodic_n: bool = False) -> SlabField:
    """Tile a 1D profile constantly across the transverse axis."""
    u = np.tile(prof.u, (grid_t.n, 1))
    v = np.tile(prof.v, (grid_t.n, 1))
    return SlabField(grid_t, prof.grid, u, v, periodic_n)


# ---------------------------------------------------------------------------
# Canonical relaxation experiments
# ---------------------------------------------------------------------------


def gibbons_run(
    p: Params,
    grid_t: Grid1D,
    grid_n: Grid1D,
    opts: FlowOptions,
    amplitude: float = 0.1,
) -> FlowOutcome:
    """Slab relaxation from a transversally perturbed embedded front.

    The front sampled along the second axis is tiled across the transverse
    axis, uniform noise of the given amplitude is added on interior columns
    (clipped to [0, 1] so the a priori bounds hold initially), and the flow
    is run to steadiness.  The converged field should lose all transverse
    structure.
    """
    # the start field goes straight to the flow, which alone holds it
    return relax_to_steady(p, _perturbed_front(p, grid_t, grid_n, amplitude, opts.rng_seed), opts)


def _perturbed_front(p: Params, grid_t: Grid1D, grid_n: Grid1D, amplitude: float, seed: int) -> SlabField:
    base = embed_profile(solver1d.initial_guess(p, grid_n), grid_t)
    u = base.u.copy()
    v = base.v.copy()
    rng = np.random.default_rng(seed)
    shape = (grid_t.n, grid_n.n - 2)
    u[:, 1:-1] = np.clip(u[:, 1:-1] + rng.uniform(-amplitude, amplitude, shape), 0.0, 1.0)
    v[:, 1:-1] = np.clip(v[:, 1:-1] + rng.uniform(-amplitude, amplitude, shape), 0.0, 1.0)
    # read-only arrays that own their memory are taken without a copy
    u.setflags(write=False)
    v.setflags(write=False)
    return SlabField(grid_t, grid_n, u, v)


def periodic_box_run(p: Params, grid_t: Grid1D, grid_n: Grid1D, opts: FlowOptions) -> FlowOutcome:
    """Fully periodic relaxation from seeded random positive data in (0.05, 0.95).

    Below coupling 1 the flow is attracted to the constant pair with value
    1/sqrt(1+lam); at coupling 1 it settles on a constant pair on the circle
    u^2 + v^2 = 1.
    """
    return relax_to_steady(p, _random_box(grid_t, grid_n, opts.rng_seed), opts)


def _random_box(grid_t: Grid1D, grid_n: Grid1D, seed: int) -> SlabField:
    rng = np.random.default_rng(seed)
    shape = (grid_t.n, grid_n.n)
    u = rng.uniform(0.05, 0.95, shape)
    v = rng.uniform(0.05, 0.95, shape)
    u.setflags(write=False)
    v.setflags(write=False)
    return SlabField(grid_t, grid_n, u, v, periodic_n=True)


def save_energy_trace_csv(path, outcome: FlowOutcome) -> None:
    """Export `step,energy,update_norm`; the update at step 0 is left empty."""
    updates = np.asarray(outcome.update_trace, dtype=float)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("step,energy,update_norm\n")
        fh.write("0,%s,\n" % (gridmod.CSV_FLOAT % outcome.energy_trace[0]))
        gridmod._write_csv_rows(
            fh,
            "%d," + gridmod.CSV_FLOAT + "," + gridmod.CSV_FLOAT + "\n",
            np.arange(1, len(updates) + 1),
            np.asarray(outcome.energy_trace[1:], dtype=float),
            updates,
        )
