import numpy as np
import pytest
import scipy.fft
import scipy.fftpack
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse
from scipy.sparse.linalg import spsolve

from gp_rigidity import grid, model, solver1d, solvernd
from gp_rigidity.errors import NonConvergence, SolverError, TooAnisotropic
from gp_rigidity.grid import Grid1D, ProfilePair, SlabField
from gp_rigidity.model import Params


def front_profile(g):
    u, v = model.tanh_front(0.0, g.nodes())
    u, v = np.array(u), np.array(v)
    u[0], v[0] = grid.LEFT_STATE
    u[-1], v[-1] = grid.RIGHT_STATE
    return ProfilePair(g, u, v)


def test_embedded_front_nearly_stationary():
    p = Params(3.0)
    g_n = Grid1D(20.0, 801)
    g_t = Grid1D(4.0, 64)
    f = solvernd.embed_profile(front_profile(g_n), g_t)
    f1 = solvernd.flow_step(p, f)
    upd = max(np.max(np.abs(f1.u - f.u)), np.max(np.abs(f1.v - f.v)))
    assert upd <= 20.0 * g_n.h**2


def test_dirichlet_columns_unchanged():
    p = Params(2.0)
    g_n = Grid1D(10.0, 101)
    g_t = Grid1D(2.0, 16)
    rng = np.random.default_rng(0)
    f = solvernd.embed_profile(front_profile(g_n), g_t)
    u = f.u.copy()
    v = f.v.copy()
    u[:, 1:-1] += rng.uniform(-0.05, 0.05, (16, 99))
    v[:, 1:-1] += rng.uniform(-0.05, 0.05, (16, 99))
    f = f.with_values(u, v)
    f1 = solvernd.flow_step(p, f)
    assert np.array_equal(f1.u[:, 0], f.u[:, 0])
    assert np.array_equal(f1.v[:, 0], f.v[:, 0])
    assert np.array_equal(f1.u[:, -1], f.u[:, -1])
    assert np.array_equal(f1.v[:, -1], f.v[:, -1])


def second_difference_matrix(m, h, periodic):
    """Central second difference on m nodes; the end rows of a Dirichlet axis stay zero."""
    d = np.zeros((m, m))
    for i in range(m):
        if periodic or 0 < i < m - 1:
            d[i, i] -= 2.0 / h**2
            d[i, (i - 1) % m] += 1.0 / h**2
            d[i, (i + 1) % m] += 1.0 / h**2
    return d


SHAPES = [(3, 3, False), (3, 3, True), (5, 8, False), (5, 8, True), (8, 5, False), (8, 5, True), (64, 801, False)]


# the plain ids take the oracle in sigma form; the -dt1 and -dt2 ids take the former
# pseudo-time step at that dt, (1 + S*dt) u' - dt (D_t + D_n) u' = (1 + S*dt) u + dt f(u)
# with S = sigma - 1/dt, which for dt >= 1/sigma is the sigma step whatever dt is
@pytest.mark.parametrize(
    "nt, nn, periodic_n, dt",
    [pytest.param(*shape, None, id="-".join(map(str, shape))) for shape in SHAPES]
    + [
        pytest.param(*shape, dt, id="-".join(map(str, shape)) + f"-dt{dt:g}")
        for shape in SHAPES
        for dt in (1.0, 2.0)
    ],
)
def test_flow_step_matches_dense_solve(nt, nn, periodic_n, dt):
    # random data everywhere, so the pinned end columns vary along the transverse axis;
    # the oracle assembles a I - b (D_t + D_n) on all nodes, with identity rows at the
    # pinned end columns, and solves it directly
    p = Params(3.0)
    g_t = Grid1D(1.5, nt)
    g_n = Grid1D(20.0 if nn > 100 else 0.5, nn)
    rng = np.random.default_rng(nt * 1000 + nn)
    f = SlabField(g_t, g_n, rng.uniform(-1, 1, (nt, nn)), rng.uniform(-1, 1, (nt, nn)), periodic_n)
    sigma = solvernd.stabilization(p)
    assert sigma == 5.5
    a, b = (sigma, 1.0) if dt is None else (1.0 + (sigma - 1.0 / dt) * dt, dt)
    new = solvernd.flow_step(p, f)
    lap = sparse.kron(second_difference_matrix(nt, g_t.h, periodic=True), sparse.identity(nn)) + sparse.kron(
        sparse.identity(nt), second_difference_matrix(nn, g_n.h, periodic_n)
    )
    free = np.ones((nt, nn))
    if not periodic_n:
        free[:, [0, -1]] = 0.0
    op = sparse.diags(free.ravel()) @ (a * sparse.identity(nt * nn) - b * lap) + sparse.diags(1.0 - free.ravel())
    for old, react, got in zip((f.u, f.v), model.reaction(p, f.u, f.v), (new.u, new.v)):
        rhs = np.where(free == 1.0, a * old + b * react, old)
        expected = spsolve(op.tocsc(), rhs.ravel()).reshape(nt, nn)
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_flow_step_is_the_pseudo_time_step_two_bitwise():
    # the step as it read with pseudo-time step dt = 2 and S = (2 + 3*lam)/2 - 1/dt:
    # (1 + S*dt) u' - dt (D_t + D_n) u' = (1 + S*dt) u + dt f(u).  Divided by exactly
    # 2 it is the sigma step, so every rounding scales exactly and the bits agree.
    rng = np.random.default_rng(13)
    g_t = Grid1D(4.0, 32)
    dt = 2.0
    for lam in (0.5, 3.0, 100.0):
        p = Params(lam)
        s = max(0.0, (2.0 + 3.0 * lam) / 2.0 - 1.0 / dt)
        for periodic_n, g_n in ((False, Grid1D(7.0, 41)), (True, g_t)):
            f = SlabField(g_t, g_n, rng.uniform(0, 1, (32, g_n.n)), rng.uniform(0, 1, (32, g_n.n)), periodic_n)
            eig_t = solvernd._eigenvalues(dt / g_t.h**2, g_t.n, periodic=True)
            eig_n = solvernd._eigenvalues(dt / g_n.h**2, g_n.n, periodic_n)
            inverse = 1.0 / ((1.0 + s * dt) + eig_t[:, None] + eig_n)
            cols = slice(None) if periodic_n else slice(1, -1)
            new = solvernd.flow_step(p, f)
            for old, react, got in zip((f.u, f.v), model.reaction(p, f.u[:, cols], f.v[:, cols]), (new.u, new.v)):
                rhs = dt * react + (1.0 + s * dt) * old[:, cols]
                if periodic_n:
                    spec = scipy.fftpack.rfft(scipy.fftpack.rfft(rhs, axis=1), axis=0)
                else:
                    rhs[:, 0] += dt / g_n.h**2 * old[:, 0]
                    rhs[:, -1] += dt / g_n.h**2 * old[:, -1]
                    spec = scipy.fftpack.rfft(scipy.fft.dst(rhs, type=1, axis=1), axis=0)
                spec = scipy.fftpack.irfft(spec * inverse, axis=0)
                if periodic_n:
                    expected = scipy.fftpack.irfft(spec, axis=1)
                else:
                    expected = old.copy()
                    expected[:, 1:-1] = scipy.fft.idst(spec, type=1, axis=1)
                assert np.array_equal(got, expected), (lam, periodic_n)


# A checkerboard on the saddle u = v = 1/2 of the coupling-3 potential, on a grid
# coarse enough (h = 20/7) for the checkerboard to lower the energy.  A step whose
# implicit operator is split by axis, (I - 2 D_t)(I - 2 D_n)/2 + (sigma - 1/2) I,
# damps it and raises the energy (by 2e-6 relative): its split term 2 D_t D_n
# acts on the new state, not on the update.
_CHECKERBOARD = (-1.0) ** np.add.outer(np.arange(8), np.arange(9))
SADDLE_U = 0.5 + 1e-2 * _CHECKERBOARD
SADDLE_V = 0.5 - 1e-2 * _CHECKERBOARD


def log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda x: 10.0**x)


unit_data = arrays(float, (8, 9), elements=st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    lam=log_uniform(0.05, 1000.0),
    half_length=st.floats(0.5, 20.0),
    periodic_n=st.booleans(),
    u=unit_data,
    v=unit_data,
)
@example(lam=3.0, half_length=10.0, periodic_n=True, u=SADDLE_U, v=SADDLE_V)
def test_flow_step_never_raises_energy(lam, half_length, periodic_n, u, v):
    # an 8x8 periodic box or an 8x9 Dirichlet slab holding data in [0,1]^2
    g_t = Grid1D(half_length, 8)
    if periodic_n:
        f = SlabField(g_t, g_t, u[:, :8], v[:, :8], periodic_n=True)
    else:
        f = SlabField(g_t, Grid1D(half_length, 9), u, v)
    p = Params(lam)
    e0 = grid.discrete_energy_slab(p, f)
    e1 = grid.discrete_energy_slab(p, solvernd.flow_step(p, f))
    assert e1 - e0 <= 1e-12 * max(1.0, abs(e0))


def with_heteroclinic_ends(u, v):
    """Copies of u and v whose first and last columns hold the heteroclinic data."""
    u, v = np.array(u), np.array(v)
    u[:, 0], v[:, 0] = grid.LEFT_STATE
    u[:, -1], v[:, -1] = grid.RIGHT_STATE
    return u, v


def coarse_front():
    """The coupling-3 front on 9 nodes of [-4, 4], tiled over 8 rows, with a small transverse ripple."""
    x = np.linspace(-4.0, 4.0, 9)
    ripple = 1e-3 * np.cos(2.0 * np.pi * np.arange(8) / 8.0)[:, None]
    u = np.clip((1.0 + np.tanh(x / np.sqrt(2.0))) / 2.0 + ripple, 0.0, 1.0)
    v = np.clip((1.0 - np.tanh(x / np.sqrt(2.0))) / 2.0 - ripple, 0.0, 1.0)
    return with_heteroclinic_ends(u, v)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    lam=log_uniform(0.05, 1000.0),
    half_length=st.floats(0.5, 20.0),
    periodic_n=st.booleans(),
    u=unit_data,
    v=unit_data,
)
# a Dirichlet slab near its front, which the flow hands to the Newton finish
@example(lam=3.0, half_length=4.0, periodic_n=False, u=coarse_front()[0], v=coarse_front()[1])
def test_relax_to_steady_never_raises_energy(lam, half_length, periodic_n, u, v):
    # the accepted iterates of the accelerated flow, on an 8x8 periodic box
    # or an 8x9 Dirichlet slab; a run that does not settle ends in
    # NonConvergence with its partial outcome, before max_steps only when the
    # plain flow step stalls; the slab's end columns hold the heteroclinic
    # data, since the flow refuses any other Dirichlet start
    g_t = Grid1D(half_length, 8)
    if periodic_n:
        f0 = SlabField(g_t, g_t, u[:, :8], v[:, :8], periodic_n=True)
    else:
        f0 = SlabField(g_t, Grid1D(half_length, 9), *with_heteroclinic_ends(u, v))
    opts = solvernd.FlowOptions(max_steps=100)
    try:
        out = solvernd.relax_to_steady(Params(lam), f0, opts)
    except NonConvergence as exc:
        out = exc.outcome
        assert not out.converged
        assert out.steps == opts.max_steps or ("stalled" in str(exc) and out.final_update == 0.0)
    energies = np.array(out.energy_trace)
    assert len(energies) == out.steps + 1 == len(out.update_trace) + 1
    assert np.all(np.diff(energies) <= 1e-12 * np.maximum(1.0, np.abs(energies[:-1])))
    assert 0 <= out.rejected < out.steps
    if not periodic_n:
        for end in (0, -1):
            assert np.array_equal(out.field.u[:, end], f0.u[:, end])
            assert np.array_equal(out.field.v[:, end], f0.v[:, end])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    lam=st.floats(0.0, 1000.0, exclude_min=True),
    half_lengths=st.tuples(st.floats(0.5, 20.0), st.floats(0.5, 20.0)),
    n_t=st.integers(3, 16),
    interior=st.integers(1, 298).flatmap(
        lambda m: st.tuples(arrays(float, m, elements=st.floats(0.0, 1.0)),
                            arrays(float, m, elements=st.floats(0.0, 1.0)))
    ),
)
def test_embedded_profile_residual_is_the_1d_residual(lam, half_lengths, n_t, interior):
    # a profile with exact heteroclinic end rows, tiled across n_t transverse
    # nodes: the transverse difference is exactly +0.0, so every row of the
    # slab residual is the 1D residual on the interior columns, to the bit
    # (values in [0, 1] hold no -0.0, which adding +0.0 would flip)
    u_in, v_in = interior
    g_n = Grid1D(half_lengths[1], u_in.size + 2)
    u = np.concatenate(([grid.LEFT_STATE[0]], u_in, [grid.RIGHT_STATE[0]]))
    v = np.concatenate(([grid.LEFT_STATE[1]], v_in, [grid.RIGHT_STATE[1]]))
    prof = ProfilePair(g_n, u, v)
    p = Params(lam)
    slab = grid.residual_slab(p, solvernd.embed_profile(prof, Grid1D(half_lengths[0], n_t)))
    for rs, r1 in zip(slab, grid.residual_1d(p, prof)):
        assert rs.shape == (n_t, g_n.n)
        assert np.all(rs[:, 1:-1].view(np.int64) == r1[1:-1].view(np.int64))


def test_slab_start_is_the_coupling_3_front_at_every_coupling(monkeypatch):
    # the Newton seed blends toward the segregated pair above coupling 3, but
    # the slab flow settles faster from the coupling-3 front
    starts = {}
    monkeypatch.setattr(solvernd, "relax_to_steady", lambda p, start, opts: starts.setdefault(p.lam, start))
    g_t, g_n = Grid1D(0.5, 8), Grid1D(20.0, 801)
    for lam in (3.0, 20.0):
        solvernd.gibbons_run(Params(lam), g_t, g_n, solvernd.FlowOptions(), 4)
    assert np.array_equal(starts[3.0].u, starts[20.0].u) and np.array_equal(starts[3.0].v, starts[20.0].v)
    monkeypatch.setattr(solvernd, "GIBBONS_NOISE", 0.0)
    front = solver1d.initial_guess(Params(3.0), g_n)
    start = solvernd._perturbed_front(g_t, g_n, 4)
    assert all(np.array_equal(row, front.u) for row in start.u)
    assert all(np.array_equal(row, front.v) for row in start.v)


@pytest.mark.parametrize("lam", [1.1, 1.5, 6.0, 20.0, 100.0])
def test_gibbons_run_settles_across_couplings(lam):
    # a slab with a short transverse axis; near coupling 1 the plain flow
    # stalls above steady_tol for 40000 steps
    opts = solvernd.FlowOptions()
    out = solvernd.gibbons_run(Params(lam), Grid1D(0.5, 8), Grid1D(20.0, 801), opts, 0)
    assert out.converged
    assert out.final_residual <= opts.steady_tol
    assert np.max(np.diff(np.array(out.energy_trace))) <= 1e-12
    assert solvernd.transverse_anisotropy(out.field) <= 1e-8
    assert out.newton_steps >= 1


def unit_eigenvalues(g, periodic):
    """Eigenvalues of minus the second difference along one axis, in the transform order of the steps."""
    return solvernd._eigenvalues(1.0 / g.h**2, g.n, periodic)


def frozen_newton_matrix(p, f):
    """Dense slab Laplacian plus the reaction Jacobian at the transverse means; end rows identity.

    Unknowns are ordered (u on every node, then v), each raveled in the field's shape.
    """
    nt, nn = f.u.shape
    lap = np.kron(second_difference_matrix(nt, f.grid_t.h, periodic=True), np.eye(nn)) + np.kron(
        np.eye(nt), second_difference_matrix(nn, f.grid_n.h, periodic=False)
    )
    c1, c2, off = (np.tile(c, nt) for c in model.jacobian_entries(p, f.u.mean(axis=0), f.v.mean(axis=0)))
    jac = np.block([[lap + np.diag(c1), np.diag(off)], [np.diag(off), lap + np.diag(c2)]])
    ends = np.zeros((nt, nn), dtype=bool)
    ends[:, [0, -1]] = True
    ends = np.concatenate([ends.ravel(), ends.ravel()])
    jac[ends] = 0.0
    jac[ends, ends] = 1.0
    return jac, ends


@pytest.mark.parametrize("nt", [3, 5, 6, 8])
def test_newton_step_matches_dense_solve(nt):
    # odd and even transverse counts: an even count has a lone Nyquist row in the
    # half-complex layout; random end columns, which the step must keep bit for bit
    p = Params(3.0)
    nn = 11
    rng = np.random.default_rng(nt)
    f = SlabField(Grid1D(1.5, nt), Grid1D(3.0, nn), rng.uniform(0, 1, (nt, nn)), rng.uniform(0, 1, (nt, nn)))
    jac, ends = frozen_newton_matrix(p, f)
    rhs = -np.concatenate([r.ravel() for r in grid.residual_slab(p, f)])
    rhs[ends] = 0.0
    step = np.linalg.solve(jac, rhs)
    new = solvernd._newton_step(p, f, *grid.residual_slab(p, f), (unit_eigenvalues(f.grid_t, periodic=True), None))
    for got, old, d in ((new.u, f.u, step[: nt * nn]), (new.v, f.v, step[nt * nn :])):
        assert np.max(np.abs(got - (old + d.reshape(nt, nn)))) <= 1e-12
        assert np.array_equal(got[:, [0, -1]], old[:, [0, -1]])


@pytest.mark.parametrize("nt", [7, 8])
def test_newton_step_on_a_constant_field_is_the_1d_newton_step(nt):
    p = Params(6.0)
    g_n = Grid1D(10.0, 101)
    rng = np.random.default_rng(nt)
    prof = front_profile(g_n)
    u = prof.u.copy()
    v = prof.v.copy()
    u[1:-1] = np.clip(u[1:-1] + rng.uniform(-0.05, 0.05, 99), 0, 1)
    v[1:-1] = np.clip(v[1:-1] + rng.uniform(-0.05, 0.05, 99), 0, 1)
    prof = ProfilePair(g_n, u, v)
    ru, rv = grid.residual_1d(p, prof)
    # the interior unknowns solve -J step = r; the ends are exact data and stay
    step = np.zeros(2 * g_n.n)
    step[2:-2:2], step[3:-2:2] = ru[1:-1], rv[1:-1]
    solver1d.solve_banded(lambda: solver1d._assemble_bands(p, g_n, u, v), step[2:-2])
    f = solvernd.embed_profile(prof, Grid1D(2.0, nt))
    new = solvernd._newton_step(p, f, *grid.residual_slab(p, f), (unit_eigenvalues(f.grid_t, periodic=True), None))
    assert np.max(np.abs(new.u - (u + step[0::2]))) <= 1e-12
    assert np.max(np.abs(new.v - (v + step[1::2]))) <= 1e-12


@pytest.mark.parametrize("shape", [(4, 5), (5, 4), (6, 6), (7, 7)])
def test_box_newton_step_matches_dense_solve(shape):
    # odd and even sizes on both axes: an even axis has a lone Nyquist entry in the
    # half-complex layout; the Jacobian is frozen at the means of random data
    p = Params(0.75)
    nt, nn = shape
    rng = np.random.default_rng(nt * 10 + nn)
    g_t, g_n = Grid1D(1.5, nt), Grid1D(2.5, nn)
    f = SlabField(g_t, g_n, rng.uniform(0, 1, shape), rng.uniform(0, 1, shape), periodic_n=True)
    lap = np.kron(second_difference_matrix(nt, g_t.h, periodic=True), np.eye(nn)) + np.kron(
        np.eye(nt), second_difference_matrix(nn, g_n.h, periodic=True)
    )
    c1, c2, off = model.jacobian_entries(p, f.u.mean(), f.v.mean())
    eye = np.eye(nt * nn)
    jac = np.block([[lap + c1 * eye, off * eye], [off * eye, lap + c2 * eye]])
    rhs = -np.concatenate([r.ravel() for r in grid.residual_slab(p, f)])
    step = np.linalg.solve(jac, rhs)
    kappa = unit_eigenvalues(g_t, periodic=True), unit_eigenvalues(g_n, periodic=True)
    new = solvernd._box_newton_step(p, f, *grid.residual_slab(p, f), kappa)
    for got, old, d in ((new.u, f.u, step[: nt * nn]), (new.v, f.v, step[nt * nn :])):
        assert np.max(np.abs(got - (old + d.reshape(nt, nn)))) <= 1e-12


def test_box_newton_step_solves_a_constant_state_exactly():
    # on a constant field the frozen Jacobian is the true one, so Newton from near
    # the coupling-1/2 constant converges quadratically and lands on it to rounding
    p = Params(0.5)
    g = Grid1D(4.0, 8)
    c = model.liouville_constant(p)
    f = SlabField(g, g, np.full((8, 8), c + 1e-3), np.full((8, 8), c - 2e-3), periodic_n=True)
    kappa = unit_eigenvalues(g, periodic=True), unit_eigenvalues(g, periodic=True)
    errors = [2e-3]
    for _ in range(3):
        f = solvernd._box_newton_step(p, f, *grid.residual_slab(p, f), kappa)
        errors.append(max(np.max(np.abs(f.u - c)), np.max(np.abs(f.v - c))))
    assert errors[1] <= 10.0 * errors[0] ** 2 and errors[2] <= 10.0 * errors[1] ** 2
    assert errors[3] <= 1e-15


@pytest.mark.parametrize("lam", [0.25, 0.75, 1.0])
def test_box_runs_finish_by_newton(lam):
    box = Grid1D(4.0, 32)
    opts = solvernd.FlowOptions()
    out = solvernd.periodic_box_run(Params(lam), box, box, opts, 3)
    assert out.converged and out.final_residual <= opts.steady_tol
    assert 1 <= out.newton_steps < out.steps <= 15
    assert np.max(np.diff(np.array(out.energy_trace))) <= 1e-12


def test_box_run_forms_the_flow_eigenvalues_once(monkeypatch):
    # one cosine per axis for the whole run, flow and Newton steps alike
    calls = []
    eigenvalues = solvernd._eigenvalues

    def counted(*args, **kwargs):
        calls.append(args)
        return eigenvalues(*args, **kwargs)

    monkeypatch.setattr(solvernd, "_eigenvalues", counted)
    box = Grid1D(4.0, 32)
    out = solvernd.periodic_box_run(Params(0.75), box, box, solvernd.FlowOptions(), 3)
    assert out.steps - out.newton_steps >= 5 and out.newton_steps >= 1
    assert len(calls) == 2


def test_flow_step_takes_the_run_eigenvalues_bit_for_bit():
    p = Params(0.5)
    g = Grid1D(4.0, 32)
    rng = np.random.default_rng(5)
    for periodic_n, g_n in ((True, g), (False, Grid1D(20.0, 41))):
        f = SlabField(g, g_n, rng.uniform(0, 1, (32, g_n.n)), rng.uniform(0, 1, (32, g_n.n)), periodic_n)
        a = solvernd.flow_step(p, f)
        b = solvernd.flow_step(p, f, solvernd._axis_eigenvalues(f))
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)


@pytest.mark.parametrize("lam", [0.99999])
def test_box_runs_near_coupling_one_settle(lam):
    # the antisymmetric constant mode relaxes at rate 2(1 - lam)/(1 + lam) along a
    # curved valley; a straight Newton step off the valley raises the energy, and
    # the flow step from that candidate brings it back (seed 0 rejects one)
    box = Grid1D(4.0, 32)
    for seed in range(20):
        opts = solvernd.FlowOptions()
        out = solvernd.periodic_box_run(Params(lam), box, box, opts, seed)
        assert out.converged and out.final_residual <= opts.steady_tol, seed
        assert out.steps <= 30, seed
        assert np.max(np.diff(np.array(out.energy_trace))) <= 1e-12, seed
        if seed == 0:
            assert out.rejected >= 1 and out.newton_steps >= 1


def test_rejected_newton_candidates_skip_needless_residuals(monkeypatch):
    # after each turned-down candidate the residual is formed once after the
    # attempt, once to switch to the next attempt and once to stop; with the
    # switch bound kept after a rejection the same run formed 19
    attempts = []
    residuals = []

    def uphill(p, f, ru, rv, kappa_t):
        attempts.append(grid._max_norm(ru, rv))
        u = f.u.copy()
        u[:, 1:-1] += 0.05
        return f.with_values(u, f.v)

    residual_slab = grid.residual_slab

    def counted(p, f):
        residuals.append(1)
        return residual_slab(p, f)

    monkeypatch.setattr(solvernd, "_newton_step", uphill)
    monkeypatch.setattr(grid, "residual_slab", counted)
    out = solvernd.gibbons_run(Params(3.0), Grid1D(0.5, 8), Grid1D(20.0, 801), solvernd.FlowOptions(), 0)
    assert out.converged and out.newton_steps == 0
    assert 1 <= len(attempts) and len(residuals) <= 2 * len(attempts) + 1


def curved_front(grid_t, grid_n, displacement):
    """The coupling-3 front with its interface at x = displacement*cos(2*pi*y/C), C the transverse period."""
    period = grid_t.n * grid_t.h
    y = grid_t.h * np.arange(grid_t.n)
    shift = displacement * np.cos(2.0 * np.pi * y / period)
    u, v = with_heteroclinic_ends(*model.tanh_front(0.0, grid_n.nodes()[None, :] - shift[:, None]))
    return SlabField(grid_t, grid_n, u, v)


def test_curved_interface_settles_by_newton():
    # the battery slab with a bent interface, far from one-dimensional at the start
    f0 = curved_front(Grid1D(4.0, 64), Grid1D(20.0, 801), 2.0)
    assert solvernd.transverse_anisotropy(f0) > 0.5
    opts = solvernd.FlowOptions()
    out = solvernd.relax_to_steady(Params(6.0), f0, opts)
    assert out.converged and out.final_residual <= opts.steady_tol
    assert out.newton_steps >= 1
    assert solvernd.transverse_anisotropy(out.field) <= 1e-8
    assert np.max(np.diff(np.array(out.energy_trace))) <= 1e-12
    for end in (0, -1):
        assert np.array_equal(out.field.u[:, end], f0.u[:, end])
        assert np.array_equal(out.field.v[:, end], f0.v[:, end])


def test_coarse_front_example_takes_newton_steps():
    # the explicit example of test_relax_to_steady_never_raises_energy reaches the Newton finish
    u, v = coarse_front()
    f0 = SlabField(Grid1D(4.0, 8), Grid1D(4.0, 9), u, v)
    out = solvernd.relax_to_steady(Params(3.0), f0, solvernd.FlowOptions(max_steps=100))
    assert out.converged and out.newton_steps >= 1


def test_rejected_newton_candidates_fall_back_to_the_flow(monkeypatch):
    # every Newton candidate raises the energy, so the flow alone must settle the run
    attempts = []

    def uphill(p, f, ru, rv, kappa_t):
        attempts.append(grid._max_norm(ru, rv))
        u = f.u.copy()
        u[:, 1:-1] += 0.05
        return f.with_values(u, f.v)

    monkeypatch.setattr(solvernd, "_newton_step", uphill)
    opts = solvernd.FlowOptions()
    out = solvernd.gibbons_run(Params(3.0), Grid1D(0.5, 8), Grid1D(20.0, 801), opts, 0)
    assert out.converged and out.final_residual <= opts.steady_tol
    assert out.newton_steps == 0
    assert np.max(np.diff(np.array(out.energy_trace))) <= 1e-12
    # each retry waits for a tenth of the last attempt's residual: from 1e-2 down
    # to steady_tol that is at most 8 attempts
    assert 1 <= len(attempts) <= 8
    assert all(b <= 0.1 * a for a, b in zip(attempts, attempts[1:]))
    assert len(attempts) <= out.rejected < out.steps


@pytest.mark.parametrize("lam", [0.5, 1.0])
def test_rejected_box_newton_candidates_fall_back_to_the_flow(monkeypatch, lam):
    # the box twin of the slab test above: every Newton candidate raises the
    # energy, so the flow alone must settle the run
    attempts = []

    def uphill(p, f, ru, rv, *kappa):
        attempts.append(grid._max_norm(ru, rv))
        return f.with_values(f.u + 0.05, f.v)

    monkeypatch.setattr(solvernd, "_box_newton_step", uphill)
    box = Grid1D(4.0, 32)
    opts = solvernd.FlowOptions()
    out = solvernd.periodic_box_run(Params(lam), box, box, opts, 0)
    assert out.converged and out.final_residual <= opts.steady_tol
    assert out.newton_steps == 0
    assert np.max(np.diff(np.array(out.energy_trace))) <= 1e-12
    assert 1 <= len(attempts) <= 8
    assert all(b <= 0.1 * a for a, b in zip(attempts, attempts[1:]))
    assert len(attempts) <= out.rejected < out.steps


@pytest.mark.parametrize("periodic_n", [False, True])
def test_flow_rejects_overflowing_data(periodic_n):
    p = Params(3.0)
    g = Grid1D(2.0, 8)
    u = v = np.full((8, 8), 1e110)
    if not periodic_n:  # a Dirichlet start off the heteroclinic data is refused before the flow runs
        u, v = with_heteroclinic_ends(u, v)
    f = SlabField(g, g, u, v, periodic_n)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverError, match="non-finite"):
            solvernd.flow_step(p, f)
    with pytest.raises(SolverError, match="non-finite"):
        solvernd.relax_to_steady(p, f, solvernd.FlowOptions())


def test_relax_to_steady_refuses_a_start_off_the_heteroclinic_data():
    # the flow keeps the pinned columns, so such a run could never settle:
    # with zero end columns it would take every one of max_steps
    g_t, g_n = Grid1D(4.0, 8), Grid1D(4.0, 9)
    u, v = with_heteroclinic_ends(*np.random.default_rng(0).uniform(0.1, 0.9, (2, 8, 9)))
    tol = solver1d.GUESS_BOUNDARY_TOL
    zero_ends = [u.copy(), v.copy()]
    for a in zero_ends:
        a[:, [0, -1]] = 0.0
    starts = [zero_ends]
    for k in (0, 1):
        for end in (0, -1):  # one entry of one end column off by twice the tolerance
            bad = [u.copy(), v.copy()]
            bad[k][3, end] += 2.0 * tol
            starts.append(bad)
    for bad in starts:
        with pytest.raises(ValueError, match="start field does not satisfy the heteroclinic boundary rows"):
            solvernd.relax_to_steady(Params(3.0), SlabField(g_t, g_n, *bad), solvernd.FlowOptions(max_steps=2000))
    # within the tolerance the start is taken, and a box has no end data to check
    near = u.copy()
    near[:, 0] += 0.5 * tol
    for f in (SlabField(g_t, g_n, near, v), SlabField(g_t, g_t, u[:, :8], v[:, :8], periodic_n=True)):
        try:
            solvernd.relax_to_steady(Params(3.0), f, solvernd.FlowOptions(max_steps=1))
        except NonConvergence:
            pass


def test_constant_fixed_points():
    box = Grid1D(4.0, 32)
    # mixed constant below coupling 1
    p = Params(0.5)
    c = model.liouville_constant(p)
    f = SlabField(box, box, np.full((32, 32), c), np.full((32, 32), c), periodic_n=True)
    f1 = solvernd.flow_step(p, f)
    assert np.max(np.abs(f1.u - f.u)) <= 1e-13
    assert np.max(np.abs(f1.v - f.v)) <= 1e-13
    # pure equilibria at any coupling
    for pair in ((1.0, 0.0), (0.0, 1.0)):
        f = SlabField(box, box, np.full((32, 32), pair[0]), np.full((32, 32), pair[1]), periodic_n=True)
        f1 = solvernd.flow_step(Params(4.0), f)
        assert np.max(np.abs(f1.u - f.u)) <= 1e-13
        assert np.max(np.abs(f1.v - f.v)) <= 1e-13


def test_one_step_decreases_energy_from_perturbed_state():
    p = Params(3.0)
    g_n = Grid1D(20.0, 401)
    g_t = Grid1D(2.0, 16)
    rng = np.random.default_rng(4)
    f = solvernd.embed_profile(front_profile(g_n), g_t)
    u = np.clip(f.u + rng.uniform(-0.1, 0.1, f.u.shape), 0, 1)
    v = np.clip(f.v + rng.uniform(-0.1, 0.1, f.v.shape), 0, 1)
    u[:, 0], v[:, 0] = grid.LEFT_STATE
    u[:, -1], v[:, -1] = grid.RIGHT_STATE
    f = f.with_values(u, v)
    e0 = grid.discrete_energy_slab(p, f)
    f1 = solvernd.flow_step(p, f)
    e1 = grid.discrete_energy_slab(p, f1)
    assert e1 < e0


def test_bound_absorption():
    # data within [-1,1] stays within 1 + 10*h^2 along the flow
    p = Params(2.0)
    box = Grid1D(3.0, 24)
    rng = np.random.default_rng(6)
    f = SlabField(box, box, rng.uniform(-1, 1, (24, 24)), rng.uniform(-1, 1, (24, 24)), periodic_n=True)
    cap = 1.0 + 10.0 * box.h**2
    for _ in range(50):
        f = solvernd.flow_step(p, f)
        assert np.max(np.abs(f.u)) <= cap
        assert np.max(np.abs(f.v)) <= cap


def test_box_run_drops_the_accepted_field_before_the_mixed_energy(traced_peak):
    # the plain step is the fallback of an Anderson candidate, so the accepted
    # field is dropped before the candidate's energy is formed: the run peaks
    # at 11.9 field arrays, and 12.7 if the field stayed alive
    box = Grid1D(4.0, 32)
    opts = solvernd.FlowOptions()
    solvernd.periodic_box_run(Params(0.5), box, box, opts, 1)  # pocketfft loads untraced
    peak = traced_peak(lambda: solvernd.periodic_box_run(Params(0.5), box, box, opts, 1))
    assert peak <= 12.25 * 8 * box.n**2


def test_relax_nonconvergence_carries_outcome():
    p = Params(0.5)
    box = Grid1D(4.0, 16)
    opts = solvernd.FlowOptions(max_steps=3)
    with pytest.raises(NonConvergence) as info:
        solvernd.periodic_box_run(p, box, box, opts, 1)
    assert info.value.outcome is not None
    assert info.value.outcome.steps == 3
    assert len(info.value.outcome.energy_trace) == 4
    assert info.value.outcome.final_residual > opts.steady_tol


def test_relax_stops_at_a_stalled_flow():
    # on a slab 2e-100 long the implicit step returns the field unchanged to the
    # bit while the residual is enormous, so the run raises at once instead of
    # taking all max_steps steps
    with pytest.raises(NonConvergence, match="stalled") as info:
        solvernd.gibbons_run(Params(3.0), Grid1D(4.0, 64), Grid1D(1e-100, 5), solvernd.FlowOptions(), 0)
    outcome = info.value.outcome
    assert outcome.steps <= 5 and not outcome.converged
    assert outcome.final_update == 0.0 and outcome.final_residual > 1e100


def test_transverse_anisotropy_basics():
    g_n = Grid1D(10.0, 101)
    g_t = Grid1D(2.0, 8)
    f = solvernd.embed_profile(front_profile(g_n), g_t)
    assert solvernd.transverse_anisotropy(f) == 0.0
    u = f.u.copy()
    u[3, 50] += 0.1
    bumped = f.with_values(u, f.v)
    assert abs(solvernd.transverse_anisotropy(bumped) - 0.1) < 1e-12


def test_spatial_spread_basics():
    g = Grid1D(2.0, 8)
    f = SlabField(g, g, np.full((8, 8), 0.5), np.full((8, 8), 0.25), periodic_n=True)
    assert solvernd.spatial_spread(f) == 0.0
    v = f.v.copy()
    v[3, 5] += 0.1
    u = f.u.copy()
    u[0, 0] -= 0.05
    assert abs(solvernd.spatial_spread(f.with_values(u, v)) - 0.1) < 1e-12


def test_extract_round_trip_and_threshold():
    g_n = Grid1D(10.0, 101)
    g_t = Grid1D(2.0, 8)
    prof = front_profile(g_n)
    f = solvernd.embed_profile(prof, g_t)
    back = solvernd.extract_1d(f, 0.0)
    # transverse mean of identical rows, exact up to summation rounding
    assert np.max(np.abs(back.u - prof.u)) <= 1e-15
    assert np.max(np.abs(back.v - prof.v)) <= 1e-15
    u = f.u.copy()
    u[3, 50] += 0.1
    with pytest.raises(TooAnisotropic):
        solvernd.extract_1d(f.with_values(u, f.v), 1e-3)


def test_liouville_runs_reach_constant():
    box = Grid1D(4.0, 32)
    for lam in (0.25, 0.5, 0.75):
        p = Params(lam)
        out = solvernd.periodic_box_run(p, box, box, solvernd.FlowOptions(), 7)
        assert out.converged and out.final_residual <= 1e-9
        c = model.liouville_constant(p)
        dev = max(np.max(np.abs(out.field.u - c)), np.max(np.abs(out.field.v - c)))
        assert dev <= 1e-6, lam
        jumps = np.diff(np.array(out.energy_trace))
        assert np.max(jumps) <= 1e-12


def test_liouville_value_example():
    box = Grid1D(4.0, 32)
    out = solvernd.periodic_box_run(Params(0.5), box, box, solvernd.FlowOptions(), 7)
    assert np.max(np.abs(out.field.u - 0.816497)) < 1e-6 + 1e-6


def test_unit_coupling_circle():
    box = Grid1D(4.0, 32)
    out = solvernd.periodic_box_run(Params(1.0), box, box, solvernd.FlowOptions(), 7)
    assert out.converged and out.final_residual <= 1e-9
    circ = np.max(np.abs(out.field.u**2 + out.field.v**2 - 1.0))
    assert circ <= 1e-6
    assert max(np.ptp(out.field.u), np.ptp(out.field.v)) <= 1e-6


def test_gibbons_run_flattens(gibbons_run):
    outcome, _elapsed = gibbons_run
    assert outcome.converged and outcome.final_residual <= 1e-9
    assert solvernd.transverse_anisotropy(outcome.field) <= 1e-8
    jumps = np.diff(np.array(outcome.energy_trace))
    assert np.max(jumps) <= 1e-12


def test_gibbons_extract_matches_newton(gibbons_run):
    outcome, _elapsed = gibbons_run
    g_n = outcome.field.grid_n
    extracted = solver1d.pin_phase(solvernd.extract_1d(outcome.field, 1e-6))
    ref = solver1d.newton_solve(
        Params(3.0), solver1d.initial_guess(Params(3.0), g_n), solver1d.SolveOptions()
    )
    ref_pin = solver1d.pin_phase(ref.profile)
    dist = max(np.max(np.abs(extracted.u - ref_pin.u)), np.max(np.abs(extracted.v - ref_pin.v)))
    assert dist <= 10.0 * g_n.h**2


def test_flow_deterministic():
    box = Grid1D(4.0, 16)
    p = Params(0.5)
    a = solvernd.periodic_box_run(p, box, box, solvernd.FlowOptions(), 3)
    b = solvernd.periodic_box_run(p, box, box, solvernd.FlowOptions(), 3)
    assert np.array_equal(a.field.u, b.field.u)
    assert np.array_equal(a.field.v, b.field.v)
    assert a.energy_trace == b.energy_trace


def test_energy_trace_csv(tmp_path):
    box = Grid1D(4.0, 16)
    out = solvernd.periodic_box_run(Params(0.5), box, box, solvernd.FlowOptions(), 3)
    path = tmp_path / "trace.csv"
    grid.save_energy_trace_csv(path, out)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,energy,update_norm"
    assert len(lines) == 2 + len(out.update_trace)
    first = lines[1].split(",")
    assert first[0] == "0" and first[2] == ""
