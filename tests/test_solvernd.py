import numpy as np
import pytest
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
    dt = solvernd.DEFAULT_DT
    f1 = solvernd.flow_step(p, f, dt)
    upd = max(np.max(np.abs(f1.u - f.u)), np.max(np.abs(f1.v - f.v)))
    assert upd <= 10.0 * g_n.h**2 * dt


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
    f1 = solvernd.flow_step(p, f, solvernd.DEFAULT_DT)
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
# the explicit step of coupling 3 (S = 0) keeps the plain ids; dt = 1 and 2 take S > 0
EXPLICIT_DT = 0.9 / 11.0


@pytest.mark.parametrize(
    "nt, nn, periodic_n, dt",
    [pytest.param(*shape, EXPLICIT_DT, id="-".join(map(str, shape))) for shape in SHAPES]
    + [
        pytest.param(*shape, dt, id="-".join(map(str, shape)) + f"-dt{dt:g}")
        for shape in SHAPES
        for dt in (1.0, 2.0)
    ],
)
def test_flow_step_matches_dense_solve(nt, nn, periodic_n, dt):
    # random data everywhere, so the pinned end columns vary along the transverse axis;
    # the oracle assembles (1 + S*dt) I - dt (D_t + D_n) on all nodes, with identity
    # rows at the pinned end columns, and solves it directly
    p = Params(3.0)
    g_t = Grid1D(1.5, nt)
    g_n = Grid1D(20.0 if nn > 100 else 0.5, nn)
    rng = np.random.default_rng(nt * 1000 + nn)
    f = SlabField(g_t, g_n, rng.uniform(-1, 1, (nt, nn)), rng.uniform(-1, 1, (nt, nn)), periodic_n)
    s = solvernd.stabilization(p, dt)
    assert (s == 0.0) == (dt == EXPLICIT_DT)
    new = solvernd.flow_step(p, f, dt)
    lap = sparse.kron(second_difference_matrix(nt, g_t.h, periodic=True), sparse.identity(nn)) + sparse.kron(
        sparse.identity(nt), second_difference_matrix(nn, g_n.h, periodic_n)
    )
    free = np.ones((nt, nn))
    if not periodic_n:
        free[:, [0, -1]] = 0.0
    op = sparse.diags(free.ravel()) @ ((1.0 + s * dt) * sparse.identity(nt * nn) - dt * lap) + sparse.diags(
        1.0 - free.ravel()
    )
    for old, react, got in zip((f.u, f.v), model.reaction(p, f.u, f.v), (new.u, new.v)):
        rhs = np.where(free == 1.0, (1.0 + s * dt) * old + dt * react, old)
        expected = spsolve(op.tocsc(), rhs.ravel()).reshape(nt, nn)
        assert np.max(np.abs(got - expected)) <= 1e-12


# A checkerboard on the saddle u = v = 1/2 of the coupling-3 potential, on a grid
# coarse enough (h = 20/7) for the checkerboard to lower the energy.  A step whose
# implicit operator is the factorized (I - dt D_t)(I - dt D_n) + S*dt*I damps it
# and raises the energy (by 2e-6 relative at dt = 2): its split term
# dt^2 D_t D_n acts on the new state, not on the update.
_CHECKERBOARD = (-1.0) ** np.add.outer(np.arange(8), np.arange(9))
SADDLE_U = 0.5 + 1e-2 * _CHECKERBOARD
SADDLE_V = 0.5 - 1e-2 * _CHECKERBOARD


def log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda x: 10.0**x)


unit_data = arrays(float, (8, 9), elements=st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    lam=log_uniform(0.05, 1000.0),
    dt=log_uniform(1e-3, 1e3),
    half_length=st.floats(0.5, 20.0),
    periodic_n=st.booleans(),
    u=unit_data,
    v=unit_data,
)
@example(lam=3.0, dt=2.0, half_length=10.0, periodic_n=True, u=SADDLE_U, v=SADDLE_V)
def test_flow_step_never_raises_energy(lam, dt, half_length, periodic_n, u, v):
    # an 8x8 periodic box or an 8x9 Dirichlet slab holding data in [0,1]^2
    g_t = Grid1D(half_length, 8)
    if periodic_n:
        f = SlabField(g_t, g_t, u[:, :8], v[:, :8], periodic_n=True)
    else:
        f = SlabField(g_t, Grid1D(half_length, 9), u, v)
    p = Params(lam)
    e0 = grid.discrete_energy_slab(p, f)
    e1 = grid.discrete_energy_slab(p, solvernd.flow_step(p, f, dt))
    assert e1 - e0 <= 1e-12 * max(1.0, abs(e0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    lam=log_uniform(0.05, 1000.0),
    half_length=st.floats(0.5, 20.0),
    periodic_n=st.booleans(),
    u=unit_data,
    v=unit_data,
)
def test_relax_to_steady_never_raises_energy(lam, half_length, periodic_n, u, v):
    # the accepted iterates of the accelerated flow, on an 8x8 periodic box
    # or an 8x9 Dirichlet slab; a run that does not settle ends in
    # NonConvergence with its partial outcome
    g_t = Grid1D(half_length, 8)
    if periodic_n:
        f0 = SlabField(g_t, g_t, u[:, :8], v[:, :8], periodic_n=True)
    else:
        f0 = SlabField(g_t, Grid1D(half_length, 9), u, v)
    opts = solvernd.FlowOptions(max_steps=100)
    try:
        out = solvernd.relax_to_steady(Params(lam), f0, opts)
    except NonConvergence as exc:
        out = exc.outcome
        assert not out.converged and out.steps == opts.max_steps
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


@pytest.mark.parametrize("lam", [1.1, 1.5, 6.0, 20.0, 100.0])
def test_gibbons_run_settles_across_couplings(lam):
    # a slab with a short transverse axis; near coupling 1 the plain flow
    # stalls above steady_tol for 40000 steps
    opts = solvernd.FlowOptions(rng_seed=0)
    out = solvernd.gibbons_run(Params(lam), Grid1D(0.5, 8), Grid1D(20.0, 801), opts)
    assert out.converged
    assert out.final_residual <= opts.steady_tol
    assert np.max(np.diff(np.array(out.energy_trace))) <= 1e-12
    assert solvernd.transverse_anisotropy(out.field) <= 1e-8


@pytest.mark.parametrize("periodic_n", [False, True])
def test_flow_rejects_overflowing_data(periodic_n):
    p = Params(3.0)
    g = Grid1D(2.0, 8)
    big = np.full((8, 8), 1e110)
    f = SlabField(g, g, big, big, periodic_n)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverError, match="non-finite"):
            solvernd.flow_step(p, f, solvernd.DEFAULT_DT)
    with pytest.raises(SolverError, match="non-finite"):
        solvernd.relax_to_steady(p, f, solvernd.FlowOptions())


def test_constant_fixed_points():
    box = Grid1D(4.0, 32)
    # mixed constant below coupling 1
    p = Params(0.5)
    c = model.liouville_constant(p)
    f = SlabField(box, box, np.full((32, 32), c), np.full((32, 32), c), periodic_n=True)
    f1 = solvernd.flow_step(p, f, solvernd.DEFAULT_DT)
    assert np.max(np.abs(f1.u - f.u)) <= 1e-13
    assert np.max(np.abs(f1.v - f.v)) <= 1e-13
    # pure equilibria at any coupling
    for pair in ((1.0, 0.0), (0.0, 1.0)):
        f = SlabField(box, box, np.full((32, 32), pair[0]), np.full((32, 32), pair[1]), periodic_n=True)
        f1 = solvernd.flow_step(Params(4.0), f, solvernd.DEFAULT_DT)
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
    f1 = solvernd.flow_step(p, f, solvernd.DEFAULT_DT)
    e1 = grid.discrete_energy_slab(p, f1)
    assert e1 < e0


def test_bound_absorption():
    # data within [-1,1] stays within 1 + 10*h^2 along the flow
    p = Params(2.0)
    box = Grid1D(3.0, 24)
    rng = np.random.default_rng(6)
    f = SlabField(box, box, rng.uniform(-1, 1, (24, 24)), rng.uniform(-1, 1, (24, 24)), periodic_n=True)
    dt = solvernd.DEFAULT_DT
    cap = 1.0 + 10.0 * box.h**2
    for _ in range(50):
        f = solvernd.flow_step(p, f, dt)
        assert np.max(np.abs(f.u)) <= cap
        assert np.max(np.abs(f.v)) <= cap


def test_relax_nonconvergence_carries_outcome():
    p = Params(0.5)
    box = Grid1D(4.0, 16)
    opts = solvernd.FlowOptions(max_steps=3, rng_seed=1)
    with pytest.raises(NonConvergence) as info:
        solvernd.periodic_box_run(p, box, box, opts)
    assert info.value.outcome is not None
    assert info.value.outcome.steps == 3
    assert len(info.value.outcome.energy_trace) == 4
    assert info.value.outcome.final_residual > opts.steady_tol


def test_transverse_anisotropy_basics():
    g_n = Grid1D(10.0, 101)
    g_t = Grid1D(2.0, 8)
    f = solvernd.embed_profile(front_profile(g_n), g_t)
    assert solvernd.transverse_anisotropy(f) == 0.0
    u = f.u.copy()
    u[3, 50] += 0.1
    bumped = f.with_values(u, f.v)
    assert abs(solvernd.transverse_anisotropy(bumped) - 0.1) < 1e-12


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
        out = solvernd.periodic_box_run(p, box, box, solvernd.FlowOptions(rng_seed=7))
        assert out.converged and out.final_residual <= 1e-9
        c = model.liouville_constant(p)
        dev = max(np.max(np.abs(out.field.u - c)), np.max(np.abs(out.field.v - c)))
        assert dev <= 1e-6, lam
        jumps = np.diff(np.array(out.energy_trace))
        assert np.max(jumps) <= 1e-12


def test_liouville_value_example():
    box = Grid1D(4.0, 32)
    out = solvernd.periodic_box_run(Params(0.5), box, box, solvernd.FlowOptions(rng_seed=7))
    assert np.max(np.abs(out.field.u - 0.816497)) < 1e-6 + 1e-6


def test_unit_coupling_circle():
    box = Grid1D(4.0, 32)
    out = solvernd.periodic_box_run(Params(1.0), box, box, solvernd.FlowOptions(rng_seed=7))
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
        Params(3.0), g_n, solver1d.initial_guess(Params(3.0), g_n), solver1d.SolveOptions()
    )
    ref_pin = solver1d.pin_phase(ref.profile)
    dist = max(np.max(np.abs(extracted.u - ref_pin.u)), np.max(np.abs(extracted.v - ref_pin.v)))
    assert dist <= 10.0 * g_n.h**2


def test_flow_deterministic():
    box = Grid1D(4.0, 16)
    p = Params(0.5)
    a = solvernd.periodic_box_run(p, box, box, solvernd.FlowOptions(rng_seed=3))
    b = solvernd.periodic_box_run(p, box, box, solvernd.FlowOptions(rng_seed=3))
    assert np.array_equal(a.field.u, b.field.u)
    assert np.array_equal(a.field.v, b.field.v)
    assert a.energy_trace == b.energy_trace


def test_energy_trace_csv(tmp_path):
    box = Grid1D(4.0, 16)
    out = solvernd.periodic_box_run(Params(0.5), box, box, solvernd.FlowOptions(rng_seed=3))
    path = tmp_path / "trace.csv"
    solvernd.save_energy_trace_csv(path, out)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,energy,update_norm"
    assert len(lines) == 2 + len(out.update_trace)
    first = lines[1].split(",")
    assert first[0] == "0" and first[2] == ""
