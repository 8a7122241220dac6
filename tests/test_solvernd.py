import numpy as np
import pytest

from gp_rigidity import grid, model, solver1d, solvernd
from gp_rigidity.errors import NonConvergence, StepTooLarge, TooAnisotropic
from gp_rigidity.grid import Grid1D, ProfilePair, SlabField
from gp_rigidity.model import Params


def front_profile(g):
    u, v = model.tanh_front(0.0, g.nodes())
    u, v = np.array(u), np.array(v)
    u[0], v[0] = grid.LEFT_STATE
    u[-1], v[-1] = grid.RIGHT_STATE
    return ProfilePair(g, u, v)


def test_max_stable_dt_formula():
    assert solvernd.max_stable_dt(Params(3.0)) == 0.9 / 11.0
    assert solvernd.max_stable_dt(Params(0.5)) == 0.9 / 3.5


def test_flow_step_rejects_large_dt():
    p = Params(3.0)
    g = Grid1D(2.0, 9)
    f = SlabField(g, g, np.zeros((9, 9)), np.zeros((9, 9)), periodic_n=True)
    with pytest.raises(StepTooLarge):
        solvernd.flow_step(p, f, solvernd.max_stable_dt(p) * 1.01)


def test_embedded_front_nearly_stationary():
    p = Params(3.0)
    g_n = Grid1D(20.0, 801)
    g_t = Grid1D(4.0, 64)
    f = solvernd.embed_profile(front_profile(g_n), g_t)
    dt = solvernd.max_stable_dt(p)
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
    f1 = solvernd.flow_step(p, f, solvernd.max_stable_dt(p))
    assert np.array_equal(f1.u[:, 0], f.u[:, 0])
    assert np.array_equal(f1.v[:, 0], f.v[:, 0])
    assert np.array_equal(f1.u[:, -1], f.u[:, -1])
    assert np.array_equal(f1.v[:, -1], f.v[:, -1])


def dense_line_operator(m, h, dt, periodic):
    """I - dt * second difference on m nodes; Dirichlet end rows are identity rows."""
    a = dt / h**2
    op = np.eye(m)
    for i in range(m):
        if periodic or 0 < i < m - 1:
            op[i, i] += 2.0 * a
            op[i, (i - 1) % m] -= a
            op[i, (i + 1) % m] -= a
    return op


@pytest.mark.parametrize(
    "nt, nn, periodic_n",
    [(3, 3, False), (3, 3, True), (5, 8, False), (5, 8, True), (8, 5, False), (8, 5, True), (64, 801, False)],
)
def test_flow_step_matches_dense_solve(nt, nn, periodic_n):
    # random data everywhere, so the pinned end columns vary along the transverse axis
    p = Params(3.0)
    g_t = Grid1D(1.5, nt)
    g_n = Grid1D(20.0 if nn > 100 else 0.5, nn)
    rng = np.random.default_rng(nt * 1000 + nn)
    f = SlabField(g_t, g_n, rng.uniform(-1, 1, (nt, nn)), rng.uniform(-1, 1, (nt, nn)), periodic_n)
    dt = solvernd.max_stable_dt(p)
    new = solvernd.flow_step(p, f, dt)
    op_t = dense_line_operator(nt, g_t.h, dt, periodic=True)
    op_n = dense_line_operator(nn, g_n.h, dt, periodic=periodic_n)
    for old, react, got in zip((f.u, f.v), model.reaction(p, f.u, f.v), (new.u, new.v)):
        rhs = old + dt * react
        if not periodic_n:
            rhs[:, [0, -1]] = old[:, [0, -1]]
        expected = np.linalg.solve(op_n, np.linalg.solve(op_t, rhs).T).T
        if not periodic_n:
            expected[:, [0, -1]] = old[:, [0, -1]]
        assert np.max(np.abs(got - expected)) <= 1e-12


@pytest.mark.parametrize("periodic_n", [False, True])
def test_flow_rejects_overflowing_data(periodic_n):
    p = Params(3.0)
    g = Grid1D(2.0, 8)
    big = np.full((8, 8), 1e110)
    f = SlabField(g, g, big, big, periodic_n)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            solvernd.flow_step(p, f, solvernd.max_stable_dt(p))
        with pytest.raises(ValueError, match="non-finite"):
            solvernd.relax_to_steady(p, f, solvernd.FlowOptions())


def test_constant_fixed_points():
    box = Grid1D(4.0, 32)
    # mixed constant below coupling 1
    p = Params(0.5)
    c = model.liouville_constant(p)
    f = SlabField(box, box, np.full((32, 32), c), np.full((32, 32), c), periodic_n=True)
    f1 = solvernd.flow_step(p, f, solvernd.max_stable_dt(p))
    assert np.max(np.abs(f1.u - f.u)) <= 1e-13
    assert np.max(np.abs(f1.v - f.v)) <= 1e-13
    # pure equilibria at any coupling
    for pair in ((1.0, 0.0), (0.0, 1.0)):
        f = SlabField(box, box, np.full((32, 32), pair[0]), np.full((32, 32), pair[1]), periodic_n=True)
        f1 = solvernd.flow_step(Params(4.0), f, solvernd.max_stable_dt(Params(4.0)))
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
    f1 = solvernd.flow_step(p, f, solvernd.max_stable_dt(p))
    e1 = grid.discrete_energy_slab(p, f1)
    assert e1 < e0


def test_bound_absorption():
    # data within [-1,1] stays within 1 + 10*h^2 along the flow
    p = Params(2.0)
    box = Grid1D(3.0, 24)
    rng = np.random.default_rng(6)
    f = SlabField(box, box, rng.uniform(-1, 1, (24, 24)), rng.uniform(-1, 1, (24, 24)), periodic_n=True)
    dt = solvernd.max_stable_dt(p)
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
        assert out.converged
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
    assert out.converged
    circ = np.max(np.abs(out.field.u**2 + out.field.v**2 - 1.0))
    assert circ <= 1e-6
    assert max(np.ptp(out.field.u), np.ptp(out.field.v)) <= 1e-6


def test_gibbons_run_flattens(gibbons_run):
    outcome, _elapsed = gibbons_run
    assert outcome.converged
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
