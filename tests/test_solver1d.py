import numpy as np
import pytest
import scipy.interpolate
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gp_rigidity import grid, model, solver1d
from gp_rigidity.errors import ContinuationStall, NoCrossing, NonConvergence, RegimeError
from gp_rigidity.grid import Grid1D, ProfilePair
from gp_rigidity.model import Params


def test_initial_guess_boundary_and_midpoint(default_grid):
    guess = solver1d.initial_guess(Params(10.0), default_grid)
    assert guess.u[0] == 0.0 and guess.v[0] == 1.0
    assert guess.u[-1] == 1.0 and guess.v[-1] == 0.0
    mid = default_grid.n // 2
    assert guess.u[mid] == 0.5 and guess.v[mid] == 0.5


def test_banded_assembly_matches_dense():
    # oracle: build the dense Jacobian by finite differences of the residual
    g = Grid1D(3.0, 9)
    p = Params(2.5)
    rng = np.random.default_rng(2)
    u = np.clip(solver1d.initial_guess(p, g).u + rng.uniform(-0.1, 0.1, g.n), 0, 1)
    v = np.clip(solver1d.initial_guess(p, g).v + rng.uniform(-0.1, 0.1, g.n), 0, 1)
    u[0], v[0] = 0.0, 1.0
    u[-1], v[-1] = 1.0, 0.0

    def residual_vec(z):
        prof = ProfilePair(g, z[0::2], z[1::2])
        ru, rv = grid.residual_1d(p, prof)
        out = np.empty(2 * g.n)
        out[0::2] = ru
        out[1::2] = rv
        return out

    z0 = np.empty(2 * g.n)
    z0[0::2] = u
    z0[1::2] = v
    eps = 1e-7
    dense = np.empty((2 * g.n, 2 * g.n))
    for j in range(2 * g.n):
        zp = z0.copy()
        zm = z0.copy()
        zp[j] += eps
        zm[j] -= eps
        dense[:, j] = (residual_vec(zp) - residual_vec(zm)) / (2 * eps)

    rhs = rng.uniform(-1, 1, 2 * g.n)
    x_banded = solver1d.solve_banded(solver1d._assemble_bands(p, g, u, v), rhs.copy())
    x_dense = np.linalg.solve(dense, rhs)
    assert np.max(np.abs(x_banded - x_dense)) < 1e-6


def bitwise_equal(a, b) -> bool:
    """Equal bit patterns, so -0.0 and 0.0 differ."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def random_work(rng, n):
    """dgbsv buffer for a 2n-row system with random bands (fill-in rows zero)."""
    work = np.zeros((7, 2 * n), order="F")
    work[2:] = rng.uniform(-1, 1, (5, 2 * n))
    return work


@pytest.mark.parametrize("n", [3, 4, 801, 20001])
def test_solve_banded_matches_scipy_bitwise(n):
    rng = np.random.default_rng(n)
    work = random_work(rng, n)
    rhs = rng.uniform(-1, 1, 2 * n)
    expected = scipy.linalg.solve_banded((2, 2), work[2:].copy(), rhs.copy())
    assert bitwise_equal(solver1d.solve_banded(work, rhs), expected)


def test_solve_banded_zero_column_is_singular():
    work = random_work(np.random.default_rng(7), 4)
    work[:, 3] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        solver1d.solve_banded(work, np.ones(8))


signed_values = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))


# a query on a node whose value is -0.0 and whose three other coefficients
# are negative: scipy's sum starts from +0.0 and returns +0.0 there
SIGNED_ZERO_CUBIC = np.array([-0.0, -1.4074074074074074, -5.48148148148148, -14.0])


@settings(max_examples=200, deadline=None, derandomize=True)
@example(half_length=1.0, data=(SIGNED_ZERO_CUBIC, -SIGNED_ZERO_CUBIC, ("fraction", -3.0)))
@given(
    half_length=st.floats(0.5, 50.0),
    data=st.integers(3, 300).flatmap(
        lambda n: st.tuples(
            arrays(float, n, elements=signed_values),
            arrays(float, n, elements=signed_values),
            # shifts in node steps (exact multiples of h), in [-1, 1] of the
            # axis, and past either end so that queries clamp
            st.one_of(
                st.integers(-n, n).map(lambda k: ("steps", k)),
                st.floats(-1.0, 1.0).map(lambda f: ("fraction", f)),
                st.sampled_from([("fraction", -3.0), ("fraction", 3.0)]),
            ),
        )
    ),
)
def test_pin_phase_spline_is_scipy_cubic_spline(half_length, data):
    u, v, (kind, amount) = data
    g = Grid1D(half_length, len(u))
    x = g.nodes()
    shift = amount * g.h if kind == "steps" else amount * half_length
    xq = np.clip(x + shift, x[0], x[-1])
    new_u, new_v = solver1d._not_a_knot_spline(x, (u, v), xq)
    assert bitwise_equal(new_u, scipy.interpolate.CubicSpline(x, u)(xq))
    assert bitwise_equal(new_v, scipy.interpolate.CubicSpline(x, v)(xq))


def test_pin_phase_of_a_solved_front_is_scipy_cubic_spline(solved, default_grid):
    prof = solved[2.0].profile
    pinned = solver1d.pin_phase(prof)
    x = default_grid.nodes()
    d = prof.u - prof.v
    i = int(np.flatnonzero(d[:-1] * d[1:] < 0.0)[0])
    xq = np.clip(x + float(x[i] - d[i] * default_grid.h / (d[i + 1] - d[i])), x[0], x[-1])
    assert bitwise_equal(pinned.u, scipy.interpolate.CubicSpline(x, prof.u)(xq))
    assert bitwise_equal(pinned.v, scipy.interpolate.CubicSpline(x, prof.v)(xq))


def test_newton_refuses_low_coupling(default_grid, default_opts):
    for lam in (0.5, 1.0):
        with pytest.raises(RegimeError):
            solver1d.newton_solve(
                Params(lam), default_grid, solver1d.initial_guess(Params(lam), default_grid), default_opts
            )


def test_newton_rejects_bad_boundary(default_grid, default_opts):
    guess = solver1d.initial_guess(Params(3.0), default_grid)
    u = guess.u.copy()
    u[0] = 0.5
    with pytest.raises(ValueError):
        solver1d.newton_solve(Params(3.0), default_grid, ProfilePair(default_grid, u, guess.v), default_opts)


def test_newton_special_coupling_fast(solved):
    out = solved[3.0]
    assert out.converged
    assert out.iterations <= 2
    assert out.final_residual <= 1e-10


def test_newton_closed_form_distance(solved, default_grid):
    pinned = solver1d.pin_phase(solved[3.0].profile)
    fu, fv = model.tanh_front(0.0, default_grid.nodes())
    dist = max(np.max(np.abs(pinned.u - fu)), np.max(np.abs(pinned.v - fv)))
    assert dist <= 5e-3


def test_newton_sum_ordering(solved):
    s2 = solved[2.0].profile.u[1:-1] + solved[2.0].profile.v[1:-1]
    assert np.min(s2) > 1.0
    s6 = solved[6.0].profile.u[1:-1] + solved[6.0].profile.v[1:-1]
    assert np.max(s6) < 1.0
    s3 = solved[3.0].profile.u + solved[3.0].profile.v
    assert np.max(np.abs(s3 - 1.0)) <= 10 * solved[3.0].profile.grid.h ** 2


def test_newton_monotone_and_bounds(solved):
    for lam, out in solved.items():
        min_du, max_dv = grid.check_discrete_monotone(out.profile)
        assert min_du > 0.0, lam
        assert max_dv < 0.0, lam
        rep = grid.check_bounds(Params(lam), out.profile.u, out.profile.v)
        assert min(rep.component_margin, rep.sum_squares_margin) >= -10 * out.profile.grid.h**2, lam


def test_newton_quadratic_tail(solved):
    # quadratic contraction is visible for residuals between 1e-6 and 1e-3;
    # below that the next residual may sit on the evaluation rounding floor
    seen = 0
    for out in solved.values():
        hist = out.residual_history
        for r_prev, r_next in zip(hist, hist[1:]):
            if 1e-6 <= r_prev < 1e-3:
                assert r_next <= r_prev**1.8
                seen += 1
    assert seen >= 2


def test_newton_deterministic(default_grid, default_opts):
    p = Params(2.0)
    a = solver1d.newton_solve(p, default_grid, solver1d.initial_guess(p, default_grid), default_opts)
    b = solver1d.newton_solve(p, default_grid, solver1d.initial_guess(p, default_grid), default_opts)
    assert np.array_equal(a.profile.u, b.profile.u)
    assert np.array_equal(a.profile.v, b.profile.v)
    assert a.residual_history == b.residual_history


def test_singular_linearization_is_reported(default_grid, default_opts, monkeypatch):
    def explode(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(solver1d, "solve_banded", explode)
    from gp_rigidity.errors import SingularJacobian

    with pytest.raises(SingularJacobian) as info:
        solver1d.newton_solve(
            Params(3.0), default_grid, solver1d.initial_guess(Params(3.0), default_grid), default_opts
        )
    assert info.value.lam == 3.0
    assert info.value.iteration == 0


def test_newton_nonconvergence_carries_outcome(default_grid):
    opts = solver1d.SolveOptions(max_iters=1, newton_tol=1e-14)
    with pytest.raises(NonConvergence) as info:
        solver1d.newton_solve(Params(6.0), default_grid, solver1d.initial_guess(Params(6.0), default_grid), opts)
    assert info.value.outcome is not None
    assert not info.value.outcome.converged


def test_solve_options_need_an_iteration():
    with pytest.raises(ValueError, match="max_iters"):
        solver1d.SolveOptions(max_iters=0)


def test_pin_phase_translation_oracle(default_grid):
    x = default_grid.nodes()
    u, v = model.tanh_front(1.3, x)
    pinned = solver1d.pin_phase(ProfilePair(default_grid, u, v))
    fu, fv = model.tanh_front(0.0, x)
    err = max(np.max(np.abs(pinned.u - fu)), np.max(np.abs(pinned.v - fv)))
    assert err <= default_grid.h**2


def test_pin_phase_near_identity_and_idempotent(default_grid):
    guess = solver1d.initial_guess(Params(3.0), default_grid)
    pinned = solver1d.pin_phase(guess)
    # the u-v crossing of the seed lies on a node, so nothing moves
    assert np.array_equal(pinned.u, guess.u)
    again = solver1d.pin_phase(pinned)
    assert np.max(np.abs(again.u - pinned.u)) <= default_grid.h**2


def test_pin_phase_no_crossing(default_grid):
    const = ProfilePair(default_grid, np.full(default_grid.n, 0.8), np.full(default_grid.n, 0.2))
    with pytest.raises(NoCrossing):
        solver1d.pin_phase(const)


def test_refinement_second_order():
    # pinned solutions on h and h/2 grids agree on shared nodes to O(h^2):
    # consecutive inter-grid distances shrink by ~4 per doubling
    opts = solver1d.SolveOptions()
    for lam in (2.0, 3.0, 6.0):
        p = Params(lam)
        pins = {}
        for n in (1001, 2001, 4001):
            g = Grid1D(20.0, n)
            out = solver1d.newton_solve(p, g, solver1d.initial_guess(p, g), opts)
            pins[n] = solver1d.pin_phase(out.profile)
        d1 = max(
            np.max(np.abs(pins[1001].u - pins[2001].u[::2])),
            np.max(np.abs(pins[1001].v - pins[2001].v[::2])),
        )
        d2 = max(
            np.max(np.abs(pins[2001].u - pins[4001].u[::2])),
            np.max(np.abs(pins[2001].v - pins[4001].v[::2])),
        )
        assert 3.0 <= d1 / d2 <= 5.0, lam


def test_lambda_samples():
    assert solver1d._lambda_samples(2.0, 2.0, 0.5) == [2.0]
    assert solver1d._lambda_samples(2.0, 6.0, 0.5) == [2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0]
    down = solver1d._lambda_samples(3.0, 1.5, 0.25)
    assert down[0] == 3.0 and down[-1] == 1.5 and len(down) == 7
    ragged = solver1d._lambda_samples(2.0, 3.0, 0.4)
    assert ragged[-1] == 3.0 and ragged[0] == 2.0


def test_continuation_sweep_up(default_opts):
    g = Grid1D(20.0, 801)
    outcomes = solver1d.continuation_sweep(3.0, 6.0, 0.5, g, default_opts)
    assert len(outcomes) == 7
    assert all(o.converged for o in outcomes)
    for o in outcomes:
        s = o.profile.u[1:-1] + o.profile.v[1:-1]
        if o.lam > 3.0:
            assert np.max(s) < 1.0
        else:
            assert np.max(np.abs(s - 1.0)) <= 10 * g.h**2


def test_continuation_sweep_down(default_opts):
    g = Grid1D(20.0, 801)
    outcomes = solver1d.continuation_sweep(3.0, 1.5, 0.25, g, default_opts)
    assert len(outcomes) == 7
    assert all(o.converged for o in outcomes)
    for o in outcomes:
        if o.lam < 3.0:
            assert np.min(o.profile.u[1:-1] + o.profile.v[1:-1]) > 1.0


def test_continuation_single_point(default_opts):
    g = Grid1D(20.0, 801)
    outcomes = solver1d.continuation_sweep(2.0, 2.0, 0.5, g, default_opts)
    assert len(outcomes) == 1 and outcomes[0].converged


def test_continuation_stall():
    g = Grid1D(20.0, 801)
    opts = solver1d.SolveOptions(max_iters=1)
    with pytest.raises(ContinuationStall):
        solver1d.continuation_sweep(2.0, 3.0, 0.5, g, opts)


def test_continuation_regime_guard(default_opts):
    g = Grid1D(20.0, 801)
    with pytest.raises(RegimeError):
        solver1d.continuation_sweep(3.0, 0.5, 0.5, g, default_opts)


def test_uniqueness_probe(default_grid, default_opts):
    for lam in (2.0, 3.0):
        dist = solver1d.uniqueness_probe(Params(lam), default_grid, default_opts, 5, rng_seed=42)
        assert dist <= 1e-6, lam


def test_uniqueness_probe_single_seed(default_grid, default_opts):
    dist = solver1d.uniqueness_probe(Params(3.0), default_grid, default_opts, 1, rng_seed=0)
    assert dist == 0.0


def test_uniqueness_probe_deterministic(default_grid, default_opts):
    a = solver1d.uniqueness_probe(Params(2.0), default_grid, default_opts, 3, rng_seed=5)
    b = solver1d.uniqueness_probe(Params(2.0), default_grid, default_opts, 3, rng_seed=5)
    assert a == b
