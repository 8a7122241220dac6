import math
import sys

import numpy as np
import pytest
import scipy.linalg

from gp_rigidity import grid, model, solver1d, verify
from gp_rigidity.errors import NoCrossing, NonConvergence, RegimeError
from gp_rigidity.grid import Grid1D, ProfilePair
from gp_rigidity.model import Params


def test_initial_guess_boundary_and_midpoint(default_grid):
    for lam in (1.5, 3.0, 6.0, 10.0, 1000.0):
        guess = solver1d.initial_guess(Params(lam), default_grid)
        assert guess.u[0] == 0.0 and guess.v[0] == 1.0
        assert guess.u[-1] == 1.0 and guess.v[-1] == 0.0
        # the blend weight is w = max(0, 1 - 3/lam) and the segregated limit is 0 at x = 0
        w = max(0.0, 1.0 - 3.0 / lam)
        mid = default_grid.n // 2
        assert default_grid.nodes()[mid] == 0.0
        assert guess.u[mid] == guess.v[mid] == (1.0 - w) / 2.0


@pytest.mark.parametrize("lam", [1.01, 1.5, 2.0, 2.999, 3.0])
def test_initial_guess_up_to_coupling_3_is_the_sampled_front(lam):
    g = Grid1D(20.0, 2001)
    guess = solver1d.initial_guess(Params(lam), g)
    u, v = model.tanh_front(0.0, g.nodes())
    u[0], v[0], u[-1], v[-1] = 0.0, 1.0, 1.0, 0.0
    assert bitwise_equal(guess.u, u) and bitwise_equal(guess.v, v)
    assert (guess.u[0], guess.v[0], guess.u[-1], guess.v[-1]) == (0.0, 1.0, 1.0, 0.0)


def test_initial_guess_tends_to_the_segregated_pair():
    g = Grid1D(20.0, 401)
    x = g.nodes()
    segregated = np.tanh(np.maximum(x, 0.0) / model.SQRT2), np.tanh(np.maximum(-x, 0.0) / model.SQRT2)
    gaps = []
    for lam in (6.0, 30.0, 300.0, 3000.0):
        guess = solver1d.initial_guess(Params(lam), g)
        gaps.append(np.max(np.abs(guess.u[1:-1] - segregated[0][1:-1])))
        # a convex combination of two increasing profiles in [0, 1], mirrored in v
        assert np.all(np.diff(guess.u) >= 0.0) and np.all(guess.u >= 0.0) and np.all(guess.u <= 1.0)
        assert np.max(np.abs(guess.v - guess.u[::-1])) <= 1e-14
    assert gaps == sorted(gaps, reverse=True) and gaps[-1] < 1e-3


@pytest.mark.parametrize("lam", [1.01, 1.1, 1.5, 2.0, 3.0, 6.0, 20.0, 100.0, 200.0, 500.0, 700.0, 1000.0])
def test_newton_converges_from_the_seed_in_seven_updates(lam):
    # one coupling-aware seed for 1 < lam <= 1000; from the coupling-3 front
    # alone lam = 700 did not converge and lam = 100 took 18 updates
    g = Grid1D(20.0, 2001)
    p = Params(lam)
    outcome = solver1d.newton_solve(p, solver1d.initial_guess(p, g), solver1d.SolveOptions())
    assert outcome.converged and outcome.iterations <= 7, outcome.iterations


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


def test_band_assembly_is_the_plain_expressions_bitwise():
    # the bands as plain numpy expressions; the assembly writes them in place
    rng = np.random.default_rng(11)
    g = Grid1D(7.0, 501)
    m = 2 * g.n
    for lam in (1.1, 3.0, 1000.0):
        p = Params(lam)
        u, v = rng.uniform(-1.5, 1.5, (2, g.n))
        inv_h2 = 1.0 / g.h**2
        c1, c2, off = model.jacobian_entries(p, u, v)
        expected = np.zeros((7, m), order="F")
        ab = expected[2:]
        ab[2, 0::2] = -2.0 * inv_h2 + c1
        ab[2, 1::2] = -2.0 * inv_h2 + c2
        ab[1, 1::2] = off
        ab[3, 0::2] = off
        ab[0, 2:] = inv_h2
        ab[4, :-2] = inv_h2
        ab[2, [0, 1, m - 2, m - 1]] = 1.0
        ab[1, [1, m - 1]] = 0.0
        ab[3, [0, m - 2]] = 0.0
        ab[0, [2, 3]] = 0.0
        ab[4, [m - 4, m - 3]] = 0.0
        work = solver1d._assemble_bands(p, g, u, v)
        assert work.flags.f_contiguous
        assert bitwise_equal(work, expected)


def test_jacobian_entries_are_the_plain_expressions_bitwise():
    # written into strided band-row views as into new arrays
    rng = np.random.default_rng(12)
    n = 301
    for lam in (0.5, 1.1, 3.0, 1000.0):
        p = Params(lam)
        u, v = rng.uniform(-1.5, 1.5, (2, n))
        u[:3] = [0.0, -0.0, 1.0]
        v[:3] = [-0.0, 1.0, 0.0]
        expected = (1.0 - 3.0 * u**2 - lam * v**2, 1.0 - 3.0 * v**2 - lam * u**2, -2.0 * lam * u * v)
        ab = np.full((5, 2 * n), np.nan, order="F")
        out = (ab[2, 0::2], ab[2, 1::2], ab[1, 1::2])
        assert model.jacobian_entries(p, u, v, out=out) is out
        for got, new, want in zip(out, model.jacobian_entries(p, u, v), expected):
            assert bitwise_equal(got, want) and bitwise_equal(new, want)
        # nothing outside the three rows' strided slots is written
        assert np.isnan(ab[[0, 3, 4]]).all() and np.isnan(ab[1, 0::2]).all()
        # a scalar pair, as the box Newton step passes its means
        for got, want in zip(model.jacobian_entries(p, u[5], v[5]), expected):
            assert bitwise_equal(np.asarray(got), want[5:6].reshape(()))


def test_newton_refuses_low_coupling(default_grid, default_opts):
    for lam in (0.5, 1.0):
        with pytest.raises(RegimeError):
            solver1d.newton_solve(
                Params(lam), solver1d.initial_guess(Params(lam), default_grid), default_opts
            )


def test_newton_rejects_bad_boundary(default_grid, default_opts):
    guess = solver1d.initial_guess(Params(3.0), default_grid)
    # each of the four end values, u[0], v[0], u[-1] and v[-1], is checked
    for component, end in ((0, 0), (1, 0), (0, -1), (1, -1)):
        arrays = [guess.u.copy(), guess.v.copy()]
        arrays[component][end] = 0.5
        with pytest.raises(ValueError, match="heteroclinic boundary rows"):
            solver1d.newton_solve(Params(3.0), ProfilePair(default_grid, *arrays), default_opts)


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
        bounds = [r for r in verify.verify_profile(Params(lam), out.profile) if r.name.startswith("bounds-")]
        assert [r.name for r in bounds] == ["bounds-component", "bounds-sum-squares"]
        assert min(r.margin for r in bounds) >= -10 * out.profile.grid.h**2, lam


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
    a = solver1d.newton_solve(p, solver1d.initial_guess(p, default_grid), default_opts)
    b = solver1d.newton_solve(p, solver1d.initial_guess(p, default_grid), default_opts)
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
            Params(3.0), solver1d.initial_guess(Params(3.0), default_grid), default_opts
        )
    assert info.value.lam == 3.0
    assert info.value.iteration == 0


def test_newton_nonconvergence_carries_outcome(default_grid):
    opts = solver1d.SolveOptions(max_iters=1, newton_tol=1e-14)
    with pytest.raises(NonConvergence) as info:
        solver1d.newton_solve(Params(6.0), solver1d.initial_guess(Params(6.0), default_grid), opts)
    assert info.value.outcome is not None
    assert not info.value.outcome.converged


# The working set per node of the n = 20001 front: Newton holds one (7, 2n)
# band buffer (112 bytes a node), the pivots (one node vector), the iterate
# and the right-hand side (two each); the bounds leave one node vector of
# slack.  pin_phase is held to 17 node vectors.
PEAK_GRID = Grid1D(20.0, 20001)


@pytest.fixture(scope="module")
def peak_front():
    # a small solve first, so that loading LAPACK is not counted
    p = Params(1.1)
    small = Grid1D(20.0, 201)
    solver1d.newton_solve(p, solver1d.initial_guess(p, small), solver1d.SolveOptions())
    return solver1d.newton_solve(p, solver1d.initial_guess(p, PEAK_GRID), solver1d.SolveOptions())


def test_newton_keeps_one_band_buffer(peak_front, traced_peak):
    p = Params(1.1)
    guess = solver1d.initial_guess(p, PEAK_GRID)
    peak = traced_peak(lambda: solver1d.newton_solve(p, guess, solver1d.SolveOptions()))
    assert peak <= (112 + 6 * 8) * PEAK_GRID.n


@pytest.mark.skipif(sys.version_info < (3, 11), reason="before CPython 3.11 the caller keeps call arguments alive")
def test_newton_drops_a_guess_built_inline(peak_front, traced_peak):
    # the guess is built inside the traced call and dies with the first update
    p = Params(1.1)
    peak = traced_peak(
        lambda: solver1d.newton_solve(p, solver1d.initial_guess(p, PEAK_GRID), solver1d.SolveOptions())
    )
    assert peak <= (112 + 6 * 8) * PEAK_GRID.n


def test_pin_phase_memory_stays_bounded(peak_front, traced_peak):
    peak = traced_peak(lambda: solver1d.pin_phase(peak_front.profile))
    assert peak <= 17 * 8 * PEAK_GRID.n


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


@pytest.mark.parametrize("x0", [0.3456, -1.234])
def test_pin_phase_stencil_is_exact_on_cubics(x0):
    # u is a cubic and u - v = x - x0, so the crossing is x0 and every node
    # whose four taps lie inside the grid takes the cubic's value at x + x0
    g = Grid1D(5.0, 101)
    x = g.nodes()

    def cubic(y):
        return 0.5 + 0.3 * y - 0.07 * y**2 + 0.011 * y**3

    pinned = solver1d.pin_phase(ProfilePair(g, cubic(x), cubic(x) - (x - x0)))
    k = int(np.floor(x0 / g.h))
    inside = slice(max(1 - k, 0), min(g.n - 2 - k, g.n))
    assert inside.stop - inside.start > g.n // 2
    np.testing.assert_allclose(pinned.u[inside], cubic(x + x0)[inside], rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(pinned.v[inside], cubic(x + x0)[inside] - x[inside], rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("alpha", [3.3, -3.3])
def test_pin_phase_keeps_end_values_past_either_end(alpha):
    g = Grid1D(5.0, 51)
    x = g.nodes()
    prof = ProfilePair(g, *model.tanh_front(alpha, x))
    pinned = solver1d.pin_phase(prof)
    # the crossing sits near -alpha, 0.1 away from any node shift that lands on an end
    past_right = x - alpha > x[-1]
    past_left = x - alpha < x[0]
    assert past_right.sum() + past_left.sum() >= 15
    for new, old in ((pinned.u, prof.u), (pinned.v, prof.v)):
        assert np.all(new[past_right] == old[-1]) and np.all(new[past_left] == old[0])


@pytest.mark.parametrize("lam", [1.1, 100.0])
def test_pin_phase_keeps_fine_fronts_monotone(lam):
    # the check the benchmark makes on every solve1d --n 20001 profile
    p = Params(lam)
    outcome = solver1d.newton_solve(p, solver1d.initial_guess(p, PEAK_GRID), solver1d.SolveOptions())
    pinned = solver1d.pin_phase(outcome.profile)
    assert np.all(np.diff(pinned.u) >= 0.0) and np.all(np.diff(pinned.v) <= 0.0)


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
            out = solver1d.newton_solve(p, solver1d.initial_guess(p, g), opts)
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


def test_lambda_samples_stop_one_step_short_of_the_bound():
    assert solver1d.MAX_SWEEP_STEPS == 10_000
    assert len(solver1d._lambda_samples(2.0, 6.0, 4.0 / 9_999)) == 10_000
    with pytest.raises(ValueError, match="^step: "):
        solver1d._lambda_samples(2.0, 6.0, 4.0 / 10_000)


@pytest.mark.parametrize("args, name", [
    pytest.param((2.0, math.inf, 0.5), "lambda_to", id="infinite-target"),
    pytest.param((math.nan, 6.0, 0.5), "lambda_from", id="nan-start"),
    pytest.param((2.0, 6.0, math.inf), "step", id="infinite-step"),  # from + inf*0 would be nan
    pytest.param((2.0, 6.0, math.nan), "step", id="nan-step"),
    pytest.param((2.0, 2.0, 0.0), "step", id="zero-step"),
    pytest.param((2.0, 6.0, 4e-4), "step", id="too-many-steps"),  # 10 000 steps, one too many
    pytest.param((2.0, 6.0, 5e-324), "step", id="step-count-overflows"),
])
def test_lambda_samples_are_checked_before_any_is_formed(args, name):
    with pytest.raises(ValueError, match=f"^{name}: "):
        solver1d._lambda_samples(*args)


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
    # the first sample fails from the seed: its NonConvergence names the coupling
    g = Grid1D(20.0, 801)
    opts = solver1d.SolveOptions(max_iters=1)
    with pytest.raises(NonConvergence, match="at coupling 2.0 "):
        solver1d.continuation_sweep(2.0, 3.0, 0.5, g, opts)


def test_continuation_past_coupling_773():
    # the coupling-3 front did not converge at 773, and no sub-step bridge got there
    outcomes = solver1d.continuation_sweep(773.0, 783.0, 10.0, Grid1D(20.0, 2001), solver1d.SolveOptions())
    assert [o.lam for o in outcomes] == [773.0, 783.0]
    assert all(o.converged for o in outcomes)


def test_continuation_failure_restarts_from_the_seed(monkeypatch):
    g = Grid1D(20.0, 2001)
    opts = solver1d.SolveOptions()
    first = solver1d.newton_solve(Params(643.0), solver1d.initial_guess(Params(643.0), g), opts)
    # natural continuation alone fails at 653 ...
    with pytest.raises(NonConvergence, match="at coupling 653.0 "):
        solver1d.newton_solve(Params(653.0), first.profile, opts)
    # ... so the sweep solves 653 once more, from its seed
    guesses = []
    newton_solve = solver1d.newton_solve

    def recording(p, guess, opts):
        guesses.append((p.lam, guess))
        return newton_solve(p, guess, opts)

    monkeypatch.setattr(solver1d, "newton_solve", recording)
    outcomes = solver1d.continuation_sweep(643.0, 653.0, 10.0, g, opts)
    assert [lam for lam, _ in guesses] == [643.0, 653.0, 653.0]
    seed = solver1d.initial_guess(Params(653.0), g)
    assert bitwise_equal(guesses[2][1].u, seed.u) and bitwise_equal(guesses[2][1].v, seed.v)
    assert [o.lam for o in outcomes] == [643.0, 653.0] and all(o.converged for o in outcomes)


def test_continuation_regime_guard(default_opts):
    g = Grid1D(20.0, 801)
    with pytest.raises(RegimeError):
        solver1d.continuation_sweep(3.0, 0.5, 0.5, g, default_opts)


def _uniqueness_distance(lam, g, opts, seed):
    (record,) = verify.uniqueness_records(Params(lam), g, opts, seed)
    return record.params["max_pairwise_distance"]


def test_uniqueness_probe(default_grid, default_opts):
    for lam in (2.0, 3.0):
        dist = _uniqueness_distance(lam, default_grid, default_opts, 42)
        assert dist <= 1e-6, lam


def test_uniqueness_probe_deterministic(default_grid, default_opts):
    a = _uniqueness_distance(2.0, default_grid, default_opts, 5)
    b = _uniqueness_distance(2.0, default_grid, default_opts, 5)
    assert a == b
