import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gp_rigidity import grid, model, verify
from gp_rigidity.grid import Grid1D, ProfilePair, SlabField
from gp_rigidity.model import Params


def sampled_front(g, alpha=0.0, pin_ends=True):
    u, v = model.tanh_front(alpha, g.nodes())
    u, v = np.array(u), np.array(v)
    if pin_ends:
        u[0], v[0] = grid.LEFT_STATE
        u[-1], v[-1] = grid.RIGHT_STATE
    return ProfilePair(g, u, v)


def test_grid_endpoints_exact():
    g = Grid1D(20.0, 2001)
    x = g.nodes()
    assert x[0] == -20.0 and x[-1] == 20.0
    assert g.h == 40.0 / 2000


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(0.0, 11)
    with pytest.raises(ValueError):
        Grid1D(1.0, 2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(half_length=st.floats(), n=st.integers(-2, 10**400))
@example(half_length=1e-200, n=5)  # h**2 underflows to 0
@example(half_length=1e200, n=5)  # h**2 overflows
@example(half_length=1e-160, n=5)  # h**2 is subnormal and 1/h**2 overflows
@example(half_length=1.0, n=10**400)  # n - 1 has no float
def test_grid_is_refused_or_has_a_finite_inverse_square_spacing(half_length, n):
    try:
        g = Grid1D(half_length, n)
    except ValueError:
        return
    assert 0.0 < 1.0 / g.h**2 < math.inf


def test_profile_validation():
    g = Grid1D(1.0, 5)
    with pytest.raises(ValueError):
        ProfilePair(g, np.zeros(4), np.zeros(5))
    with pytest.raises(ValueError):
        ProfilePair(g, np.full(5, np.nan), np.zeros(5))


def test_profile_immutable():
    g = Grid1D(1.0, 5)
    prof = ProfilePair(g, np.zeros(5), np.zeros(5))
    with pytest.raises(ValueError):
        prof.u[0] = 1.0


def test_field_copies_unless_read_only_and_owned():
    g = Grid1D(1.0, 4)
    writable = np.zeros((4, 4))
    f = SlabField(g, g, writable, writable)
    writable[0, 0] = 1.0
    assert f.u[0, 0] == 0.0
    view = writable[:]
    view.setflags(write=False)
    f = SlabField(g, g, view, view)
    writable[0, 0] = 2.0
    assert f.u[0, 0] == 1.0
    owned = np.zeros((4, 4))
    owned.setflags(write=False)
    assert SlabField(g, g, owned, owned).u is owned
    with pytest.raises(ValueError):
        SlabField(g, g, np.full((4, 4), np.inf), owned)


def test_residual_closed_form_order():
    p = Params(3.0)
    maxima = {}
    for n in (501, 1001, 2001):
        g = Grid1D(20.0, n)
        prof = sampled_front(g, pin_ends=False)
        ru, rv = grid.residual_1d(p, prof)
        r = max(np.max(np.abs(ru[1:-1])), np.max(np.abs(rv[1:-1])))
        maxima[n] = r
        assert r <= g.h**2  # observed constant is ~0.043
    order1 = math.log2(maxima[501] / maxima[1001])
    order2 = math.log2(maxima[1001] / maxima[2001])
    assert 1.8 <= order1 <= 2.2
    assert 1.8 <= order2 <= 2.2
    # doubling n reduces the residual by a factor 4 +- 20%
    assert 3.2 <= maxima[1001] / maxima[2001] <= 4.8


def test_residual_constant_state():
    p = Params(0.5)
    c = model.liouville_constant(p)
    g = Grid1D(20.0, 101)
    prof = ProfilePair(g, np.full(101, c), np.full(101, c))
    ru, rv = grid.residual_1d(p, prof)
    assert np.max(np.abs(ru[1:-1])) <= 1e-15
    assert np.max(np.abs(rv[1:-1])) <= 1e-15
    # boundary rows report the Dirichlet defect against the heteroclinic data
    assert ru[0] == c and rv[-1] == c


def test_residual_slab_matches_embedded_1d():
    p = Params(3.0)
    g_n = Grid1D(20.0, 201)
    g_t = Grid1D(2.0, 8)
    prof = sampled_front(g_n)
    ru1, rv1 = grid.residual_1d(p, prof)
    f = SlabField(g_t, g_n, np.tile(prof.u, (8, 1)), np.tile(prof.v, (8, 1)))
    ru2, rv2 = grid.residual_slab(p, f)
    for i in range(8):
        assert np.array_equal(ru2[i], ru1)
        assert np.array_equal(rv2[i], rv1)


def test_residual_slab_closed_form_order():
    p = Params(3.0)
    g_t = Grid1D(2.0, 8)
    for n in (501, 1001):
        g_n = Grid1D(20.0, n)
        prof = sampled_front(g_n, pin_ends=False)
        f = SlabField(g_t, g_n, np.tile(prof.u, (8, 1)), np.tile(prof.v, (8, 1)))
        ru, rv = grid.residual_slab(p, f)
        r = max(np.max(np.abs(ru[:, 1:-1])), np.max(np.abs(rv[:, 1:-1])))
        assert r <= g_n.h**2


def test_residual_slab_boundary_defect():
    p = Params(1.0)
    g = Grid1D(1.0, 5)
    f = SlabField(g, g, np.zeros((5, 5)), np.zeros((5, 5)))
    ru, rv = grid.residual_slab(p, f)
    assert np.all(ru[:, 0] == 0.0)
    assert np.all(rv[:, 0] == -1.0)
    assert np.all(ru[:, -1] == -1.0)
    assert np.all(rv[:, -1] == 0.0)


def test_energy_equilibrium_zero():
    g = Grid1D(20.0, 2001)
    prof = ProfilePair(g, np.ones(g.n), np.zeros(g.n))
    assert grid.discrete_energy_1d(Params(3.0), prof) == 0.0


def test_energy_matches_quadrature_oracle():
    # independent oracle: adaptive quadrature of the explicit front integrand;
    # the continuum value is sqrt(2)/3
    p = Params(3.0)
    g = Grid1D(20.0, 2001)
    prof = sampled_front(g, pin_ends=False)
    s2 = math.sqrt(2.0)

    def density(x):
        up = (1.0 / math.cosh(x / s2)) ** 2 / (2.0 * s2)
        u = (1.0 + math.tanh(x / s2)) / 2.0
        v = 1.0 - u
        w = (u * u - 1) ** 2 / 4 + (v * v - 1) ** 2 / 4 + 1.5 * u * u * v * v
        return 2.0 * up * up / 2.0 + (w - 0.25)

    oracle, err = quad(density, -20.0, 20.0, epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-10
    assert abs(oracle - s2 / 3.0) < 1e-12
    assert abs(grid.discrete_energy_1d(p, prof) - oracle) <= 1e-4


def test_energy_translation_consistent():
    p = Params(3.0)
    g = Grid1D(20.0, 2001)
    base = sampled_front(g)
    e0 = grid.discrete_energy_1d(p, base)
    x = g.nodes()
    u, v = model.tanh_front(0.0, x - 10 * g.h)
    u, v = np.array(u), np.array(v)
    u[0], v[0] = grid.LEFT_STATE
    u[-1], v[-1] = grid.RIGHT_STATE
    e1 = grid.discrete_energy_1d(p, ProfilePair(g, u, v))
    assert abs(e1 - e0) <= 1e-8


@pytest.mark.parametrize("periodic_n", [False, True])
def test_energy_slab_matches_rolled_sums(periodic_n):
    p = Params(2.5)
    g_t, g_n = Grid1D(1.0, 5), Grid1D(2.0, 8)
    rng = np.random.default_rng(8)
    u, v = rng.uniform(-1, 1, (2, 5, 8))
    f = SlabField(g_t, g_n, u, v, periodic_n)
    ht, hn = g_t.h, g_n.h
    grad_t = np.sum((np.roll(u, -1, 0) - u) ** 2 + (np.roll(v, -1, 0) - v) ** 2) * hn / (2 * ht)
    du_n = np.roll(u, -1, 1) - u
    dv_n = np.roll(v, -1, 1) - v
    weights = np.ones(8)
    if not periodic_n:
        du_n, dv_n = du_n[:, :-1], dv_n[:, :-1]
        weights[[0, -1]] = 0.5
    grad_n = np.sum(du_n**2 + dv_n**2) * ht / (2 * hn)
    w = model.potential(p, u, v) - model.PURE_STATE_POTENTIAL
    expected = grad_t + grad_n + np.sum(w * weights) * ht * hn
    assert abs(grid.discrete_energy_slab(p, f) - expected) <= 1e-13 * abs(expected)


def plain_energy_slab(p, f):
    """discrete_energy_slab written with plain (not in-place) expressions."""

    def squared_steps(axis, wrap):
        du = np.diff(f.u, axis=axis)
        dv = np.diff(f.v, axis=axis)
        total = float(np.sum(du * du + dv * dv))
        if wrap:
            du = f.u.take(0, axis) - f.u.take(-1, axis)
            dv = f.v.take(0, axis) - f.v.take(-1, axis)
            total += float(np.sum(du * du + dv * dv))
        return total

    ht, hn = f.grid_t.h, f.grid_n.h
    u2 = f.u * f.u
    v2 = f.v * f.v
    w = (u2 - 1.0) ** 2 / 4.0 + (v2 - 1.0) ** 2 / 4.0 + 0.5 * p.lam * u2 * v2 - model.PURE_STATE_POTENTIAL
    if f.periodic_n:
        pot = float(np.sum(w))
    else:
        pot = float(np.sum(w[:, 1:-1])) + 0.5 * (float(np.sum(w[:, 0])) + float(np.sum(w[:, -1])))
    grad_t = squared_steps(0, True) * hn / (2.0 * ht)
    grad_n = squared_steps(1, f.periodic_n) * ht / (2.0 * hn)
    return grad_t + grad_n + pot * ht * hn


@pytest.mark.parametrize("periodic_n", [False, True])
@pytest.mark.parametrize("lam", [0.05, 3.0, 1000.0])
def test_energy_slab_matches_plain_expressions_bitwise(periodic_n, lam):
    # the in-place energy keeps the plain expressions' rounding, so every
    # energy margin keeps its arithmetic
    p = Params(lam)
    rng = np.random.default_rng(13)
    for nt, nn in ((5, 8), (64, 801)):
        u, v = rng.uniform(-1.2, 1.2, (2, nt, nn))
        f = SlabField(Grid1D(4.0, nt), Grid1D(20.0, nn), u, v, periodic_n)
        assert grid.discrete_energy_slab(p, f) == plain_energy_slab(p, f)


# The slab kernels in the np.moveaxis, np.diff, take and np.sum forms they
# replaced.  The views and array methods must give the same bits.

def moveaxis_wrapped_second_difference(out, a, h, axis):
    out = np.moveaxis(out, axis, -1)
    a = np.moveaxis(a, axis, -1)
    out[..., 1:-1] += (a[..., :-2] - 2.0 * a[..., 1:-1] + a[..., 2:]) / h**2
    out[..., 0] += (a[..., -1] - 2.0 * a[..., 0] + a[..., 1]) / h**2
    out[..., -1] += (a[..., -2] - 2.0 * a[..., -1] + a[..., 0]) / h**2


def diff_squared_steps(u, v, axis, wrap):
    du = np.diff(u, axis=axis)
    du *= du
    dv = np.diff(v, axis=axis)
    dv *= dv
    du += dv
    total = float(np.sum(du))
    if wrap:
        du = u.take(0, axis) - u.take(-1, axis)
        dv = v.take(0, axis) - v.take(-1, axis)
        total += float(np.sum(du * du + dv * dv))
    return total


def np_sum_energy_slab(p, f):
    ht, hn = f.grid_t.h, f.grid_n.h
    grad_t = diff_squared_steps(f.u, f.v, 0, True) * hn / (2.0 * ht)
    grad_n = diff_squared_steps(f.u, f.v, 1, f.periodic_n) * ht / (2.0 * hn)
    w = model.potential(p, f.u, f.v)
    w -= model.PURE_STATE_POTENTIAL
    if f.periodic_n:
        pot = float(np.sum(w))
    else:
        pot = float(np.sum(w[:, 1:-1])) + 0.5 * (float(np.sum(w[:, 0])) + float(np.sum(w[:, -1])))
    return grad_t + grad_n + pot * ht * hn


def moveaxis_residual_slab(p, f):
    ht, hn = f.grid_t.h, f.grid_n.h
    ru, rv = model.reaction(p, f.u, f.v)
    cols = slice(None) if f.periodic_n else slice(1, -1)
    for r, a in ((ru, f.u), (rv, f.v)):
        if f.periodic_n:
            moveaxis_wrapped_second_difference(r, a, hn, axis=1)
        else:
            r[:, 1:-1] += (a[:, :-2] - 2.0 * a[:, 1:-1] + a[:, 2:]) / hn**2
        moveaxis_wrapped_second_difference(r[:, cols], a[:, cols], ht, axis=0)
    if not f.periodic_n:
        ru[:, 0] = f.u[:, 0] - grid.LEFT_STATE[0]
        rv[:, 0] = f.v[:, 0] - grid.LEFT_STATE[1]
        ru[:, -1] = f.u[:, -1] - grid.RIGHT_STATE[0]
        rv[:, -1] = f.v[:, -1] - grid.RIGHT_STATE[1]
    return ru, rv


def np_max_norm(a, b):
    return max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# 3x3, odd and even sizes, the 32x32 box, and the battery's 64x801 slab
SLAB_SHAPES = [(3, 3), (3, 8), (8, 3), (5, 7), (6, 9), (7, 10), (32, 32), (33, 31), (64, 801)]


@pytest.mark.parametrize("periodic_n", [False, True], ids=["dirichlet", "box"])
@pytest.mark.parametrize("shape", SLAB_SHAPES, ids=[f"{nt}x{nn}" for nt, nn in SLAB_SHAPES])
def test_slab_kernels_match_numpy_wrapper_forms_bitwise(periodic_n, shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    nt, nn = shape
    u, v = rng.uniform(-1.2, 1.2, (2, nt, nn))
    f = SlabField(Grid1D(4.0, nt), Grid1D(20.0, nn), u, v, periodic_n)
    for axis in (0, 1):
        # the kernels run along the last axis; axis 0 is reached through the transposes
        along = (lambda a: a.T) if axis == 0 else (lambda a: a)
        for wrap in (False, True):
            assert same_bits(grid._squared_steps(along(u), along(v), wrap), diff_squared_steps(u, v, axis, wrap))
        out = rng.uniform(-1.0, 1.0, (nt, nn))
        expected = out.copy()
        moveaxis_wrapped_second_difference(expected, u, 0.3, axis)
        grid._add_second_difference(along(out), along(u), 0.3, wrap=True)
        assert same_bits(out, expected)
    for lam in (0.05, 1.0, 3.0, 1000.0):
        p = Params(lam)
        assert same_bits(grid.discrete_energy_slab(p, f), np_sum_energy_slab(p, f))
        residual = grid.residual_slab(p, f)
        expected = moveaxis_residual_slab(p, f)
        assert same_bits(residual[0], expected[0]) and same_bits(residual[1], expected[1])
        assert same_bits(grid._max_norm(*residual), np_max_norm(*expected))
    signed = np.array([[-0.0, 0.0, -3.5], [2.0, -0.0, 1e-300]])
    assert same_bits(grid._max_norm(signed, -signed), np_max_norm(signed, -signed))
    assert same_bits(grid._max_norm(u[:, 1:], v.T), np_max_norm(u[:, 1:], v.T))


# The profile kernels in the np.empty_like, np.diff and np.sum forms they
# replaced: the residuals and the energy must keep their bits.

def empty_like_residual_1d(p, prof):
    h = prof.grid.h
    u, v = prof.u, prof.v
    fu, fv = model.reaction(p, u, v)
    ru = np.empty_like(u)
    rv = np.empty_like(v)
    ru[1:-1] = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / h**2 + fu[1:-1]
    rv[1:-1] = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / h**2 + fv[1:-1]
    ru[0] = u[0] - grid.LEFT_STATE[0]
    rv[0] = v[0] - grid.LEFT_STATE[1]
    ru[-1] = u[-1] - grid.RIGHT_STATE[0]
    rv[-1] = v[-1] - grid.RIGHT_STATE[1]
    return ru, rv


def diff_energy_1d(p, prof):
    h = prof.grid.h
    du = np.diff(prof.u)
    dv = np.diff(prof.v)
    grad = float(np.sum(du * du + dv * dv)) / (2.0 * h)
    w = model.potential(p, prof.u, prof.v)
    w -= model.PURE_STATE_POTENTIAL
    return grad + float(np.trapezoid(w, dx=h))


@pytest.mark.parametrize("n", [3, 4, 2001, 20001])
def test_profile_kernels_match_plain_forms_bitwise(n):
    rng = np.random.default_rng(n)
    u, v = rng.uniform(-1.2, 1.2, (2, n))
    prof = ProfilePair(Grid1D(20.0, n), u, v)
    for lam in (0.05, 1.0, 3.0, 1000.0):
        p = Params(lam)
        residual = grid.residual_1d(p, prof)
        expected = empty_like_residual_1d(p, prof)
        assert same_bits(residual[0], expected[0]) and same_bits(residual[1], expected[1])
        assert same_bits(grid.discrete_energy_1d(p, prof), diff_energy_1d(p, prof))
    # the scalar Allen-Cahn residual of the coupling-3 records shares the second difference
    w = u - v
    expected = (w[:-2] - 2.0 * w[1:-1] + w[2:]) / prof.grid.h**2 + model.allen_cahn_reaction(w[1:-1])
    assert same_bits(verify._allen_cahn_residual(prof.grid, w), expected)


def test_check_discrete_monotone():
    g = Grid1D(20.0, 401)
    prof = sampled_front(g)
    min_du, max_dv = grid.check_discrete_monotone(prof)
    assert min_du > 0.0 and max_dv < 0.0
    # swapping the components flips the signs of both extremes
    swapped = ProfilePair(g, prof.v, prof.u)
    min_du2, max_dv2 = grid.check_discrete_monotone(swapped)
    assert min_du2 < 0.0 < max_dv2
    assert min_du2 == -float(np.max(np.diff(prof.u)))
    assert max_dv2 == -float(np.min(np.diff(prof.v)))
    # constant profile: both extremal differences vanish
    const = ProfilePair(g, np.full(g.n, 0.3), np.full(g.n, 0.3))
    assert grid.check_discrete_monotone(const) == (0.0, 0.0)


def test_profile_csv_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    g = Grid1D(7.5, 33)
    prof = ProfilePair(g, rng.uniform(-1, 1, 33), rng.uniform(-1, 1, 33))
    path = tmp_path / "prof.csv"
    grid.save_profile_csv(path, prof)
    text = path.read_text()
    assert text.splitlines()[0] == "x,u,v"
    loaded = grid.load_profile_csv(path)
    assert loaded.grid == g
    assert np.array_equal(loaded.u, prof.u)
    assert np.array_equal(loaded.v, prof.v)


def test_slab_csv_round_trip(tmp_path):
    rng = np.random.default_rng(22)
    g_t = Grid1D(2.0, 6)
    g_n = Grid1D(3.0, 7)
    f = SlabField(g_t, g_n, rng.uniform(0, 1, (6, 7)), rng.uniform(0, 1, (6, 7)))
    path = tmp_path / "slab.csv"
    grid.save_slab_csv(path, f)
    assert path.read_text().splitlines()[0] == "xp,xn,u,v"
    loaded = grid.load_slab_csv(path)
    assert loaded.grid_t == g_t and loaded.grid_n == g_n
    assert np.array_equal(loaded.u, f.u)
    assert np.array_equal(loaded.v, f.v)
