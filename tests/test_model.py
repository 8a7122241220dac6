import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gp_rigidity import model
from gp_rigidity.errors import RegimeError
from gp_rigidity.grid import Grid1D, ProfilePair, SlabField
from gp_rigidity.model import Params


def jacobian(p: Params, u, v) -> np.ndarray:
    """The symmetric 2x2 Jacobian of the reaction, from its entries."""
    c1, c2, off = model.jacobian_entries(p, u, v)
    return np.array([[c1, off], [off, c2]])


def test_params_rejects_nonpositive_coupling():
    with pytest.raises(ValueError):
        Params(0.0)
    with pytest.raises(ValueError):
        Params(-1.0)
    with pytest.raises(ValueError):
        Params(float("nan"))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lam=st.floats())
def test_params_is_refused_or_holds_a_finite_positive_coupling(lam):
    try:
        p = Params(lam)
    except ValueError:
        return
    assert 0.0 < p.lam < math.inf


def test_reaction_equilibria():
    fu, fv = model.reaction(Params(7.3), 1.0, 0.0)
    assert fu == 0.0 and fv == 0.0
    # mixed constant state at sub-unit coupling
    p = Params(0.5)
    c = model.liouville_constant(p)
    fu, fv = model.reaction(p, c, c)
    assert abs(fu) < 1e-15 and abs(fv) < 1e-15
    # direct arithmetic at coupling 3
    fu, fv = model.reaction(Params(3.0), 0.5, 0.5)
    assert fu == 0.0 and fv == 0.0


def test_reaction_rejects_nonfinite():
    # the kernels take fields checked where they are built, and the Jacobian
    # entries check their own input
    g = Grid1D(1.0, 3)
    with pytest.raises(ValueError):
        ProfilePair(g, [0.0, float("nan"), 1.0], [1.0, 0.5, 0.0])
    with pytest.raises(ValueError):
        SlabField(g, g, np.zeros((3, 3)), np.full((3, 3), float("inf")))
    with pytest.raises(ValueError):
        model.jacobian_entries(Params(1.0), float("nan"), 0.0)
    with pytest.raises(ValueError):
        model.jacobian_entries(Params(1.0), 0.0, float("inf"))


def test_jacobian_values():
    jac = jacobian(Params(3.0), 1.0, 0.0)
    assert np.allclose(jac, [[-2.0, 0.0], [0.0, -2.0]], atol=0.0)
    jac = jacobian(Params(1.0), 0.0, 0.0)
    assert np.allclose(jac, np.eye(2), atol=0.0)
    off = jacobian(Params(3.0), 0.5, 0.5)[0, 1]
    assert off == -1.5


def test_potential_values():
    # the well value at the pure states is 1/4, not 0: (v^2-1)^2/4 = 1/4 at v=0
    assert model.potential(Params(2.0), 1.0, 0.0) == 0.25
    assert model.potential(Params(9.0), 0.0, 0.0) == 0.5
    assert abs(model.potential(Params(1.0), 0.5**0.5, 0.5**0.5) - 0.25) < 1e-15
    assert model.PURE_STATE_POTENTIAL == 0.25


def test_potential_nonnegative_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = Params(rng.uniform(0.05, 10.0))
        u, v = rng.uniform(-3, 3, 2)
        assert model.potential(p, u, v) >= 0.0


def test_gradient_consistency_1000_points():
    # reaction must equal minus the central finite difference of the potential
    rng = np.random.default_rng(11)
    h = 1e-6
    worst = 0.0
    for _ in range(1000):
        p = Params(rng.uniform(0.1, 8.0))
        u, v = rng.uniform(-2.0, 2.0, 2)
        fu, fv = model.reaction(p, u, v)
        gu = -(model.potential(p, u + h, v) - model.potential(p, u - h, v)) / (2 * h)
        gv = -(model.potential(p, u, v + h) - model.potential(p, u, v - h)) / (2 * h)
        worst = max(
            worst,
            abs(gu - fu) / max(1.0, abs(fu)),
            abs(gv - fv) / max(1.0, abs(fv)),
        )
    assert worst <= 1e-6


def test_jacobian_consistency_1000_points():
    rng = np.random.default_rng(12)
    h = 1e-6
    worst = 0.0
    for _ in range(1000):
        p = Params(rng.uniform(0.1, 8.0))
        u, v = rng.uniform(-2.0, 2.0, 2)
        jac = jacobian(p, u, v)
        assert jac[0, 1] == jac[1, 0]
        fup, _ = model.reaction(p, u + h, v)
        fum, _ = model.reaction(p, u - h, v)
        fvp = model.reaction(p, u, v + h)
        fvm = model.reaction(p, u, v - h)
        num = np.array(
            [
                [(fup - fum) / (2 * h), (fvp[0] - fvm[0]) / (2 * h)],
                [
                    (model.reaction(p, u + h, v)[1] - model.reaction(p, u - h, v)[1]) / (2 * h),
                    (fvp[1] - fvm[1]) / (2 * h),
                ],
            ]
        )
        worst = max(worst, float(np.max(np.abs(num - jac) / np.maximum(1.0, np.abs(jac)))))
    assert worst <= 1e-5


@pytest.mark.parametrize("lam", [0.05, 1.0, 3.0, 1000.0])
def test_kernels_match_plain_expressions_bitwise(lam):
    # the in-place kernels round every value as the plain expressions do, on
    # contiguous arrays and on the interior-column views the slab flow passes
    rng = np.random.default_rng(12)
    u, v = rng.uniform(-1.5, 1.5, (2, 64, 801))
    inputs = (u.copy(), v.copy())
    for a, b in ((u, v), (u[:, 1:-1], v[:, 1:-1])):
        a2 = a * a
        b2 = b * b
        assert np.array_equal(
            model.potential(Params(lam), a, b), (a2 - 1.0) ** 2 / 4.0 + (b2 - 1.0) ** 2 / 4.0 + 0.5 * lam * a2 * b2
        )
        fu, fv = model.reaction(Params(lam), a, b)
        assert np.array_equal(fu, a * (1.0 - a2 - lam * b2))
        assert np.array_equal(fv, b * (1.0 - b2 - lam * a2))
    # floats and 0-d arrays are rounded as the plain expressions too
    for a, b in ((float(u[3, 5]), float(v[3, 5])), (u[3, 5, ...], v[3, 5, ...])):
        assert model.reaction(Params(lam), a, b) == (a * (1.0 - a * a - lam * (b * b)), b * (1.0 - b * b - lam * (a * a)))
    # the inputs are left alone
    assert np.array_equal(u, inputs[0]) and np.array_equal(v, inputs[1])


def test_reaction_symmetries_random():
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = Params(rng.uniform(0.1, 8.0))
        u, v = rng.uniform(-2.0, 2.0, 2)
        fu, fv = model.reaction(p, u, v)
        # swap symmetry (equal up to multiplication-order rounding)
        gu, gv = model.reaction(p, v, u)
        assert abs(gu - fv) <= 1e-14 * max(1.0, abs(fv))
        assert abs(gv - fu) <= 1e-14 * max(1.0, abs(fu))
        # componentwise sign symmetry
        hu, hv = model.reaction(p, -u, v)
        assert abs(hu + fu) <= 1e-14 * max(1.0, abs(fu))
        assert abs(hv - fv) <= 1e-14 * max(1.0, abs(fv))
        ku, kv = model.reaction(p, u, -v)
        assert abs(ku - fu) <= 1e-14 * max(1.0, abs(fu))
        assert abs(kv + fv) <= 1e-14 * max(1.0, abs(fv))


def test_tanh_front_basics():
    u, v = model.tanh_front(0.0, 0.0)
    assert u == 0.5 and v == 0.5
    u, v = model.tanh_front(0.0, 40.0)
    assert abs(u - 1.0) < 1e-15 and abs(v) < 1e-15
    u, v = model.tanh_front(0.0, -40.0)
    assert abs(u) < 1e-15 and abs(v - 1.0) < 1e-15


def test_tanh_front_sum_and_range():
    t = np.linspace(-30, 30, 401)
    u, v = model.tanh_front(0.7, t)
    assert np.all(u + v == 1.0)
    # strict interior holds everywhere tanh has not saturated to +-1;
    # saturation beyond |arg| ~ 19 leaves an error below 1e-16
    assert np.all((u >= 0) & (u <= 1) & (v >= 0) & (v <= 1))
    core = np.abs(t + 0.7) <= 15.0
    assert np.all((u[core] > 0) & (u[core] < 1) & (v[core] > 0) & (v[core] < 1))


def test_tanh_front_translation_identity():
    t = np.linspace(-5, 5, 101)
    ua, va = model.tanh_front(1.3, t)
    ub, vb = model.tanh_front(0.0, t + 1.3)
    assert np.allclose(ua, ub, atol=1e-15) and np.allclose(va, vb, atol=1e-15)


def test_sign_changing_front_values():
    # at t=0 the first kink vanishes, leaving +-tanh(1/sqrt2)/2
    u, v = model.sign_changing_front(1.0, 0.0)
    expected = math.tanh(2**-0.5) / 2.0
    assert abs(u - expected) < 1e-15
    assert abs(v + expected) < 1e-15
    u, v = model.sign_changing_front(1.0, 50.0)
    assert abs(u - 1.0) < 1e-12 and abs(v) < 1e-12


def test_sign_changing_front_negativity():
    t = np.linspace(-10, 10, 2001)
    u, v = model.sign_changing_front(1.0, t)
    assert np.all(v < 0.0)
    assert np.min(u) < 0.0 < np.max(u)


def test_sign_changing_front_rejects_bad_offset():
    with pytest.raises(ValueError):
        model.sign_changing_front(0.0, 0.0)
    with pytest.raises(ValueError):
        model.sign_changing_front(-1.0, 0.0)


def test_ac_decompose_basics():
    w1, w2 = model.ac_decompose(1.0, 0.0)
    assert w1 == 1.0 and w2 == 1.0
    t = np.linspace(-10, 10, 101)
    u, v = model.tanh_front(0.0, t)
    w1, w2 = model.ac_decompose(u, v)
    assert np.all(w1 == 1.0)
    assert np.allclose(w2, np.tanh(t / model.SQRT2), atol=1e-15)


def test_ac_round_trip_random():
    rng = np.random.default_rng(8)
    for _ in range(100):
        u, v = rng.uniform(-5, 5, 2)
        w1, w2 = model.ac_decompose(u, v)
        uu, vv = (w1 + w2) / 2.0, (w1 - w2) / 2.0
        assert abs(uu - u) < 1e-15 and abs(vv - v) < 1e-15


def test_allen_cahn_reaction():
    assert model.allen_cahn_reaction(1.0) == 0.0
    assert model.allen_cahn_reaction(0.0) == 0.0
    assert model.allen_cahn_reaction(-1.0) == 0.0
    assert model.allen_cahn_reaction(0.5) == 0.375
    rng = np.random.default_rng(9)
    w = rng.uniform(-3, 3, 100)
    odd_gap = np.abs(model.allen_cahn_reaction(-w) + model.allen_cahn_reaction(w))
    assert np.max(odd_gap) <= 1e-14 * np.max(1.0 + np.abs(w) ** 3)


def test_liouville_constant():
    assert abs(model.liouville_constant(Params(0.5)) - 0.816497) < 1e-6
    assert abs(model.liouville_constant(Params(1.0 - 1e-12)) - 2**-0.5) < 1e-9
    rng = np.random.default_rng(10)
    for _ in range(20):
        p = Params(rng.uniform(0.01, 0.99))
        c = model.liouville_constant(p)
        fu, fv = model.reaction(p, c, c)
        assert abs(fu) < 1e-14 and abs(fv) < 1e-14


def test_liouville_constant_regime_guard():
    with pytest.raises(RegimeError):
        model.liouville_constant(Params(1.0))
    with pytest.raises(RegimeError):
        model.liouville_constant(Params(2.0))
