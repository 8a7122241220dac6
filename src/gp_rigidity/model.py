"""Grid-free model layer: reaction terms, potential and explicit solutions.

The system couples two scalar fields u, v through a cubic interaction with
a single positive coupling constant.  Everything here is a pure function of
its arguments and works elementwise on floats or numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RegimeError

SQRT2 = float(np.sqrt(2.0))

# Value of the interaction potential at the pure equilibria (+-1,0), (0,+-1).
# Subtracting it makes those states carry zero energy density.
PURE_STATE_POTENTIAL = 0.25


def _require_finite(name, *values):
    for value in values:
        arr = np.asarray(value, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name}: non-finite input rejected")


@dataclass(frozen=True)
class Params:
    """Single physical parameter of the model: the coupling strength."""

    lam: float

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lam: coupling must be a positive finite real, got {self.lam!r}")


def reaction(p: Params, u, v):
    """Right-hand side pair (u - u^3 - lam*u*v^2, v - v^3 - lam*u^2*v).

    Equals minus the gradient of :func:`potential`.
    """
    _require_finite("reaction", u, v)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    fu = u - u**3 - p.lam * u * v**2
    fv = v - v**3 - p.lam * u**2 * v
    return fu, fv


def _reaction(lam: float, u: np.ndarray, v: np.ndarray):
    """Unchecked reaction for float arrays already known finite, each square formed once.

    Equals :func:`reaction` up to rounding in the factored form
    u(1 - u^2 - lam*v^2), which needs no u**3 (a power five times dearer
    than a product).  :func:`reaction` keeps its own arithmetic for the Newton
    solves: a front pinned on [-L, L] has a nearly neutral translation mode,
    which turns one ulp in the reaction into a shift of about 2e-8 in the
    solved profile and of about 1e-10 in reported margins.  At most four
    field-sized buffers are alive at once; every value is rounded as in the
    plain expressions u*(1 - u2 - lam*v2) and v*(1 - v2 - lam*u2).
    """
    u2 = u * u
    v2 = v * v
    fu = 1.0 - u2
    fu -= lam * v2
    fu *= u
    # fv is formed in v2's buffer once fu no longer needs it
    np.subtract(1.0, v2, out=v2)
    u2 *= lam
    v2 -= u2
    v2 *= v
    return fu, v2


def reaction_jacobian(p: Params, u, v):
    """Symmetric 2x2 Jacobian of :func:`reaction`; kept because acceptance criterion 10 checks it."""
    c1, c2, off = jacobian_entries(p, u, v)
    return np.array([[c1, off], [off, c2]])


def jacobian_entries(p: Params, u, v):
    """Jacobian entries (d fu/du, d fv/dv, d fu/dv) vectorized over arrays."""
    _require_finite("jacobian_entries", u, v)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    c1 = 1.0 - 3.0 * u**2 - p.lam * v**2
    c2 = 1.0 - 3.0 * v**2 - p.lam * u**2
    off = -2.0 * p.lam * u * v
    return c1, c2, off


def potential(p: Params, u, v):
    """Interaction potential (u^2-1)^2/4 + (v^2-1)^2/4 + lam/2 * u^2 v^2."""
    _require_finite("potential", u, v)
    return _potential(p.lam, np.asarray(u, dtype=float), np.asarray(v, dtype=float))


def _potential(lam: float, u: np.ndarray, v: np.ndarray):
    """Unchecked kernel of :func:`potential` for float arrays already known finite.

    Works in place on three buffers; every value is rounded exactly as in
    the plain expression (u2-1)**2/4 + (v2-1)**2/4 + 0.5*lam*u2*v2.
    """
    u2 = u * u
    v2 = v * v
    coupling = u2 * (0.5 * lam)
    coupling *= v2
    u2 -= 1.0
    u2 **= 2
    u2 /= 4.0
    v2 -= 1.0
    v2 **= 2
    v2 /= 4.0
    u2 += v2
    u2 += coupling
    return u2


def tanh_front(alpha: float, t):
    """Explicit front pair at coupling 3: u = (1+tanh((t+alpha)/sqrt2))/2, v = 1-u.

    Connects (0,1) at -infinity to (1,0) at +infinity; u+v = 1 identically.
    """
    k = np.tanh((np.asarray(t, dtype=float) + alpha) / SQRT2)
    return (1.0 + k) / 2.0, (1.0 - k) / 2.0


def sign_changing_front(alpha: float, t):
    """Two-kink pair at coupling 3 whose first component changes sign.

    u = (tanh(t/sqrt2) + tanh((t+alpha)/sqrt2))/2 is strictly increasing but
    negative for very negative t; v = (tanh(t/sqrt2) - tanh((t+alpha)/sqrt2))/2
    is negative everywhere with a slope that changes sign.  Requires alpha > 0.
    """
    if not (np.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"offset must be positive, got {alpha!r}")
    t = np.asarray(t, dtype=float)
    k0 = np.tanh(t / SQRT2)
    k1 = np.tanh((t + alpha) / SQRT2)
    return (k0 + k1) / 2.0, (k0 - k1) / 2.0


def ac_decompose(u, v):
    """Map a pair to its sum/difference coordinates (u+v, u-v)."""
    _require_finite("ac_decompose", u, v)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return u + v, u - v


def ac_compose(w1, w2):
    """Inverse of :func:`ac_decompose`; kept because acceptance criterion 10 checks the round trip."""
    _require_finite("ac_compose", w1, w2)
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    return (w1 + w2) / 2.0, (w1 - w2) / 2.0


def allen_cahn_reaction(w):
    """Scalar double-well reaction w - w^3.

    At coupling 3 both sum and difference coordinates of a solution pair obey
    the scalar equation with this right-hand side.
    """
    _require_finite("allen_cahn_reaction", w)
    w = np.asarray(w, dtype=float)
    return w - w**3


def liouville_constant(p: Params) -> float:
    """Value 1/sqrt(1+lam) of the unique positive constant state for lam < 1."""
    if not (0.0 < p.lam < 1.0):
        raise RegimeError(
            f"constant-state value requires 0 < coupling < 1, got {p.lam}"
        )
    return 1.0 / float(np.sqrt(1.0 + p.lam))
