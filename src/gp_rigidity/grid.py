"""Uniform grids, discrete residuals, observables and CSV serialization.

The 1D interval [-L, L] carries the heteroclinic boundary data (0,1) at -L
and (1,0) at +L.  The 2D slab is periodic in the transverse axis and either
pinned (Dirichlet) or periodic along the second axis.  All difference
operators are second-order central; energies pair forward differences with
trapezoidal quadrature so both carry O(h^2) error.

Profiles and slab fields are written as CSV with every value formatted as
CSV_FLOAT (17 significant digits), so reloading them is bit-exact.  The
writers format bounded blocks of rows and write each block in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model
from .model import Params

# Equilibria used as Dirichlet data: (u,v) at the left and right end.
LEFT_STATE = (0.0, 1.0)
RIGHT_STATE = (1.0, 0.0)

CSV_FLOAT = "%.17g"


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid with n nodes on [-half_length, half_length].

    Endpoints are computed, not accumulated, so x[0] == -L and x[-1] == +L
    exactly.  When used as a periodic axis the wrap neighbor of the last node
    is the first node at the same spacing h (circumference n*h).
    """

    half_length: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.half_length) and self.half_length > 0.0):
            raise ValueError(f"half_length: must be positive, got {self.half_length!r}")
        if int(self.n) != self.n or self.n < 3:
            raise ValueError(f"n: node count must be an integer >= 3, got {self.n!r}")

    @property
    def h(self) -> float:
        return 2.0 * self.half_length / (self.n - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(-self.half_length, self.half_length, self.n)


def _locked(arr, n_expected, name):
    """Read-only float array holding arr's values, checked for shape and finiteness.

    arr is copied unless it is a read-only float array that owns its memory:
    no other array can write to that one, so it is taken as is.
    """
    owned = isinstance(arr, np.ndarray) and arr.base is None and not arr.flags.writeable
    if owned and arr.dtype == float:
        out = arr
    else:
        out = np.array(arr, dtype=float)
    if out.shape != n_expected:
        raise ValueError(f"{name}: expected shape {n_expected}, got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name}: non-finite entries rejected")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ProfilePair:
    """Discretized pair (u_i, v_i) on a 1D grid."""

    grid: Grid1D
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "u", _locked(self.u, (self.grid.n,), "u"))
        object.__setattr__(self, "v", _locked(self.v, (self.grid.n,), "v"))


@dataclass(frozen=True)
class SlabField:
    """Discretized pair on a 2D slab, shape (grid_t.n, grid_n.n).

    Axis 0 is the transverse direction (always periodic), axis 1 the
    distinguished direction.  With periodic_n=False the first/last columns
    are Dirichlet rows pinned to the heteroclinic data; with periodic_n=True
    the domain is a fully periodic box.
    """

    grid_t: Grid1D
    grid_n: Grid1D
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    periodic_n: bool = False

    def __post_init__(self):
        shape = (self.grid_t.n, self.grid_n.n)
        object.__setattr__(self, "u", _locked(self.u, shape, "u"))
        object.__setattr__(self, "v", _locked(self.v, shape, "v"))

    def with_values(self, u, v) -> "SlabField":
        return SlabField(self.grid_t, self.grid_n, u, v, self.periodic_n)


def heteroclinic_boundary_defect(prof: ProfilePair) -> float:
    """Max deviation of the end rows from the heteroclinic data."""
    return max(
        abs(prof.u[0] - LEFT_STATE[0]),
        abs(prof.v[0] - LEFT_STATE[1]),
        abs(prof.u[-1] - RIGHT_STATE[0]),
        abs(prof.v[-1] - RIGHT_STATE[1]),
    )


def residual_1d(p: Params, prof: ProfilePair):
    """Residual pair of the discrete two-point boundary value problem.

    Interior rows: second central difference plus the reaction.  End rows:
    Dirichlet defect against the heteroclinic data.  Zero (to rounding) iff
    the profile solves the discretized problem.
    """
    h = prof.grid.h
    u, v = prof.u, prof.v
    fu, fv = model.reaction(p, u, v)
    ru = np.empty_like(u)
    rv = np.empty_like(v)
    ru[1:-1] = _second_difference(u, h) + fu[1:-1]
    rv[1:-1] = _second_difference(v, h) + fv[1:-1]
    ru[0] = u[0] - LEFT_STATE[0]
    rv[0] = v[0] - LEFT_STATE[1]
    ru[-1] = u[-1] - RIGHT_STATE[0]
    rv[-1] = v[-1] - RIGHT_STATE[1]
    return ru, rv


def _second_difference(a: np.ndarray, h: float) -> np.ndarray:
    """Central second difference at the interior nodes of the last axis."""
    return (a[..., :-2] - 2.0 * a[..., 1:-1] + a[..., 2:]) / h**2


def _add_wrapped_second_difference(out: np.ndarray, a: np.ndarray, h: float, axis: int) -> None:
    """Add the central second difference of a along a periodic axis to out, in place."""
    out = np.moveaxis(out, axis, -1)
    a = np.moveaxis(a, axis, -1)
    out[..., 1:-1] += _second_difference(a, h)
    out[..., 0] += (a[..., -1] - 2.0 * a[..., 0] + a[..., 1]) / h**2
    out[..., -1] += (a[..., -2] - 2.0 * a[..., -1] + a[..., 0]) / h**2


def residual_slab(p: Params, f: SlabField):
    """Residual pair on the slab: 5-point Laplacian plus reaction.

    The transverse second difference wraps around; embedding a 1D profile
    constantly in the transverse direction therefore reproduces the interior
    rows of :func:`residual_1d` exactly.  The second differences are added
    into the reaction's arrays, so no shifted copies of the field are made.
    """
    ht, hn = f.grid_t.h, f.grid_n.h
    ru, rv = model.reaction(p, f.u, f.v)
    cols = slice(None) if f.periodic_n else slice(1, -1)
    for r, a in ((ru, f.u), (rv, f.v)):
        if f.periodic_n:
            _add_wrapped_second_difference(r, a, hn, axis=1)
        else:
            r[:, 1:-1] += _second_difference(a, hn)
        _add_wrapped_second_difference(r[:, cols], a[:, cols], ht, axis=0)
    if not f.periodic_n:
        ru[:, 0] = f.u[:, 0] - LEFT_STATE[0]
        rv[:, 0] = f.v[:, 0] - LEFT_STATE[1]
        ru[:, -1] = f.u[:, -1] - RIGHT_STATE[0]
        rv[:, -1] = f.v[:, -1] - RIGHT_STATE[1]
    return ru, rv


def discrete_energy_1d(p: Params, prof: ProfilePair) -> float:
    """Discrete excess energy: midpoint gradient terms plus trapezoidal potential.

    The potential is measured relative to its value at the pure equilibria, so
    a profile sitting at (1,0) or (0,1) everywhere has zero energy and
    heteroclinic energies stay finite as the domain grows.
    """
    h = prof.grid.h
    du = np.diff(prof.u)
    dv = np.diff(prof.v)
    grad = float(np.sum(du * du + dv * dv)) / (2.0 * h)
    w = np.asarray(model.potential(p, prof.u, prof.v)) - model.PURE_STATE_POTENTIAL
    pot = float(np.trapezoid(w, dx=h))
    return grad + pot


def discrete_energy_slab(p: Params, f: SlabField) -> float:
    """Slab analogue of :func:`discrete_energy_1d` (transverse terms wrap)."""
    ht, hn = f.grid_t.h, f.grid_n.h
    u, v = f.u, f.v
    grad_t = _squared_steps(u, v, axis=0, wrap=True) * hn / (2.0 * ht)
    grad_n = _squared_steps(u, v, axis=1, wrap=f.periodic_n) * ht / (2.0 * hn)
    w = model._potential(p.lam, u, v)
    w -= model.PURE_STATE_POTENTIAL
    if f.periodic_n:
        pot = float(np.sum(w))
    else:  # trapezoidal weights along the pinned axis
        pot = float(np.sum(w[:, 1:-1])) + 0.5 * (float(np.sum(w[:, 0])) + float(np.sum(w[:, -1])))
    return grad_t + grad_n + pot * ht * hn


def _squared_steps(u: np.ndarray, v: np.ndarray, axis: int, wrap: bool) -> float:
    """Sum of the squared forward differences of u and v along one axis.

    With wrap the step from the last slice back to the first is included.
    The squares are formed in the differences' buffers.
    """
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


def _max_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Max-norm of a pair of arrays: the largest |entry| of a and b."""
    return max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))


def check_discrete_monotone(prof: ProfilePair):
    """Extremal forward differences: (min of diff(u), max of diff(v)).

    A strictly increasing u / decreasing v profile yields a positive first
    and negative second entry.
    """
    return float(np.min(np.diff(prof.u))), float(np.max(np.diff(prof.v)))


@dataclass(frozen=True)
class BoundReport:
    """Measured extremes against the regime-appropriate a priori bounds."""

    max_abs_u: float
    max_abs_v: float
    max_sum_squares: float
    sum_squares_bound: float
    component_margin: float
    sum_squares_margin: float


def check_bounds(p: Params, u, v) -> BoundReport:
    """Margins of |u|,|v| <= 1 and of the coupling-dependent bound on u^2+v^2.

    For coupling >= 1 the sum of squares is compared against 1, below 1
    against 2/(1+lam).  Margins are signed: positive means slack, negative
    the violation size; the verdict is the caller's record.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    max_u = float(np.max(np.abs(u)))
    max_v = float(np.max(np.abs(v)))
    max_ss = float(np.max(u * u + v * v))
    ss_bound = 1.0 if p.lam >= 1.0 else 2.0 / (p.lam + 1.0)
    comp_margin = 1.0 - max(max_u, max_v)
    ss_margin = ss_bound - max_ss
    return BoundReport(
        max_abs_u=max_u,
        max_abs_v=max_v,
        max_sum_squares=max_ss,
        sum_squares_bound=ss_bound,
        component_margin=comp_margin,
        sum_squares_margin=ss_margin,
    )


@dataclass(frozen=True)
class SumReport:
    """Ordering of u+v against 1 over interior nodes."""

    min_sum: float
    max_sum: float
    regime: str  # "below-one" | "above-one" | "equal-one"
    margin: float


def check_sum_vs_one(p: Params, prof: ProfilePair) -> SumReport:
    """Margin of u+v against 1 over interior nodes, keyed by the coupling.

    Above coupling 3 the sum must stay below 1, below 3 above 1; at exactly 3
    the margin is minus the largest |u+v-1|.  End rows are constrained data
    and excluded.
    """
    s = prof.u[1:-1] + prof.v[1:-1]
    min_sum = float(np.min(s))
    max_sum = float(np.max(s))
    if p.lam > 3.0:
        regime = "below-one"
        margin = 1.0 - max_sum
    elif p.lam < 3.0:
        regime = "above-one"
        margin = min_sum - 1.0
    else:
        regime = "equal-one"
        margin = -float(np.max(np.abs(s - 1.0)))
    return SumReport(
        min_sum=min_sum,
        max_sum=max_sum,
        regime=regime,
        margin=margin,
    )


# ---------------------------------------------------------------------------
# CSV serialization (17 significant digits so reloads are bit-exact)
#
# Every value is written with CSV_FLOAT, through _write_csv_rows: the text is
# the same as formatting value by value, and the memory held at any moment
# stays a few kilobytes whatever the grid size.
# ---------------------------------------------------------------------------

# Rows formatted and written per call; large enough to amortize the write,
# small enough that a block never becomes a command's memory peak.
_CSV_BLOCK_ROWS = 64


def _write_csv_rows(fh, row_format: str, *columns) -> None:
    """Write the rows of equal-length 1D arrays, each as ``row_format % row``.

    The arrays are sliced into blocks of _CSV_BLOCK_ROWS rows; each slice is
    turned into Python numbers with ``.tolist()`` and each block is written
    with one ``fh.write``.
    """
    n = len(columns[0])
    for start in range(0, n, _CSV_BLOCK_ROWS):
        stop = start + _CSV_BLOCK_ROWS
        rows = zip(*[c[start:stop].tolist() for c in columns])
        fh.write("".join([row_format % row for row in rows]))


def save_profile_csv(path, prof: ProfilePair) -> None:
    """Write header `x,u,v` and one row per node, each value as CSV_FLOAT."""
    row_format = ",".join([CSV_FLOAT] * 3) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write("x,u,v\n")
        _write_csv_rows(fh, row_format, prof.grid.nodes(), prof.u, prof.v)


def load_profile_csv(path) -> ProfilePair:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    x, u, v = data[:, 0], data[:, 1], data[:, 2]
    grid = Grid1D(half_length=float(x[-1]), n=len(x))
    return ProfilePair(grid, u, v)


def save_slab_csv(path, f: SlabField) -> None:
    """Write header `xp,xn,u,v` and one row per node, transverse index outer.

    Rows go out one transverse slice at a time: the slice's xp is formatted
    once into the row format (a formatted finite float holds no '%'), so no
    coordinate array of the whole slab is built.
    """
    xn = f.grid_n.nodes()
    row_tail = ",".join([CSV_FLOAT] * 3) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write("xp,xn,u,v\n")
        for i, xp in enumerate(f.grid_t.nodes().tolist()):
            _write_csv_rows(fh, CSV_FLOAT % xp + "," + row_tail, xn, f.u[i], f.v[i])


def load_slab_csv(path, periodic_n: bool = False) -> SlabField:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    xp = np.unique(data[:, 0])
    xn = np.unique(data[:, 1])
    nt, nn = len(xp), len(xn)
    if nt * nn != data.shape[0]:
        raise ValueError("slab csv is not a full tensor grid")
    grid_t = Grid1D(half_length=float(xp[-1]), n=nt)
    grid_n = Grid1D(half_length=float(xn[-1]), n=nn)
    u = data[:, 2].reshape(nt, nn)
    v = data[:, 3].reshape(nt, nn)
    return SlabField(grid_t, grid_n, u, v, periodic_n)

