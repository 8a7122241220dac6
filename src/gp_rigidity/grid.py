"""Uniform grids, discrete residuals, observables and CSV serialization.

The 1D interval [-L, L] carries the heteroclinic boundary data (0,1) at -L
and (1,0) at +L.  The 2D slab is periodic in the transverse axis and either
pinned (Dirichlet) or periodic along the second axis.  All difference
operators are second-order central; energies pair forward differences with
trapezoidal quadrature so both carry O(h^2) error.

Profiles and slab fields are written as CSV with every float formatted as
its shortest text that reads back to the same double (Ryu, through orjson),
so any correctly rounding reader recovers them bit for bit; the package
itself reads no CSV.  The writers format bounded blocks of rows and write
each block in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model
from .model import Params

# Equilibria used as Dirichlet data: (u,v) at the left and right end.
LEFT_STATE = (0.0, 1.0)
RIGHT_STATE = (1.0, 0.0)


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
        try:  # every difference operator scales by 1/h**2, which must be a finite double
            inverse = 1.0 / float(self.h) ** 2
        except (OverflowError, ZeroDivisionError):
            inverse = float("inf")
        if not inverse < float("inf"):
            raise ValueError(f"half_length: {self.half_length!r} on {self.n} nodes puts 1/h**2 outside float range")

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


def _residual(p: Params, u: np.ndarray, v: np.ndarray, h: float, wrap: bool):
    """Reaction plus second difference along the last axis, in the reaction's arrays; Dirichlet end rows unless wrap."""
    ru, rv = model.reaction(p, u, v)
    _add_second_difference(ru, u, h, wrap)
    _add_second_difference(rv, v, h, wrap)
    if not wrap:
        ru[..., 0] = u[..., 0] - LEFT_STATE[0]
        rv[..., 0] = v[..., 0] - LEFT_STATE[1]
        ru[..., -1] = u[..., -1] - RIGHT_STATE[0]
        rv[..., -1] = v[..., -1] - RIGHT_STATE[1]
    return ru, rv


def _add_second_difference(out: np.ndarray, a: np.ndarray, h: float, wrap: bool) -> None:
    """Add a's central second difference along its last axis to out's interior, and with wrap to its ends too."""
    out[..., 1:-1] += (a[..., :-2] - 2.0 * a[..., 1:-1] + a[..., 2:]) / h**2
    if wrap:
        out[..., 0] += (a[..., -1] - 2.0 * a[..., 0] + a[..., 1]) / h**2
        out[..., -1] += (a[..., -2] - 2.0 * a[..., -1] + a[..., 0]) / h**2


def residual_1d(p: Params, prof: ProfilePair):
    """Residual pair of the discrete two-point boundary value problem.

    Interior rows: second central difference plus the reaction.  End rows:
    Dirichlet defect against the heteroclinic data.  Zero (to rounding) iff
    the profile solves the discretized problem.
    """
    # a ProfilePair's arrays were checked finite when it was made
    return _residual(p, prof.u, prof.v, prof.grid.h, wrap=False)


def residual_slab(p: Params, f: SlabField):
    """Residual pair on the slab: 5-point Laplacian plus reaction.

    The transverse second difference wraps around; embedding a 1D profile
    constantly in the transverse direction therefore reproduces the interior
    rows of :func:`residual_1d` exactly.  The transverse term is added along
    the last axis of the transposes of the free columns.
    """
    ru, rv = _residual(p, f.u, f.v, f.grid_n.h, wrap=f.periodic_n)
    cols = slice(None) if f.periodic_n else slice(1, -1)
    _add_second_difference(ru[:, cols].T, f.u[:, cols].T, f.grid_t.h, wrap=True)
    _add_second_difference(rv[:, cols].T, f.v[:, cols].T, f.grid_t.h, wrap=True)
    return ru, rv


def discrete_energy_1d(p: Params, prof: ProfilePair) -> float:
    """Discrete excess energy: midpoint gradient terms plus trapezoidal potential.

    The potential is measured relative to its value at the pure equilibria, so
    a profile sitting at (1,0) or (0,1) everywhere has zero energy and
    heteroclinic energies stay finite as the domain grows.
    """
    h = prof.grid.h
    grad = _squared_steps(prof.u, prof.v, wrap=False) / (2.0 * h)
    w = model.potential(p, prof.u, prof.v)
    w -= model.PURE_STATE_POTENTIAL
    pot = float(np.trapezoid(w, dx=h))
    return grad + pot


def discrete_energy_slab(p: Params, f: SlabField) -> float:
    """Slab analogue of :func:`discrete_energy_1d` (transverse terms wrap)."""
    ht, hn = f.grid_t.h, f.grid_n.h
    u, v = f.u, f.v
    grad_t = _squared_steps(u.T, v.T, wrap=True) * hn / (2.0 * ht)
    grad_n = _squared_steps(u, v, wrap=f.periodic_n) * ht / (2.0 * hn)
    w = model.potential(p, u, v)
    w -= model.PURE_STATE_POTENTIAL
    if f.periodic_n:
        pot = float(w.sum())
    else:  # trapezoidal weights along the pinned axis
        pot = float(w[:, 1:-1].sum()) + 0.5 * (float(w[:, 0].sum()) + float(w[:, -1].sum()))
    return grad_t + grad_n + pot * ht * hn


def _squared_steps(u: np.ndarray, v: np.ndarray, wrap: bool) -> float:
    """Sum of the squared forward differences of u and v along the last axis.

    With wrap the step from the last entry back to the first is included.
    The squares are formed in the differences' buffers.  The slab's
    transverse term passes the transposes: their differences then lie in
    memory as u does, so each sum adds the same values in the same order as
    along rows of the untransposed arrays.
    """
    du = u[..., 1:] - u[..., :-1]
    du *= du
    dv = v[..., 1:] - v[..., :-1]
    dv *= dv
    du += dv
    total = float(du.sum())
    if wrap:
        du = u[..., 0] - u[..., -1]
        dv = v[..., 0] - v[..., -1]
        total += float((du * du + dv * dv).sum())
    return total


def _max_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Max-norm of a pair of arrays: the largest |entry| of a and b."""
    return max(float(abs(a).max()), float(abs(b).max()))


def check_discrete_monotone(prof: ProfilePair):
    """Extremal forward differences: (min of diff(u), max of diff(v)).

    A strictly increasing u / decreasing v profile yields a positive first
    and negative second entry.
    """
    return float(np.min(np.diff(prof.u))), float(np.max(np.diff(prof.v)))


# ---------------------------------------------------------------------------
# CSV serialization (shortest round-trip text, so a reader gets the same doubles)
#
# Every value is formatted by orjson's Ryu kernel, through _csv_rows: plain
# notation for 1e-5 <= |x| < 1e16, otherwise d.ddde-N or d.dddeN, and a
# float always with a '.' or an exponent.  The writers hand it blocks of
# _CSV_BLOCK_ROWS rows, so the memory held at any moment stays a few tens of
# kilobytes whatever the grid size.
# ---------------------------------------------------------------------------

# Rows formatted and written per call; large enough to amortize the call,
# small enough that a block never becomes a command's memory peak.
_CSV_BLOCK_ROWS = 128


def _csv_rows(path, values, width: int) -> np.ndarray:
    """The CSV text of ``values`` taken ``width`` to a row, as a byte array.

    ``values`` is a flat float array, or a list of floats and ints (ints
    keep their integer text).  orjson writes it as one JSON list; every
    ``width``-th comma becomes a newline and the closing bracket the last
    one.  ValueError naming ``path`` if a value is not finite, which orjson
    would write as ``null``.
    """
    import orjson  # loaded on the first CSV write, so importing the package does not load it

    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
    if b"n" in text:  # no number's text holds an n
        raise ValueError(f"{path}: non-finite values cannot be written")
    buf = np.frombuffer(bytearray(text), np.uint8)
    buf[np.flatnonzero(buf == ord(","))[width - 1 :: width]] = ord("\n")
    buf[-1] = ord("\n")
    return buf[1:]


def _write_csv(path, header: str, n: int, columns) -> None:
    """Write ``header`` and n rows of floats; ``columns(rows)`` gives the columns of a slice of rows.

    The columns of each block are copied into one preallocated float block,
    whose text is written with one ``fh.write``.
    """
    width = header.count(",") + 1
    block = np.empty((_CSV_BLOCK_ROWS, width))
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for start in range(0, n, _CSV_BLOCK_ROWS):
            stop = min(start + _CSV_BLOCK_ROWS, n)
            rows = block[: stop - start]
            for k, c in enumerate(columns(slice(start, stop))):
                rows[:, k] = c
            fh.write(_csv_rows(path, rows.reshape(-1), width))


PROFILE_HEADER = "x,u,v"
SLAB_HEADER = "xp,xn,u,v"


def _block_nodes(g: Grid1D, rows: slice) -> np.ndarray:
    """``g.nodes()[rows]`` bit for bit, formed for those rows alone.

    The arithmetic is np.linspace's: node i is i*step - L with step =
    (L - (-L))/(n - 1), and the last node is L itself.
    """
    L = g.half_length
    x = np.arange(rows.start, rows.stop, dtype=float)
    x *= (L - -L) / (g.n - 1)
    x += -L
    if rows.stop == g.n:
        x[-1] = L
    return x


def save_profile_csv(path, prof: ProfilePair) -> None:
    """Write header `x,u,v` and one row per node; each block of rows forms its own nodes."""
    _write_csv(path, PROFILE_HEADER, prof.grid.n,
               lambda rows: (_block_nodes(prof.grid, rows), prof.u[rows], prof.v[rows]))


def save_energy_trace_csv(path, outcome) -> None:
    """Export `step,energy,update_norm` from ``outcome``'s energy and update traces; step 0 has no update.

    The steps keep integer text, so each block of rows goes to the CSV
    formatter as a list of ints and floats.
    """
    energies, updates = outcome.energy_trace, outcome.update_trace
    # checked here, not by the formatter, so a refused trace leaves no half-written file
    if not (np.isfinite(energies).all() and np.isfinite(updates).all()):
        raise ValueError(f"{path}: non-finite values cannot be written")
    with open(path, "wb") as fh:
        fh.write(b"step,energy,update_norm\n")
        fh.write(_csv_rows(path, [0, energies[0]], 2)[:-1])
        fh.write(b",\n")
        for start in range(0, len(updates), _CSV_BLOCK_ROWS):
            stop = min(start + _CSV_BLOCK_ROWS, len(updates))
            values = [None] * (3 * (stop - start))
            values[0::3] = range(start + 1, stop + 1)
            values[1::3] = energies[start + 1 : stop + 1]
            values[2::3] = updates[start:stop]
            fh.write(_csv_rows(path, values, 3))


def save_summary_csv(path, values) -> None:
    """Write header `lambda,min_sum,max_sum,energy,iters` and a row for every five of the flat list ``values``."""
    text = _csv_rows(path, values, 5)  # formatted, so checked, before the file is opened
    with open(path, "wb") as fh:
        fh.write(b"lambda,min_sum,max_sum,energy,iters\n")
        fh.write(text)


def save_slab_csv(path, f: SlabField) -> None:
    """Write header `xp,xn,u,v` and one row per node, transverse index outer.

    Row i of the file is node (i // nn, i % nn), so each block takes its
    coordinates from the two axes' nodes and no coordinate array of the
    whole slab is built.
    """
    nn = f.grid_n.n
    xp, xn = f.grid_t.nodes(), f.grid_n.nodes()

    def columns(rows):
        i, j = np.divmod(np.arange(rows.start, rows.stop), nn)
        return xp[i], xn[j], f.u[i, j], f.v[i, j]

    _write_csv(path, SLAB_HEADER, f.grid_t.n * nn, columns)
