"""CSV writers: exact text, bit-exact reads by numpy and bounded memory.

Every float is written as the shortest text that reads back to the same
double: the significant digits of ``repr``, laid out as orjson's Ryu kernel
lays them out.  That is plain notation for 1e-5 <= |x| < 1e16 (with ``.0``
after an integral value) and ``d.ddde<N>`` otherwise, the exponent with no
``+`` and no leading zeros.  The reference writers below build that text
value by value; the block writers must produce the same bytes.
"""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gp_rigidity import grid, solvernd
from gp_rigidity.grid import Grid1D, ProfilePair, SlabField
from gp_rigidity.model import Params

BLOCK = grid._CSV_BLOCK_ROWS

# Signed zeros, the smallest subnormal, tiny and huge magnitudes, values whose
# shortest form is short, and 0.1 + 0.2, which needs all 17 digits.
EDGE_VALUES = (-0.0, 5e-324, 1e-300, 0.0, 1.0, 0.1, -1e16, 1e17, 0.1 + 0.2)
# a short file, the counts around half a block, and the counts around one block
ROW_COUNTS = (3, BLOCK // 2 - 1, BLOCK // 2, BLOCK // 2 + 1, BLOCK - 1, BLOCK, BLOCK + 1)


def reference_text(x) -> str:
    """The shortest round-trip text of float x, from the digits of repr(x)."""
    x = float(x)
    if x == 0.0:
        return repr(x)  # 0.0 or -0.0
    sign = "-" if x < 0 else ""
    parts = Decimal(repr(abs(x))).normalize().as_tuple()
    digits = "".join(map(str, parts.digits))
    point = len(digits) + parts.exponent  # x = 0.digits * 10**point
    if -5 < point <= 0:
        return sign + "0." + "0" * -point + digits
    if 0 < point <= 16:
        if point >= len(digits):
            return sign + digits + "0" * (point - len(digits)) + ".0"
        return sign + digits[:point] + "." + digits[point:]
    mantissa = digits[0] + ("." + digits[1:] if len(digits) > 1 else "")
    return f"{sign}{mantissa}e{point - 1}"


def reference_row(values) -> str:
    return ",".join(map(reference_text, values)) + "\n"


def reference_profile_text(prof: ProfilePair) -> str:
    x = prof.grid.nodes()
    rows = [reference_row((x[i], prof.u[i], prof.v[i])) for i in range(prof.grid.n)]
    return "x,u,v\n" + "".join(rows)


def reference_slab_text(f: SlabField) -> str:
    xp = f.grid_t.nodes()
    xn = f.grid_n.nodes()
    rows = [
        reference_row((xp[i], xn[j], f.u[i, j], f.v[i, j]))
        for i in range(f.grid_t.n)
        for j in range(f.grid_n.n)
    ]
    return "xp,xn,u,v\n" + "".join(rows)


def reference_energy_trace_text(outcome: solvernd.FlowOutcome) -> str:
    lines = ["step,energy,update_norm\n", "0,%s,\n" % reference_text(outcome.energy_trace[0])]
    for k, upd in enumerate(outcome.update_trace, start=1):
        lines.append("%d,%s" % (k, reference_row((outcome.energy_trace[k], upd))))
    return "".join(lines)


def edge_column(n: int, shift: int) -> np.ndarray:
    """n values cycling through EDGE_VALUES, starting at offset shift."""
    return np.roll(np.resize(np.array(EDGE_VALUES), n + len(EDGE_VALUES)), -shift)[:n]


def digits_column(n: int, seed: int) -> np.ndarray:
    """n random values that each need all 17 significant digits to read back.

    Their magnitudes lie in [0.25, 0.5), where the doubles are closer together
    than the 16-digit decimals, so most of them need 17 digits.
    """
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.25, 0.5, n) * rng.choice([-1.0, 1.0], n)
    for i, x in enumerate(values):
        while float("%.16g" % x) == x:
            x = np.nextafter(x, 0.0)
        values[i] = x
    return values


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_profile_csv_matches_per_value_writer(tmp_path, n):
    prof = ProfilePair(Grid1D(0.1 + 0.2, n), edge_column(n, 0), digits_column(n, 1))
    path = tmp_path / "profile.csv"
    grid.save_profile_csv(path, prof)
    assert path.read_text(encoding="ascii") == reference_profile_text(prof)


@pytest.mark.parametrize("n", [3, 64, 65, 20001])
@pytest.mark.parametrize("half_length", [20.0, 0.1 + 0.2, 1.0])
def test_block_nodes_are_the_grid_nodes_bitwise(n, half_length):
    g = Grid1D(half_length, n)
    nodes = np.concatenate([grid._block_nodes(g, slice(start, min(start + BLOCK, n))) for start in range(0, n, BLOCK)])
    assert np.array_equal(nodes.view(np.int64), g.nodes().view(np.int64))


@pytest.mark.parametrize(
    # the blocks run over the flattened rows: the last two shapes hold one block and one row more
    "shape",
    [(3, 3), (3, BLOCK - 1), (4, BLOCK), (5, BLOCK + 1), (BLOCK + 1, 3), (6, 2 * BLOCK + 3),
     (4, BLOCK // 4), (3, BLOCK // 3 + 1)],
)
def test_slab_csv_matches_per_value_writer(tmp_path, shape):
    nt, nn = shape
    u = edge_column(nt * nn, 2).reshape(shape)
    v = digits_column(nt * nn, 2).reshape(shape)
    # tiny coordinates with three-digit exponents, on an axis whose 1/h**2 is still a finite double
    f = SlabField(Grid1D(1e-150 * 3.0, nt), Grid1D(0.1, nn), u, v)
    path = tmp_path / "field.csv"
    grid.save_slab_csv(path, f)
    assert path.read_text(encoding="ascii") == reference_slab_text(f)


@pytest.mark.parametrize("steps", [0] + [n - 1 for n in ROW_COUNTS])
def test_energy_trace_csv_matches_per_value_writer(tmp_path, steps):
    box = Grid1D(1.0, 3)
    field = SlabField(box, box, np.zeros((3, 3)), np.zeros((3, 3)), periodic_n=True)
    energies = tuple(edge_column(steps + 1, 1).tolist())
    updates = tuple(digits_column(steps, 3).tolist())
    outcome = solvernd.FlowOutcome(
        field, steps, 0.0, 0.0, True, energy_trace=energies, update_trace=updates
    )
    path = tmp_path / "energy_trace.csv"
    grid.save_energy_trace_csv(path, outcome)
    assert path.read_text(encoding="ascii") == reference_energy_trace_text(outcome)


def test_energy_trace_csv_of_a_run_matches_per_value_writer(tmp_path):
    box = Grid1D(4.0, 16)
    out = solvernd.periodic_box_run(Params(0.5), box, box, solvernd.FlowOptions(), 3)
    path = tmp_path / "energy_trace.csv"
    grid.save_energy_trace_csv(path, out)
    assert path.read_text(encoding="ascii") == reference_energy_trace_text(out)


finite_floats = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


def bitwise_equal(a, b) -> bool:
    """Equal bit patterns, so -0.0 and 0.0 differ."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def read_columns(path, header: str) -> np.ndarray:
    """The columns of a file written under ``header``, parsed by ``np.loadtxt``."""
    with open(path, encoding="ascii") as fh:
        assert fh.readline() == header + "\n"
        return np.loadtxt(fh, delimiter=",", ndmin=2).T


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    half_length=st.floats(1e-3, 1e6),
    data=st.integers(3, 2 * BLOCK + 3).flatmap(
        lambda n: st.tuples(arrays(float, n, elements=finite_floats),
                            arrays(float, n, elements=finite_floats))
    ),
)
def test_profile_csv_reload_is_bitwise(tmp_path_factory, half_length, data):
    u, v = data
    prof = ProfilePair(Grid1D(half_length, len(u)), u, v)
    path = tmp_path_factory.mktemp("profile") / "profile.csv"
    grid.save_profile_csv(path, prof)
    x, u_read, v_read = read_columns(path, grid.PROFILE_HEADER)
    assert bitwise_equal(x, prof.grid.nodes())
    assert bitwise_equal(u_read, prof.u) and bitwise_equal(v_read, prof.v)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    half_lengths=st.tuples(st.floats(1e-3, 1e6), st.floats(1e-3, 1e6)),
    data=st.tuples(st.integers(3, 6), st.integers(3, BLOCK + 3)).flatmap(
        lambda shape: st.tuples(arrays(float, shape, elements=finite_floats),
                                arrays(float, shape, elements=finite_floats))
    ),
)
def test_slab_csv_reload_is_bitwise(tmp_path_factory, half_lengths, data):
    u, v = data
    f = SlabField(Grid1D(half_lengths[0], u.shape[0]), Grid1D(half_lengths[1], u.shape[1]), u, v)
    path = tmp_path_factory.mktemp("slab") / "field.csv"
    grid.save_slab_csv(path, f)
    xp, xn, u_read, v_read = read_columns(path, grid.SLAB_HEADER)
    nt, nn = u.shape
    assert bitwise_equal(xp, np.repeat(f.grid_t.nodes(), nn)) and bitwise_equal(xn, np.tile(f.grid_n.nodes(), nt))
    assert bitwise_equal(u_read.reshape(nt, nn), f.u) and bitwise_equal(v_read.reshape(nt, nn), f.v)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    half_length=st.floats(1e-3, 1e6),
    data=st.integers(3, 2 * BLOCK + 3).flatmap(
        lambda n: st.tuples(arrays(float, n, elements=finite_floats),
                            arrays(float, n, elements=finite_floats))
    ),
)
def test_profile_csv_text_is_the_reference_and_survives_a_reload(tmp_path_factory, half_length, data):
    u, v = data
    prof = ProfilePair(Grid1D(half_length, len(u)), u, v)
    first = tmp_path_factory.mktemp("profile") / "profile.csv"
    grid.save_profile_csv(first, prof)
    assert first.read_text(encoding="ascii") == reference_profile_text(prof)
    again = first.with_name("again.csv")
    x, u_read, v_read = read_columns(first, grid.PROFILE_HEADER)
    grid.save_profile_csv(again, ProfilePair(Grid1D(float(x[-1]), len(x)), u_read, v_read))
    assert again.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_energy_trace_value_is_rejected_naming_the_file(tmp_path, bad):
    box = Grid1D(1.0, 3)
    field = SlabField(box, box, np.zeros((3, 3)), np.zeros((3, 3)), periodic_n=True)
    outcome = solvernd.FlowOutcome(
        field, 2, 0.0, 0.0, True, energy_trace=(1.0, bad, 0.5), update_trace=(0.25, 0.125)
    )
    path = tmp_path / "energy_trace.csv"
    with pytest.raises(ValueError, match="non-finite") as info:
        grid.save_energy_trace_csv(path, outcome)
    assert str(path) in str(info.value)


def test_refused_energy_trace_csv_leaves_no_file(tmp_path):
    # the trace is checked before the file is opened; the profile and slab
    # writers need no such check, since their containers reject non-finite data
    box = Grid1D(1.0, 3)
    field = SlabField(box, box, np.zeros((3, 3)), np.zeros((3, 3)), periodic_n=True)
    outcome = solvernd.FlowOutcome(
        field, 2, 0.0, 0.0, True, energy_trace=(1.0, float("nan"), 0.5), update_trace=(0.25, 0.125)
    )
    path = tmp_path / "energy_trace.csv"
    with pytest.raises(ValueError, match="non-finite") as info:
        grid.save_energy_trace_csv(path, outcome)
    assert str(path) in str(info.value)
    assert not path.exists()


MEMORY_BOUND = 256 * 1024  # bytes; the whole 20001-row profile text is about 1.4 MB


def test_profile_csv_memory_stays_bounded(tmp_path, traced_peak):
    rng = np.random.default_rng(5)
    g = Grid1D(20.0, 20001)
    prof = ProfilePair(g, rng.uniform(-1, 1, g.n), rng.uniform(-1, 1, g.n))
    peak = traced_peak(lambda: grid.save_profile_csv(tmp_path / "profile.csv", prof))
    assert peak < MEMORY_BOUND


def test_slab_csv_memory_stays_bounded(tmp_path, traced_peak):
    rng = np.random.default_rng(6)
    shape = (64, 801)
    f = SlabField(Grid1D(4.0, 64), Grid1D(20.0, 801), rng.uniform(0, 1, shape), rng.uniform(0, 1, shape))
    peak = traced_peak(lambda: grid.save_slab_csv(tmp_path / "field.csv", f))
    assert peak < MEMORY_BOUND
