"""The compiled scipy routines the solvers call directly, against scipy's public wrappers."""

import json

import numpy as np
import pytest
import scipy.fft
import scipy.fftpack

from gp_rigidity import _kernels, solvernd


def bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


TRANSFORMS = {
    "rfft": (solvernd._rfft, scipy.fftpack.rfft),
    "irfft": (solvernd._irfft, scipy.fftpack.irfft),
    "dst1": (solvernd._dst1, lambda x, axis: scipy.fft.dst(x, type=1, axis=axis)),
    "idst1": (solvernd._idst1, lambda x, axis: scipy.fft.idst(x, type=1, axis=axis)),
}


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("shape", [(7, 10), (16, 9)])
@pytest.mark.parametrize("name", TRANSFORMS)
def test_transform_is_scipys_in_place(name, shape, axis):
    ours, scipys = TRANSFORMS[name]
    x = np.random.default_rng(sum(shape) + axis).uniform(-1.0, 1.0, shape)
    expected = scipys(x.copy(), axis=axis)
    got = ours(x, axis)
    assert got is x
    assert bitwise_equal(x, expected)


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError):
        _kernels.dgemm


def _last_json(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_repeated_transforms_hold_no_traced_memory(fresh_python):
    """Keyword calls of the same routines leave a 0.94 MB block after a few thousand calls.

    Run in a new interpreter, where no earlier call can have made the block.
    """
    script = """
import json, tracemalloc
import numpy as np
from gp_rigidity import solvernd
grown = []
for transform in (solvernd._rfft, solvernd._irfft, solvernd._dst1, solvernd._idst1):
    x = np.full((4, 5), 0.5)
    transform(x, 0)
    tracemalloc.start()
    for _ in range(10000):
        transform(x, 0)
        x[:] = 0.5
    grown.append(tracemalloc.get_traced_memory()[0])
    tracemalloc.stop()
print(json.dumps(grown))
"""
    assert max(_last_json(fresh_python(script))) < 10_000


# a pinned Newton solve (dpbsv) and a slab and a box relaxation (every
# transform, the slab Newton finish's dpbsv and dgbsv), their arrays saved to a file
SOLVE_AND_RELAX = """
import numpy as np
from gp_rigidity import solver1d, solvernd
from gp_rigidity.grid import Grid1D
from gp_rigidity.model import Params

def solve_and_relax(path):
    g = Grid1D(20.0, 201)
    prof = solver1d.newton_solve(Params(3.0), solver1d.initial_guess(Params(3.0), g), solver1d.SolveOptions()).profile
    pinned = solver1d.pin_phase(prof)
    opts = solvernd.FlowOptions()
    slab = solvernd.gibbons_run(Params(3.0), Grid1D(4.0, 8), g, opts, 5)
    box = solvernd.periodic_box_run(Params(0.5), Grid1D(4.0, 8), Grid1D(4.0, 10), opts, 5)
    assert slab.newton_steps >= 1 and box.newton_steps >= 1
    np.savez(path, prof.u, prof.v, pinned.u, pinned.v, slab.field.u, slab.field.v, box.field.u, box.field.v)
"""


@pytest.mark.parametrize("lookup", ["missing", "unloadable"])
def test_fallback_import_gives_the_same_bits(tmp_path, fresh_python, lookup):
    """With the extension file missing or unloadable, the kernels come from scipy's packages."""
    bogus = tmp_path / "_flapack.so"
    bogus.write_bytes(b"not a shared object")
    found = "None" if lookup == "missing" else repr(str(bogus))
    script = (
        SOLVE_AND_RELAX
        + f"import sys\nfrom gp_rigidity import _kernels\n_kernels._extension_path = lambda name: {found}\n"
        + "solve_and_relax(sys.argv[1])\n"
        + "print(__import__('json').dumps([m for m in ('scipy.linalg', 'scipy.fft') if m in sys.modules]))\n"
    )
    # the packages were imported, so the fallback ran
    assert _last_json(fresh_python(script, str(tmp_path / "fallback.npz"))) == ["scipy.linalg", "scipy.fft"]
    namespace = {}
    exec(SOLVE_AND_RELAX, namespace)
    namespace["solve_and_relax"](tmp_path / "direct.npz")
    fallback, direct = np.load(tmp_path / "fallback.npz"), np.load(tmp_path / "direct.npz")
    assert fallback.files == direct.files
    for name in direct.files:
        assert bitwise_equal(fallback[name], direct[name]), name


def test_public_scipy_import_reuses_the_loaded_kernels(fresh_python):
    script = """
import json, sys
import numpy as np
from gp_rigidity import _kernels
names = ["dgbsv", "dpbsv"]
lapack = [getattr(_kernels, name) for name in names]
dst = _kernels.dst
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import scipy.linalg, scipy.fftpack
x = np.arange(8.0)
ab = np.array([[0.0, 1.0, 1.0, 1.0], [4.0, 4.0, 4.0, 4.0], [1.0, 1.0, 1.0, 0.0]])
print(json.dumps([
    before,
    scipy.linalg.lapack._flapack is sys.modules["scipy.linalg._flapack"],
    all(ours is getattr(scipy.linalg.lapack, name) for ours, name in zip(lapack, names)),
    scipy.fft._pocketfft.realtransforms.pfft.dst is dst,
    scipy.linalg.solve_banded((1, 1), ab, np.ones(4)).tolist(),
    bool(np.allclose(scipy.fftpack.irfft(scipy.fftpack.rfft(x)), x)),
]))
"""
    before, same_module, same_lapack, same_dst, solved, round_trip = _last_json(fresh_python(script))
    assert before == ["scipy.fft._pocketfft.pypocketfft", "scipy.linalg._flapack"]
    assert same_module and same_lapack and same_dst and round_trip
    assert np.allclose((4.0 * np.eye(4) + np.eye(4, k=1) + np.eye(4, k=-1)) @ solved, 1.0)
