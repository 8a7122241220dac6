import os
import subprocess
import sys
import time
import tracemalloc

import pytest

import gp_rigidity
from gp_rigidity import solver1d, solvernd, verify
from gp_rigidity.grid import Grid1D
from gp_rigidity.model import Params

DEFAULT_L = 20.0
DEFAULT_N = 2001


@pytest.fixture(scope="session")
def fresh_python():
    """Runner of a script (with arguments) in a new interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(gp_rigidity.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(script, *args):
        return subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120)

    return run


@pytest.fixture(scope="session")
def traced_peak():
    """Runner of a callable that returns the largest traced allocation during the call, in bytes."""

    def run(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run


@pytest.fixture(scope="session")
def default_grid():
    return Grid1D(DEFAULT_L, DEFAULT_N)


@pytest.fixture(scope="session")
def default_opts():
    return solver1d.SolveOptions()


@pytest.fixture(scope="session")
def solved(default_grid, default_opts):
    """Converged raw (un-pinned) outcomes at the three battery couplings."""
    out = {}
    for lam in (2.0, 3.0, 6.0):
        p = Params(lam)
        out[lam] = solver1d.newton_solve(
            p, solver1d.initial_guess(p, default_grid), default_opts
        )
    return out


@pytest.fixture(scope="session")
def gibbons_run():
    """(outcome, elapsed seconds) of the default slab relaxation at coupling 3."""
    t0 = time.perf_counter()
    outcome = solvernd.gibbons_run(
        Params(3.0),
        Grid1D(4.0, 64),
        Grid1D(20.0, 801),
        solvernd.FlowOptions(),
        0,
    )
    return outcome, time.perf_counter() - t0


@pytest.fixture(scope="session")
def suite_report():
    """(report, elapsed seconds) of the full default battery."""
    t0 = time.perf_counter()
    report = verify.full_suite()
    return report, time.perf_counter() - t0
