"""The three workloads: CLI commands per repetition, warm-up commands, checks.

A repetition runs the same commands every time, so repetitions of one run
are identical work.  The workload seed picks a base seed in
``[0, SEED_SPACE)`` and every command seed is the base plus an offset below
10, so command seeds stay below 1000.  Each command of these workloads was
run once with every seed in 0..999 and passes, so no workload seed makes an
operation fail.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import checks

SEED_SPACE = 990


class Op(NamedTuple):
    """One CLI command (without ``--out``) and the check of what it wrote."""

    argv: tuple
    check: Callable[[Path], list]
    report: str  # report file compared byte for byte across repetitions


def base_seed(seed: int) -> int:
    return seed % SEED_SPACE


# battery: the default `verify` command.  The slab flow's step count moves
# with the seed (219 to 308 steps over seeds 0..999), so a repetition runs
# several seeds to keep the run time steady across workload seeds.
BATTERY_SEEDS = 4


def battery_ops(seed: int) -> list[Op]:
    from gp_rigidity.verify import THEOREM_TAGS

    check = partial(checks.check_battery, theorem_tags=THEOREM_TAGS)
    return [Op(("verify", "--seed", str(base_seed(seed) + k)), check, "suite_report.json")
            for k in range(BATTERY_SEEDS)]


# fronts: 1D Newton work only, from overhead-bound to arithmetic-bound grids.
SWEEP = (1.5, 6.0, 0.5)  # from, to, step
SWEEP_N = 2001
HALF_LENGTH = 20.0  # the CLI default, used by every fronts command
SOLVE_COUPLINGS = (1.1, 1.5, 2.0, 3.0, 6.0, 20.0, 100.0)
SOLVE_N = 20001
VERIFY_1D_STAGES = "solves,uniqueness,counterexample"
VERIFY_1D_N = 4001
VERIFY_1D_RECORDS = 22
VERIFY_1D_SEEDS = 3


def sweep_couplings() -> list[float]:
    lo, hi, step = SWEEP
    return [lo + step * i for i in range(int(round((hi - lo) / step)) + 1)]


def fronts_ops(seed: int) -> list[Op]:
    lo, hi, step = SWEEP
    h_sweep = 2.0 * HALF_LENGTH / (SWEEP_N - 1)
    ops = [
        Op(
            ("sweep", "--lambda-from", repr(lo), "--lambda-to", repr(hi), "--step", repr(step),
             "--n", str(SWEEP_N)),
            partial(checks.check_sweep, lams=sweep_couplings(), h=h_sweep),
            "summary.csv",
        )
    ]
    ops += [
        Op(("solve1d", "--lambda", repr(lam), "--n", str(SOLVE_N)),
           partial(checks.check_solve1d, lam=lam), "report.json")
        for lam in SOLVE_COUPLINGS
    ]
    ops += [
        Op(("verify", "--stages", VERIFY_1D_STAGES, "--n", str(VERIFY_1D_N),
            "--seed", str(base_seed(seed) + k)),
           partial(checks.check_verify_1d, count=VERIFY_1D_RECORDS), "suite_report.json")
        for k in range(VERIFY_1D_SEEDS)
    ]
    return ops


# box: small fully periodic relaxations, where fixed per-step costs dominate.
BOX_COUPLINGS = (0.25, 0.5, 0.75)
BOX_SEEDS = 6


def box_ops(seed: int) -> list[Op]:
    ops = []
    for k in range(BOX_SEEDS):
        s = str(base_seed(seed) + k)
        for lam in BOX_COUPLINGS:
            ops.append(Op(("relax", "--mode", "liouville", "--lambda", repr(lam), "--seed", s),
                          partial(checks.check_relax_box, lam=lam), "report.json"))
        ops.append(Op(("relax", "--mode", "lambda1", "--seed", s),
                      partial(checks.check_relax_box, lam=1.0), "report.json"))
    return ops


# Warm-up: each kind of command once, at small sizes, so that lazy
# initialisation in numpy and scipy happens before timing.  The uniqueness
# stage is left out: its fixed 1e-6 tolerance fails on coarse grids.
WORKLOADS = {
    "battery": (battery_ops, (
        ("verify", "--n", "401", "--stages", "solves,liouville,counterexample"),
    )),
    "fronts": (fronts_ops, (
        ("sweep", "--n", "201"),
        ("solve1d", "--n", "201"),
        ("verify", "--stages", "solves,counterexample", "--n", "401"),
    )),
    "box": (box_ops, (
        ("relax", "--mode", "liouville", "--lambda", "0.5"),
        ("relax", "--mode", "lambda1"),
    )),
}
