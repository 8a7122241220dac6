"""Output checks, computed apart from the program.

Each check reads the files a command wrote, recomputes what it can with its
own arithmetic (second differences, reaction, energy of constant states,
closed forms) and returns a list of problems; an empty list means the
output is correct.  Only the file formats and the public ``THEOREM_TAGS``
catalog are taken from the package.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

BATTERY_RECORDS = 38
ENERGY_JUMP_LIMIT = 1e-12
BOX_TOL = 1e-6
# A field within BOX_TOL of a constant critical state has an energy within
# about area * (8/h^2 + 10) * BOX_TOL^2 of that state's; 1e-8 on the default
# 32x32 box (area 68, h = 0.26).
ENERGY_MATCH_TOL = 1e-8
PURE_STATE_POTENTIAL = 0.25


def _read_csv(path: Path, header: str, usecols=None) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        first = fh.readline().strip()
        if first != header:
            raise ValueError(f"{path.name}: header {first!r}, expected {header!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2, usecols=usecols)


def check_report(path: Path, count: int | None = None) -> tuple[list[str], list[dict]]:
    """Every record passes, and its pass flag equals margin >= -tolerance."""
    records = json.loads(path.read_text(encoding="ascii"))["records"]
    problems = []
    if count is not None and len(records) != count:
        problems.append(f"{path.name}: {len(records)} records, expected {count}")
    for r in records:
        recomputed = r["margin"] >= -r["tolerance"]
        if r["pass"] != recomputed:
            problems.append(f"{path.name}: {r['name']} pass={r['pass']} but margin test gives {recomputed}")
        if not r["pass"]:
            problems.append(f"{path.name}: {r['name']} failed with margin {r['margin']:.3e}")
    return problems, records


def _energy_jumps(records) -> list[str]:
    return [
        f"{r['name']}: energy rose by {r['params']['max_energy_jump']:.3e}"
        for r in records
        if r["params"].get("max_energy_jump", 0.0) > ENERGY_JUMP_LIMIT
    ]


def check_battery(out: Path, theorem_tags) -> list[str]:
    """The default battery: 38 passing records covering every catalog tag."""
    problems, records = check_report(out / "suite_report.json", BATTERY_RECORDS)
    missing = set(theorem_tags) - {r["theorem"] for r in records}
    if missing:
        problems.append(f"catalog tags without a record: {sorted(missing)}")
    for r in records:
        if r["name"] == "liouville-constant":
            lam = r["params"]["lam"]
            expected = 1.0 / math.sqrt(1.0 + lam)
            if abs(r["params"]["constant"] - expected) > 1e-15 * expected:
                problems.append(f"liouville-constant at {lam}: {r['params']['constant']!r} != {expected!r}")
    return problems + _energy_jumps(records)


def check_front_profile(path: Path, lam: float) -> list[str]:
    """A pinned heteroclinic profile: discrete residual, shape and ordering."""
    data = _read_csv(path, "x,u,v")
    x, u, v = data[:, 0], data[:, 1], data[:, 2]
    n = len(x)
    h = (x[-1] - x[0]) / (n - 1)
    tol = 10.0 * h * h
    name = f"{path.name} (lambda {lam:g})"
    problems = []

    ru = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / (h * h) + u[1:-1] * (1.0 - u[1:-1] ** 2 - lam * v[1:-1] ** 2)
    rv = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / (h * h) + v[1:-1] * (1.0 - v[1:-1] ** 2 - lam * u[1:-1] ** 2)
    ends = max(abs(u[0]), abs(v[0] - 1.0), abs(u[-1] - 1.0), abs(v[-1]))
    res = max(float(np.max(np.abs(ru))), float(np.max(np.abs(rv))), ends)
    if res > tol:
        problems.append(f"{name}: residual {res:.3e} > {tol:.3e}")

    if np.any(np.diff(u) < 0.0) or np.any(np.diff(v) > 0.0):
        problems.append(f"{name}: u not increasing or v not decreasing")
    ss = float(np.max(u * u + v * v))
    if ss > 1.0 + tol:
        problems.append(f"{name}: max u^2+v^2 = {ss!r} > 1")

    d = u - v
    flips = np.flatnonzero(d[:-1] * d[1:] <= 0.0)
    if flips.size == 0:
        problems.append(f"{name}: u-v never changes sign")
        return problems
    i = int(flips[0])
    crossing = x[i] if d[i] == 0.0 else x[i] - d[i] * (x[i + 1] - x[i]) / (d[i + 1] - d[i])
    if abs(crossing) > tol:
        problems.append(f"{name}: u-v crosses zero at x = {crossing:.3e}")

    s = u[1:-1] + v[1:-1]
    centre = u[n // 2] + v[n // 2]
    if lam < 3.0 and (np.min(s) < 1.0 or not centre > 1.0):
        problems.append(f"{name}: u+v not above 1 (min {np.min(s)!r})")
    if lam > 3.0 and (np.max(s) > 1.0 or not centre < 1.0):
        problems.append(f"{name}: u+v not below 1 (max {np.max(s)!r})")
    if lam == 3.0:
        k = np.tanh(x / math.sqrt(2.0))
        dist = max(float(np.max(np.abs(u - (1.0 + k) / 2.0))), float(np.max(np.abs(v - (1.0 - k) / 2.0))))
        if dist > tol:
            problems.append(f"{name}: distance {dist:.3e} from the tanh front > {tol:.3e}")
    return problems


def check_solve1d(out: Path, lam: float) -> list[str]:
    problems, _ = check_report(out / "report.json")
    return problems + check_front_profile(out / "profile.csv", lam)


def check_sweep(out: Path, lams, h: float) -> list[str]:
    """Every coupling has a valid profile; the coupling-3 energy is sqrt(2)/3."""
    problems = []
    for lam in lams:
        problems += check_front_profile(out / f"profile_lambda_{lam:g}.csv", lam)
    summary = _read_csv(out / "summary.csv", "lambda,min_sum,max_sum,energy,iters")
    if [float(x) for x in summary[:, 0]] != [float(x) for x in lams]:
        problems.append(f"summary.csv couplings {summary[:, 0].tolist()} != {list(lams)}")
    at3 = summary[summary[:, 0] == 3.0, 3]
    if at3.size != 1 or abs(at3[0] - math.sqrt(2.0) / 3.0) > 10.0 * h * h:
        problems.append(f"summary.csv energy at coupling 3 is {at3.tolist()}, expected sqrt(2)/3")
    return problems


def check_verify_1d(out: Path, count: int) -> list[str]:
    problems, _ = check_report(out / "suite_report.json", count)
    return problems


def _constant_energy(lam: float, u: float, v: float, area: float) -> float:
    w = (u * u - 1.0) ** 2 / 4.0 + (v * v - 1.0) ** 2 / 4.0 + 0.5 * lam * u * u * v * v
    return area * (w - PURE_STATE_POTENTIAL)


def check_relax_box(out: Path, lam: float) -> list[str]:
    """A periodic-box relaxation settled on the constant state the theorems name."""
    problems, _ = check_report(out / "report.json")
    name = f"box at lambda {lam:g}"
    data = _read_csv(out / "field.csv", "xp,xn,u,v")
    xp, xn = np.unique(data[:, 0]), np.unique(data[:, 1])
    u, v = data[:, 2], data[:, 3]
    # periodic axes: circumference is n*h
    area = len(xp) * (xp[-1] - xp[0]) / (len(xp) - 1) * len(xn) * (xn[-1] - xn[0]) / (len(xn) - 1)
    if lam < 1.0:
        c = 1.0 / math.sqrt(1.0 + lam)
        dev = max(float(np.max(np.abs(u - c))), float(np.max(np.abs(v - c))))
        if dev > BOX_TOL:
            problems.append(f"{name}: deviation {dev:.3e} from 1/sqrt(1+lambda)")
        state = (c, c)
    else:
        circle = float(np.max(np.abs(u * u + v * v - 1.0)))
        spread = max(float(np.ptp(u)), float(np.ptp(v)))
        if circle > BOX_TOL or spread > BOX_TOL:
            problems.append(f"{name}: circle deviation {circle:.3e}, spread {spread:.3e}")
        state = (float(np.mean(u)), float(np.mean(v)))

    # the step-0 row has no update norm
    trace = _read_csv(out / "energy_trace.csv", "step,energy,update_norm", usecols=(0, 1))
    energy = trace[:, 1]
    rise = float(np.max(np.diff(energy))) if energy.size > 1 else 0.0
    if rise > ENERGY_JUMP_LIMIT:
        problems.append(f"{name}: energy rose by {rise:.3e}")
    expected = _constant_energy(lam, *state, area)
    if abs(energy[-1] - expected) > ENERGY_MATCH_TOL:
        problems.append(f"{name}: final energy {energy[-1]!r} != constant-state energy {expected!r}")
    return problems
