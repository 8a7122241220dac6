"""Machine-readable rigidity checks and the canonical verification battery.

Each check produces a record naming one entry of the fixed result catalog
(``THEOREM_TAGS``), the measured margin, and the tolerance used.  Margins are
signed: positive means slack, negative the size of the violation, and a
record passes iff margin >= -tolerance.  Strict inequalities carry tolerance
zero; bound and identity checks default to 10*h^2, the discretization order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import grid as gridmod
from . import model
from . import solver1d
from . import solvernd
from .errors import NoCrossing, NonConvergence, RegimeError, SingularJacobian, TooAnisotropic
from .grid import Grid1D, ProfilePair
from .model import Params

REPORT_VERSION = "1"

# Catalog of rigidity statements exercised by the battery.
THEOREM_TAGS = (
    "T1.1-monotone-symmetry",
    "C1.2-uniqueness",
    "T1.3-bounds-i",
    "T1.3-bounds-ii",
    "T1.3-bounds-iii",
    "C1.4-sharp-limit",
    "T-liouville-sub1",
    "T-liouville-eq1",
    "T-lambda3-closedform",
    "T-monot3-i",
    "T-sum-vs-one",
    "P-ac-decomposition",
    "R-counterexample",
)

# Energy traces are mathematically non-increasing; comparisons tolerate
# evaluation roundoff of this absolute size.
ENERGY_ROUNDING_SLACK = 1e-12


@dataclass(frozen=True)
class CheckRecord:
    name: str
    theorem: str
    passed: bool
    margin: float
    tolerance: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.theorem not in THEOREM_TAGS:
            raise ValueError(f"unknown theorem tag {self.theorem!r}")


@dataclass(frozen=True)
class VerifyReport:
    version: str
    seed: int
    records: tuple

    @property
    def overall_pass(self) -> bool:
        """True when every record passes; vacuously true when empty."""
        return all(r.passed for r in self.records)

    @property
    def empty(self) -> bool:
        return len(self.records) == 0

    def failures(self):
        return [r for r in self.records if not r.passed]

    def to_json(self) -> str:
        payload = {
            "version": self.version,
            "seed": self.seed,
            "records": [
                {
                    "name": r.name,
                    "theorem": r.theorem,
                    "pass": r.passed,
                    "margin": r.margin,
                    "tolerance": r.tolerance,
                    "params": r.params,
                }
                for r in self.records
            ],
        }
        return json.dumps(payload, indent=2)

    @staticmethod
    def from_json(text: str) -> "VerifyReport":
        payload = json.loads(text)
        records = tuple(
            CheckRecord(
                name=r["name"],
                theorem=r["theorem"],
                passed=r["pass"],
                margin=r["margin"],
                tolerance=r["tolerance"],
                params=r["params"],
            )
            for r in payload["records"]
        )
        return VerifyReport(version=payload["version"], seed=payload["seed"], records=records)


def _record(name, theorem, margin, tolerance, **params):
    return CheckRecord(
        name=name,
        theorem=theorem,
        passed=bool(margin >= -tolerance),
        margin=float(margin),
        tolerance=float(tolerance),
        params=params,
    )


# margin assigned to checks that could not run (solver error); finite so the
# report stays strict JSON
ERROR_MARGIN = -1e300


def _failure_record(name, theorem, message, **params):
    return CheckRecord(
        name=name,
        theorem=theorem,
        passed=False,
        margin=ERROR_MARGIN,
        tolerance=0.0,
        params={"error": message, **params},
    )


def verify_profile(p: Params, prof: ProfilePair, tolerance: float | None = None) -> list[CheckRecord]:
    """All profile-level checks applicable at this coupling.

    Always: component and sum-of-squares bounds, strict monotonicity, and the
    u+v ordering.  At coupling 3 additionally: distance from the explicit
    front after phase pinning, the v = 1-u identity, and the scalar
    double-well residuals of the sum/difference coordinates.
    """
    h = prof.grid.h
    tol = 10.0 * h * h if tolerance is None else tolerance
    lam = p.lam
    records = []

    bounds = gridmod.check_bounds(p, prof.u, prof.v, tol)
    records.append(
        _record(
            "bounds-component", "T1.3-bounds-i", bounds.component_margin, tol,
            lam=lam, max_abs_u=bounds.max_abs_u, max_abs_v=bounds.max_abs_v,
        )
    )
    ss_tag = "T1.3-bounds-ii" if lam >= 1.0 else "T1.3-bounds-iii"
    records.append(
        _record(
            "bounds-sum-squares", ss_tag, bounds.sum_squares_margin, tol,
            lam=lam, max_sum_squares=bounds.max_sum_squares, bound=bounds.sum_squares_bound,
        )
    )

    min_du, max_dv = gridmod.check_discrete_monotone(prof)
    records.append(
        _record(
            "monotone-profile", "T1.1-monotone-symmetry", min(min_du, -max_dv), 0.0,
            lam=lam, min_forward_diff_u=min_du, max_forward_diff_v=max_dv,
        )
    )

    sum_tol = tol if lam == 3.0 else 0.0
    sum_report = gridmod.check_sum_vs_one(p, prof, sum_tol)
    records.append(
        _record(
            "sum-vs-one", "T-sum-vs-one", sum_report.margin, sum_tol,
            lam=lam, regime=sum_report.regime,
            min_sum=sum_report.min_sum, max_sum=sum_report.max_sum,
        )
    )

    if lam == 3.0:
        records.extend(_special_coupling_checks(prof, tol))
    return records


def _special_coupling_checks(prof: ProfilePair, tol: float) -> list[CheckRecord]:
    x = prof.grid.nodes()
    pinned = solver1d.pin_phase(prof)
    fu, fv = model.tanh_front(0.0, x)
    dist = max(
        float(np.max(np.abs(pinned.u - fu))),
        float(np.max(np.abs(pinned.v - fv))),
    )
    records = [
        _record(
            "front-shape", "T-lambda3-closedform", -dist, 5e-3,
            lam=3.0, sup_distance=dist,
        )
    ]

    dev = float(np.max(np.abs(prof.v - (1.0 - prof.u))))
    records.append(
        _record("complement-identity", "T-monot3-i", -dev, tol, lam=3.0, max_deviation=dev)
    )

    w1, w2 = model.ac_decompose(prof.u, prof.v)
    res = max(_allen_cahn_residual(prof.grid, w1), _allen_cahn_residual(prof.grid, w2))
    records.append(
        _record(
            "allen-cahn-residual", "P-ac-decomposition", -res, tol,
            lam=3.0, max_residual=res,
        )
    )
    return records


def _allen_cahn_residual(g: Grid1D, w: np.ndarray) -> float:
    h2 = g.h**2
    r = (w[:-2] - 2.0 * w[1:-1] + w[2:]) / h2 + model.allen_cahn_reaction(w[1:-1])
    return float(np.max(np.abs(r)))


def verify_sharp_limit(prof: ProfilePair) -> CheckRecord:
    """End-row check that u - v reaches -1 and +1 at the two ends.

    Tolerance combines the discretization order with the tail error left by
    truncating the line to [-L, L].
    """
    L = prof.grid.half_length
    tol = 10.0 * prof.grid.h**2 + float(np.exp(-L))
    defect_left = abs((prof.u[0] - prof.v[0]) + 1.0)
    defect_right = abs((prof.u[-1] - prof.v[-1]) - 1.0)
    defect = max(defect_left, defect_right)
    return _record(
        "sharp-limit", "C1.4-sharp-limit", -defect, tol,
        defect_left=defect_left, defect_right=defect_right, half_length=L,
    )


def verify_counterexample(alpha: float, g: Grid1D) -> CheckRecord:
    """Five-part check of the explicit sign-changing pair at coupling 3.

    Asserts: interior residual at most h^2; u attains both signs; all forward
    differences of u positive; v negative everywhere; forward differences of
    v attain both signs.  Requires alpha > 0.
    """
    if not alpha > 0.0:
        raise ValueError(f"offset must be positive, got {alpha!r}")
    x = g.nodes()
    u, v = model.sign_changing_front(alpha, x)
    prof = ProfilePair(g, u, v)
    ru, rv = gridmod.residual_1d(Params(3.0), prof)
    res = max(float(np.max(np.abs(ru[1:-1]))), float(np.max(np.abs(rv[1:-1]))))
    res_margin = g.h**2 - res

    du = np.diff(u)
    dv = np.diff(v)
    margins = {
        "residual": res_margin,
        "u_sign_change": min(float(np.max(u)), -float(np.min(u))),
        "u_increasing": float(np.min(du)),
        "v_negative": -float(np.max(v)),
        "dv_sign_change": min(float(np.max(dv)), -float(np.min(dv))),
    }
    return _record(
        "counterexample-sign-structure", "R-counterexample",
        min(margins.values()), 0.0,
        alpha=alpha, max_interior_residual=res, **margins,
    )


# ---------------------------------------------------------------------------
# Canonical battery
# ---------------------------------------------------------------------------

ALL_STAGES = ("solves", "uniqueness", "gibbons", "liouville", "counterexample")


@dataclass(frozen=True)
class SuiteOptions:
    """Configuration of :func:`full_suite`; defaults run every stage."""

    seed: int = 0
    stages: tuple = ALL_STAGES
    half_length: float = 20.0
    n: int = 2001
    newton: solver1d.SolveOptions = field(default_factory=solver1d.SolveOptions)
    solve_lams: tuple = (2.0, 3.0, 6.0)
    uniqueness_lams: tuple = (2.0, 3.0)
    uniqueness_seeds: int = 5
    uniqueness_tol: float = 1e-6
    gibbons_transverse: tuple = (4.0, 64)  # (half width, nodes)
    gibbons_axis: tuple = (20.0, 801)
    gibbons_anisotropy_tol: float = 1e-8
    liouville_lams: tuple = (0.25, 0.5, 0.75)
    liouville_box: tuple = (4.0, 32)
    liouville_tol: float = 1e-6
    steady_tol: float = 1e-9
    max_steps: int = 40000
    counterexample_alphas: tuple = (1.0, 4.0)
    jobs: int = 1


def full_suite(opts: SuiteOptions | None = None) -> VerifyReport:
    """Run the enabled stages and assemble a deterministic report.

    Solver failures become failed records with diagnostic text instead of
    propagating.  Stage results are concatenated in the fixed stage order
    regardless of how they were executed.
    """
    opts = opts or SuiteOptions()
    stage_funcs = {
        "solves": _stage_solves,
        "uniqueness": _stage_uniqueness,
        "gibbons": _stage_gibbons,
        "liouville": _stage_liouville,
        "counterexample": _stage_counterexample,
    }
    enabled = [s for s in ALL_STAGES if s in opts.stages]
    if opts.jobs > 1 and len(enabled) > 1:
        import concurrent.futures

        with concurrent.futures.ThreadPoolExecutor(max_workers=opts.jobs) as pool:
            futures = [pool.submit(stage_funcs[s], opts) for s in enabled]
            chunks = [f.result() for f in futures]
    else:
        chunks = [stage_funcs[s](opts) for s in enabled]
    records = tuple(r for chunk in chunks for r in chunk)
    return VerifyReport(version=REPORT_VERSION, seed=opts.seed, records=records)


def _energy_record(name, theorem, outcome, lam):
    jumps = np.diff(np.asarray(outcome.energy_trace))
    worst = float(np.max(jumps)) if jumps.size else 0.0
    return _record(
        name, theorem, -max(worst, 0.0), ENERGY_ROUNDING_SLACK,
        lam=lam, steps=outcome.steps, max_energy_jump=worst,
    )


def _stage_solves(opts: SuiteOptions) -> list[CheckRecord]:
    g = Grid1D(opts.half_length, opts.n)
    records = []
    for lam in opts.solve_lams:
        p = Params(lam)
        try:
            outcome = solver1d.newton_solve(p, g, solver1d.initial_guess(p, g), opts.newton)
        except (NonConvergence, SingularJacobian, RegimeError) as exc:
            records.append(_failure_record("solve", "T-sum-vs-one", str(exc), lam=lam))
            continue
        records.extend(verify_profile(p, outcome.profile))
        records.append(verify_sharp_limit(outcome.profile))
    return records


def _stage_uniqueness(opts: SuiteOptions) -> list[CheckRecord]:
    g = Grid1D(opts.half_length, opts.n)
    records = []
    for i, lam in enumerate(opts.uniqueness_lams):
        p = Params(lam)
        try:
            dist = solver1d.uniqueness_probe(
                p, g, opts.newton, opts.uniqueness_seeds, rng_seed=opts.seed + i
            )
        except (NonConvergence, SingularJacobian) as exc:
            records.append(_failure_record("uniqueness", "C1.2-uniqueness", str(exc), lam=lam))
            continue
        records.append(
            _record(
                "uniqueness", "C1.2-uniqueness", -dist, opts.uniqueness_tol,
                lam=lam, seeds=opts.uniqueness_seeds, max_pairwise_distance=dist,
            )
        )
    return records


def _stage_gibbons(opts: SuiteOptions) -> list[CheckRecord]:
    lam = 3.0
    p = Params(lam)
    grid_t = Grid1D(*opts.gibbons_transverse)
    grid_n = Grid1D(*opts.gibbons_axis)
    flow_opts = solvernd.FlowOptions(
        steady_tol=opts.steady_tol, max_steps=opts.max_steps, rng_seed=opts.seed
    )
    try:
        outcome = solvernd.gibbons_run(p, grid_t, grid_n, flow_opts)
    except NonConvergence as exc:
        return [_failure_record("gibbons-anisotropy", "T1.1-monotone-symmetry", str(exc), lam=lam)]

    records = []
    ani = solvernd.transverse_anisotropy(outcome.field)
    records.append(
        _record(
            "gibbons-anisotropy", "T1.1-monotone-symmetry", -ani,
            opts.gibbons_anisotropy_tol, lam=lam, anisotropy=ani, steps=outcome.steps,
        )
    )

    tol = 10.0 * grid_n.h**2
    try:
        extracted = solver1d.pin_phase(solvernd.extract_1d(outcome.field, 100.0 * opts.gibbons_anisotropy_tol))
        reference = solver1d.newton_solve(p, grid_n, solver1d.initial_guess(p, grid_n), opts.newton)
        ref = solver1d.pin_phase(reference.profile)
        dist = max(
            float(np.max(np.abs(extracted.u - ref.u))),
            float(np.max(np.abs(extracted.v - ref.v))),
        )
        records.append(
            _record(
                "gibbons-profile-match", "T1.1-monotone-symmetry", -dist, tol,
                lam=lam, sup_distance=dist, note="1d-reduction consistency",
            )
        )
        bounds = gridmod.check_bounds(p, outcome.field.u, outcome.field.v, tol)
        records.append(
            _record(
                "gibbons-bounds", "T1.3-bounds-ii", bounds.sum_squares_margin, tol,
                lam=lam, max_sum_squares=bounds.max_sum_squares,
            )
        )
    except (NonConvergence, SingularJacobian, TooAnisotropic, NoCrossing) as exc:
        records.append(_failure_record("gibbons-profile-match", "T1.1-monotone-symmetry", str(exc), lam=lam))
    records.append(_energy_record("gibbons-energy-monotone", "T1.1-monotone-symmetry", outcome, lam))
    return records


def _stage_liouville(opts: SuiteOptions) -> list[CheckRecord]:
    grid_t = Grid1D(*opts.liouville_box)
    grid_n = Grid1D(*opts.liouville_box)
    records = []
    for i, lam in enumerate(opts.liouville_lams):
        p = Params(lam)
        flow_opts = solvernd.FlowOptions(
            steady_tol=opts.steady_tol, max_steps=opts.max_steps, rng_seed=opts.seed + 100 + i
        )
        try:
            outcome = solvernd.periodic_box_run(p, grid_t, grid_n, flow_opts)
        except NonConvergence as exc:
            records.append(_failure_record("liouville-constant", "T-liouville-sub1", str(exc), lam=lam))
            continue
        c = model.liouville_constant(p)
        dev = max(
            float(np.max(np.abs(outcome.field.u - c))),
            float(np.max(np.abs(outcome.field.v - c))),
        )
        records.append(
            _record(
                "liouville-constant", "T-liouville-sub1", -dev, opts.liouville_tol,
                lam=lam, constant=c, max_deviation=dev, steps=outcome.steps,
            )
        )
        tol = 10.0 * grid_n.h**2
        bounds = gridmod.check_bounds(p, outcome.field.u, outcome.field.v, tol)
        records.append(
            _record(
                "liouville-bounds", "T1.3-bounds-iii", bounds.sum_squares_margin, tol,
                lam=lam, max_sum_squares=bounds.max_sum_squares, bound=bounds.sum_squares_bound,
            )
        )
        records.append(_energy_record("liouville-energy-monotone", "T-liouville-sub1", outcome, lam))

    # coupling exactly 1: constants on the unit circle
    p1 = Params(1.0)
    flow_opts = solvernd.FlowOptions(
        steady_tol=opts.steady_tol, max_steps=opts.max_steps, rng_seed=opts.seed + 200
    )
    try:
        outcome = solvernd.periodic_box_run(p1, grid_t, grid_n, flow_opts)
        circle_dev = float(np.max(np.abs(outcome.field.u**2 + outcome.field.v**2 - 1.0)))
        spread = max(
            float(np.ptp(outcome.field.u)),
            float(np.ptp(outcome.field.v)),
        )
        records.append(
            _record(
                "unit-coupling-circle", "T-liouville-eq1", -circle_dev, opts.liouville_tol,
                lam=1.0, max_circle_deviation=circle_dev, steps=outcome.steps,
            )
        )
        records.append(
            _record(
                "unit-coupling-constant", "T-liouville-eq1", -spread, opts.liouville_tol,
                lam=1.0, spatial_spread=spread,
            )
        )
        records.append(_energy_record("unit-coupling-energy-monotone", "T-liouville-eq1", outcome, 1.0))
    except NonConvergence as exc:
        records.append(_failure_record("unit-coupling-circle", "T-liouville-eq1", str(exc), lam=1.0))
    return records


def _stage_counterexample(opts: SuiteOptions) -> list[CheckRecord]:
    g = Grid1D(opts.half_length, opts.n)
    return [verify_counterexample(alpha, g) for alpha in opts.counterexample_alphas]
