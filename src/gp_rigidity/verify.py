"""Machine-readable rigidity checks and the canonical verification battery.

Each check produces a record naming one entry of the fixed result catalog
(``THEOREM_TAGS``), the measured margin, and the tolerance used.  Margins are
signed: positive means slack, negative the size of the violation, and a
record passes iff margin >= -tolerance.  Strict inequalities carry tolerance
zero; bound and identity checks default to 10*h^2, the discretization order.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from . import grid as gridmod
from . import model
from . import solver1d
from . import solvernd
from .errors import NonConvergence, RegimeError, SolverError
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


def _record(name, theorem, margin, tolerance, **params):
    """The one pass rule: a record passes iff margin >= -tolerance."""
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
    return _record(name, theorem, ERROR_MARGIN, 0.0, error=message, **params)


def sum_squares_record(name: str, p: Params, u: np.ndarray, v: np.ndarray, tol: float) -> CheckRecord:
    """Record of u^2+v^2 against its sharp a priori bound: 1 from coupling 1 up, 2/(1+lam) below."""
    if p.lam >= 1.0:
        bound, tag = 1.0, "T1.3-bounds-ii"
    else:
        bound, tag = 2.0 / (p.lam + 1.0), "T1.3-bounds-iii"
    max_ss = float(np.max(u * u + v * v))
    return _record(name, tag, bound - max_ss, tol, lam=p.lam, max_sum_squares=max_ss, bound=bound)


def sum_record(p: Params, prof: ProfilePair) -> CheckRecord:
    """Record of the ordering of u+v against 1 over interior nodes (end rows are data).

    Above coupling 3 the sum must stay below 1, below 3 above 1, both
    strictly (tolerance 0).  At exactly 3 the margin is minus the largest
    |u+v-1|, with tolerance 10*h^2.
    """
    s = prof.u[1:-1] + prof.v[1:-1]
    min_sum = float(np.min(s))
    max_sum = float(np.max(s))
    tol = 0.0
    if p.lam > 3.0:
        regime, margin = "below-one", 1.0 - max_sum
    elif p.lam < 3.0:
        regime, margin = "above-one", min_sum - 1.0
    else:
        h = prof.grid.h
        regime, margin, tol = "equal-one", -float(np.max(np.abs(s - 1.0))), 10.0 * h * h
    return _record(
        "sum-vs-one", "T-sum-vs-one", margin, tol,
        lam=p.lam, regime=regime, min_sum=min_sum, max_sum=max_sum,
    )


def verify_profile(p: Params, prof: ProfilePair) -> list[CheckRecord]:
    """All profile-level checks applicable at this coupling.

    Always: component and sum-of-squares bounds, strict monotonicity, and the
    u+v ordering.  At coupling 3 additionally: distance from the explicit
    front after phase pinning, the v = 1-u identity, and the scalar
    double-well residuals of the sum/difference coordinates.
    """
    h = prof.grid.h
    tol = 10.0 * h * h
    lam = p.lam
    records = []

    max_u = float(np.max(np.abs(prof.u)))
    max_v = float(np.max(np.abs(prof.v)))
    records.append(
        _record(
            "bounds-component", "T1.3-bounds-i", 1.0 - max(max_u, max_v), tol,
            lam=lam, max_abs_u=max_u, max_abs_v=max_v,
        )
    )
    records.append(sum_squares_record("bounds-sum-squares", p, prof.u, prof.v, tol))

    min_du, max_dv = gridmod.check_discrete_monotone(prof)
    records.append(
        _record(
            "monotone-profile", "T1.1-monotone-symmetry", min(min_du, -max_dv), 0.0,
            lam=lam, min_forward_diff_u=min_du, max_forward_diff_v=max_dv,
        )
    )

    records.append(sum_record(p, prof))

    if lam == 3.0:
        records.extend(_special_coupling_checks(prof, tol))
    return records


def _special_coupling_checks(prof: ProfilePair, tol: float) -> list[CheckRecord]:
    x = prof.grid.nodes()
    pinned = solver1d.pin_phase(prof)
    fu, fv = model.tanh_front(0.0, x)
    dist = gridmod._max_norm(pinned.u - fu, pinned.v - fv)
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
    res = gridmod._max_norm(_allen_cahn_residual(prof.grid, w1), _allen_cahn_residual(prof.grid, w2))
    records.append(
        _record(
            "allen-cahn-residual", "P-ac-decomposition", -res, tol,
            lam=3.0, max_residual=res,
        )
    )
    return records


def _allen_cahn_residual(g: Grid1D, w: np.ndarray) -> np.ndarray:
    r = model.allen_cahn_reaction(w)
    gridmod._add_second_difference(r, w, g.h, wrap=False)
    return r[1:-1]


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
    x = g.nodes()
    u, v = model.sign_changing_front(alpha, x)
    prof = ProfilePair(g, u, v)
    ru, rv = gridmod.residual_1d(Params(3.0), prof)
    res = gridmod._max_norm(ru[1:-1], rv[1:-1])
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
# One record builder per experiment, shared by the battery and the CLI
# ---------------------------------------------------------------------------

# Grids and tolerances of the slab and box experiments.
GIBBONS_TRANSVERSE = Grid1D(4.0, 64)
GIBBONS_AXIS = Grid1D(20.0, 801)
GIBBONS_ANISOTROPY_TOL = 1e-8
LIOUVILLE_BOX = Grid1D(4.0, 32)  # both axes of the periodic box
LIOUVILLE_TOL = 1e-6


def _energy_record(name, theorem, outcome, lam):
    """The largest energy step, signed: a trace that falls at every step shows its slack."""
    jumps = np.diff(np.asarray(outcome.energy_trace))
    worst = float(np.max(jumps)) if jumps.size else 0.0
    return _record(
        name, theorem, -worst, ENERGY_ROUNDING_SLACK,
        lam=lam, steps=outcome.steps, max_energy_jump=worst,
    )


def _flow_params(outcome) -> dict:
    """How a relaxation ran, for the first record of each flow experiment."""
    return dict(
        steps=outcome.steps, newton_steps=outcome.newton_steps, rejected=outcome.rejected,
        final_residual=outcome.final_residual,
    )


def solve_records(p: Params, g: Grid1D, newton: solver1d.SolveOptions):
    """Front solve from the standard guess: (records, outcome).

    The records check the profile Newton returned, before phase pinning.
    Newton errors propagate.
    """
    outcome = solver1d.newton_solve(p, solver1d.initial_guess(p, g), newton)
    records = verify_profile(p, outcome.profile)
    records.append(verify_sharp_limit(outcome.profile))
    return records, outcome


def uniqueness_records(p: Params, g: Grid1D, newton: solver1d.SolveOptions, seed: int):
    """Uniqueness modulo translation: [record] of :data:`UNIQUENESS_SEEDS` solves from perturbed guesses.

    Each guess adds uniform noise of amplitude 0.2, drawn from ``seed`` (u, then v), to the interior
    of the standard guess, clipped to [1e-6, 1].  The margin is minus the largest pairwise max-norm
    distance of the pinned solves.  Newton errors propagate, naming the guess.
    """
    rng = np.random.default_rng(seed)
    base = solver1d.initial_guess(p, g)
    profiles = []
    for k in range(UNIQUENESS_SEEDS):
        u = base.u.copy()
        v = base.v.copy()
        u[1:-1] = np.clip(u[1:-1] + rng.uniform(-0.2, 0.2, g.n - 2), 1e-6, 1.0)
        v[1:-1] = np.clip(v[1:-1] + rng.uniform(-0.2, 0.2, g.n - 2), 1e-6, 1.0)
        try:
            outcome = solver1d.newton_solve(p, ProfilePair(g, u, v), newton)
        except NonConvergence as exc:
            raise NonConvergence(f"seed {k} of the uniqueness probe failed: {exc}", outcome=exc.outcome) from exc
        profiles.append(solver1d.pin_phase(outcome.profile))
    pairs = itertools.combinations(profiles, 2)
    dist = max(gridmod._max_norm(a.u - b.u, a.v - b.v) for a, b in pairs)
    return [
        _record(
            "uniqueness", "C1.2-uniqueness", -dist, UNIQUENESS_TOL,
            lam=p.lam, seeds=UNIQUENESS_SEEDS, max_pairwise_distance=dist,
        )
    ]


def gibbons_records(
    p: Params,
    grid_t: Grid1D,
    grid_n: Grid1D,
    flow: solvernd.FlowOptions,
    newton: solver1d.SolveOptions,
    seed: int,
):
    """Slab relaxation of a perturbed front (Gibbons' conjecture) from ``seed``: (records, outcome).

    Checks the transverse anisotropy, the match of the transverse average
    with a 1D Newton front, the a priori bound and the energy trace.  Flow
    errors propagate; a reference solve or extraction that fails becomes a
    failed profile-match record.
    """
    if p.lam <= 1.0:
        raise RegimeError(f"slab fronts need coupling > 1, got {p.lam}")
    outcome = solvernd.gibbons_run(p, grid_t, grid_n, flow, seed)
    lam = p.lam
    ani = solvernd.transverse_anisotropy(outcome.field)
    records = [
        _record(
            "gibbons-anisotropy", "T1.1-monotone-symmetry", -ani,
            GIBBONS_ANISOTROPY_TOL, lam=lam, anisotropy=ani, **_flow_params(outcome),
        )
    ]

    tol = 10.0 * grid_n.h**2
    try:
        extracted = solver1d.pin_phase(solvernd.extract_1d(outcome.field, 100.0 * GIBBONS_ANISOTROPY_TOL))
        reference = solver1d.newton_solve(p, solver1d.initial_guess(p, grid_n), newton)
        ref = solver1d.pin_phase(reference.profile)
        dist = gridmod._max_norm(extracted.u - ref.u, extracted.v - ref.v)
        records.append(
            _record(
                "gibbons-profile-match", "T1.1-monotone-symmetry", -dist, tol,
                lam=lam, sup_distance=dist, note="1d-reduction consistency",
            )
        )
        records.append(sum_squares_record("gibbons-bounds", p, outcome.field.u, outcome.field.v, tol))
    except SolverError as exc:
        records.append(_failure_record("gibbons-profile-match", "T1.1-monotone-symmetry", str(exc), lam=lam))
    records.append(_energy_record("gibbons-energy-monotone", "T1.1-monotone-symmetry", outcome, lam))
    return records, outcome


def liouville_records(p: Params, box: Grid1D, flow: solvernd.FlowOptions, seed: int):
    """Relaxation below coupling 1 on the periodic box ``box`` x ``box`` from ``seed``: (records, outcome).

    Checks constancy at 1/sqrt(1+lam), the sub-unit a priori bound and the
    energy trace.  Raises RegimeError unless 0 < lam < 1; flow errors
    propagate.
    """
    c = model.liouville_constant(p)
    outcome = solvernd.periodic_box_run(p, box, box, flow, seed)
    lam = p.lam
    dev = gridmod._max_norm(outcome.field.u - c, outcome.field.v - c)
    records = [
        _record(
            "liouville-constant", "T-liouville-sub1", -dev, LIOUVILLE_TOL,
            lam=lam, constant=c, max_deviation=dev, **_flow_params(outcome),
        ),
        sum_squares_record("liouville-bounds", p, outcome.field.u, outcome.field.v, 10.0 * box.h**2),
        _energy_record("liouville-energy-monotone", "T-liouville-sub1", outcome, lam),
    ]
    return records, outcome


def unit_coupling_records(box: Grid1D, flow: solvernd.FlowOptions, seed: int):
    """Relaxation at coupling exactly 1 on the periodic box ``box`` x ``box`` from ``seed``: (records, outcome).

    Checks that the state is a constant on the unit circle and the energy
    trace.  Flow errors propagate.
    """
    outcome = solvernd.periodic_box_run(Params(1.0), box, box, flow, seed)
    circle_dev = float(np.max(np.abs(outcome.field.u**2 + outcome.field.v**2 - 1.0)))
    spread = solvernd.spatial_spread(outcome.field)
    records = [
        _record(
            "unit-coupling-circle", "T-liouville-eq1", -circle_dev, LIOUVILLE_TOL,
            lam=1.0, max_circle_deviation=circle_dev, **_flow_params(outcome),
        ),
        _record(
            "unit-coupling-constant", "T-liouville-eq1", -spread, LIOUVILLE_TOL,
            lam=1.0, spatial_spread=spread,
        ),
        _energy_record("unit-coupling-energy-monotone", "T-liouville-eq1", outcome, 1.0),
    ]
    return records, outcome


# ---------------------------------------------------------------------------
# Canonical battery
# ---------------------------------------------------------------------------

ALL_STAGES = ("solves", "uniqueness", "gibbons", "liouville", "counterexample")

SOLVE_LAMS = (2.0, 3.0, 6.0)
UNIQUENESS_LAMS = (2.0, 3.0)
UNIQUENESS_SEEDS = 5
UNIQUENESS_TOL = 1e-6
LIOUVILLE_LAMS = (0.25, 0.5, 0.75)
COUNTEREXAMPLE_ALPHAS = (1.0, 4.0)


@dataclass(frozen=True)
class SuiteOptions:
    """Configuration of :func:`full_suite`; defaults run every stage.

    ``grid`` is the 1D grid of the solves, uniqueness and counterexample
    stages; the slab and box stages run on their own fixed grids.
    """

    seed: int = 0
    stages: tuple = ALL_STAGES
    grid: Grid1D = Grid1D(20.0, 2001)
    newton: solver1d.SolveOptions = solver1d.SolveOptions()
    flow: solvernd.FlowOptions = solvernd.FlowOptions()

    def __post_init__(self):
        unknown = [s for s in self.stages if s not in ALL_STAGES]
        if unknown:
            raise ValueError(f"stages: unknown stage names {unknown}")


def full_suite(opts: SuiteOptions | None = None) -> VerifyReport:
    """Run the enabled stages and assemble a deterministic report.

    Each stage calls its record builders through :func:`_guarded`, so a
    solver error becomes one failed record with diagnostic text instead of
    propagating.  Stage results are concatenated in the fixed stage order.
    """
    opts = opts or SuiteOptions()
    stage_funcs = {
        "solves": _stage_solves,
        "uniqueness": _stage_uniqueness,
        "gibbons": _stage_gibbons,
        "liouville": _stage_liouville,
        "counterexample": _stage_counterexample,
    }
    records = tuple(r for s in ALL_STAGES if s in opts.stages for r in stage_funcs[s](opts))
    return VerifyReport(version=REPORT_VERSION, seed=opts.seed, records=records)


def _guarded(name, theorem, lam, build) -> list[CheckRecord]:
    """The records of build(), or one failed record ``name`` when a solver error stops it."""
    try:
        return build()
    except SolverError as exc:
        return [_failure_record(name, theorem, str(exc), lam=lam)]


def _stage_solves(opts: SuiteOptions) -> list[CheckRecord]:
    records = []
    for lam in SOLVE_LAMS:
        records += _guarded(
            "solve", "T1.1-monotone-symmetry", lam,
            lambda: solve_records(Params(lam), opts.grid, opts.newton)[0],
        )
    return records


def _stage_uniqueness(opts: SuiteOptions) -> list[CheckRecord]:
    records = []
    for i, lam in enumerate(UNIQUENESS_LAMS):
        records += _guarded(
            "uniqueness", "C1.2-uniqueness", lam,
            lambda: uniqueness_records(Params(lam), opts.grid, opts.newton, opts.seed + i),
        )
    return records


def _stage_gibbons(opts: SuiteOptions) -> list[CheckRecord]:
    return _guarded(
        "gibbons-anisotropy", "T1.1-monotone-symmetry", 3.0,
        lambda: gibbons_records(Params(3.0), GIBBONS_TRANSVERSE, GIBBONS_AXIS, opts.flow, opts.newton, opts.seed)[0],
    )


def _stage_liouville(opts: SuiteOptions) -> list[CheckRecord]:
    records = []
    for i, lam in enumerate(LIOUVILLE_LAMS):
        records += _guarded(
            "liouville-constant", "T-liouville-sub1", lam,
            lambda: liouville_records(Params(lam), LIOUVILLE_BOX, opts.flow, opts.seed + 100 + i)[0],
        )
    return records + _guarded(
        "unit-coupling-circle", "T-liouville-eq1", 1.0,
        lambda: unit_coupling_records(LIOUVILLE_BOX, opts.flow, opts.seed + 200)[0],
    )


def _stage_counterexample(opts: SuiteOptions) -> list[CheckRecord]:
    return _guarded(
        "counterexample-sign-structure", "R-counterexample", 3.0,
        lambda: [verify_counterexample(alpha, opts.grid) for alpha in COUNTEREXAMPLE_ALPHAS],
    )
