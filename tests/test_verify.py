import inspect
from types import SimpleNamespace

import numpy as np
import pytest

from gp_rigidity import errors, model, solver1d, solvernd, verify
from gp_rigidity.errors import SingularJacobian, SolverError
from gp_rigidity.grid import Grid1D, ProfilePair
from gp_rigidity.model import Params
from gp_rigidity.verify import CheckRecord, SuiteOptions


def bounds_records(p: Params, u, v) -> dict:
    """verify_profile's two bounds records for the pair (u, v), by name."""
    prof = ProfilePair(Grid1D(1.0, len(u)), u, v)
    return {r.name: r for r in verify.verify_profile(p, prof) if r.name.startswith("bounds-")}


def test_bounds_records_equalities():
    # coupling 1: (1/sqrt2, 1/sqrt2) meets u^2+v^2 = 1 exactly
    recs = bounds_records(Params(1.0), np.full(3, 2**-0.5), np.full(3, 2**-0.5))
    assert min(r.margin for r in recs.values()) >= -1e-12
    assert abs(recs["bounds-sum-squares"].margin) < 1e-15
    assert recs["bounds-sum-squares"].theorem == "T1.3-bounds-ii"
    # sub-unit coupling: the mixed constant meets 2/(1+lam) exactly
    p = Params(0.5)
    c = model.liouville_constant(p)
    recs = bounds_records(p, np.full(3, c), np.full(3, c))
    assert min(r.margin for r in recs.values()) >= -1e-12
    assert recs["bounds-sum-squares"].params["bound"] == 2.0 / 1.5
    assert recs["bounds-sum-squares"].theorem == "T1.3-bounds-iii"
    assert abs(recs["bounds-sum-squares"].margin) < 1e-15


def test_bounds_records_violation_margin():
    recs = bounds_records(Params(2.0), np.array([1.1, 0.2, 0.2]), np.array([0.0, 0.1, 0.1]))
    assert min(r.margin for r in recs.values()) < -1e-3
    assert abs(recs["bounds-component"].margin + 0.1) < 1e-15


def test_sum_squares_record_picks_the_bound_of_the_experiment():
    # the slab and box records take their bound and tag from the one builder
    u = np.full((2, 3), 0.5)
    slab = verify.sum_squares_record("gibbons-bounds", Params(3.0), u, u, 0.0)
    assert (slab.theorem, slab.params["bound"], slab.margin) == ("T1.3-bounds-ii", 1.0, 0.5)
    box = verify.sum_squares_record("liouville-bounds", Params(0.25), u, u, 0.0)
    assert (box.theorem, box.params["bound"], box.margin) == ("T1.3-bounds-iii", 1.6, 1.6 - 0.5)


def test_sum_record_regimes():
    g = Grid1D(20.0, 401)
    prof = ProfilePair(g, *model.tanh_front(0.0, g.nodes()))
    rec = verify.sum_record(Params(3.0), prof)
    assert rec.params["regime"] == "equal-one" and rec.margin >= -1e-12
    assert rec.tolerance == 10.0 * g.h * g.h
    # synthetic profiles on either side of 1
    up = ProfilePair(g, prof.u, np.clip(prof.v + 0.05, 0, 1))
    rec = verify.sum_record(Params(2.0), up)
    assert rec.params["regime"] == "above-one" and rec.margin >= 0.0 and rec.tolerance == 0.0
    down = ProfilePair(g, prof.u * 0.9, prof.v * 0.9)
    rec = verify.sum_record(Params(6.0), down)
    assert rec.params["regime"] == "below-one" and rec.margin >= 0.0 and rec.tolerance == 0.0
    rec_bad = verify.sum_record(Params(6.0), up)
    assert rec_bad.margin < 0.0 and not rec_bad.passed


def test_record_rejects_unknown_tag():
    with pytest.raises(ValueError):
        CheckRecord(name="x", theorem="T-made-up", passed=True, margin=0.0, tolerance=0.0)


@pytest.mark.parametrize(
    "field, value, message",
    [("max_steps", 0, "max_steps: must be at least 1, got 0"),
     ("max_steps", -5, "max_steps: must be at least 1, got -5"),
     ("steady_tol", 0.0, "steady_tol: must be positive, got 0.0")],
)
def test_suite_options_check_the_flow_options_up_front(field, value, message):
    # the flow options refuse the value as they are built, before any stage
    # runs and also where no flow stage runs, so a bad value never passes silently
    with pytest.raises(ValueError, match=f"^{message}$"):
        SuiteOptions(stages=("solves",), flow=solvernd.FlowOptions(**{field: value}))


def test_full_suite_all_pass(suite_report):
    report, elapsed = suite_report
    assert report.records
    assert report.overall_pass, [r.name for r in report.failures()]
    assert elapsed <= 300.0


def test_flow_records_report_rejected_extrapolations(suite_report):
    report, _ = suite_report
    flow = [r for r in report.records if r.name in ("gibbons-anisotropy", "liouville-constant", "unit-coupling-circle")]
    assert len(flow) == 5
    for rec in flow:
        assert isinstance(rec.params["rejected"], int)
        assert 0 <= rec.params["rejected"] < rec.params["steps"]
        # the Dirichlet slab and the periodic boxes all take the Newton finish
        assert isinstance(rec.params["newton_steps"], int)
        assert rec.params["newton_steps"] >= 1


def test_energy_record_margin_is_the_signed_largest_step():
    def outcome(trace):
        return SimpleNamespace(energy_trace=tuple(trace), steps=len(trace) - 1)

    falling = verify._energy_record("e", "T-liouville-sub1", outcome([3.0, 2.0, 1.5, 1.25]), 0.5)
    assert falling.passed and falling.margin == 0.25 == -falling.params["max_energy_jump"]
    risen = verify._energy_record("e", "T-liouville-sub1", outcome([3.0, 2.0, 2.0 + 2e-12, 1.0]), 0.5)
    assert not risen.passed and risen.margin < -verify.ENERGY_ROUNDING_SLACK
    level = verify._energy_record("e", "T-liouville-sub1", outcome([1.0, 1.0]), 0.5)
    assert level.passed and level.margin == 0.0


def test_battery_energy_records_show_slack(suite_report):
    # the margin is minus the largest energy step; the slab trace falls at every
    # step, so its margin is positive (a box trace may end on a Newton step that
    # leaves the energy unchanged to the bit, and then reads 0)
    report, _ = suite_report
    energy = [r for r in report.records if r.name.endswith("energy-monotone")]
    assert len(energy) == 5
    for rec in energy:
        assert rec.margin == -rec.params["max_energy_jump"]
    assert {r.name: r for r in energy}["gibbons-energy-monotone"].margin > 0.0


def test_full_suite_exercises_every_tag(suite_report):
    report, _ = suite_report
    seen = {r.theorem for r in report.records}
    assert seen == set(verify.THEOREM_TAGS)


def test_full_suite_deterministic_stage(suite_report):
    # a stage rerun with the same options reproduces its records exactly
    report, _ = suite_report
    again = verify.full_suite(SuiteOptions(stages=("counterexample",)))
    originals = [r for r in report.records if r.name == "counterexample-sign-structure"]
    assert list(again.records) == originals


def test_empty_battery_vacuous():
    report = verify.full_suite(SuiteOptions(stages=()))
    assert not report.records
    assert report.overall_pass


def test_verify_profile_special_coupling(solved):
    records = verify.verify_profile(Params(3.0), solved[3.0].profile)
    by_name = {r.name: r for r in records}
    assert by_name["bounds-component"].passed
    assert by_name["bounds-sum-squares"].theorem == "T1.3-bounds-ii"
    assert by_name["monotone-profile"].passed
    assert by_name["sum-vs-one"].params["regime"] == "equal-one"
    assert by_name["sum-vs-one"].passed
    assert by_name["front-shape"].passed
    assert -by_name["front-shape"].margin <= 5e-3
    assert by_name["complement-identity"].passed
    assert by_name["allen-cahn-residual"].passed
    assert -by_name["allen-cahn-residual"].margin <= 10 * solved[3.0].profile.grid.h ** 2


@pytest.mark.parametrize("n", [2000, 2001])
def test_front_shape_measures_the_solved_front_unpinned(n):
    # on the even grid no node sits at x = 0, so resampling the front would move its bits
    records, outcome = verify.solve_records(Params(3.0), Grid1D(20.0, n), solver1d.SolveOptions())
    prof = outcome.profile
    fu, fv = model.tanh_front(0.0, prof.grid.nodes())
    expected = max(float(np.max(np.abs(prof.u - fu))), float(np.max(np.abs(prof.v - fv))))
    assert {r.name: r for r in records}["front-shape"].params["sup_distance"] == expected


def test_verify_profile_super_coupling(solved):
    records = verify.verify_profile(Params(6.0), solved[6.0].profile)
    names = {r.name for r in records}
    # no special-coupling records away from coupling 3
    assert "front-shape" not in names
    assert "complement-identity" not in names
    by_name = {r.name: r for r in records}
    assert by_name["sum-vs-one"].passed
    assert by_name["sum-vs-one"].params["regime"] == "below-one"


def test_verify_profile_corrupted_bounds(solved):
    prof = solved[2.0].profile
    u = prof.u.copy()
    u[prof.grid.n // 2] = 1.5
    bad = ProfilePair(prof.grid, u, prof.v)
    records = verify.verify_profile(Params(2.0), bad)
    rec = {r.name: r for r in records}["bounds-component"]
    assert not rec.passed
    assert abs(rec.margin + 0.5) < 1e-12


def test_margin_sign_convention():
    rec = verify._record("x", "T1.3-bounds-i", -0.5, 0.1)
    assert not rec.passed  # violation of 0.5 with tolerance 0.1
    rec = verify._record("x", "T1.3-bounds-i", -0.05, 0.1)
    assert rec.passed  # within tolerance
    rec = verify._record("x", "T1.3-bounds-i", 0.2, 0.0)
    assert rec.passed  # slack


def test_sharp_limit_closed_form(default_grid):
    u, v = model.tanh_front(0.0, default_grid.nodes())
    rec = verify.verify_sharp_limit(ProfilePair(default_grid, u, v))
    assert rec.passed
    assert abs(rec.margin) <= 1e-8


def test_sharp_limit_constant_fails(default_grid):
    prof = ProfilePair(default_grid, np.full(default_grid.n, 0.5), np.full(default_grid.n, 0.5))
    rec = verify.verify_sharp_limit(prof)
    assert not rec.passed
    assert abs(rec.params["defect_left"] - 1.0) < 1e-15


def test_counterexample_records(default_grid):
    for alpha in (1.0, 4.0):
        rec = verify.verify_counterexample(alpha, default_grid)
        assert rec.passed, rec.params
        assert rec.params["max_interior_residual"] <= default_grid.h**2


def test_counterexample_rejects_bad_offset(default_grid):
    for alpha in (-1.0, 0.0, float("nan")):
        with pytest.raises(ValueError, match="offset must be positive"):
            verify.verify_counterexample(alpha, default_grid)


def test_suite_failure_becomes_record():
    # an impossible iteration budget turns into failed records, not an exception
    opts = SuiteOptions(
        stages=("solves",),
        newton=solver1d.SolveOptions(max_iters=1, newton_tol=1e-14),
        grid=Grid1D(20.0, 201),
    )
    report = verify.full_suite(opts)
    assert not report.overall_pass
    assert any("error" in r.params for r in report.failures())
    # a failed solve is charged to the theorem whose front it computes
    assert {r.theorem for r in report.failures() if r.name == "solve"} == {"T1.1-monotone-symmetry"}


def test_singular_jacobian_becomes_record(monkeypatch):
    def singular(p, guess, opts):
        raise SingularJacobian(p.lam, 0)

    monkeypatch.setattr(solver1d, "newton_solve", singular)
    report = verify.full_suite(SuiteOptions(stages=("solves", "uniqueness")))
    assert report.records
    assert not any(r.passed for r in report.records)
    assert all("singular linearization" in r.params["error"] for r in report.records)


ERROR_TYPES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, BaseException) and cls.__module__ == errors.__name__
]


def test_every_error_type_is_a_solver_error():
    assert len(ERROR_TYPES) == 6
    assert all(issubclass(cls, SolverError) for cls in ERROR_TYPES)


def _instance(cls):
    """An instance of cls, built with the arguments its signature takes."""
    if cls is SingularJacobian:
        return cls(2.0, 0)
    return cls(f"{cls.__name__} raised by a builder")


# stage -> builders it calls and the (name, theorem, lam) of the failed
# record each builder call becomes
STAGE_FAILURES = {
    "solves": (("solve_records",), [("solve", "T1.1-monotone-symmetry", lam) for lam in verify.SOLVE_LAMS]),
    "uniqueness": (
        ("uniqueness_records",),
        [("uniqueness", "C1.2-uniqueness", lam) for lam in verify.UNIQUENESS_LAMS],
    ),
    "gibbons": (("gibbons_records",), [("gibbons-anisotropy", "T1.1-monotone-symmetry", 3.0)]),
    "liouville": (
        ("liouville_records", "unit_coupling_records"),
        [("liouville-constant", "T-liouville-sub1", lam) for lam in verify.LIOUVILLE_LAMS]
        + [("unit-coupling-circle", "T-liouville-eq1", 1.0)],
    ),
    "counterexample": (
        ("verify_counterexample",),
        [("counterexample-sign-structure", "R-counterexample", 3.0)],
    ),
}


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("stage", verify.ALL_STAGES)
def test_stage_turns_each_solver_error_into_one_failed_record(monkeypatch, stage, cls):
    exc = _instance(cls)

    def failing(*args, **kwargs):
        raise exc

    builders, expected = STAGE_FAILURES[stage]
    for builder in builders:
        monkeypatch.setattr(verify, builder, failing)
    report = verify.full_suite(SuiteOptions(stages=(stage,)))
    assert [(r.name, r.theorem, r.params["lam"]) for r in report.records] == expected
    for rec in report.records:
        assert not rec.passed
        assert rec.margin == verify.ERROR_MARGIN
        assert rec.params["error"] == str(exc)


def test_liouville_records_hold_near_coupling_one():
    # at coupling 0.9999 the antisymmetric constant mode decays at rate
    # 2(1 - lam)/(1 + lam) = 1e-4, so a flow that stops at residual 1e-9 can sit
    # 1e-5 from the constant; the Newton finish removes that mode
    box = verify.LIOUVILLE_BOX
    for seed in range(20):
        records, outcome = verify.liouville_records(Params(0.9999), box, solvernd.FlowOptions(), seed)
        assert all(r.passed for r in records), (seed, [(r.name, r.margin) for r in records if not r.passed])
        assert outcome.newton_steps >= 1
