import inspect

import numpy as np
import pytest

from gp_rigidity import errors, model, solver1d, verify
from gp_rigidity.errors import SingularJacobian, SolverError
from gp_rigidity.grid import ProfilePair
from gp_rigidity.model import Params
from gp_rigidity.verify import CheckRecord, SuiteOptions, VerifyReport


def test_record_rejects_unknown_tag():
    with pytest.raises(ValueError):
        CheckRecord(name="x", theorem="T-made-up", passed=True, margin=0.0, tolerance=0.0)


def test_report_round_trip(suite_report):
    report, _ = suite_report
    clone = VerifyReport.from_json(report.to_json())
    assert clone == report


def test_full_suite_all_pass(suite_report):
    report, elapsed = suite_report
    assert not report.empty
    assert report.overall_pass, [r.name for r in report.failures()]
    assert elapsed <= 300.0


def test_flow_records_report_rejected_extrapolations(suite_report):
    report, _ = suite_report
    flow = [r for r in report.records if r.name in ("gibbons-anisotropy", "liouville-constant", "unit-coupling-circle")]
    assert len(flow) == 5
    for rec in flow:
        assert isinstance(rec.params["rejected"], int)
        assert 0 <= rec.params["rejected"] < rec.params["steps"]


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
    assert report.empty
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
    with pytest.raises(ValueError):
        verify.verify_counterexample(-1.0, default_grid)


def test_suite_failure_becomes_record():
    # an impossible iteration budget turns into failed records, not an exception
    opts = SuiteOptions(
        stages=("solves",),
        newton=solver1d.SolveOptions(max_iters=1, newton_tol=1e-14),
        n=201,
    )
    report = verify.full_suite(opts)
    assert not report.overall_pass
    assert any("error" in r.params for r in report.failures())
    # a failed solve is charged to the theorem whose front it computes
    assert {r.theorem for r in report.failures() if r.name == "solve"} == {"T1.1-monotone-symmetry"}


def test_singular_jacobian_becomes_record(monkeypatch):
    def singular(p, g, guess, opts):
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
    assert len(ERROR_TYPES) == 7
    assert all(issubclass(cls, SolverError) for cls in ERROR_TYPES)


def _instance(cls):
    """An instance of cls, built with the arguments its signature takes."""
    if cls is SingularJacobian:
        return cls(2.0, 0)
    if cls is errors.ContinuationStall:
        return cls(None, 2.0, [])
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
