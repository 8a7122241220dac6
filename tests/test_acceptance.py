"""Acceptance battery: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import time

import numpy as np

from gp_rigidity import grid, model, solver1d, solvernd, verify
from gp_rigidity.grid import Grid1D
from gp_rigidity.model import Params


def _verdict(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_closed_form_reproduction():
    p = Params(3.0)
    opts = solver1d.SolveOptions()
    g = Grid1D(20.0, 2001)
    t0 = time.perf_counter()
    out = solver1d.newton_solve(p, solver1d.initial_guess(p, g), opts)
    elapsed = time.perf_counter() - t0
    pinned = solver1d.pin_phase(out.profile)
    fu, fv = model.tanh_front(0.0, g.nodes())
    dist = max(np.max(np.abs(pinned.u - fu)), np.max(np.abs(pinned.v - fv)))

    g2 = Grid1D(20.0, 4001)
    out2 = solver1d.newton_solve(p, solver1d.initial_guess(p, g2), opts)
    pinned2 = solver1d.pin_phase(out2.profile)
    fu2, fv2 = model.tanh_front(0.0, g2.nodes())
    dist2 = max(np.max(np.abs(pinned2.u - fu2)), np.max(np.abs(pinned2.v - fv2)))
    ratio = dist / dist2

    ok = (
        out.iterations <= 10
        and dist <= 5e-3
        and 3.0 <= ratio <= 5.0
        and elapsed <= 1.0
    )
    assert _verdict(
        1, ok,
        f"iters={out.iterations}, dist={dist:.3e}, refine ratio={ratio:.2f}, "
        f"runtime={elapsed:.2f}s",
    )


def test_criterion_02_universal_bounds(suite_report):
    report, _ = suite_report
    bound_records = [r for r in report.records if r.theorem.startswith("T1.3-bounds")]
    violations = [r for r in bound_records if not r.passed]
    ok = bound_records and not violations
    assert _verdict(
        2, ok,
        f"{len(bound_records)} bound checks across the battery, {len(violations)} violations",
    )


def test_criterion_03_sum_ordering(solved):
    s2 = solved[2.0].profile.u[1:-1] + solved[2.0].profile.v[1:-1]
    s6 = solved[6.0].profile.u[1:-1] + solved[6.0].profile.v[1:-1]
    s3 = solved[3.0].profile.u + solved[3.0].profile.v
    h = solved[3.0].profile.grid.h
    ok = (
        float(np.min(s2)) > 1.0
        and float(np.max(s6)) < 1.0
        and float(np.max(np.abs(s3 - 1.0))) <= 10 * h * h
    )
    assert _verdict(
        3, ok,
        f"min(u+v)-1={np.min(s2)-1:.2e} at 2, 1-max(u+v)={1-np.max(s6):.2e} at 6, "
        f"max|u+v-1|={np.max(np.abs(s3-1)):.2e} at 3",
    )


def test_criterion_04_monotonicity(solved):
    results = {}
    ok = True
    for lam, out in solved.items():
        min_du, max_dv = grid.check_discrete_monotone(out.profile)
        results[lam] = (min_du, max_dv)
        ok = ok and min_du > 0.0 and max_dv < 0.0
    assert _verdict(
        4, ok,
        ", ".join(f"lam={lam}: minDu={r[0]:.1e}, maxDv={r[1]:.1e}" for lam, r in results.items()),
    )


def test_criterion_05_uniqueness(default_grid, default_opts):
    t0 = time.perf_counter()
    dists = {
        lam: verify.uniqueness_records(Params(lam), default_grid, default_opts, 42)[0].params["max_pairwise_distance"]
        for lam in (2.0, 3.0)
    }
    elapsed = time.perf_counter() - t0
    ok = all(d <= 1e-6 for d in dists.values()) and elapsed <= 10.0
    assert _verdict(
        5, ok,
        f"max pairwise distances {dists[2.0]:.2e} (lam 2), {dists[3.0]:.2e} (lam 3), "
        f"runtime={elapsed:.1f}s",
    )


def test_criterion_06_gibbons_symmetry(gibbons_run):
    outcome, elapsed = gibbons_run
    g_n = outcome.field.grid_n
    ani = solvernd.transverse_anisotropy(outcome.field)
    extracted = solver1d.pin_phase(solvernd.extract_1d(outcome.field, 1e-6))
    ref = solver1d.newton_solve(
        Params(3.0), solver1d.initial_guess(Params(3.0), g_n), solver1d.SolveOptions()
    )
    ref_pin = solver1d.pin_phase(ref.profile)
    dist = max(
        float(np.max(np.abs(extracted.u - ref_pin.u))),
        float(np.max(np.abs(extracted.v - ref_pin.v))),
    )
    ok = ani <= 1e-8 and dist <= 10 * g_n.h**2 and elapsed <= 120.0
    assert _verdict(
        6, ok,
        f"anisotropy={ani:.2e}, profile distance={dist:.2e}, runtime={elapsed:.1f}s",
    )


def test_criterion_07_liouville_sub_unit():
    box = Grid1D(4.0, 32)
    devs = {}
    for lam in (0.25, 0.5, 0.75):
        p = Params(lam)
        out = solvernd.periodic_box_run(p, box, box, solvernd.FlowOptions(), 7)
        c = model.liouville_constant(p)
        devs[lam] = max(
            float(np.max(np.abs(out.field.u - c))), float(np.max(np.abs(out.field.v - c)))
        )
    example = abs(model.liouville_constant(Params(0.5)) - 0.816497) < 1e-6
    ok = all(d <= 1e-6 for d in devs.values()) and example
    assert _verdict(
        7, ok,
        "deviation from 1/sqrt(1+lam): "
        + ", ".join(f"{lam}: {d:.2e}" for lam, d in devs.items()),
    )


def test_criterion_08_liouville_unit():
    box = Grid1D(4.0, 32)
    out = solvernd.periodic_box_run(Params(1.0), box, box, solvernd.FlowOptions(), 7)
    dev = float(np.max(np.abs(out.field.u**2 + out.field.v**2 - 1.0)))
    ok = dev <= 1e-6
    assert _verdict(8, ok, f"max |u^2+v^2-1| = {dev:.2e}")


def test_criterion_09_counterexample(default_grid):
    oks = []
    details = []
    for alpha in (1.0, 4.0):
        rec = verify.verify_counterexample(alpha, default_grid)
        res_const = rec.params["max_interior_residual"] / default_grid.h**2
        oks.append(rec.passed and res_const <= 1.0)
        details.append(f"alpha={alpha}: residual/h^2={res_const:.3f}")
    ok = all(oks)
    assert _verdict(9, ok, "; ".join(details))


def test_criterion_10_model_layer_properties(suite_report):
    rng = np.random.default_rng(99)
    h = 1e-6
    worst_grad = worst_jac = 0.0
    for _ in range(1000):
        p = Params(rng.uniform(0.1, 8.0))
        u, v = rng.uniform(-2.0, 2.0, 2)
        fu, fv = model.reaction(p, u, v)
        gu = -(model.potential(p, u + h, v) - model.potential(p, u - h, v)) / (2 * h)
        gv = -(model.potential(p, u, v + h) - model.potential(p, u, v - h)) / (2 * h)
        worst_grad = max(
            worst_grad,
            abs(gu - fu) / max(1.0, abs(fu)),
            abs(gv - fv) / max(1.0, abs(fv)),
        )
        c1, c2, off = model.jacobian_entries(p, u, v)
        jac = np.array([[c1, off], [off, c2]])
        fu_p = model.reaction(p, u + h, v)
        fu_m = model.reaction(p, u - h, v)
        fv_p = model.reaction(p, u, v + h)
        fv_m = model.reaction(p, u, v - h)
        num = np.array(
            [
                [(fu_p[0] - fu_m[0]) / (2 * h), (fv_p[0] - fv_m[0]) / (2 * h)],
                [(fu_p[1] - fu_m[1]) / (2 * h), (fv_p[1] - fv_m[1]) / (2 * h)],
            ]
        )
        worst_jac = max(worst_jac, float(np.max(np.abs(num - jac) / np.maximum(1.0, np.abs(jac)))))

    u = rng.uniform(-5, 5, 1000)
    v = rng.uniform(-5, 5, 1000)
    w1, w2 = model.ac_decompose(u, v)
    uu, vv = (w1 + w2) / 2.0, (w1 - w2) / 2.0
    round_trip = max(
        float(np.max(np.abs(uu - u) / np.maximum(1.0, np.abs(u)))),
        float(np.max(np.abs(vv - v) / np.maximum(1.0, np.abs(v)))),
    )

    report, _ = suite_report
    energy_records = [r for r in report.records if r.name.endswith("energy-monotone")]
    energy_ok = bool(energy_records) and all(r.passed for r in energy_records)

    ok = worst_grad <= 1e-5 and worst_jac <= 1e-5 and round_trip <= 5e-15 and energy_ok
    assert _verdict(
        10, ok,
        f"grad rel err={worst_grad:.2e}, jac rel err={worst_jac:.2e}, "
        f"round-trip={round_trip:.1e}, {len(energy_records)} monotone energy traces",
    )


def test_criterion_11_suite_runtime_and_determinism(suite_report):
    report, elapsed = suite_report
    # second run of a randomized stage reproduces the records bit for bit
    again = verify.full_suite(verify.SuiteOptions(stages=("uniqueness",)))
    originals = [r for r in report.records if r.name == "uniqueness"]
    deterministic = list(again.records) == originals
    ok = report.overall_pass and elapsed <= 300.0 and deterministic
    assert _verdict(
        "suite", ok,
        f"{len(report.records)} checks all pass, wall clock {elapsed:.1f}s, "
        f"rerun deterministic={deterministic}",
    )
