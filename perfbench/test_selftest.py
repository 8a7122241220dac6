"""Self-test of the benchmark: one repetition of each workload, every check on.

Run from the repository root:

    python3 -m pytest -q perfbench/test_selftest.py

It lives outside the tier-1 ``testpaths`` because it takes several seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))


@pytest.mark.parametrize("workload", ["battery", "fronts", "box"])
def test_one_repetition_passes_every_check(workload, tmp_path):
    bench = run.setup(workload, 11, tmp_path / "work")
    bench.rep()
    assert bench.problems == []
    assert (bench.attempted, bench.failed, bench.correct) == (len(bench.ops), 0, True)


def test_traced_repetition_reports_every_layer_metric(tmp_path):
    import gp_rigidity.cli
    import gp_rigidity.model

    main, reaction = gp_rigidity.cli.main, gp_rigidity.model.reaction
    bench = run.setup("box", 11, tmp_path / "work")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        bench.rep(tracer)
    finally:
        tracer.uninstall()
    assert (gp_rigidity.cli.main, gp_rigidity.model.reaction) == (main, reaction)
    metrics = tracer.metrics()
    assert set(metrics) | {"trace.overhead_s"} == set(tracing.LAYER_METRICS)
    assert metrics["cli.main.calls"] == len(bench.ops)
    assert metrics["solvernd.relax_to_steady.calls"] == len(bench.ops)
    # box relaxations evaluate the reaction once per flow step, nowhere else
    assert metrics["model.reaction.calls"] == metrics["solvernd.flow_steps"] > 0
    assert 0.0 < metrics["cli.self_s"] < metrics["cli.main.s"]
    assert metrics["solvernd.line_factor.misses"] == len(bench.ops)


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["cli.main", 0.0, 10.0, -1, 0.0, 0.0],
        ["solver1d.newton_solve", 1.0, 5.0, 0, 0.0, 0.0],
        ["solver1d.solve_banded", 2.0, 3.0, 1, 0.0, 0.0],
        ["solver1d.newton_solve", 6.0, 7.0, 0, 0.0, 0.0],
    ]
    metrics = tracer.metrics()
    assert metrics["cli.self_s"] == 5.0
    assert metrics["solver1d.newton_solve.s"] == 5.0
    assert metrics["solver1d.newton_solve.self_s"] == 4.0
    assert metrics["solver1d.newton_solve.calls"] == 2


def test_front_check_fails_on_a_perturbed_profile(tmp_path):
    bench = run.setup("box", 0, tmp_path / "work")
    out = tmp_path / "solve"
    code, log = bench.run_op(("solve1d", "--lambda", "2.0", "--n", "2001"), out)
    assert code == 0, log
    assert checks.check_solve1d(out, 2.0) == []
    # the same profile read as a solution at another coupling is wrong
    assert any("residual" in p for p in checks.check_solve1d(out, 2.5))
    path = out / "profile.csv"
    lines = path.read_text().splitlines()
    row = lines[1000].split(",")
    row[1] = repr(float(row[1]) + 1e-2)
    lines[1000] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    problems = checks.check_solve1d(out, 2.0)
    assert any("residual" in p for p in problems)
    assert any("increasing" in p for p in problems)


def test_box_check_fails_on_a_wrong_constant(tmp_path):
    bench = run.setup("box", 0, tmp_path / "work")
    out = tmp_path / "relax"
    code, log = bench.run_op(("relax", "--mode", "liouville", "--lambda", "0.5"), out)
    assert code == 0, log
    assert checks.check_relax_box(out, 0.5) == []
    assert any("1/sqrt(1+lambda)" in p for p in checks.check_relax_box(out, 0.25))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "box", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
