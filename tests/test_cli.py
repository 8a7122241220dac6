import argparse
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gp_rigidity import cli, verify
from gp_rigidity.cli import EXIT_CHECK_FAILED, EXIT_ERROR, EXIT_OK
from gp_rigidity.grid import Grid1D


def run(argv):
    return cli.main(argv)


def test_solve1d_default(tmp_path):
    out = tmp_path / "run"
    assert run(["solve1d", "--lambda", "3", "--out", str(out)]) == EXIT_OK
    # the JSON sidecar is the only config file written
    assert sorted(p.name for p in out.iterdir()) == ["profile.csv", "report.json", "solve1d.config.json"]
    report = json.loads((out / "report.json").read_text())
    assert report["records"] and all(r["pass"] for r in report["records"])


def test_solve1d_refuses_sub_unit(tmp_path, capsys):
    code = run(["solve1d", "--lambda", "0.5", "--out", str(tmp_path)])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert "constant pair" in err
    assert "T-liouville-sub1" in err


def test_solve1d_overflowing_coupling_is_a_solver_error(tmp_path, capsys):
    # the linearization overflows at coupling 1e308, so the Newton step is not finite
    code = run(["solve1d", "--lambda", "1e308", "--n", "201", "--out", str(tmp_path)])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("solver error:")
    assert "non-finite linearization or Newton step at coupling 1e+308 (iteration 0)" in err
    assert "config error" not in err


def test_solve1d_overflowing_coupling_prints_no_numpy_warning(tmp_path, fresh_python):
    # neither the inf * 0 in the overflowing Jacobian (1e308) nor the
    # overflowing trial residuals of the backtracking (1e150) may put a
    # RuntimeWarning ahead of the diagnosis on a real stderr
    for lam in ("1e308", "1e150"):
        argv = ["solve1d", "--lambda", lam, "--n", "201", "--out", str(tmp_path)]
        done = fresh_python(f"import sys\nfrom gp_rigidity import cli\nsys.exit(cli.main({argv!r}))\n")
        assert done.returncode == EXIT_ERROR
        assert done.stderr.startswith("solver error:"), done.stderr
        assert "RuntimeWarning" not in done.stderr


# a flow step whose coupling overflows yields a non-finite field
OVERFLOWING_FLOWS = [
    (["relax", "--mode", "gibbons", "--lambda", "1e308", "--max-steps", "5"], "coupling 1e+308"),
]


@pytest.mark.parametrize("argv, where", OVERFLOWING_FLOWS, ids=["lambda"])
def test_relax_overflowing_flow_is_a_solver_error(tmp_path, capsys, argv, where):
    assert run([*argv, "--out", str(tmp_path)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("solver error:"), err
    assert f"flow step at {where}: u: non-finite entries rejected" in err


@pytest.mark.parametrize("argv, where", OVERFLOWING_FLOWS, ids=["lambda"])
def test_relax_overflowing_flow_prints_no_numpy_warning(tmp_path, fresh_python, argv, where):
    argv = [*argv, "--out", str(tmp_path)]
    done = fresh_python(f"import sys\nfrom gp_rigidity import cli\nsys.exit(cli.main({argv!r}))\n")
    assert done.returncode == EXIT_ERROR
    assert done.stderr.startswith("solver error:"), done.stderr
    assert "RuntimeWarning" not in done.stderr


# the only scipy modules a fresh command may load: none before any work is
# done, the compiled LAPACK module in the 1D commands, pocketfft in the
# periodic-box relaxations, and both where a Dirichlet slab runs (the flow
# transforms, the Newton finish band-solves); never a scipy package
# (scipy.linalg, scipy.fft, scipy.special, scipy._lib's array-API layer)
LAPACK = {"scipy.linalg._flapack"}
FFT = {"scipy.fft._pocketfft.pypocketfft"}


@pytest.mark.parametrize(
    "argv, allowed",
    [
        (None, set()),
        (["verify", "--list-checks"], set()),
        (["solve1d", "--n", "201"], LAPACK),
        (["sweep", "--n", "201"], LAPACK),
        (["verify", "--stages", "solves,counterexample", "--n", "401"], LAPACK),
        (["relax", "--mode", "liouville"], FFT),
        (["relax", "--mode", "lambda1"], FFT),
        (["relax", "--mode", "gibbons", "--n", "201"], LAPACK | FFT),
        (["verify", "--n", "401", "--stages", "solves,liouville,counterexample"], LAPACK | FFT),
    ],
    ids=[
        "import",
        "list-checks",
        "solve1d",
        "sweep",
        "verify-1d",
        "relax-liouville",
        "relax-lambda1",
        "relax-gibbons",
        "verify-liouville",
    ],
)
def test_command_loads_only_the_scipy_it_runs(tmp_path, fresh_python, argv, allowed):
    script = "import json, sys\nfrom gp_rigidity import cli\n"
    if argv is not None:
        script += f"assert cli.main({[*argv, '--out', str(tmp_path)]!r}) == 0\n"
    script += "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))\n"
    done = fresh_python(script)
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout.splitlines()[-1]))
    assert loaded == allowed


@pytest.mark.parametrize(
    "argv, loads",
    [(None, False), (["verify", "--seed", "0"], False), (["solve1d", "--n", "201"], True)],
    ids=["import", "verify", "solve1d"],
)
def test_only_csv_writing_commands_load_orjson(tmp_path, fresh_python, argv, loads):
    script = "import sys\nfrom gp_rigidity import cli\n"
    if argv is not None:
        script += f"assert cli.main({[*argv, '--out', str(tmp_path)]!r}) == 0\n"
    script += "print('orjson' in sys.modules)\n"
    done = fresh_python(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == str(loads)


def test_solve1d_config_error_names_field(tmp_path, capsys):
    code = run(["solve1d", "--lambda", "3", "--n", "2", "--out", str(tmp_path)])
    assert code == EXIT_ERROR
    assert "n:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, outputs, lam",
    [
        (["solve1d", "--lambda", "2.5", "--L", "15", "--n", "1001"], ["profile.csv", "report.json"], 2.5),
        (
            ["relax", "--mode", "liouville", "--lambda", "0.5", "--seed", "7"],
            ["field.csv", "energy_trace.csv", "report.json"],
            0.5,
        ),
        # the unit-coupling run reads no coupling, so its sidecar records none
        (["relax", "--mode", "lambda1", "--seed", "200"], ["field.csv", "energy_trace.csv", "report.json"], None),
        (["relax", "--mode", "gibbons", "--seed", "3"], ["field.csv", "energy_trace.csv", "report.json"], 3.0),
        # the battery takes no coupling, so its sidecar records none
        (["verify", "--stages", "gibbons,liouville"], ["suite_report.json"], None),
    ],
    ids=["solve1d", "relax-liouville", "relax-lambda1", "relax-gibbons", "verify-gibbons-liouville"],
)
def test_solve1d_rerun_from_sidecar_is_byte_identical(tmp_path, argv, outputs, lam):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run([*argv, "--out", str(out1)]) == EXIT_OK
    sidecar = out1 / f"{argv[0]}.config.json"
    assert json.loads(sidecar.read_text()).get("lam") == lam
    assert run([argv[0], "--config", str(sidecar), "--out", str(out2)]) == EXIT_OK
    for name in outputs:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def _records(path):
    return json.loads(path.read_text())["records"]


def test_commands_report_the_battery_records(tmp_path):
    # one record builder per experiment: each command writes exactly the
    # records the battery writes for the same experiment and flow seed
    assert run(["verify", "--stages", "solves,gibbons,liouville", "--seed", "0", "--out", str(tmp_path / "v")]) == EXIT_OK
    battery = _records(tmp_path / "v" / "suite_report.json")
    first_solve = battery[: [r["name"] for r in battery].index("sharp-limit") + 1]
    assert all(r["params"].get("lam", 2.0) == 2.0 for r in first_solve)
    expected = {
        ("solve1d", "--lambda", "2"): first_solve,
        ("relax", "--mode", "gibbons", "--seed", "0"): [r for r in battery if r["name"].startswith("gibbons-")],
        ("relax", "--mode", "liouville", "--lambda", "0.25", "--seed", "100"): [
            r for r in battery if r["name"].startswith("liouville-") and r["params"]["lam"] == 0.25
        ],
        ("relax", "--mode", "lambda1", "--seed", "200"): [
            r for r in battery if r["name"].startswith("unit-coupling-")
        ],
    }
    for k, (argv, records) in enumerate(expected.items()):
        out = tmp_path / str(k)
        assert run([*argv, "--out", str(out)]) == EXIT_OK
        assert len(records) >= 3
        assert _records(out / "report.json") == records, argv


def test_key_value_config_file(tmp_path, capsys):
    # JSON is the one config format; the former key = value text is not read
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nlam = 3.0\nn = 801\nhalf_length = 15.0\n")
    out = tmp_path / "out"
    assert run(["solve1d", "--config", str(cfg), "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith(f"config error: {cfg}: not a JSON file: ")
    assert not out.exists()


@pytest.mark.parametrize("text", ["[3.0, 801]", '"lam = 3.0"', "3.0", "null"])
def test_config_file_that_is_not_a_json_object_is_a_config_error(tmp_path, capsys, text):
    cfg = tmp_path / "run.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run(["solve1d", "--config", str(cfg), "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"config error: {cfg}: not a JSON object\n"
    assert not out.exists()


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"lam": 2.0, "n": 801}')
    out = tmp_path / "out"
    assert run(["solve1d", "--config", str(cfg), "--lambda", "3.0", "--out", str(out)]) == EXIT_OK
    resolved = json.loads((out / "solve1d.config.json").read_text())
    assert resolved["lam"] == 3.0 and resolved["n"] == 801


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"coupling": 3.0}')
    assert run(["solve1d", "--config", str(cfg)]) == EXIT_ERROR
    assert "coupling" in capsys.readouterr().err


def test_out_env_var(tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv(cli.OUT_ENV_VAR, str(target))
    assert run(["solve1d", "--lambda", "3", "--n", "401", "--L", "12"]) == EXIT_OK
    assert (target / "profile.csv").exists()


def test_sweep_writes_profiles_and_summary(tmp_path):
    out = tmp_path / "sw"
    code = run([
        "sweep", "--lambda-from", "2", "--lambda-to", "6", "--step", "0.5",
        "--n", "801", "--out", str(out),
    ])
    assert code == EXIT_OK
    profiles = sorted(out.glob("profile_lambda_*.csv"))
    assert len(profiles) == 9
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "lambda,min_sum,max_sum,energy,iters"
    assert len(lines) == 10
    # the sum ordering flips sides across coupling 3
    rows = [line.split(",") for line in lines[1:]]
    by_lam = {float(r[0]): (float(r[1]), float(r[2])) for r in rows}
    assert by_lam[2.0][0] > 1.0
    assert by_lam[6.0][1] < 1.0


def test_sweep_single_point(tmp_path):
    out = tmp_path / "sw1"
    code = run([
        "sweep", "--lambda-from", "2", "--lambda-to", "2", "--step", "0.5",
        "--n", "801", "--out", str(out),
    ])
    assert code == EXIT_OK
    assert len(list(out.glob("profile_lambda_*.csv"))) == 1


def test_sweep_takes_no_coupling(tmp_path):
    # a sweep reads only --lambda-from and --lambda-to, so --lambda would be a dead knob
    code = run([
        "sweep", "--lambda", "2", "--lambda-from", "2", "--lambda-to", "2", "--n", "201",
        "--out", str(tmp_path),
    ])
    assert code == EXIT_ERROR
    assert not (tmp_path / "sweep.config.json").exists()


def test_sweep_stall_exit_code(tmp_path, capsys):
    # a sample that fails from the previous profile and from the seed is a
    # solver error naming its coupling, and the sweep writes nothing
    out = tmp_path / "stall"
    code = run([
        "sweep", "--lambda-from", "2", "--lambda-to", "3", "--step", "0.5",
        "--n", "801", "--max-iters", "1", "--out", str(out),
    ])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("solver error: ") and "at coupling 2.0 " in err
    assert not (out / "sweep.config.json").exists()
    assert not out.exists()


# input outside float range, a sweep too long or a failed relaxation: exit 1
# with one diagnosis line naming the field or the failure, no traceback and
# no output directory, not even a sidecar
REFUSED_RUNS = {
    "solve1d-tiny-L": (["solve1d", "--L", "1e-200", "--n", "5"], "config error: half_length: "),
    "relax-huge-L": (["relax", "--mode", "gibbons", "--L", "1e200", "--n", "5"], "config error: half_length: "),
    "verify-tiny-L": (["verify", "--L", "1e-300", "--n", "5", "--stages", "counterexample"],
                      "config error: half_length: "),
    # the 1D grid is checked also when no stage that runs on it is selected
    "verify-unused-short-grid": (["verify", "--stages", "gibbons", "--n", "2"], "config error: n: "),
    "verify-unused-tiny-L": (["verify", "--stages", "liouville", "--L", "1e-300", "--n", "5"],
                             "config error: half_length: "),
    "sweep-infinite-target": (["sweep", "--lambda-to", "inf"], "config error: lambda_to: "),
    "sweep-infinite-step": (["sweep", "--step", "inf"], "config error: step: "),
    "sweep-nan-step": (["sweep", "--step", "nan"], "config error: step: "),
    "sweep-subnormal-step": (["sweep", "--step", "5e-324"], "config error: step: "),
    "relax-liouville-coupling": (["relax", "--mode", "liouville", "--lambda", "2"], "solver error: "),
    "relax-lambda1-unsettled": (["relax", "--mode", "lambda1", "--max-steps", "1"], "solver error: "),
}


@pytest.mark.parametrize("run_id", list(REFUSED_RUNS))
def test_refused_run_writes_nothing(tmp_path, capsys, run_id):
    argv, diagnosis = REFUSED_RUNS[run_id]
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(diagnosis) and err.count("\n") == 1, err
    assert not out.exists()


def test_relax_liouville(tmp_path):
    out = tmp_path / "rl"
    code = run(["relax", "--mode", "liouville", "--lambda", "0.5", "--seed", "7", "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "field.csv").exists()
    assert (out / "energy_trace.csv").exists()
    report = json.loads((out / "report.json").read_text())
    rec = {r["name"]: r for r in report["records"]}["liouville-constant"]
    assert rec["pass"]
    assert abs(rec["params"]["constant"] - 0.816497) < 1e-6
    assert rec["params"]["max_deviation"] <= 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_relax_liouville_default_coupling(tmp_path, seed):
    # without --lambda the liouville mode runs at 0.5, inside its range (0, 1)
    out = tmp_path / "rl"
    assert run(["relax", "--mode", "liouville", "--seed", str(seed), "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "relax.config.json").read_text())["lam"] == 0.5


def test_relax_gibbons_default_axis_is_the_battery_slab_axis(monkeypatch):
    # both the half length and the node count come from verify.GIBBONS_AXIS
    monkeypatch.setattr(verify, "GIBBONS_AXIS", Grid1D(7.5, 101))
    cfg = cli.resolve_config(cli._build_parser().parse_args(["relax", "--mode", "gibbons"]))
    assert (cfg.half_length, cfg.n) == (7.5, 101)
    # a flag still wins over the axis
    cfg = cli.resolve_config(cli._build_parser().parse_args(["relax", "--mode", "gibbons", "--L", "3"]))
    assert (cfg.half_length, cfg.n) == (3.0, 101)


def test_relax_liouville_regime_guard(tmp_path, capsys):
    code = run(["relax", "--mode", "liouville", "--lambda", "2.0", "--out", str(tmp_path)])
    assert code == EXIT_ERROR
    assert "coupling < 1" in capsys.readouterr().err


def test_relax_lambda1(tmp_path, capsys):
    out = tmp_path / "r1"
    code = run(["relax", "--mode", "lambda1", "--seed", "3", "--out", str(out)])
    assert code == EXIT_OK
    # the run reads no coupling, and reports the one it uses
    assert capsys.readouterr().out.startswith("relax mode=lambda1 coupling=1.0: ")
    report = json.loads((out / "report.json").read_text())
    rec = {r["name"]: r for r in report["records"]}["unit-coupling-circle"]
    assert rec["pass"]


def test_relax_gibbons(tmp_path, capsys):
    out = tmp_path / "rg"
    code = run(["relax", "--mode", "gibbons", "--lambda", "3", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    rec = {r["name"]: r for r in report["records"]}["gibbons-anisotropy"]
    assert rec["pass"]
    assert rec["params"]["anisotropy"] <= 1e-8
    rejected = rec["params"]["rejected"]
    assert isinstance(rejected, int) and 0 <= rejected < rec["params"]["steps"]
    newton = rec["params"]["newton_steps"]
    assert isinstance(newton, int) and 1 <= newton < rec["params"]["steps"]
    assert f"({newton} Newton, {rejected} candidates rejected)" in capsys.readouterr().out


def test_relax_rejects_extra_transverse_dims(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"transverse_dims": 3}')
    code = run(["relax", "--mode", "lambda1", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_ERROR
    assert "transverse_dims" in capsys.readouterr().err


def test_relax_takes_no_pseudo_time_step(tmp_path, capsys):
    # the stabilized step does not depend on a pseudo-time step, so there is no dt knob
    assert run(["relax", "--mode", "lambda1", "--dt", "2", "--out", str(tmp_path / "flag")]) == EXIT_ERROR
    assert not (tmp_path / "flag").exists()
    cfg = tmp_path / "dt.json"
    cfg.write_text('{"dt": 2.0}')
    capsys.readouterr()
    assert run(["relax", "--mode", "lambda1", "--config", str(cfg), "--out", str(tmp_path / "file")]) == EXIT_ERROR
    assert "config error: config field dt: unknown" in capsys.readouterr().err


def test_verify_list_checks(capsys):
    assert run(["verify", "--list-checks"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out == list(__import__("gp_rigidity").THEOREM_TAGS)


def test_verify_empty_battery(tmp_path, capsys):
    code = run(["verify", "--stages", "", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert "no checks run" in capsys.readouterr().out
    report = json.loads((tmp_path / "suite_report.json").read_text())
    assert report["records"] == []


def test_verify_single_stage(tmp_path):
    code = run(["verify", "--stages", "counterexample", "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "suite_report.json").read_text())
    assert {r["theorem"] for r in report["records"]} == {"R-counterexample"}


def test_verify_takes_no_coupling(tmp_path):
    # the battery fixes its own couplings, so --lambda would be a dead knob
    assert run(["verify", "--lambda", "2", "--stages", "", "--out", str(tmp_path)]) == EXIT_ERROR
    assert not (tmp_path / "verify.config.json").exists()


def test_verify_unknown_stage(tmp_path, capsys):
    assert run(["verify", "--stages", "nope", "--out", str(tmp_path)]) == EXIT_ERROR
    assert "unknown stage" in capsys.readouterr().err


def test_verify_loosened_tolerance_fails_anisotropy(tmp_path, capsys):
    # at steadiness 1e-4 the slab run stops after its first Newton step, at
    # residual 9e-6 and anisotropy 1.2e-6, far above the 1e-8 gate; from 1e-6
    # down the second Newton step lands at anisotropy 4e-13 and passes
    code = run([
        "verify", "--stages", "gibbons", "--steady-tol", "1e-4", "--out", str(tmp_path),
    ])
    assert code == EXIT_CHECK_FAILED
    assert "gibbons-anisotropy" in capsys.readouterr().out


def test_verify_check_failure_exit_code(tmp_path):
    # an impossible newton budget forces failed solve records
    code = run([
        "verify", "--stages", "solves", "--n", "201", "--max-iters", "1",
        "--tol", "1e-14", "--out", str(tmp_path),
    ])
    assert code == EXIT_CHECK_FAILED


def test_usage_error_is_exit_1(capsys):
    assert run(["solve1d", "--lambda", "not-a-number"]) == EXIT_ERROR
    capsys.readouterr()


# stdout or stderr of each command line at 80 columns, as argparse printed them
# with every subcommand's parser built; the exit code is 0 for help, 1 otherwise
PARSER_TEXTS = {
    '--help': ("out", """\
usage: gp-rigidity [-h] {solve1d,sweep,relax,verify} ...

Compute heteroclinic profiles of the two-component cubic system and check the
rigidity catalog against them.

positional arguments:
  {solve1d,sweep,relax,verify}
    solve1d             solve one heteroclinic profile and verify it
    sweep               continuation sweep over a coupling range
    relax               gradient-flow relaxation experiments
    verify              run the full rigidity battery

options:
  -h, --help            show this help message and exit
"""),
    'solve1d --help': ("out", """\
usage: gp-rigidity solve1d [-h] [--lambda LAM] [--L HALF_LENGTH] [--n N]
                           [--tol NEWTON_TOL] [--max-iters MAX_ITERS]
                           [--out OUT_DIR] [--config CONFIG]

options:
  -h, --help            show this help message and exit
  --lambda LAM          coupling constant
  --L HALF_LENGTH       half length of the axis
  --n N                 node count (>= 3)
  --tol NEWTON_TOL      residual target
  --max-iters MAX_ITERS
  --out OUT_DIR         output directory (default $GP_RIGIDITY_OUT or .)
  --config CONFIG       JSON config file, such as a sidecar
"""),
    'sweep --help': ("out", """\
usage: gp-rigidity sweep [-h] [--L HALF_LENGTH] [--n N] [--tol NEWTON_TOL]
                         [--max-iters MAX_ITERS] [--out OUT_DIR]
                         [--config CONFIG] [--lambda-from LAMBDA_FROM]
                         [--lambda-to LAMBDA_TO] [--step STEP]

options:
  -h, --help            show this help message and exit
  --L HALF_LENGTH       half length of the axis
  --n N                 node count (>= 3)
  --tol NEWTON_TOL      residual target
  --max-iters MAX_ITERS
  --out OUT_DIR         output directory (default $GP_RIGIDITY_OUT or .)
  --config CONFIG       JSON config file, such as a sidecar
  --lambda-from LAMBDA_FROM
  --lambda-to LAMBDA_TO
  --step STEP
"""),
    'relax --help': ("out", """\
usage: gp-rigidity relax [-h] [--lambda LAM] [--L HALF_LENGTH] [--n N]
                         [--tol NEWTON_TOL] [--max-iters MAX_ITERS]
                         [--seed SEED] [--out OUT_DIR] [--config CONFIG]
                         [--mode {gibbons,liouville,lambda1}]
                         [--steady-tol STEADY_TOL] [--max-steps MAX_STEPS]

options:
  -h, --help            show this help message and exit
  --lambda LAM          coupling constant
  --L HALF_LENGTH       half length of the axis
  --n N                 node count (>= 3)
  --tol NEWTON_TOL      residual target
  --max-iters MAX_ITERS
  --seed SEED
  --out OUT_DIR         output directory (default $GP_RIGIDITY_OUT or .)
  --config CONFIG       JSON config file, such as a sidecar
  --mode {gibbons,liouville,lambda1}
  --steady-tol STEADY_TOL
  --max-steps MAX_STEPS
"""),
    'verify --help': ("out", """\
usage: gp-rigidity verify [-h] [--L HALF_LENGTH] [--n N] [--tol NEWTON_TOL]
                          [--max-iters MAX_ITERS] [--seed SEED]
                          [--out OUT_DIR] [--config CONFIG] [--stages STAGES]
                          [--steady-tol STEADY_TOL] [--max-steps MAX_STEPS]
                          [--list-checks]

options:
  -h, --help            show this help message and exit
  --L HALF_LENGTH       half length of the axis
  --n N                 node count (>= 3)
  --tol NEWTON_TOL      residual target
  --max-iters MAX_ITERS
  --seed SEED
  --out OUT_DIR         output directory (default $GP_RIGIDITY_OUT or .)
  --config CONFIG       JSON config file, such as a sidecar
  --stages STAGES       comma list of stages, empty for none
  --steady-tol STEADY_TOL
  --max-steps MAX_STEPS
  --list-checks         print the check catalog and exit
"""),
    'bogus': ("err", """\
usage: gp-rigidity [-h] {solve1d,sweep,relax,verify} ...
gp-rigidity: error: argument command: invalid choice: 'bogus' (choose from 'solve1d', 'sweep', 'relax', 'verify')
"""),
    'relax --bogus': ("err", """\
usage: gp-rigidity [-h] {solve1d,sweep,relax,verify} ...
gp-rigidity: error: unrecognized arguments: --bogus
"""),
}


@pytest.mark.parametrize("line", list(PARSER_TEXTS))
def test_parser_texts_are_unchanged(monkeypatch, capsys, line):
    # the parser, built once per process, formats these texts as it prints
    # them, including the top-level usage line and its "unrecognized arguments"
    monkeypatch.setenv("COLUMNS", "80")
    stream, text = PARSER_TEXTS[line]
    code = run(line.split())
    expected = (text, "") if stream == "out" else ("", text)
    assert code == (EXIT_OK if stream == "out" else EXIT_ERROR)
    assert capsys.readouterr() == expected


def test_one_parser_serves_every_command_line(tmp_path, capsys):
    parser = cli._build_parser()
    assert run(["relax", "--mode", "liouville", "--out", str(tmp_path)]) == EXIT_OK
    assert run(["--help"]) == EXIT_OK
    assert cli._build_parser() is parser
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(cli.COMMANDS)


@pytest.mark.parametrize("steps", ["0", "-5"])
def test_relax_max_steps_below_one_is_a_config_error(tmp_path, capsys, steps):
    out = tmp_path / "out"
    assert run(["relax", "--mode", "liouville", "--max-steps", steps, "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"config error: max_steps: must be at least 1, got {steps}\n"
    assert not out.exists()


def test_verify_max_steps_below_one_is_a_config_error(tmp_path, capsys):
    # the battery's flow options would turn it into four failed records
    cfg = tmp_path / "run.json"
    cfg.write_text('{"max_steps": 0}')
    out = tmp_path / "out"
    assert run(["verify", "--stages", "liouville", "--config", str(cfg), "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err == "config error: max_steps: must be at least 1, got 0\n"
    assert not out.exists()


UNCOUPLED_RUNS = {
    "verify": ["verify", "--stages", "counterexample"],
    "sweep": ["sweep", "--lambda-from", "2", "--lambda-to", "2", "--n", "201"],
}


@pytest.mark.parametrize("command", sorted(UNCOUPLED_RUNS))
def test_uncoupled_command_rejects_a_config_coupling(tmp_path, capsys, command):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"lam": 7.0}')
    out = tmp_path / "out"
    assert run([*UNCOUPLED_RUNS[command], "--config", str(cfg), "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"config error: lam: {command} does not read it\n"
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(UNCOUPLED_RUNS))
def test_uncoupled_command_sidecar_has_no_coupling(tmp_path, command):
    out = tmp_path / "out"
    assert run([*UNCOUPLED_RUNS[command], "--out", str(out)]) == EXIT_OK
    resolved = json.loads((out / f"{command}.config.json").read_text())
    assert "lam" not in resolved and resolved["command"] == command


def test_profile_csv_floats_read_back_exactly(tmp_path):
    out = tmp_path / "run"
    assert run(["solve1d", "--lambda", "3", "--n", "401", "--L", "12", "--out", str(out)]) == EXIT_OK
    row = (out / "profile.csv").read_text().splitlines()[5]
    x, u, v = row.split(",")
    # parse back exactly
    prof = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
    assert float(u) == prof[4, 1]


# what each relax mode reads: gibbons all ten settable fields, the box modes
# neither the slab axis nor the Newton options, lambda1 not the coupling either
RELAX_MODE_READS = {
    "gibbons": ("lam", "mode", "half_length", "n", "newton_tol", "max_iters", "seed", "steady_tol",
                "max_steps", "out_dir"),
    "liouville": ("lam", "mode", "seed", "steady_tol", "max_steps", "out_dir"),
    "lambda1": ("mode", "seed", "steady_tol", "max_steps", "out_dir"),
}

# a run per command and relax mode, the fields it reads, who reads them, and
# a field that one does not read
COMMAND_RUNS = {
    "solve1d": (["solve1d", "--n", "201"], cli.READS["solve1d"], "solve1d", "mode"),
    "sweep": (["sweep", "--lambda-from", "2", "--lambda-to", "2", "--n", "201"], cli.READS["sweep"], "sweep",
              "seed"),
    "relax": (["relax", "--mode", "liouville"], RELAX_MODE_READS["liouville"], "relax --mode liouville", "n"),
    "relax-gibbons": (["relax", "--mode", "gibbons"], RELAX_MODE_READS["gibbons"], "relax --mode gibbons",
                      "stages"),
    "relax-lambda1": (["relax", "--mode", "lambda1"], RELAX_MODE_READS["lambda1"], "relax --mode lambda1", "lam"),
    "verify": (["verify", "--stages", "counterexample"], cli.READS["verify"], "verify", "lambda_to"),
}


@pytest.mark.parametrize("run_id", list(COMMAND_RUNS))
def test_sidecar_and_config_hold_only_the_fields_the_command_reads(tmp_path, capsys, run_id):
    argv, reads, who, unread = COMMAND_RUNS[run_id]
    command = argv[0]
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == EXIT_OK
    sidecar = out / f"{command}.config.json"
    assert list(json.loads(sidecar.read_text())) == ["command"] + [
        name for name in cli.RunConfig.__dataclass_fields__ if name in reads
    ]
    # the sidecar is a valid config file; a field the command does not read is not
    assert run([command, "--config", str(sidecar), "--out", str(tmp_path / "again")]) == EXIT_OK
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({unread: 1}))
    capsys.readouterr()
    assert run([*argv, "--config", str(cfg), "--out", str(tmp_path / "bad")]) == EXIT_ERROR
    assert capsys.readouterr().err == f"config error: {unread}: {who} does not read it\n"
    assert not (tmp_path / "bad").exists()


RELAX_FLAGS = {
    "lam": ("--lambda", "0.5"), "half_length": ("--L", "20"), "n": ("--n", "801"), "newton_tol": ("--tol", "1e-10"),
    "max_iters": ("--max-iters", "25"), "seed": ("--seed", "0"), "steady_tol": ("--steady-tol", "1e-9"),
    "max_steps": ("--max-steps", "40000"),
}
RELAX_UNREAD = [
    (mode, name) for mode, reads in RELAX_MODE_READS.items() for name in RELAX_FLAGS if name not in reads
]


@pytest.mark.parametrize("mode, name", RELAX_UNREAD, ids=[f"{m}-{n}" for m, n in RELAX_UNREAD])
def test_relax_mode_rejects_a_field_it_does_not_read(tmp_path, capsys, mode, name):
    flag, value = RELAX_FLAGS[name]
    out = tmp_path / "out"
    assert run(["relax", "--mode", mode, flag, value, "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"config error: {name}: relax --mode {mode} does not read it\n"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"mode": mode, name: json.loads(value)}))
    assert run(["relax", "--config", str(cfg), "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"config error: {name}: relax --mode {mode} does not read it\n"
    assert not out.exists()


BAD_CONFIG_VALUES = [
    pytest.param("relax", {"mode": "bogus"}, "mode", id="mode-unknown"),
    pytest.param("relax", {"mode": True}, "mode", id="mode-bool"),
    pytest.param("solve1d", {"n": 801.9}, "n", id="n-fraction"),
    pytest.param("solve1d", {"n": True}, "n", id="n-bool"),
    pytest.param("solve1d", {"lam": True}, "lam", id="lam-bool"),
    pytest.param("solve1d", {"max_iters": True}, "max_iters", id="max_iters-bool"),
    pytest.param("verify", {"seed": False}, "seed", id="seed-bool"),
    pytest.param("relax", {"mode": "liouville", "max_steps": 1000.5}, "max_steps", id="max_steps-fraction"),
    pytest.param("verify", {"stages": True}, "stages", id="stages-bool"),
    pytest.param("solve1d", {"out_dir": None}, "out_dir", id="out_dir-null"),
    pytest.param("relax", {"mode": 1}, "mode", id="mode-number"),
]


@pytest.mark.parametrize("command, values, name", BAD_CONFIG_VALUES)
def test_bad_config_value_is_a_config_error_naming_its_field(tmp_path, capsys, command, values, name):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(values))
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith(f"config error: config field {name}: ")
    assert not out.exists()


def test_integral_json_number_sets_an_integer_field(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"n": 201.0}')
    out = tmp_path / "out"
    assert run(["solve1d", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "solve1d.config.json").read_text())["n"] == 201


def test_solve1d_takes_no_seed(tmp_path, capsys):
    # a Newton solve draws no random numbers, so a seed would be a dead knob
    assert run(["solve1d", "--seed", "1", "--out", str(tmp_path / "flag")]) == EXIT_ERROR
    assert not (tmp_path / "flag").exists()
    cfg = tmp_path / "run.json"
    cfg.write_text('{"seed": 1}')
    capsys.readouterr()
    assert run(["solve1d", "--config", str(cfg), "--out", str(tmp_path / "file")]) == EXIT_ERROR
    assert capsys.readouterr().err == "config error: seed: solve1d does not read it\n"
    assert not (tmp_path / "file").exists()
    # the report still records the default seed
    assert run(["solve1d", "--n", "201", "--out", str(tmp_path / "run")]) == EXIT_OK
    assert json.loads((tmp_path / "run" / "report.json").read_text())["seed"] == 0


# a command line per command and relax mode, and the fields it reads
READERS = {
    **{command: ([command], cli.READS[command]) for command in ("solve1d", "sweep", "verify")},
    **{f"relax-{mode}": (["relax", f"--mode={mode}"], reads) for mode, reads in cli.RELAX_READS.items()},
}
NOT_FIELDS = {"help", "config", "list_checks"}


@pytest.mark.parametrize("reader", list(READERS))
def test_parser_flags_are_the_fields_read(reader):
    argv, reads = READERS[reader]
    command = argv[0]
    [sub] = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {a.dest: a.option_strings[0] for a in sub.choices[command]._actions if a.dest not in NOT_FIELDS}
    if command != "relax":
        assert set(flags) == set(reads)
        return
    # one relax parser serves every mode: it has each mode's flags, and a mode takes only its own
    assert set(flags) == set().union(*cli.RELAX_READS.values())
    taken = set()
    for dest, flag in flags.items():
        value = argv[1].partition("=")[2] if dest == "mode" else getattr(cli.RunConfig(), dest)
        args = cli._build_parser().parse_args([*argv, f"{flag}={value}"])
        try:
            cli.resolve_config(args)
        except ValueError:
            continue
        taken.add(dest)
    assert taken == set(reads)


def _field_values(reads):
    """Some of the fields ``reads`` that a flag may set, each with a valid value of its type."""
    by_type = {float: st.floats(min_value=1e-300, max_value=1e300), int: st.integers(min_value=3, max_value=2**40)}
    strategies = {
        "stages": st.lists(st.sampled_from(verify.ALL_STAGES), unique=True).map(",".join),
        "out_dir": st.from_regex(r"[A-Za-z0-9_][A-Za-z0-9_./-]{0,20}", fullmatch=True),
    }
    for name in reads:
        if name not in strategies and name != "mode":
            strategies[name] = by_type[cli.RunConfig.__dataclass_fields__[name].type]
    return st.fixed_dictionaries({}, optional={name: strategies[name] for name in reads if name != "mode"})


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_flags_and_their_sidecar_resolve_alike(tmp_path_factory, data):
    # values set by flags, then read back from the sidecar they resolve to
    argv, reads = READERS[data.draw(st.sampled_from(list(READERS)))]
    values = data.draw(_field_values(reads))
    line = [*argv, *(f"{cli.FLAGS[name][0]}={value}" for name, value in values.items())]
    cfg = cli.resolve_config(cli._build_parser().parse_args(line))
    assert {name: getattr(cfg, name) for name in values} == values
    sidecar = tmp_path_factory.mktemp("sidecar") / f"{argv[0]}.config.json"
    sidecar.write_text(cfg.to_json() + "\n", encoding="ascii")
    again = cli.resolve_config(cli._build_parser().parse_args([argv[0], "--config", str(sidecar)]))
    assert again == cfg
    assert again.to_json() == cfg.to_json()


@pytest.mark.parametrize(
    "argv, report",
    [
        (["relax", "--mode", "gibbons", "--steady-tol", "1e-3"], "report.json"),
        (["verify", "--stages", "liouville", "--max-steps", "1"], "suite_report.json"),
    ],
    ids=["relax-gibbons", "verify-liouville"],
)
def test_failed_run_names_each_failed_check(tmp_path, capsys, argv, report):
    assert run([*argv, "--out", str(tmp_path)]) == EXIT_CHECK_FAILED
    failed = [r for r in _records(tmp_path / report) if not r["pass"]]
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  FAILED ")]
    assert failed and lines == [f"  FAILED {r['name']} [{r['theorem']}]: margin {r['margin']:.3e}" for r in failed]
    if argv[0] == "relax":
        assert lines[0].startswith("  FAILED gibbons-anisotropy ")


def _found_dispatch_targets_above_x86_v3():
    from numpy._core import _multiarray_umath as umath

    dispatch = list(umath.__cpu_dispatch__)
    above = dispatch[dispatch.index("X86_V3") + 1 :] if "X86_V3" in dispatch else []
    return [name for name in above if umath.__cpu_features__.get(name)]


# runs solve1d in a fresh interpreter with the CPU features named by argv[1]
# disabled (none if empty) and prints which of them numpy still dispatches
DISPATCH_RUN = """
import json, os, sys
os.environ["NPY_DISABLE_CPU_FEATURES"] = sys.argv[1]
from numpy._core import _multiarray_umath as umath
from gp_rigidity import cli
code = cli.main(["solve1d", "--lambda", "2", "--n", "2001", "--out", sys.argv[2]])
print(json.dumps([code, [name for name in sys.argv[1].split() if umath.__cpu_features__.get(name)]]))
"""


def test_solve1d_outputs_do_not_depend_on_avx512_dispatch(tmp_path, fresh_python):
    # one reaction kernel of products only: no power kernel whose rounding
    # depends on the SIMD width numpy picks
    targets = _found_dispatch_targets_above_x86_v3()
    if not targets:
        pytest.skip("numpy dispatches no kernels above X86_V3 on this CPU")
    outs = []
    for disabled in ("", " ".join(targets)):
        outs.append(tmp_path / f"run{len(outs)}")
        done = fresh_python(DISPATCH_RUN, disabled, str(outs[-1]))
        assert json.loads(done.stdout.splitlines()[-1]) == [EXIT_OK, []], done.stderr
    for name in ("profile.csv", "report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
