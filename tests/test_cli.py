import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gp_rigidity
from gp_rigidity import cli
from gp_rigidity.cli import EXIT_CHECK_FAILED, EXIT_ERROR, EXIT_OK


def run(argv):
    return cli.main(argv)


def test_solve1d_default(tmp_path):
    out = tmp_path / "run"
    assert run(["solve1d", "--lambda", "3", "--out", str(out)]) == EXIT_OK
    assert (out / "profile.csv").exists()
    assert (out / "report.json").exists()
    assert (out / "solve1d.config.json").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["records"] and all(r["pass"] for r in report["records"])


def test_solve1d_refuses_sub_unit(tmp_path, capsys):
    code = run(["solve1d", "--lambda", "0.5", "--out", str(tmp_path)])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert "constant pair" in err
    assert "T-liouville-sub1" in err


def _fresh_python(script):
    """Run script in a new interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(gp_rigidity.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)


def test_solve1d_overflowing_coupling_is_a_solver_error(tmp_path, capsys):
    # the linearization overflows at coupling 1e308, so the Newton step is not finite
    code = run(["solve1d", "--lambda", "1e308", "--n", "201", "--out", str(tmp_path)])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("solver error:")
    assert "non-finite linearization or Newton step at coupling 1e+308 (iteration 0)" in err
    assert "config error" not in err


def test_solve1d_overflowing_coupling_prints_no_numpy_warning(tmp_path):
    # the inf * 0 in the overflowing Jacobian must not put a RuntimeWarning
    # ahead of the diagnosis on a real stderr
    argv = ["solve1d", "--lambda", "1e308", "--n", "201", "--out", str(tmp_path)]
    done = _fresh_python(f"import sys\nfrom gp_rigidity import cli\nsys.exit(cli.main({argv!r}))\n")
    assert done.returncode == EXIT_ERROR
    assert done.stderr.startswith("solver error:"), done.stderr
    assert "RuntimeWarning" not in done.stderr


# a flow step whose coupling or pseudo-time step overflows yields a
# non-finite field
OVERFLOWING_FLOWS = [
    (["relax", "--mode", "liouville", "--dt", "1e308", "--max-steps", "5"], "coupling 0.5 with dt 1e+308"),
    (["relax", "--mode", "gibbons", "--lambda", "1e308", "--max-steps", "5"], "coupling 1e+308 with dt 2.0"),
]


@pytest.mark.parametrize("argv, where", OVERFLOWING_FLOWS, ids=["dt", "lambda"])
def test_relax_overflowing_flow_is_a_solver_error(tmp_path, capsys, argv, where):
    assert run([*argv, "--out", str(tmp_path)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("solver error:"), err
    assert f"flow step at {where}: u: non-finite entries rejected" in err


@pytest.mark.parametrize("argv, where", OVERFLOWING_FLOWS, ids=["dt", "lambda"])
def test_relax_overflowing_flow_prints_no_numpy_warning(tmp_path, argv, where):
    argv = [*argv, "--out", str(tmp_path)]
    done = _fresh_python(f"import sys\nfrom gp_rigidity import cli\nsys.exit(cli.main({argv!r}))\n")
    assert done.returncode == EXIT_ERROR
    assert done.stderr.startswith("solver error:"), done.stderr
    assert "RuntimeWarning" not in done.stderr


# scipy subpackages a fresh command must not load: none at all before any
# work is done, no FFT (which also pulls in scipy.special) in the 1D
# commands, no LAPACK in the periodic-box relaxations
NO_SCIPY = ("scipy",)
NO_FFT = ("scipy.fft", "scipy.fftpack", "scipy.special")
NO_LAPACK = ("scipy.linalg",)


@pytest.mark.parametrize(
    "argv, absent",
    [
        (None, NO_SCIPY),
        (["verify", "--list-checks"], NO_SCIPY),
        (["solve1d", "--n", "201"], NO_FFT),
        (["sweep", "--n", "201"], NO_FFT),
        (["verify", "--stages", "solves,counterexample", "--n", "401"], NO_FFT),
        (["relax", "--mode", "liouville"], NO_LAPACK),
        (["relax", "--mode", "lambda1"], NO_LAPACK),
    ],
    ids=["import", "list-checks", "solve1d", "sweep", "verify-1d", "relax-liouville", "relax-lambda1"],
)
def test_command_loads_only_the_scipy_it_runs(tmp_path, argv, absent):
    script = "import json, sys\nfrom gp_rigidity import cli\n"
    if argv is not None:
        script += f"assert cli.main({[*argv, '--out', str(tmp_path)]!r}) == 0\n"
    script += "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))\n"
    done = _fresh_python(script)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    for pkg in (*absent, "scipy.interpolate"):
        assert not [m for m in loaded if m == pkg or m.startswith(pkg + ".")], pkg


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
        # the unit-coupling run records the coupling it used, not the default 3
        (["relax", "--mode", "lambda1", "--seed", "200"], ["field.csv", "energy_trace.csv", "report.json"], 1.0),
    ],
    ids=["solve1d", "relax-liouville", "relax-lambda1"],
)
def test_solve1d_rerun_from_sidecar_is_byte_identical(tmp_path, argv, outputs, lam):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run([*argv, "--out", str(out1)]) == EXIT_OK
    sidecar = out1 / f"{argv[0]}.config.json"
    assert json.loads(sidecar.read_text())["lam"] == lam
    assert run([argv[0], "--config", str(sidecar), "--out", str(out2)]) == EXIT_OK
    for name in outputs:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def _records(path):
    return json.loads(path.read_text())["records"]


def test_commands_report_the_battery_records(tmp_path):
    # one record builder per experiment: each command writes exactly the
    # records the battery writes for the same experiment and flow seed
    assert run(["verify", "--stages", "solves,liouville", "--seed", "0", "--out", str(tmp_path / "v")]) == EXIT_OK
    battery = _records(tmp_path / "v" / "suite_report.json")
    first_solve = battery[: [r["name"] for r in battery].index("sharp-limit") + 1]
    assert all(r["params"].get("lam", 2.0) == 2.0 for r in first_solve)
    expected = {
        ("solve1d", "--lambda", "2"): first_solve,
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


def test_key_value_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nlam = 3.0\nn = 801\nhalf_length = 15.0\n")
    out = tmp_path / "out"
    assert run(["solve1d", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    resolved = json.loads((out / "solve1d.config.json").read_text())
    assert resolved["n"] == 801 and resolved["half_length"] == 15.0


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lam = 2.0\nn = 801\n")
    out = tmp_path / "out"
    assert run(["solve1d", "--config", str(cfg), "--lambda", "3.0", "--out", str(out)]) == EXIT_OK
    resolved = json.loads((out / "solve1d.config.json").read_text())
    assert resolved["lam"] == 3.0 and resolved["n"] == 801


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("coupling = 3.0\n")
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


def test_sweep_stall_exit_code(tmp_path, capsys):
    out = tmp_path / "stall"
    code = run([
        "sweep", "--lambda-from", "2", "--lambda-to", "3", "--step", "0.5",
        "--n", "801", "--max-iters", "1", "--out", str(out),
    ])
    assert code == EXIT_CHECK_FAILED
    assert "stalled" in capsys.readouterr().err


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


def test_relax_liouville_regime_guard(tmp_path, capsys):
    code = run(["relax", "--mode", "liouville", "--lambda", "2.0", "--out", str(tmp_path)])
    assert code == EXIT_ERROR
    assert "coupling < 1" in capsys.readouterr().err


def test_relax_lambda1(tmp_path):
    out = tmp_path / "r1"
    code = run(["relax", "--mode", "lambda1", "--seed", "3", "--out", str(out)])
    assert code == EXIT_OK
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
    assert f"({rejected} extrapolations rejected)" in capsys.readouterr().out


def test_relax_rejects_extra_transverse_dims(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("transverse_dims = 3\n")
    code = run(["relax", "--mode", "lambda1", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_ERROR
    assert "transverse_dims" in capsys.readouterr().err


def test_relax_rejects_negative_dt(tmp_path, capsys):
    code = run(["relax", "--mode", "lambda1", "--dt", "-0.1", "--out", str(tmp_path)])
    assert code == EXIT_ERROR
    assert "config error: dt:" in capsys.readouterr().err


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
    # 100x looser steadiness means the slab run stops while visibly anisotropic
    code = run([
        "verify", "--stages", "gibbons", "--steady-tol", "1e-7", "--out", str(tmp_path),
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


def test_profile_csv_has_17_digit_floats(tmp_path):
    out = tmp_path / "run"
    assert run(["solve1d", "--lambda", "3", "--n", "401", "--L", "12", "--out", str(out)]) == EXIT_OK
    row = (out / "profile.csv").read_text().splitlines()[5]
    x, u, v = row.split(",")
    # parse back exactly
    prof = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
    assert float(u) == prof[4, 1]
