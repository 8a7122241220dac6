"""Command-line front end: solve, sweep, relax, verify.

Exit codes: 0 = pass, 2 = a rigidity check failed, 1 = usage or solver
error.  Every command writes a config sidecar with the fully resolved run
configuration; re-running with ``--config <sidecar>`` reproduces the outputs
byte for byte.  Configuration precedence: built-in defaults, then the config
file, then explicit flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, asdict, fields, replace

from . import grid as gridmod
from . import solver1d
from . import solvernd
from . import verify as verifymod
from .errors import ContinuationStall, SolverError
from .grid import Grid1D
from .model import Params

OUT_ENV_VAR = "GP_RIGIDITY_OUT"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters, serializable to key=value text."""

    command: str = "solve1d"
    lam: float = 3.0
    half_length: float = 20.0
    n: int = 2001
    newton_tol: float = 1e-10
    max_iters: int = 25
    seed: int = 0
    out_dir: str = "."
    mode: str = "gibbons"
    lambda_from: float = 2.0
    lambda_to: float = 6.0
    step: float = 0.5
    dt: float = 0.0  # 0 means solvernd.DEFAULT_DT; every dt is stable (stabilized step)
    steady_tol: float = 1e-9
    max_steps: int = 40000
    stages: str = ",".join(verifymod.ALL_STAGES)

    def to_text(self) -> str:
        lines = ["[run]"]
        for f in fields(self):
            lines.append(f"{f.name} = {getattr(self, f.name)!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


_INT_FIELDS = {"n", "max_iters", "seed", "max_steps"}
_FLOAT_FIELDS = {
    "lam", "half_length", "newton_tol", "lambda_from", "lambda_to",
    "step", "dt", "steady_tol",
}


def _coerce(name: str, raw):
    if isinstance(raw, str):
        raw = raw.strip().strip("'\"")
    try:
        if name in _INT_FIELDS:
            return int(raw)
        if name in _FLOAT_FIELDS:
            return float(raw)
        return str(raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config field {name}: cannot parse {raw!r}") from exc


def load_config_file(path: str) -> dict:
    """Parse a config file: JSON if it starts with '{', else key=value lines.

    Section headers like ``[run]`` are allowed and ignored; keys must match
    RunConfig field names.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    known = {f.name for f in fields(RunConfig)}
    values = {}
    if text.lstrip().startswith("{"):
        raw = json.loads(text)
        items = raw.items()
    else:
        items = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("["):
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected key = value, got {line!r}")
            key, _, raw_val = line.partition("=")
            items.append((key.strip(), raw_val.strip()))
    for key, raw_val in items:
        if key not in known:
            raise ValueError(f"config field {key}: unknown")
        values[key] = _coerce(key, raw_val)
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gp-rigidity",
        description=(
            "Compute heteroclinic profiles of the two-component cubic system "
            "and check the rigidity catalog against them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, coupling=True):
        if coupling:  # the battery fixes its own couplings
            sp.add_argument("--lambda", dest="lam", type=float, help="coupling constant")
        sp.add_argument("--L", dest="half_length", type=float, help="half length of the axis")
        sp.add_argument("--n", dest="n", type=int, help="node count (>= 3)")
        sp.add_argument("--tol", dest="newton_tol", type=float, help="residual target")
        sp.add_argument("--max-iters", dest="max_iters", type=int)
        sp.add_argument("--seed", dest="seed", type=int)
        sp.add_argument("--out", dest="out_dir", help=f"output directory (default ${OUT_ENV_VAR} or .)")
        sp.add_argument("--config", dest="config", help="config file (key=value or JSON sidecar)")

    sp = sub.add_parser("solve1d", help="solve one heteroclinic profile and verify it")
    common(sp)

    sp = sub.add_parser("sweep", help="continuation sweep over a coupling range")
    common(sp)
    sp.add_argument("--lambda-from", dest="lambda_from", type=float)
    sp.add_argument("--lambda-to", dest="lambda_to", type=float)
    sp.add_argument("--step", dest="step", type=float)

    sp = sub.add_parser("relax", help="gradient-flow relaxation experiments")
    common(sp)
    sp.add_argument("--mode", dest="mode", choices=("gibbons", "liouville", "lambda1"))
    sp.add_argument(
        "--dt", dest="dt", type=float,
        help=f"pseudo-time step; every positive step is stable (default {solvernd.DEFAULT_DT})",
    )
    sp.add_argument("--steady-tol", dest="steady_tol", type=float)
    sp.add_argument("--max-steps", dest="max_steps", type=int)

    sp = sub.add_parser("verify", help="run the full rigidity battery")
    common(sp, coupling=False)
    sp.add_argument("--stages", dest="stages", help="comma list of stages, empty for none")
    sp.add_argument("--steady-tol", dest="steady_tol", type=float)
    sp.add_argument("--list-checks", action="store_true", help="print the check catalog and exit")
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    file_values = {}
    if getattr(args, "config", None):
        file_values = load_config_file(args.config)
        file_values.pop("command", None)
        cfg = replace(cfg, **file_values)
    overrides = {}
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None and f.name != "command":
            overrides[f.name] = value
    if overrides:
        cfg = replace(cfg, **overrides)
    touched = set(file_values) | set(overrides)
    if args.command == "relax" and "n" not in touched:
        # relaxation runs use a coarser default axis than the Newton solver
        cfg = replace(cfg, n=801)
    if args.command == "relax" and cfg.mode == "liouville" and "lam" not in touched:
        # the shared default coupling 3 is outside the liouville range (0, 1)
        cfg = replace(cfg, lam=0.5)
    if "out_dir" not in touched:
        env_out = os.environ.get(OUT_ENV_VAR)
        if env_out:
            cfg = replace(cfg, out_dir=env_out)
    return cfg


def _write_sidecar(cfg: RunConfig, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{cfg.command}.config.json"), "w", encoding="ascii") as fh:
        fh.write(cfg.to_json() + "\n")
    with open(os.path.join(out_dir, f"{cfg.command}.config.cfg"), "w", encoding="ascii") as fh:
        fh.write(cfg.to_text())


def _solve_options(cfg: RunConfig) -> solver1d.SolveOptions:
    return solver1d.SolveOptions(newton_tol=cfg.newton_tol, max_iters=cfg.max_iters)


def _write_report(path: str, seed: int, records) -> verifymod.VerifyReport:
    report = verifymod.VerifyReport(version=verifymod.REPORT_VERSION, seed=seed, records=tuple(records))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(report.to_json() + "\n")
    return report


def cmd_solve1d(cfg: RunConfig) -> int:
    p = Params(cfg.lam)
    records, outcome = verifymod.solve_records(p, Grid1D(cfg.half_length, cfg.n), _solve_options(cfg))
    _write_sidecar(cfg, cfg.out_dir)
    gridmod.save_profile_csv(os.path.join(cfg.out_dir, "profile.csv"), solver1d.pin_phase(outcome.profile))
    report = _write_report(os.path.join(cfg.out_dir, "report.json"), cfg.seed, records)

    print(
        f"coupling {cfg.lam}: converged in {outcome.iterations} iterations, "
        f"residual {outcome.final_residual:.3e}, "
        f"{len(records)} checks, {len(report.failures())} failed"
    )
    for rec in report.failures():
        print(f"  FAILED {rec.name} [{rec.theorem}]: margin {rec.margin:.3e}")
    return EXIT_OK if report.overall_pass else EXIT_CHECK_FAILED


def cmd_sweep(cfg: RunConfig) -> int:
    g = Grid1D(cfg.half_length, cfg.n)
    stalled = None
    try:
        outcomes = solver1d.continuation_sweep(
            cfg.lambda_from, cfg.lambda_to, cfg.step, g, _solve_options(cfg)
        )
    except ContinuationStall as exc:
        stalled = exc
        outcomes = exc.outcomes
    _write_sidecar(cfg, cfg.out_dir)

    any_check_failed = False
    summary_path = os.path.join(cfg.out_dir, "summary.csv")
    with open(summary_path, "w", encoding="ascii") as fh:
        fh.write("lambda,min_sum,max_sum,energy,iters\n")
        for outcome in outcomes:
            p = Params(outcome.lam)
            prof = outcome.profile
            gridmod.save_profile_csv(
                os.path.join(cfg.out_dir, f"profile_lambda_{outcome.lam:g}.csv"), prof
            )
            rec = verifymod.sum_record(p, prof)
            energy = gridmod.discrete_energy_1d(p, prof)
            fh.write(
                "%s,%s,%s,%s,%d\n"
                % (
                    gridmod.CSV_FLOAT % outcome.lam,
                    gridmod.CSV_FLOAT % rec.params["min_sum"],
                    gridmod.CSV_FLOAT % rec.params["max_sum"],
                    gridmod.CSV_FLOAT % energy,
                    outcome.iterations,
                )
            )
            any_check_failed = any_check_failed or not rec.passed

    if stalled is not None:
        print(
            f"{stalled}; wrote {len(outcomes)} converged profiles",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    print(f"sweep wrote {len(outcomes)} profiles and {summary_path}")
    return EXIT_CHECK_FAILED if any_check_failed else EXIT_OK


def cmd_relax(cfg: RunConfig) -> int:
    flow_opts = solvernd.FlowOptions(
        dt=cfg.dt or None,
        steady_tol=cfg.steady_tol,
        max_steps=cfg.max_steps,
        rng_seed=cfg.seed,
    )
    if cfg.mode == "lambda1":
        # the unit-coupling experiment runs at coupling 1 whatever --lambda says
        cfg = replace(cfg, lam=1.0)
    _write_sidecar(cfg, cfg.out_dir)
    if cfg.mode == "gibbons":
        records, outcome = verifymod.gibbons_records(
            Params(cfg.lam), verifymod.GIBBONS_TRANSVERSE, Grid1D(cfg.half_length, cfg.n),
            flow_opts, _solve_options(cfg),
        )
    elif cfg.mode == "liouville":
        records, outcome = verifymod.liouville_records(Params(cfg.lam), verifymod.LIOUVILLE_BOX, flow_opts)
    else:  # lambda1
        records, outcome = verifymod.unit_coupling_records(verifymod.LIOUVILLE_BOX, flow_opts)

    gridmod.save_slab_csv(os.path.join(cfg.out_dir, "field.csv"), outcome.field)
    solvernd.save_energy_trace_csv(os.path.join(cfg.out_dir, "energy_trace.csv"), outcome)
    report = _write_report(os.path.join(cfg.out_dir, "report.json"), cfg.seed, records)
    print(
        f"relax mode={cfg.mode} coupling={cfg.lam}: {outcome.steps} steps "
        f"({outcome.rejected} extrapolations rejected), "
        f"final update {outcome.final_update:.3e}, "
        f"final residual {outcome.final_residual:.3e}, "
        f"{len(report.failures())} of {len(records)} checks failed"
    )
    return EXIT_OK if report.overall_pass else EXIT_CHECK_FAILED


def cmd_verify(cfg: RunConfig, list_checks: bool = False) -> int:
    if list_checks:
        for tag in verifymod.THEOREM_TAGS:
            print(tag)
        return EXIT_OK
    opts = verifymod.SuiteOptions(
        seed=cfg.seed,
        stages=tuple(s for s in cfg.stages.split(",") if s),
        half_length=cfg.half_length,
        n=cfg.n,
        newton=_solve_options(cfg),
        steady_tol=cfg.steady_tol,
        max_steps=cfg.max_steps,
    )
    report = verifymod.full_suite(opts)
    _write_sidecar(cfg, cfg.out_dir)
    with open(os.path.join(cfg.out_dir, "suite_report.json"), "w", encoding="ascii") as fh:
        fh.write(report.to_json() + "\n")
    if report.empty:
        print("no checks run (empty battery); overall pass is vacuous")
        return EXIT_OK
    failures = report.failures()
    print(f"battery: {len(report.records)} checks, {len(failures)} failed")
    for rec in failures:
        print(f"  FAILED {rec.name} [{rec.theorem}]: margin {rec.margin:.3e}")
    return EXIT_OK if report.overall_pass else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep 0 for --help, 1 otherwise
        code = exc.code if isinstance(exc.code, int) else 1
        return EXIT_OK if code == 0 else EXIT_ERROR

    try:
        cfg = resolve_config(args)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    # values are validated by the objects that consume them (Params, Grid1D,
    # the option classes), so a ValueError here names a bad config value
    try:
        if args.command == "solve1d":
            return cmd_solve1d(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "relax":
            return cmd_relax(cfg)
        return cmd_verify(cfg, list_checks=getattr(args, "list_checks", False))
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
