"""Command-line front end: solve, sweep, relax, verify.

Exit codes: 0 = pass, 2 = a rigidity check failed, 1 = usage or solver
error.  Every command writes a JSON sidecar ``<command>.config.json`` with
the resolved values of the fields it reads; re-running with ``--config <sidecar>``
reproduces the outputs byte for byte.  Configuration precedence: built-in
defaults, then the config file, then explicit flags.
"""

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, asdict, fields, replace

from . import grid as gridmod
from . import solver1d
from . import solvernd
from . import verify as verifymod
from .errors import SolverError
from .grid import Grid1D
from .model import Params

OUT_ENV_VAR = "GP_RIGIDITY_OUT"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters; the JSON sidecar holds the fields the command reads.

    Each annotation is the field's type for its flag and its config value
    alike; a default the option classes hold is taken from them.
    """

    command: str = "solve1d"
    lam: float = 3.0
    half_length: float = verifymod.SuiteOptions.grid.half_length
    n: int = verifymod.SuiteOptions.grid.n
    newton_tol: float = solver1d.SolveOptions.newton_tol
    max_iters: int = solver1d.SolveOptions.max_iters
    seed: int = verifymod.SuiteOptions.seed
    out_dir: str = "."
    mode: str = "gibbons"
    lambda_from: float = 2.0
    lambda_to: float = 6.0
    step: float = 0.5
    steady_tol: float = solvernd.FlowOptions.steady_tol
    max_steps: int = solvernd.FlowOptions.max_steps
    stages: str = ",".join(verifymod.SuiteOptions.stages)

    def to_json(self) -> str:
        reads = _reader(self.command, self.mode)[1]
        values = {k: v for k, v in asdict(self).items() if k == "command" or k in reads}
        return json.dumps(values, indent=2)


_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name: str, raw):
    """Field ``name``'s value from a config file: a JSON value of the field's type, or a text of one."""
    kind = _TYPES[name]
    try:
        # a bool is no field's value, a text field takes only a text, and an integer field no fraction
        if (isinstance(raw, bool) or (kind is str and not isinstance(raw, str))
                or (kind is int and isinstance(raw, float) and not raw.is_integer())):
            raise ValueError
        value = kind(raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config field {name}: cannot parse {raw!r}") from exc
    if name == "mode" and value not in MODES:
        raise ValueError(f"config field mode: {value!r} is not one of {', '.join(MODES)}")
    return value


def load_config_file(path: str) -> dict:
    """Parse a JSON config file: one object whose keys are RunConfig field names.

    Every sidecar is such a file.  The values are returned as read, unchecked.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not a JSON file: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: not a JSON object")
    known = {f.name for f in fields(RunConfig)}
    for key in raw:
        if key not in known:
            raise ValueError(f"config field {key}: unknown")
    return raw


# the RunConfig fields each command reads, and each relax mode (the box
# modes run on verify.LIOUVILLE_BOX, lambda1 at coupling 1): they alone get
# a flag, enter the sidecar and may be set by a config file
RELAX_READS = {
    "gibbons": ("lam", "mode", "half_length", "n", "newton_tol", "max_iters", "seed", "steady_tol", "max_steps",
                "out_dir"),
    "liouville": ("lam", "mode", "seed", "steady_tol", "max_steps", "out_dir"),
    "lambda1": ("mode", "seed", "steady_tol", "max_steps", "out_dir"),
}
MODES = tuple(RELAX_READS)
READS = {
    "solve1d": ("lam", "half_length", "n", "newton_tol", "max_iters", "out_dir"),
    "sweep": ("half_length", "n", "newton_tol", "max_iters", "lambda_from", "lambda_to", "step", "out_dir"),
    "relax": RELAX_READS["gibbons"],  # every mode's fields get flags
    "verify": ("half_length", "n", "newton_tol", "max_iters", "seed", "steady_tol", "max_steps", "stages", "out_dir"),
}
COMMANDS = tuple(READS)

# each field's flag and help text, in the order a command's help lists them;
# --config, which every command takes, is no field
FLAGS = {
    "lam": ("--lambda", "coupling constant"),
    "half_length": ("--L", "half length of the axis"),
    "n": ("--n", "node count (>= 3)"),
    "newton_tol": ("--tol", "residual target"),
    "max_iters": ("--max-iters", None),
    "seed": ("--seed", None),
    "out_dir": ("--out", f"output directory (default ${OUT_ENV_VAR} or .)"),
    "config": ("--config", "JSON config file, such as a sidecar"),
    "mode": ("--mode", None),
    "lambda_from": ("--lambda-from", None),
    "lambda_to": ("--lambda-to", None),
    "step": ("--step", None),
    "stages": ("--stages", "comma list of stages, empty for none"),
    "steady_tol": ("--steady-tol", None),
    "max_steps": ("--max-steps", None),
}


def _reader(command: str, mode: str) -> tuple[str, tuple]:
    """(who, fields): the command, or for relax the command in its mode, and the fields it reads."""
    if command == "relax":
        return f"relax --mode {mode}", RELAX_READS[mode]
    return command, READS[command]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser with every subcommand, built once per process.

    Parsing leaves it as it was, and its help is formatted at print time,
    so the width follows ``COLUMNS`` as it is then.
    """
    parser = argparse.ArgumentParser(
        prog="gp-rigidity",
        description=(
            "Compute heteroclinic profiles of the two-component cubic system "
            "and check the rigidity catalog against them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name, help=RUNNERS[name][0])
        for dest, (flag, text) in FLAGS.items():
            if dest == "config" or dest in READS[name]:
                sp.add_argument(flag, dest=dest, type=_TYPES.get(dest), choices=MODES if dest == "mode" else None,
                                help=text)
        if name == "verify":
            sp.add_argument("--list-checks", action="store_true", help="print the check catalog and exit")
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    raw = load_config_file(args.config) if getattr(args, "config", None) else {}
    raw.pop("command", None)
    overrides = {}
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None and f.name != "command":
            overrides[f.name] = value
    # which fields are read is checked before any value; relax's mode decides it
    mode = RunConfig.mode
    if args.command == "relax":
        mode = overrides.get("mode") or _coerce("mode", raw.get("mode", mode))
    who, reads = _reader(args.command, mode)
    for key in [*raw, *overrides]:
        if key not in reads:
            raise ValueError(f"{key}: {who} does not read it")
    file_values = {key: _coerce(key, value) for key, value in raw.items()}
    cfg = replace(RunConfig(command=args.command), **{**file_values, **overrides})
    touched = set(file_values) | set(overrides)
    # relaxation runs use the battery slab's axis, not the Newton solver's
    if args.command == "relax" and "half_length" not in touched:
        cfg = replace(cfg, half_length=verifymod.GIBBONS_AXIS.half_length)
    if args.command == "relax" and "n" not in touched:
        cfg = replace(cfg, n=verifymod.GIBBONS_AXIS.n)
    if args.command == "relax" and cfg.mode == "liouville" and "lam" not in touched:
        # the shared default coupling 3 is outside the liouville range (0, 1)
        cfg = replace(cfg, lam=0.5)
    if "out_dir" not in touched:
        env_out = os.environ.get(OUT_ENV_VAR)
        if env_out:
            cfg = replace(cfg, out_dir=env_out)
    return cfg


def _write_sidecar(cfg: RunConfig) -> None:
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, f"{cfg.command}.config.json"), "w", encoding="ascii") as fh:
        fh.write(cfg.to_json() + "\n")


def _solve_options(cfg: RunConfig) -> solver1d.SolveOptions:
    return solver1d.SolveOptions(newton_tol=cfg.newton_tol, max_iters=cfg.max_iters)


def _flow_options(cfg: RunConfig) -> solvernd.FlowOptions:
    return solvernd.FlowOptions(steady_tol=cfg.steady_tol, max_steps=cfg.max_steps)


def _conclude(cfg: RunConfig, report_name: str | None, records, summary) -> int:
    """Write the report of ``records`` (unless ``report_name`` is None) and print ``summary(failed)``.

    A FAILED line follows for each failed record; returns the command's exit code.
    """
    report = verifymod.VerifyReport(version=verifymod.REPORT_VERSION, seed=cfg.seed, records=tuple(records))
    if report_name is not None:
        with open(os.path.join(cfg.out_dir, report_name), "w", encoding="ascii") as fh:
            fh.write(report.to_json() + "\n")
    failures = report.failures()
    print(summary(len(failures)))
    for rec in failures:
        print(f"  FAILED {rec.name} [{rec.theorem}]: margin {rec.margin:.3e}")
    return EXIT_OK if report.overall_pass else EXIT_CHECK_FAILED


def cmd_solve1d(cfg: RunConfig) -> int:
    records, outcome = verifymod.solve_records(Params(cfg.lam), Grid1D(cfg.half_length, cfg.n), _solve_options(cfg))
    _write_sidecar(cfg)
    gridmod.save_profile_csv(os.path.join(cfg.out_dir, "profile.csv"), outcome.profile)
    return _conclude(cfg, "report.json", records, lambda failed: (
        f"coupling {cfg.lam}: converged in {outcome.iterations} iterations, "
        f"residual {outcome.final_residual:.3e}, {len(records)} checks, {failed} failed"
    ))


def cmd_sweep(cfg: RunConfig) -> int:
    g = Grid1D(cfg.half_length, cfg.n)
    outcomes = solver1d.continuation_sweep(cfg.lambda_from, cfg.lambda_to, cfg.step, g, _solve_options(cfg))
    _write_sidecar(cfg)

    records = []
    summary = []
    for outcome in outcomes:
        p = Params(outcome.lam)
        prof = outcome.profile
        gridmod.save_profile_csv(os.path.join(cfg.out_dir, f"profile_lambda_{outcome.lam:g}.csv"), prof)
        rec = verifymod.sum_record(p, prof)
        energy = gridmod.discrete_energy_1d(p, prof)
        summary += [outcome.lam, rec.params["min_sum"], rec.params["max_sum"], energy, outcome.iterations]
        records.append(rec)
    summary_path = os.path.join(cfg.out_dir, "summary.csv")
    gridmod.save_summary_csv(summary_path, summary)
    return _conclude(cfg, None, records, lambda failed: f"sweep wrote {len(outcomes)} profiles and {summary_path}")


def cmd_relax(cfg: RunConfig) -> int:
    flow_opts = _flow_options(cfg)
    if cfg.mode == "gibbons":
        records, outcome = verifymod.gibbons_records(
            Params(cfg.lam), verifymod.GIBBONS_TRANSVERSE, Grid1D(cfg.half_length, cfg.n),
            flow_opts, _solve_options(cfg), cfg.seed,
        )
    elif cfg.mode == "liouville":
        records, outcome = verifymod.liouville_records(Params(cfg.lam), verifymod.LIOUVILLE_BOX, flow_opts, cfg.seed)
    else:  # lambda1
        records, outcome = verifymod.unit_coupling_records(verifymod.LIOUVILLE_BOX, flow_opts, cfg.seed)
    _write_sidecar(cfg)
    gridmod.save_slab_csv(os.path.join(cfg.out_dir, "field.csv"), outcome.field)
    gridmod.save_energy_trace_csv(os.path.join(cfg.out_dir, "energy_trace.csv"), outcome)
    return _conclude(cfg, "report.json", records, lambda failed: (
        f"relax mode={cfg.mode} coupling={records[0].params['lam']}: {outcome.steps} steps "
        f"({outcome.newton_steps} Newton, {outcome.rejected} candidates rejected), "
        f"final update {outcome.final_update:.3e}, "
        f"final residual {outcome.final_residual:.3e}, "
        f"{failed} of {len(records)} checks failed"
    ))


def cmd_verify(cfg: RunConfig) -> int:
    opts = verifymod.SuiteOptions(
        seed=cfg.seed,
        stages=tuple(s for s in cfg.stages.split(",") if s),
        grid=Grid1D(cfg.half_length, cfg.n),
        newton=_solve_options(cfg),
        flow=_flow_options(cfg),
    )
    records = verifymod.full_suite(opts).records
    _write_sidecar(cfg)
    return _conclude(cfg, "suite_report.json", records, lambda failed: (
        f"battery: {len(records)} checks, {failed} failed" if records
        else "no checks run (empty battery); overall pass is vacuous"
    ))


# each command's help summary and runner
RUNNERS = {
    "solve1d": ("solve one heteroclinic profile and verify it", cmd_solve1d),
    "sweep": ("continuation sweep over a coupling range", cmd_sweep),
    "relax": ("gradient-flow relaxation experiments", cmd_relax),
    "verify": ("run the full rigidity battery", cmd_verify),
}


def main(argv=None) -> int:
    """Run one command line and return its exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep 0 for --help, 1 otherwise
        code = exc.code if isinstance(exc.code, int) else 1
        return EXIT_OK if code == 0 else EXIT_ERROR

    try:
        cfg = resolve_config(args)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if getattr(args, "list_checks", False):
        print("\n".join(verifymod.THEOREM_TAGS))
        return EXIT_OK

    # values are validated by the objects that consume them (Params, Grid1D,
    # the option classes), so a ValueError here names a bad config value
    try:
        return RUNNERS[args.command][1](cfg)
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
