"""Benchmark of the gp-rigidity command line, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload battery|fronts|box --seed N --seconds S --trace 0|1

Every command runs in this process through ``gp_rigidity.cli.main`` and
writes into a fresh directory under ``perfbench/out/``; outputs are read back
and checked after the timed interval, then deleted.  With ``--trace 0`` the
run reports the end-to-end metrics, with ``--trace 1`` the per-layer ones.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_PROBES = 11
END_TO_END = {"run_s": "s", "run_cpu_s": "s", "setup_s": "s", "peak_mem_mb": "MB"}


class Bench:
    """Runs repetitions of one workload and checks every output."""

    def __init__(self, ops, work: Path):
        import gp_rigidity.cli
        import gp_rigidity.solvernd

        self.cli = gp_rigidity.cli
        # Each command starts with an empty factor cache, as in a fresh process.
        self.line_factor = getattr(gp_rigidity.solvernd, "_line_factor", None)
        self.ops = ops
        self.work = work
        self.reps = 0
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self._reports: dict[int, bytes] = {}

    def run_op(self, argv, out: Path, tracer=None):
        """Run one command; return its exit code (None if it raised) and output."""
        if self.line_factor is not None:
            self.line_factor.cache_clear()
        log = io.StringIO()
        with redirect_stdout(log), redirect_stderr(log):
            try:
                code = self.cli.main([*argv, "--out", str(out)])
            except Exception:  # counted as a failed operation
                code = None
                log.write(traceback.format_exc())
        if tracer is not None and self.line_factor is not None:
            tracer.counts["solvernd.line_factor.misses"] += self.line_factor.cache_info().misses
        return code, log.getvalue()

    def warm_up(self, commands) -> None:
        for k, argv in enumerate(commands):
            code, log = self.run_op(argv, self.work / f"warmup{k}")
            if code != 0:
                raise RuntimeError(f"warm-up command {argv} exited {code}:\n{log}")
        shutil.rmtree(self.work, ignore_errors=True)

    def rep(self, tracer=None):
        """One timed repetition: (wall s, process CPU s)."""
        outs = self._rep_dirs()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        results = [self.run_op(op.argv, out, tracer) for op, out in zip(self.ops, outs)]
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        self._check(outs, results)
        return wall, cpu

    def memory_rep(self) -> float:
        """One untimed repetition; the largest traced allocation peak of a command, MB.

        Garbage left by earlier commands is collected first and the peak is
        taken from the command's start, as if each command ran in a fresh
        process.
        """
        outs = self._rep_dirs()
        results, peak = [], 0
        tracemalloc.start()
        try:
            for op, out in zip(self.ops, outs):
                gc.collect()
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                results.append(self.run_op(op.argv, out))
                peak = max(peak, tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        self._check(outs, results)
        return peak / 1e6

    def _rep_dirs(self) -> list[Path]:
        rep_dir = self.work / f"rep{self.reps}"
        self.reps += 1
        rep_dir.mkdir(parents=True)
        return [rep_dir / f"op{j}" for j in range(len(self.ops))]

    def _check(self, outs, results) -> None:
        for j, (op, out, (code, log)) in enumerate(zip(self.ops, outs, results)):
            self.attempted += 1
            if code != 0:
                self.failed += 1
                self._note(f"{' '.join(op.argv)} exited {code}: {log.strip()[-500:]}")
                continue
            try:
                problems = op.check(out)
                report = (out / op.report).read_bytes()
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems, report = [f"unreadable output: {exc!r}"], b""
            if self._reports.setdefault(j, report) != report:
                problems.append(f"{op.report} differs from the first repetition")
            if problems:
                self.failed += 1
                self.correct = False
                self._note(f"{' '.join(op.argv)}: " + "; ".join(problems))
        shutil.rmtree(outs[0].parent)

    def _note(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)


def setup(workload: str, seed: int, work: Path) -> Bench:
    """Import the package, build the inputs, warm up: everything before timing."""
    import workloads  # imports numpy, so it belongs to the timed set-up

    build, warm_up = workloads.WORKLOADS[workload]
    bench = Bench(build(seed), work)
    bench.warm_up(warm_up)
    return bench


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def timed_run(bench: Bench, seconds: float) -> dict:
    """Fastest repetition's wall and CPU time, and the memory pass's peak.

    Every repetition does the same work, so the spread between them is the
    shared host's speed, which moves in bursts; the fastest repetition is
    the least disturbed one and repeats best from run to run (README).
    """
    walls, cpus = [], []
    end = time.perf_counter() + seconds
    while not walls or time.perf_counter() < end:
        wall, cpu = bench.rep()
        walls.append(wall)
        cpus.append(cpu)
    peak = bench.memory_rep()
    print(f"{len(walls)} timed repetitions; run_s per repetition: "
          + " ".join(f"{w:.4f}" for w in walls))
    return {"run_s": min(walls), "run_cpu_s": min(cpus), "peak_mem_mb": peak}


def traced_run(bench: Bench, seconds: float, trace_path: Path) -> dict:
    """Alternate untraced and traced repetitions; per-layer medians."""
    plain, traced, layers = [], [], []
    first = None
    end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < end:
        plain.append(bench.rep()[0])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced.append(bench.rep(tracer)[0])
        finally:
            tracer.uninstall()
        layers.append(tracer.metrics())
        first = first or tracer
    first.write_jsonl(trace_path)
    print(f"{len(traced)} traced repetitions; spans of the first in {trace_path.relative_to(ROOT)}")
    # median_low keeps counts whole; every traced repetition does the same work
    values = {name: statistics.median_low(m[name] for m in layers) for name in layers[0]}
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {name: values[name] for name in tracing.LAYER_METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("battery", "fronts", "box"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "gp_rigidity" / "cli.py").is_file():
        print(f"benchmark: no gp_rigidity sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"

    if args.setup_probe:
        t0 = time.perf_counter()
        setup(args.workload, args.seed, work)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0

    try:
        if args.trace:
            bench = setup(args.workload, args.seed, work)
            values = traced_run(bench, args.seconds, OUT / f"trace-{args.workload}-{args.seed}.jsonl")
            units = tracing.LAYER_METRICS
        else:
            setup_s = measure_setup(args.workload, args.seed)
            bench = setup(args.workload, args.seed, work)
            values = {**timed_run(bench, args.seconds), "setup_s": setup_s}
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in bench.problems:
        print(f"benchmark: {problem}", file=sys.stderr)
    result = {
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
