"""Spans and counts recorded around calls into the gp_rigidity modules.

The tracer never edits the package: it replaces module attributes with
wrappers for the duration of a traced repetition and puts the originals back
afterwards.  Every public function defined in ``model``, ``grid``,
``solver1d``, ``solvernd`` and ``verify`` gets a span named
``<module>.<function>``, wherever the package binds it (``cli`` imports
``liouville_constant`` by name, for instance).  The battery stages
(``verify._stage_<name>``) get ``verify.stage.<name>`` spans, ``cli.main``
gets one span per command, and the LAPACK banded solve gets a
``solver1d.solve_banded`` span when ``newton_solve`` calls it.  A name the
package no longer defines is skipped, and its metrics then read 0.

Spans stay in memory as ``[name, start, end, parent, cpu_start, cpu_end]``
lists; CPU times are taken only for the spans named in ``CPU_SPANS``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter, defaultdict

LAYERS = ("model", "grid", "solver1d", "solvernd", "verify")
STAGES = ("solves", "uniqueness", "gibbons", "liouville", "counterexample")
CPU_SPANS = frozenset({"solvernd.flow_step"})

# Per-layer metrics in report order: name -> unit.
LAYER_METRICS = {
    "model.reaction.calls": "count",
    "model.reaction.s": "s",
    "model.jacobian_entries.s": "s",
    "model.potential.s": "s",
    "grid.residual_1d.calls": "count",
    "grid.residual_1d.s": "s",
    "grid.discrete_energy_slab.calls": "count",
    "grid.discrete_energy_slab.s": "s",
    "grid.save_profile_csv.s": "s",
    "grid.profile_csv_mb": "MB",
    "grid.save_slab_csv.s": "s",
    "solver1d.newton_solve.calls": "count",
    "solver1d.newton_solve.s": "s",
    "solver1d.newton_solve.self_s": "s",
    "solver1d.newton_iters": "count",
    "solver1d.solve_banded.calls": "count",
    "solver1d.solve_banded.s": "s",
    "solver1d.pin_phase.calls": "count",
    "solver1d.pin_phase.s": "s",
    "solvernd.relax_to_steady.calls": "count",
    "solvernd.relax_to_steady.s": "s",
    "solvernd.flow_steps": "count",
    "solvernd.flow_step.s": "s",
    "solvernd.flow_step.self_s": "s",
    "solvernd.flow_step.cpu_s": "s",
    "solvernd.line_factor.misses": "count",
    **{f"verify.stage.{stage}.s": "s" for stage in STAGES},
    "verify.verify_profile.s": "s",
    "verify.records": "count",
    "cli.main.calls": "count",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, on_return=None):
        spans, stack = self.spans, self._stack
        with_cpu = name in CPU_SPANS
        perf, cpu = time.perf_counter, time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            if with_cpu:
                rec[4] = cpu()
            rec[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf()
                if with_cpu:
                    rec[5] = cpu()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, modules, original, new):
        """Rebind every package-level name that refers to ``original``."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    # -- installation --------------------------------------------------------

    def install(self):
        pkg = {name: importlib.import_module(f"gp_rigidity.{name}") for name in (*LAYERS, "cli")}
        modules = list(pkg.values())

        def add_iters(args, kwargs, outcome):
            self.counts["solver1d.newton_iters"] += outcome.iterations

        def add_csv_bytes(args, kwargs, result):
            path = args[0] if args else kwargs["path"]
            self.counts["grid.profile_csv_mb"] += os.path.getsize(path) / 1e6

        hooks = {"solver1d.newton_solve": add_iters, "grid.save_profile_csv": add_csv_bytes}
        for layer in LAYERS:
            mod = pkg[layer]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                self._patch_everywhere(modules, fn, self._wrap(name, fn, hooks.get(name)))

        verify = pkg["verify"]
        for stage in STAGES:
            fn = getattr(verify, f"_stage_{stage}", None)
            if inspect.isfunction(fn):
                self._patch(verify, f"_stage_{stage}", self._wrap(f"verify.stage.{stage}", fn))
        for attr in ("_record", "_failure_record"):
            fn = getattr(verify, attr, None)
            if inspect.isfunction(fn):
                self._patch(verify, attr, self._counted("verify.records", fn))

        cli = pkg["cli"]
        self._patch(cli, "main", self._wrap("cli.main", cli.main))

        import scipy.linalg

        banded = scipy.linalg.solve_banded
        in_newton = self._wrap("solver1d.solve_banded", banded)
        spans, stack = self.spans, self._stack

        @functools.wraps(banded)
        def solve_banded(*args, **kwargs):
            if stack and spans[stack[-1]][0] == "solver1d.newton_solve":
                return in_newton(*args, **kwargs)
            return banded(*args, **kwargs)

        self._patch(scipy.linalg, "solve_banded", solve_banded)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded, except ``trace.overhead_s``."""
        calls = Counter()
        total = defaultdict(float)
        own = defaultdict(float)
        cpu = defaultdict(float)
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, c0, c1 in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, c0, c1) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - covered[i]
            cpu[name] += c1 - c0
        values = {
            "solvernd.flow_steps": calls["solvernd.flow_step"],
            "solvernd.flow_step.cpu_s": cpu["solvernd.flow_step"],
            "cli.self_s": own["cli.main"],
        }
        for metric in LAYER_METRICS:
            if metric in values or metric == "trace.overhead_s":
                continue
            span, _, kind = metric.rpartition(".")
            if kind == "calls":
                values[metric] = calls[span]
            elif kind == "s":
                values[metric] = total[span]
            elif kind == "self_s":
                values[metric] = own[span]
            else:
                values[metric] = self.counts[metric]
        return values

    def write_jsonl(self, path) -> None:
        """Write one JSON line per span (parent is a line index, -1 for none), then the counts."""
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, c0, c1 in self.spans:
                row = {"name": name, "start": start, "end": end, "parent": parent}
                if name in CPU_SPANS:
                    row["cpu_s"] = c1 - c0
                fh.write(json.dumps(row) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
