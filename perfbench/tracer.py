"""Per-layer tracing for the benchmark's traced runs.

The tracer replaces each layer's functions with timing wrappers in every
shardalloc namespace that holds them, so a call from ``optimizer`` into
``lagrangian.solve_p3`` is seen with its caller. Spans are kept in memory,
only while an operation is being timed, and written as JSON lines at the end.
A layer's self time is its span minus the spans of the calls it made.

Tracing is installed only in traced runs; untraced runs never import this
module, so their figures carry no wrapper cost.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

# Layer functions timed with a span, by defining module.
SPANNED = {
    "cli": ["cli_dispatch"],
    "model": ["generate_instance", "save_instance", "load_instance",
              "save_allocation_csv", "load_allocation_csv"],
    "bounds": ["allocation_pr51", "pr51_summary"],
    "lagrangian": ["assemble_system", "solve_linear_system", "solve_p3",
                   "check_feasibility"],
    "optimizer": ["optimize_sharding", "save_solution"],
    "baselines": ["uniform_split", "greedy_round_robin", "random_restart_feasibility",
                  "random_restart_best", "exhaustive_search", "exhaustive_best_pr51",
                  "run_baseline"],
    "simulator": ["run_simulation", "save_simulation_report", "write_epoch_csv"],
    "experiments": ["run_experiment", "write_rows", "revalidate_results"],
    # Not a layer of its own: the invariant battery that ``validate`` runs.
    "selfcheck": ["run_invariant_suite"],
}
# Hot helpers and generators: counted, not timed, to keep the wrapper cost low.
COUNTED = {"simulator": ["_pick"]}
COUNTED_GENERATORS = {"baselines": ["_dirichlet_allocations", "_grid_scan"]}
WRITERS = ("model.save_instance", "model.save_allocation_csv")


class Tracer:
    """Spans ``[name, caller, parent, t0, t1, extra, op]`` and counters per (name, caller)."""

    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin_op(self, op: int) -> None:
        self.op = op
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self._stack.clear()

    def spanned(self, name: str, caller: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            record = [name, caller, self._stack[-1] if self._stack else -1,
                      time.perf_counter(), 0.0, None, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                self._stack.pop()
            record[5] = _extra(name, args, kwargs, result)
            return result
        return wrapper

    def counted(self, name: str, caller: str, fn, generator: bool = False):
        key = (name, caller)
        if generator:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    if self.active:
                        self.counts[key] += 1
                    yield item
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.active:
                    self.counts[key] += 1
                return fn(*args, **kwargs)
        return wrapper

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, caller, parent, t0, t1, extra, op in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "caller": caller,
                                     "parent": parent,
                                     "ms": (t1 - t0) * 1e3}) + "\n")


def _extra(name: str, args: tuple, kwargs: dict, result):
    """Sizes that a span records beside its time."""
    if name in WRITERS:
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        return os.path.getsize(path)
    if name == "lagrangian.assemble_system":
        return result.a.nbytes
    if name == "optimizer.optimize_sharding":
        return result.solves_performed
    if name == "simulator.run_simulation":
        return len(result.epoch_reports)
    if name == "experiments.write_rows":
        return len(args[0])
    if name == "lagrangian.check_feasibility":
        return bool(result.feasible)
    return None


class _Delegate:
    """Attribute proxy that overrides a few names of a module."""

    def __init__(self, target, **overrides) -> None:
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def install(tracer: Tracer) -> None:
    """Wrap every listed function in every shardalloc namespace holding it."""
    import numpy as np

    from shardalloc import bounds, cli, lagrangian, model  # noqa: F401 - cli loads every layer

    modules = {name: mod for name, mod in sys.modules.items()
               if name == "shardalloc" or name.startswith("shardalloc.")}

    def replace(layer: str, fname: str, make) -> None:
        original = getattr(modules[f"shardalloc.{layer}"], fname)
        for mod_name, mod in modules.items():
            if getattr(mod, fname, None) is original:
                caller = mod_name.rpartition(".")[2]
                setattr(mod, fname, make(f"{layer}.{fname.lstrip('_')}", caller,
                                         original))

    for layer, names in SPANNED.items():
        for fname in names:
            replace(layer, fname, tracer.spanned)
    for layer, names in COUNTED.items():
        for fname in names:
            replace(layer, fname, tracer.counted)
    for layer, names in COUNTED_GENERATORS.items():
        for fname in names:
            replace(layer, fname, functools.partial(tracer.counted, generator=True))
    # Instance construction, allocation tables and shard columns are built
    # through classes; wrap their initialisers.
    model.ProblemInstance.__post_init__ = tracer.spanned(
        "model.ProblemInstance", "model", model.ProblemInstance.__post_init__)
    model.Allocation.__init__ = tracer.counted(
        "model.Allocation", "model", model.Allocation.__init__)
    bounds.ShardColumn.__post_init__ = tracer.counted(
        "bounds.ShardColumn", "bounds", bounds.ShardColumn.__post_init__)
    # The minimum-norm fallback is reached through lagrangian's numpy handle.
    lagrangian.np = _Delegate(np, linalg=_Delegate(
        np.linalg, lstsq=tracer.counted("lagrangian.lstsq", "lagrangian",
                                        np.linalg.lstsq)))


# ---------------------------------------------------------------------------
# Per-layer metrics


class _Spans:
    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.child_ms = [0.0] * len(spans)
        for span in spans:
            if span[2] >= 0:
                self.child_ms[span[2]] += (span[4] - span[3]) * 1e3

    def _ms(self, i: int) -> float:
        return (self.spans[i][4] - self.spans[i][3]) * 1e3

    def inclusive_ms(self, names: set[str]) -> float:
        """Time inside any of ``names``, counting nested calls among them once."""
        total = 0.0
        for i, span in enumerate(self.spans):
            if span[0] not in names:
                continue
            parent = span[2]
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][2]
            if parent < 0:
                total += self._ms(i)
        return total

    def self_ms(self, names: set[str]) -> float:
        return sum(self._ms(i) - self.child_ms[i]
                   for i, span in enumerate(self.spans) if span[0] in names)

    def select(self, name: str, caller: str | None = None) -> list[list]:
        return [s for s in self.spans
                if s[0] == name and (caller is None or s[1] == caller)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int,
                  rows_with_pr51: int) -> dict[str, tuple[float, str]]:
    """Per-operation layer figures from the spans and counters of ``ops`` ops."""
    s = _Spans(tracer.spans)
    counts = tracer.counts

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    def count(name: str, caller: str | None = None) -> int:
        return sum(c for (n, cl), c in counts.items()
                   if n == name and (caller is None or cl == caller))

    def ms(*names: str) -> float:
        return per_op(s.inclusive_ms(set(names)))

    searches = s.select("optimizer.optimize_sharding")
    verdicts = [sp[5] for sp in s.select("lagrangian.check_feasibility", "optimizer")]
    assembled = [sp[5] for sp in s.select("lagrangian.assemble_system")]
    writers = sum(sp[5] for name in WRITERS for sp in s.select(name))
    files = sum(len(s.select(name, "experiments"))
                for name in WRITERS + ("experiments.write_rows",))
    return {
        "lagrangian.assemble_ms": (ms("lagrangian.assemble_system"), "ms/op"),
        "lagrangian.solve_ms": (ms("lagrangian.solve_linear_system"), "ms/op"),
        "lagrangian.solves": (per_op(len(s.select("lagrangian.solve_linear_system"))),
                              "count/op"),
        "lagrangian.lstsq_fallbacks": (per_op(count("lagrangian.lstsq")), "count/op"),
        "lagrangian.system_mb": (max(assembled, default=0) / 1e6, "MB"),
        "lagrangian.feasibility_ms": (ms("lagrangian.check_feasibility"), "ms/op"),
        "lagrangian.feasibility_checks": (
            per_op(len(s.select("lagrangian.check_feasibility"))), "count/op"),
        "optimizer.search_self_ms": (per_op(s.self_ms({"optimizer.optimize_sharding"})),
                                     "ms/op"),
        "optimizer.solves_per_search": (
            _ratio(sum(sp[5] for sp in searches), len(searches)), "solves/search"),
        "optimizer.feasible_attempt_ratio": (_ratio(sum(verdicts), len(verdicts)),
                                             "ratio"),
        "bounds.pr51_ms": (ms("bounds.allocation_pr51", "bounds.pr51_summary"), "ms/op"),
        "bounds.shard_columns": (per_op(count("bounds.ShardColumn")), "count/op"),
        "model.instance_build_ms": (ms("model.generate_instance", "model.ProblemInstance"),
                                    "ms/op"),
        "model.instance_io_ms": (ms("model.save_instance", "model.load_instance"), "ms/op"),
        "model.alloc_csv_write_ms": (ms("model.save_allocation_csv"), "ms/op"),
        "model.alloc_csv_read_ms": (ms("model.load_allocation_csv"), "ms/op"),
        "model.bytes_written": (per_op(writers), "B/op"),
        "model.allocations": (per_op(count("model.Allocation")), "count/op"),
        "baselines.greedy_ms": (ms("baselines.greedy_round_robin"), "ms/op"),
        "baselines.random_restart_ms": (ms("baselines.random_restart_feasibility",
                                           "baselines.random_restart_best"), "ms/op"),
        "baselines.restart_samples": (per_op(count("baselines.dirichlet_allocations")),
                                      "count/op"),
        "baselines.exhaustive_ms": (ms("baselines.exhaustive_search",
                                       "baselines.exhaustive_best_pr51"), "ms/op"),
        "baselines.grid_points": (per_op(count("baselines.grid_scan")), "count/op"),
        "simulator.loop_self_ms": (per_op(s.self_ms({"simulator.run_simulation"})),
                                   "ms/op"),
        "simulator.elections": (per_op(count("simulator.pick")), "count/op"),
        "simulator.reconfigurations": (
            per_op(len(s.select("optimizer.optimize_sharding", "simulator"))), "count/op"),
        "simulator.output_ms": (ms("simulator.save_simulation_report",
                                   "simulator.write_epoch_csv"), "ms/op"),
        "simulator.retained_epoch_reports": (
            per_op(sum(sp[5] for sp in s.select("simulator.run_simulation"))), "count/op"),
        "experiments.self_ms": (per_op(s.self_ms({f"experiments.{n}"
                                                  for n in SPANNED["experiments"]})),
                                "ms/op"),
        "experiments.rows": (per_op(sum(sp[5] for sp in
                                        s.select("experiments.write_rows"))), "count/op"),
        "experiments.files_written": (per_op(files), "count/op"),
        "experiments.revalidate_ms": (ms("experiments.revalidate_results"), "ms/op"),
        "experiments.revalidated_fraction": (
            _ratio(len(s.select("model.load_allocation_csv", "experiments")),
                   rows_with_pr51), "ratio"),
        "cli.self_ms": (per_op(s.self_ms({"cli.cli_dispatch"})), "ms/op"),
        "selfcheck.suite_ms": (ms("selfcheck.run_invariant_suite"), "ms/op"),
    }
