"""Experiment harness: sweep drivers that emit deterministic CSV tables.

Four experiments are provided: per-shard-count risk curves, throughput and
solver effort versus the shard budget, an adversarial-probability sweep, and
a score mean/STD sweep on generated instances. Rows are computed
independently (optionally in parallel, capped by SHARDALLOC_THREADS), sorted
by a stable key, and written with full-precision floats so a rerun with the
same config and seed reproduces the artifact byte for byte. Wall-clock
columns stay empty unless timing is explicitly enabled, because measured
times can never be reproducible.

Every row that produced an allocation also stores it as a CSV next to the
instance file, so ``revalidate_results`` can recompute each reported risk
number from the stored artifacts.
"""

from __future__ import annotations

import json
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

from .errors import (GenerationFailure, InstanceTooLargeError, InvariantViolation,
                     ShardAllocError)
from .baselines import (BaselineMethod, DEFAULT_RESTART_BUDGET, exhaustive_best_pr51,
                        greedy_round_robin, random_restart_best, run_baseline,
                        uniform_split)
from .bounds import allocation_pr51
from .lagrangian import StationarityVariant, check_feasibility, solve_p3
from .model import (Allocation, InstanceGenConfig, ProblemInstance,
                    generate_instance, instance_stats, json_dataclass, json_field,
                    load_allocation_csv, load_instance, read_json_object,
                    save_allocation_csv, save_instance)
from .optimizer import SearchMode, optimize_sharding, throughput

EXPERIMENT_IDS = ("pr51_vs_shards", "throughput_and_time", "adv_prob_sweep",
                  "mean_std_sweep")

METHOD_LGRN_REDERIVED = "lgrn_rederived"
METHOD_LGRN_LITERAL = "lgrn_literal"
METHOD_UNIFORM = "uniform"
METHOD_GREEDY = "greedy"
METHOD_RANDOM_RESTART = "random_restart"
METHOD_EXHAUSTIVE = "exhaustive"

ALL_METHODS = (METHOD_LGRN_REDERIVED, METHOD_LGRN_LITERAL, METHOD_UNIFORM,
               METHOD_GREEDY, METHOD_RANDOM_RESTART, METHOD_EXHAUSTIVE)

CSV_HEADER = ["experiment_id", "instance_label", "method", "sigma", "pr51",
              "throughput_tx_s", "wall_time_ms", "solves", "status"]

PR51_REVALIDATION_RTOL = 1e-12


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_id: str
    label: str
    methods: tuple[str, ...]
    instance_path: str | None = None
    gen: InstanceGenConfig | None = None
    sigma_grid: tuple[int, ...] = ()
    s_max_grid: tuple[int, ...] = ()
    scale_percents: tuple[float, ...] = ()
    mean_grid: tuple[float, ...] = ()
    std_grid: tuple[float, ...] = ()
    restart_budget: int = DEFAULT_RESTART_BUDGET
    grid_steps: int = 4
    rng_seed: int = 0
    record_wall_time: bool = False

    def __post_init__(self) -> None:
        if self.experiment_id not in EXPERIMENT_IDS:
            raise InvariantViolation(
                f"unknown experiment_id {self.experiment_id!r}; "
                f"expected one of {EXPERIMENT_IDS}")
        if "," in self.label or "".join(self.label.splitlines()) != self.label:
            # The result CSV is written unquoted and read back line by line.
            raise InvariantViolation(
                f"label {self.label!r} must not contain a comma or a line break")
        if not self.methods:
            raise InvariantViolation("method list must be non-empty")
        for m in self.methods:
            if m not in ALL_METHODS:
                raise InvariantViolation(f"unknown method {m!r}")
        if self.instance_path is None and self.gen is None:
            raise InvariantViolation("config needs an instance_path or a gen block")
        needed = {
            "pr51_vs_shards": self.sigma_grid,
            "throughput_and_time": self.s_max_grid,
            "adv_prob_sweep": self.scale_percents,
            "mean_std_sweep": self.mean_grid and self.std_grid,
        }[self.experiment_id]
        if not needed:
            raise InvariantViolation(
                f"experiment {self.experiment_id} requires its sweep grid to be non-empty")


def config_to_dict(config: ExperimentConfig) -> dict:
    d: dict = {
        "experiment_id": config.experiment_id,
        "label": config.label,
        "methods": list(config.methods),
        "sigma_grid": list(config.sigma_grid),
        "s_max_grid": list(config.s_max_grid),
        "scale_percents": list(config.scale_percents),
        "mean_grid": list(config.mean_grid),
        "std_grid": list(config.std_grid),
        "restart_budget": config.restart_budget,
        "grid_steps": config.grid_steps,
        "rng_seed": config.rng_seed,
        "record_wall_time": config.record_wall_time,
    }
    if config.instance_path is not None:
        d["instance_path"] = config.instance_path
    if config.gen is not None:
        d["gen"] = asdict(config.gen)
    return d


# Optional fields of the experiment config file; an absent one takes the
# ExperimentConfig default.
_OPTIONAL_FIELDS = {
    "instance_path": str, "sigma_grid": list[int], "s_max_grid": list[int],
    "scale_percents": list[float], "mean_grid": list[float],
    "std_grid": list[float], "restart_budget": int, "grid_steps": int,
    "rng_seed": int, "record_wall_time": bool,
}


def config_from_dict(data: dict) -> ExperimentConfig:
    gen = json_field(data, "gen", dict, None)
    return ExperimentConfig(
        experiment_id=json_field(data, "experiment_id", str),
        label=json_field(data, "label", str, "instance"),
        methods=json_field(data, "methods", list[str]),
        gen=None if gen is None else json_dataclass(InstanceGenConfig, gen),
        **{key: json_field(data, key, kind)
           for key, kind in _OPTIONAL_FIELDS.items() if key in data})


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    return config_from_dict(read_json_object(path, "experiment config"))


@dataclass(frozen=True)
class ResultRow:
    experiment_id: str
    instance_label: str
    method: str
    sigma: int
    pr51: float | None
    throughput_tx_s: float | None
    wall_time_ms: float | None
    solves: int | None
    status: str

    def sort_key(self) -> tuple:
        return (self.experiment_id, self.instance_label, self.sigma, self.method)


def _fmt(value: float | int | None) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def write_rows(rows: Sequence[ResultRow], path: str | Path) -> None:
    lines = [",".join(CSV_HEADER)]
    for row in sorted(rows, key=ResultRow.sort_key):
        lines.append(",".join([
            row.experiment_id, row.instance_label, row.method, str(row.sigma),
            _fmt(row.pr51), _fmt(row.throughput_tx_s), _fmt(row.wall_time_ms),
            _fmt(row.solves), row.status]))
    Path(path).write_text("\n".join(lines) + "\n")


def _thread_count() -> int:
    raw = os.environ.get("SHARDALLOC_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        value = 1
    if value == 0:
        return os.cpu_count() or 1
    return max(1, value)


def _map_jobs(fn: Callable, items: Sequence) -> list:
    workers = _thread_count()
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _safe_label(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.@%-]", "-", label)


def _restart_seed(rng_seed: int, method: str, sigma: int) -> int:
    # Scale sweeps reuse the same sample stream per (method, sigma) so risk
    # stays monotone in the scale factor.
    return rng_seed * 1_000_003 + sigma * 1_009 + len(method)


def _load_base_instance(config: ExperimentConfig) -> ProblemInstance:
    if config.instance_path is not None:
        return load_instance(config.instance_path)
    assert config.gen is not None
    return generate_instance(config.gen)


def _alloc_path(output_dir: Path, experiment_id: str, label: str, method: str,
                sigma: int) -> Path:
    return (output_dir / "allocs" /
            f"{experiment_id}__{_safe_label(label)}__{method}__s{sigma}.csv")


def _store_instance(instance: ProblemInstance, output_dir: Path, label: str) -> None:
    save_instance(instance, output_dir / f"instance__{_safe_label(label)}.json")


def _method_allocation(instance: ProblemInstance, method: str, sigma: int,
                       config: ExperimentConfig) -> Allocation:
    """The allocation a method proposes at a fixed shard count."""
    if method == METHOD_LGRN_REDERIVED:
        return solve_p3(instance, sigma, variant=StationarityVariant.REDERIVED).allocation
    if method == METHOD_LGRN_LITERAL:
        return solve_p3(instance, sigma, variant=StationarityVariant.LITERAL).allocation
    if method == METHOD_UNIFORM:
        return uniform_split(instance, sigma)
    if method == METHOD_GREEDY:
        return greedy_round_robin(instance, sigma)
    if method == METHOD_RANDOM_RESTART:
        alloc, _, _ = random_restart_best(
            instance, sigma, budget=config.restart_budget,
            seed=_restart_seed(config.rng_seed, method, sigma))
        return alloc
    if method == METHOD_EXHAUSTIVE:
        alloc, _ = exhaustive_best_pr51(instance, sigma, grid_steps=config.grid_steps)
        return alloc
    raise InvariantViolation(f"unknown method {method!r}")


def _status_row(config: ExperimentConfig, label: str, method: str, sigma: int,
                status: str) -> ResultRow:
    """A row that carries only a status: no risk, throughput, time or solves."""
    return ResultRow(config.experiment_id, label, method, sigma, None, None,
                     None, None, status)


def _guarded(config: ExperimentConfig, label: str, method: str, sigma: int,
             build: Callable[[], ResultRow]) -> ResultRow:
    """``build()``, with a too-large or failed computation as its status row."""
    try:
        return build()
    except InstanceTooLargeError:
        return _status_row(config, label, method, sigma, "too_large")
    except ShardAllocError:
        return _status_row(config, label, method, sigma, "error")


def _per_sigma_row(instance: ProblemInstance, method: str, sigma: int,
                   config: ExperimentConfig, label: str,
                   output_dir: Path) -> ResultRow:
    return _guarded(config, label, method, sigma, lambda: _allocation_row(
        instance, method, sigma, config, label, output_dir))


def _allocation_row(instance: ProblemInstance, method: str, sigma: int,
                    config: ExperimentConfig, label: str,
                    output_dir: Path) -> ResultRow:
    start = time.perf_counter()
    alloc = _method_allocation(instance, method, sigma, config)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    pr51 = allocation_pr51(alloc)
    feasible = check_feasibility(alloc).feasible
    path = _alloc_path(output_dir, config.experiment_id, label, method, sigma)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_allocation_csv(alloc, path)
    return ResultRow(
        config.experiment_id, label, method, sigma, pr51,
        throughput(sigma, instance.t_per_shard) if feasible else None,
        elapsed_ms if config.record_wall_time else None, None,
        "feasible" if feasible else "infeasible")


def run_pr51_vs_shards(config: ExperimentConfig, output_dir: str | Path) -> list[ResultRow]:
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    instance = _load_base_instance(config)
    _store_instance(instance, out, config.label)
    jobs = [(method, sigma) for method in config.methods
            for sigma in config.sigma_grid]
    rows = _map_jobs(
        lambda job: _per_sigma_row(instance, job[0], job[1], config,
                                   config.label, out), jobs)
    return rows


def _optimizer_row(instance: ProblemInstance, method: str, config: ExperimentConfig,
                   label: str, output_dir: Path, sigma_hint: int | None = None,
                   save_alloc: bool = True) -> ResultRow:
    return _guarded(config, label, method, sigma_hint or 0, lambda: _search_row(
        instance, method, config, label, output_dir, save_alloc))


def _search_row(instance: ProblemInstance, method: str, config: ExperimentConfig,
                label: str, output_dir: Path, save_alloc: bool) -> ResultRow:
    start = time.perf_counter()
    if method in (METHOD_LGRN_REDERIVED, METHOD_LGRN_LITERAL):
        variant = (StationarityVariant.REDERIVED
                   if method == METHOD_LGRN_REDERIVED
                   else StationarityVariant.LITERAL)
        sol = optimize_sharding(instance, variant, SearchMode.BINARY)
        status = sol.status.value
        sigma_star, alloc, pr51 = sol.sigma_star, sol.allocation, sol.pr51
        solves = sol.solves_performed
        tput = sol.throughput
    else:
        base = run_baseline(
            instance, BaselineMethod(method), budget=config.restart_budget,
            grid_steps=config.grid_steps,
            seed=_restart_seed(config.rng_seed, method, 0))
        sigma_star, alloc, pr51 = base.sigma_star, base.allocation, base.pr51
        status = {0: "unsafe", 1: "unsharded_safe"}.get(sigma_star, "sharded")
        solves = None
        tput = base.throughput
    elapsed_ms = (time.perf_counter() - start) * 1e3
    if save_alloc and alloc is not None:
        path = _alloc_path(output_dir, config.experiment_id, label, method,
                           sigma_star)
        path.parent.mkdir(parents=True, exist_ok=True)
        save_allocation_csv(alloc, path)
    return ResultRow(config.experiment_id, label, method, sigma_star, pr51,
                     tput, elapsed_ms if config.record_wall_time else None,
                     solves, status)


def run_throughput_and_time(config: ExperimentConfig,
                            output_dir: str | Path) -> list[ResultRow]:
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = _load_base_instance(config)

    def job(item: tuple[str, int]) -> ResultRow:
        method, s_max = item
        instance = base.with_s_max(s_max)
        label = f"{config.label}_S{s_max}"
        _store_instance(instance, out, label)
        return _optimizer_row(instance, method, config, label, out)

    jobs = [(method, s) for method in config.methods for s in config.s_max_grid]
    return _map_jobs(job, jobs)


def run_adv_prob_sweep(config: ExperimentConfig,
                       output_dir: str | Path) -> list[ResultRow]:
    """Per scale factor: each method's risk at the full shard budget plus its
    best achievable throughput. Scales pushing any probability to 0.5 or
    beyond are marked rather than evaluated."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = _load_base_instance(config)

    def scaled_row(instance: ProblemInstance, label: str, method: str) -> ResultRow:
        start = time.perf_counter()
        alloc = _method_allocation(instance, method, base.s_max, config)
        pr51 = allocation_pr51(alloc)
        opt_row = _optimizer_row(instance, method, config, label, out,
                                 sigma_hint=base.s_max, save_alloc=False)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        path = _alloc_path(out, config.experiment_id, label, method, base.s_max)
        path.parent.mkdir(parents=True, exist_ok=True)
        save_allocation_csv(alloc, path)
        return ResultRow(config.experiment_id, label, method, base.s_max, pr51,
                         opt_row.throughput_tx_s,
                         elapsed_ms if config.record_wall_time else None,
                         opt_row.solves, opt_row.status)

    def job(item: tuple[float, str]) -> ResultRow:
        scale, method = item
        label = f"{config.label}@{scale:g}%"
        scaled_p = [p * scale / 100.0 for p in base.p_adv]
        if any(p >= 0.5 for p in scaled_p):
            return _status_row(config, label, method, base.s_max, "domain_exceeded")
        instance = base.with_p_adv(scaled_p)
        _store_instance(instance, out, label)
        return _guarded(config, label, method, base.s_max,
                        lambda: scaled_row(instance, label, method))

    jobs = [(scale, method) for scale in config.scale_percents
            for method in config.methods]
    return _map_jobs(job, jobs)


def run_mean_std_sweep(config: ExperimentConfig,
                       output_dir: str | Path) -> list[ResultRow]:
    """Generate one instance per (mean, STD) cell and record each method's
    risk at the full shard budget."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if config.gen is None:
        raise InvariantViolation("mean_std_sweep requires a gen block")
    cells = [(mean, std) for mean in config.mean_grid for std in config.std_grid]

    def job(item: tuple[int, tuple[float, float]]) -> list[ResultRow]:
        idx, (mean, std) = item
        label = f"{config.label}_mean{mean:g}_std{std:g}"
        gen_cfg = replace(config.gen, score_mean=mean, score_std=std,
                          max_difference=max(1.0, 6.0 * std),
                          rng_seed=config.rng_seed + 7919 * idx)
        try:
            instance = generate_instance(gen_cfg)
        except GenerationFailure:
            return [_status_row(config, label, method, config.gen.s_max,
                                "generation_failure")
                    for method in config.methods]
        _store_instance(instance, out, label)
        stats = instance_stats(instance)
        rows = []
        for method in config.methods:
            row = _per_sigma_row(instance, method, instance.s_max, config,
                                 label, out)
            rows.append(row)
        # Instance statistics travel in a sidecar file, one per cell.
        (out / f"stats__{_safe_label(label)}.json").write_text(json.dumps({
            "requested_mean": mean, "requested_std": std,
            "achieved_mean": stats.mean, "achieved_std": stats.std,
            "achieved_spread": stats.max_difference,
            "total_score": stats.total_score}, indent=2) + "\n")
        return rows

    nested = _map_jobs(job, list(enumerate(cells)))
    return [row for group in nested for row in group]


_RUNNERS = {
    "pr51_vs_shards": run_pr51_vs_shards,
    "throughput_and_time": run_throughput_and_time,
    "adv_prob_sweep": run_adv_prob_sweep,
    "mean_std_sweep": run_mean_std_sweep,
}


def run_experiment(config: ExperimentConfig, output_dir: str | Path) -> Path:
    """Run one experiment and write its CSV; returns the CSV path."""
    rows = _RUNNERS[config.experiment_id](config, output_dir)
    csv_path = Path(output_dir) / f"{config.experiment_id}.csv"
    write_rows(rows, csv_path)
    return csv_path


def revalidate_results(output_dir: str | Path) -> list[str]:
    """Recompute every stored risk number from its instance and allocation files.

    A row whose allocation file is missing is a problem unless its status is
    ``unsafe``: the search stores no allocation then, and the reported risk is
    the single-shard bound of the instance. A missing instance file, a
    malformed row, a CSV that is not UTF-8 text and a directory without any
    result CSV are always problems. Each instance file is loaded once per
    call. Returns human-readable problem descriptions (empty = clean).
    """
    out = Path(output_dir)
    problems: list[str] = []
    result_files = 0
    instances: dict[Path, ProblemInstance] = {}
    for csv_path in sorted(out.glob("*.csv")):
        try:
            lines = csv_path.read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError:
            problems.append(f"{csv_path.name}: not UTF-8 text")
            continue
        if not lines or lines[0] != ",".join(CSV_HEADER):
            continue
        result_files += 1
        for line in lines[1:]:
            problem = _revalidate_row(out, line.split(","), instances)
            if problem is not None:
                problems.append(f"{csv_path.name}: {problem}")
    if result_files == 0:
        problems.append(f"no experiment result CSV in {out}")
    return problems


def _revalidate_row(out: Path, parts: list[str],
                    instances: dict[Path, ProblemInstance]) -> str | None:
    if len(parts) != len(CSV_HEADER):
        return f"row with {len(parts)} fields, expected {len(CSV_HEADER)}: {parts!r}"
    experiment_id, label, method, sigma_s, pr51_s = parts[:5]
    status = parts[-1]
    if pr51_s == "":
        return None
    where = f"{label}/{method}/sigma={sigma_s}"
    try:
        sigma, reported = int(sigma_s), float(pr51_s)
    except ValueError:
        return f"{where}: unreadable sigma or pr51"
    inst_path = out / f"instance__{_safe_label(label)}.json"
    if inst_path not in instances:
        if not inst_path.exists():
            return f"{where}: instance file {inst_path.name} missing"
        instances[inst_path] = load_instance(inst_path)
    instance = instances[inst_path]
    alloc_path = _alloc_path(out, experiment_id, label, method, sigma)
    if alloc_path.exists():
        recomputed = allocation_pr51(load_allocation_csv(alloc_path, instance))
    elif status == "unsafe":
        recomputed = allocation_pr51(uniform_split(instance, 1))
    else:
        return f"{where}: allocation file {alloc_path.name} missing"
    denom = max(abs(reported), 1e-300)
    if not abs(recomputed - reported) / denom <= PR51_REVALIDATION_RTOL:
        return f"{where} pr51 {reported!r} != recomputed {recomputed!r}"
    return None
