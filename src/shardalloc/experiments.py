"""Experiment harness: sweep drivers that emit deterministic CSV tables.

Four experiments are provided: per-shard-count risk curves, throughput and
solver effort versus the shard budget, an adversarial-probability sweep, and
a score mean/STD sweep on generated instances. Each experiment is a list of
cells, one instance each; every (cell, method) pair goes through one row
function, serially. Rows are sorted by a stable key and written with
full-precision floats, so a rerun with the same config and seed reproduces the
artifact byte for byte. Wall-clock columns stay empty unless timing is
explicitly enabled, because measured times can never be reproducible.

Every row that produced an allocation also stores it as a CSV next to the
instance file, so ``revalidate_results`` can recompute each reported risk
number from the stored artifacts.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import asdict, dataclass, replace
from itertools import product
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

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
    """The config as JSON-ready data: tuples as lists, unset fields left out."""
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in asdict(config).items() if value is not None}


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


def _safe_label(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.@%-]", "-", label)


def _restart_seed(rng_seed: int, method: str, sigma: int) -> int:
    # Scale sweeps reuse the same sample stream per (method, sigma) so risk
    # stays monotone in the scale factor.
    return rng_seed * 1_000_003 + sigma * 1_009 + len(method)


def _alloc_path(output_dir: Path, experiment_id: str, label: str, method: str,
                sigma: int) -> Path:
    return (output_dir / "allocs" /
            f"{experiment_id}__{_safe_label(label)}__{method}__s{sigma}.csv")


_VARIANTS = {METHOD_LGRN_REDERIVED: StationarityVariant.REDERIVED,
             METHOD_LGRN_LITERAL: StationarityVariant.LITERAL}


def _method_allocation(instance: ProblemInstance, method: str, sigma: int,
                       config: ExperimentConfig) -> Allocation:
    """The allocation a method proposes at a fixed shard count."""
    if method in _VARIANTS:
        return solve_p3(instance, sigma, variant=_VARIANTS[method]).allocation
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


def _search(instance: ProblemInstance, method: str, config: ExperimentConfig) -> tuple:
    """A method's own search for its best shard count:
    ``(sigma*, allocation or None, pr51, throughput, solves, status)``."""
    if method in _VARIANTS:
        sol = optimize_sharding(instance, _VARIANTS[method], SearchMode.BINARY)
        return (sol.sigma_star, sol.allocation, sol.pr51, sol.throughput,
                sol.solves_performed, sol.status.value)
    base = run_baseline(
        instance, BaselineMethod(method), budget=config.restart_budget,
        grid_steps=config.grid_steps, seed=_restart_seed(config.rng_seed, method, 0))
    status = {0: "unsafe", 1: "unsharded_safe"}.get(base.sigma_star, "sharded")
    return (base.sigma_star, base.allocation, base.pr51, base.throughput, None, status)


class _Cell(NamedTuple):
    """One instance of an experiment and the shard counts its rows are made at.

    ``instance`` is the status of every row when the cell could not be built.
    Each method gets one row per entry of ``sigmas``, a fixed shard count or
    ``None`` for none; with ``search`` set the row also runs the method's own
    search for its best shard count. ``stats`` goes to the cell's sidecar file.
    """
    label: str
    instance: ProblemInstance | str
    sigmas: tuple[int | None, ...] = (None,)
    search: bool = False
    stats: dict | None = None


def _cells(config: ExperimentConfig) -> Iterator[_Cell]:
    if config.experiment_id == "mean_std_sweep":
        # One generated instance per (mean, STD) cell, each at the full budget.
        if config.gen is None:
            raise InvariantViolation("mean_std_sweep requires a gen block")
        grid = product(config.mean_grid, config.std_grid)
        for idx, (mean, std) in enumerate(grid):
            label = f"{config.label}_mean{mean:g}_std{std:g}"
            gen_cfg = replace(config.gen, score_mean=mean, score_std=std,
                              max_difference=max(1.0, 6.0 * std),
                              rng_seed=config.rng_seed + 7919 * idx)
            try:
                instance = generate_instance(gen_cfg)
            except GenerationFailure:
                yield _Cell(label, "generation_failure", (config.gen.s_max,))
                continue
            stats = instance_stats(instance)
            yield _Cell(label, instance, (instance.s_max,), stats={
                "requested_mean": mean, "requested_std": std,
                "achieved_mean": stats.mean, "achieved_std": stats.std,
                "achieved_spread": stats.max_difference,
                "total_score": stats.total_score})
        return
    base = (load_instance(config.instance_path) if config.instance_path is not None
            else generate_instance(config.gen))
    if config.experiment_id == "pr51_vs_shards":
        yield _Cell(config.label, base, config.sigma_grid)
    elif config.experiment_id == "throughput_and_time":
        for s_max in config.s_max_grid:
            yield _Cell(f"{config.label}_S{s_max}", base.with_s_max(s_max), search=True)
    else:
        # adv_prob_sweep: per scale factor, each method's risk at the full
        # shard budget plus its best throughput. Scales pushing any
        # probability to 0.5 or beyond are marked rather than evaluated.
        for scale in config.scale_percents:
            scaled_p = [p * scale / 100.0 for p in base.p_adv]
            instance = ("domain_exceeded" if any(p >= 0.5 for p in scaled_p)
                        else base.with_p_adv(scaled_p))
            yield _Cell(f"{config.label}@{scale:g}%", instance, (base.s_max,),
                        search=True)


def _status_row(config: ExperimentConfig, label: str, method: str, sigma: int,
                status: str) -> ResultRow:
    """A row that carries only a status: no risk, throughput, time or solves."""
    return ResultRow(config.experiment_id, label, method, sigma, None, None,
                     None, None, status)


def _failure_status(exc: ShardAllocError) -> str:
    return "too_large" if isinstance(exc, InstanceTooLargeError) else "error"


def _row(config: ExperimentConfig, out: Path, cell: _Cell, method: str,
         sigma: int | None) -> ResultRow:
    """One method's row on a cell, at a fixed shard count, from a search, or both.

    A fixed count alone gives its allocation's risk and feasibility; a search
    alone gives the best shard count found. Both give the risk at the fixed
    count with the search's throughput, solves and status, and a failed search
    keeps that risk. Any other failure gives a status row at the fixed count,
    or at 0 without one.
    """
    at = 0 if sigma is None else sigma
    if isinstance(cell.instance, str):
        return _status_row(config, cell.label, method, at, cell.instance)
    instance = cell.instance
    start = time.perf_counter()
    try:
        if sigma is None:
            sigma, alloc, pr51, tput, solves, status = _search(instance, method, config)
        else:
            alloc = _method_allocation(instance, method, sigma, config)
            pr51 = allocation_pr51(alloc)
            if cell.search:
                try:
                    tput, solves, status = _search(instance, method, config)[3:]
                except ShardAllocError as exc:
                    tput, solves, status = None, None, _failure_status(exc)
            else:
                feasible = check_feasibility(alloc).feasible
                tput = throughput(sigma, instance.t_per_shard) if feasible else None
                solves, status = None, "feasible" if feasible else "infeasible"
    except ShardAllocError as exc:
        return _status_row(config, cell.label, method, at, _failure_status(exc))
    elapsed_ms = (time.perf_counter() - start) * 1e3
    if alloc is not None:
        path = _alloc_path(out, config.experiment_id, cell.label, method, sigma)
        path.parent.mkdir(parents=True, exist_ok=True)
        save_allocation_csv(alloc, path)
    return ResultRow(config.experiment_id, cell.label, method, sigma, pr51, tput,
                     elapsed_ms if config.record_wall_time else None, solves, status)


def run_experiment(config: ExperimentConfig, output_dir: str | Path) -> Path:
    """Run one experiment and write its CSV; returns the CSV path.

    Each cell's instance file is written once, before its rows are computed.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows: list[ResultRow] = []
    for cell in _cells(config):
        name = _safe_label(cell.label)
        if not isinstance(cell.instance, str):
            save_instance(cell.instance, out / f"instance__{name}.json")
        if cell.stats is not None:
            (out / f"stats__{name}.json").write_text(
                json.dumps(cell.stats, indent=2) + "\n")
        rows += [_row(config, out, cell, method, sigma)
                 for method in config.methods for sigma in cell.sigmas]
    csv_path = out / f"{config.experiment_id}.csv"
    write_rows(rows, csv_path)
    return csv_path


def revalidate_results(output_dir: str | Path) -> list[str]:
    """Recompute every stored risk number from its instance and allocation files.

    A row whose allocation file is missing is a problem unless its status is
    ``unsafe``: the search stores no allocation then, and the reported risk is
    the single-shard bound of the instance. A missing instance file, an
    instance or allocation file that does not load, a malformed row, a CSV
    that is not UTF-8 text and a directory without any result CSV are always
    problems; the check goes on past each. Each instance file is loaded once
    per call. Returns human-readable problem descriptions (empty = clean).
    """
    out = Path(output_dir)
    problems: list[str] = []
    result_files = 0
    instances: dict[Path, ProblemInstance | str] = {}
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
                    instances: dict[Path, ProblemInstance | str]) -> str | None:
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
        try:
            instances[inst_path] = load_instance(inst_path)
        except ShardAllocError as exc:
            instances[inst_path] = f"instance file {inst_path.name} unreadable: {exc}"
    instance = instances[inst_path]
    if isinstance(instance, str):
        return f"{where}: {instance}"
    alloc_path = _alloc_path(out, experiment_id, label, method, sigma)
    if alloc_path.exists():
        try:
            alloc = load_allocation_csv(alloc_path, instance)
        except ShardAllocError as exc:
            return f"{where}: allocation file {alloc_path.name} unreadable: {exc}"
        recomputed = allocation_pr51(alloc)
    elif status == "unsafe":
        recomputed = allocation_pr51(uniform_split(instance, 1))
    else:
        return f"{where}: allocation file {alloc_path.name} missing"
    denom = max(abs(reported), 1e-300)
    if not abs(recomputed - reported) / denom <= PR51_REVALIDATION_RTOL:
        return f"{where} pr51 {reported!r} != recomputed {recomputed!r}"
    return None
