"""Output checks for the benchmark workloads, computed apart from shardalloc.

Every function here reads the program's artifacts with its own parser and
recomputes the safety numbers with its own formula:

    t_s = sum_n (0.5 - p_n) * x[s, n],  q_s = sum_n x[s, n]^2,
    bound_s = min(1, exp(-2 t_s^2 / q_s)),
    b1 = bound of the single shard that holds every score.

No check compares against a stored copy of earlier output. Each returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# Relative tolerance for a recomputed risk number against the reported one.
PR51_RTOL = 1e-12
# Relative tolerance for per-user score conservation across shards.
CONSERVATION_RTOL = 1e-9

DOCUMENTED_STATUSES = frozenset({
    "feasible", "infeasible", "sharded", "unsharded_safe", "unsafe",
    "domain_exceeded", "generation_failure", "too_large", "error"})
# Rows whose allocation claims to pass the feasibility check.
FEASIBLE_STATUSES = frozenset({"feasible", "sharded", "unsharded_safe"})
# Documented, but each marks a row that could not be evaluated.
UNEVALUATED_STATUSES = frozenset({"too_large", "error"})

EXPERIMENT_HEADER = ["experiment_id", "instance_label", "method", "sigma", "pr51",
                     "throughput_tx_s", "wall_time_ms", "solves", "status"]


class InstanceData:
    """The fields of an instance file that the checks need."""

    def __init__(self, path: str | Path) -> None:
        data = json.loads(Path(path).read_text())
        w = data["weights"]
        mus = data["mus"]
        self.ids = [int(mu["id"]) for mu in mus]
        self.eta = np.array([w["alpha_d"] * mu["d"] + w["alpha_c"] * mu["c"]
                             + w["alpha_t"] * mu["t"] for mu in mus])
        self.p = np.array([float(mu["p_adv"]) for mu in mus])
        self.tau = float(data["tau"])
        self.s_max = int(data["s_max"])
        self.t_per_shard = float(data["t_per_shard"])

    @property
    def b1(self) -> float:
        return single_shard_bound(self.eta, self.p)


def single_shard_bound(eta: np.ndarray, p: np.ndarray) -> float:
    """b1 = exp(-2 (a.eta)^2 / |eta|^2), the bound of the unsharded network."""
    return shard_bounds(eta.reshape(1, -1), p)[0]


def shard_bounds(table: np.ndarray, p: np.ndarray) -> list[float]:
    """Bound of every shard that holds positive score, negatives clamped to 0."""
    a = 0.5 - p
    out = []
    for row in table:
        if not np.any(row > 0):
            continue
        x = np.maximum(row, 0.0)
        t = float(a @ x)
        q = float(x @ x)
        out.append(min(1.0, math.exp(-2.0 * t * t / q)))
    return out


def shard_safe(table: np.ndarray, p: np.ndarray, tau: float) -> list[bool]:
    """Per-shard t^2 >= -0.5 ln(tau) q; shards without score are vacuously safe."""
    a = 0.5 - p
    c = -0.5 * math.log(tau)
    verdicts = []
    for row in table:
        if not np.any(row > 0):
            verdicts.append(True)
            continue
        x = np.maximum(row, 0.0)
        t = float(a @ x)
        verdicts.append(t * t >= c * float(x @ x))
    return verdicts


def rel_close(a: float, b: float, rtol: float = PR51_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def read_allocation(path: str | Path, ids: list[int]) -> np.ndarray:
    """Parse ``shard,mu_id,score`` rows; every (shard, user) pair exactly once."""
    col = {mu: n for n, mu in enumerate(ids)}
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["shard", "mu_id", "score"]:
        raise ValueError(f"{path}: bad allocation header")
    entries = {}
    for rec in rows[1:]:
        key = (int(rec[0]), int(rec[1]))
        if key in entries or key[1] not in col or key[0] < 0:
            raise ValueError(f"{path}: bad or repeated pair {key}")
        entries[key] = float(rec[2])
    sigma = 1 + max(s for s, _ in entries)
    if len(entries) != sigma * len(ids):
        raise ValueError(f"{path}: {len(entries)} rows for {sigma} shards "
                         f"x {len(ids)} users")
    table = np.zeros((sigma, len(ids)))
    for (s, mu), score in entries.items():
        table[s, col[mu]] = score
    return table


def conservation_problems(table: np.ndarray, eta: np.ndarray) -> list[str]:
    problems = []
    err = float(np.max(np.abs(table.sum(axis=0) - eta) / eta))
    if err > CONSERVATION_RTOL:
        problems.append(f"score conservation off by {err:.3e}")
    if float(table.min()) < 0.0:
        problems.append(f"negative allocation entry {float(table.min())!r}")
    return problems


# ---------------------------------------------------------------------------
# reconfigure


def check_solve(instance_path: str | Path, solution_path: str | Path) -> list[str]:
    """``shardalloc solve`` output against b1 and the mediant law.

    The uniform split reaches b1 at every shard count and no allocation beats
    it, so the search must reach sigma* = S exactly when b1 <= tau and must
    end ``unsafe`` otherwise.
    """
    inst = InstanceData(instance_path)
    sol = json.loads(Path(solution_path).read_text())
    s_max, b1 = inst.s_max, inst.b1
    problems = []
    budget = math.ceil(math.log2(max(2, s_max))) + 2
    if sol["solves_performed"] > budget:
        problems.append(f"{sol['solves_performed']} solves > budget {budget}")
    if b1 > inst.tau:
        if (sol["status"], sol["sigma_star"], sol["throughput_tx_s"]) != ("unsafe", 0, 0.0):
            problems.append(f"b1={b1:.3e} > tau={inst.tau:.3e} but status "
                            f"{sol['status']} sigma*={sol['sigma_star']}")
        if sol["allocation_csv"] is not None:
            problems.append("unsafe solution names an allocation file")
        if not rel_close(sol["pr51"], b1):
            problems.append(f"unsafe pr51 {sol['pr51']!r} != b1 {b1!r}")
        return problems
    if sol["status"] != "sharded" or sol["sigma_star"] != s_max:
        return problems + [f"b1={b1:.3e} <= tau={inst.tau:.3e} but status "
                           f"{sol['status']} sigma*={sol['sigma_star']} (S={s_max})"]
    if sol["throughput_tx_s"] != s_max * inst.t_per_shard:
        problems.append(f"throughput {sol['throughput_tx_s']} != S*T")
    try:
        table = read_allocation(sol["allocation_csv"], inst.ids)
    except (OSError, ValueError, TypeError) as exc:
        return problems + [f"allocation unreadable: {exc}"]
    if table.shape[0] != s_max:
        problems.append(f"allocation has {table.shape[0]} shards, expected {s_max}")
    problems += conservation_problems(table, inst.eta)
    bounds = shard_bounds(table, inst.p)
    if len(bounds) != table.shape[0]:
        problems.append("a shard of the allocation holds no score")
    if bounds and max(bounds) > inst.tau:
        problems.append(f"recomputed shard bound {max(bounds):.3e} > tau")
    if bounds and not rel_close(sol["pr51"], max(bounds)):
        problems.append(f"pr51 {sol['pr51']!r} != recomputed {max(bounds)!r}")
    return problems


# ---------------------------------------------------------------------------
# simulate


def check_simulation(instance_path: str | Path, report_path: str | Path,
                     csv_path: str | Path, epochs: int, slots: int,
                     reconfigure_every: int) -> list[str]:
    """Report and per-epoch CSV of ``shardalloc simulate`` against each other."""
    inst = InstanceData(instance_path)
    rep = json.loads(Path(report_path).read_text())
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    problems = []
    if rows[0] != ["epoch", "shard", "adv_fraction", "attacked", "leader_mu",
                   "reconfigured"]:
        return [f"bad epoch CSV header {rows[0]!r}"]
    rows = rows[1:]
    sigmas = rep["sigma_history"]
    if rep["aborted"] or rep["epochs_run"] != epochs or len(sigmas) != epochs:
        problems.append(f"run ended after {rep['epochs_run']} of {epochs} epochs")
    expected_reconf = -(-epochs // reconfigure_every)
    if rep["reconfigurations"] != expected_reconf:
        problems.append(f"{rep['reconfigurations']} reconfigurations, "
                        f"expected {expected_reconf}")
    pairs = sum(sigmas)
    if rep["total_pairs"] != pairs:
        problems.append(f"total_pairs {rep['total_pairs']} != sum(sigma) {pairs}")
    led = sum(c for _, c in rep["leader_counts"])
    if led != pairs * slots:
        problems.append(f"leader counts sum to {led}, expected {pairs * slots}")
    known = set(inst.ids)
    if any(mu not in known or c < 1 for mu, c in rep["leader_counts"]):
        problems.append("leader count for an unknown user or a zero count")
    expected_keys = [(e, s) for e, sigma in enumerate(sigmas) for s in range(sigma)]
    if [(int(r[0]), int(r[1])) for r in rows] != expected_keys:
        return problems + [f"CSV has {len(rows)} (epoch, shard) rows, "
                           f"expected {len(expected_keys)} in order"]
    counted = dict(rep["leader_counts"])
    attacked = 0
    fraction_sum = 0.0
    for epoch, _, frac_s, attacked_s, leader_s, reconf_s in rows:
        frac = float(frac_s)
        fraction_sum += frac
        attacked += int(attacked_s)
        if int(attacked_s) != int(frac >= 0.5):
            problems.append(f"epoch {epoch}: attacked flag disagrees with {frac}")
        # Every feasible allocation the search returns is the uniform split, so
        # every user holds score in every shard and may lead any of them.
        if int(leader_s) not in counted:
            problems.append(f"epoch {epoch}: leader {leader_s} not in leader counts")
        if int(reconf_s) != int(int(epoch) % reconfigure_every == 0):
            problems.append(f"epoch {epoch}: reconfigured flag {reconf_s}")
    if attacked != rep["attacked_pairs"]:
        problems.append(f"CSV has {attacked} attacked pairs, report "
                        f"{rep['attacked_pairs']}")
    if pairs and not rel_close(rep["attacked_fraction"], attacked / pairs):
        problems.append("attacked_fraction differs from the CSV")
    if pairs and not rel_close(rep["mean_adversary_fraction"], fraction_sum / pairs):
        problems.append(f"mean_adversary_fraction {rep['mean_adversary_fraction']!r} "
                        f"!= CSV mean {fraction_sum / pairs!r}")
    return problems


# ---------------------------------------------------------------------------
# bulk


def check_greedy(table: np.ndarray, eta: np.ndarray) -> list[str]:
    """Whole scores placed once each; shard loads differ by at most max eta."""
    problems = []
    placed = table != 0
    if not np.all(placed.sum(axis=0) == 1):
        problems.append("a score is split or missing in the greedy table")
    elif not np.array_equal(table.sum(axis=0), eta):
        problems.append("greedy table does not hold each whole score")
    loads = table.sum(axis=1)
    if float(loads.max() - loads.min()) > float(eta.max()):
        problems.append(f"greedy load spread {float(loads.max() - loads.min())} "
                        f"> max score {float(eta.max())}")
    return problems


def check_bulk(instance_path: str | Path, eta: np.ndarray, instances_equal: bool,
               uniform: np.ndarray, greedy: np.ndarray, reloaded: np.ndarray,
               verdicts: tuple[bool, bool], pr51s: tuple[float, float, float]
               ) -> list[str]:
    """The bulk pipeline's artifacts against b1 and the greedy invariants.

    ``pr51s`` holds the program's pr51 for the uniform table, the greedy
    table and the reloaded uniform table; ``verdicts`` its feasibility
    verdicts for the uniform and greedy tables.
    """
    inst = InstanceData(instance_path)
    problems = []
    if not instances_equal or not np.array_equal(inst.eta, eta):
        problems.append("instance does not round-trip through its file")
    if reloaded.shape != uniform.shape or not np.array_equal(
            reloaded.view(np.uint64), uniform.view(np.uint64)):
        problems.append("allocation CSV does not round-trip bit for bit")
    b1 = inst.b1
    if not rel_close(pr51s[0], b1) or not rel_close(pr51s[2], b1):
        problems.append(f"uniform pr51 {pr51s[0]!r}/{pr51s[2]!r} != b1 {b1!r}")
    if not rel_close(pr51s[1], max(shard_bounds(greedy, inst.p))):
        problems.append("greedy pr51 differs from its recomputed bound")
    problems += conservation_problems(uniform, inst.eta)
    problems += check_greedy(greedy, inst.eta)
    for name, table, verdict in (("uniform", uniform, verdicts[0]),
                                 ("greedy", greedy, verdicts[1])):
        if verdict != all(shard_safe(table, inst.p, inst.tau)):
            problems.append(f"{name} feasibility verdict {verdict} disagrees")
    return problems


# ---------------------------------------------------------------------------
# sweep


def expected_row_count(config: dict) -> int:
    grid = {
        "pr51_vs_shards": len(config.get("sigma_grid", ())),
        "throughput_and_time": len(config.get("s_max_grid", ())),
        "adv_prob_sweep": len(config.get("scale_percents", ())),
        "mean_std_sweep": (len(config.get("mean_grid", ()))
                           * len(config.get("std_grid", ()))),
    }[config["experiment_id"]]
    return grid * len(config["methods"])


def _safe_label(label: str) -> str:
    return "".join(ch if (ch.isascii() and ch.isalnum()) or ch in "_.@%-" else "-"
                   for ch in label)


def check_experiment(output_dir: str | Path, config: dict) -> list[str]:
    """An experiment CSV: row count, statuses, every pr51 from stored files.

    A row whose allocation file exists is recomputed from it, and the file of
    a row that claims feasibility must conserve every score; a row without a
    file must be an ``unsafe`` row, whose pr51 is the single-shard bound b1.
    """
    out = Path(output_dir)
    exp_id = config["experiment_id"]
    lines = (out / f"{exp_id}.csv").read_text().splitlines()
    if not lines or lines[0].split(",") != EXPERIMENT_HEADER:
        return ["bad experiment CSV header"]
    rows = [line.split(",") for line in lines[1:]]
    problems = []
    if len(rows) != expected_row_count(config):
        problems.append(f"{len(rows)} rows, expected {expected_row_count(config)}")
    instances: dict[str, InstanceData] = {}
    for row in rows:
        if len(row) != len(EXPERIMENT_HEADER):
            problems.append(f"row with {len(row)} fields")
            continue
        rid, label, method, sigma, pr51 = row[:5]
        status = row[-1]
        if rid != exp_id or status not in DOCUMENTED_STATUSES:
            problems.append(f"row {label}/{method}: status {status!r}")
        if status in UNEVALUATED_STATUSES:
            problems.append(f"row {label}/{method}/{sigma} was not evaluated ({status})")
        if pr51 == "":
            continue
        safe = _safe_label(label)
        if safe not in instances:
            instances[safe] = InstanceData(out / f"instance__{safe}.json")
        inst = instances[safe]
        alloc = out / "allocs" / f"{exp_id}__{safe}__{method}__s{sigma}.csv"
        if alloc.exists():
            table = read_allocation(alloc, inst.ids)
            if status in FEASIBLE_STATUSES:
                problems += [f"row {label}/{method}/{sigma}: {p}"
                             for p in conservation_problems(table, inst.eta)]
            recomputed = max(shard_bounds(table, inst.p))
        elif status == "unsafe":
            recomputed = inst.b1
        else:
            problems.append(f"row {label}/{method}/{sigma}: no allocation file")
            continue
        if not rel_close(float(pr51), recomputed):
            problems.append(f"row {label}/{method}/{sigma}: pr51 {pr51} != "
                            f"recomputed {recomputed!r}")
    return problems
