"""Shard-count optimization: binary search over feasibility of the per-sigma solves.

The driver solves the stationarity system at sigma = S first; if that
allocation passes the feasibility check the search is over. Otherwise it
binary-searches sigma in [2, S-1] (integer midpoints rounded up so the
termination test is reachable), keeping the best feasible solution seen.
A final forced single-shard check distinguishes "cannot shard but safe as one
shard" from "unsafe even unsharded". The indicator vector x marking the first
sigma* shards as live is derived directly from sigma*.
"""

from __future__ import annotations

import enum
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvariantViolation
from .bounds import safety_holds, shard_stats
from .lagrangian import StationarityVariant, check_feasibility, solve_p3
from .model import Allocation, ProblemInstance


class SearchMode(enum.Enum):
    BINARY = "binary"
    LINEAR_SCAN = "linear-scan"


class SolutionStatus(enum.Enum):
    SHARDED = "sharded"
    UNSHARDED_SAFE = "unsharded_safe"
    UNSAFE = "unsafe"


def derive_x(sigma: int, s_max: int) -> tuple[int, ...]:
    """Shard indicator vector: ones for the first ``sigma`` slots.

    This is the one pattern the box constraints x_s >= (sigma - s + 1)/S and
    x_s <= max(0, sigma - s + 1), s = 1..S, admit for a live shard count of
    ``sigma``; ``verify_full_constraints`` checks them.
    """
    if not (0 <= sigma <= s_max):
        raise InvariantViolation(f"sigma={sigma} outside [0, {s_max}]")
    return tuple(1 if s <= sigma else 0 for s in range(1, s_max + 1))


def throughput(sigma: int, t_per_shard: float) -> float:
    """Network throughput: live shard count times per-shard capacity."""
    if sigma < 0:
        raise InvariantViolation("sigma must be >= 0")
    return float(sigma) * float(t_per_shard)


@dataclass(frozen=True)
class ShardingSolution:
    status: SolutionStatus
    sigma_star: int
    allocation: Allocation | None
    x: tuple[int, ...]
    throughput: float
    pr51: float
    per_shard_bounds: tuple[float, ...]
    solves_performed: int
    wall_time_s: float
    variant: StationarityVariant
    search_mode: SearchMode
    notes: tuple[str, ...] = ()


def _bounds_of(alloc: Allocation) -> tuple[float, ...]:
    _, _, bound, active = shard_stats(alloc.table, alloc.instance.p_adv_array)
    return tuple(bound[active].tolist())


def optimize_sharding(instance: ProblemInstance,
                      variant: StationarityVariant = StationarityVariant.REDERIVED,
                      search_mode: SearchMode = SearchMode.BINARY) -> ShardingSolution:
    """Find the largest shard count whose solved allocation is feasible at the
    instance's tau."""
    s_max = instance.s_max
    start = time.perf_counter()
    solves = 0
    notes: list[str] = []
    # The largest feasible shard count seen and its allocation.
    best: tuple[int, Allocation] | None = None

    def feasible_at(sigma: int) -> bool:
        nonlocal solves, best
        result = solve_p3(instance, sigma, variant=variant)
        solves += 1
        feasible = check_feasibility(result.allocation).feasible
        if result.diagnostics.rank_deficient:
            notes.append(f"sigma={sigma}: rank-deficient system, minimum-norm solution")
        if feasible and (best is None or sigma > best[0]):
            best = (sigma, result.allocation)
        return feasible

    if s_max >= 2 and not feasible_at(s_max):
        if search_mode is SearchMode.LINEAR_SCAN:
            for sigma in range(s_max - 1, 1, -1):
                if feasible_at(sigma):
                    break
        elif s_max >= 3:
            high, low = s_max - 1, 2
            sigma_p = math.ceil((high + low) / 2)
            while True:
                if feasible_at(sigma_p):
                    low = sigma_p
                else:
                    high = sigma_p
                sigma_p = math.ceil((high + low) / 2)
                if sigma_p == high:
                    break

    if best is None:
        # Conservation alone pins the sigma=1 allocation; no solve needed.
        # When it is unsafe (sigma* = 0) its bounds are still the ones reported.
        single = Allocation(instance, instance.eta.reshape(1, -1))
        best = (1 if check_feasibility(single).feasible else 0, single)
    sigma_star, judged = best
    if sigma_star == 0:
        notes.append("single-shard configuration already exceeds the safety threshold")
    shard_bounds = _bounds_of(judged)
    status = (SolutionStatus.SHARDED if sigma_star > 1 else
              SolutionStatus.UNSHARDED_SAFE if sigma_star == 1 else
              SolutionStatus.UNSAFE)
    return ShardingSolution(
        status=status, sigma_star=sigma_star,
        allocation=judged if sigma_star else None, x=derive_x(sigma_star, s_max),
        throughput=throughput(sigma_star, instance.t_per_shard),
        pr51=max(shard_bounds), per_shard_bounds=shard_bounds,
        solves_performed=solves, wall_time_s=time.perf_counter() - start,
        variant=variant, search_mode=search_mode, notes=tuple(notes))


def solve_budget(s_max: int) -> int:
    """Maximum linear solves the binary search may perform."""
    return math.ceil(math.log2(max(2, s_max))) + 2


def verify_full_constraints(solution: ShardingSolution,
                            instance: ProblemInstance) -> bool:
    """Check a sharded solution against the complete original constraint set.

    Pads the allocation with zero rows up to S, then verifies the per-shard
    safety inequality on every row (the padding rows, where x is 0, hold it
    vacuously), the two box constraints on x, and exact score conservation.
    """
    if solution.status is not SolutionStatus.SHARDED or solution.allocation is None:
        raise InvariantViolation("full-constraint check applies to sharded solutions")
    s_max = instance.s_max
    sigma = solution.sigma_star
    table = np.zeros((s_max, instance.n))
    table[:sigma] = solution.allocation.table
    t, q, _, _ = shard_stats(table, instance.p_adv_array)
    if not safety_holds(t, q, instance.tau).all():
        return False
    for s, x_s in enumerate(solution.x, start=1):
        if not ((sigma - s + 1) / s_max <= x_s <= max(0, sigma - s + 1)):
            return False
    return Allocation(instance, table).conservation_ok


def solution_to_dict(solution: ShardingSolution,
                     allocation_csv: str | None = None) -> dict:
    return {
        "status": solution.status.value,
        "sigma_star": solution.sigma_star,
        "throughput_tx_s": solution.throughput,
        "pr51": solution.pr51,
        "x": list(solution.x),
        "per_shard_bounds": list(solution.per_shard_bounds),
        "solves_performed": solution.solves_performed,
        "wall_time_ms": solution.wall_time_s * 1e3,
        "variant": solution.variant.value,
        "search_mode": solution.search_mode.value,
        "notes": list(solution.notes),
        "allocation_csv": allocation_csv,
    }


def save_solution(solution: ShardingSolution, path: str | Path,
                  allocation_csv: str | None = None) -> None:
    Path(path).write_text(
        json.dumps(solution_to_dict(solution, allocation_csv), indent=2) + "\n")
