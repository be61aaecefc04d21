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
from .lagrangian import (FeasibilityReport, StationarityVariant, check_feasibility,
                         solve_p3)
from .model import Allocation, CONSERVATION_RTOL, ProblemInstance


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


def _single_shard_allocation(instance: ProblemInstance) -> Allocation:
    # Conservation alone pins the sigma=1 allocation; no solve needed.
    return Allocation(instance, instance.eta.reshape(1, -1))


def _bounds_of(alloc: Allocation) -> tuple[float, ...]:
    _, _, bound, active = shard_stats(alloc.table, alloc.instance.p_adv_array)
    return tuple(bound[active].tolist())


def optimize_sharding(instance: ProblemInstance,
                      variant: StationarityVariant = StationarityVariant.REDERIVED,
                      search_mode: SearchMode = SearchMode.BINARY,
                      tau: float | None = None) -> ShardingSolution:
    """Find the largest shard count whose solved allocation is feasible."""
    tau_eff = instance.tau if tau is None else float(tau)
    s_max = instance.s_max
    start = time.perf_counter()
    solves = 0
    notes: list[str] = []
    best: tuple[int, Allocation, FeasibilityReport] | None = None

    def attempt(sigma: int) -> tuple[Allocation, FeasibilityReport]:
        nonlocal solves
        result = solve_p3(instance, sigma, tau_eff, variant)
        solves += 1
        report = check_feasibility(result.allocation, tau_eff)
        if result.diagnostics.rank_deficient:
            notes.append(f"sigma={sigma}: rank-deficient system, minimum-norm solution")
        return result.allocation, report

    if s_max >= 2:
        alloc, report = attempt(s_max)
        if report.feasible:
            best = (s_max, alloc, report)
        elif search_mode is SearchMode.BINARY:
            if s_max >= 3:
                high, low = s_max - 1, 2
                sigma_p = math.ceil((high + low) / 2)
                while True:
                    alloc, report = attempt(sigma_p)
                    if report.feasible:
                        if best is None or sigma_p > best[0]:
                            best = (sigma_p, alloc, report)
                        low = sigma_p
                    else:
                        high = sigma_p
                    sigma_p = math.ceil((high + low) / 2)
                    if sigma_p == high:
                        break
        else:
            for sigma in range(s_max - 1, 1, -1):
                alloc, report = attempt(sigma)
                if report.feasible:
                    best = (sigma, alloc, report)
                    break

    if best is not None:
        sigma_star, alloc, _ = best
        shard_bounds = _bounds_of(alloc)
        return ShardingSolution(
            status=SolutionStatus.SHARDED, sigma_star=sigma_star, allocation=alloc,
            x=derive_x(sigma_star, s_max),
            throughput=throughput(sigma_star, instance.t_per_shard),
            pr51=max(shard_bounds), per_shard_bounds=shard_bounds,
            solves_performed=solves, wall_time_s=time.perf_counter() - start,
            variant=variant, search_mode=search_mode, notes=tuple(notes))

    single = _single_shard_allocation(instance)
    single_report = check_feasibility(single, tau_eff)
    single_bounds = _bounds_of(single)
    if single_report.feasible:
        return ShardingSolution(
            status=SolutionStatus.UNSHARDED_SAFE, sigma_star=1, allocation=single,
            x=derive_x(1, s_max), throughput=throughput(1, instance.t_per_shard),
            pr51=max(single_bounds), per_shard_bounds=single_bounds,
            solves_performed=solves, wall_time_s=time.perf_counter() - start,
            variant=variant, search_mode=search_mode, notes=tuple(notes))
    notes.append("single-shard configuration already exceeds the safety threshold")
    return ShardingSolution(
        status=SolutionStatus.UNSAFE, sigma_star=0, allocation=None,
        x=derive_x(0, s_max), throughput=0.0,
        pr51=max(single_bounds), per_shard_bounds=single_bounds,
        solves_performed=solves, wall_time_s=time.perf_counter() - start,
        variant=variant, search_mode=search_mode, notes=tuple(notes))


def solve_budget(s_max: int) -> int:
    """Maximum linear solves the binary search may perform."""
    return math.ceil(math.log2(max(2, s_max))) + 2


def verify_full_constraints(solution: ShardingSolution, instance: ProblemInstance,
                            tau: float | None = None) -> bool:
    """Check a sharded solution against the complete original constraint set.

    Pads the allocation with zero rows up to S, then verifies the per-shard
    safety inequality on every row (the padding rows, where x is 0, hold it
    vacuously), the two box constraints on x, and exact score conservation.
    """
    if solution.status is not SolutionStatus.SHARDED or solution.allocation is None:
        raise InvariantViolation("full-constraint check applies to sharded solutions")
    tau_eff = instance.tau if tau is None else float(tau)
    s_max = instance.s_max
    sigma = solution.sigma_star
    table = np.zeros((s_max, instance.n))
    table[:sigma] = solution.allocation.table
    t, q, _, _ = shard_stats(table, instance.p_adv_array)
    if not safety_holds(t, q, tau_eff).all():
        return False
    for s, x_s in enumerate(solution.x, start=1):
        if not ((sigma - s + 1) / s_max <= x_s <= max(0, sigma - s + 1)):
            return False
    eta = instance.eta
    if float(np.max(np.abs(table.sum(axis=0) - eta) / eta)) > CONSERVATION_RTOL:
        return False
    return True


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
