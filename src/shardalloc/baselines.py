"""Reference allocators and brute-force referees.

UNIFORM splits every score evenly, GREEDY places whole scores on the lightest
shard, RANDOM_RESTART samples conservation-respecting Dirichlet splits until
one passes the feasibility check, and EXHAUSTIVE enumerates a per-user grid of
splits on tiny instances to certify the largest feasible shard count.
"""

from __future__ import annotations

import enum
import itertools
import math
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import InstanceTooLargeError, InvariantViolation
from .bounds import allocation_pr51, safety_holds
from .lagrangian import check_feasibility
from .model import Allocation, ProblemInstance
from .optimizer import throughput

# Guard rails for exhaustive enumeration.
EXHAUSTIVE_MAX_NODES = 6
EXHAUSTIVE_MAX_SHARDS = 3
EXHAUSTIVE_MAX_GRID = 5

# Mild concentration around the uniform split, which is analytically
# near-optimal, gives random restarts a fighting chance.
DIRICHLET_CONCENTRATION = 5.0

DEFAULT_RESTART_BUDGET = 200

# At most this many user dimensions are combined into one vectorized block.
_TAIL_MUS = 4


class BaselineMethod(enum.Enum):
    UNIFORM = "uniform"
    GREEDY = "greedy"
    RANDOM_RESTART = "random_restart"
    EXHAUSTIVE = "exhaustive"


@dataclass(frozen=True)
class BaselineResult:
    method: BaselineMethod
    sigma_star: int
    allocation: Allocation | None
    pr51: float
    throughput: float
    wall_time_s: float
    samples_tried: int = 0


def uniform_split(instance: ProblemInstance, sigma: int) -> Allocation:
    """Every user's score divided evenly across ``sigma`` shards."""
    if sigma < 1:
        raise InvariantViolation("sigma must be >= 1")
    return Allocation(instance, np.tile(instance.eta / sigma, (sigma, 1)))


def greedy_round_robin(instance: ProblemInstance, sigma: int) -> Allocation:
    """Whole-score placement, heaviest user first, onto the lightest shard.

    Ties on score fall back to ascending mu_id; ties on shard load go to the
    lowest shard index, so the result is deterministic.
    """
    if sigma < 1:
        raise InvariantViolation("sigma must be >= 1")
    eta = instance.eta
    order = sorted(range(instance.n),
                   key=lambda n: (-eta[n], instance.profiles[n].mu_id))
    table = np.zeros((sigma, instance.n))
    totals = np.zeros(sigma)
    for n in order:
        s = int(np.argmin(totals))
        table[s, n] = eta[n]
        totals[s] += eta[n]
    return Allocation(instance, table)


def _dirichlet_allocations(instance: ProblemInstance, sigma: int, budget: int,
                           seed: int) -> Iterator[Allocation]:
    if sigma == 1:
        # The 1-simplex is a point: conservation forces the whole vector.
        single = uniform_split(instance, 1)
        for _ in range(budget):
            yield single
        return
    rng = np.random.default_rng(seed)
    alpha = np.full(sigma, DIRICHLET_CONCENTRATION)
    for _ in range(budget):
        weights = rng.dirichlet(alpha, size=instance.n)  # (N, sigma)
        yield Allocation(instance, (weights * instance.eta[:, None]).T)


def random_restart_feasibility(instance: ProblemInstance, sigma: int,
                               budget: int = DEFAULT_RESTART_BUDGET,
                               seed: int = 0) -> Allocation | None:
    """First sampled allocation that passes the feasibility check, if any."""
    return _restart_search(instance, sigma, budget, seed)[0]


def _restart_search(instance: ProblemInstance, sigma: int, budget: int,
                    seed: int) -> tuple[Allocation | None, int]:
    """First feasible sample, if any, and the number of samples drawn."""
    if budget < 1:
        raise InvariantViolation("budget must be >= 1")
    drawn = 0
    previous = None
    for alloc in _dirichlet_allocations(instance, sigma, budget, seed):
        drawn += 1
        # sigma = 1 repeats one table, whose verdict is already known.
        if alloc is not previous and check_feasibility(alloc).feasible:
            return alloc, drawn
        previous = alloc
    return None, drawn


def random_restart_best(instance: ProblemInstance, sigma: int,
                        budget: int = DEFAULT_RESTART_BUDGET,
                        seed: int = 0) -> tuple[Allocation, float, bool]:
    """Lowest-risk sample from the same stream; reports whether any was feasible."""
    if budget < 1:
        raise InvariantViolation("budget must be >= 1")
    best_alloc: Allocation | None = None
    best_pr51 = math.inf
    any_feasible = False
    for alloc in _dirichlet_allocations(instance, sigma, budget, seed):
        if alloc is best_alloc:  # sigma = 1 repeats one table, already evaluated
            continue
        pr51 = allocation_pr51(alloc)
        if pr51 < best_pr51:
            best_alloc, best_pr51 = alloc, pr51
        if check_feasibility(alloc).feasible:
            any_feasible = True
    assert best_alloc is not None
    return best_alloc, best_pr51, any_feasible


def _compositions(total: int, parts: int) -> np.ndarray:
    """All weak compositions of ``total`` into ``parts`` parts, lexicographic."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    rows = []
    for first in range(total + 1):
        tail = _compositions(total - first, parts - 1)
        rows.append(np.hstack([np.full((tail.shape[0], 1), first, dtype=np.int64),
                               tail]))
    return np.vstack(rows)


def _grid_guard(instance: ProblemInstance, grid_steps: int) -> None:
    if instance.n > EXHAUSTIVE_MAX_NODES:
        raise InstanceTooLargeError(
            f"exhaustive search limited to {EXHAUSTIVE_MAX_NODES} users, got {instance.n}")
    if instance.s_max > EXHAUSTIVE_MAX_SHARDS:
        raise InstanceTooLargeError(
            f"exhaustive search limited to {EXHAUSTIVE_MAX_SHARDS} shards, got {instance.s_max}")
    if not (1 <= grid_steps <= EXHAUSTIVE_MAX_GRID):
        raise InstanceTooLargeError(
            f"grid_steps must lie in [1, {EXHAUSTIVE_MAX_GRID}], got {grid_steps}")


def _grid_scan(instance: ProblemInstance, sigma: int, tau: float,
               grid_steps: int) -> Iterator[tuple[np.ndarray, float]]:
    """Yield (table, worst-shard risk proxy) for feasible all-active grid points.

    Feasibility is :func:`safety_holds` per shard, with every shard holding
    positive mass. Candidates stream in lexicographic order of the per-user
    composition indices.
    """
    n = instance.n
    eta = instance.eta
    a_vec = 0.5 - instance.p_adv_array
    comps = _compositions(grid_steps, sigma)
    frac = comps / grid_steps  # (K, sigma)
    k = frac.shape[0]
    # Per-user contribution tables for margin and sum-of-squares.
    t_tabs = [a_vec[j] * eta[j] * frac for j in range(n)]
    q_tabs = [(eta[j] * frac) ** 2 for j in range(n)]
    tail = min(n, _TAIL_MUS)
    head = n - tail
    t_tail = np.zeros((1, sigma))
    q_tail = np.zeros((1, sigma))
    for j in range(head, n):
        t_tail = (t_tail[:, None, :] + t_tabs[j][None, :, :]).reshape(-1, sigma)
        q_tail = (q_tail[:, None, :] + q_tabs[j][None, :, :]).reshape(-1, sigma)
    for prefix in itertools.product(range(k), repeat=head):
        t0 = sum((t_tabs[j][idx] for j, idx in enumerate(prefix)),
                 np.zeros(sigma))
        q0 = sum((q_tabs[j][idx] for j, idx in enumerate(prefix)),
                 np.zeros(sigma))
        t_all = t0 + t_tail
        q_all = q0 + q_tail
        ok = (safety_holds(t_all, q_all, tau) & (q_all > 0)).all(axis=1)
        for flat in np.flatnonzero(ok):
            digits = []
            rem = int(flat)
            for _ in range(tail):
                rem, d = divmod(rem, k)
                digits.append(d)
            digits.reverse()
            combo = list(prefix) + digits
            table = np.stack([eta[j] * frac[combo[j]] for j in range(n)], axis=1)
            # Only a ranking key, kept on the summed arrays: the reported pr51
            # is recomputed by shard_stats on the witness, and other low bits
            # here could reorder near-ties and so change the witness.
            risk = float(np.max(np.exp(-2.0 * t_all[flat] ** 2 / q_all[flat])))
            yield table, risk


def exhaustive_search(instance: ProblemInstance, grid_steps: int = 4) -> BaselineResult:
    """Largest shard count admitting a feasible grid allocation, with witness.

    Every user's score is split in multiples of score/grid_steps. A witness
    must keep all its shards active, otherwise it would just restate a smaller
    shard count. Guard rails bound the combinatorial blowup.
    """
    _grid_guard(instance, grid_steps)
    start = time.perf_counter()
    for sigma in range(instance.s_max, 0, -1):
        for table, _ in _grid_scan(instance, sigma, instance.tau, grid_steps):
            witness = Allocation(instance, table)
            # Confirm with the shared checker so the witness contract holds
            # even on knife-edge arithmetic.
            if not check_feasibility(witness).feasible:
                continue
            return BaselineResult(
                method=BaselineMethod.EXHAUSTIVE, sigma_star=sigma,
                allocation=witness, pr51=allocation_pr51(witness),
                throughput=throughput(sigma, instance.t_per_shard),
                wall_time_s=time.perf_counter() - start)
    single = uniform_split(instance, 1)
    return BaselineResult(method=BaselineMethod.EXHAUSTIVE, sigma_star=0,
                          allocation=None, pr51=allocation_pr51(single),
                          throughput=0.0,
                          wall_time_s=time.perf_counter() - start)


def exhaustive_best_pr51(instance: ProblemInstance, sigma: int,
                         grid_steps: int = 4) -> tuple[Allocation, float]:
    """Grid point with the lowest worst-shard bound at a fixed shard count."""
    _grid_guard(instance, grid_steps)
    if not (1 <= sigma <= instance.s_max):
        raise InvariantViolation(f"sigma={sigma} outside [1, {instance.s_max}]")
    best_table: np.ndarray | None = None
    best_risk = math.inf
    # Scan with tau ~ 1 so every all-active grid point streams through.
    for table, risk in _grid_scan(instance, sigma, 1.0 - 1e-12, grid_steps):
        if risk < best_risk:
            best_table, best_risk = table, risk
    if best_table is None:
        raise InvariantViolation(
            f"no all-active grid point at sigma={sigma} with grid_steps={grid_steps}")
    witness = Allocation(instance, best_table)
    return witness, allocation_pr51(witness)


def run_baseline(instance: ProblemInstance, method: BaselineMethod,
                 budget: int = DEFAULT_RESTART_BUDGET, grid_steps: int = 4,
                 seed: int = 0) -> BaselineResult:
    """Largest feasible shard count for a baseline allocator, scanning S..1."""
    if method is BaselineMethod.EXHAUSTIVE:
        return exhaustive_search(instance, grid_steps)
    start = time.perf_counter()
    samples = 0
    for sigma in range(instance.s_max, 0, -1):
        if method is BaselineMethod.UNIFORM:
            candidate: Allocation | None = uniform_split(instance, sigma)
        elif method is BaselineMethod.GREEDY:
            candidate = greedy_round_robin(instance, sigma)
        else:
            candidate, drawn = _restart_search(instance, sigma, budget, seed + sigma)
            samples += drawn
        if candidate is not None and check_feasibility(candidate).feasible:
            return BaselineResult(method=method, sigma_star=sigma,
                                  allocation=candidate,
                                  pr51=allocation_pr51(candidate),
                                  throughput=throughput(sigma, instance.t_per_shard),
                                  wall_time_s=time.perf_counter() - start,
                                  samples_tried=samples)
    single = uniform_split(instance, 1)
    return BaselineResult(method=method, sigma_star=0, allocation=None,
                          pr51=allocation_pr51(single), throughput=0.0,
                          wall_time_s=time.perf_counter() - start,
                          samples_tried=samples)
