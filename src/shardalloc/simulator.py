"""Epoch-level consensus simulation with score-weighted leader election.

Time advances in epochs split into slots. Each epoch the pending corruptions
activate, the allocator reconfigures the shards on a schedule (corrupted users
keep their scores but are treated as near-certainly adversarial), one leader
per shard is elected per slot from a hash-chain seed, and the adversary's
score share of every shard is recorded. The whole run is a pure function of
the instance, the epoch configuration, and the stationarity variant.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import EmptyShardError, InvariantViolation
from .baselines import uniform_split
from .model import Allocation, ProblemInstance, json_dataclass, read_json_object
from .optimizer import (ShardingSolution, SolutionStatus, StationarityVariant,
                        optimize_sharding)

# Largest representable adversarial probability: corrupted users count toward
# the adversary with certainty, but the margin machinery needs p < 0.5.
CORRUPTED_P_ADV = 0.49

ADVERSARY_MODES = ("none", "fixed", "per_epoch")

_TWO_256 = 2 ** 256

# The largest mean numpy's ``Generator.poisson`` accepts.
POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


@dataclass(frozen=True)
class EpochConfig:
    epochs: int
    slots_per_epoch: int
    corruption_rate: float = 0.0
    corruption_delay: int = 0
    reconfigure_every: int = 1
    rng_seed: int = 0
    adversary_mode: str = "none"

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.slots_per_epoch < 1:
            raise InvariantViolation("epochs and slots_per_epoch must be >= 1")
        if not (0 <= self.corruption_rate <= POISSON_LAM_MAX):
            raise InvariantViolation(
                f"corruption_rate={self.corruption_rate!r} must be a number in "
                f"[0, {POISSON_LAM_MAX!r}], the range of a Poisson draw")
        if self.corruption_delay < 0:
            raise InvariantViolation("corruption_delay must be >= 0")
        if self.reconfigure_every < 1:
            raise InvariantViolation("reconfigure_every must be >= 1")
        if self.adversary_mode not in ADVERSARY_MODES:
            raise InvariantViolation(
                f"adversary_mode must be one of {ADVERSARY_MODES}")


def epoch_config_to_dict(config: EpochConfig) -> dict:
    return asdict(config)


def epoch_config_from_dict(data: dict) -> EpochConfig:
    return json_dataclass(EpochConfig, data)


def load_epoch_config(path: str | Path) -> EpochConfig:
    return epoch_config_from_dict(read_json_object(path, "simulation config"))


@dataclass
class NetworkState:
    """Mutable chain state carried across epochs."""

    instance: ProblemInstance
    allocation: Allocation
    corrupted: set[int] = field(default_factory=set)
    pending_corruptions: list[tuple[int, int]] = field(default_factory=list)
    seeds: list[bytes] = field(default_factory=list)


@dataclass(frozen=True)
class EpochReport:
    epoch: int
    leaders: tuple[tuple[int, ...], ...]  # per shard, per slot
    adversary_fractions: tuple[float, ...]
    attacked_shards: frozenset[int]
    reconfigured: bool


def _digest(*parts: bytes) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.digest()


def _int_bytes(value: int) -> bytes:
    return int(value).to_bytes(8, "big", signed=True)


def _election_point(seed: bytes, slot: int) -> float:
    """Deterministic point in [0, 1) from the shard seed and slot index."""
    return int.from_bytes(_digest(seed, _int_bytes(slot)), "big") / _TWO_256


def _pick(cumulative: Sequence[float], ids: Sequence[int], unit_point: float) -> int:
    point = unit_point * cumulative[-1]
    idx = bisect.bisect_right(cumulative, point)
    return ids[min(idx, len(ids) - 1)]


def elect_leader(shard_scores: Sequence[tuple[int, float]], seed: bytes,
                 slot: int) -> int:
    """Score-weighted lottery: each user wins with probability score/total."""
    ids = [mu for mu, _ in shard_scores]
    scores = np.array([s for _, s in shard_scores], dtype=np.float64)
    if scores.size == 0 or np.any(scores < 0) or scores.sum() <= 0:
        raise EmptyShardError("leader election needs at least one positive score")
    return _pick(np.cumsum(scores).tolist(), ids, _election_point(seed, slot))


def next_seed(prev_seed: bytes, epoch: int, shard_index: int) -> bytes:
    """Hash-chain step for one shard's randomness beacon."""
    return _digest(prev_seed, _int_bytes(epoch), _int_bytes(shard_index))


def initial_seeds(rng_seed: int, sigma: int) -> list[bytes]:
    return [_digest(b"shardalloc-genesis", _int_bytes(rng_seed), _int_bytes(s))
            for s in range(sigma)]


def remap_seeds(old_seeds: Sequence[bytes], new_sigma: int,
                beacon_seed: bytes) -> list[bytes]:
    """Resize the per-shard seed list when the shard count changes.

    Growing splits beacon-chosen seeds into two derived children; shrinking
    drops beacon-chosen seeds. Unchanged counts return the seeds as-is.
    """
    if not old_seeds:
        raise InvariantViolation("old seed list must be non-empty")
    if new_sigma < 1:
        raise InvariantViolation("new_sigma must be >= 1")
    seeds = list(old_seeds)
    counter = 0

    def draw(bound: int) -> int:
        nonlocal counter
        counter += 1
        return int.from_bytes(_digest(beacon_seed, _int_bytes(counter)), "big") % bound

    while len(seeds) > new_sigma:
        seeds.pop(draw(len(seeds)))
    while len(seeds) < new_sigma:
        i = draw(len(seeds))
        parent = seeds.pop(i)
        seeds[i:i] = [_digest(parent, b"\x00"), _digest(parent, b"\x01")]
    return seeds


def apply_corruptions(state: NetworkState, epoch: int, *,
                      rng: np.random.Generator,
                      config: EpochConfig) -> NetworkState:
    """Activate due corruptions, then schedule this epoch's new arrivals.

    Arrivals are Poisson with the configured mean; targets are drawn uniformly
    from users that are neither corrupted nor already scheduled. A zero delay
    activates the corruption within the same epoch.
    """
    due = [mu for mu, when in state.pending_corruptions if when <= epoch]
    state.pending_corruptions = [(mu, when) for mu, when in state.pending_corruptions
                                 if when > epoch]
    state.corrupted.update(due)
    if config.corruption_rate > 0:
        scheduled = {mu for mu, _ in state.pending_corruptions}
        honest = sorted(set(state.instance.mu_ids) - state.corrupted - scheduled)
        k = min(int(rng.poisson(config.corruption_rate)), len(honest))
        if k > 0:
            targets = rng.choice(np.array(honest), size=k, replace=False)
            for mu in sorted(int(t) for t in targets):
                when = epoch + config.corruption_delay
                if when <= epoch:
                    state.corrupted.add(mu)
                else:
                    state.pending_corruptions.append((mu, when))
    return state


@dataclass(frozen=True)
class SimulationReport:
    epochs_run: int
    attacked_pairs: int
    total_pairs: int
    attacked_fraction: float
    mean_adversary_fraction: float
    leader_counts: tuple[tuple[int, int], ...]
    reconfigurations: int
    aborted: bool
    abort_epoch: int | None
    abort_note: str | None
    final_corrupted: tuple[int, ...]
    sigma_history: tuple[int, ...]
    epoch_reports: tuple[EpochReport, ...]


def _corruption_view(instance: ProblemInstance, corrupted: set[int]) -> ProblemInstance:
    if not corrupted:
        return instance
    p = list(instance.p_adv)
    for n, mu_id in enumerate(instance.mu_ids):
        if mu_id in corrupted:
            p[n] = CORRUPTED_P_ADV
    return instance.with_p_adv(p)


def _lotteries(allocation: Allocation, mu_ids: Sequence[int]
               ) -> list[tuple[list[float], list[int]]]:
    """Each shard's cumulative positive scores and their user ids, for ``_pick``."""
    lotteries = []
    for row in allocation.table:
        positive = row > 0
        lotteries.append((np.cumsum(row[positive]).tolist(),
                          [mu_ids[n] for n in np.flatnonzero(positive)]))
    return lotteries


def run_simulation(instance: ProblemInstance, config: EpochConfig,
                   variant: StationarityVariant = StationarityVariant.REDERIVED,
                   ) -> SimulationReport:
    """Drive the epoch loop; abort with a state dump if reconfiguration ever
    finds the network unsafe even as a single shard. Reconfiguration runs the
    binary sigma search with the given stationarity variant.

    Each distinct corrupted set is solved once per call: a later reconfiguration
    with the same set reuses that solution, which a recomputation would
    reproduce bit for bit. It still counts as a reconfiguration."""
    rng = np.random.default_rng(config.rng_seed)
    mu_ids = instance.mu_ids
    id_arr = np.array(mu_ids)
    fixed_adversaries: set[int] = set()
    if config.adversary_mode == "fixed":
        mask = rng.random(instance.n) < instance.p_adv_array
        fixed_adversaries = {int(m) for m in id_arr[mask]}
    state = NetworkState(instance=instance, allocation=uniform_split(instance, 1),
                         seeds=initial_seeds(config.rng_seed, 1))
    lotteries = _lotteries(state.allocation, mu_ids)
    solutions: dict[frozenset[int], ShardingSolution] = {}
    reports: list[EpochReport] = []
    leader_counts: dict[int, int] = {}
    sigma_history: list[int] = []
    reconfigurations = 0
    attacked_pairs = 0
    total_pairs = 0
    fraction_sum = 0.0
    aborted = False
    abort_epoch: int | None = None
    abort_note: str | None = None

    for epoch in range(config.epochs):
        apply_corruptions(state, epoch, rng=rng, config=config)
        reconfigured = False
        if epoch % config.reconfigure_every == 0:
            key = frozenset(state.corrupted)
            solution = solutions.get(key)
            if solution is None:
                solution = solutions[key] = optimize_sharding(
                    _corruption_view(instance, state.corrupted), variant)
            if solution.status is SolutionStatus.UNSAFE:
                aborted = True
                abort_epoch = epoch
                abort_note = (f"reconfiguration at epoch {epoch} found the network "
                              f"unsafe even unsharded (risk bound {solution.pr51:.3e}, "
                              f"{len(state.corrupted)} corrupted users)")
                break
            assert solution.allocation is not None
            new_sigma = solution.sigma_star
            if epoch == 0:
                state.seeds = initial_seeds(config.rng_seed, new_sigma)
            elif new_sigma != len(state.seeds):
                beacon = _digest(b"shardalloc-beacon", _int_bytes(epoch),
                                 *state.seeds)
                state.seeds = remap_seeds(state.seeds, new_sigma, beacon)
            state.allocation = solution.allocation
            lotteries = _lotteries(state.allocation, mu_ids)
            reconfigured = True
            reconfigurations += 1
        sigma = state.allocation.sigma
        sigma_history.append(sigma)

        adversaries = set(fixed_adversaries)
        if config.adversary_mode == "per_epoch":
            mask = rng.random(instance.n) < instance.p_adv_array
            adversaries = {int(m) for m in id_arr[mask]}
        adversaries |= state.corrupted
        adv_mask = np.array([mu in adversaries for mu in mu_ids], dtype=np.float64)

        table = state.allocation.table
        totals = table.sum(axis=1)
        fractions: list[float] = []
        attacked: set[int] = set()
        leaders: list[tuple[int, ...]] = []
        for s in range(sigma):
            frac = float(table[s] @ adv_mask / totals[s]) if totals[s] > 0 else 0.0
            fractions.append(frac)
            if totals[s] > 0:
                total_pairs += 1
                if frac >= 0.5:
                    attacked.add(s)
                    attacked_pairs += 1
                fraction_sum += frac
            cum, ids = lotteries[s]
            slot_leaders = tuple(
                _pick(cum, ids, _election_point(state.seeds[s], slot))
                for slot in range(config.slots_per_epoch))
            for mu in slot_leaders:
                leader_counts[mu] = leader_counts.get(mu, 0) + 1
            leaders.append(slot_leaders)

        reports.append(EpochReport(epoch=epoch, leaders=tuple(leaders),
                                   adversary_fractions=tuple(fractions),
                                   attacked_shards=frozenset(attacked),
                                   reconfigured=reconfigured))
        state.seeds = [next_seed(state.seeds[s], epoch, s) for s in range(sigma)]

    return SimulationReport(
        epochs_run=len(reports),
        attacked_pairs=attacked_pairs,
        total_pairs=total_pairs,
        attacked_fraction=attacked_pairs / total_pairs if total_pairs else 0.0,
        mean_adversary_fraction=fraction_sum / total_pairs if total_pairs else 0.0,
        leader_counts=tuple(sorted(leader_counts.items())),
        reconfigurations=reconfigurations,
        aborted=aborted, abort_epoch=abort_epoch, abort_note=abort_note,
        final_corrupted=tuple(sorted(state.corrupted)),
        sigma_history=tuple(sigma_history),
        epoch_reports=tuple(reports))


def leader_election_gof(counts: Sequence[int], scores: Sequence[float]
                        ) -> tuple[float, float]:
    """Chi-square goodness of fit of leader counts against score weights."""
    from scipy.stats import chisquare

    counts_arr = np.asarray(counts, dtype=np.float64)
    weights = np.asarray(scores, dtype=np.float64)
    expected = weights / weights.sum() * counts_arr.sum()
    stat, pvalue = chisquare(counts_arr, expected)
    return float(stat), float(pvalue)


def report_to_dict(report: SimulationReport) -> dict:
    return {
        "epochs_run": report.epochs_run,
        "attacked_pairs": report.attacked_pairs,
        "total_pairs": report.total_pairs,
        "attacked_fraction": report.attacked_fraction,
        "mean_adversary_fraction": report.mean_adversary_fraction,
        "leader_counts": [[mu, c] for mu, c in report.leader_counts],
        "reconfigurations": report.reconfigurations,
        "aborted": report.aborted,
        "abort_epoch": report.abort_epoch,
        "abort_note": report.abort_note,
        "final_corrupted": list(report.final_corrupted),
        "sigma_history": list(report.sigma_history),
    }


def save_simulation_report(report: SimulationReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report_to_dict(report), indent=2) + "\n")


def write_epoch_csv(report: SimulationReport, path: str | Path) -> None:
    """One row per (epoch, shard); leader_mu is the first slot's leader."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "shard", "adv_fraction", "attacked",
                         "leader_mu", "reconfigured"])
        for ep in report.epoch_reports:
            for s, frac in enumerate(ep.adversary_fractions):
                leader = ep.leaders[s][0] if ep.leaders[s] else ""
                writer.writerow([ep.epoch, s, repr(frac),
                                 int(s in ep.attacked_shards), leader,
                                 int(ep.reconfigured)])
