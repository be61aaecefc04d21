"""Per-shard attack-probability machinery.

A shard is attacked when the adversary's share of its score reaches half the
shard total. Treating per-user adversarial status as independent Bernoulli
draws, the tail of the adversary's total score admits the exponential bound

    Pr[attack on shard s] <= exp(-2 t^2 / sum_n (score_n)^2),

where t = sum_n (0.5 - p_n) * score_n is the margin between the half line and
the adversary's expected score. This module computes that bound, the safety
predicate against a threshold, the worst-shard network risk, and a seeded
Monte Carlo estimator that serves as an independent check on the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateShardError, InvariantViolation
from .model import Allocation, SIGN_TOLERANCE

# Block size target (elements) for vectorized Monte Carlo sampling.
_MC_BLOCK_ELEMENTS = 4_000_000


@dataclass(frozen=True)
class ShardColumn:
    """Score slice of one shard together with the adversarial probabilities.

    ``p_adv`` entries may sit on the closed boundary 0.5 here (useful for
    boundary analysis); problem instances themselves keep p strictly below it.
    """

    scores: np.ndarray
    p_adv: np.ndarray
    index: int = 0

    def __post_init__(self) -> None:
        scores = np.array(self.scores, dtype=np.float64, copy=True)
        p = np.array(self.p_adv, dtype=np.float64, copy=True)
        if scores.ndim != 1 or scores.size < 1:
            raise InvariantViolation("shard column needs a 1-D, non-empty score vector")
        if p.shape != scores.shape:
            raise InvariantViolation("scores and p_adv must have equal length")
        if not np.all(np.isfinite(scores)) or np.any(scores < 0):
            raise InvariantViolation("shard scores must be finite and >= 0")
        if np.any(p < 0) or np.any(p > 0.5):
            raise InvariantViolation("p_adv entries must lie in [0, 0.5]")
        scores.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "p_adv", p)

    @classmethod
    def from_allocation(cls, alloc: Allocation, s: int) -> "ShardColumn":
        """Column of shard ``s``; clamps sub-tolerance solver noise to zero."""
        row = np.array(alloc.table[s], copy=True)
        tiny = (row < 0) & (row >= -SIGN_TOLERANCE)
        row[tiny] = 0.0
        return cls(scores=row, p_adv=alloc.instance.p_adv_array, index=s)

    @property
    def total(self) -> float:
        return float(self.scores.sum())


def adversary_expected_score(col: ShardColumn) -> float:
    """Expected adversarial score in the shard: sum_n p_n * score_n."""
    return float(col.p_adv @ col.scores)


def deviation_t(col: ShardColumn) -> float:
    """Margin between the half line and the adversary's expectation."""
    return float((0.5 - col.p_adv) @ col.scores)


def shard_stats(table: np.ndarray, p_adv: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Margin t, sum of squares q, bound and activity of each row of a sigma x N table.

    A shard is active when it holds any positive score; it is measured on its
    non-negative mass. An inactive shard reads t = 0, q = 0, bound = 1. Rows
    are copied and reduced one at a time with ``ddot`` and ``math.exp``: a
    matvec, ``einsum`` or ``np.exp`` changes low bits of the reported risks.
    """
    a_vec = 0.5 - p_adv
    active = (table > 0).any(axis=1)
    t, q, bound = np.zeros(len(table)), np.zeros(len(table)), np.ones(len(table))
    for s in np.flatnonzero(active):
        row = np.maximum(table[s], 0.0)
        t_s, q_s = float(a_vec @ row), float(row @ row)
        if q_s == 0.0:
            raise DegenerateShardError(f"shard {s} carries no score")
        # The clamp is live: with entries near 1e160, q overflows to inf, the
        # exponent is NaN, and min(1.0, nan) -- in this argument order -- is 1.0.
        t[s], q[s], bound[s] = t_s, q_s, min(1.0, math.exp(-2.0 * t_s * t_s / q_s))
    return t, q, bound, active


def safety_holds(t, q, tau: float):
    """t^2 >= -0.5*ln(tau)*q, the algebraic form of "bound <= tau", on floats
    or elementwise on arrays."""
    if not (0.0 < tau < 1.0):
        raise InvariantViolation(f"tau={tau!r} outside (0, 1)")
    return t * t >= -0.5 * math.log(tau) * q


def _column_stats(col: ShardColumn) -> tuple[float, float, float]:
    t, q, bound, active = shard_stats(col.scores[None, :], col.p_adv)
    if not active[0]:
        raise DegenerateShardError(f"shard {col.index} carries no score")
    return float(t[0]), float(q[0]), float(bound[0])


def attack_bound(col: ShardColumn) -> float:
    """Exponential tail bound on the shard-majority event, clamped to <= 1."""
    return _column_stats(col)[2]


@dataclass(frozen=True)
class ShardSafetyReport:
    """Safety verdict for one shard column: ``safe`` is :func:`safety_holds`."""

    shard_index: int
    t: float
    sum_sq: float
    bound: float
    safe: bool


def is_shard_safe(col: ShardColumn, tau: float) -> ShardSafetyReport:
    t, q, bound = _column_stats(col)
    return ShardSafetyReport(shard_index=col.index, t=t, sum_sq=q, bound=bound,
                             safe=bool(safety_holds(t, q, tau)))


def pr51_of_columns(cols: list[ShardColumn]) -> float:
    """Worst (largest) attack bound across shard columns."""
    if not cols:
        raise DegenerateShardError("no active shard to evaluate")
    return max(attack_bound(c) for c in cols)


def _active_bounds(alloc: Allocation) -> np.ndarray:
    _, _, bound, active = shard_stats(alloc.table, alloc.instance.p_adv_array)
    if not active.any():
        raise DegenerateShardError("no active shard to evaluate")
    return bound[active]


def allocation_pr51(alloc: Allocation) -> float:
    """Network-level risk of an allocation: the worst active shard's bound."""
    return float(_active_bounds(alloc).max())


@dataclass(frozen=True)
class Pr51Summary:
    worst: float
    best: float
    mean: float


def pr51_summary(alloc: Allocation) -> Pr51Summary:
    bounds = _active_bounds(alloc)
    return Pr51Summary(worst=float(bounds.max()), best=float(bounds.min()),
                       mean=float(np.mean(bounds)))


@dataclass(frozen=True)
class MonteCarloResult:
    frequency: float
    std_error: float
    trials: int
    hits: int


def monte_carlo_attack_probability(col: ShardColumn, trials: int,
                                   seed: int) -> MonteCarloResult:
    """Empirical frequency of the shard-majority event.

    Each trial draws an independent adversarial indicator per user with its
    own probability and tests whether the adversarial score reaches half the
    shard total. Deterministic for a given seed; sampled in fixed-size blocks
    so memory stays bounded.
    """
    if trials < 1:
        raise InvariantViolation("trials must be >= 1")
    rng = np.random.default_rng(seed)
    scores = col.scores
    half = 0.5 * float(scores.sum())
    block = max(1, _MC_BLOCK_ELEMENTS // scores.size)
    hits = 0
    done = 0
    while done < trials:
        b = min(block, trials - done)
        mask = rng.random((b, scores.size)) < col.p_adv
        adv = mask @ scores
        hits += int(np.count_nonzero(adv >= half))
        done += b
    freq = hits / trials
    return MonteCarloResult(frequency=freq,
                            std_error=math.sqrt(freq * (1.0 - freq) / trials),
                            trials=trials, hits=hits)
