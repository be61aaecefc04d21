"""Core domain types: engagement profiles, problem instances, allocations, file formats.

Every type here is immutable after construction and validated eagerly, so the
numerical modules can assume well-formed inputs. Score vectors are exposed as
read-only numpy arrays.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence, get_args, get_origin

import numpy as np

from .errors import GenerationFailure, InvariantViolation, MalformedFileError

# Generator gives up after this many whole-vector redraws.
MAX_GENERATION_ROUNDS = 10_000

# Relative tolerance for "scores are fully allocated" across shards.
CONSERVATION_RTOL = 1e-9

# Entries below this magnitude count as solver noise, not genuine negatives.
SIGN_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Weights:
    """Non-negative mixing weights for the three contribution channels."""

    alpha_d: float
    alpha_c: float
    alpha_t: float

    def __post_init__(self) -> None:
        for name, w in (("alpha_d", self.alpha_d), ("alpha_c", self.alpha_c),
                        ("alpha_t", self.alpha_t)):
            if not math.isfinite(w) or w < 0:
                raise InvariantViolation(f"weight {name}={w!r} must be finite and >= 0")
        if self.alpha_d == 0 and self.alpha_c == 0 and self.alpha_t == 0:
            raise InvariantViolation("at least one weight must be positive")


UNIT_WEIGHTS = Weights(1.0, 1.0, 1.0)


@dataclass(frozen=True)
class EngagementProfile:
    """Per-user contribution record: data, compute, and token scores."""

    mu_id: int
    data_score: float
    compute_score: float
    token_score: float

    def __post_init__(self) -> None:
        for name, v in (("data_score", self.data_score),
                        ("compute_score", self.compute_score),
                        ("token_score", self.token_score)):
            if not math.isfinite(v) or v < 0:
                raise InvariantViolation(f"{name}={v!r} must be finite and >= 0")


def compute_engagement(profile: EngagementProfile, weights: Weights) -> float:
    """Total engagement score: weighted sum of the three contribution channels."""
    return (weights.alpha_d * profile.data_score
            + weights.alpha_c * profile.compute_score
            + weights.alpha_t * profile.token_score)


@dataclass(frozen=True)
class GenerationMeta:
    """Statistics achieved by the instance generator, kept for reporting."""

    seed: int
    achieved_mean: float
    achieved_std: float
    achieved_spread: float


@dataclass(frozen=True)
class ProblemInstance:
    """Full optimizer input: engagement scores, adversarial probabilities, limits.

    ``eta`` is derived from the profiles and cached; ``p_adv[n]`` is the
    probability that user n is adversarial and must stay strictly below 0.5
    so the safety margin of every shard is positive.
    """

    profiles: tuple[EngagementProfile, ...]
    weights: Weights
    p_adv: tuple[float, ...]
    tau: float
    s_max: int
    t_per_shard: float
    meta: GenerationMeta | None = None
    _eta: np.ndarray = field(init=False, repr=False, compare=False)
    _p: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.profiles:
            raise InvariantViolation("instance needs at least one profile")
        ids = [p.mu_id for p in self.profiles]
        if len(set(ids)) != len(ids):
            raise InvariantViolation("mu_id values must be unique within an instance")
        if len(self.p_adv) != len(self.profiles):
            raise InvariantViolation("p_adv length must match the number of profiles")
        for p in self.p_adv:
            if not (0.0 <= p < 0.5):
                raise InvariantViolation(f"p_adv={p!r} outside [0, 0.5)")
        if not (0.0 < self.tau < 1.0):
            raise InvariantViolation(f"tau={self.tau!r} outside (0, 1)")
        if self.s_max < 1:
            raise InvariantViolation(f"s_max={self.s_max!r} must be >= 1")
        if not (math.isfinite(self.t_per_shard) and self.t_per_shard > 0):
            raise InvariantViolation(f"t_per_shard={self.t_per_shard!r} must be > 0")
        eta = np.array([compute_engagement(p, self.weights) for p in self.profiles],
                       dtype=np.float64)
        if np.any(eta <= 0):
            raise InvariantViolation("every engagement score must be strictly positive")
        eta.setflags(write=False)
        p_arr = np.array(self.p_adv, dtype=np.float64)
        p_arr.setflags(write=False)
        object.__setattr__(self, "_eta", eta)
        object.__setattr__(self, "_p", p_arr)

    @property
    def n(self) -> int:
        return len(self.profiles)

    @property
    def eta(self) -> np.ndarray:
        """Engagement scores as a read-only vector of length N."""
        return self._eta

    @property
    def p_adv_array(self) -> np.ndarray:
        return self._p

    @property
    def mu_ids(self) -> tuple[int, ...]:
        return tuple(p.mu_id for p in self.profiles)

    def with_p_adv(self, p_adv: Sequence[float]) -> "ProblemInstance":
        return replace(self, p_adv=tuple(float(p) for p in p_adv))

    def with_s_max(self, s_max: int) -> "ProblemInstance":
        return replace(self, s_max=int(s_max))

    def with_tau(self, tau: float) -> "ProblemInstance":
        return replace(self, tau=float(tau))


@dataclass(frozen=True)
class InstanceGenConfig:
    """Parameters for the seeded instance generator."""

    n_nodes: int
    score_mean: float
    score_std: float
    max_difference: float
    p_adv_default: float = 0.1
    tau: float = 0.001
    s_max: int = 10
    t_per_shard: float = 2000.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise InvariantViolation("n_nodes must be >= 1")
        if not (math.isfinite(self.score_mean) and self.score_mean > 0):
            raise InvariantViolation("score_mean must be > 0")
        if not (math.isfinite(self.score_std) and self.score_std >= 0):
            raise InvariantViolation("score_std must be >= 0")
        if not (math.isfinite(self.max_difference) and self.max_difference > 0):
            raise InvariantViolation("max_difference must be > 0")
        if not (0.0 <= self.p_adv_default < 0.5):
            raise InvariantViolation("p_adv_default outside [0, 0.5)")


def generate_instance(config: InstanceGenConfig) -> ProblemInstance:
    """Draw an instance whose scores follow the requested normal statistics.

    Whole score vectors are redrawn until all entries are strictly positive
    and the spread (max - min) fits under ``max_difference``. The draw is a
    pure function of ``rng_seed``.
    """
    rng = np.random.default_rng(config.rng_seed)
    scores: np.ndarray | None = None
    for _ in range(MAX_GENERATION_ROUNDS):
        draw = rng.normal(config.score_mean, config.score_std, size=config.n_nodes)
        if np.all(draw > 0) and (draw.max() - draw.min()) <= config.max_difference:
            scores = draw
            break
    if scores is None:
        raise GenerationFailure(
            f"no admissible score vector in {MAX_GENERATION_ROUNDS} rounds "
            f"(mean={config.score_mean}, std={config.score_std}, "
            f"max_difference={config.max_difference}, n={config.n_nodes})")
    meta = GenerationMeta(
        seed=config.rng_seed,
        achieved_mean=float(scores.mean()),
        achieved_std=float(scores.std()),
        achieved_spread=float(scores.max() - scores.min()),
    )
    # Generated instances use unit weights; each score is spread evenly over
    # the three contribution channels so the derived engagement equals the draw.
    profiles = tuple(
        EngagementProfile(mu_id=i, data_score=s / 3.0, compute_score=s / 3.0,
                          token_score=s / 3.0)
        for i, s in enumerate(scores.tolist()))
    return ProblemInstance(
        profiles=profiles,
        weights=UNIT_WEIGHTS,
        p_adv=(config.p_adv_default,) * config.n_nodes,
        tau=config.tau,
        s_max=config.s_max,
        t_per_shard=config.t_per_shard,
        meta=meta,
    )


@dataclass(frozen=True)
class InstanceStats:
    mean: float
    std: float
    max_difference: float
    total_score: float


def instance_stats(instance: ProblemInstance) -> InstanceStats:
    """Sample mean, population STD, spread, and total of the score vector."""
    eta = instance.eta
    return InstanceStats(
        mean=float(eta.mean()),
        std=float(eta.std()),
        max_difference=float(eta.max() - eta.min()),
        total_score=float(eta.sum()),
    )


class Allocation:
    """A sigma-by-N table of per-shard scores tied to its instance.

    The table is stored as a read-only float array. Conservation and
    non-negativity are *reported*, not enforced, so solver outputs can be
    inspected and judged by the feasibility checker.
    """

    __slots__ = ("instance", "table")

    def __init__(self, instance: ProblemInstance, table: np.ndarray) -> None:
        arr = np.array(table, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise InvariantViolation("allocation table must be 2-D (sigma x N)")
        if arr.shape[0] < 1:
            raise InvariantViolation("allocation needs at least one shard")
        if arr.shape[1] != instance.n:
            raise InvariantViolation(
                f"allocation width {arr.shape[1]} != instance size {instance.n}")
        if not np.all(np.isfinite(arr)):
            raise InvariantViolation("allocation entries must be finite")
        arr.setflags(write=False)
        self.instance = instance
        self.table = arr

    @property
    def sigma(self) -> int:
        return int(self.table.shape[0])

    def shard_totals(self) -> np.ndarray:
        return self.table.sum(axis=1)

    @property
    def sign_ok(self) -> bool:
        return bool(self.table.min(initial=0.0) >= -SIGN_TOLERANCE)

    def max_conservation_error(self) -> float:
        """Largest relative violation of per-user score conservation."""
        eta = self.instance.eta
        return float(np.max(np.abs(self.table.sum(axis=0) - eta) / eta))

    @property
    def conservation_ok(self) -> bool:
        return self.max_conservation_error() <= CONSERVATION_RTOL

    def __repr__(self) -> str:
        return f"Allocation(sigma={self.sigma}, n={self.instance.n})"


# ---------------------------------------------------------------------------
# File formats


def instance_to_dict(instance: ProblemInstance) -> dict:
    d = {
        "tau": instance.tau,
        "s_max": instance.s_max,
        "t_per_shard": instance.t_per_shard,
        "weights": asdict(instance.weights),
        "mus": [
            {"id": p.mu_id, "d": p.data_score, "c": p.compute_score,
             "t": p.token_score, "p_adv": pa}
            for p, pa in zip(instance.profiles, instance.p_adv)
        ],
    }
    if instance.meta is not None:
        d["meta"] = asdict(instance.meta)
    return d


# JSON type of each Python kind, for error messages.
_JSON_NAMES = {int: "an integer", float: "a number", bool: "a boolean",
               str: "a string", dict: "an object", list: "an array"}
# Dataclass annotation (a string under postponed evaluation) -> field kind.
_FIELD_KINDS = {"int": int, "float": float, "bool": bool, "str": str}


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object held by the UTF-8 file ``path``.

    Anything else -- undecodable bytes, invalid or too deeply nested JSON, a
    top-level value that is not an object -- is ``MalformedFileError``.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise MalformedFileError(f"{what} file is not valid UTF-8 JSON: {path}") from exc
    if not isinstance(data, dict):
        raise MalformedFileError(f"{what} file must hold a JSON object: {path}")
    return data


def json_field(data: dict, key: str, kind, default=MISSING):
    """``data[key]`` as ``kind``, accepting exactly the JSON type the savers write.

    ``kind`` is ``int``, ``float``, ``bool``, ``str``, ``dict`` or
    ``list[kind]`` (read as a tuple). An int comes only from a JSON integer and
    a float from any JSON number that fits one, neither from a boolean or a
    string. A missing key gives ``default``; without one, and for a value of
    any other type, the result is ``MalformedFileError`` naming the key.
    """
    value = data.get(key, MISSING)
    if type(value) is kind:
        return value
    if value is MISSING:
        if default is MISSING:
            raise MalformedFileError(f"field {key!r} is missing")
        return default
    return _json_value(key, value, kind)


def _json_value(key: str, value, kind):
    """``value`` as ``kind`` when its JSON type is not ``kind`` itself."""
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise MalformedFileError(f"field {key!r} is too large for a float") from None
    if get_origin(kind) is list and type(value) is list:
        (item,) = get_args(kind)
        return tuple(v if type(v) is item else _json_value(f"{key}[{i}]", v, item)
                     for i, v in enumerate(value))
    got = _JSON_NAMES[type(value)] if type(value) in (list, dict) else repr(value)[:40]
    raise MalformedFileError(f"field {key!r} must be {_json_name(kind)}, not {got}")


def _json_name(kind) -> str:
    if get_origin(kind) is list:
        return f"an array, each item {_json_name(get_args(kind)[0])}"
    return _JSON_NAMES[kind]


def json_dataclass(cls, data: dict):
    """A flat dataclass read field by field; an absent field takes its default."""
    return cls(**{f.name: json_field(data, f.name, _FIELD_KINDS[f.type], f.default)
                  for f in fields(cls)})


def instance_from_dict(data: dict) -> ProblemInstance:
    mus = json_field(data, "mus", list[dict])
    meta = json_field(data, "meta", dict, None)
    return ProblemInstance(
        profiles=tuple(EngagementProfile(
            json_field(mu, "id", int), json_field(mu, "d", float),
            json_field(mu, "c", float), json_field(mu, "t", float)) for mu in mus),
        weights=json_dataclass(Weights, json_field(data, "weights", dict)),
        p_adv=tuple(json_field(mu, "p_adv", float) for mu in mus),
        tau=json_field(data, "tau", float),
        s_max=json_field(data, "s_max", int),
        t_per_shard=json_field(data, "t_per_shard", float),
        meta=None if meta is None else json_dataclass(GenerationMeta, meta))


def save_instance(instance: ProblemInstance, path: str | Path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=2) + "\n")


def load_instance(path: str | Path) -> ProblemInstance:
    return instance_from_dict(read_json_object(path, "instance"))


def save_allocation_csv(alloc: Allocation, path: str | Path) -> None:
    """Dump one row per (shard, user) pair: ``shard,mu_id,score``."""
    ids = alloc.instance.mu_ids
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["shard", "mu_id", "score"])
        for s in range(alloc.sigma):
            for n, mu_id in enumerate(ids):
                writer.writerow([s, mu_id, repr(float(alloc.table[s, n]))])


def load_allocation_csv(path: str | Path, instance: ProblemInstance) -> Allocation:
    """Read a table written by :func:`save_allocation_csv`.

    The file must hold every (shard, mu_id) pair for shards 0..max exactly
    once, with mu_ids of ``instance``, each line as three fields written the
    way the saver writes them; anything else is ``MalformedFileError``.
    """
    # Keyed by the text the saver writes, so another spelling of an id that
    # int() would accept, such as "+1", "01" or "1_0", is unknown.
    col_of = {str(mu_id): n for n, mu_id in enumerate(instance.mu_ids)}
    shards: list[int] = []
    cols: list[int] = []
    scores: list[float] = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != ["shard", "mu_id", "score"]:
                raise MalformedFileError(f"unexpected allocation header {header!r}")
            for shard_s, mu_s, score_s in reader:
                shard, col, score = int(shard_s), col_of.get(mu_s), float(score_s)
                if col is None:
                    raise MalformedFileError(
                        f"allocation line {reader.line_num} references an unknown "
                        f"mu_id: {path}")
                # int() and float() also read forms the saver never writes,
                # such as "1_0", " +1 " or non-ASCII digits.
                if (str(shard) != shard_s or "_" in score_s or not score_s.isascii()
                        or score_s.strip() != score_s):
                    raise MalformedFileError(
                        f"allocation line {reader.line_num} is not as saved: {path}")
                shards.append(shard)
                cols.append(col)
                scores.append(score)
    except (ValueError, StopIteration, csv.Error) as exc:
        raise MalformedFileError(f"allocation file malformed: {path}") from exc
    if not shards:
        raise MalformedFileError(f"allocation file empty: {path}")
    n = instance.n
    lowest, highest = min(shards), max(shards)
    if lowest < 0:
        raise MalformedFileError(
            f"allocation has negative shard index {lowest}: {path}")
    if (highest + 1) * n > len(shards):
        raise MalformedFileError(
            f"allocation has {len(shards)} rows, too few for shard index {highest} "
            f"over {n} users: (shard, mu_id) pairs are missing: {path}")
    # Every key lies in [0, (highest+1)*n) and there are at least that many
    # rows, so the keys are complete exactly when none repeats.
    keys = np.array(shards, dtype=np.int64) * n + np.array(cols, dtype=np.int64)
    counts = np.bincount(keys)
    if counts.max() > 1:
        shard, col = divmod(int(np.argmax(counts > 1)), n)
        raise MalformedFileError(f"allocation repeats (shard, mu_id) = "
                                 f"({shard}, {instance.mu_ids[col]}): {path}")
    table = np.empty(len(shards))
    table[keys] = scores
    return Allocation(instance, table.reshape(-1, n))
