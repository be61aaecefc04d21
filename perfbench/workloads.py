"""The four benchmark workloads: inputs from a seed, one operation, its checks.

Each workload builds its inputs in ``setup`` from the run's seed, lists one
round of operations in ``round_ops``, performs one operation through the
public functions of ``shardalloc`` in ``run`` (the only timed call), and
checks the artifacts in ``check`` with the independent code of ``checks``.
Sizes are fixed per profile: ``full`` is what the benchmark measures and
``tiny`` lets the tests run every workload to its end in seconds.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

MEAN, STD = 36.8, 6.7
FIVE_METHODS = ["lgrn_rederived", "lgrn_literal", "uniform", "greedy", "random_restart"]


class OperationFailed(Exception):
    """The program returned an error for one operation."""


def _cli(argv: list[str]) -> str:
    """Run one ``shardalloc`` command in-process; return its standard output."""
    from shardalloc import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.cli_dispatch(argv)
    if code != 0:
        raise OperationFailed(f"shardalloc {' '.join(argv)} exited {code}: "
                              f"{err.getvalue().strip()}")
    return out.getvalue()


def _subseed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _gen(n: int, seed: int, **kwargs):
    from shardalloc import model

    cfg = dict(n_nodes=n, score_mean=MEAN, score_std=STD, max_difference=12 * STD,
               rng_seed=seed)
    cfg.update(kwargs)
    return model.generate_instance(model.InstanceGenConfig(**cfg))


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, workdir: Path, worker: int) -> None:
        self.seed = seed
        self.size = size
        self.work = workdir
        self.worker = worker
        self.rows_with_pr51 = 0
        workdir.mkdir(parents=True, exist_ok=True)

    def round_ops(self) -> list:
        raise NotImplementedError

    def run(self, op, tag: str):
        raise NotImplementedError

    def check(self, op, result, first_round: bool) -> list[str]:
        raise NotImplementedError

    def cleanup(self, tag: str) -> None:
        for path in self.work.glob(f"{tag}*"):
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink()


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReconfigureSize:
    s_max: int
    tau_feasible: float
    rederived_ns: tuple[int, ...]
    literal_ns: tuple[int, int]  # (feasible, unsafe)


class Reconfigure(Workload):
    """``shardalloc solve`` on a seeded pool of instance files.

    Half the pool has tau = ``tau_feasible`` >= b1 and must shard to S; the
    other half has tau = b1/100, so the search must end ``unsafe``. Every
    size appears once feasible and once unsafe with the rederived rows, and
    one small pair uses the literal rows, which take the minimum-norm
    fallback. Sizes are fixed, so the seed moves the scores but not the cost
    of the dense solves.
    """

    name = "reconfigure"
    SIZES = {"full": ReconfigureSize(20, 1e-3, (40, 50, 60, 70, 80), (36, 30)),
             "tiny": ReconfigureSize(4, 0.2, (10,), (8, 8))}

    def __init__(self, *args) -> None:
        super().__init__(*args)
        from shardalloc import model

        spec = self.SIZES[self.size]
        rng = np.random.default_rng([self.seed, 1])
        plan = [(n, "rederived", feasible) for n in spec.rederived_ns
                for feasible in (True, False)]
        plan += [(spec.literal_ns[0], "literal", True),
                 (spec.literal_ns[1], "literal", False)]
        self.pool = []
        for i, (n, variant, feasible) in enumerate(plan):
            inst = _gen(n, int(rng.integers(2**31)), tau=spec.tau_feasible,
                        s_max=spec.s_max)
            if not feasible:
                inst = inst.with_tau(checks.single_shard_bound(inst.eta,
                                                               inst.p_adv_array) / 100)
            path = self.work / f"pool{i:02d}.json"
            model.save_instance(inst, path)
            self.pool.append((path, variant))

    def round_ops(self) -> list:
        return self.pool

    def run(self, op, tag: str):
        path, variant = op
        sol = self.work / f"{tag}.json"
        _cli(["solve", str(path), "--variant", variant, "-o", str(sol)])
        return sol

    def check(self, op, result, first_round: bool) -> list[str]:
        return checks.check_solve(op[0], result)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimulateSize:
    n: int
    s_max: int
    epochs: int
    slots: int
    tau: float


class Simulate(Workload):
    """``shardalloc simulate --csv`` with a new seed and corruption rate per op."""

    name = "simulate"
    SIZES = {"full": SimulateSize(50, 10, 200, 8, 1e-3),
             "tiny": SimulateSize(12, 3, 12, 2, 0.2)}
    RECONFIGURE_EVERY = 5
    DELAY = 2

    def __init__(self, *args) -> None:
        super().__init__(*args)
        from shardalloc import model

        spec = self.spec = self.SIZES[self.size]
        self.instance = self.work / "instance.json"
        model.save_instance(_gen(spec.n, _subseed(self.seed, 2), tau=spec.tau,
                                 s_max=spec.s_max), self.instance)
        self.count = 0

    def round_ops(self) -> list:
        self.count += 1
        seed = _subseed(self.seed, 3, self.worker, self.count)
        rate = 0.02 + 0.03 * np.random.default_rng(seed).random()
        return [(seed, rate)]

    def _argv(self, op, tag: str) -> list[str]:
        seed, rate = op
        spec = self.spec
        return ["simulate", str(self.instance), "--epochs", str(spec.epochs),
                "--slots", str(spec.slots), "--corruption-rate", repr(rate),
                "--corruption-delay", str(self.DELAY),
                "--reconfigure-every", str(self.RECONFIGURE_EVERY),
                "--adversary-mode", "per_epoch", "--seed", str(seed),
                "-o", str(self.work / f"{tag}.json"),
                "--csv", str(self.work / f"{tag}.csv")]

    def run(self, op, tag: str):
        _cli(self._argv(op, tag))
        return tag

    def check(self, op, tag, first_round: bool) -> list[str]:
        report, table = self.work / f"{tag}.json", self.work / f"{tag}.csv"
        problems = checks.check_simulation(
            self.instance, report, table, self.spec.epochs, self.spec.slots,
            self.RECONFIGURE_EVERY)
        if first_round:
            again = f"{tag}-rerun"
            _cli(self._argv(op, again))
            if (report.read_bytes() != (self.work / f"{again}.json").read_bytes()
                    or table.read_bytes() != (self.work / f"{again}.csv").read_bytes()):
                problems.append("a rerun with the same seed gave another report")
        return problems


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BulkSize:
    n: int
    sigma: int


class Bulk(Workload):
    """Instance and allocation file formats plus the O(sigma*N) layers at large N.

    p = 0.49 keeps the bounds away from 0 and 1 at N = 10^4, and tau = 0.5
    separates them: the uniform split is feasible, greedy's shards are not.
    """

    name = "bulk"
    SIZES = {"full": BulkSize(10_000, 20), "tiny": BulkSize(300, 4)}
    P_ADV, TAU = 0.49, 0.5

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.spec = self.SIZES[self.size]
        self.count = 0

    def round_ops(self) -> list:
        self.count += 1
        return [_subseed(self.seed, 4, self.worker, self.count)]

    def run(self, op, tag: str):
        from shardalloc import baselines, bounds, lagrangian, model

        inst_path = self.work / f"{tag}.json"
        alloc_path = self.work / f"{tag}.csv"
        instance = _gen(self.spec.n, op, p_adv_default=self.P_ADV, tau=self.TAU,
                        s_max=self.spec.sigma)
        model.save_instance(instance, inst_path)
        loaded = model.load_instance(inst_path)
        uniform = baselines.uniform_split(loaded, self.spec.sigma)
        greedy = baselines.greedy_round_robin(loaded, self.spec.sigma)
        verdicts = (lagrangian.check_feasibility(uniform).feasible,
                    lagrangian.check_feasibility(greedy).feasible)
        pr51s = [bounds.allocation_pr51(uniform), bounds.allocation_pr51(greedy)]
        model.save_allocation_csv(uniform, alloc_path)
        reloaded = model.load_allocation_csv(alloc_path, loaded)
        pr51s.append(bounds.allocation_pr51(reloaded))
        return dict(instance=instance, loaded=loaded, uniform=uniform.table,
                    greedy=greedy.table, reloaded=reloaded.table,
                    verdicts=verdicts, pr51s=tuple(pr51s), path=inst_path)

    def check(self, op, r, first_round: bool) -> list[str]:
        return checks.check_bulk(r["path"], r["instance"].eta,
                                 r["loaded"] == r["instance"], r["uniform"],
                                 r["greedy"], r["reloaded"], r["verdicts"], r["pr51s"])


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSize:
    n: int
    s_max: int
    sigma_grid: tuple[int, ...]
    s_max_grid: tuple[int, ...]
    scale_percents: tuple[float, ...]
    mean_grid: tuple[float, ...]
    std_grid: tuple[float, ...]
    restart_budget: int
    exhaustive_n: int
    exhaustive_s: int
    grid_steps: int


class Sweep(Workload):
    """The four experiment ids, then ``validate --results``, plus the referee.

    One round runs each experiment once on an N=30, S=8 instance with the five
    non-exhaustive methods, and ``pr51_vs_shards`` once more on an N=4, S=3
    instance with all six methods, so the exhaustive referee is measured too.
    Every round draws fresh instance and restart seeds: how soon a random
    restart finds a feasible sample depends on the draw, and a run averages
    over its rounds.
    """

    name = "sweep"
    SIZES = {"full": SweepSize(30, 8, (1, 2, 3, 4, 5, 6, 7, 8), (2, 4, 6, 8),
                               (50, 100, 200, 400, 500), (20, 36.8), (3, 6.7),
                               50, 4, 3, 3),
             "tiny": SweepSize(8, 3, (1, 2, 3), (2, 3), (100, 500), (20,), (3,),
                               5, 3, 2, 2)}

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.spec = self.SIZES[self.size]
        self.count = 0

    def round_ops(self) -> list:
        spec = self.spec
        self.count += 1
        rng = np.random.default_rng([self.seed, 5, self.worker, self.count])

        def gen(n: int, s_max: int, tau: float) -> dict:
            return {"n_nodes": n, "score_mean": MEAN, "score_std": STD,
                    "max_difference": 12 * STD, "p_adv_default": 0.1, "tau": tau,
                    "s_max": s_max, "rng_seed": int(rng.integers(2**31))}

        common = {"methods": FIVE_METHODS, "restart_budget": spec.restart_budget,
                  "rng_seed": int(rng.integers(2**31))}
        return [
            dict(common, experiment_id="pr51_vs_shards", label="curve",
                 gen=gen(spec.n, spec.s_max, 1e-3), sigma_grid=list(spec.sigma_grid)),
            dict(common, experiment_id="throughput_and_time", label="budget",
                 gen=gen(spec.n, spec.s_max, 1e-3), s_max_grid=list(spec.s_max_grid)),
            dict(common, experiment_id="adv_prob_sweep", label="adv",
                 gen=gen(spec.n, spec.s_max, 1e-3),
                 scale_percents=list(spec.scale_percents)),
            dict(common, experiment_id="mean_std_sweep", label="cell",
                 gen=gen(spec.n, spec.s_max, 1e-3), mean_grid=list(spec.mean_grid),
                 std_grid=list(spec.std_grid)),
            dict(common, experiment_id="pr51_vs_shards", label="referee",
                 methods=FIVE_METHODS + ["exhaustive"], grid_steps=spec.grid_steps,
                 gen=gen(spec.exhaustive_n, spec.exhaustive_s, 0.5),
                 sigma_grid=list(range(1, spec.exhaustive_s + 1))),
        ]

    def _experiment(self, config: dict, out: Path) -> Path:
        from shardalloc import experiments

        return experiments.run_experiment(experiments.config_from_dict(config), out)

    def run(self, op, tag: str):
        out = self.work / tag
        self._experiment(op, out)
        _cli(["validate", "--results", str(out)])
        return out

    def check(self, op, out, first_round: bool) -> list[str]:
        problems = checks.check_experiment(out, op)
        csv_name = f"{op['experiment_id']}.csv"
        self.rows_with_pr51 += sum(
            1 for line in (out / csv_name).read_text().splitlines()[1:]
            if line.split(",")[4])
        if first_round:
            again = self._experiment(op, self.work / f"{out.name}-rerun")
            if again.read_bytes() != (out / csv_name).read_bytes():
                problems.append(f"{csv_name}: a rerun wrote different bytes")
        return problems


WORKLOADS = {w.name: w for w in (Reconfigure, Simulate, Bulk, Sweep)}
