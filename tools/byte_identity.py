"""Write a fixed set of shardalloc artifacts, to compare two source trees byte for byte.

Usage::

    OPENBLAS_NUM_THREADS=1 python tools/byte_identity.py SRC_DIR OUT_DIR

``SRC_DIR`` is the ``src/`` directory of the tree under test; ``OUT_DIR`` must
not exist yet. Run the script once per tree, then ``diff -r`` the two output
directories: an empty diff means the trees wrote the same bytes.

Everything goes through the CLI entry point, inside ``OUT_DIR`` and with
relative paths, so the captured stdout and stderr compare too. What is written:

- 27 experiment directories: the sweep's four configs (N=30, S=8, restart
  budget 50), an unsafe (tau=1e-12) and an N=4 referee
  ``throughput_and_time``, an N=4 ``adv_prob_sweep`` up to 600%, a
  ``mean_std_sweep`` with cells that cannot be generated, and the N=4
  referee ``pr51_vs_shards``, each with all six methods for seeds 1-3, plus
  each directory's ``revalidate_results`` list;
- 16 ``solve`` JSONs without ``wall_time_ms`` (N=40 and 60, S=20, tau 1e-3
  and 1e-30, both variants, both search modes) and their allocation CSVs;
- 8 ``baseline`` allocation CSVs on an N=4, S=3 instance: all four methods at
  the instance's tau and with ``--tau 0.5``, plus one ``--tau 1.5`` run whose
  error message is logged;
- 16 ``simulate`` reports with their epoch CSVs: one from a config file, one
  from flags, twelve on an N=30, tau=0.05 instance that stays safe (both
  variants, each adversary mode, reconfiguring every epoch and every fifth,
  so corrupted sets recur between reconfigurations), one that aborts when
  corruption makes even one shard unsafe, and one at the ``simulate``
  benchmark's size (N=50, S=10, 200 epochs of 8 slots).

Only the standard library and the shardalloc under ``SRC_DIR`` are used. BLAS
thread counts that are not set default to 1, because output bits depend on
them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

SIX_METHODS = ["lgrn_rederived", "lgrn_literal", "uniform", "greedy",
               "random_restart", "exhaustive"]


def _gen(seed: int, n: int = 30, s_max: int = 8, tau: float = 1e-3) -> dict:
    return {"n_nodes": n, "score_mean": 36.8, "score_std": 6.7,
            "max_difference": 80.4, "p_adv_default": 0.1, "tau": tau,
            "s_max": s_max, "rng_seed": seed}


def _experiments(seed: int) -> dict[str, dict]:
    """Experiment configs by directory name, for one seed."""
    common = {"methods": SIX_METHODS, "restart_budget": 50, "grid_steps": 3,
              "rng_seed": seed}
    tiny = _gen(seed, n=4, s_max=3, tau=0.5)
    configs = {
        "curve": {"experiment_id": "pr51_vs_shards", "gen": _gen(seed),
                  "sigma_grid": [1, 2, 3, 4, 5, 6, 7, 8]},
        "budget": {"experiment_id": "throughput_and_time", "gen": _gen(seed),
                   "s_max_grid": [2, 4, 6, 8]},
        "adv": {"experiment_id": "adv_prob_sweep", "gen": _gen(seed),
                "scale_percents": [50, 100, 200, 400, 500]},
        "cell": {"experiment_id": "mean_std_sweep", "gen": _gen(seed),
                 "mean_grid": [20, 36.8], "std_grid": [3, 6.7]},
        "unsafe": {"experiment_id": "throughput_and_time",
                   "gen": _gen(seed, tau=1e-12), "s_max_grid": [2, 4, 6, 8]},
        "refbudget": {"experiment_id": "throughput_and_time", "gen": tiny,
                      "s_max_grid": [2, 3]},
        "refadv": {"experiment_id": "adv_prob_sweep", "gen": tiny,
                   "scale_percents": [50, 100, 300, 600]},
        "nogen": {"experiment_id": "mean_std_sweep", "gen": _gen(seed),
                  "mean_grid": [1, 36.8], "std_grid": [6.7, 50]},
        "referee": {"experiment_id": "pr51_vs_shards", "gen": tiny,
                    "sigma_grid": [1, 2, 3]},
    }
    return {f"{name}_seed{seed}": dict(common, label=name, **cfg)
            for name, cfg in configs.items()}


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: python tools/byte_identity.py SRC_DIR OUT_DIR", file=sys.stderr)
        return 1
    src, out = Path(argv[1]).resolve(), Path(argv[2]).resolve()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    from shardalloc.cli import cli_dispatch
    from shardalloc.experiments import revalidate_results

    out.mkdir(parents=True)
    os.chdir(out)
    log: list[str] = []

    def run(*args: str) -> None:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_dispatch(list(args))
        log.append(f"$ shardalloc {' '.join(args)}\nexit {code}\n"
                   f"{stdout.getvalue()}{stderr.getvalue()}")

    for seed in (1, 2, 3):
        for name, config in _experiments(seed).items():
            Path(f"{name}.json").write_text(json.dumps(config, indent=2) + "\n")
            run("experiment", config["experiment_id"], "--config", f"{name}.json",
                "--output-dir", name)
            Path(f"{name}.revalidate.json").write_text(
                json.dumps(revalidate_results(name), indent=2) + "\n")

    Path("solve").mkdir()
    for n in (40, 60):
        inst = f"solve/inst_n{n}.json"
        run("gen", "--nodes", str(n), "--mean", "36.8", "--std", "6.7",
            "--max-diff", "71", "--s-max", "20", "--seed", "1", "-o", inst)
        for tau in ("1e-3", "1e-30"):
            for variant in ("rederived", "literal"):
                for mode in ("binary", "linear-scan"):
                    path = Path(f"solve/n{n}_tau{tau}_{variant}_{mode}.json")
                    run("solve", inst, "--tau", tau, "--variant", variant,
                        "--mode", mode, "-o", str(path))
                    if path.exists():
                        solution = json.loads(path.read_text())
                        solution.pop("wall_time_ms", None)
                        path.write_text(json.dumps(solution, indent=2) + "\n")

    Path("baseline").mkdir()
    run("gen", "--nodes", "4", "--mean", "36.8", "--std", "6.7", "--max-diff", "80.4",
        "--tau", "0.3", "--s-max", "3", "--seed", "5", "-o", "baseline/inst.json")
    for method in ("uniform", "greedy", "random_restart", "exhaustive"):
        run("baseline", "baseline/inst.json", "--method", method,
            "-o", f"baseline/{method}.csv")
        run("baseline", "baseline/inst.json", "--method", method, "--tau", "0.5",
            "-o", f"baseline/{method}_tau0.5.csv")
    run("baseline", "baseline/inst.json", "--method", "exhaustive", "--tau", "1.5")

    Path("simulate").mkdir()
    run("gen", "--nodes", "30", "--mean", "36.8", "--std", "6.7", "--max-diff", "80.4",
        "--s-max", "8", "--seed", "4", "-o", "simulate/inst.json")
    Path("simulate/epochs.json").write_text(json.dumps({
        "epochs": 40, "slots_per_epoch": 4, "corruption_rate": 1,
        "corruption_delay": 1, "reconfigure_every": 5, "rng_seed": 3,
        "adversary_mode": "per_epoch"}, indent=2) + "\n")
    run("simulate", "simulate/inst.json", "--config", "simulate/epochs.json",
        "-o", "simulate/config_report.json", "--csv", "simulate/config_epochs.csv")
    run("simulate", "simulate/inst.json", "--epochs", "30", "--slots", "2",
        "--corruption-rate", "0.5", "--reconfigure-every", "3",
        "--adversary-mode", "fixed", "--seed", "5",
        "-o", "simulate/flags_report.json", "--csv", "simulate/flags_epochs.csv")
    run("gen", "--nodes", "30", "--mean", "36.8", "--std", "6.7", "--max-diff", "80.4",
        "--tau", "0.05", "--s-max", "8", "--seed", "4", "-o", "simulate/safe_inst.json")
    for variant in ("rederived", "literal"):
        for mode in ("none", "fixed", "per_epoch"):
            for every in (1, 5):
                name = f"simulate/{variant}_{mode}_every{every}"
                run("simulate", "simulate/safe_inst.json", "--epochs", "20", "--slots", "3",
                    "--corruption-rate", "0.5", "--corruption-delay", "1",
                    "--reconfigure-every", str(every), "--adversary-mode", mode,
                    "--seed", "7", "--variant", variant,
                    "-o", f"{name}.json", "--csv", f"{name}.csv")
    run("gen", "--nodes", "12", "--mean", "36.8", "--std", "6.7", "--max-diff", "80.4",
        "--p-adv", "0.05", "--tau", "0.01", "--s-max", "4", "--seed", "2",
        "-o", "simulate/abort_inst.json")
    run("simulate", "simulate/abort_inst.json", "--epochs", "200", "--slots", "2",
        "--corruption-rate", "0.5", "--corruption-delay", "1", "--seed", "3",
        "-o", "simulate/abort_report.json", "--csv", "simulate/abort_epochs.csv")
    run("gen", "--nodes", "50", "--mean", "36.8", "--std", "6.7", "--max-diff", "80.4",
        "--s-max", "10", "--seed", "6", "-o", "simulate/bench_inst.json")
    run("simulate", "simulate/bench_inst.json", "--epochs", "200", "--slots", "8",
        "--corruption-rate", "0.03", "--corruption-delay", "2", "--reconfigure-every", "5",
        "--adversary-mode", "per_epoch", "--seed", "11",
        "-o", "simulate/bench_report.json", "--csv", "simulate/bench_epochs.csv")
    Path("commands.log").write_text("".join(log))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
