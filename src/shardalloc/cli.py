"""Command-line front end: gen, solve, baseline, simulate, experiment, validate.

Exit codes: 0 on success, 1 on usage errors, 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ShardAllocError, UsageError
from .baselines import BaselineMethod, DEFAULT_RESTART_BUDGET, run_baseline
from .experiments import load_experiment_config, revalidate_results, run_experiment
from .lagrangian import StationarityVariant
from .model import (InstanceGenConfig, generate_instance, instance_stats,
                    load_instance, save_allocation_csv, save_instance)
from .optimizer import SearchMode, optimize_sharding, save_solution
from .selfcheck import run_invariant_suite
from .simulator import (EpochConfig, load_epoch_config, run_simulation,
                        save_simulation_report, write_epoch_csv)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shardalloc",
                     description="Engagement-weighted shard allocation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a problem instance file")
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--mean", type=float, required=True)
    gen.add_argument("--std", type=float, required=True)
    gen.add_argument("--max-diff", type=float, required=True)
    gen.add_argument("--p-adv", type=float, default=0.1)
    gen.add_argument("--tau", type=float, default=0.001)
    gen.add_argument("--s-max", type=int, default=10)
    gen.add_argument("--t-per-shard", type=float, default=2000.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True)

    solve = sub.add_parser("solve", help="optimize shard count and allocation")
    solve.add_argument("instance")
    solve.add_argument("--tau", type=float, default=None)
    solve.add_argument("--s-max", type=int, default=None)
    solve.add_argument("--variant", choices=[v.value for v in StationarityVariant],
                       default=StationarityVariant.REDERIVED.value)
    solve.add_argument("--mode", choices=[m.value for m in SearchMode],
                       default=SearchMode.BINARY.value)
    solve.add_argument("-o", "--output", required=True)
    solve.add_argument("--alloc-out", default=None,
                       help="allocation CSV path (default: <output>.alloc.csv)")

    base = sub.add_parser("baseline", help="run a reference allocator")
    base.add_argument("instance")
    base.add_argument("--method", required=True,
                      choices=[m.value for m in BaselineMethod])
    base.add_argument("--tau", type=float, default=None)
    base.add_argument("--budget", type=int, default=DEFAULT_RESTART_BUDGET)
    base.add_argument("--grid-steps", type=int, default=4)
    base.add_argument("--seed", type=int, default=0)
    base.add_argument("-o", "--output", default=None,
                      help="allocation CSV output path")

    sim = sub.add_parser("simulate", help="run the epoch-level consensus simulation")
    sim.add_argument("instance")
    sim.add_argument("--config", default=None,
                     help="epoch-config JSON; overrides the individual flags")
    sim.add_argument("--epochs", type=int, default=None)
    sim.add_argument("--slots", type=int, default=1)
    sim.add_argument("--corruption-rate", type=float, default=0.0)
    sim.add_argument("--corruption-delay", type=int, default=0)
    sim.add_argument("--reconfigure-every", type=int, default=1)
    sim.add_argument("--adversary-mode", choices=["none", "fixed", "per_epoch"],
                     default="none")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--variant", choices=[v.value for v in StationarityVariant],
                     default=StationarityVariant.REDERIVED.value)
    sim.add_argument("-o", "--output", required=True, help="report JSON path")
    sim.add_argument("--csv", default=None, help="per-epoch CSV path")

    exp = sub.add_parser("experiment", help="run an experiment sweep")
    exp.add_argument("experiment_id")
    exp.add_argument("--config", required=True)
    exp.add_argument("--output-dir", default=None,
                     help="default: directory of the config file")

    val = sub.add_parser("validate", help="run the invariant suite")
    val.add_argument("--seed", type=int, default=0)
    val.add_argument("--results", default=None,
                     help="also revalidate an experiment output directory")

    return parser


def _cmd_gen(args: argparse.Namespace) -> int:
    cfg = InstanceGenConfig(n_nodes=args.nodes, score_mean=args.mean,
                            score_std=args.std, max_difference=args.max_diff,
                            p_adv_default=args.p_adv, tau=args.tau,
                            s_max=args.s_max, t_per_shard=args.t_per_shard,
                            rng_seed=args.seed)
    instance = generate_instance(cfg)
    save_instance(instance, args.output)
    stats = instance_stats(instance)
    print(f"wrote {args.output}: n={instance.n} mean={stats.mean:.3f} "
          f"std={stats.std:.3f} spread={stats.max_difference:.3f}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    if args.tau is not None:
        instance = instance.with_tau(args.tau)
    if args.s_max is not None:
        instance = instance.with_s_max(args.s_max)
    solution = optimize_sharding(instance, StationarityVariant(args.variant),
                                 SearchMode(args.mode))
    alloc_out = args.alloc_out or f"{args.output}.alloc.csv"
    if solution.allocation is not None:
        save_allocation_csv(solution.allocation, alloc_out)
    else:
        alloc_out = None
    save_solution(solution, args.output, alloc_out)
    print(f"status={solution.status.value} sigma={solution.sigma_star} "
          f"throughput={solution.throughput:.0f} pr51={solution.pr51:.4e} "
          f"solves={solution.solves_performed}")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    if args.tau is not None:
        instance = instance.with_tau(args.tau)
    result = run_baseline(instance, BaselineMethod(args.method), budget=args.budget,
                          grid_steps=args.grid_steps, seed=args.seed)
    if args.output and result.allocation is not None:
        save_allocation_csv(result.allocation, args.output)
    print(f"method={result.method.value} sigma={result.sigma_star} "
          f"throughput={result.throughput:.0f} pr51={result.pr51:.4e}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    if args.config is not None:
        config = load_epoch_config(args.config)
    elif args.epochs is None:
        raise UsageError("simulate needs --epochs or --config")
    else:
        config = EpochConfig(epochs=args.epochs, slots_per_epoch=args.slots,
                             corruption_rate=args.corruption_rate,
                             corruption_delay=args.corruption_delay,
                             reconfigure_every=args.reconfigure_every,
                             rng_seed=args.seed,
                             adversary_mode=args.adversary_mode)
    report = run_simulation(instance, config, StationarityVariant(args.variant))
    save_simulation_report(report, args.output)
    if args.csv:
        write_epoch_csv(report, args.csv)
    if report.aborted:
        print(f"aborted at epoch {report.abort_epoch}: {report.abort_note}")
    print(f"epochs={report.epochs_run} attacked_fraction="
          f"{report.attacked_fraction:.6f} reconfigurations="
          f"{report.reconfigurations}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = load_experiment_config(args.config)
    if config.experiment_id != args.experiment_id:
        raise UsageError(
            f"config is for {config.experiment_id!r}, not {args.experiment_id!r}")
    output_dir = args.output_dir or str(Path(args.config).parent)
    csv_path = run_experiment(config, output_dir)
    print(f"wrote {csv_path}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    results = run_invariant_suite(seed=args.seed)
    failures = 0
    for res in results:
        mark = "ok  " if res.ok else "FAIL"
        print(f"{mark} {res.name}: {res.detail}")
        failures += 0 if res.ok else 1
    if args.results:
        problems = revalidate_results(args.results)
        for problem in problems:
            print(f"FAIL revalidate: {problem}")
        failures += len(problems)
        if not problems:
            print(f"ok   revalidate: {args.results}")
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 2
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "baseline": _cmd_baseline,
    "simulate": _cmd_simulate,
    "experiment": _cmd_experiment,
    "validate": _cmd_validate,
}


def cli_dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help path
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ShardAllocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
