"""Benchmark entry point: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload reconfigure --seed 1 --seconds 12 --trace 0

With ``--trace 0`` the workload runs in WORKERS fresh processes, one after
another, each timing whole rounds of operations for its share of
``--seconds``; the last line of standard output holds the end-to-end
metrics. With ``--trace 1`` one untraced and one traced process share the
time, and the last line holds the per-layer metrics of the traced process and
the tracing overhead. Every process starts with the BLAS and OpenMP pools
pinned to one thread and without SHARDALLOC_THREADS, so the program's
default applies. Exit code 0 means the run completed; whether the outputs
were correct is the ``correct`` field.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("reconfigure", "simulate", "bulk", "sweep")
# Fresh processes per untraced run; their medians damp per-process noise.
WORKERS = 4
# Every worker must have ended this many seconds after the run started.
DEADLINE_S = 170.0
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(Exception):
    pass


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SHARDALLOC_THREADS", None)
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_worker(args, index: int, budget: float, started: float,
                trace_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--budget", repr(budget), "--size", args.size,
           "--worker", str(index)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    remaining = DEADLINE_S - (time.monotonic() - started)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                              env=_worker_env(), capture_output=True, text=True,
                              timeout=max(1.0, remaining))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {index} passed the {DEADLINE_S:.0f} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {index} exited {proc.returncode}:\n"
                          f"{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def _report_problems(reports: list[dict]) -> bool:
    correct = True
    for rep in reports:
        for failure in rep["failures"]:
            print(f"failed operation: {failure}", file=sys.stderr)
        for problem in rep["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
        correct = correct and rep["problem_count"] == 0
    return correct


def _ops_per_s(rep: dict) -> float:
    if not rep["latencies_ms"]:
        raise WorkerError("no operation completed")
    return len(rep["latencies_ms"]) / (sum(rep["latencies_ms"]) / 1e3)


def end_to_end(reports: list[dict]) -> dict:
    latencies = [ms for rep in reports for ms in rep["latencies_ms"]]
    if not latencies:
        raise WorkerError("no operation completed")
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in reports), "s"),
        "ops_per_s": (statistics.median(_ops_per_s(r) for r in reports), "1/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reports), "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny exists for the benchmark's own tests")
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "shardalloc" / "__init__.py").is_file():
        print(f"no shardalloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    for sub in ("work", "traces", "results"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)

    try:
        if args.trace:
            spans = OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            plain = _run_worker(args, 0, args.seconds / 2, started)
            traced = _run_worker(args, 1, args.seconds / 2, started, spans)
            reports = [plain, traced]
            metrics = dict(traced["layers"])
            metrics["trace.overhead_frac"] = (
                _ops_per_s(plain) / _ops_per_s(traced) - 1.0, "ratio")
        else:
            reports = [_run_worker(args, i, args.seconds / WORKERS, started)
                       for i in range(WORKERS)]
            metrics = end_to_end(reports)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1

    result = {
        "correct": _report_problems(reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
