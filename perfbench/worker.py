"""One workload process: set up, warm up, then time whole rounds of operations.

Started by ``run.py`` with the BLAS thread counts pinned; prints one JSON
object with its setup time, every operation's latency, its peak RSS and its
check results as the last line of its standard output. In a traced run it
also installs the layer wrappers and reports the per-layer figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# At most this many problem descriptions travel back to the parent.
MAX_PROBLEMS = 20


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds after which no new round starts")
    parser.add_argument("--size", default="full")
    parser.add_argument("--worker", type=int, default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--trace-out", default=None,
                        help="install the layer wrappers and write spans here")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import shardalloc

    if Path(shardalloc.__file__).resolve().parent != ROOT / "src" / "shardalloc":
        raise SystemExit(f"imported shardalloc from {shardalloc.__file__}, "
                         f"not from {ROOT / 'src'}")
    import workloads

    tracer = None
    if args.trace_out:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    try:
        report = _measure(args, workloads, tracer, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    return 0


def _measure(args, workloads, tracer, work: Path) -> dict:
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, work,
                                                  args.worker)
    problems: list[str] = []
    failures: list[str] = []
    warm = workload.round_ops()[0]
    try:
        workload.run(warm, "warm")
    except workloads.OperationFailed as exc:
        failures.append(f"warm-up: {exc}")
    workload.cleanup("warm")
    gc.collect()
    setup_s = time.monotonic() - args.spawned

    latencies_ms: list[float] = []
    attempted = failed = rounds = 0
    start = time.monotonic()
    while rounds == 0 or time.monotonic() - start < args.budget:
        for op in workload.round_ops():
            attempted += 1
            tag = f"op{attempted:05d}"
            if tracer:
                tracer.begin_op(attempted)
            t0 = time.perf_counter()
            try:
                result = workload.run(op, tag)
            except Exception:  # noqa: BLE001 - an operation that raises is counted as failed
                result = None
                failed += 1
                failures.append(f"{tag}: {traceback.format_exc(limit=3)}")
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.end_op()
            if result is not None:
                latencies_ms.append(elapsed * 1e3)
                try:
                    found = workload.check(op, result, first_round=rounds == 0)
                except Exception:  # noqa: BLE001 - unreadable output fails the check
                    found = [traceback.format_exc(limit=3)]
                problems += [f"{tag}: {p}" for p in found]
            workload.cleanup(tag)
            gc.collect()
        rounds += 1

    report = {
        "setup_s": setup_s,
        "latencies_ms": latencies_ms,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:MAX_PROBLEMS],
        "problem_count": len(problems),
        "failures": failures[:MAX_PROBLEMS],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer:
        import tracer as tracing

        tracer.write(Path(args.trace_out))
        report["layers"] = tracing.layer_metrics(tracer, len(latencies_ms),
                                                 workload.rows_with_pr51)
    return report


if __name__ == "__main__":
    sys.exit(main())
