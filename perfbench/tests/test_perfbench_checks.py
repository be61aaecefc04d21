"""The benchmark's own checks reject corrupted outputs; every workload runs.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402


def _workload(name: str, tmp_path: Path):
    return workloads.WORKLOADS[name](7, "tiny", tmp_path, 0)


def _rewrite_json(path: Path, **changes) -> None:
    data = json.loads(path.read_text())
    data.update(changes)
    path.write_text(json.dumps(data))


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _write_rows(path: Path, rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


# ---------------------------------------------------------------------------
# reconfigure


@pytest.fixture
def solved(tmp_path):
    """(workload, op, solution path) for a feasible and an unsafe pool entry."""
    wl = _workload("reconfigure", tmp_path)
    out = []
    for i, op in enumerate(wl.round_ops()[:2]):
        out.append((op, wl.run(op, f"t{i}")))
    return out


def test_solve_check_accepts_program_output(solved):
    (feasible_op, feasible), (unsafe_op, unsafe) = solved
    assert json.loads(feasible.read_text())["status"] == "sharded"
    assert json.loads(unsafe.read_text())["status"] == "unsafe"
    assert checks.check_solve(feasible_op[0], feasible) == []
    assert checks.check_solve(unsafe_op[0], unsafe) == []


def test_solve_check_rejects_perturbed_allocation(solved):
    (op, sol), _ = solved
    alloc = Path(json.loads(sol.read_text())["allocation_csv"])
    rows = _rows(alloc)
    rows[1][2] = repr(float(rows[1][2]) * (1 + 1e-6))
    _write_rows(alloc, rows)
    assert any("conservation" in p for p in checks.check_solve(op[0], sol))


def test_solve_check_rejects_wrong_sigma(solved):
    (op, sol), (unsafe_op, unsafe) = solved
    s_max = json.loads(Path(op[0]).read_text())["s_max"]
    _rewrite_json(sol, sigma_star=s_max - 1)
    assert checks.check_solve(op[0], sol)
    _rewrite_json(unsafe, status="unsharded_safe", sigma_star=1)
    assert checks.check_solve(unsafe_op[0], unsafe)


# ---------------------------------------------------------------------------
# simulate


@pytest.fixture
def simulated(tmp_path):
    wl = _workload("simulate", tmp_path)
    op = wl.round_ops()[0]
    tag = wl.run(op, "t")
    return wl, op, tag


def _check_simulation(wl, tag) -> list[str]:
    return checks.check_simulation(wl.instance, wl.work / f"{tag}.json",
                                   wl.work / f"{tag}.csv", wl.spec.epochs,
                                   wl.spec.slots, wl.RECONFIGURE_EVERY)


def test_simulation_check_accepts_program_output(simulated):
    wl, op, tag = simulated
    assert wl.check(op, tag, first_round=True) == []


def test_simulation_check_rejects_altered_leader_count(simulated):
    wl, _, tag = simulated
    report = wl.work / f"{tag}.json"
    counts = json.loads(report.read_text())["leader_counts"]
    counts[0][1] += 1
    _rewrite_json(report, leader_counts=counts)
    assert any("leader counts" in p for p in _check_simulation(wl, tag))


def test_simulation_check_rejects_dropped_csv_row(simulated):
    wl, _, tag = simulated
    path = wl.work / f"{tag}.csv"
    rows = _rows(path)
    _write_rows(path, rows[:3] + rows[4:])
    assert _check_simulation(wl, tag)


# ---------------------------------------------------------------------------
# bulk


@pytest.fixture
def bulk_run(tmp_path):
    wl = _workload("bulk", tmp_path)
    op = wl.round_ops()[0]
    return wl, op, wl.run(op, "t")


def test_bulk_check_accepts_program_output(bulk_run):
    wl, op, result = bulk_run
    assert wl.check(op, result, first_round=True) == []


def test_bulk_check_rejects_perturbed_allocation(bulk_run):
    wl, op, result = bulk_run
    greedy = result["greedy"].copy()
    n = int(np.flatnonzero(greedy[0])[0])
    greedy[0, n] *= 0.5
    greedy[1, n] = greedy[0, n]
    assert wl.check(op, dict(result, greedy=greedy), first_round=False)
    reloaded = result["reloaded"].copy()
    reloaded[0, 0] = np.nextafter(reloaded[0, 0], np.inf)
    assert any("round-trip" in p for p in
               wl.check(op, dict(result, reloaded=reloaded), first_round=False))


def test_bulk_check_rejects_wrong_verdict(bulk_run):
    wl, op, result = bulk_run
    flipped = (not result["verdicts"][0], result["verdicts"][1])
    assert wl.check(op, dict(result, verdicts=flipped), first_round=False)


# ---------------------------------------------------------------------------
# sweep


@pytest.fixture
def swept(tmp_path):
    """The referee experiment: tau = 0.5 makes its uniform rows feasible."""
    wl = _workload("sweep", tmp_path)
    config = wl.round_ops()[-1]
    return config, wl.run(config, "t")


def test_experiment_check_accepts_program_output(swept):
    config, out = swept
    assert checks.check_experiment(out, config) == []


def test_experiment_check_rejects_dropped_row(swept):
    config, out = swept
    path = out / f"{config['experiment_id']}.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert any("rows, expected" in p for p in checks.check_experiment(out, config))


def test_experiment_check_rejects_perturbed_allocation(swept):
    config, out = swept
    alloc = sorted((out / "allocs").glob("*uniform__s2.csv"))[0]
    rows = _rows(alloc)
    rows[1][2] = repr(float(rows[1][2]) * 1.5)
    _write_rows(alloc, rows)
    assert any("conservation" in p for p in checks.check_experiment(out, config))


def test_experiment_check_rejects_wrong_pr51(swept):
    config, out = swept
    path = out / f"{config['experiment_id']}.csv"
    lines = [line.split(",") for line in path.read_text().splitlines()]
    lines[1][4] = repr(float(lines[1][4]) * (1 + 1e-9))
    path.write_text("\n".join(",".join(line) for line in lines) + "\n")
    assert any("recomputed" in p for p in checks.check_experiment(out, config))


# ---------------------------------------------------------------------------
# the command


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_runs_to_its_end(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "reconfigure", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
