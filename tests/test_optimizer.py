from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardalloc.errors import InvariantViolation
from shardalloc.lagrangian import StationarityVariant, check_feasibility
from shardalloc.model import Allocation
from shardalloc.optimizer import (SearchMode, SolutionStatus, derive_x,
                                  optimize_sharding, save_solution,
                                  solve_budget, throughput,
                                  verify_full_constraints)
from conftest import equal_score_instance, random_instance

REDERIVED = StationarityVariant.REDERIVED


class TestDeriveX:
    def test_three_of_five(self):
        assert derive_x(3, 5) == (1, 1, 1, 0, 0)

    def test_none(self):
        assert derive_x(0, 4) == (0, 0, 0, 0)

    def test_all(self):
        assert derive_x(4, 4) == (1, 1, 1, 1)

    def test_out_of_range(self):
        with pytest.raises(InvariantViolation):
            derive_x(5, 4)


class TestThroughput:
    def test_paper_scale(self):
        assert throughput(10, 2000.0) == 20_000.0

    def test_zero(self):
        assert throughput(0, 2000.0) == 0.0

    def test_baseline_scale(self):
        assert throughput(4, 2000.0) == 8_000.0


class TestVerifyFullConstraints:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 25),
           s_max=st.integers(1, 8), tau=st.sampled_from([0.5, 0.05, 1e-3, 1e-6]),
           variant=st.sampled_from(list(StationarityVariant)))
    def test_every_sharded_solution_passes(self, seed, n, s_max, tau, variant):
        inst = random_instance(np.random.default_rng(seed), n, tau=tau, s_max=s_max)
        sol = optimize_sharding(inst, variant)
        if sol.status is SolutionStatus.SHARDED:
            assert verify_full_constraints(sol, inst)

    def test_conservation_error_of_one_in_a_million_fails(self, safe_instance):
        sol = optimize_sharding(safe_instance)
        assert verify_full_constraints(sol, safe_instance)
        # Scaling keeps every shard safe; only conservation breaks.
        scaled = Allocation(safe_instance, sol.allocation.table * (1 + 1e-6))
        assert not verify_full_constraints(replace(sol, allocation=scaled),
                                           safe_instance)


class TestOptimize:
    def test_safe_instance_full_sharding(self, safe_instance):
        sol = optimize_sharding(safe_instance)
        assert sol.status is SolutionStatus.SHARDED
        assert sol.sigma_star == 10
        assert sol.throughput == 20_000.0
        assert sol.pr51 == pytest.approx(math.exp(-16.0), rel=1e-9)
        assert sol.x == (1,) * 10
        assert sol.solves_performed == 1  # sigma = S feasible on first try
        assert check_feasibility(sol.allocation).feasible
        assert verify_full_constraints(sol, safe_instance)

    def test_unsafe_instance(self, small_instance):
        sol = optimize_sharding(small_instance)
        assert sol.status is SolutionStatus.UNSAFE
        assert sol.sigma_star == 0
        assert sol.allocation is None
        assert sol.throughput == 0.0
        assert sol.pr51 == pytest.approx(math.exp(-1.28))
        assert sol.x == (0,) * 10

    def test_unsharded_safe(self):
        # Safe as one shard, but no sigma >= 2 allowed.
        inst = equal_score_instance(50, s_max=1)
        sol = optimize_sharding(inst)
        assert sol.status is SolutionStatus.UNSHARDED_SAFE
        assert sol.sigma_star == 1
        assert sol.throughput == 2000.0

    def test_small_shard_budgets(self):
        # S=2 has no binary range at all; S=3 collapses to one probe at 2.
        for s_max in (2, 3):
            unsafe = optimize_sharding(equal_score_instance(4, s_max=s_max))
            assert unsafe.status is SolutionStatus.UNSAFE
            safe = optimize_sharding(equal_score_instance(50, s_max=s_max))
            assert safe.status is SolutionStatus.SHARDED
            assert safe.sigma_star == s_max

    def test_modes_agree(self):
        rng = np.random.default_rng(101)
        for _ in range(15):
            tau = float(rng.choice([0.05, 1e-7]))
            inst = random_instance(rng, int(rng.integers(5, 25)),
                                   tau=tau, s_max=int(rng.integers(4, 12)))
            b = optimize_sharding(inst, search_mode=SearchMode.BINARY)
            s = optimize_sharding(inst, search_mode=SearchMode.LINEAR_SCAN)
            assert b.sigma_star == s.sigma_star
            assert b.status == s.status

    def test_solve_budget_worst_case(self):
        # Unsafe instances force the binary search to run its full depth.
        for s_max in range(2, 21):
            inst = equal_score_instance(4, s_max=s_max)
            sol = optimize_sharding(inst)
            assert sol.solves_performed <= solve_budget(s_max), s_max

    def test_tau_monotonicity(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            inst = random_instance(rng, int(rng.integers(5, 30)), tau=0.5)
            loose = optimize_sharding(inst).sigma_star
            tight = optimize_sharding(inst.with_tau(1e-9)).sigma_star
            assert loose >= tight

    def test_wall_time_recorded(self, safe_instance):
        sol = optimize_sharding(safe_instance)
        assert sol.wall_time_s > 0

    def test_literal_variant_runs(self):
        rng = np.random.default_rng(13)
        inst = random_instance(rng, 10, tau=0.05, s_max=5)
        sol = optimize_sharding(inst, variant=StationarityVariant.LITERAL)
        assert sol.status in (SolutionStatus.SHARDED,
                              SolutionStatus.UNSHARDED_SAFE,
                              SolutionStatus.UNSAFE)
        if sol.allocation is not None:
            assert sol.allocation.max_conservation_error() <= 1e-9

    def test_binary_trace_against_synthetic_feasibility(self, monkeypatch):
        # Pin the search bookkeeping: feasible iff sigma <= k. Ceil midpoints
        # never test sigma=2, and termination at sigma'=high never tests S-1;
        # both gaps are part of the documented search semantics.
        import types
        import shardalloc.optimizer as opt
        from shardalloc.baselines import uniform_split as real_uniform

        inst = equal_score_instance(6, s_max=10)

        def run(k):
            def fake_solve_p3(instance, sigma, tau=None, variant=None):
                return types.SimpleNamespace(
                    allocation=real_uniform(instance, sigma),
                    diagnostics=types.SimpleNamespace(rank_deficient=False))

            def fake_check(alloc, tau=None):
                return types.SimpleNamespace(feasible=alloc.sigma <= k)

            monkeypatch.setattr(opt, "solve_p3", fake_solve_p3)
            monkeypatch.setattr(opt, "check_feasibility", fake_check)
            return opt.optimize_sharding(inst)

        assert run(10).sigma_star == 10   # first solve feasible
        assert run(5).sigma_star == 5     # midpoints land on the boundary
        assert run(9).sigma_star == 8     # S-1 is structurally untested
        sol2 = run(2)                     # sigma=2 unreachable by ceil midpoints
        assert sol2.status is SolutionStatus.UNSHARDED_SAFE
        sol0 = run(0)                     # nothing feasible at all
        assert sol0.status is SolutionStatus.UNSAFE
        assert sol0.solves_performed == 4  # sigma = 10, 6, 4, 3

    def test_linear_scan_trace_against_synthetic_feasibility(self, monkeypatch):
        # Feasible iff sigma <= k: the scan walks down from S and stops at the
        # first feasible sigma, so every interior k is found after S-k+1 solves.
        import types
        import shardalloc.optimizer as opt
        from shardalloc.baselines import uniform_split as real_uniform

        inst = equal_score_instance(6, s_max=10)

        def run(k):
            def fake_solve_p3(instance, sigma, variant=None):
                return types.SimpleNamespace(
                    allocation=real_uniform(instance, sigma),
                    diagnostics=types.SimpleNamespace(rank_deficient=False))

            def fake_check(alloc):
                return types.SimpleNamespace(feasible=alloc.sigma <= k)

            monkeypatch.setattr(opt, "solve_p3", fake_solve_p3)
            monkeypatch.setattr(opt, "check_feasibility", fake_check)
            return opt.optimize_sharding(inst, search_mode=SearchMode.LINEAR_SCAN)

        for k in range(2, 11):
            sol = run(k)
            assert sol.status is SolutionStatus.SHARDED
            assert (sol.sigma_star, sol.solves_performed) == (k, 11 - k)
            assert sol.allocation.sigma == k
        sol1 = run(1)                     # sigma = 10..2 all solved, none feasible
        assert sol1.status is SolutionStatus.UNSHARDED_SAFE
        assert sol1.solves_performed == 9
        assert run(0).status is SolutionStatus.UNSAFE

    def test_solution_json(self, tmp_path, safe_instance):
        sol = optimize_sharding(safe_instance)
        path = tmp_path / "sol.json"
        save_solution(sol, path, "alloc.csv")
        data = json.loads(path.read_text())
        assert data["status"] == "sharded"
        assert data["sigma_star"] == 10
        assert data["throughput_tx_s"] == 20_000.0
        assert data["x"] == [1] * 10
        assert data["allocation_csv"] == "alloc.csv"
