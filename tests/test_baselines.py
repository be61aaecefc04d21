from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardalloc import baselines
from shardalloc.errors import InstanceTooLargeError
from shardalloc.baselines import (BaselineMethod, exhaustive_best_pr51,
                                  exhaustive_search, greedy_round_robin,
                                  random_restart_best,
                                  random_restart_feasibility, run_baseline,
                                  uniform_split)
from shardalloc.bounds import allocation_pr51
from shardalloc.lagrangian import check_feasibility
from shardalloc.model import (Allocation, EngagementProfile, InstanceGenConfig,
                              ProblemInstance, UNIT_WEIGHTS, generate_instance)
from conftest import equal_score_instance, random_instance


def instance_with_scores(scores, p=0.1, tau=0.001, s_max=10):
    profiles = tuple(EngagementProfile(i, float(v), 0.0, 0.0)
                     for i, v in enumerate(scores))
    return ProblemInstance(profiles, UNIT_WEIGHTS, (p,) * len(scores), tau,
                           s_max, 2000.0)


class TestUniform:
    def test_rows(self):
        alloc = uniform_split(instance_with_scores([10, 20, 30]), 2)
        assert alloc.table == pytest.approx(np.array([[5, 10, 15], [5, 10, 15]]))

    def test_sigma_one(self):
        inst = instance_with_scores([10, 20, 30])
        assert uniform_split(inst, 1).table[0] == pytest.approx(inst.eta)

    def test_sigma_invariant_bound(self, safe_instance):
        base = allocation_pr51(uniform_split(safe_instance, 1))
        for sigma in (2, 3, 7):
            assert allocation_pr51(uniform_split(safe_instance, sigma)) == \
                pytest.approx(base, rel=1e-12)


class TestGreedy:
    def test_hand_trace(self):
        alloc = greedy_round_robin(instance_with_scores([4, 3, 2, 1]), 2)
        assert sorted(alloc.shard_totals().tolist()) == [5.0, 5.0]

    def test_sigma_one(self):
        inst = instance_with_scores([4, 3, 2, 1])
        assert greedy_round_robin(inst, 1).table[0] == pytest.approx(inst.eta)

    def test_one_user_per_shard(self):
        inst = instance_with_scores([9, 7, 5, 3])
        alloc = greedy_round_robin(inst, 4)
        assert np.count_nonzero(alloc.table, axis=0).tolist() == [1, 1, 1, 1]
        assert np.count_nonzero(alloc.table, axis=1).tolist() == [1, 1, 1, 1]

    def test_sigma_n_equal_scores_closed_form(self):
        # One user per shard; every shard's bound is exp(-2*(0.5-p)^2).
        inst = instance_with_scores([10.0] * 6, p=0.1, s_max=6)
        alloc = greedy_round_robin(inst, 6)
        assert allocation_pr51(alloc) == pytest.approx(math.exp(-0.32))

    def test_conservation_exact(self):
        rng = np.random.default_rng(2)
        inst = random_instance(rng, 12)
        alloc = greedy_round_robin(inst, 5)
        assert np.array_equal(alloc.table.sum(axis=0), inst.eta)

    def test_tie_break_by_id_then_lowest_shard(self):
        inst = instance_with_scores([5.0, 5.0, 5.0])
        alloc = greedy_round_robin(inst, 2)
        assert np.flatnonzero(alloc.table[0]).tolist() == [0, 2]
        assert np.flatnonzero(alloc.table[1]).tolist() == [1]


class TestRandomRestart:
    def test_trivially_safe_first_sample(self):
        inst = equal_score_instance(20, tau=0.999, s_max=4)
        alloc = random_restart_feasibility(inst, 2, budget=1, seed=5)
        assert alloc is not None
        assert check_feasibility(alloc, 0.999).feasible

    def test_unsafe_returns_none(self, small_instance):
        assert random_restart_feasibility(small_instance, 2, budget=100,
                                          seed=3) is None

    def test_determinism(self):
        inst = equal_score_instance(30, tau=0.01, s_max=4)
        a = random_restart_feasibility(inst, 3, budget=20, seed=8)
        b = random_restart_feasibility(inst, 3, budget=20, seed=8)
        assert a is not None and np.array_equal(a.table, b.table)

    def test_best_tracks_minimum(self):
        inst = equal_score_instance(30, tau=0.01, s_max=4)
        _, best_pr51, any_feasible = random_restart_best(inst, 3, budget=30,
                                                         seed=4)
        assert any_feasible
        assert best_pr51 <= 0.01


class TestExhaustive:
    def test_unsafe_tiny_instance(self):
        inst = instance_with_scores([10.0] * 4, p=0.1, tau=0.001, s_max=3)
        result = exhaustive_search(inst, grid_steps=4)
        assert result.sigma_star == 0
        assert result.allocation is None

    def test_safe_tiny_instance(self):
        # Single-shard bound exp(-2*(0.49*40)^2/400) = exp(-1.9208) ~ 0.1465.
        inst = instance_with_scores([10.0] * 4, p=0.01, tau=0.5, s_max=3)
        assert allocation_pr51(uniform_split(inst, 1)) == \
            pytest.approx(math.exp(-1.9208))
        result = exhaustive_search(inst, grid_steps=3)
        assert result.sigma_star == 3
        assert check_feasibility(result.allocation, 0.5).feasible
        assert result.throughput == 6000.0

    def test_grid_one_is_whole_placement(self):
        inst = instance_with_scores([8.0, 6.0, 4.0], p=0.01, tau=0.9, s_max=2)
        result = exhaustive_search(inst, grid_steps=1)
        assert result.sigma_star >= 1
        table = result.allocation.table
        for n in range(inst.n):
            assert np.count_nonzero(table[:, n]) == 1

    def test_guard_rails(self):
        with pytest.raises(InstanceTooLargeError):
            exhaustive_search(equal_score_instance(7, s_max=3), grid_steps=3)
        with pytest.raises(InstanceTooLargeError):
            exhaustive_search(equal_score_instance(4, s_max=4), grid_steps=3)
        with pytest.raises(InstanceTooLargeError):
            exhaustive_search(equal_score_instance(4, s_max=3), grid_steps=6)

    def test_best_pr51_beats_first_witness(self):
        inst = instance_with_scores([10.0, 12.0, 9.0], p=0.05, tau=0.9, s_max=2)
        _, best = exhaustive_best_pr51(inst, 2, grid_steps=4)
        uniform_bound = allocation_pr51(uniform_split(inst, 2))
        assert best <= uniform_bound + 1e-12


class TestRunBaseline:
    def test_uniform_full_sharding(self, safe_instance):
        result = run_baseline(safe_instance, BaselineMethod.UNIFORM)
        assert result.sigma_star == 10
        assert result.throughput == 20_000.0

    def test_unsafe_all_methods(self, small_instance):
        for method in (BaselineMethod.UNIFORM, BaselineMethod.GREEDY,
                       BaselineMethod.RANDOM_RESTART):
            result = run_baseline(small_instance, method, budget=10)
            assert result.sigma_star == 0
            assert result.allocation is None

    def test_greedy_finds_some_sigma(self):
        rng = np.random.default_rng(19)
        inst = random_instance(rng, 40, tau=0.001, s_max=10,
                               p_low=0.05, p_high=0.15)
        result = run_baseline(inst, BaselineMethod.GREEDY)
        if result.allocation is not None:
            assert check_feasibility(result.allocation).feasible

    def _count_samples(self, monkeypatch):
        drawn = []
        original = baselines._dirichlet_allocations

        def counting(*args):
            for alloc in original(*args):
                drawn.append(1)
                yield alloc

        monkeypatch.setattr(baselines, "_dirichlet_allocations", counting)
        return drawn

    def test_samples_tried_counts_draws(self, monkeypatch):
        # The first sample at sigma = S is feasible: one draw, not the budget.
        inst = generate_instance(InstanceGenConfig(
            n_nodes=30, score_mean=36.8, score_std=6.7, max_difference=80.4,
            tau=1e-3, s_max=8, rng_seed=0))
        drawn = self._count_samples(monkeypatch)
        result = run_baseline(inst, BaselineMethod.RANDOM_RESTART, budget=200, seed=0)
        assert result.sigma_star == 8
        assert result.samples_tried == len(drawn) < 200

    def test_samples_tried_when_nothing_feasible(self, monkeypatch, small_instance):
        drawn = self._count_samples(monkeypatch)
        result = run_baseline(small_instance, BaselineMethod.RANDOM_RESTART, budget=5)
        assert result.sigma_star == 0
        assert result.samples_tried == len(drawn) == 5 * small_instance.s_max

    def test_sigma_one_table_evaluated_once(self, monkeypatch, small_instance):
        # At sigma = 1 every draw is the same table: one verdict, five draws.
        calls = []

        def counting(name):
            original = getattr(baselines, name)

            def wrapper(*args):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(baselines, name, wrapper)

        counting("check_feasibility")
        counting("allocation_pr51")
        drawn = self._count_samples(monkeypatch)
        result = run_baseline(small_instance, BaselineMethod.RANDOM_RESTART, budget=5)
        assert result.samples_tried == 5 * small_instance.s_max
        assert len(drawn) == result.samples_tried
        restarts = small_instance.s_max - 1  # sigma = S..2, each budget draws
        assert calls.count("check_feasibility") == 5 * restarts + 1
        calls.clear()
        _, pr51, feasible = baselines.random_restart_best(small_instance, 1, budget=5)
        assert calls == ["allocation_pr51", "check_feasibility"]
        assert pr51 == allocation_pr51(uniform_split(small_instance, 1))
        assert not feasible


def _law_allocation(kind, inst, sigma, rng):
    if kind == "uniform":
        return uniform_split(inst, sigma)
    if kind == "greedy":
        return greedy_round_robin(inst, sigma)
    if kind == "random_restart":
        alloc, _, _ = random_restart_best(inst, sigma, budget=5,
                                          seed=int(rng.integers(1 << 30)))
        return alloc
    alpha = np.full(sigma, float(rng.uniform(0.1, 5.0)))
    weights = rng.dirichlet(alpha, size=inst.n)
    return Allocation(inst, (weights * inst.eta[:, None]).T)


class TestMediantLaw:
    """No score-conserving, non-negative allocation beats the uniform split.

    With t_s >= 0, min_s t_s/||x_s|| <= sum t_s / sum ||x_s|| (mediant)
    <= a.eta / ||eta|| (triangle inequality), and the uniform split attains
    a.eta / ||eta|| in every shard.
    """

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           sigma=st.integers(1, 10),
           kind=st.sampled_from(["uniform", "greedy", "dirichlet", "random_restart"]),
           tau=st.floats(1e-9, 0.99))
    def test_no_allocation_beats_uniform(self, seed, n, sigma, kind, tau):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n, tau=tau, s_max=10, p_low=0.0, p_high=0.45)
        alloc = _law_allocation(kind, inst, sigma, rng)
        assert alloc.conservation_ok and alloc.sign_ok
        uniform = uniform_split(inst, sigma)
        assert allocation_pr51(alloc) >= allocation_pr51(uniform) * (1 - 1e-12)
        if check_feasibility(alloc).feasible:
            assert check_feasibility(uniform).feasible

