from __future__ import annotations

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardalloc import simulator
from shardalloc.errors import EmptyShardError
from shardalloc.baselines import uniform_split
from shardalloc.bounds import ShardColumn, attack_bound
from shardalloc.simulator import (CORRUPTED_P_ADV, POISSON_LAM_MAX, EpochConfig,
                                  NetworkState, apply_corruptions, elect_leader,
                                  epoch_config_from_dict, epoch_config_to_dict,
                                  initial_seeds, leader_election_gof,
                                  next_seed, remap_seeds, run_simulation,
                                  write_epoch_csv)
from conftest import equal_score_instance

SEED = b"\x07" * 32


class TestElectLeader:
    def test_single_user(self):
        for slot in range(20):
            assert elect_leader([(42, 5.0)], SEED, slot) == 42

    def test_weighted_frequencies(self):
        counts = {1: 0, 2: 0}
        slots = 100_000
        for slot in range(slots):
            counts[elect_leader([(1, 3.0), (2, 1.0)], SEED, slot)] += 1
        # 3 sigma of a Binomial(slots, 0.75)
        margin = 3 * math.sqrt(0.75 * 0.25 / slots)
        assert abs(counts[1] / slots - 0.75) <= margin

    def test_symmetric_frequencies(self):
        counts = {i: 0 for i in range(4)}
        slots = 40_000
        for slot in range(slots):
            counts[elect_leader([(i, 1.0) for i in range(4)], SEED, slot)] += 1
        margin = 3 * math.sqrt(0.25 * 0.75 / slots)
        for i in range(4):
            assert abs(counts[i] / slots - 0.25) <= margin

    def test_zero_score_never_selected(self):
        for slot in range(200):
            assert elect_leader([(1, 0.0), (2, 4.0)], SEED, slot) == 2

    def test_empty_shard(self):
        with pytest.raises(EmptyShardError):
            elect_leader([(1, 0.0)], SEED, 0)

    def test_deterministic(self):
        pairs = [(1, 2.0), (2, 5.0), (3, 1.0)]
        assert [elect_leader(pairs, SEED, s) for s in range(50)] == \
            [elect_leader(pairs, SEED, s) for s in range(50)]


class TestSeeds:
    def test_next_seed_deterministic(self):
        assert next_seed(SEED, 3, 1) == next_seed(SEED, 3, 1)

    def test_next_seed_distinct_by_shard(self):
        assert next_seed(SEED, 3, 1) != next_seed(SEED, 3, 2)

    def test_chain_distinct(self):
        seeds = [SEED]
        for epoch in range(100):
            seeds.append(next_seed(seeds[-1], epoch, 0))
        assert len(set(seeds)) == 101

    def test_remap_grow_by_one(self):
        olds = initial_seeds(7, 3)
        news = remap_seeds(olds, 4, SEED)
        assert len(news) == 4
        survivors = [s for s in olds if s in news]
        assert len(survivors) == 2  # one parent replaced by two children

    def test_remap_identity(self):
        olds = initial_seeds(1, 5)
        assert remap_seeds(olds, 5, SEED) == olds

    def test_remap_shrink(self):
        olds = initial_seeds(2, 4)
        news = remap_seeds(olds, 2, SEED)
        assert len(news) == 2
        assert all(s in olds for s in news)
        assert news == remap_seeds(olds, 2, SEED)

    @settings(max_examples=30, deadline=None)
    @given(start=st.integers(1, 8), target=st.integers(1, 12))
    def test_remap_cardinality(self, start, target):
        assert len(remap_seeds(initial_seeds(0, start), target, SEED)) == target


class TestEpochConfig:
    def test_dict_roundtrip(self):
        cfg = EpochConfig(epochs=12, slots_per_epoch=3, corruption_rate=0.25,
                          corruption_delay=2, reconfigure_every=4, rng_seed=9,
                          adversary_mode="fixed")
        assert epoch_config_from_dict(epoch_config_to_dict(cfg)) == cfg

    def test_invalid_mode(self):
        from shardalloc.errors import InvariantViolation
        with pytest.raises(InvariantViolation):
            EpochConfig(epochs=1, slots_per_epoch=1, adversary_mode="maybe")

    @pytest.mark.parametrize("rate", [math.nan, math.inf, 1e300, -1.0,
                                      math.nextafter(POISSON_LAM_MAX, math.inf)])
    def test_rate_outside_the_poisson_range(self, rate):
        from shardalloc.errors import InvariantViolation
        with pytest.raises(InvariantViolation, match="corruption_rate"):
            EpochConfig(epochs=1, slots_per_epoch=1, corruption_rate=rate)

    def test_poisson_limit_is_numpys(self):
        rng = np.random.default_rng(0)
        EpochConfig(epochs=1, slots_per_epoch=1, corruption_rate=POISSON_LAM_MAX)
        rng.poisson(POISSON_LAM_MAX)
        with pytest.raises(ValueError, match="too large"):
            rng.poisson(math.nextafter(POISSON_LAM_MAX, math.inf))


class TestCorruptions:
    def _state(self, inst):
        return NetworkState(instance=inst, allocation=uniform_split(inst, 1),
                            seeds=initial_seeds(0, 1))

    def test_rate_zero_never_changes(self):
        inst = equal_score_instance(10)
        state = self._state(inst)
        rng = np.random.default_rng(0)
        cfg = EpochConfig(epochs=1, slots_per_epoch=1, corruption_rate=0.0)
        for epoch in range(50):
            apply_corruptions(state, epoch, rng=rng, config=cfg)
        assert not state.corrupted and not state.pending_corruptions

    def test_zero_delay_immediate(self):
        inst = equal_score_instance(10)
        state = self._state(inst)
        cfg = EpochConfig(epochs=1, slots_per_epoch=1, corruption_rate=50.0,
                          corruption_delay=0)
        apply_corruptions(state, 0, rng=np.random.default_rng(1), config=cfg)
        assert state.corrupted and not state.pending_corruptions

    def test_delay_three(self):
        inst = equal_score_instance(10)
        state = self._state(inst)
        state.pending_corruptions.append((4, 8))  # scheduled at epoch 5, delay 3
        cfg = EpochConfig(epochs=1, slots_per_epoch=1, corruption_rate=0.0)
        rng = np.random.default_rng(2)
        for epoch in (5, 6, 7):
            apply_corruptions(state, epoch, rng=rng, config=cfg)
            assert 4 not in state.corrupted
        apply_corruptions(state, 8, rng=rng, config=cfg)
        assert 4 in state.corrupted


class TestRunSimulation:
    def test_no_corruption_no_attacks(self, safe_instance):
        cfg = EpochConfig(epochs=100, slots_per_epoch=1, corruption_rate=0.0,
                          reconfigure_every=20, rng_seed=5)
        report = run_simulation(safe_instance, cfg)
        assert report.epochs_run == 100
        assert report.attacked_pairs == 0
        assert report.mean_adversary_fraction == 0.0
        assert report.sigma_history[0] == 10
        assert report.reconfigurations == 5

    def test_determinism(self, safe_instance):
        cfg = EpochConfig(epochs=30, slots_per_epoch=2, corruption_rate=0.5,
                          corruption_delay=2, reconfigure_every=5, rng_seed=9)
        assert run_simulation(safe_instance, cfg) == \
            run_simulation(safe_instance, cfg)

    def test_abort_on_unsafe(self, small_instance):
        cfg = EpochConfig(epochs=5, slots_per_epoch=1, rng_seed=1)
        report = run_simulation(small_instance, cfg)
        assert report.aborted and report.abort_epoch == 0
        assert report.epochs_run == 0
        assert "unsafe" in report.abort_note

    def test_corruption_drives_abort(self):
        # Tight threshold: corrupting users at p=0.49 eventually sinks sigma=1.
        inst = equal_score_instance(12, p=0.05, tau=0.01, s_max=4)
        cfg = EpochConfig(epochs=400, slots_per_epoch=1, corruption_rate=0.5,
                          corruption_delay=1, reconfigure_every=1, rng_seed=3)
        report = run_simulation(inst, cfg)
        assert report.aborted
        assert report.final_corrupted  # dump carries the corrupted set

    def test_leader_law_through_simulation(self):
        inst = equal_score_instance(2, p=0.01, tau=0.9, s_max=1)
        # Unequal scores via direct profiles: 3 vs 1.
        from shardalloc.model import EngagementProfile, ProblemInstance, UNIT_WEIGHTS
        profiles = (EngagementProfile(0, 3.0, 0, 0), EngagementProfile(1, 1.0, 0, 0))
        inst = ProblemInstance(profiles, UNIT_WEIGHTS, (0.01, 0.01), 0.9, 1, 100.0)
        cfg = EpochConfig(epochs=1, slots_per_epoch=20_000, rng_seed=2)
        report = run_simulation(inst, cfg)
        counts = dict(report.leader_counts)
        _, pvalue = leader_election_gof([counts[0], counts[1]], [3.0, 1.0])
        assert pvalue > 0.001

    def test_per_epoch_adversaries_within_bound(self):
        # Loose threshold keeps the optimizer permissive; attacks do occur but
        # never more often than the analytic bound allows.
        inst = equal_score_instance(6, p=0.3, tau=0.9, s_max=2)
        cfg = EpochConfig(epochs=4000, slots_per_epoch=1, rng_seed=11,
                          reconfigure_every=10_000, adversary_mode="per_epoch")
        report = run_simulation(inst, cfg)
        col = ShardColumn(scores=inst.eta / 2, p_adv=inst.p_adv_array)
        bound = attack_bound(col)
        freq = report.attacked_fraction
        se = math.sqrt(max(freq * (1 - freq), 1e-12) / report.total_pairs)
        assert freq > 0  # informative configuration
        assert freq <= bound + 3 * se

    def test_fixed_adversaries_stable(self):
        inst = equal_score_instance(8, p=0.2, tau=0.9, s_max=2)
        cfg = EpochConfig(epochs=50, slots_per_epoch=1, rng_seed=21,
                          adversary_mode="fixed", reconfigure_every=100)
        report = run_simulation(inst, cfg)
        fractions = {ep.adversary_fractions for ep in report.epoch_reports}
        assert len(fractions) == 1  # same adversary set every epoch

    def test_corrupted_view_uses_cap(self):
        inst = equal_score_instance(30, p=0.05, tau=0.5, s_max=2)
        cfg = EpochConfig(epochs=3, slots_per_epoch=1, corruption_rate=3.0,
                          corruption_delay=0, reconfigure_every=1, rng_seed=13)
        report = run_simulation(inst, cfg)
        assert report.final_corrupted
        assert CORRUPTED_P_ADV == 0.49

    def test_delay_trace_fraction_steps(self):
        # Equal scores + uniform allocation: each corrupted user adds exactly
        # 1/N to every shard's adversary fraction, delay epochs after capture.
        inst = equal_score_instance(20, p=0.05, tau=0.9, s_max=2)
        cfg = EpochConfig(epochs=6, slots_per_epoch=1, corruption_rate=4.0,
                          corruption_delay=3, reconfigure_every=100, rng_seed=5)
        report = run_simulation(inst, cfg)
        fracs = [ep.adversary_fractions for ep in report.epoch_reports]
        for epoch in range(3):
            assert fracs[epoch] == (0.0, 0.0)
        assert fracs[3][0] == pytest.approx(4 / 20)
        assert fracs[4][0] == pytest.approx(12 / 20)
        assert fracs[5][0] == pytest.approx(16 / 20)

    def test_leader_counts_regression(self):
        # Frozen reference run; any change to the seeded election pipeline
        # shows up here first.
        inst = equal_score_instance(5, tau=0.9, s_max=2)
        cfg = EpochConfig(epochs=4, slots_per_epoch=3, rng_seed=77,
                          reconfigure_every=10)
        report = run_simulation(inst, cfg)
        assert report.sigma_history == (2, 2, 2, 2)
        assert report.leader_counts == ((0, 8), (1, 4), (2, 3), (3, 5), (4, 4))


def _count_solves(monkeypatch):
    views = []
    original = simulator.optimize_sharding

    def counting(view, *args):
        views.append(view)
        return original(view, *args)

    monkeypatch.setattr(simulator, "optimize_sharding", counting)
    return views


class TestSolveMemo:
    CFG = EpochConfig(epochs=40, slots_per_epoch=2, corruption_rate=0.3,
                      corruption_delay=1, reconfigure_every=2, rng_seed=4)

    def _scheduled_sets(self, inst, cfg):
        # Replays the corruption stream; with adversary mode "none" it is the
        # only consumer of the run's generator.
        state = NetworkState(instance=inst, allocation=uniform_split(inst, 1),
                             seeds=initial_seeds(0, 1))
        rng = np.random.default_rng(cfg.rng_seed)
        sets = set()
        for epoch in range(cfg.epochs):
            apply_corruptions(state, epoch, rng=rng, config=cfg)
            if epoch % cfg.reconfigure_every == 0:
                sets.add(frozenset(state.corrupted))
        return sets

    def test_each_corrupted_set_solved_once(self, monkeypatch, tmp_path):
        inst = equal_score_instance(30, p=0.05, tau=0.5, s_max=4)
        views = _count_solves(monkeypatch)
        report = run_simulation(inst, self.CFG)
        assert not report.aborted
        scheduled = math.ceil(self.CFG.epochs / self.CFG.reconfigure_every)
        sets = self._scheduled_sets(inst, self.CFG)
        assert 1 < len(sets) < scheduled
        assert len(views) == len(sets)
        assert report.reconfigurations == scheduled
        write_epoch_csv(report, tmp_path / "epochs.csv")
        with open(tmp_path / "epochs.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            expected = int(row["epoch"]) % self.CFG.reconfigure_every == 0
            assert row["reconfigured"] == str(int(expected))

    def test_no_memo_across_runs(self, monkeypatch):
        inst = equal_score_instance(30, p=0.05, tau=0.5, s_max=4)
        views = _count_solves(monkeypatch)
        first = run_simulation(inst, self.CFG)
        solved_once = len(views)
        assert run_simulation(inst, self.CFG) == first
        assert len(views) == 2 * solved_once


class TestSeedRemap:
    def test_sigma_following_the_corrupted_set(self, monkeypatch):
        # sigma* moves only at the law's knife edge; force it to follow the
        # corrupted set so the seed remap runs, growing and shrinking.
        original = simulator.optimize_sharding

        def moving_sigma(view, *args):
            corrupted = int(np.sum(view.p_adv_array == CORRUPTED_P_ADV))
            sigma = 1 + corrupted % 3
            return replace(original(view, *args), sigma_star=sigma,
                           allocation=uniform_split(view, sigma))

        remaps = []
        original_remap = simulator.remap_seeds

        def recording_remap(old, new_sigma, beacon):
            seeds = original_remap(old, new_sigma, beacon)
            remaps.append((len(old), len(seeds)))
            return seeds

        monkeypatch.setattr(simulator, "optimize_sharding", moving_sigma)
        monkeypatch.setattr(simulator, "remap_seeds", recording_remap)
        inst = equal_score_instance(20, p=0.05, tau=0.5, s_max=3)
        cfg = EpochConfig(epochs=30, slots_per_epoch=3, corruption_rate=0.4,
                          corruption_delay=1, reconfigure_every=2, rng_seed=6)
        report = run_simulation(inst, cfg)
        assert not report.aborted
        assert any(new > old for old, new in remaps)
        assert any(new < old for old, new in remaps)
        for epoch, sigma in enumerate(report.sigma_history):
            assert len(report.epoch_reports[epoch].leaders) == sigma
        assert run_simulation(inst, cfg) == report


def test_adversary_half_share_is_an_attack():
    # Two equal scores in one shard: one adversary holds exactly half.
    from shardalloc.model import EngagementProfile, ProblemInstance, UNIT_WEIGHTS
    profiles = (EngagementProfile(0, 5.0, 0, 0), EngagementProfile(1, 5.0, 0, 0))
    inst = ProblemInstance(profiles, UNIT_WEIGHTS, (0.3, 0.3), 0.9, 1, 100.0)
    cfg = EpochConfig(epochs=40, slots_per_epoch=1, rng_seed=8,
                      adversary_mode="per_epoch", reconfigure_every=100)
    report = run_simulation(inst, cfg)
    halves = [ep for ep in report.epoch_reports if ep.adversary_fractions == (0.5,)]
    assert halves
    assert all(ep.attacked_shards == frozenset({0}) for ep in halves)
    attacked = sum(ep.adversary_fractions[0] >= 0.5 for ep in report.epoch_reports)
    assert report.attacked_pairs == attacked
