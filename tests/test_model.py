from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardalloc.errors import (GenerationFailure, InvariantViolation,
                               MalformedFileError)
from shardalloc.model import (Allocation, EngagementProfile, InstanceGenConfig,
                              ProblemInstance, UNIT_WEIGHTS, Weights,
                              compute_engagement, generate_instance,
                              instance_stats, load_allocation_csv,
                              load_instance, save_allocation_csv,
                              save_instance)
from conftest import equal_score_instance


class TestEngagement:
    def test_zero_contribution(self):
        assert compute_engagement(EngagementProfile(0, 0, 0, 0), UNIT_WEIGHTS) == 0.0

    def test_unit_weights(self):
        assert compute_engagement(EngagementProfile(0, 1, 2, 3), UNIT_WEIGHTS) == 6.0

    def test_mixed_weights(self):
        w = Weights(2.0, 1.0, 0.5)
        assert compute_engagement(EngagementProfile(0, 1, 2, 3), w) == 5.5

    @settings(max_examples=50, deadline=None)
    @given(d=st.floats(0, 1e6), c=st.floats(0, 1e6), t=st.floats(0, 1e6),
           k=st.floats(0, 100))
    def test_linearity(self, d, c, t, k):
        base = compute_engagement(EngagementProfile(0, d, c, t), UNIT_WEIGHTS)
        scaled = compute_engagement(EngagementProfile(0, k * d, k * c, k * t),
                                    UNIT_WEIGHTS)
        assert math.isclose(scaled, k * base, rel_tol=1e-9, abs_tol=1e-9)

    def test_rejects_negative_scores(self):
        with pytest.raises(InvariantViolation):
            EngagementProfile(0, -1.0, 0, 0)

    def test_rejects_all_zero_weights(self):
        with pytest.raises(InvariantViolation):
            Weights(0, 0, 0)


class TestInstanceInvariants:
    def test_p_adv_domain(self):
        with pytest.raises(InvariantViolation):
            equal_score_instance(3, p=0.5)

    def test_duplicate_ids(self):
        profiles = (EngagementProfile(1, 1, 0, 0), EngagementProfile(1, 2, 0, 0))
        with pytest.raises(InvariantViolation):
            ProblemInstance(profiles, UNIT_WEIGHTS, (0.1, 0.1), 0.5, 2, 100.0)

    def test_zero_engagement_rejected(self):
        profiles = (EngagementProfile(0, 0, 0, 0),)
        with pytest.raises(InvariantViolation):
            ProblemInstance(profiles, UNIT_WEIGHTS, (0.1,), 0.5, 2, 100.0)

    def test_tau_domain(self):
        with pytest.raises(InvariantViolation):
            equal_score_instance(3, tau=1.0)

    def test_eta_cached(self, small_instance):
        assert np.array_equal(small_instance.eta, np.full(4, 10.0))
        with pytest.raises(ValueError):
            small_instance.eta[0] = 5.0  # read-only


class TestGenerator:
    def test_instance2_like(self):
        cfg = InstanceGenConfig(n_nodes=50, score_mean=36.8, score_std=6.7,
                                max_difference=31.0, rng_seed=7)
        inst = generate_instance(cfg)
        assert inst.n == 50
        stats = instance_stats(inst)
        assert stats.max_difference <= 31.0
        assert np.all(inst.eta > 0)
        assert inst.meta is not None
        assert math.isclose(inst.meta.achieved_spread, stats.max_difference,
                            rel_tol=1e-12)

    def test_zero_variance_exact(self):
        cfg = InstanceGenConfig(n_nodes=1, score_mean=10.0, score_std=0.0,
                                max_difference=1.0, rng_seed=3)
        inst = generate_instance(cfg)
        assert inst.eta[0] == 10.0

    def test_determinism(self):
        cfg = InstanceGenConfig(n_nodes=20, score_mean=30.0, score_std=5.0,
                                max_difference=25.0, rng_seed=42)
        assert generate_instance(cfg) == generate_instance(cfg)

    def test_generation_failure(self):
        # Spread cap far below what the STD can deliver.
        cfg = InstanceGenConfig(n_nodes=50, score_mean=100.0, score_std=30.0,
                                max_difference=0.5, rng_seed=1)
        with pytest.raises(GenerationFailure):
            generate_instance(cfg)

    def test_p_adv_default_applied(self):
        cfg = InstanceGenConfig(n_nodes=5, score_mean=10.0, score_std=1.0,
                                max_difference=10.0, p_adv_default=0.2,
                                rng_seed=0)
        assert generate_instance(cfg).p_adv == (0.2,) * 5


class TestStats:
    def test_constant(self):
        inst = equal_score_instance(3)
        stats = instance_stats(inst)
        assert (stats.mean, stats.std, stats.max_difference,
                stats.total_score) == (10.0, 0.0, 0.0, 30.0)

    def test_two_values(self):
        profiles = (EngagementProfile(0, 10, 0, 0), EngagementProfile(1, 20, 0, 0))
        inst = ProblemInstance(profiles, UNIT_WEIGHTS, (0.1, 0.1), 0.5, 2, 100.0)
        stats = instance_stats(inst)
        assert stats.mean == 15.0
        assert stats.std == 5.0  # population STD
        assert stats.max_difference == 10.0
        assert stats.total_score == 30.0


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        cfg = InstanceGenConfig(n_nodes=12, score_mean=30.0, score_std=4.0,
                                max_difference=25.0, rng_seed=5)
        inst = generate_instance(cfg)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        assert load_instance(path) == inst

    def test_roundtrip_without_meta(self, tmp_path, small_instance):
        path = tmp_path / "inst.json"
        save_instance(small_instance, path)
        assert load_instance(path) == small_instance

    def test_p_adv_out_of_domain(self, tmp_path, small_instance):
        path = tmp_path / "inst.json"
        save_instance(small_instance, path)
        data = json.loads(path.read_text())
        data["mus"][0]["p_adv"] = 0.6
        path.write_text(json.dumps(data))
        with pytest.raises(InvariantViolation):
            load_instance(path)

    def test_missing_tau(self, tmp_path, small_instance):
        path = tmp_path / "inst.json"
        save_instance(small_instance, path)
        data = json.loads(path.read_text())
        del data["tau"]
        path.write_text(json.dumps(data))
        with pytest.raises(MalformedFileError):
            load_instance(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ nope")
        with pytest.raises(MalformedFileError):
            load_instance(path)


class TestAllocation:
    def test_shape_validation(self, small_instance):
        with pytest.raises(InvariantViolation):
            Allocation(small_instance, np.zeros((2, 3)))

    def test_conservation_and_sign(self, small_instance):
        table = np.tile(small_instance.eta / 2, (2, 1))
        alloc = Allocation(small_instance, table)
        assert alloc.conservation_ok and alloc.sign_ok
        bad = table.copy()
        bad[0, 0] -= 0.5
        alloc2 = Allocation(small_instance, bad)
        assert not alloc2.conservation_ok

    def test_sign_tolerance_is_solver_noise_only(self, small_instance):
        # Negatives down to -1e-12 count as noise; -1e-11 is a real negative.
        table = np.tile(small_instance.eta / 2, (2, 1))
        for entry, ok in ((-1e-13, True), (-1e-11, False)):
            noisy = table.copy()
            noisy[0, 0] = entry
            assert Allocation(small_instance, noisy).sign_ok is ok

    def test_csv_roundtrip(self, tmp_path, small_instance):
        table = np.array([[1.0, 2.0, 3.0, 4.0], [9.0, 8.0, 7.0, 6.0]])
        alloc = Allocation(small_instance, table)
        path = tmp_path / "alloc.csv"
        save_allocation_csv(alloc, path)
        loaded = load_allocation_csv(path, small_instance)
        assert np.array_equal(loaded.table, table)

    def test_csv_bad_header(self, tmp_path, small_instance):
        path = tmp_path / "alloc.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(MalformedFileError):
            load_allocation_csv(path, small_instance)

    @staticmethod
    def _csv(tmp_path, rows):
        path = tmp_path / "alloc.csv"
        path.write_text("shard,mu_id,score\n" + "".join(
            f"{s},{mu},{v}\n" for s, mu, v in rows))
        return path

    def test_csv_negative_shard(self, tmp_path, small_instance):
        # Numpy's negative indexing would put shard -1 into the last shard.
        rows = [(s, mu, 1.0) for s in (0, 1) for mu in range(4)]
        rows[-1] = (-1, 3, 1.0)
        with pytest.raises(MalformedFileError, match="negative shard"):
            load_allocation_csv(self._csv(tmp_path, rows), small_instance)

    def test_csv_duplicate_pair(self, tmp_path, small_instance):
        rows = [(s, mu, 1.0) for s in (0, 1) for mu in range(4)]
        rows.append((1, 2, 5.0))
        with pytest.raises(MalformedFileError, match="repeats"):
            load_allocation_csv(self._csv(tmp_path, rows), small_instance)

    def test_csv_duplicate_in_place_of_missing_pair(self, tmp_path, small_instance):
        rows = [(s, mu, 1.0) for s in (0, 1) for mu in range(4)]
        rows[5] = (0, 1, 1.0)
        with pytest.raises(MalformedFileError, match="repeats"):
            load_allocation_csv(self._csv(tmp_path, rows), small_instance)

    def test_csv_missing_pair(self, tmp_path, small_instance):
        rows = [(s, mu, 1.0) for s in (0, 1) for mu in range(4)]
        del rows[6]
        with pytest.raises(MalformedFileError, match="missing"):
            load_allocation_csv(self._csv(tmp_path, rows), small_instance)

    def test_csv_shard_out_of_range(self, tmp_path, small_instance):
        rows = [(0, mu, 1.0) for mu in range(4)] + [(10**30, 0, 1.0)]
        with pytest.raises(MalformedFileError, match="missing"):
            load_allocation_csv(self._csv(tmp_path, rows), small_instance)

    def test_csv_underscore_shard_rejected(self, tmp_path, small_instance):
        # int("1_0") is 10: an 11-shard file with shard 10 written "1_0" used
        # to load as sigma 11.
        alloc = Allocation(small_instance, np.ones((11, 4)))
        path = tmp_path / "alloc.csv"
        save_allocation_csv(alloc, path)
        assert load_allocation_csv(path, small_instance).sigma == 11
        path.write_text(path.read_text().replace("\n10,", "\n1_0,"))
        with pytest.raises(MalformedFileError, match="not as saved"):
            load_allocation_csv(path, small_instance)

    @pytest.mark.parametrize("first_line", [
        " +0 ,0,1.0",   # padded, signed shard
        "0,0,2_7.6",    # score with a digit separator (float reads 27.6)
        "00,0,1.0",     # zero-padded shard
        "-0,0,1.0",     # signed zero shard
        "0,+0,1.0",     # signed mu_id
        "0, 0,1.0",     # padded mu_id
        "0,0, 1.0",     # padded score
        "0,0,1.0 ",     # score with trailing space
        "0,0,١.0",  # non-ASCII digit in the score (float reads 1.0)
        "0,0,1.0,1",    # a fourth field
        "0,0",          # a missing field
    ])
    def test_csv_unsaved_forms_rejected(self, tmp_path, small_instance, first_line):
        rows = [(s, mu, 1.0) for s in (0, 1) for mu in range(4)]
        path = self._csv(tmp_path, rows)
        assert load_allocation_csv(path, small_instance).sigma == 2
        text = path.read_text().replace("\n0,0,1.0\n", f"\n{first_line}\n", 1)
        path.write_text(text)
        with pytest.raises(MalformedFileError):
            load_allocation_csv(path, small_instance)

    def test_csv_field_over_the_csv_module_limit(self, tmp_path, small_instance):
        path = self._csv(tmp_path, [(0, mu, 1.0) for mu in range(4)])
        path.write_text(path.read_text() + "0,0," + "1" * 200_000 + "\n")
        with pytest.raises(MalformedFileError, match="malformed"):
            load_allocation_csv(path, small_instance)
