from __future__ import annotations

import math
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardalloc.errors import DegenerateShardError, InvariantViolation
from shardalloc.bounds import (ShardColumn, adversary_expected_score,
                               allocation_pr51, attack_bound, deviation_t,
                               is_shard_safe, monte_carlo_attack_probability,
                               pr51_of_columns, pr51_summary, safety_holds,
                               shard_stats)
from shardalloc.baselines import uniform_split
from shardalloc.model import Allocation


def col(scores, p):
    scores = np.asarray(scores, dtype=float)
    p = np.full_like(scores, p) if np.isscalar(p) else np.asarray(p, dtype=float)
    return ShardColumn(scores=scores, p_adv=p)


def random_column(rng):
    n = int(rng.integers(2, 40))
    return col(rng.uniform(0.5, 40.0, n), rng.uniform(0.0, 0.49, n))


class TestExpectedScore:
    def test_no_adversary(self):
        assert adversary_expected_score(col([10, 10], 0.0)) == 0.0

    def test_uniform_p(self):
        assert adversary_expected_score(col([10] * 4, 0.1)) == pytest.approx(4.0)

    def test_mixed_p(self):
        assert adversary_expected_score(col([5, 15], [0.2, 0.4])) == pytest.approx(7.0)


class TestDeviation:
    def test_boundary_p_half(self):
        assert deviation_t(col([10, 10], 0.5)) == 0.0

    def test_four_users(self):
        assert deviation_t(col([10] * 4, 0.1)) == pytest.approx(16.0)

    def test_fifty_users(self):
        assert deviation_t(col([10] * 50, 0.1)) == pytest.approx(200.0)


class TestAttackBound:
    def test_four_users(self):
        # exp(-2*16^2/400) = exp(-1.28)
        assert attack_bound(col([10] * 4, 0.1)) == pytest.approx(math.exp(-1.28))

    def test_fifty_users(self):
        # exp(-2*200^2/5000) = exp(-16)
        assert attack_bound(col([10] * 50, 0.1)) == pytest.approx(math.exp(-16.0))

    def test_p_half_gives_one(self):
        assert attack_bound(col([3, 7], 0.5)) == 1.0

    def test_degenerate(self):
        with pytest.raises(DegenerateShardError):
            attack_bound(col([0.0, 0.0], 0.1))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), c=st.floats(1e-3, 1e3))
    def test_scale_invariance(self, seed, c):
        column = random_column(np.random.default_rng(seed))
        scaled = ShardColumn(scores=column.scores * c, p_adv=column.p_adv)
        assert attack_bound(scaled) == pytest.approx(attack_bound(column),
                                                     rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_monotone_in_p(self, seed):
        rng = np.random.default_rng(seed)
        column = random_column(rng)
        idx = int(rng.integers(column.scores.size))
        lowered = column.p_adv.copy()
        lowered[idx] *= rng.uniform(0.0, 0.99)
        eased = ShardColumn(scores=column.scores, p_adv=lowered)
        assert attack_bound(eased) <= attack_bound(column) + 1e-15


class TestSafety:
    def test_unsafe_four_users(self):
        # t^2 = 256 < -0.5*ln(0.001)*400 = 1381.55
        rep = is_shard_safe(col([10] * 4, 0.1), 0.001)
        assert not rep.safe
        assert rep.t == pytest.approx(16.0)
        assert rep.sum_sq == pytest.approx(400.0)

    def test_safe_fifty_users(self):
        # 200^2 = 40000 >= -0.5*ln(0.001)*5000 = 17269.4
        assert is_shard_safe(col([10] * 50, 0.1), 0.001).safe

    def test_tau_near_one(self):
        assert is_shard_safe(col([10] * 4, 0.1), 1.0 - 1e-9).safe

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), tau=st.floats(1e-9, 0.999))
    def test_equivalence_with_bound(self, seed, tau):
        column = random_column(np.random.default_rng(seed))
        assert is_shard_safe(column, tau).safe == (attack_bound(column) <= tau)


def oracle_stats(table, p):
    """Per-row reference: a fresh copy of each row, ``ddot`` and ``math.exp``."""
    a_vec = 0.5 - p
    rows = []
    for s in range(table.shape[0]):
        row = np.array(table[s], copy=True)
        if not (row > 0).any():
            rows.append((0.0, 0.0, 1.0, False))
            continue
        t = float(np.dot(a_vec, row))
        q = float(np.dot(row, row))
        rows.append((t, q, min(1.0, math.exp(-2.0 * t * t / q)), True))
    t, q, bound, active = zip(*rows)
    return np.array(t), np.array(q), np.array(bound), np.array(active)


class TestShardStats:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sigma=st.integers(8, 24),
           half_n=st.integers(0, 60), zero_rows=st.integers(0, 3))
    def test_bit_identical_to_per_row_oracle(self, seed, sigma, half_n, zero_rows):
        # Odd N puts the rows of a C-ordered table at every 8-byte offset
        # modulo 64 once sigma >= 8.
        n = 2 * half_n + 1
        rng = np.random.default_rng(seed)
        table = rng.uniform(0.0, 60.0, (sigma, n))
        table[rng.random((sigma, n)) < 0.2] = 0.0
        table[rng.choice(sigma, zero_rows, replace=False)] = 0.0
        p = rng.uniform(0.0, 0.5, n)
        offsets = {(table.ctypes.data + s * n * 8) % 64 for s in range(sigma)}
        assert len(offsets) == 8
        got = shard_stats(table, p)
        want = oracle_stats(table, p)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    def test_inactive_row_is_vacuous(self):
        table = np.array([[1.0, 2.0], [0.0, 0.0], [-1.0, 0.0]])
        t, q, bound, active = shard_stats(table, np.array([0.1, 0.2]))
        assert active.tolist() == [True, False, False]
        assert (t[1:] == 0).all() and (q[1:] == 0).all() and (bound[1:] == 1).all()

    def test_negative_entries_clamped(self):
        p = np.array([0.1, 0.2, 0.3])
        got = shard_stats(np.array([[4.0, -3.0, 2.0]]), p)
        want = shard_stats(np.array([[4.0, 0.0, 2.0]]), p)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

    def test_underflowing_row_is_degenerate(self):
        with pytest.raises(DegenerateShardError):
            shard_stats(np.array([[1e-200, 1e-200]]), np.array([0.1, 0.1]))


class TestSafetyHolds:
    def test_float(self):
        # t^2 = 256 < -0.5*ln(0.001)*400 = 1381.55
        assert safety_holds(16.0, 400.0, 0.001) is False
        assert safety_holds(200.0, 5000.0, 0.001) is True

    def test_array(self):
        got = safety_holds(np.array([16.0, 200.0, 0.0]),
                           np.array([400.0, 5000.0, 0.0]), 0.001)
        assert got.tolist() == [False, True, True]

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.5, 2.0, math.nan])
    def test_tau_validated(self, tau):
        with pytest.raises(InvariantViolation):
            safety_holds(1.0, 1.0, tau)


class TestPr51:
    def test_single_shard(self, small_instance):
        alloc = uniform_split(small_instance, 1)
        assert allocation_pr51(alloc) == pytest.approx(math.exp(-1.28))

    def test_sigma_invariance(self, safe_instance):
        one = allocation_pr51(uniform_split(safe_instance, 1))
        for sigma in (2, 5, 10):
            assert allocation_pr51(uniform_split(safe_instance, sigma)) == \
                pytest.approx(one, rel=1e-12)

    def test_max_dominates(self):
        safe = col([10] * 50, 0.1)
        stuck = col([10] * 4, 0.5)  # zero margin, bound clamps to 1
        assert pr51_of_columns([safe, stuck]) == 1.0

    def test_inactive_shards_skipped(self, safe_instance):
        table = np.vstack([safe_instance.eta, np.zeros(safe_instance.n)])
        alloc = Allocation(safe_instance, table)
        assert allocation_pr51(alloc) == pytest.approx(math.exp(-16.0))

    def test_summary_orders(self, safe_instance):
        summary = pr51_summary(uniform_split(safe_instance, 4))
        assert summary.best <= summary.mean <= summary.worst


class TestMonteCarlo:
    def test_no_adversary(self):
        mc = monte_carlo_attack_probability(col([5, 5], 0.0), 1000, seed=1)
        assert mc.frequency == 0.0

    def test_exact_binomial_oracle(self):
        # Equal scores: attack iff >= 2 of 4 users adversarial.
        exact = sum(comb(4, k) * 0.1 ** k * 0.9 ** (4 - k) for k in range(2, 5))
        assert exact == pytest.approx(0.0523)
        mc = monte_carlo_attack_probability(col([10] * 4, 0.1), 100_000, seed=7)
        assert abs(mc.frequency - exact) <= 3.0 * mc.std_error

    def test_determinism(self):
        column = col([3, 9, 1, 4], [0.2, 0.1, 0.3, 0.4])
        a = monte_carlo_attack_probability(column, 50_000, seed=11)
        b = monte_carlo_attack_probability(column, 50_000, seed=11)
        assert a == b

    def test_p_above_half_out_of_domain(self):
        from shardalloc.errors import InvariantViolation
        with pytest.raises(InvariantViolation):
            col([10, 10], 0.99)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_hoeffding_validity(self, seed):
        rng = np.random.default_rng(seed)
        column = random_column(rng)
        mc = monte_carlo_attack_probability(column, 20_000, seed=seed + 1)
        assert mc.frequency <= attack_bound(column) + 3.0 * mc.std_error
