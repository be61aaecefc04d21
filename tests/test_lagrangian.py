from __future__ import annotations

import math

import numpy as np
import pytest

from shardalloc.errors import InvariantViolation
from shardalloc.baselines import uniform_split
from shardalloc.bounds import ShardColumn, is_shard_safe
from shardalloc.lagrangian import (LinearSystem, StationarityVariant,
                                   assemble_system, check_feasibility,
                                   margin_objective, solve_linear_system,
                                   solve_p3)
from shardalloc.model import Allocation, EngagementProfile, ProblemInstance, UNIT_WEIGHTS
from conftest import equal_score_instance, random_instance

REDERIVED = StationarityVariant.REDERIVED
LITERAL = StationarityVariant.LITERAL


class TestAssembly:
    def test_dimension(self):
        inst = equal_score_instance(4, s_max=5)
        assert assemble_system(inst, 3).dimension == 16

    def test_conservation_rows(self):
        inst = equal_score_instance(3, s_max=4)
        sys_ = assemble_system(inst, 2)
        n = 3
        cons = sys_.a[2 * n:]
        # Row for user n: coefficient 1 on its slot in every shard block.
        assert np.array_equal(cons[:, :n], np.eye(n))
        assert np.array_equal(cons[:, n:2 * n], np.eye(n))
        assert np.array_equal(cons[:, 2 * n:], np.zeros((n, n)))
        assert np.array_equal(sys_.b[2 * n:], inst.eta)
        assert np.array_equal(sys_.b[:2 * n], np.zeros(2 * n))

    def test_single_user_rederived_row(self):
        p, tau = 0.2, 0.5
        profiles = (EngagementProfile(0, 10.0, 0, 0),)
        inst = ProblemInstance(profiles, UNIT_WEIGHTS, (p,), tau, 2, 100.0)
        sys_ = assemble_system(inst, 1, tau, REDERIVED)
        expected = 2 * (0.5 - p) ** 2 + math.log(tau)
        assert sys_.a[0] == pytest.approx([expected, -1.0])
        assert sys_.b[0] == 0.0

    def test_literal_row_structure(self):
        inst = equal_score_instance(2, p=0.1, tau=0.01, s_max=3)
        sys_ = assemble_system(inst, 1, variant=LITERAL)
        ln_tau = math.log(0.01)
        # Row (k=0, s=0): ln(tau) on every score + 2*p_k*a_n, +1 on lambda_k.
        assert sys_.a[0, 0] == pytest.approx(ln_tau + 2 * 0.1 * 0.4)
        assert sys_.a[0, 1] == pytest.approx(ln_tau + 2 * 0.1 * 0.4)
        assert sys_.a[0, 2] == 1.0

    def test_sigma_out_of_range(self):
        inst = equal_score_instance(3, s_max=2)
        with pytest.raises(InvariantViolation):
            assemble_system(inst, 3)


class TestLinearSolve:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        sys_ = LinearSystem(a=np.eye(3), b=b, sigma=1, n_mus=1)
        res = solve_linear_system(sys_)
        assert res.solution == pytest.approx(b)
        assert not res.rank_deficient

    def test_diagonal(self):
        sys_ = LinearSystem(a=np.diag([2.0, 4.0]), b=np.array([2.0, 8.0]),
                            sigma=1, n_mus=1)
        assert solve_linear_system(sys_).solution == pytest.approx([1.0, 2.0])

    def test_singular_consistent_min_norm(self):
        # x + y = 2 twice: min-norm solution is (1, 1).
        sys_ = LinearSystem(a=np.array([[1.0, 1.0], [1.0, 1.0]]),
                            b=np.array([2.0, 2.0]), sigma=1, n_mus=1)
        res = solve_linear_system(sys_)
        assert res.rank_deficient
        assert res.solution == pytest.approx([1.0, 1.0])

    def test_residual_contract(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            inst = random_instance(rng, int(rng.integers(4, 25)))
            sigma = int(rng.integers(1, inst.s_max + 1))
            sys_ = assemble_system(inst, sigma)
            res = solve_linear_system(sys_)
            tol = 1e-8 * (1 + np.abs(sys_.b).max())
            assert res.residual_norm <= tol


class TestSolveP3:
    def test_sigma_one_returns_eta(self):
        inst = equal_score_instance(6, s_max=4)
        res = solve_p3(inst, 1)
        assert res.allocation.table[0] == pytest.approx(inst.eta)

    def test_rederived_equals_uniform_split(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            inst = random_instance(rng, int(rng.integers(3, 30)))
            sigma = int(rng.integers(2, inst.s_max + 1))
            got = solve_p3(inst, sigma).allocation.table
            want = uniform_split(inst, sigma).table
            assert np.max(np.abs(got - want) / want) <= 1e-8

    def test_uniform_example(self):
        inst = equal_score_instance(50, s_max=10)
        res = solve_p3(inst, 2)
        assert res.allocation.table == pytest.approx(np.full((2, 50), 5.0))

    def test_conservation_invariant(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            inst = random_instance(rng, int(rng.integers(3, 20)))
            sigma = int(rng.integers(1, inst.s_max + 1))
            alloc = solve_p3(inst, sigma).allocation
            assert alloc.max_conservation_error() <= 1e-9

    def test_literal_rank_deficient_conserves(self):
        rng = np.random.default_rng(9)
        inst = random_instance(rng, 10)  # non-constant p
        res = solve_p3(inst, 3, variant=LITERAL)
        assert res.diagnostics.rank_deficient
        assert res.allocation.max_conservation_error() <= 1e-9
        # Stationarity pins per-shard totals to the average.
        totals = res.allocation.shard_totals()
        assert totals == pytest.approx(np.full(3, inst.eta.sum() / 3))

    def test_stationarity_by_finite_differences(self):
        rng = np.random.default_rng(17)
        inst = random_instance(rng, 12)
        sigma = 4
        table = solve_p3(inst, sigma).allocation.table
        h = 1e-4 * float(np.linalg.norm(inst.eta))
        for _ in range(10):
            d = rng.normal(size=table.shape)
            d -= d.mean(axis=0, keepdims=True)  # conservation-preserving
            d /= np.linalg.norm(d)
            up = margin_objective(inst, table + h * d)
            down = margin_objective(inst, table - h * d)
            assert abs((up - down) / (2 * h)) <= 1e-5


class TestFeasibility:
    def test_safe_uniform_ten_shards(self):
        inst = equal_score_instance(50, s_max=10)
        report = check_feasibility(uniform_split(inst, 10))
        assert report.feasible
        assert all(rep.safe for rep in report.per_shard)

    def test_unsafe_small_instance(self):
        inst = equal_score_instance(4)
        for sigma in (1, 2, 3):
            assert not check_feasibility(uniform_split(inst, sigma)).feasible

    def test_negative_entry_rejected(self, safe_instance):
        table = np.tile(safe_instance.eta / 2, (2, 1)).copy()
        table[0, 0] = -0.5
        table[1, 0] = safe_instance.eta[0] + 0.5  # keep conservation intact
        report = check_feasibility(Allocation(safe_instance, table))
        assert not report.sign_ok and not report.feasible

    def test_conservation_required(self, safe_instance):
        table = np.tile(safe_instance.eta / 2, (2, 1)).copy()
        table[0, 0] *= 1.5
        report = check_feasibility(Allocation(safe_instance, table))
        assert not report.conservation_ok and not report.feasible

    def test_conservation_error_of_one_in_a_million_rejected(self, safe_instance):
        # Scaling every entry keeps each shard's safety verdict; only
        # conservation breaks, by a relative 1e-6.
        table = uniform_split(safe_instance, 10).table * (1 + 1e-6)
        report = check_feasibility(Allocation(safe_instance, table))
        assert report.sign_ok and all(rep.safe for rep in report.per_shard)
        assert report.max_conservation_error == pytest.approx(1e-6)
        assert not report.conservation_ok and not report.feasible

    def test_agrees_with_shard_reports(self):
        rng = np.random.default_rng(31)
        inst = random_instance(rng, 15, tau=0.05)
        weights = rng.dirichlet(np.ones(4), size=15)
        alloc = Allocation(inst, (weights * inst.eta[:, None]).T)
        report = check_feasibility(alloc)
        for s, rep in enumerate(report.per_shard):
            expected = is_shard_safe(ShardColumn.from_allocation(alloc, s),
                                     inst.tau)
            assert rep.safe == expected.safe
            assert rep.bound == pytest.approx(expected.bound)

    def test_inactive_shard_vacuous(self, safe_instance):
        table = np.vstack([safe_instance.eta, np.zeros(safe_instance.n)])
        report = check_feasibility(Allocation(safe_instance, table))
        assert report.per_shard[1].safe and report.per_shard[1].sum_sq == 0.0
        assert report.feasible  # lone active shard is safe
