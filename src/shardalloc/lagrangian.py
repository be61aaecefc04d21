"""Stationarity-system assembly and solving for the fixed-shard-count subproblem.

For a fixed shard count sigma, the allocation that maximizes the summed safety
margins subject to full score conservation is a stationary point of

    f(table) = sum_s [ (sum_n a_n * table[s, n])^2 + 0.5*ln(tau) * sum_n table[s, n]^2 ],
    a_n = 0.5 - p_adv[n],

with one multiplier per user for the conservation constraints. Setting the
gradient to zero yields a square linear system of (sigma+1)*N equations in the
(sigma+1)*N unknowns (all table entries, then the multipliers).

Two row forms are provided. REDERIVED is the exact gradient:

    lambda_k = 2*a_k * sum_n a_n*table[s, n] + ln(tau) * table[s, k].

LITERAL is an alternative row form in which the ln(tau) term is weighted by
the whole shard total and the leading factor is 2*p_k:

    lambda_k + ln(tau) * sum_n table[s, n] + 2*p_k * sum_n a_n*table[s, n] = 0.

LITERAL generally pins only aggregate shard sums, leaving the system
rank-deficient; its solutions are the deterministic minimum-norm ones.
REDERIVED is the default: whenever 2*sum_n a_n^2 + ln(tau) != 0 the system is
nonsingular and its allocation is the exact per-user uniform split.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvariantViolation, NumericalFailure
from .bounds import ShardSafetyReport, safety_holds, shard_stats
from .model import Allocation, CONSERVATION_RTOL, ProblemInstance

# Accepted solves must satisfy ||A x - b||_inf <= RESIDUAL_RTOL * (1 + ||b||_inf).
RESIDUAL_RTOL = 1e-8

# Reciprocal-condition estimates below this mark the factorization as
# numerically singular; consistent singular systems still solve under LU, so
# the residual alone cannot flag them.
_RCOND_FLOOR = 1e-12


class StationarityVariant(enum.Enum):
    REDERIVED = "rederived"
    LITERAL = "literal"


@dataclass(frozen=True)
class LinearSystem:
    """Square system A x = b with unknowns ordered shard-major.

    x = (table[0, 0..N-1], ..., table[sigma-1, 0..N-1], lambda_0..lambda_N-1).
    """

    a: np.ndarray
    b: np.ndarray
    sigma: int
    n_mus: int

    @property
    def dimension(self) -> int:
        return int(self.b.size)


def assemble_system(instance: ProblemInstance, sigma: int, tau: float | None = None,
                    variant: StationarityVariant = StationarityVariant.REDERIVED,
                    ) -> LinearSystem:
    """Build the stationarity + conservation system for ``sigma`` shards."""
    if not (1 <= sigma <= instance.s_max):
        raise InvariantViolation(f"sigma={sigma} outside [1, {instance.s_max}]")
    tau = instance.tau if tau is None else float(tau)
    if not (0.0 < tau < 1.0):
        raise InvariantViolation(f"tau={tau!r} outside (0, 1)")
    n = instance.n
    p = instance.p_adv_array
    a_vec = 0.5 - p
    ln_tau = math.log(tau)
    m = (sigma + 1) * n
    mat = np.zeros((m, m))
    rhs = np.zeros(m)
    if variant is StationarityVariant.REDERIVED:
        block = 2.0 * np.outer(a_vec, a_vec) + ln_tau * np.eye(n)
        lam_block = -np.eye(n)
    else:
        block = ln_tau * np.ones((n, n)) + 2.0 * np.outer(p, a_vec)
        lam_block = np.eye(n)
    eye = np.eye(n)
    for s in range(sigma):
        r = s * n
        mat[r:r + n, r:r + n] = block
        mat[r:r + n, sigma * n:] = lam_block
        mat[sigma * n:, r:r + n] = eye
    rhs[sigma * n:] = instance.eta
    return LinearSystem(a=mat, b=rhs, sigma=sigma, n_mus=n)


@dataclass(frozen=True)
class LinearSolveResult:
    solution: np.ndarray
    residual_norm: float
    rank_deficient: bool
    tolerance: float


def solve_linear_system(system: LinearSystem) -> LinearSolveResult:
    """Direct dense solve with a minimum-norm least-squares fallback.

    The LU path is trusted only if LAPACK's reciprocal-condition estimate is
    healthy *and* the residual contract holds; otherwise the system is treated
    as rank-deficient and resolved to the deterministic minimum-norm solution.
    A residual above tolerance even then raises ``NumericalFailure``.
    """
    mat, rhs = system.a, system.b
    tol = RESIDUAL_RTOL * (1.0 + float(np.abs(rhs).max(initial=0.0)))
    try:
        with warnings.catch_warnings():
            # Exact-zero pivots warn; the rcond gate below handles them.
            warnings.simplefilter("ignore")
            lu, piv = scipy.linalg.lu_factor(mat, check_finite=False)
        anorm = float(np.abs(mat).sum(axis=1).max(initial=0.0))
        rcond, info = scipy.linalg.lapack.dgecon(lu, anorm, norm="I")
        if info == 0 and rcond > _RCOND_FLOOR:
            candidate = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
            residual = float(np.abs(mat @ candidate - rhs).max(initial=0.0))
            if math.isfinite(residual) and residual <= tol:
                return LinearSolveResult(solution=candidate,
                                         residual_norm=residual,
                                         rank_deficient=False, tolerance=tol)
    except (ValueError, np.linalg.LinAlgError):
        pass
    solution, _, rank, _ = np.linalg.lstsq(mat, rhs, rcond=None)
    residual = float(np.abs(mat @ solution - rhs).max(initial=0.0))
    if not (math.isfinite(residual) and residual <= tol):
        raise NumericalFailure(
            f"residual {residual:.3e} exceeds tolerance {tol:.3e} "
            f"(dimension {system.dimension}, rank {rank})")
    return LinearSolveResult(solution=solution, residual_norm=residual,
                             rank_deficient=bool(rank < system.dimension),
                             tolerance=tol)


@dataclass(frozen=True)
class SolveDiagnostics:
    residual_norm: float
    rank_deficient: bool
    dimension: int
    variant: StationarityVariant
    sigma: int
    tau: float


@dataclass(frozen=True)
class P3Result:
    allocation: Allocation
    multipliers: tuple[float, ...]
    diagnostics: SolveDiagnostics


def solve_p3(instance: ProblemInstance, sigma: int,
             variant: StationarityVariant = StationarityVariant.REDERIVED,
             ) -> P3Result:
    """Solve the stationarity system at the instance's tau and reshape into an
    allocation."""
    if sigma == 1:
        return _solve_p3_single_shard(instance, variant)
    system = assemble_system(instance, sigma, variant=variant)
    result = solve_linear_system(system)
    n = instance.n
    table = result.solution[:sigma * n].reshape(sigma, n)
    multipliers = tuple(float(v) for v in result.solution[sigma * n:])
    diagnostics = SolveDiagnostics(residual_norm=result.residual_norm,
                                   rank_deficient=result.rank_deficient,
                                   dimension=system.dimension, variant=variant,
                                   sigma=sigma, tau=instance.tau)
    return P3Result(allocation=Allocation(instance, table),
                    multipliers=multipliers, diagnostics=diagnostics)


def _solve_p3_single_shard(instance: ProblemInstance,
                           variant: StationarityVariant) -> P3Result:
    """Closed form for one shard: conservation pins the whole score vector,
    after which the stationarity rows pin the multipliers uniquely."""
    eta = instance.eta
    p = instance.p_adv_array
    a_vec = 0.5 - p
    ln_tau = math.log(instance.tau)
    margin = float(a_vec @ eta)
    if variant is StationarityVariant.REDERIVED:
        lam = 2.0 * a_vec * margin + ln_tau * eta
    else:
        lam = -(ln_tau * float(eta.sum()) + 2.0 * p * margin)
    diagnostics = SolveDiagnostics(residual_norm=0.0, rank_deficient=False,
                                   dimension=2 * instance.n, variant=variant,
                                   sigma=1, tau=instance.tau)
    return P3Result(allocation=Allocation(instance, eta.reshape(1, -1)),
                    multipliers=tuple(float(v) for v in lam),
                    diagnostics=diagnostics)


@dataclass(frozen=True)
class FeasibilityReport:
    """Verdict on an allocation against the safety threshold.

    ``per_shard`` holds one report per shard. A shard with no score mass gets
    a vacuous entry (t=0, sum_sq=0, bound=1, safe=True): its safety constraint
    reduces to 0 >= 0, and it never enters risk aggregation.
    """

    feasible: bool
    per_shard: tuple[ShardSafetyReport, ...]
    sign_ok: bool
    conservation_ok: bool
    max_conservation_error: float


def check_feasibility(alloc: Allocation, tau: float | None = None) -> FeasibilityReport:
    """Allocation is feasible iff every active shard is safe, no entry is
    negative beyond tolerance, and per-user conservation holds."""
    tau_eff = alloc.instance.tau if tau is None else float(tau)
    sign_ok = alloc.sign_ok
    cons_err = alloc.max_conservation_error()
    conservation_ok = cons_err <= CONSERVATION_RTOL
    t, q, bound, _ = shard_stats(alloc.table, alloc.instance.p_adv_array)
    safe = safety_holds(t, q, tau_eff)
    reports = tuple(ShardSafetyReport(*fields) for fields in zip(
        range(alloc.sigma), t.tolist(), q.tolist(), bound.tolist(), safe.tolist()))
    return FeasibilityReport(feasible=bool(safe.all() and sign_ok and conservation_ok),
                             per_shard=reports, sign_ok=sign_ok,
                             conservation_ok=conservation_ok,
                             max_conservation_error=cons_err)


def margin_objective(instance: ProblemInstance, table: np.ndarray) -> float:
    """Objective whose stationary points the REDERIVED system solves.

    sum over shards of (squared margin + 0.5*ln(tau)*sum of squared entries);
    useful for finite-difference verification of stationarity.
    """
    a_vec = 0.5 - instance.p_adv_array
    t_s = table @ a_vec
    q_s = (table * table).sum(axis=1)
    return float((t_s * t_s).sum() + 0.5 * math.log(instance.tau) * q_s.sum())
