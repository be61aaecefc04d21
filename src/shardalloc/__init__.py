"""Engagement-weighted shard-count and score-allocation toolkit.

Public surface: domain types and engagement scoring (:mod:`model`), per-shard
attack-probability bounds (:mod:`bounds`), the stationarity-system allocator
(:mod:`lagrangian`), the shard-count optimizer (:mod:`optimizer`), reference
allocators (:mod:`baselines`), the epoch-level consensus simulator
(:mod:`simulator`), and the experiment harness (:mod:`experiments`).
"""

from .errors import (DegenerateShardError, EmptyShardError, GenerationFailure,
                     InstanceTooLargeError, InvariantViolation,
                     MalformedFileError, NumericalFailure, ShardAllocError)
from .model import (Allocation, EngagementProfile, GenerationMeta,
                    InstanceGenConfig, InstanceStats, ProblemInstance,
                    UNIT_WEIGHTS, Weights, compute_engagement,
                    generate_instance, instance_stats, load_allocation_csv,
                    load_instance, save_allocation_csv, save_instance)
from .bounds import (MonteCarloResult, Pr51Summary, ShardColumn,
                     ShardSafetyReport, adversary_expected_score,
                     allocation_pr51, attack_bound, deviation_t, is_shard_safe,
                     monte_carlo_attack_probability, pr51_summary,
                     safety_holds, shard_stats)
from .lagrangian import (FeasibilityReport, LinearSystem, P3Result,
                         StationarityVariant, assemble_system,
                         check_feasibility, margin_objective,
                         solve_linear_system, solve_p3)
from .optimizer import (SearchMode, ShardingSolution, SolutionStatus, derive_x,
                        optimize_sharding, save_solution, solve_budget,
                        throughput, verify_full_constraints)
from .baselines import (BaselineMethod, BaselineResult, exhaustive_search,
                        greedy_round_robin, random_restart_feasibility,
                        run_baseline, uniform_split)
from .simulator import (EpochConfig, EpochReport, NetworkState,
                        SimulationReport, apply_corruptions, elect_leader,
                        next_seed, remap_seeds, run_simulation)
from .experiments import (ExperimentConfig, ResultRow, revalidate_results,
                          run_experiment)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
