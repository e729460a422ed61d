"""Meta-learning toolkit for population-based black-box optimizers.

Trains a recurrent, population-based optimizer over distributions of
synthetic benchmark tasks with a seed-encoded genetic outer loop, and
benchmarks the result against random search and CMA-ES using restart-based
expected-runtime (ERT) and multi-target ECDF methodology.
"""

from .baselines import CmaEs, CmaState, RandomSearch, cma_act, cma_init, cma_update, default_cma_lambda
from .bench import (
    ComparisonEntry,
    ComparisonReport,
    EcdfCurve,
    ErtRow,
    TargetSet,
    collect,
    compare,
    default_targets,
    ecdf_auc,
    ert_table,
    first_hits,
    run_ecdf,
    write_ecdf_csv,
    write_ert_csv,
)
from .config import (
    FORMAT_VERSION,
    ConfigError,
    RunConfig,
    SuiteSpec,
    canonical_mapping,
    config_hash,
    load_config,
)
from .env import (
    ActionBatch,
    EpisodeConfig,
    Observation,
    Optimizer,
    ProtocolError,
    RolloutRecord,
    run_episode,
)
from .ert import ErtStats, collect_records, estimate, expected_fe, expected_restarts, meta_fitness
from .ga import (
    GaConfig,
    Genome,
    HistoryRow,
    TrainHistory,
    decode,
    evolve_step,
    load_ga_checkpoint,
    load_genome,
    save_genome,
    sigma_schedule,
    train,
    write_ga_checkpoint,
    write_history_csv,
)
from .policy import (
    LearnedOptimizer,
    PolicyConfig,
    PolicyParams,
    flatten,
    init_params,
    init_state,
    load_params,
    param_count,
    rank_transform,
    save_params,
    unflatten,
)
from .problems import (
    DomainError,
    Family,
    InstanceConfig,
    Split,
    Task,
    TaskSuite,
    evaluate,
    evaluate_batch,
    make_instance,
    make_suite,
    random_orthogonal,
)
from .seeding import derive_seed, parallel_map, rng_from, stable_key

__all__ = [
    "FORMAT_VERSION",
    # problems
    "DomainError", "Family", "InstanceConfig", "Split", "Task", "TaskSuite",
    "evaluate", "evaluate_batch", "make_instance", "make_suite",
    "random_orthogonal",
    # episodes
    "ActionBatch", "EpisodeConfig", "Observation", "Optimizer",
    "ProtocolError", "RolloutRecord", "run_episode",
    # policy
    "LearnedOptimizer", "PolicyConfig", "PolicyParams", "flatten",
    "init_params", "init_state", "load_params", "param_count",
    "rank_transform", "save_params", "unflatten",
    # meta objective
    "ErtStats", "collect_records", "estimate", "expected_fe",
    "expected_restarts", "meta_fitness",
    # baselines
    "CmaEs", "CmaState", "RandomSearch", "cma_act", "cma_init",
    "cma_update", "default_cma_lambda",
    # outer loop
    "GaConfig", "Genome", "HistoryRow", "TrainHistory", "decode",
    "evolve_step", "load_ga_checkpoint", "load_genome", "save_genome",
    "sigma_schedule", "train", "write_ga_checkpoint", "write_history_csv",
    # benchmarking
    "ComparisonEntry", "ComparisonReport", "EcdfCurve", "ErtRow",
    "TargetSet", "collect", "compare", "default_targets", "ecdf_auc", "ert_table",
    "first_hits", "run_ecdf", "write_ecdf_csv", "write_ert_csv",
    # configuration
    "ConfigError", "RunConfig", "SuiteSpec", "canonical_mapping",
    "config_hash", "load_config",
    # seeding
    "derive_seed", "parallel_map", "rng_from", "stable_key",
]
