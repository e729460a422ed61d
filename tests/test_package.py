"""Tests of the package namespace: ``metapop`` re-exports its modules' ``__all__``."""

from __future__ import annotations

import importlib

import metapop

MODULES = ("problems", "env", "policy", "ert", "baselines", "ga", "bench", "config", "seeding")

EXPORTED = [
    "ActionBatch", "CmaEs", "CmaState", "ComparisonEntry", "ComparisonReport", "ConfigError",
    "DomainError", "EcdfCurve", "EpisodeConfig", "ErtRow", "ErtStats", "FORMAT_VERSION", "Family",
    "GaConfig", "Genome", "HistoryRow", "InstanceConfig", "LearnedOptimizer", "Observation",
    "Optimizer", "PolicyConfig", "PolicyParams", "ProtocolError", "RandomSearch", "RolloutRecord",
    "RunConfig", "Split", "SuiteSpec", "TargetSet", "Task", "TaskSuite", "TrainHistory",
    "canonical_mapping", "cma_act", "cma_init", "cma_update", "collect", "collect_records",
    "compare", "config_hash", "decode", "default_cma_lambda", "default_targets", "derive_seed",
    "ecdf_auc", "ert_table", "estimate", "evaluate", "evaluate_batch", "evolve_step",
    "expected_fe", "expected_restarts", "first_hits", "flatten", "init_params", "init_state",
    "load_config", "load_ga_checkpoint", "load_genome", "load_params", "make_instance",
    "make_suite", "meta_fitness", "parallel_map", "param_count", "random_orthogonal",
    "rank_transform", "rng_from", "run_ecdf", "run_episode", "save_genome", "save_params",
    "sigma_schedule", "stable_key", "train", "unflatten", "write_ecdf_csv", "write_ert_csv",
    "write_ga_checkpoint", "write_history_csv",
]


def test_exported_names_are_pinned():
    assert sorted(metapop.__all__) == EXPORTED


def test_each_name_is_its_module_object():
    owners = {}
    for name in MODULES:
        module = importlib.import_module(f"metapop.{name}")
        for attr in module.__all__:
            assert attr not in owners, f"{attr} exported by {owners[attr]} and {name}"
            owners[attr] = name
            assert getattr(metapop, attr) is getattr(module, attr)
    assert sorted(owners) == EXPORTED
