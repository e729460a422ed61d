"""Tests for configuration loading, overrides, and canonical hashing."""

from __future__ import annotations

import pytest
import yaml

from metapop.config import (
    ConfigError,
    RunConfig,
    SuiteSpec,
    apply_override,
    canonical_mapping,
    config_from_mapping,
    config_hash,
    load_config,
)
from metapop.problems import Family


def _base_tree():
    return {
        "suite": {
            "families": ["sphere", "rastrigin"],
            "dimension": 2,
            "instances_per_family": 10,
            "split_ratio": [0.5, 0.2, 0.3],
            "seed": 7,
        },
        "policy": {"lambda": 6, "hidden_size": 8, "num_layers": 2},
        "ga": {"population_size": 8, "n_elites": 2, "n_parents": 4, "generations": 2},
        "episode": {"fe_max": 60, "tolerance": 0.05},
        "runs_per_task": 2,
        "master_seed": 3,
        "output_dir": "out",
        "workers": 2,
    }


def _write(tmp_path, tree, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(tree))
    return path


class TestLoading:
    def test_full_round_trip(self, tmp_path):
        cfg = load_config(_write(tmp_path, _base_tree()))
        assert cfg.suite.families == (Family.SPHERE, Family.RASTRIGIN)
        assert cfg.suite.dimension == 2
        assert cfg.policy.lam == 6
        assert cfg.policy.hidden_size == 8
        assert cfg.ga.population_size == 8
        assert cfg.fe_max == 60
        assert cfg.tolerance == 0.05
        assert cfg.runs_per_task == 2
        assert cfg.master_seed == 3
        assert cfg.workers == 2

    def test_defaults_when_sections_omitted(self, tmp_path):
        cfg = load_config(_write(tmp_path, {"suite": {"families": ["sphere"]}}))
        assert cfg.policy.lam == 10
        assert cfg.ga.population_size == 512
        assert cfg.fe_max is None
        assert cfg.tolerance == 1e-3
        assert cfg.runs_per_task == 5
        assert cfg.workers is None

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(ConfigError, match="no_such.yaml"):
            load_config(tmp_path / "no_such.yaml")

    def test_non_mapping_root(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("- just\n- a list\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_config(path)

    def test_suite_build_matches_spec(self, tmp_path):
        cfg = load_config(_write(tmp_path, _base_tree()))
        suite = cfg.suite.build()
        assert len(suite) == 20
        assert len(suite.train_tasks) == 10
        assert len(suite.test_tasks) == 6


class TestValidation:
    def test_unknown_top_level_key(self):
        tree = _base_tree()
        tree["budget"] = 3
        with pytest.raises(ConfigError, match="'budget'"):
            config_from_mapping(tree)

    def test_unknown_nested_key(self):
        tree = _base_tree()
        tree["ga"]["mutation_rate"] = 0.5
        with pytest.raises(ConfigError, match="ga.*mutation_rate"):
            config_from_mapping(tree)

    def test_type_error_names_field(self):
        tree = _base_tree()
        tree["suite"]["dimension"] = "two"
        with pytest.raises(ConfigError, match="suite.dimension"):
            config_from_mapping(tree)

    def test_bool_is_not_an_integer(self):
        tree = _base_tree()
        tree["master_seed"] = True
        with pytest.raises(ConfigError, match="master_seed"):
            config_from_mapping(tree)

    def test_unknown_family_lists_valid_names(self):
        tree = _base_tree()
        tree["suite"]["families"] = ["ackley"]
        with pytest.raises(ConfigError, match="linear-slope"):
            config_from_mapping(tree)

    def test_budget_below_lambda(self):
        tree = _base_tree()
        tree["episode"]["fe_max"] = 5
        with pytest.raises(ConfigError, match="fe_max"):
            config_from_mapping(tree)

    def test_default_budget_checked_against_lambda(self):
        tree = _base_tree()
        del tree["episode"]["fe_max"]
        tree["policy"]["lambda"] = 300
        with pytest.raises(ConfigError, match="fe_max"):
            config_from_mapping(tree)

    def test_ga_cross_field_wrapped(self):
        tree = _base_tree()
        tree["ga"]["n_elites"] = 99
        with pytest.raises(ConfigError, match="ga"):
            config_from_mapping(tree)

    def test_split_ratio_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="split_ratio"):
            SuiteSpec((Family.SPHERE,), 2, 10, (0.5, 0.5, 0.5))

    def test_requires_suite_section(self):
        with pytest.raises(ConfigError, match="suite"):
            config_from_mapping({"master_seed": 1})


class TestOverrides:
    def test_set_nested_value(self, tmp_path):
        cfg = load_config(_write(tmp_path, _base_tree()), ("ga.generations=0",))
        assert cfg.ga.generations == 0

    def test_later_override_wins(self, tmp_path):
        cfg = load_config(
            _write(tmp_path, _base_tree()), ("master_seed=1", "master_seed=9")
        )
        assert cfg.master_seed == 9

    def test_creates_missing_section(self):
        tree = {"suite": {"families": ["sphere"]}}
        apply_override(tree, "episode.fe_max=40")
        assert tree["episode"]["fe_max"] == 40

    def test_typed_parsing(self):
        tree = {}
        apply_override(tree, "episode.tolerance=1e-2")
        assert tree["episode"]["tolerance"] == 0.01

    def test_malformed_assignment(self):
        with pytest.raises(ConfigError, match="dotted.key=value"):
            apply_override({}, "no_equals_sign")

    def test_override_through_scalar_fails(self):
        with pytest.raises(ConfigError, match="not a section"):
            apply_override({"ga": 3}, "ga.generations=1")


class TestHashing:
    def test_execution_fields_excluded(self):
        a = config_from_mapping(_base_tree())
        tree = _base_tree()
        tree["workers"] = 7
        tree["output_dir"] = "elsewhere"
        b = config_from_mapping(tree)
        assert config_hash(a) == config_hash(b)
        assert "workers" not in canonical_mapping(a)
        assert "output_dir" not in canonical_mapping(a)

    def test_numeric_fields_included(self):
        a = config_from_mapping(_base_tree())
        for key, value in (("master_seed", 99), ("runs_per_task", 3)):
            tree = _base_tree()
            tree[key] = value
            assert config_hash(config_from_mapping(tree)) != config_hash(a)

    def test_stable_across_yaml_key_order(self, tmp_path):
        tree = _base_tree()
        reordered = dict(reversed(list(tree.items())))
        h1 = config_hash(load_config(_write(tmp_path, tree, "a.yaml")))
        h2 = config_hash(load_config(_write(tmp_path, reordered, "b.yaml")))
        assert h1 == h2
        assert len(h1) == 64


class TestDerivedSettings:
    def test_episode_config_uses_policy_lambda(self):
        cfg = config_from_mapping(_base_tree())
        ep = cfg.episode_config()
        assert ep.lam == 6
        assert ep.fe_max == 60
        assert ep.tolerance == 0.05

    def test_targets_end_at_tolerance(self):
        cfg = config_from_mapping(_base_tree())
        ts = cfg.targets()
        assert ts.tolerance == pytest.approx(0.05)
        assert ts.precisions[0] == pytest.approx(100.0)

    def test_direct_construction_validates(self):
        with pytest.raises(ConfigError, match="runs_per_task"):
            RunConfig(suite=SuiteSpec((Family.SPHERE,), 2, 10), runs_per_task=0)


_DROP = object()
_FAMILIES = "sphere, linear-slope, rastrigin, schwefel, lunacek-bi-rastrigin, griewank-rosenbrock"
_BASE_HASH = "1de087a15c62c57a280821cd80a8ba1499e501164d68c6a2c3aca29924b94262"

# One edit of _pin_tree() per entry: (dotted key, new value or _DROP), and the
# ConfigError text it must give.
_REJECTED = [
    ("suite", 3, "suite: expected a mapping, got 3"),
    ("suite", _DROP, "suite: required section"),
    ("suite.families", _DROP, "suite.families: required"),
    ("suite.families", "sphere", "suite.families: expected a list of family names"),
    ("suite.families", [], "suite.families: must list at least one family"),
    ("suite.families", ["sphere", "sphere"], "suite.families: duplicate family names"),
    ("suite.families", [3], f"suite.families[0]: unknown family 3; valid names: {_FAMILIES}"),
    ("suite.families", ["ackley"], f"suite.families[0]: unknown family 'ackley'; valid names: {_FAMILIES}"),
    ("suite.dimension", "two", "suite.dimension: expected an integer, got 'two'"),
    ("suite.dimension", 0, "suite.dimension: must be >= 1, got 0"),
    ("suite.instances_per_family", 2.5, "suite.instances_per_family: expected an integer, got 2.5"),
    ("suite.instances_per_family", 2, "suite.instances_per_family: must be >= 3, got 2"),
    ("suite.split_ratio", 0.5, "suite.split_ratio: expected a list of three fractions"),
    ("suite.split_ratio", [0.5, 0.5], "suite.split_ratio: expected a list of three fractions"),
    ("suite.split_ratio", [0.5, "a", 0.5], "suite.split_ratio[1]: expected a number, got 'a'"),
    ("suite.split_ratio", [0.5, 0.5, 0.5], "suite.split_ratio: fractions must sum to 1"),
    ("suite.split_ratio", [-0.1, 0.3, 0.8], "suite.split_ratio: need three non-negative fractions"),
    ("suite.seed", "x", "suite.seed: expected an integer, got 'x'"),
    ("suite.seed", -1, "suite.seed: must be >= 0, got -1"),
    ("suite.colour", 1, "suite: unknown key 'colour'"),
    ("policy", [], "policy: expected a mapping, got []"),
    ("policy.lambda", "ten", "policy.lambda: expected an integer, got 'ten'"),
    ("policy.lambda", 0, "policy.lambda: must be >= 2, got 0"),
    ("policy.hidden_size", 1.5, "policy.hidden_size: expected an integer, got 1.5"),
    ("policy.hidden_size", 0, "policy.hidden_size: must be >= 1, got 0"),
    ("policy.num_layers", True, "policy.num_layers: expected an integer, got True"),
    ("policy.num_layers", 0, "policy.num_layers: must be >= 1, got 0"),
    ("policy.dropout", 0.1, "policy: unknown key 'dropout'"),
    ("ga", "x", "ga: expected a mapping, got 'x'"),
    ("ga.population_size", "8", "ga.population_size: expected an integer, got '8'"),
    ("ga.population_size", 0, "ga.population_size: must be >= 1, got 0"),
    ("ga.n_elites", 0, "ga.n_elites: must be >= 1, got 0"),
    ("ga.n_elites", 99, "ga: need n_elites <= n_parents <= population_size"),
    ("ga.n_elites", _DROP, "ga: need n_elites <= n_parents <= population_size"),
    ("ga.n_parents", 1.0, "ga.n_parents: expected an integer, got 1.0"),
    ("ga.n_parents", 0, "ga.n_parents: must be >= 1, got 0"),
    ("ga.n_parents", _DROP, "ga: need n_elites <= n_parents <= population_size"),
    ("ga.sigma0", "big", "ga.sigma0: expected a number, got 'big'"),
    ("ga.sigma0", 0, "ga: invalid sigma schedule"),
    ("ga.sigma_decay", 1.5, "ga: invalid sigma schedule"),
    ("ga.sigma_min", -1, "ga: invalid sigma schedule"),
    ("ga.generations", "2", "ga.generations: expected an integer, got '2'"),
    ("ga.generations", -1, "ga.generations: must be >= 0, got -1"),
    ("ga.mutation_rate", 0.5, "ga: unknown key 'mutation_rate'"),
    ("episode", 5, "episode: expected a mapping, got 5"),
    ("episode.fe_max", "60", "episode.fe_max: expected an integer, got '60'"),
    ("episode.fe_max", 0, "episode.fe_max: must be >= 1, got 0"),
    ("episode.fe_max", 5, "episode.fe_max: budget 5 is below policy.lambda 6"),
    ("episode.tolerance", "tight", "episode.tolerance: expected a number, got 'tight'"),
    ("episode.tolerance", 0, "episode.tolerance: must be in (0, 100)"),
    ("episode.tolerance", 100, "episode.tolerance: must be in (0, 100)"),
    ("episode.restarts", 2, "episode: unknown key 'restarts'"),
    ("runs_per_task", 1.5, "runs_per_task: expected an integer, got 1.5"),
    ("runs_per_task", 0, "runs_per_task: must be >= 1, got 0"),
    ("master_seed", True, "master_seed: expected an integer, got True"),
    ("master_seed", -1, "master_seed: must be >= 0, got -1"),
    ("output_dir", 3, "output_dir: expected a string, got 3"),
    ("output_dir", "", "output_dir: must be non-empty"),
    ("workers", "all", "workers: expected an integer, got 'all'"),
    ("workers", -1, "workers: must be >= 0, got -1"),
    ("budget", 3, "config: unknown key 'budget'"),
]

# Accepted edits: (dotted key, value, config_hash, output_dir, workers).
_ACCEPTED = [
    (None, None, _BASE_HASH, "out", 2),
    ("suite.dimension", _DROP, _BASE_HASH, "out", 2),
    ("suite.instances_per_family", _DROP, _BASE_HASH, "out", 2),
    ("suite.split_ratio", _DROP, "12bd9f28ab3cfefc0e4efaa163eb1d5ed4caaafa2e4323c0232fb44079a9aa94", "out", 2),
    ("suite.seed", _DROP, "603fdc22a4c0ce0821ad2760f3aebf0b7d28fea8f016318edd67cb833829b6f9", "out", 2),
    ("policy", _DROP, "84129cfff9192e81a96d1202277a4b03bafd6752c03ba3410cdf46204d3bf227", "out", 2),
    ("policy.lambda", _DROP, "6a132ea5dc1b14ebb5c7d7e22aa9061f8dc7da187078e844a6691feb6e8d4631", "out", 2),
    ("policy.hidden_size", _DROP, "5ccfb6659e50ca5ac7fa494a7b356cbdc1aa7b80f97304fec04e11eba44b9540", "out", 2),
    ("policy.num_layers", _DROP, _BASE_HASH, "out", 2),
    ("ga", _DROP, "8ef7d6f5f7e9c38155d154ba2731c5d92ba76a85d6aad6fdd40601f882d5074d", "out", 2),
    ("ga.population_size", _DROP, "e77625ba71346479e1bc7333a9ecfc6473a0aa26dc17823e18dcf107466eb243", "out", 2),
    ("ga.sigma0", _DROP, "943ba2ec4c372b6e71de10564bb05fc1d1923da10393fd33d4bd0cbd52989279", "out", 2),
    ("ga.sigma_decay", _DROP, "9b0028ee4d1d1e027e1ed26f6749ce81c18294bd0188c87d630910a62117842d", "out", 2),
    ("ga.sigma_min", _DROP, "2f4c31a530074e6491152337ee487bfccd0546a961bd2d0824726436ce4e5170", "out", 2),
    ("ga.generations", _DROP, "1cda12c41e8545d57f37b22baa8c38bc10fcf7f13acb0c6b4aba56bd9b56b273", "out", 2),
    ("episode", _DROP, "7c821526b2c829664cf4a1881ab31f56774dd7aa0709dd9c0a578d5897b972ad", "out", 2),
    ("episode.fe_max", None, "518f71a5a6ea9f7ee6ce28a58831d68f67fa743b211e9d80875fa9074b3aaf51", "out", 2),
    ("episode.fe_max", _DROP, "518f71a5a6ea9f7ee6ce28a58831d68f67fa743b211e9d80875fa9074b3aaf51", "out", 2),
    ("episode.tolerance", _DROP, "73e4b0ab9858c15789146ce6162c817bd14cef9335eee4cbd428420568b5b5c1", "out", 2),
    ("runs_per_task", _DROP, "2f4ce5f6fe781631c78c3a26f2ac965950e8d80c20be10de1053258630eba79c", "out", 2),
    ("master_seed", _DROP, "c65b6dab1fee48b27b514e25148593fe7f9702122da3fb0168472ad4207b05f2", "out", 2),
    ("output_dir", _DROP, _BASE_HASH, "runs", 2),
    ("workers", None, _BASE_HASH, "out", None),
    ("workers", _DROP, _BASE_HASH, "out", None),
]


def _pin_tree(path, value):
    tree = _base_tree()
    tree["ga"].update(sigma0=0.2, sigma_decay=0.9, sigma_min=0.02)
    if path is not None:
        *parents, leaf = path.split(".")
        node = tree
        for part in parents:
            node = node[part]
        if value is _DROP:
            del node[leaf]
        else:
            node[leaf] = value
    return tree


class TestParserPins:
    """Every key wrong, out of range, unknown or deleted gives the pinned outcome."""

    @pytest.mark.parametrize(("path", "value", "message"), _REJECTED)
    def test_rejected_tree_gives_pinned_message(self, path, value, message):
        with pytest.raises(ConfigError) as excinfo:
            config_from_mapping(_pin_tree(path, value))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(("path", "value", "digest", "output_dir", "workers"), _ACCEPTED)
    def test_accepted_tree_gives_pinned_config(self, path, value, digest, output_dir, workers):
        cfg = config_from_mapping(_pin_tree(path, value))
        assert (config_hash(cfg), cfg.output_dir, cfg.workers) == (digest, output_dir, workers)

    def test_minimal_tree_gives_pinned_config(self):
        cfg = config_from_mapping({"suite": {"families": ["sphere"]}})
        assert (config_hash(cfg), cfg.output_dir, cfg.workers) == (
            "29e529430420da8809cdcf52832f064abff6ea51e71c3f49f93ac213741e3c58", "runs", None
        )
