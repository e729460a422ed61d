"""Run configuration: YAML loading, overrides, validation, canonical hashing.

A run is fully described by a small key-value tree (suite, policy, ga,
episode, plus scalars). ``workers`` and ``output_dir`` affect execution
only, never numerics, so they are excluded from the canonical hash.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import yaml

from .bench import TargetSet, default_targets
from .env import EpisodeConfig
from .ga import GaConfig
from .policy import FORMAT_VERSION, PolicyConfig
from .problems import Family, TaskSuite, make_suite

__all__ = [
    "FORMAT_VERSION",
    "ConfigError",
    "RunConfig",
    "SuiteSpec",
    "canonical_mapping",
    "config_hash",
    "load_config",
]

_TOP_KEYS = {
    "suite", "policy", "ga", "episode",
    "runs_per_task", "master_seed", "output_dir", "workers",
}


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


@dataclass(frozen=True)
class SuiteSpec:
    """Declarative description of a task suite."""

    families: tuple[Family, ...]
    dimension: int
    instances_per_family: int
    split_ratio: tuple[float, float, float] = (0.1, 0.1, 0.8)
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.families:
            raise ConfigError("suite.families: must list at least one family")
        if len(set(self.families)) != len(self.families):
            raise ConfigError("suite.families: duplicate family names")
        if self.dimension < 1:
            raise ConfigError("suite.dimension: must be >= 1")
        if self.instances_per_family < 3:
            raise ConfigError("suite.instances_per_family: must be >= 3")
        if len(self.split_ratio) != 3 or any(r < 0 for r in self.split_ratio):
            raise ConfigError("suite.split_ratio: need three non-negative fractions")
        if abs(sum(self.split_ratio) - 1.0) > 1e-9:
            raise ConfigError("suite.split_ratio: fractions must sum to 1")

    def build(self) -> TaskSuite:
        return make_suite(
            list(self.families), self.dimension, self.instances_per_family,
            self.split_ratio, self.seed,
        )


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs: suite, networks, outer loop, budgets."""

    suite: SuiteSpec
    policy: PolicyConfig = PolicyConfig(lam=10)
    ga: GaConfig = GaConfig()
    fe_max: int | None = None
    tolerance: float = 1e-3
    runs_per_task: int = 5
    master_seed: int = 0
    output_dir: str = "runs"
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.runs_per_task < 1:
            raise ConfigError("runs_per_task: must be >= 1")
        if self.master_seed < 0:
            raise ConfigError("master_seed: must be non-negative")
        if not (0 < self.tolerance < 1e2):
            raise ConfigError("episode.tolerance: must be in (0, 100)")
        if self.workers is not None and self.workers < 0:
            raise ConfigError("workers: must be non-negative")
        if not self.output_dir:
            raise ConfigError("output_dir: must be non-empty")
        budget = self.fe_max if self.fe_max is not None else 100 * self.suite.dimension
        if budget < self.policy.lam:
            raise ConfigError(
                f"episode.fe_max: budget {budget} is below policy.lambda {self.policy.lam}"
            )

    def episode_config(self, lam: int | None = None) -> EpisodeConfig:
        """Episode settings; ``lam`` defaults to the configured policy's."""
        return EpisodeConfig(
            lam=self.policy.lam if lam is None else lam,
            fe_max=self.fe_max, tolerance=self.tolerance,
        )

    def targets(self) -> TargetSet:
        """Benchmark precision grid ending exactly at the tolerance."""
        return default_targets(final=self.tolerance)


def _as_int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


def _as_section(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {value!r}")
    return dict(value)


def _reject_unknown(section: dict, known: set[str], path: str) -> None:
    extra = sorted(set(section) - known)
    if extra:
        raise ConfigError(f"{path}: unknown key {extra[0]!r}")


def _parse_family(name, path: str) -> Family:
    try:
        return Family(_as_str(name, path))
    except ValueError:
        valid = ", ".join(f.value for f in Family)
        raise ConfigError(f"{path}: unknown family {name!r}; valid names: {valid}") from None


def _parse_suite(section: dict) -> SuiteSpec:
    _reject_unknown(
        section, {"families", "dimension", "instances_per_family", "split_ratio", "seed"},
        "suite",
    )
    if "families" not in section:
        raise ConfigError("suite.families: required")
    raw_families = section["families"]
    if not isinstance(raw_families, (list, tuple)):
        raise ConfigError("suite.families: expected a list of family names")
    families = tuple(
        _parse_family(name, f"suite.families[{i}]") for i, name in enumerate(raw_families)
    )
    ratio = section.get("split_ratio", SuiteSpec.split_ratio)
    if not isinstance(ratio, (list, tuple)) or len(ratio) != 3:
        raise ConfigError("suite.split_ratio: expected a list of three fractions")
    return SuiteSpec(
        families=families,
        dimension=_as_int(section.get("dimension", 2), "suite.dimension", minimum=1),
        instances_per_family=_as_int(
            section.get("instances_per_family", 10), "suite.instances_per_family", minimum=3
        ),
        split_ratio=tuple(_as_float(r, f"suite.split_ratio[{i}]") for i, r in enumerate(ratio)),
        seed=_as_int(section.get("seed", SuiteSpec.seed), "suite.seed", minimum=0),
    )


def _parse_policy(section: dict) -> PolicyConfig:
    _reject_unknown(section, {"lambda", "hidden_size", "num_layers"}, "policy")
    defaults = RunConfig.policy
    return PolicyConfig(
        lam=_as_int(section.get("lambda", defaults.lam), "policy.lambda", minimum=2),
        hidden_size=_as_int(section.get("hidden_size", defaults.hidden_size), "policy.hidden_size", 1),
        num_layers=_as_int(section.get("num_layers", defaults.num_layers), "policy.num_layers", 1),
    )


def _parse_ga(section: dict) -> GaConfig:
    defaults = asdict(GaConfig())
    _reject_unknown(section, set(defaults), "ga")
    values = {}
    for name, default in defaults.items():
        raw, path = section.get(name, default), f"ga.{name}"
        if isinstance(default, float):
            values[name] = _as_float(raw, path)
        else:
            values[name] = _as_int(raw, path, minimum=0 if name == "generations" else 1)
    try:
        return GaConfig(**values)
    except ValueError as exc:
        raise ConfigError(f"ga: {exc}") from None


def config_from_mapping(data: dict) -> RunConfig:
    """Build a validated RunConfig from a parsed key-value tree."""
    _reject_unknown(data, _TOP_KEYS, "config")
    if "suite" not in data:
        raise ConfigError("suite: required section")
    episode = _as_section(data.get("episode", {}), "episode")
    _reject_unknown(episode, {"fe_max", "tolerance"}, "episode")
    fe_max = episode.get("fe_max")
    if fe_max is not None:
        fe_max = _as_int(fe_max, "episode.fe_max", minimum=1)
    workers = data.get("workers")
    if workers is not None:
        workers = _as_int(workers, "workers", minimum=0)
    return RunConfig(
        suite=_parse_suite(_as_section(data["suite"], "suite")),
        policy=_parse_policy(_as_section(data.get("policy", {}), "policy")),
        ga=_parse_ga(_as_section(data.get("ga", {}), "ga")),
        fe_max=fe_max,
        tolerance=_as_float(episode.get("tolerance", RunConfig.tolerance), "episode.tolerance"),
        runs_per_task=_as_int(data.get("runs_per_task", RunConfig.runs_per_task), "runs_per_task", 1),
        master_seed=_as_int(data.get("master_seed", RunConfig.master_seed), "master_seed", 0),
        output_dir=_as_str(data.get("output_dir", RunConfig.output_dir), "output_dir"),
        workers=workers,
    )


def _parse_override_value(raw: str, assignment: str):
    try:
        value = yaml.safe_load(raw) if raw else None
    except yaml.YAMLError as exc:
        raise ConfigError(f"override {assignment!r}: {exc}") from None
    if isinstance(value, str):
        # YAML leaves "1e-2" as a string; accept plain numeric spellings.
        for convert in (int, float):
            try:
                return convert(value)
            except ValueError:
                continue
    return value


def apply_override(tree: dict, assignment: str) -> None:
    """Apply one ``dotted.key=value`` assignment to the raw config tree."""
    key, sep, raw_value = assignment.partition("=")
    if not sep or not key:
        raise ConfigError(f"override {assignment!r}: expected dotted.key=value")
    value = _parse_override_value(raw_value, assignment)
    parts = key.split(".")
    node = tree
    for part in parts[:-1]:
        child = node.setdefault(part, {})
        if not isinstance(child, dict):
            raise ConfigError(f"override {assignment!r}: {part!r} is not a section")
        node = child
    node[parts[-1]] = value


def load_config(path: str | Path, overrides: tuple[str, ...] = ()) -> RunConfig:
    """Read, override, and validate a YAML run configuration."""
    file_path = Path(path)
    if not file_path.is_file():
        raise ConfigError(f"config file not found: {file_path}")
    try:
        data = yaml.safe_load(file_path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{file_path}: {exc}") from None
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{file_path}: config root must be a mapping")
    for assignment in overrides:
        apply_override(data, assignment)
    return config_from_mapping(data)


def canonical_mapping(config: RunConfig) -> dict:
    """Numerics-relevant settings as a plain tree with stable key order."""
    return {
        "format_version": FORMAT_VERSION,
        "suite": {
            "families": [f.value for f in config.suite.families],
            "dimension": config.suite.dimension,
            "instances_per_family": config.suite.instances_per_family,
            "split_ratio": list(config.suite.split_ratio),
            "seed": config.suite.seed,
        },
        "policy": {
            "lambda": config.policy.lam,
            "hidden_size": config.policy.hidden_size,
            "num_layers": config.policy.num_layers,
        },
        "ga": asdict(config.ga),
        "episode": {"fe_max": config.fe_max, "tolerance": config.tolerance},
        "runs_per_task": config.runs_per_task,
        "master_seed": config.master_seed,
    }


def config_hash(config: RunConfig) -> str:
    """Hex digest identifying the numerics of a run."""
    payload = json.dumps(canonical_mapping(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
