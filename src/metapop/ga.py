"""Outer-loop meta-optimizer: a seed-list genetic algorithm over policies.

Each genome encodes a full parameter vector compactly as an initialization
seed plus an ordered list of (mutation seed, sigma) pairs, so genomes stay a
few dozen bytes no matter how large the policy is (Such et al., *Deep
Neuroevolution*, arXiv:1712.06567). A full decode replays every seeded
Gaussian perturbation, at a cost that grows with the lineage, so ``train``
decodes incrementally: it keeps the parameters of the previous round's
``n_parents`` best genomes, making an elite a lookup and a child one
Gaussian draw on its parent's vector -- the last step of a full replay, hence
bit-identical. Selection is truncation to the best ``n_parents`` with
``n_elites`` copied unchanged; mutation strength follows a decaying schedule
with a floor.

Fitness is the meta-objective (mean expected-FE over the training tasks,
lower is better), derived from the records that :func:`metapop.bench.collect`
returns for the single target of the episode tolerance. Within one
generation every genome is scored with the same episode-seed block (common
random numbers), which sharpens the ranking; each generation draws a fresh
block so elites cannot lock in lucky seeds.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .artifacts import load_json, save_json, write_csv
from .bench import TargetSet, collect
from .env import EpisodeConfig
from .ert import meta_fitness
from .policy import LearnedOptimizer, PolicyConfig, PolicyParams, flatten, init_params, param_count, unflatten
from .problems import TaskSuite
from .seeding import derive_seed, parallel_map, rng_from

__all__ = [
    "Genome",
    "GaConfig",
    "HistoryRow",
    "TrainHistory",
    "decode",
    "sigma_schedule",
    "evolve_step",
    "train",
    "save_genome",
    "load_genome",
    "write_history_csv",
    "write_ga_checkpoint",
    "load_ga_checkpoint",
]

MAX_SEED = 2**63


@dataclass(frozen=True)
class Genome:
    """Seed-list encoding of one policy parameter vector."""

    init_seed: int
    mutations: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        if self.init_seed < 0:
            raise ValueError("init_seed must be non-negative")
        for seed, sigma in self.mutations:
            if seed < 0 or sigma <= 0.0:
                raise ValueError("mutations need non-negative seeds and positive sigma")


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 512
    n_elites: int = 5
    n_parents: int = 20
    sigma0: float = 0.3
    sigma_decay: float = 0.95
    sigma_min: float = 0.01
    generations: int = 200

    def __post_init__(self) -> None:
        if not 1 <= self.n_elites <= self.n_parents <= self.population_size:
            raise ValueError("need n_elites <= n_parents <= population_size")
        if self.sigma0 <= 0 or self.sigma_min <= 0 or not 0 < self.sigma_decay <= 1:
            raise ValueError("invalid sigma schedule")
        if self.generations < 0:
            raise ValueError("generations must be non-negative")


@dataclass(frozen=True)
class HistoryRow:
    generation: int
    train_best: float
    train_mean: float
    val_best: float
    sigma: float


@dataclass(frozen=True)
class TrainHistory:
    rows: tuple[HistoryRow, ...]

    def __len__(self) -> int:
        return len(self.rows)


#: Flat parameter vectors of already decoded genomes, keyed by genome.
Ancestors = Mapping[Genome, np.ndarray]


def _decode_flat(genome: Genome, policy_config: PolicyConfig, ancestors: Ancestors | None) -> np.ndarray:
    ancestors = ancestors or {}
    if genome in ancestors:
        return ancestors[genome]
    parent = Genome(genome.init_seed, genome.mutations[:-1])
    if genome.mutations and parent in ancestors:
        theta, mutations = ancestors[parent], genome.mutations[-1:]
    else:
        theta, mutations = flatten(init_params(policy_config, genome.init_seed)), genome.mutations
    n = param_count(policy_config)
    for seed, sigma in mutations:
        theta = theta + sigma * np.random.default_rng(seed).standard_normal(n)
    return theta


def decode(genome: Genome, policy_config: PolicyConfig, ancestors: Ancestors | None = None) -> PolicyParams:
    """Expand the genome's seed list into concrete parameters. Pure and bit-stable.

    Without ``ancestors`` this replays the whole lineage from the init seed.
    With them, a genome found in the mapping costs a lookup and a genome
    whose parent (its lineage minus the last mutation) is found costs one
    Gaussian draw; any other genome falls back to the full replay. The
    result is the same bytes either way, provided each vector in
    ``ancestors`` is the decode of its key.
    """
    return unflatten(policy_config, _decode_flat(genome, policy_config, ancestors))


def sigma_schedule(generation: int, config: GaConfig) -> float:
    """Decayed mutation strength, floored at sigma_min."""
    return max(config.sigma0 * config.sigma_decay**generation, config.sigma_min)


def _ranking(fitnesses: Sequence[float]) -> list[int]:
    """Indices best first: ascending fitness, ties by index."""
    return sorted(range(len(fitnesses)), key=lambda i: (fitnesses[i], i))


def evolve_step(
    population: Sequence[Genome],
    fitnesses: Sequence[float],
    generation: int,
    config: GaConfig,
    seed: int,
) -> list[Genome]:
    """One generation of truncation selection with elitism.

    Output: the n_elites best genomes unchanged (ascending fitness, ties by
    index), then children, each a uniformly chosen top-n_parents parent
    with one fresh mutation appended at this generation's sigma.
    """
    if len(population) != len(fitnesses):
        raise ValueError("population and fitnesses must have equal length")
    if len(population) != config.population_size:
        raise ValueError("population size does not match the config")
    if not all(math.isfinite(f) for f in fitnesses):
        raise ValueError("fitnesses must be finite")

    order = _ranking(fitnesses)
    ranked = [population[i] for i in order]
    sigma = sigma_schedule(generation, config)
    rng = rng_from(seed)
    next_pop = ranked[: config.n_elites]
    for _ in range(config.population_size - config.n_elites):
        parent = ranked[int(rng.integers(config.n_parents))]
        mutation = (int(rng.integers(MAX_SEED)), sigma)
        next_pop.append(Genome(parent.init_seed, parent.mutations + (mutation,)))
    return next_pop


def _genome_fitness(
    genome: Genome,
    policy_config: PolicyConfig,
    tasks,
    runs_per_task: int,
    episode_config: EpisodeConfig,
    seed: int,
    ancestors: Ancestors | None = None,
) -> float:
    optimizer = LearnedOptimizer(decode(genome, policy_config, ancestors), policy_config)
    targets = TargetSet((episode_config.tolerance,))
    grouped = collect(optimizer, tasks, targets, episode_config, runs_per_task, seed)
    return meta_fitness(tasks, grouped, episode_config)


ProgressFn = Callable[[int, float, float, float, float], None]


def train(
    ga_config: GaConfig,
    policy_config: PolicyConfig,
    suite: TaskSuite,
    episode_config: EpisodeConfig,
    runs_per_task: int,
    master_seed: int,
    workers: int = 0,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int = 10,
    fixed_episode_seeds: bool = False,
    progress: ProgressFn | None = None,
) -> tuple[Genome, TrainHistory]:
    """Run the outer loop and return (best genome, history).

    ``generations`` evolve steps bracketed by evaluation rounds: round g
    scores the population, a history row is recorded, then the population
    evolves; after the last evolve step one final round scores and selects
    the returned genome. ``generations=0`` is a single evaluation round.

    ``fixed_episode_seeds`` reuses one episode-seed block across all rounds
    (noise-free mode: elitism then makes the best fitness non-increasing).

    After each round but the last, the flat vectors of its ``n_parents`` best
    genomes are kept as the :func:`decode` ancestors of the next round.
    """
    train_tasks = suite.train_tasks
    if not train_tasks:
        raise ValueError("suite has no training tasks")
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    val_tasks = suite.validation_tasks

    population = [
        Genome(init_seed=derive_seed(master_seed, 0, i)) for i in range(ga_config.population_size)
    ]
    rows: list[HistoryRow] = []
    best_genome = population[0]
    ancestors: dict[Genome, np.ndarray] = {}
    started = time.monotonic()

    for g in range(ga_config.generations + 1):
        eval_seed = derive_seed(master_seed, 1) if fixed_episode_seeds else derive_seed(master_seed, 1, g)
        score = partial(
            _genome_fitness,
            policy_config=policy_config,
            tasks=train_tasks,
            runs_per_task=runs_per_task,
            episode_config=episode_config,
            seed=eval_seed,
            ancestors=ancestors,
        )
        fitnesses = parallel_map(score, population, workers)
        order = _ranking(fitnesses)
        best_idx = order[0]
        best_genome = population[best_idx]
        if g < ga_config.generations:
            ancestors = {
                population[i]: _decode_flat(population[i], policy_config, ancestors)
                for i in order[: ga_config.n_parents]
            }
        val_best = math.nan
        if val_tasks:
            val_best = _genome_fitness(
                best_genome,
                policy_config=policy_config,
                tasks=val_tasks,
                runs_per_task=runs_per_task,
                episode_config=episode_config,
                seed=derive_seed(master_seed, 3, g),
                ancestors=ancestors,
            )
        rows.append(
            HistoryRow(
                generation=g,
                train_best=fitnesses[best_idx],
                train_mean=math.fsum(fitnesses) / len(fitnesses),
                val_best=val_best,
                sigma=sigma_schedule(g, ga_config),
            )
        )
        if progress is not None:
            progress(g, fitnesses[best_idx], val_best, sigma_schedule(g, ga_config), time.monotonic() - started)
        if checkpoint_dir is not None and (g % checkpoint_every == 0 or g == ga_config.generations):
            write_ga_checkpoint(
                Path(checkpoint_dir) / f"checkpoint_{g:04d}.json",
                ga_config, policy_config, g, population, TrainHistory(tuple(rows)),
            )
        if g < ga_config.generations:
            population = evolve_step(population, fitnesses, g, ga_config, derive_seed(master_seed, 2, g))

    return best_genome, TrainHistory(tuple(rows))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def genome_to_json(genome: Genome) -> dict:
    return {
        "init_seed": genome.init_seed,
        "mutations": [[seed, sigma] for seed, sigma in genome.mutations],
    }


def genome_from_json(data: dict) -> Genome:
    return Genome(
        init_seed=int(data["init_seed"]),
        mutations=tuple((int(s), float(sig)) for s, sig in data["mutations"]),
    )


def save_genome(path: str | Path, genome: Genome, policy_config: PolicyConfig) -> None:
    save_json(path, {"policy_config": policy_config.to_json(), "genome": genome_to_json(genome)})


def load_genome(path: str | Path) -> tuple[Genome, PolicyConfig]:
    payload = load_json(path, "genome")
    return genome_from_json(payload["genome"]), PolicyConfig.from_json(payload["policy_config"])


def write_ga_checkpoint(
    path: str | Path,
    ga_config: GaConfig,
    policy_config: PolicyConfig,
    generation: int,
    population: Sequence[Genome],
    history: TrainHistory,
) -> None:
    save_json(path, {
        "ga_config": asdict(ga_config),
        "policy_config": policy_config.to_json(),
        "generation": generation,
        "population": [genome_to_json(g) for g in population],
        "history": [
            [r.generation, r.train_best, r.train_mean, r.val_best, r.sigma] for r in history.rows
        ],
    })


def load_ga_checkpoint(path: str | Path) -> dict:
    payload = load_json(path, "checkpoint")
    return {
        "ga_config": GaConfig(**payload["ga_config"]),
        "policy_config": PolicyConfig.from_json(payload["policy_config"]),
        "generation": payload["generation"],
        "population": [genome_from_json(g) for g in payload["population"]],
        "history": TrainHistory(
            tuple(HistoryRow(int(r[0]), float(r[1]), float(r[2]), float(r[3]), float(r[4])) for r in payload["history"])
        ),
    }


def write_history_csv(path: str | Path, history: TrainHistory) -> None:
    rows = ([r.generation, repr(r.train_best), repr(r.train_mean), repr(r.val_best), repr(r.sigma)] for r in history.rows)
    write_csv(path, ["generation", "train_best", "train_mean", "val_best", "sigma"], rows)
