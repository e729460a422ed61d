"""Inner-loop episode lifecycle: one optimizer run against one task.

One environment step is one generation: the optimizer proposes a batch of
``lam`` points, the environment clamps them to the domain, evaluates them,
and packages the batch plus its fitness values into the next observation.
The optimizer never sees the task identity, the optimum value, or gradients.

An episode runs until its budget ``fe_max`` is spent. Reaching the success
tolerance freezes ``evals_to_success`` at that generation's cumulative
evaluation count. A caller that reads only first-hit times (ERT and ECDF
scoring) can pass ``stop_gap`` to end the episode at the first generation
whose best gap reaches it: every draw is addressed by (episode seed,
generation), so the generations that do run are the same as in the
full-budget episode, and no first hit at or above ``stop_gap`` can change
afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable

import numpy as np

from .artifacts import write_csv
from .problems import Task, evaluate_batch

__all__ = [
    "Observation",
    "ActionBatch",
    "RolloutRecord",
    "EpisodeConfig",
    "Optimizer",
    "ProtocolError",
    "run_episode",
]


class ProtocolError(RuntimeError):
    """An optimizer violated the action contract (shape or finiteness)."""


@dataclass(frozen=True)
class Observation:
    """What the optimizer sees at generation g: the previous batch.

    ``prev_points`` and ``prev_fitness`` are None exactly at generation 0,
    the empty initial observation.
    """

    prev_points: np.ndarray | None
    prev_fitness: np.ndarray | None
    generation: int

    def __post_init__(self) -> None:
        empty = self.prev_points is None
        if empty != (self.prev_fitness is None):
            raise ValueError("points and fitness must be absent together")
        if empty != (self.generation == 0):
            raise ValueError("observation is empty exactly at generation 0")
        if not empty and len(self.prev_fitness) != len(self.prev_points):
            raise ValueError("fitness length must match the number of points")

    @property
    def is_empty(self) -> bool:
        return self.prev_points is None


@dataclass(frozen=True)
class ActionBatch:
    """A proposed population: lam x d matrix of coordinates in [-1, 1]."""

    points: np.ndarray


@dataclass(frozen=True)
class RolloutRecord:
    """Everything the meta-level needs from one finished episode.

    ``best_gap_trajectory`` holds the best gap so far after each generation
    that ran. An episode stopped early by ``run_episode(stop_gap=...)`` has
    ``evals_used < fe_max`` whenever it stopped before its last generation,
    and its trajectory is correspondingly shorter.
    """

    evals_used: int
    success: bool
    evals_to_success: int | None
    best_gap: float
    best_gap_trajectory: np.ndarray
    episode_seed: int

    def __post_init__(self) -> None:
        if self.success != (self.evals_to_success is not None):
            raise ValueError("success and evals_to_success must agree")


@dataclass(frozen=True)
class EpisodeConfig:
    """Episode budget and success criterion.

    ``fe_max`` of None resolves to 100 * dimension at run time.
    """

    lam: int
    fe_max: int | None = None
    tolerance: float = 1e-3
    episode_seed: int = 0

    def __post_init__(self) -> None:
        if self.lam < 1:
            raise ValueError("lam must be positive")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.episode_seed < 0:
            raise ValueError("episode_seed must be non-negative")

    def resolve_fe_max(self, dimension: int) -> int:
        fe_max = 100 * dimension if self.fe_max is None else self.fe_max
        if fe_max < self.lam:
            raise ValueError("fe_max must be at least lam")
        return fe_max


@runtime_checkable
class Optimizer(Protocol):
    """Interface every inner-loop optimizer implements."""

    def reset(self, lam: int, dimension: int, seed: int) -> None:
        """Prepare for a fresh episode with the given population shape."""
        ...

    def act(self, obs: Observation) -> ActionBatch:
        """Propose the next population given the previous one."""
        ...


def _checked_points(action: ActionBatch, lam: int, dimension: int, generation: int) -> np.ndarray:
    if not isinstance(action, ActionBatch):
        raise ProtocolError(f"generation {generation}: optimizer returned {type(action).__name__}")
    pts = np.asarray(action.points, dtype=float)
    if pts.shape != (lam, dimension):
        raise ProtocolError(
            f"generation {generation}: action shape {pts.shape} != ({lam}, {dimension})"
        )
    if not np.all(np.isfinite(pts)):
        raise ProtocolError(f"generation {generation}: action contains non-finite values")
    return pts


def run_episode(
    optimizer: Optimizer,
    task: Task,
    config: EpisodeConfig,
    trace_path: str | Path | None = None,
    stop_gap: float | None = None,
) -> RolloutRecord:
    """Run one episode of the optimizer on the task.

    Deterministic given (optimizer parameters, task, config). The final
    generation is truncated if the budget is not a multiple of ``lam``:
    only the first remaining points of the batch are evaluated.

    With ``stop_gap`` None the episode spends its whole budget. Otherwise it
    ends right after the first generation whose best gap is at most
    ``stop_gap``; the generations before that are unchanged.
    """
    lam = config.lam
    d = task.dimension
    fe_max = config.resolve_fe_max(d)
    f_star = task.optimum_value

    optimizer.reset(lam, d, config.episode_seed)
    obs = Observation(None, None, 0)

    evals_used = 0
    best_gap = float("inf")
    evals_to_success: int | None = None
    trajectory: list[float] = []
    trace_rows: list[list] = []

    generation = 0
    while evals_used < fe_max:
        action = optimizer.act(obs)
        points = _checked_points(action, lam, d, generation)
        clamped = np.clip(points, -1.0, 1.0)
        n_eval = min(lam, fe_max - evals_used)
        fitness = evaluate_batch(task, clamped[:n_eval])
        evals_used += n_eval

        if trace_path is not None:
            for idx in range(n_eval):
                trace_rows.append([generation, idx, *clamped[idx], fitness[idx]])

        gen_gap = float(fitness.min()) - f_star
        best_gap = gen_gap if generation == 0 else min(best_gap, gen_gap)
        trajectory.append(best_gap)
        if evals_to_success is None and best_gap <= config.tolerance:
            evals_to_success = evals_used
        if stop_gap is not None and best_gap <= stop_gap:
            break

        if evals_used < fe_max:
            obs = Observation(clamped, fitness, generation + 1)
        generation += 1

    if trace_path is not None:
        _write_trace(Path(trace_path), trace_rows, d)

    traj = np.asarray(trajectory, dtype=float)
    traj.flags.writeable = False
    return RolloutRecord(
        evals_used=evals_used,
        success=evals_to_success is not None,
        evals_to_success=evals_to_success,
        best_gap=best_gap,
        best_gap_trajectory=traj,
        episode_seed=config.episode_seed,
    )


def _write_trace(path: Path, rows: list[list], dimension: int) -> None:
    header = ["generation", "point_index"] + [f"x_{j}" for j in range(dimension)] + ["fitness"]
    write_csv(path, header, ([row[0], row[1]] + [repr(float(v)) for v in row[2:]] for row in rows))
