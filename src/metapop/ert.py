"""Expected running time of the conceptual restart algorithm, and the
meta-objective built on it.

A stochastic optimizer with success probability ``p_s`` per run, restarted
until it first succeeds, costs on average

    E[FE] = ((1 - p_s) / p_s) * FE_max + E[FE_succ]

function evaluations: the number of failed runs before the first success is
geometric with mean (1 - p_s) / p_s, each failure burns the full budget, and
the final successful run costs its first-hit evaluation count. Both factors
are estimated from a batch of episode records at one target precision: a run
succeeds when :meth:`~metapop.env.RolloutRecord.first_hit` finds the
precision in its best-gap trajectory. The meta-objective is the mean of this
quantity over a batch of tasks (lower is better) at the episode tolerance,
derived from records grouped per task; :func:`metapop.bench.collect` runs the
episodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

from .env import EpisodeConfig, Optimizer, RolloutRecord, run_episode
from .problems import Task
from .seeding import derive_seed, parallel_map, stable_key

__all__ = [
    "ErtStats",
    "expected_restarts",
    "expected_fe",
    "estimate",
    "meta_fitness",
    "collect_records",
]


@dataclass(frozen=True)
class ErtStats:
    """Success-rate and running-time estimators for one (optimizer, task)."""

    n_runs: int
    n_success: int
    p_hat: float
    e_fe_succ_hat: float | None
    fe_max: int
    expected_fe: float

    def __post_init__(self) -> None:
        if self.n_runs < 1 or not 0 <= self.n_success <= self.n_runs:
            raise ValueError("invalid run counts")
        if self.p_hat != self.n_success / self.n_runs:
            raise ValueError("p_hat must equal n_success / n_runs")
        if (self.e_fe_succ_hat is None) != (self.n_success == 0):
            raise ValueError("e_fe_succ_hat present exactly when a run succeeded")


def expected_restarts(p_s: float) -> float:
    """Mean number of failed restarts before the first success."""
    if not 0.0 < p_s <= 1.0:
        raise ValueError(f"p_s must be in (0, 1], got {p_s}")
    return (1.0 - p_s) / p_s


def expected_fe(p_hat: float, e_fe_succ_hat: float, fe_max: int) -> float:
    """Restart-algorithm expectation from estimated success statistics."""
    if p_hat <= 0.0:
        raise ValueError("p_hat must be positive; use the zero-success fallback")
    if p_hat > 1.0:
        raise ValueError("p_hat cannot exceed 1")
    if e_fe_succ_hat < 0.0:
        raise ValueError("e_fe_succ_hat must be non-negative")
    return expected_restarts(p_hat) * fe_max + e_fe_succ_hat


def _fallback_expected_fe(records: Sequence[RolloutRecord], fe_max: int) -> float:
    """Finite stand-in when no run succeeded.

    Uses a pseudo success probability of 1/(2 n_runs) with a full-budget
    "success" cost, so the value strictly dominates every statistic that a
    single real success could produce. A gap-progress term (mean of final
    best gap over initial gap, clipped to [0, 1], scaled by fe_max) breaks
    ties between all-failing optimizers so selection pressure survives.
    """
    n = len(records)
    p_tilde = 1.0 / (2.0 * n)
    ratios = []
    for rec in records:
        initial = rec.best_gap_trajectory[0]
        ratios.append(min(1.0, max(0.0, rec.best_gap / initial)) if initial > 0 else 0.0)
    progress = math.fsum(ratios) / n
    return expected_restarts(p_tilde) * fe_max + fe_max + fe_max * progress


def estimate(records: Sequence[RolloutRecord], precision: float, lam: int, fe_max: int) -> ErtStats:
    """ERT statistics of episode records; a success reaches a gap of at most ``precision``."""
    if not records:
        raise ValueError("estimate needs at least one record")
    for rec in records:
        if rec.evals_used > fe_max:
            raise ValueError("record used more evaluations than fe_max")
    n_runs = len(records)
    hits = [h for h in (r.first_hit(precision, lam, fe_max) for r in records) if h is not None]
    n_success = len(hits)
    p_hat = n_success / n_runs
    if n_success == 0:
        e_succ = None
        e_fe = _fallback_expected_fe(records, fe_max)
    else:
        e_succ = math.fsum(hits) / n_success
        e_fe = expected_fe(p_hat, e_succ, fe_max)
    return ErtStats(
        n_runs=n_runs,
        n_success=n_success,
        p_hat=p_hat,
        e_fe_succ_hat=e_succ,
        fe_max=fe_max,
        expected_fe=e_fe,
    )


def episode_seed_for(seed: int, task: Task, run: int) -> int:
    """Documented seed scheme: (meta seed, task identity, run index).

    Seeds depend on the task's id string, not its list position, so any
    aggregation over tasks is invariant to their ordering.
    """
    return derive_seed(seed, stable_key(task.task_id), run)


def _episode_job(
    item: tuple[Task, int], optimizer: Optimizer, config: EpisodeConfig, stop_gap: float
) -> RolloutRecord:
    task, ep_seed = item
    return run_episode(optimizer, task, replace(config, episode_seed=ep_seed), stop_gap=stop_gap)


def collect_records(
    optimizer: Optimizer,
    tasks: Sequence[Task],
    runs_per_task: int,
    episode_config: EpisodeConfig,
    seed: int,
    workers: int = 0,
    *,
    stop_gap: float,
) -> list[list[RolloutRecord]]:
    """Run the full (task x run) episode grid; records grouped per task.

    Schedule-independent: every episode's seed comes from its own (task,
    run) coordinates, and results are reassembled in input order.
    ``stop_gap`` is passed to every :func:`run_episode`.
    """
    if not tasks:
        raise ValueError("tasks must be non-empty")
    if runs_per_task < 1:
        raise ValueError("runs_per_task must be positive")
    jobs = [
        (task, episode_seed_for(seed, task, run))
        for task in tasks
        for run in range(runs_per_task)
    ]
    job = partial(_episode_job, optimizer=optimizer, config=episode_config, stop_gap=stop_gap)
    flat = parallel_map(job, jobs, workers)
    return [
        flat[t * runs_per_task : (t + 1) * runs_per_task] for t in range(len(tasks))
    ]


def meta_fitness(
    tasks: Sequence[Task],
    grouped: Sequence[Sequence[RolloutRecord]],
    episode_config: EpisodeConfig,
) -> float:
    """Mean expected-FE over tasks; the outer loop minimizes this.

    ``grouped`` holds each task's records, as :func:`metapop.bench.collect`
    returns them for the single target ``episode_config.tolerance``, the
    precision a success must reach here: a success needs only its first hit,
    and the zero-success fallback only sees tasks where no episode succeeded,
    which therefore ran their full budgets.
    """
    if not tasks:
        raise ValueError("tasks must be non-empty")
    lam, tolerance = episode_config.lam, episode_config.tolerance
    per_task = [
        estimate(records, tolerance, lam, episode_config.resolve_fe_max(task.dimension)).expected_fe
        for task, records in zip(tasks, grouped, strict=True)
    ]
    # fsum is exactly associative-free, keeping the mean identical under any
    # permutation of the task list
    return math.fsum(per_task) / len(per_task)
