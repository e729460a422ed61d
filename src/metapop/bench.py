"""Evaluation harness: ECDF curves, ERT tables, and optimizer comparisons.

Follows the COCO benchmarking methodology. :func:`collect` runs each
(task, run) episode once, up to the first generation that reaches the
tightest target, and returns the records grouped per task. Everything else
is a pure function of those records, and every success is a first hit read
off a record's best-gap trajectory by
:meth:`~metapop.env.RolloutRecord.first_hit`: :func:`first_hits` lists them
for every target precision, :func:`run_ecdf` aggregates them over all
(task, target, run) triples as a function of budget, and :func:`ert_table`
estimates ERT statistics per (task, target) from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .artifacts import write_csv
from .env import EpisodeConfig, Optimizer, RolloutRecord
from .ert import ErtStats, collect_records, estimate
from .problems import Task, TaskSuite

__all__ = [
    "TargetSet",
    "default_targets",
    "EcdfCurve",
    "first_hits",
    "collect",
    "run_ecdf",
    "ErtRow",
    "ert_table",
    "ecdf_auc",
    "ComparisonEntry",
    "ComparisonReport",
    "compare",
    "write_ecdf_csv",
    "write_ert_csv",
]


@dataclass(frozen=True)
class TargetSet:
    """Descending gap-to-optimum thresholds, one runtime measure each."""

    precisions: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "precisions", tuple(float(p) for p in self.precisions))
        if not self.precisions:
            raise ValueError("need at least one target precision")
        if any(p <= 0 for p in self.precisions):
            raise ValueError("precisions must be positive")
        if any(a <= b for a, b in zip(self.precisions, self.precisions[1:])):
            raise ValueError("precisions must be strictly decreasing")

    def __len__(self) -> int:
        return len(self.precisions)

    @property
    def tolerance(self) -> float:
        """The final (tightest) target; by convention the success tolerance."""
        return self.precisions[-1]


def default_targets(final: float = 1e-3, per_decade: int = 5, start: float = 1e2) -> TargetSet:
    """Log-spaced targets from ``start`` down to ``final`` inclusive.

    Defaults give 26 precisions: 10^2 down to 10^-3, five per decade.
    """
    if final <= 0 or start <= final:
        raise ValueError("need start > final > 0")
    decades = np.log10(start) - np.log10(final)
    count = int(round(decades * per_decade)) + 1
    exponents = np.linspace(np.log10(start), np.log10(final), count)
    return TargetSet(tuple(10.0**e for e in exponents))


@dataclass(frozen=True)
class EcdfCurve:
    """Step curve: fraction of (task, target, run) triples hit per budget."""

    budgets: tuple[int, ...]
    fraction_solved: tuple[float, ...]
    n_pairs: int

    def __post_init__(self) -> None:
        if len(self.budgets) != len(self.fraction_solved):
            raise ValueError("budgets and fractions must align")
        if any(a >= b for a, b in zip(self.budgets, self.budgets[1:])):
            raise ValueError("budgets must be strictly increasing")
        if any(a > b for a, b in zip(self.fraction_solved, self.fraction_solved[1:])):
            raise ValueError("fraction_solved must be non-decreasing")
        if self.fraction_solved and not 0 <= self.fraction_solved[-1] <= 1:
            raise ValueError("fractions must lie in [0, 1]")

    @property
    def final_fraction(self) -> float:
        return self.fraction_solved[-1] if self.fraction_solved else 0.0

    def fraction_at(self, budget: float) -> float:
        """Curve value at an arbitrary budget (right-continuous step)."""
        value = 0.0
        for b, f in zip(self.budgets, self.fraction_solved):
            if b <= budget:
                value = f
            else:
                break
        return value


def first_hits(record: RolloutRecord, targets: TargetSet, lam: int, fe_max: int) -> list[int | None]:
    """First-hit evaluation count per target, None where never reached."""
    return [record.first_hit(precision, lam, fe_max) for precision in targets.precisions]


def _curve_from_hits(hit_budgets: list[int], n_pairs: int) -> EcdfCurve:
    if n_pairs <= 0:
        raise ValueError("n_pairs must be positive")
    counts: dict[int, int] = {}
    for b in hit_budgets:
        counts[b] = counts.get(b, 0) + 1
    budgets = sorted(counts)
    fractions = []
    running = 0
    for b in budgets:
        running += counts[b]
        fractions.append(running / n_pairs)
    return EcdfCurve(tuple(budgets), tuple(fractions), n_pairs)


def collect(
    optimizer: Optimizer,
    tasks: Sequence[Task],
    targets: TargetSet,
    episode_config: EpisodeConfig,
    runs_per_task: int,
    seed: int,
    workers: int = 0,
) -> list[list[RolloutRecord]]:
    """Run the (task x run) episode grid once; records grouped per task.

    The one place that decides where a scored episode stops: at the tightest
    gap that any derivation reads, the final target or the episode tolerance
    if that is tighter, because :func:`metapop.ert.meta_fitness` reads first
    hits at the episode tolerance. No first hit can change after it.
    :func:`run_ecdf`, :func:`ert_table` and the GA's
    :func:`metapop.ert.meta_fitness` all derive from these records.
    """
    return collect_records(optimizer, tasks, runs_per_task, episode_config, seed, workers,
                           stop_gap=min(targets.tolerance, episode_config.tolerance))


def run_ecdf(
    tasks: Sequence[Task],
    grouped: Sequence[Sequence[RolloutRecord]],
    targets: TargetSet,
    episode_config: EpisodeConfig,
) -> EcdfCurve:
    """ECDF of first-hit times over all (task, target, run) triples."""
    hit_budgets: list[int] = []
    n_records = 0
    for task, records in zip(tasks, grouped, strict=True):
        fe_max = episode_config.resolve_fe_max(task.dimension)
        n_records += len(records)
        for rec in records:
            for hit in first_hits(rec, targets, episode_config.lam, fe_max):
                if hit is not None:
                    hit_budgets.append(hit)
    return _curve_from_hits(hit_budgets, n_records * len(targets))


@dataclass(frozen=True)
class ErtRow:
    task_id: str
    target: float
    stats: ErtStats


def ert_table(
    tasks: Sequence[Task],
    grouped: Sequence[Sequence[RolloutRecord]],
    targets: TargetSet,
    episode_config: EpisodeConfig,
) -> list[ErtRow]:
    """Per-(task, target) ERT statistics, treating each target as success."""
    rows: list[ErtRow] = []
    for task, records in zip(tasks, grouped, strict=True):
        fe_max = episode_config.resolve_fe_max(task.dimension)
        rows.extend(
            ErtRow(task.task_id, precision, estimate(records, precision, episode_config.lam, fe_max))
            for precision in targets.precisions
        )
    return rows


def ecdf_auc(curve: EcdfCurve, fe_max: int) -> float:
    """Normalized area under the ECDF step curve over log10 budget in [1, fe_max]."""
    if fe_max <= 1:
        raise ValueError("fe_max must exceed 1")
    span = np.log10(fe_max)
    area = 0.0
    prev_b, prev_f = 1.0, 0.0
    for b, f in zip(curve.budgets, curve.fraction_solved):
        clamped = min(max(float(b), 1.0), float(fe_max))
        area += prev_f * (np.log10(clamped) - np.log10(prev_b))
        prev_b, prev_f = clamped, f
    area += prev_f * (span - np.log10(prev_b))
    return float(area / span)


@dataclass(frozen=True)
class ComparisonEntry:
    name: str
    curve: EcdfCurve
    auc: float
    final_fraction: float


@dataclass(frozen=True)
class ComparisonReport:
    entries: tuple[ComparisonEntry, ...]

    def entry(self, name: str) -> ComparisonEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def compare(
    optimizers: Sequence[tuple[str, Optimizer]],
    suite: TaskSuite,
    targets: TargetSet,
    episode_config: EpisodeConfig,
    runs_per_task: int,
    seed: int,
    workers: int = 0,
) -> ComparisonReport:
    """Benchmark named optimizers on the suite's Test tasks."""
    if len(optimizers) < 2:
        raise ValueError("compare needs at least two optimizers")
    names = [name for name, _ in optimizers]
    if len(set(names)) != len(names):
        raise ValueError("optimizer names must be unique")
    tasks = suite.test_tasks
    if not tasks:
        raise ValueError("suite has no test tasks")
    fe_max = max(episode_config.resolve_fe_max(t.dimension) for t in tasks)
    entries = []
    for name, optimizer in optimizers:
        grouped = collect(optimizer, tasks, targets, episode_config, runs_per_task, seed, workers)
        curve = run_ecdf(tasks, grouped, targets, episode_config)
        entries.append(
            ComparisonEntry(
                name=name,
                curve=curve,
                auc=ecdf_auc(curve, fe_max),
                final_fraction=curve.final_fraction,
            )
        )
    return ComparisonReport(tuple(entries))


def write_ecdf_csv(path: str | Path, curves: Sequence[tuple[str, EcdfCurve]]) -> None:
    rows = ([name, b, repr(f), curve.n_pairs] for name, curve in curves for b, f in zip(curve.budgets, curve.fraction_solved))
    write_csv(path, ["optimizer", "budget", "fraction_solved", "n_pairs"], rows)


def write_ert_csv(path: str | Path, tables: Sequence[tuple[str, Sequence[ErtRow]]]) -> None:
    def cells(name: str, row: ErtRow) -> list:
        s = row.stats
        e_fe_succ = "" if s.e_fe_succ_hat is None else repr(s.e_fe_succ_hat)
        return [name, row.task_id, repr(row.target), s.n_runs, s.n_success, repr(s.p_hat), e_fe_succ, repr(s.expected_fe)]

    header = ["optimizer", "task_id", "target", "n_runs", "n_success", "p_hat", "e_fe_succ_hat", "expected_fe"]
    write_csv(path, header, (cells(name, row) for name, rows in tables for row in rows))
