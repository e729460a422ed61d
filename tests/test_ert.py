"""Tests for expected-running-time estimation and the meta-objective."""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from metapop.bench import TargetSet, collect
from metapop.env import ActionBatch, EpisodeConfig, RolloutRecord, run_episode
from metapop.ert import (
    ErtStats,
    collect_records,
    episode_seed_for,
    estimate,
    expected_fe,
    expected_restarts,
    meta_fitness,
)
from metapop.problems import Family, InstanceConfig, Task, make_instance


LAM, TOL = 10, 1e-3


def _rec(first_hit: int | None, best_gap: float, initial_gap: float = 10.0, evals: int = 200):
    """Hand-built record of a lam=LAM episode: its gap drops from ``initial_gap`` to
    ``best_gap`` at its ``first_hit``-th evaluation (at its second generation if None)."""
    hit_generation = 1 if first_hit is None else first_hit // LAM - 1
    traj = np.full(-(-evals // LAM), best_gap)
    traj[:hit_generation] = initial_gap
    rec = RolloutRecord(evals_used=evals, best_gap_trajectory=traj, episode_seed=0)
    assert rec.first_hit(TOL, LAM, 200) == first_hit
    return rec


class TestExpectedRestarts:
    def test_always_succeeding_never_restarts(self):
        assert expected_restarts(1.0) == 0.0

    def test_half(self):
        assert expected_restarts(0.5) == 1.0

    def test_matches_geometric_simulation(self):
        """Failures before first success, p=0.25: mean of 1e6 sims ~ 3."""
        rng = np.random.default_rng(1234)
        failures = rng.geometric(0.25, 1_000_000) - 1
        assert abs(failures.mean() - expected_restarts(0.25)) <= 0.02

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            expected_restarts(0.0)
        with pytest.raises(ValueError):
            expected_restarts(1.5)


class TestExpectedFe:
    def test_direct_substitution(self):
        assert expected_fe(0.5, 150.0, 400) == 550.0

    def test_no_restart_case(self):
        assert expected_fe(1.0, 90.0, 400) == 90.0

    def test_matches_restart_simulation(self):
        """1e6 simulated restart processes: fail costs 200, success 80."""
        rng = np.random.default_rng(77)
        failures = rng.geometric(0.3, 1_000_000) - 1
        sim = (failures * 200.0 + 80.0).mean()
        formula = expected_fe(0.3, 80.0, 200)
        assert formula == pytest.approx(200.0 * (0.7 / 0.3) + 80.0)
        assert abs(sim - formula) / formula <= 0.005

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            expected_fe(0.0, 80.0, 200)
        with pytest.raises(ValueError):
            expected_fe(1.2, 80.0, 200)
        with pytest.raises(ValueError):
            expected_fe(0.5, -1.0, 200)


class TestEstimate:
    def test_textbook_batch(self):
        """10 runs, 4 successes totalling 800 first-hit evals, budget 200."""
        records = [_rec(200, 0.0) for _ in range(4)] + [
            _rec(None, 3.0) for _ in range(6)
        ]
        stats = estimate(records, TOL, LAM, 200)
        assert stats.p_hat == 0.4
        assert stats.e_fe_succ_hat == 200.0
        assert stats.expected_fe == (0.6 / 0.4) * 200 + 200
        assert stats.n_runs == 10 and stats.n_success == 4

    def test_all_success_at_lambda(self):
        """Universal first-generation success collapses to lambda evals."""
        records = [_rec(10, 0.0) for _ in range(5)]
        stats = estimate(records, TOL, LAM, 200)
        assert stats.expected_fe == 10.0
        assert stats.expected_fe == stats.e_fe_succ_hat

    def test_zero_success_fallback_value(self):
        """Fallback equals the documented pseudo-probability formula."""
        gaps = [5.0, 2.0, 10.0, 12.0]
        records = [_rec(None, g, initial_gap=10.0) for g in gaps]
        stats = estimate(records, TOL, LAM, 200)
        p_tilde = 1.0 / 8.0
        progress = sum(min(1.0, g / 10.0) for g in gaps) / 4.0
        expected = (1 - p_tilde) / p_tilde * 200 + 200 + 200 * progress
        assert stats.expected_fe == pytest.approx(expected, rel=1e-12)
        assert stats.e_fe_succ_hat is None
        assert stats.p_hat == 0.0

    def test_fallback_dominates_any_single_success(self):
        """Zero successes always scores worse than one worst-case success."""
        n = 10
        failing = [_rec(None, 0.01, initial_gap=1000.0) for _ in range(n)]
        one_worst = [_rec(200, 0.0)] + [_rec(None, 50.0) for _ in range(n - 1)]
        assert estimate(failing, TOL, LAM, 200).expected_fe > estimate(one_worst, TOL, LAM, 200).expected_fe

    def test_more_successes_never_hurt(self):
        """Holding first-hit times fixed, extra successes lower the score."""
        values = []
        for k in range(1, 11):
            records = [_rec(100, 0.0) for _ in range(k)] + [
                _rec(None, 5.0) for _ in range(10 - k)
            ]
            values.append(estimate(records, TOL, LAM, 200).expected_fe)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_estimator_consistency_large_sample(self):
        """At 1e4 synthetic runs the estimate tracks the true process cost."""
        rng = np.random.default_rng(5)
        records = [
            _rec(80, 0.0) if rng.random() < 0.3 else _rec(None, 4.0)
            for _ in range(10_000)
        ]
        got = estimate(records, TOL, LAM, 200).expected_fe
        true = expected_fe(0.3, 80.0, 200)
        sim = oracles.simulate_restart_fe(0.3, 200.0, 80.0, 20_000, np.random.default_rng(6))
        assert abs(got - true) / true <= 0.03
        assert abs(got - sim) / sim <= 0.03

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            estimate([], TOL, LAM, 200)
        with pytest.raises(ValueError):
            estimate([_rec(10, 0.0, evals=300)], TOL, LAM, 200)


class TestErtStatsValidation:
    def test_inconsistent_p_hat(self):
        with pytest.raises(ValueError):
            ErtStats(10, 4, 0.5, 100.0, 200, 500.0)

    def test_missing_e_succ(self):
        with pytest.raises(ValueError):
            ErtStats(10, 4, 0.4, None, 200, 500.0)


class _UniformOptimizer:
    def reset(self, lam, dimension, seed):
        self._rng = np.random.default_rng(seed)
        self._shape = (lam, dimension)

    def act(self, obs):
        return ActionBatch(self._rng.uniform(-1.0, 1.0, self._shape))


class _ZeroOptimizer:
    def reset(self, lam, dimension, seed):
        self._shape = (lam, dimension)

    def act(self, obs):
        return ActionBatch(np.zeros(self._shape))


def _origin_spheres(count: int) -> list[Task]:
    tasks = []
    for i in range(count):
        cfg = InstanceConfig(i, np.zeros(2), np.eye(2), float(i))
        tasks.append(Task(Family.SPHERE, cfg, 2, float(i), f"origin-sphere-{i}"))
    return tasks


def _fitness(optimizer, tasks, runs_per_task, cfg, seed, workers=0):
    """The GA's scoring path: collect at the tolerance, then derive."""
    grouped = collect(optimizer, tasks, TargetSet((cfg.tolerance,)), cfg, runs_per_task, seed, workers)
    return meta_fitness(tasks, grouped, cfg)


class TestMetaFitness:
    def test_immediate_optimum_scores_lambda(self):
        """An optimizer that opens on the optimum scores exactly lambda."""
        tasks = _origin_spheres(3)
        cfg = EpisodeConfig(lam=4, fe_max=20)
        assert _fitness(_ZeroOptimizer(), tasks, 3, cfg, seed=0) == 4.0

    def test_hand_built_records(self):
        """One task with a success, one scored by the zero-success fallback."""
        tasks = _origin_spheres(2)
        cfg = EpisodeConfig(lam=10, fe_max=200)
        grouped = [
            [_rec(None, 0.7), _rec(70, 1e-4), _rec(None, 2.0)],
            [_rec(None, 3.0), _rec(None, 7.0), _rec(None, 20.0)],
        ]
        # (2 * 200 + 70 + 5 * 200 + 200 + 200 * (0.3 + 0.7 + 1.0) / 3) / 2
        assert meta_fitness(tasks, grouped, cfg).hex() == "0x1.c2d5555555556p+9"
        with pytest.raises(ValueError):
            meta_fitness(tasks, grouped[:1], cfg)
        with pytest.raises(ValueError):
            meta_fitness(tasks[:1], grouped, cfg)

    def test_matches_independent_recomputation(self):
        """Aggregate equals a plain-python recomputation from raw records."""
        suite_tasks = [make_instance(Family.SPHERE, 2, s) for s in (1, 2, 3)]
        cfg = EpisodeConfig(lam=5, fe_max=40, tolerance=0.5)
        got = _fitness(_UniformOptimizer(), suite_tasks, 6, cfg, seed=9)

        per_task = []
        for task in suite_tasks:
            records = []
            for run in range(6):
                ep = EpisodeConfig(
                    lam=5, fe_max=40, tolerance=0.5,
                    episode_seed=episode_seed_for(9, task, run),
                )
                records.append(run_episode(_UniformOptimizer(), task, ep))
            hits = [oracles.evals_to_success(r.best_gap_trajectory, 5, 40, 0.5) for r in records]
            succ = [h for h in hits if h is not None]
            if succ:
                value = oracles.naive_expected_fe(len(succ) / 6, 40.0, sum(succ) / len(succ))
            else:
                p = 1.0 / 12.0
                prog = sum(
                    min(1.0, max(0.0, r.best_gap / r.best_gap_trajectory[0]))
                    for r in records
                ) / 6.0
                value = (1 - p) / p * 40.0 + 40.0 + 40.0 * prog
            per_task.append(value)
        want = sum(per_task) / len(per_task)
        assert got == pytest.approx(want, abs=1e-9)

    def test_task_permutation_invariance(self):
        tasks = [make_instance(Family.RASTRIGIN, 2, s) for s in (4, 5, 6, 7)]
        cfg = EpisodeConfig(lam=4, fe_max=24, tolerance=0.5)
        forward = _fitness(_UniformOptimizer(), tasks, 3, cfg, seed=2)
        backward = _fitness(_UniformOptimizer(), tasks[::-1], 3, cfg, seed=2)
        assert forward == backward

    def test_worker_count_does_not_change_result(self):
        tasks = [make_instance(Family.SPHERE, 2, s) for s in (11, 12)]
        cfg = EpisodeConfig(lam=4, fe_max=20, tolerance=0.5)
        serial = _fitness(_UniformOptimizer(), tasks, 4, cfg, seed=3, workers=1)
        parallel = _fitness(_UniformOptimizer(), tasks, 4, cfg, seed=3, workers=2)
        assert serial == parallel

    def test_collect_records_grouping(self):
        tasks = _origin_spheres(2)
        cfg = EpisodeConfig(lam=3, fe_max=9)
        grouped = collect_records(_ZeroOptimizer(), tasks, 5, cfg, seed=1, stop_gap=cfg.tolerance)
        assert len(grouped) == 2 and all(len(g) == 5 for g in grouped)
        seeds = {r.episode_seed for g in grouped for r in g}
        assert len(seeds) == 10

    def test_rejects_empty_tasks(self):
        with pytest.raises(ValueError):
            meta_fitness([], [], EpisodeConfig(lam=2))
