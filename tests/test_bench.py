"""Tests for the benchmarking harness (ECDF, ERT tables, comparisons)."""

from __future__ import annotations

import csv
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from metapop import ert
from metapop.baselines import CmaEs, RandomSearch
from metapop.bench import (
    ComparisonReport,
    EcdfCurve,
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
from metapop.env import ActionBatch, EpisodeConfig, RolloutRecord, run_episode
from metapop.ert import meta_fitness
from metapop.policy import LearnedOptimizer, PolicyConfig, init_params
from metapop.problems import Family, InstanceConfig, Task, make_instance, make_suite


class _ConstantOptimizer:
    def __init__(self, points):
        self._points = np.asarray(points, dtype=float)

    def reset(self, lam, dimension, seed):
        pass

    def act(self, obs):
        return ActionBatch(self._points)


def _origin_sphere(offset=0.0, task_id="origin"):
    cfg = InstanceConfig(0, np.zeros(2), np.eye(2), offset)
    return Task(Family.SPHERE, cfg, 2, offset, task_id)


def _record(traj, lam=10, fe_max=200):
    traj = np.asarray(traj, dtype=float)
    return RolloutRecord(min(len(traj) * lam, fe_max), traj, 0)


class TestTargetSet:
    def test_default_grid(self):
        ts = default_targets()
        assert len(ts) == 26
        assert ts.precisions[0] == pytest.approx(100.0)
        assert ts.precisions[-1] == pytest.approx(1e-3)
        assert ts.precisions[5] == pytest.approx(10.0)
        assert ts.tolerance == ts.precisions[-1]

    def test_validation(self):
        with pytest.raises(ValueError):
            TargetSet(())
        with pytest.raises(ValueError):
            TargetSet((1.0, 2.0))
        with pytest.raises(ValueError):
            TargetSet((1.0, 0.0))

    def test_custom_final(self):
        ts = default_targets(final=1e-1)
        assert ts.precisions[-1] == pytest.approx(1e-1)
        assert len(ts) == 16


class TestFirstHits:
    def test_per_target_hits(self):
        rec = _record([5.0, 0.5, 0.5, 0.05])
        ts = TargetSet((1.0, 0.1, 0.01))
        assert first_hits(rec, ts, lam=10, fe_max=200) == [20, 40, None]

    def test_truncated_final_generation(self):
        rec = _record([5.0, 5.0, 0.0005], lam=7, fe_max=20)
        ts = TargetSet((1e-3,))
        assert first_hits(rec, ts, lam=7, fe_max=20) == [20]


class TestEcdfCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            EcdfCurve((10, 5), (0.1, 0.2), 4)
        with pytest.raises(ValueError):
            EcdfCurve((5, 10), (0.2, 0.1), 4)
        with pytest.raises(ValueError):
            EcdfCurve((5,), (1.5,), 4)

    def test_fraction_at(self):
        c = EcdfCurve((10, 40), (0.25, 0.75), 4)
        assert c.fraction_at(5) == 0.0
        assert c.fraction_at(10) == 0.25
        assert c.fraction_at(39) == 0.25
        assert c.fraction_at(1000) == 0.75
        assert c.final_fraction == 0.75


class TestDerivationsFromRecords:
    """ECDF and ERT rows are pure functions of hand-built records."""

    TASKS = [_origin_sphere(task_id="a"), _origin_sphere(task_id="b")]
    GROUPED = [
        [_record([5.0, 0.5, 0.05]), _record([5.0, 5.0, 5.0])],
        [_record([0.5]), _record([0.05])],
    ]
    TARGETS = TargetSet((1.0, 0.1))
    CFG = EpisodeConfig(lam=10, fe_max=200)

    def test_ecdf_counts_first_hits_over_all_triples(self):
        curve = run_ecdf(self.TASKS, self.GROUPED, self.TARGETS, self.CFG)
        assert curve.budgets == (10, 20, 30)
        assert curve.fraction_solved == (3 / 8, 4 / 8, 5 / 8)
        assert curve.n_pairs == 8

    def test_ert_rows_per_task_and_target(self):
        rows = ert_table(self.TASKS, self.GROUPED, self.TARGETS, self.CFG)
        assert [(r.task_id, r.target, r.stats.p_hat, r.stats.expected_fe) for r in rows] == [
            ("a", 1.0, 0.5, 220.0),
            ("a", 0.1, 0.5, 230.0),
            ("b", 1.0, 1.0, 10.0),
            ("b", 0.1, 0.5, 210.0),
        ]

    @pytest.mark.parametrize("derive", [run_ecdf, ert_table])
    def test_tasks_and_record_groups_must_align(self, derive):
        with pytest.raises(ValueError):
            derive(self.TASKS, self.GROUPED[:1], self.TARGETS, self.CFG)
        with pytest.raises(ValueError):
            derive(self.TASKS[:1], self.GROUPED, self.TARGETS, self.CFG)


class TestRunEcdf:
    def test_instant_optimizer_is_a_step_at_lambda(self):
        """Hitting every target in generation one yields a single step."""
        tasks, targets, cfg = [_origin_sphere()], default_targets(), EpisodeConfig(lam=5, fe_max=50)
        opt = _ConstantOptimizer(np.zeros((5, 2)))
        curve = run_ecdf(tasks, collect(opt, tasks, targets, cfg, 3, seed=0), targets, cfg)
        assert curve.budgets == (5,)
        assert curve.fraction_solved == (1.0,)
        assert curve.n_pairs == 1 * 26 * 3

    def test_half_solved_curve(self):
        """One of two targets hit at 10 evals, the other never: flat 0.5."""
        tasks, targets, cfg = [_origin_sphere()], TargetSet((1.0, 1e-3)), EpisodeConfig(lam=10, fe_max=50)
        pts = np.full((10, 2), 0.1)  # gap = 25 * 0.02 = 0.5
        curve = run_ecdf(tasks, collect(_ConstantOptimizer(pts), tasks, targets, cfg, 1, seed=0),
                         targets, cfg)
        assert curve.budgets == (10,)
        assert curve.fraction_solved == (0.5,)
        assert curve.final_fraction == 0.5

    def test_random_search_final_value_matches_sublevel_volume(self):
        """Final fraction ~ closed form 1-(1-q)^FE with MC-estimated q."""
        tasks = [make_instance(Family.SPHERE, 2, 500 + i) for i in range(50)]
        tol = 0.5
        cfg = EpisodeConfig(lam=10, fe_max=200, tolerance=tol)
        targets = TargetSet((tol,))
        curve = run_ecdf(tasks, collect(RandomSearch(), tasks, targets, cfg, 4, seed=31), targets, cfg)

        rng = np.random.default_rng(999)
        predictions = []
        for task in tasks:
            draws = rng.uniform(-1.0, 1.0, (20_000, 2))
            gaps = 25.0 * ((draws - task.config.shift) ** 2).sum(axis=1)
            q = (gaps <= tol).mean()
            predictions.append(1.0 - (1.0 - q) ** 200)
        assert abs(curve.final_fraction - np.mean(predictions)) <= 0.03

    def test_task_permutation_invariance(self):
        tasks = [make_instance(Family.SPHERE, 2, s) for s in (1, 2, 3)]
        cfg = EpisodeConfig(lam=5, fe_max=50, tolerance=0.5)
        targets = default_targets()
        a = run_ecdf(tasks, collect(RandomSearch(), tasks, targets, cfg, 2, seed=5), targets, cfg)
        b = run_ecdf(tasks[::-1], collect(RandomSearch(), tasks[::-1], targets, cfg, 2, seed=5),
                     targets, cfg)
        assert a == b

    def test_worker_invariance(self):
        tasks = [make_instance(Family.SPHERE, 2, s) for s in (1, 2)]
        cfg = EpisodeConfig(lam=5, fe_max=30, tolerance=0.5)
        targets = default_targets()
        a = collect(RandomSearch(), tasks, targets, cfg, 2, seed=5, workers=1)
        b = collect(RandomSearch(), tasks, targets, cfg, 2, seed=5, workers=3)
        assert run_ecdf(tasks, a, targets, cfg) == run_ecdf(tasks, b, targets, cfg)


class TestErtTable:
    def test_all_success_rows_at_lambda(self):
        tasks, targets, cfg = [_origin_sphere()], default_targets(), EpisodeConfig(lam=5, fe_max=50)
        opt = _ConstantOptimizer(np.zeros((5, 2)))
        rows = ert_table(tasks, collect(opt, tasks, targets, cfg, 3, seed=0), targets, cfg)
        assert len(rows) == 26
        assert all(r.stats.expected_fe == 5.0 for r in rows)

    def test_row_count(self):
        tasks = [make_instance(Family.SPHERE, 2, s) for s in (1, 2, 3)]
        ts, cfg = TargetSet((1.0, 0.1)), EpisodeConfig(lam=5, fe_max=20)
        rows = ert_table(tasks, collect(RandomSearch(), tasks, ts, cfg, 2, seed=0), ts, cfg)
        assert len(rows) == 6
        assert [r.task_id for r in rows[:2]] == [tasks[0].task_id] * 2

    def test_tolerance_column_matches_meta_fitness(self):
        """Single-target table mean equals the meta-objective within 1e-9."""
        tasks = [make_instance(Family.SPHERE, 2, s) for s in (7, 8, 9)]
        tol = 0.5
        cfg = EpisodeConfig(lam=6, fe_max=60, tolerance=tol)
        targets = TargetSet((tol,))
        rows = ert_table(tasks, collect(RandomSearch(), tasks, targets, cfg, 4, seed=3), targets, cfg)
        meta = meta_fitness(tasks, collect(RandomSearch(), tasks, targets, cfg, 4, seed=3), cfg)
        table_mean = math.fsum(r.stats.expected_fe for r in rows) / len(rows)
        assert table_mean == pytest.approx(meta, abs=1e-9)

    def test_single_target_final_fraction_equals_mean_p_hat(self):
        """ECDF and ERT views agree on the success rate."""
        tasks = [make_instance(Family.RASTRIGIN, 2, s) for s in (4, 5)]
        tol = 2.0
        cfg = EpisodeConfig(lam=5, fe_max=40, tolerance=tol)
        targets = TargetSet((tol,))
        grouped = collect(RandomSearch(), tasks, targets, cfg, 6, seed=11)
        curve = run_ecdf(tasks, grouped, targets, cfg)
        rows = ert_table(tasks, grouped, targets, cfg)
        mean_p = math.fsum(r.stats.p_hat for r in rows) / len(rows)
        assert abs(curve.final_fraction - mean_p) <= 1e-12


def _full_budget_episodes():
    """Patch the scoring paths back to episodes that ignore ``stop_gap``."""

    def full_budget(optimizer, task, config, stop_gap=None):
        return run_episode(optimizer, task, config)

    return mock.patch.object(ert, "run_episode", full_budget)


def _scores(optimizer, tasks, targets, cfg):
    grouped = collect(optimizer, tasks, targets, cfg, 2, seed=7)
    scored = collect(optimizer, tasks, TargetSet((cfg.tolerance,)), cfg, 2, seed=7)
    return (
        meta_fitness(tasks, scored, cfg).hex(),
        run_ecdf(tasks, grouped, targets, cfg),
        repr(ert_table(tasks, grouped, targets, cfg)),
    )


class TestScoringStopIsExact:
    """Scoring stops each episode early and still gives the full-budget bytes."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["learned", "rs", "cma-es"]),
        init_seed=st.integers(0, 2**16),
        families=st.lists(st.sampled_from(list(Family)), min_size=2, max_size=3, unique=True),
        instance_seed=st.integers(0, 1000),
        tightest=st.sampled_from([1.0, 1e-1, 1e-2]),
        tolerance_ratio=st.sampled_from([0.1, 1.0, 10.0]),
        lam=st.sampled_from([4, 6]),
        fe_max=st.integers(12, 60),
    )
    def test_meta_fitness_ecdf_and_ert_rows_match_full_budget(
        self, kind, init_seed, families, instance_seed, tightest, tolerance_ratio, lam, fe_max
    ):
        if kind == "learned":
            config = PolicyConfig(lam=lam)
            optimizer = LearnedOptimizer(init_params(config, seed=init_seed), config)
        else:
            optimizer = RandomSearch() if kind == "rs" else CmaEs()
        tasks = [make_instance(f, 2, instance_seed + i) for i, f in enumerate(families)]
        targets = default_targets(final=tightest, per_decade=2)
        cfg = EpisodeConfig(lam=lam, fe_max=max(fe_max, lam), tolerance=tightest * tolerance_ratio)
        stopped = _scores(optimizer, tasks, targets, cfg)
        with _full_budget_episodes():
            full = _scores(optimizer, tasks, targets, cfg)
        assert stopped == full

    def test_each_path_passes_its_stop_gap(self):
        """The GA's path stops at the tolerance, the benchmark's at the tighter gap."""
        seen = []

        def spy(optimizer, task, config, stop_gap=None):
            seen.append(stop_gap)
            return run_episode(optimizer, task, config, stop_gap=stop_gap)

        tasks = [make_instance(Family.SPHERE, 2, 3)]
        with mock.patch.object(ert, "run_episode", spy):
            for tolerance in (0.01, 1.0):
                cfg = EpisodeConfig(lam=5, fe_max=20, tolerance=tolerance)
                _scores(RandomSearch(), tasks, TargetSet((1.0, 0.1)), cfg)
        assert seen == [0.01] * 4 + [0.1] * 2 + [1.0] * 2


class TestAuc:
    def test_matches_naive_oracle(self):
        curve = EcdfCurve((3, 17, 60, 200), (0.1, 0.35, 0.5, 0.9), 20)
        got = ecdf_auc(curve, 200)
        want = oracles.naive_auc(list(curve.budgets), list(curve.fraction_solved), 200.0)
        assert got == pytest.approx(want, abs=1e-12)

    def test_step_curve_value(self):
        """Full solve at budget 10 with fe_max 100 covers half the log axis."""
        curve = EcdfCurve((10,), (1.0,), 5)
        assert ecdf_auc(curve, 100) == pytest.approx(0.5, abs=1e-12)

    def test_empty_curve_scores_zero(self):
        assert ecdf_auc(EcdfCurve((), (), 5), 100) == 0.0

    def test_ordering(self):
        instant = EcdfCurve((10,), (1.0,), 5)
        never = EcdfCurve((), (), 5)
        assert ecdf_auc(instant, 100) > ecdf_auc(never, 100)


class TestCompare:
    def _suite(self):
        return make_suite([Family.SPHERE], 2, 5, (0.2, 0.2, 0.6), master_seed=3)

    def test_self_comparison_identical(self):
        report = compare(
            [("rs-a", RandomSearch()), ("rs-b", RandomSearch())],
            self._suite(), TargetSet((0.5,)), EpisodeConfig(lam=5, fe_max=30, tolerance=0.5),
            2, seed=1,
        )
        a, b = report.entries
        assert a.curve == b.curve
        assert a.auc == b.auc

    def test_uses_test_split_only(self):
        suite = self._suite()
        report = compare(
            [("x", RandomSearch()), ("y", RandomSearch())],
            suite, TargetSet((0.5,)), EpisodeConfig(lam=5, fe_max=30, tolerance=0.5),
            3, seed=1,
        )
        assert report.entry("x").curve.n_pairs == len(suite.test_tasks) * 1 * 3

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            compare([("only", RandomSearch())], self._suite(), TargetSet((0.5,)),
                    EpisodeConfig(lam=5, fe_max=30), 2, seed=0)
        with pytest.raises(ValueError):
            compare([("dup", RandomSearch()), ("dup", RandomSearch())], self._suite(),
                    TargetSet((0.5,)), EpisodeConfig(lam=5, fe_max=30), 2, seed=0)


class TestCsvWriters:
    def test_ecdf_csv(self, tmp_path):
        curve = EcdfCurve((5, 10), (0.25, 1.0), 4)
        path = tmp_path / "ecdf.csv"
        write_ecdf_csv(path, [("rs", curve)])
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["optimizer", "budget", "fraction_solved", "n_pairs"]
        assert rows[1] == ["rs", "5", "0.25", "4"]
        assert rows[2] == ["rs", "10", "1.0", "4"]

    def test_ert_csv(self, tmp_path):
        tasks, targets, cfg = [_origin_sphere()], TargetSet((1e-3,)), EpisodeConfig(lam=5, fe_max=20)
        grouped = collect(_ConstantOptimizer(np.zeros((5, 2))), tasks, targets, cfg, 2, seed=0)
        rows = ert_table(tasks, grouped, targets, cfg)
        path = tmp_path / "ert.csv"
        write_ert_csv(path, [("inst", rows)])
        with path.open(newline="") as fh:
            got = list(csv.reader(fh))
        assert got[0] == ["optimizer", "task_id", "target", "n_runs", "n_success",
                          "p_hat", "e_fe_succ_hat", "expected_fe"]
        assert got[1] == ["inst", "origin", "0.001", "2", "2", "1.0", "5.0", "5.0"]
