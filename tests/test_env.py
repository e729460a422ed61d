"""Tests for the episode lifecycle and its optimizer protocol."""

from __future__ import annotations

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from metapop import baselines, policy
from metapop.baselines import CmaEs, RandomSearch
from metapop.env import (
    ActionBatch,
    EpisodeConfig,
    Observation,
    ProtocolError,
    run_episode,
)
from metapop.problems import (
    Family,
    InstanceConfig,
    Task,
    evaluate,
    make_instance,
)
from metapop.seeding import rng_from


def _origin_sphere(dimension: int = 2, offset: float = 3.25) -> Task:
    """Sphere instance with the optimum exactly at the origin."""
    config = InstanceConfig(
        instance_seed=0,
        shift=np.zeros(dimension),
        rotation=np.eye(dimension),
        value_offset=offset,
    )
    return Task(Family.SPHERE, config, dimension, offset, "sphere-origin")


class _ConstantOptimizer:
    """Always proposes the same batch."""

    def __init__(self, points: np.ndarray):
        self._points = np.asarray(points, dtype=float)

    def reset(self, lam: int, dimension: int, seed: int) -> None:
        pass

    def act(self, obs: Observation) -> ActionBatch:
        return ActionBatch(self._points)


class _UniformOptimizer:
    """Batch random search driven by the episode seed."""

    def reset(self, lam: int, dimension: int, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self._shape = (lam, dimension)

    def act(self, obs: Observation) -> ActionBatch:
        return ActionBatch(self._rng.uniform(-1.0, 1.0, self._shape))


class _CaptureOptimizer(_UniformOptimizer):
    """Random search that records every observation it receives."""

    def reset(self, lam: int, dimension: int, seed: int) -> None:
        super().reset(lam, dimension, seed)
        self.seen: list[Observation] = []
        self.sent: list[np.ndarray] = []

    def act(self, obs: Observation) -> ActionBatch:
        self.seen.append(obs)
        batch = super().act(obs)
        self.sent.append(batch.points)
        return batch


class TestObservationPackaging:
    def test_initial_observation_is_empty(self):
        obs = Observation(None, None, 0)
        assert obs.is_empty
        assert obs.generation == 0

    def test_rejects_inconsistent_emptiness(self):
        with pytest.raises(ValueError):
            Observation(np.zeros((2, 2)), np.zeros(2), 0)
        with pytest.raises(ValueError):
            Observation(None, None, 1)
        with pytest.raises(ValueError):
            Observation(np.zeros((2, 2)), None, 1)
        with pytest.raises(ValueError):
            Observation(np.zeros((2, 2)), np.zeros(3), 1)


class TestEpisodeConfig:
    def test_default_budget_is_100d(self):
        assert EpisodeConfig(lam=5).resolve_fe_max(3) == 300

    def test_validation(self):
        with pytest.raises(ValueError):
            EpisodeConfig(lam=0)
        with pytest.raises(ValueError):
            EpisodeConfig(lam=5, tolerance=0.0)
        with pytest.raises(ValueError):
            EpisodeConfig(lam=10, fe_max=5).resolve_fe_max(2)


class TestRunEpisode:
    def test_immediate_optimum_succeeds_at_lambda(self):
        """Emitting the optimum location wins in the first generation."""
        task = make_instance(Family.RASTRIGIN, 3, 4)
        lam = 6
        opt = _ConstantOptimizer(np.tile(task.optimum_location(), (lam, 1)))
        cfg = EpisodeConfig(lam=lam, fe_max=60)
        rec = run_episode(opt, task, cfg)
        assert rec.first_hit(cfg.tolerance, lam, 60) == lam
        assert rec.evals_used == 60
        assert rec.best_gap == 0.0
        np.testing.assert_array_equal(rec.best_gap_trajectory, np.zeros(10))

    def test_constant_corner_never_succeeds(self):
        """A constant non-optimal policy fails with the corner's exact gap."""
        task = _origin_sphere()
        corner = np.ones((4, 2))
        cfg = EpisodeConfig(lam=4, fe_max=40)
        rec = run_episode(_ConstantOptimizer(corner), task, cfg)
        assert rec.first_hit(cfg.tolerance, 4, 40) is None
        assert rec.best_gap == evaluate(task, np.ones(2)) - task.optimum_value

    def test_budget_truncation(self):
        """fe_max not divisible by lam truncates the last generation."""
        task = _origin_sphere()
        opt = _CaptureOptimizer()
        rec = run_episode(opt, task, EpisodeConfig(lam=7, fe_max=20, episode_seed=1))
        assert rec.evals_used == 20
        assert len(rec.best_gap_trajectory) == 3
        assert [o.generation for o in opt.seen] == [0, 1, 2]

    def test_best_gap_trajectory_never_increases(self):
        """The trajectory is a running best; it ends at the record's best gap."""
        task = make_instance(Family.RASTRIGIN, 2, 8)
        rec = run_episode(_UniformOptimizer(), task, EpisodeConfig(lam=5, episode_seed=3))
        traj = rec.best_gap_trajectory
        assert (np.diff(traj) <= 0.0).all()
        assert traj[-1] == rec.best_gap

    def test_success_freezes_but_episode_continues(self):
        """First-hit evals stay fixed even when later generations are worse."""
        task = _origin_sphere(offset=0.0)

        class _HitOnce:
            def reset(self, lam, dimension, seed):
                self._g = 0

            def act(self, obs):
                pts = np.full((5, 2), 0.9)
                if self._g == 2:
                    pts = np.zeros((5, 2))
                self._g += 1
                return ActionBatch(pts)

        cfg = EpisodeConfig(lam=5, fe_max=50)
        rec = run_episode(_HitOnce(), task, cfg)
        assert rec.first_hit(cfg.tolerance, 5, 50) == 15
        assert rec.evals_used == 50
        assert rec.best_gap == 0.0

    def test_bit_identical_repetition(self):
        """Identical inputs reproduce the record exactly."""
        task = make_instance(Family.SCHWEFEL, 2, 5)
        cfg = EpisodeConfig(lam=4, fe_max=40, episode_seed=9)
        a = run_episode(_UniformOptimizer(), task, cfg)
        b = run_episode(_UniformOptimizer(), task, cfg)
        assert a.evals_used == b.evals_used
        assert a.first_hit(cfg.tolerance, 4, 40) == b.first_hit(cfg.tolerance, 4, 40)
        assert a.best_gap == b.best_gap
        np.testing.assert_array_equal(a.best_gap_trajectory, b.best_gap_trajectory)

    def test_out_of_domain_actions_are_clamped(self):
        """Coordinates beyond the box are clamped, not rejected."""
        task = _origin_sphere()
        rec = run_episode(
            _ConstantOptimizer(np.full((3, 2), 2.0)), task, EpisodeConfig(lam=3, fe_max=6)
        )
        assert rec.best_gap == evaluate(task, np.ones(2)) - task.optimum_value

    def test_observation_roundtrip_bit_exact(self):
        """Observations carry the clamped points and their exact fitness."""
        task = make_instance(Family.SPHERE, 2, 3)
        opt = _CaptureOptimizer()
        run_episode(opt, task, EpisodeConfig(lam=4, fe_max=12, episode_seed=2))
        from metapop.problems import evaluate_batch

        for g in (1, 2):
            obs = opt.seen[g]
            sent = np.clip(opt.sent[g - 1], -1.0, 1.0)
            np.testing.assert_array_equal(obs.prev_points, sent)
            np.testing.assert_array_equal(obs.prev_fitness, evaluate_batch(task, sent))

    def test_protocol_errors_name_the_generation(self):
        task = _origin_sphere()

        class _BadShape:
            def reset(self, lam, dimension, seed):
                pass

            def act(self, obs):
                return ActionBatch(np.zeros((2, 5)))

        class _NonFinite:
            def reset(self, lam, dimension, seed):
                pass

            def act(self, obs):
                return ActionBatch(np.full((3, 2), np.nan))

        with pytest.raises(ProtocolError, match="generation 0"):
            run_episode(_BadShape(), task, EpisodeConfig(lam=3, fe_max=30))
        with pytest.raises(ProtocolError, match="non-finite"):
            run_episode(_NonFinite(), task, EpisodeConfig(lam=3, fe_max=30))

    def test_trace_export(self, tmp_path):
        task = make_instance(Family.SPHERE, 2, 1)
        path = tmp_path / "trace.csv"
        rec = run_episode(
            _UniformOptimizer(), task, EpisodeConfig(lam=4, fe_max=10, episode_seed=5), trace_path=path
        )
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["generation", "point_index", "x_0", "x_1", "fitness"]
        assert len(rows) - 1 == rec.evals_used
        last = rows[-1]
        assert last[0] == "2" and last[1] == "1"
        assert all(np.isfinite(float(v)) for v in last[2:])

    def test_default_budget_runs_100d_evals(self):
        task = make_instance(Family.SPHERE, 3, 2)
        rec = run_episode(_UniformOptimizer(), task, EpisodeConfig(lam=10, episode_seed=1))
        assert rec.evals_used == 300


class TestStopGap:
    """``stop_gap`` ends an episode at its first generation that reaches it."""

    @staticmethod
    def _check_stop(optimizer_factory, task, cfg, stop_gap):
        full = run_episode(optimizer_factory(), task, cfg)
        opt = optimizer_factory()
        stopped = run_episode(opt, task, cfg, stop_gap=stop_gap)
        fe_max = cfg.resolve_fe_max(task.dimension)
        reached = np.nonzero(full.best_gap_trajectory <= stop_gap)[0]
        if reached.size == 0:
            g = len(full.best_gap_trajectory) - 1
            assert stopped.evals_used == full.evals_used == fe_max
        else:
            g = int(reached[0])
            assert stopped.evals_used == min((g + 1) * cfg.lam, fe_max)
        assert len(stopped.best_gap_trajectory) == g + 1
        np.testing.assert_array_equal(stopped.best_gap_trajectory, full.best_gap_trajectory[: g + 1])
        assert stopped.best_gap == full.best_gap_trajectory[g]
        for precision in (stop_gap, cfg.tolerance):
            if precision >= stop_gap:
                assert stopped.first_hit(precision, cfg.lam, fe_max) == full.first_hit(precision, cfg.lam, fe_max)
        return stopped, opt

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stops_at_first_generation_reaching_the_gap(self, seed):
        task = make_instance(Family.SPHERE, 2, 40 + seed)
        cfg = EpisodeConfig(lam=7, fe_max=200, tolerance=0.1, episode_seed=seed)
        traj = run_episode(_UniformOptimizer(), task, cfg).best_gap_trajectory
        stops = 0
        for stop_gap in (traj[3], traj[len(traj) // 2], cfg.tolerance, traj[-1], traj[-1] / 2):
            rec, opt = self._check_stop(_CaptureOptimizer, task, cfg, float(stop_gap))
            assert len(opt.seen) == len(rec.best_gap_trajectory)
            stops += rec.evals_used < 200
        assert stops >= 2

    def test_stop_in_a_truncated_last_generation_spends_fe_max(self):
        task = _origin_sphere(offset=0.0)

        class _HitAtFour:
            def reset(self, lam, dimension, seed):
                self._g = 0

            def act(self, obs):
                pts = np.zeros((5, 2)) if self._g == 4 else np.full((5, 2), 0.9)
                self._g += 1
                return ActionBatch(pts)

        cfg = EpisodeConfig(lam=5, fe_max=23)
        rec, _ = self._check_stop(_HitAtFour, task, cfg, cfg.tolerance)
        assert rec.evals_used == 23 and rec.first_hit(cfg.tolerance, 5, 23) == 23

    def test_immediate_optimum_stops_after_one_generation(self):
        task = make_instance(Family.RASTRIGIN, 3, 4)
        point = np.tile(task.optimum_location(), (6, 1))
        cfg = EpisodeConfig(lam=6, fe_max=60)
        rec, _ = self._check_stop(lambda: _ConstantOptimizer(point), task, cfg, cfg.tolerance)
        assert rec.evals_used == 6 and rec.first_hit(cfg.tolerance, 6, 60) == 6
        np.testing.assert_array_equal(rec.best_gap_trajectory, np.zeros(1))


class TestFirstHit:
    """``RolloutRecord.first_hit`` is the episode loop's own evaluation count."""

    @settings(max_examples=80, deadline=None)
    @given(
        optimizer=st.sampled_from([RandomSearch, CmaEs]),
        family=st.sampled_from(list(Family)),
        instance_seed=st.integers(0, 1000),
        episode_seed=st.integers(0, 2**16),
        lam=st.integers(2, 9),
        fe_max=st.integers(2, 70),
        stop_generation=st.none() | st.integers(0, 12),
    )
    def test_matches_summed_generation_evaluations(
        self, optimizer, family, instance_seed, episode_seed, lam, fe_max, stop_generation
    ):
        task = make_instance(family, 2, instance_seed)
        fe_max = max(fe_max, lam)
        cfg = EpisodeConfig(lam=lam, fe_max=fe_max, episode_seed=episode_seed)
        full = run_episode(optimizer(), task, cfg).best_gap_trajectory
        stop_gap = None
        if stop_generation is not None:
            stop_gap = float(full[min(stop_generation, len(full) - 1)])
        record = run_episode(optimizer(), task, cfg, stop_gap=stop_gap)
        # every gap the episode reached, one above the start and one below the end
        precisions = {*full.tolist(), 2.0 * abs(full[0]) + 1.0, full[-1] - 1.0}
        for precision in precisions:
            got = record.first_hit(precision, lam, fe_max)
            assert got == oracles.evals_to_success(record.best_gap_trajectory, lam, fe_max, precision)
            if stop_gap is None or precision >= stop_gap:
                assert got == oracles.evals_to_success(full, lam, fe_max, precision)


class _RecordingRng:
    """Generator proxy that keeps a copy of every block it hands out."""

    def __init__(self, rng: np.random.Generator):
        self._rng, self.blocks = rng, []

    def __getattr__(self, name):
        draw = getattr(self._rng, name)

        def recorded(*args, **kwargs):
            out = draw(*args, **kwargs)
            self.blocks.append(np.array(out))
            return out

        return recorded


class TestEpisodeStream:
    """Every draw is addressed by (episode seed, generation): one generator
    per episode, seeded by ``rng_from(episode_seed)``, gives generation g the
    g-th fixed-size block of its stream.

    The budgets are not multiples of lam, so the last generation is
    truncated and still draws a full block.
    """

    @staticmethod
    def _blocks(monkeypatch, module, optimizer, task, cfg):
        made = []

        def recording_rng_from(*parts):
            made.append(_RecordingRng(rng_from(*parts)))
            return made[-1]

        monkeypatch.setattr(module, "rng_from", recording_rng_from)
        rec = run_episode(optimizer, task, cfg)
        assert len(made) == 1
        return len(rec.best_gap_trajectory), np.stack(made[0].blocks)

    def test_policy_readout_draws_are_blocks_of_the_episode_stream(self, monkeypatch):
        config = policy.PolicyConfig(lam=6, hidden_size=8)
        opt = policy.LearnedOptimizer(policy.init_params(config, 2), config)
        task = make_instance(Family.SPHERE, 3, 7)
        cfg = EpisodeConfig(lam=6, fe_max=40, episode_seed=13)
        n_gen, blocks = self._blocks(monkeypatch, policy, opt, task, cfg)
        assert n_gen == 7
        want = rng_from(13).standard_normal((n_gen, 6 * 3, 8 + 1))
        assert blocks.tobytes() == want.tobytes()

    def test_random_search_points_are_blocks_of_the_episode_stream(self):
        class _Sent(RandomSearch):
            def reset(self, lam, dimension, seed):
                super().reset(lam, dimension, seed)
                self.sent = []

            def act(self, obs):
                batch = super().act(obs)
                self.sent.append(batch.points)
                return batch

        opt = _Sent()
        task = make_instance(Family.RASTRIGIN, 4, 3)
        rec = run_episode(opt, task, EpisodeConfig(lam=9, fe_max=95, episode_seed=21))
        n_gen = len(rec.best_gap_trajectory)
        assert n_gen == len(opt.sent) == 11
        want = rng_from(21).uniform(-1.0, 1.0, (n_gen, 9, 4))
        assert np.stack(opt.sent).tobytes() == want.tobytes()

    def test_cma_es_samples_are_blocks_of_the_episode_stream(self, monkeypatch):
        task = make_instance(Family.SPHERE, 5, 11)
        cfg = EpisodeConfig(lam=8, fe_max=90, episode_seed=4)
        n_gen, blocks = self._blocks(monkeypatch, baselines, CmaEs(), task, cfg)
        assert n_gen == 12
        want = rng_from(4).standard_normal((n_gen, 8, 5))
        assert blocks.tobytes() == want.tobytes()


class TestRandomSearchSuccessRate:
    def test_matches_independent_monte_carlo(self):
        """Episode success rate agrees with a raw uniform-draw simulation.

        Sphere d=2, lam=10, budget 200, tolerance 0.1. The reference draws
        points directly and computes gaps analytically, bypassing all episode
        machinery.
        """
        task = make_instance(Family.SPHERE, 2, 40)
        cfg_tol = 0.1
        n_episodes = 10_000
        hits = 0
        for seed in range(n_episodes):
            rec = run_episode(
                _UniformOptimizer(),
                task,
                EpisodeConfig(lam=10, fe_max=200, tolerance=cfg_tol, episode_seed=seed),
                stop_gap=cfg_tol,
            )
            hits += rec.first_hit(cfg_tol, 10, 200) is not None
        env_rate = hits / n_episodes

        # reference: rotation preserves distances, so the gap of x is
        # 25 * |x - shift|^2 regardless of the instance rotation
        shift = task.config.shift
        rng = np.random.default_rng(987_654)
        mc_hits = 0
        n_mc = 40_000
        for _ in range(4):
            draws = rng.uniform(-1.0, 1.0, (n_mc // 4, 200, 2))
            gaps = 25.0 * ((draws - shift) ** 2).sum(axis=2)
            mc_hits += int((gaps.min(axis=1) <= cfg_tol).sum())
        mc_rate = mc_hits / n_mc

        assert abs(env_rate - mc_rate) <= 0.02
