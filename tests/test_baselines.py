"""Tests for the reference optimizers (random search, CMA-ES)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from metapop.baselines import (
    CmaEs,
    CmaState,
    RandomSearch,
    _cov_eig,
    cma_act,
    cma_init,
    cma_update,
    default_cma_lambda,
    random_search_act,
)
from metapop.env import EpisodeConfig, run_episode
from metapop.problems import Family, evaluate_batch, make_instance


class TestRandomSearch:
    def test_entries_in_domain(self):
        batch = random_search_act(np.random.default_rng(1), 50, 4)
        assert np.abs(batch.points).max() <= 1.0
        assert batch.points.shape == (50, 4)

    def test_deterministic_per_seed_and_generation(self):
        """Same seed, same generation, same points; the next generation differs."""
        rng_a, rng_b = np.random.default_rng(2), np.random.default_rng(2)
        a = random_search_act(rng_a, 5, 3)
        b = random_search_act(rng_b, 5, 3)
        c = random_search_act(rng_a, 5, 3)
        np.testing.assert_array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)

    def test_uniform_moments(self):
        """1e6 samples: mean ~0, variance ~1/3 per coordinate."""
        pts = random_search_act(np.random.default_rng(3), 250_000, 4).points
        assert np.abs(pts.mean(axis=0)).max() <= 0.005
        assert np.abs(pts.var(axis=0) - 1.0 / 3.0).max() <= 0.005

    def test_episode_integration(self):
        task = make_instance(Family.SPHERE, 2, 1)
        rec = run_episode(RandomSearch(), task, EpisodeConfig(lam=10, fe_max=100, episode_seed=4))
        assert rec.evals_used == 100
        assert rec.best_gap >= 0.0


class TestCmaPlumbing:
    def test_default_lambda(self):
        assert default_cma_lambda(2) == 4 + int(3 * np.log(2))
        assert default_cma_lambda(10) == 10
        with pytest.raises(ValueError):
            default_cma_lambda(0)

    def test_constants_sane(self):
        s = cma_init(5, lam=8)
        assert s.weights.sum() == pytest.approx(1.0)
        assert (np.diff(s.weights) <= 0).all()
        assert 0 < s.c_sigma < 1 and 0 < s.c_c < 1
        assert s.c1 + s.c_mu <= 1.0
        assert s.mu_eff > 1.0
        assert s.chi_d == pytest.approx(np.sqrt(5) * (1 - 1 / 20 + 1 / 525))

    def test_zero_step_limit_collapses_to_mean(self):
        s = cma_init(3, lam=6, mean=np.array([0.2, -0.1, 0.5]), step_size=1e-300)
        batch, raw = cma_act(s, 6, np.random.default_rng(0))
        np.testing.assert_allclose(batch.points, np.tile(s.mean, (6, 1)), atol=1e-12)
        np.testing.assert_allclose(raw, np.tile(s.mean, (6, 1)), atol=1e-12)

    def test_sampling_determinism(self):
        s = cma_init(4, lam=8)
        a, ra = cma_act(s, 8, np.random.default_rng(5))
        b, rb = cma_act(s, 8, np.random.default_rng(5))
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(ra, rb)

    def test_identity_unit_sample_covariance(self):
        """1e5 draws from N(0, I) have sample covariance ~ I."""
        s = cma_init(3, lam=4, step_size=1.0)
        _, raw = cma_act(s, 100_000, np.random.default_rng(9))
        cov = np.cov(raw.T)
        np.testing.assert_allclose(cov, np.eye(3), atol=0.02)

    def test_clamping_only_affects_batch(self):
        s = cma_init(2, lam=6, mean=np.array([0.95, 0.95]), step_size=0.5)
        batch, raw = cma_act(s, 1000, np.random.default_rng(2))
        assert np.abs(batch.points).max() <= 1.0
        assert np.abs(raw).max() > 1.0
        inside = np.abs(raw).max(axis=1) <= 1.0
        np.testing.assert_array_equal(batch.points[inside], raw[inside])


class TestCmaUpdate:
    def test_equal_fitness_uses_stable_tie_order(self):
        """All-equal fitness selects the first mu samples in index order."""
        s = cma_init(2, lam=6)
        _, raw = cma_act(s, 6, np.random.default_rng(1))
        fit = np.zeros(6)
        s2 = cma_update(s, raw, fit)
        mu = 3
        y = (raw[:mu] - s.mean) / s.step_size
        want = s.mean + s.step_size * (s.weights @ y)
        np.testing.assert_allclose(s2.mean, want, rtol=1e-12)

    def test_sphere_convergence_six_orders(self):
        """50 generations on Sphere d=2 shrink the gap by >= 1e6."""
        task = make_instance(Family.SPHERE, 2, 17)
        lam = default_cma_lambda(2)
        rec = run_episode(CmaEs(), task, EpisodeConfig(lam=lam, fe_max=50 * lam, episode_seed=3))
        traj = rec.best_gap_trajectory
        assert traj[-1] <= traj[0] * 1e-6

    def test_step_size_survives_random_fitness(self):
        """CSA keeps sigma positive and finite under 1e4 noise updates."""
        rng = np.random.default_rng(0)
        s = cma_init(3, lam=6)
        for g in range(10_000):
            _, raw = cma_act(s, 6, np.random.default_rng(g))
            s = cma_update(s, raw, rng.normal(size=6))
        assert np.isfinite(s.step_size) and s.step_size > 0
        assert np.all(np.isfinite(s.cov))
        assert np.abs(s.cov - s.cov.T).max() <= 1e-12

    def test_rejects_bad_input(self):
        s = cma_init(2, lam=4)
        _, raw = cma_act(s, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            cma_update(s, raw, np.array([1.0, np.nan, 0.0, 2.0]))
        with pytest.raises(ValueError):
            cma_update(s, raw[:2], np.zeros(4))

    def test_update_determinism(self):
        s = cma_init(2, lam=6)
        _, raw = cma_act(s, 6, np.random.default_rng(1))
        fit = np.arange(6, dtype=float)
        a = cma_update(s, raw, fit)
        b = cma_update(s, raw, fit)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.cov, b.cov)
        assert a.step_size == b.step_size


class TestCmaDecomposition:
    """``CmaState.eig`` is computed once per state and never goes stale."""

    @staticmethod
    def _run(generations: int = 25) -> list:
        task = make_instance(Family.RASTRIGIN, 4, 5)
        rng = np.random.default_rng(3)
        s = cma_init(4, lam=8)
        out = []
        for _ in range(generations):
            batch, raw = cma_act(s, 8, rng)
            s = cma_update(s, raw, evaluate_batch(task, batch.points))
            out += [raw.tobytes(), s.mean.tobytes(), s.cov.tobytes(), s.p_sigma.tobytes(), repr(s.step_size)]
        return out

    def test_eigh_runs_once_per_generation(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        task = make_instance(Family.SPHERE, 3, 9)
        rec = run_episode(CmaEs(), task, EpisodeConfig(lam=6, fe_max=120, episode_seed=2))
        assert len(calls) == len(rec.best_gap_trajectory) == 20

    def test_replace_recomputes_the_decomposition(self):
        s = cma_init(3, lam=6)
        x = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]])
        s2 = replace(s, cov=x)
        for got, want in zip(s2.eig, _cov_eig(x)):
            assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(s.eig[0], np.ones(3))

    def test_cached_decomposition_matches_inline_recompute(self, monkeypatch):
        """Bytes equal those of decomposing ``state.cov`` at every use."""
        cached = self._run()
        monkeypatch.setattr(CmaState, "__post_init__", lambda self: None)
        monkeypatch.setattr(CmaState, "eig", property(lambda self: _cov_eig(self.cov)), raising=False)
        assert self._run() == cached


class TestCmaSolvesSphere:
    @pytest.mark.parametrize("dimension", [2, 5])
    def test_success_rate_within_budget(self, dimension):
        """Default-lambda CMA-ES hits 1e-3 within 1000*d evals, >=95/100."""
        lam = default_cma_lambda(dimension)
        wins = 0
        for seed in range(100):
            task = make_instance(Family.SPHERE, dimension, 1000 + seed)
            cfg = EpisodeConfig(lam=lam, fe_max=1000 * dimension, episode_seed=seed)
            wins += run_episode(CmaEs(), task, cfg, stop_gap=cfg.tolerance).best_gap <= cfg.tolerance
        assert wins >= 95
