"""Tests for the recurrent policy: init, encoding, forward pass, plumbing."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from metapop.env import EpisodeConfig, Observation, run_episode
from metapop.policy import (
    LearnedOptimizer,
    PolicyConfig,
    PolicyState,
    _sigmoid,
    act,
    flatten,
    init_params,
    init_state,
    load_params,
    param_count,
    rank_transform,
    save_params,
    unflatten,
)
from metapop.problems import Family, make_instance
from metapop.seeding import rng_from

CFG = PolicyConfig(lam=4, hidden_size=32, num_layers=2)


def _with_log_sigma(params, value: float):
    """Copy of params with every readout log-sigma set to a constant."""
    flat = flatten(params).copy()
    flat[-(params.out_log_sigma.size) :] = value
    cfg = PolicyConfig(
        lam=4, hidden_size=params.out_mean.size - 1, num_layers=len(params.layers)
    )
    return unflatten(cfg, flat)


class TestInitParams:
    def test_same_seed_identical(self):
        a = init_params(CFG, 7)
        b = init_params(CFG, 7)
        np.testing.assert_array_equal(flatten(a), flatten(b))

    def test_different_seeds_differ(self):
        a = init_params(CFG, 7)
        b = init_params(CFG, 8)
        assert np.abs(flatten(a) - flatten(b)).max() > 0.1

    def test_count_matches_oracle(self):
        """Closed-form count equals the independent shape-arithmetic oracle."""
        for lam, h, layers in [(4, 32, 2), (2, 8, 1), (3, 16, 3)]:
            cfg = PolicyConfig(lam=lam, hidden_size=h, num_layers=layers)
            assert param_count(cfg) == oracles.lstm_param_count(2, h, layers)

    def test_default_architecture_size(self):
        """Two layers of 32 units on 2 inputs plus the readout: 12866."""
        assert param_count(CFG) == 12866
        assert flatten(init_params(CFG, 0)).size == 12866

    def test_gaussian_statistics(self):
        """Large init looks like N(0, 0.5): mean ~0, std ~0.5 (seed 1)."""
        big = PolicyConfig(lam=4, hidden_size=96, num_layers=2)
        flat = flatten(init_params(big, 1))
        assert flat.size > 100_000
        assert abs(flat.mean()) <= 0.02
        assert abs(flat.std() - 0.5) <= 0.02

    def test_forget_gate_bias_is_boosted(self):
        """Forget biases center near +1, the other gate biases near 0."""
        means = []
        for seed in range(30):
            p = init_params(CFG, seed)
            h = CFG.hidden_size
            means.append([p.layers[0].b[h : 2 * h].mean(), p.layers[0].b[:h].mean()])
        forget, inp = np.mean(means, axis=0)
        assert abs(forget - 1.0) < 0.1
        assert abs(inp) < 0.1


class TestFlattenUnflatten:
    def test_roundtrip_bit_exact(self):
        p = init_params(CFG, 3)
        q = unflatten(CFG, flatten(p))
        for la, lb in zip(p.layers, q.layers):
            np.testing.assert_array_equal(la.w_x, lb.w_x)
            np.testing.assert_array_equal(la.w_h, lb.w_h)
            np.testing.assert_array_equal(la.b, lb.b)
        np.testing.assert_array_equal(p.out_mean, q.out_mean)
        np.testing.assert_array_equal(p.out_log_sigma, q.out_log_sigma)

    def test_documented_layout_offsets(self):
        """Layer 1 w_x, w_h, b; layer 2 likewise; then means, log-sigmas."""
        p = unflatten(CFG, np.arange(12866, dtype=float))
        assert p.layers[0].w_x[0, 0] == 0.0
        assert p.layers[0].w_h[0, 0] == 256.0
        assert p.layers[0].b[0] == 4352.0
        assert p.layers[1].w_x[0, 0] == 4480.0
        assert p.out_mean[0] == 12800.0
        assert p.out_log_sigma[0] == 12833.0

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            unflatten(CFG, np.zeros(100))


class TestRankTransform:
    def test_definition(self):
        np.testing.assert_array_equal(rank_transform([5.2, -1.0, 3.3]), [1.0, 0.0, 0.5])

    def test_stable_tie_break(self):
        np.testing.assert_array_equal(rank_transform([2.0, 2.0]), [0.0, 1.0])

    def test_monotone_map_invariance(self):
        f = np.array([0.3, 2.0, 1.1, 0.9])
        np.testing.assert_array_equal(rank_transform(f), rank_transform(f**3))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            rank_transform([1.0, np.nan])
        with pytest.raises(ValueError):
            rank_transform([1.0])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=20, unique=True))
    def test_property_ranks_are_normalized_permutation(self, values):
        """Distinct inputs yield a permutation of 0, 1/(n-1), ..., 1."""
        r = rank_transform(values)
        n = len(values)
        np.testing.assert_allclose(np.sort(r), np.arange(n) / (n - 1), atol=1e-12)


def _random_obs(rng, lam, d, generation=1):
    pts = rng.uniform(-1.0, 1.0, (lam, d))
    fit = rng.normal(size=lam)
    return Observation(pts, fit, generation)


class TestAct:
    def test_generation0_deterministic(self):
        p = init_params(CFG, 0)
        s = init_state(CFG, 4, 3)
        obs = Observation(None, None, 0)
        a1, _ = act(p, s, obs, np.random.default_rng(11))
        a2, _ = act(p, s, obs, np.random.default_rng(11))
        np.testing.assert_array_equal(a1.points, a2.points)
        assert a1.points.shape == (4, 3)

    def test_different_step_seeds_differ(self):
        p = init_params(CFG, 0)
        s = init_state(CFG, 4, 3)
        obs = Observation(None, None, 0)
        a1, _ = act(p, s, obs, np.random.default_rng(11))
        a2, _ = act(p, s, obs, np.random.default_rng(12))
        assert np.abs(a1.points - a2.points).max() > 0.0

    def test_outputs_always_in_bounds(self):
        """tanh keeps every coordinate in [-1, 1] across random draws."""
        rng = np.random.default_rng(5)
        total = 0
        for seed in range(100):
            p = init_params(CFG, seed)
            s = init_state(CFG, 10, 5)
            batch, s = act(p, s, Observation(None, None, 0), np.random.default_rng(seed))
            total += batch.points.size
            assert np.abs(batch.points).max() <= 1.0
            obs = _random_obs(rng, 10, 5)
            batch, _ = act(p, s, obs, np.random.default_rng(seed + 1))
            total += batch.points.size
            assert np.abs(batch.points).max() <= 1.0
        assert total >= 1e4

    def test_monotone_invariance_bit_exact(self):
        """Strictly increasing fitness maps leave the action unchanged."""
        p = init_params(CFG, 2)
        s0 = init_state(CFG, 4, 3)
        _, s1 = act(p, s0, Observation(None, None, 0), np.random.default_rng(0))
        rng = np.random.default_rng(8)
        pts = rng.uniform(-1, 1, (4, 3))
        fit = rng.normal(size=4)
        obs_a = Observation(pts, fit, 1)
        obs_b = Observation(pts, np.exp(fit) + 5.0, 1)
        a, _ = act(p, s1, obs_a, np.random.default_rng(9))
        b, _ = act(p, s1, obs_b, np.random.default_rng(9))
        np.testing.assert_array_equal(a.points, b.points)

    def test_degenerate_sigma_ignores_step_seed(self):
        """With log-sigma at -30 the readout is effectively deterministic."""
        p = _with_log_sigma(init_params(CFG, 4), -30.0)
        s = init_state(CFG, 4, 2)
        a, _ = act(p, s, Observation(None, None, 0), np.random.default_rng(100))
        b, _ = act(p, s, Observation(None, None, 0), np.random.default_rng(200))
        np.testing.assert_allclose(a.points, b.points, atol=1e-10)

    def test_individual_permutation_equivariance(self):
        """Permuting individuals (rows and state slots) permutes outputs."""
        lam, d = 5, 3
        cfg = PolicyConfig(lam=lam)
        p = _with_log_sigma(init_params(cfg, 6), -30.0)
        s0 = init_state(cfg, lam, d)
        _, s1 = act(p, s0, Observation(None, None, 0), np.random.default_rng(0))
        rng = np.random.default_rng(13)
        pts = rng.uniform(-1, 1, (lam, d))
        fit = rng.normal(size=lam)
        perm = np.array([3, 0, 4, 1, 2])

        obs = Observation(pts, fit, 1)
        base, _ = act(p, s1, obs, np.random.default_rng(1))

        slot_perm = (perm[:, None] * d + np.arange(d)).ravel()
        s1p = PolicyState(lam, d, s1.h[:, slot_perm], s1.c[:, slot_perm], s1.prev_point[perm])
        obs_p = Observation(pts[perm], fit[perm], 1)
        permuted, _ = act(p, s1p, obs_p, np.random.default_rng(1))
        np.testing.assert_allclose(permuted.points, base.points[perm], atol=1e-12)

    def test_coordinate_permutation_equivariance(self):
        """Permuting dimensions permutes output columns identically."""
        lam, d = 4, 3
        cfg = PolicyConfig(lam=lam)
        p = _with_log_sigma(init_params(cfg, 6), -30.0)
        s0 = init_state(cfg, lam, d)
        _, s1 = act(p, s0, Observation(None, None, 0), np.random.default_rng(0))
        rng = np.random.default_rng(14)
        pts = rng.uniform(-1, 1, (lam, d))
        fit = rng.normal(size=lam)
        perm = np.array([2, 0, 1])

        base, _ = act(p, s1, Observation(pts, fit, 1), np.random.default_rng(1))

        slot_perm = (np.arange(lam)[:, None] * d + perm).ravel()
        s1p = PolicyState(lam, d, s1.h[:, slot_perm], s1.c[:, slot_perm], s1.prev_point[:, perm])
        obs_p = Observation(pts[:, perm], fit, 1)
        permuted, _ = act(p, s1p, obs_p, np.random.default_rng(1))
        np.testing.assert_allclose(permuted.points, base.points[:, perm], atol=1e-12)

    def test_matches_naive_cell_oracle(self):
        """Vectorized forward pass agrees with the loop-based cell reference."""
        cfg = PolicyConfig(lam=3, hidden_size=4, num_layers=2)
        p = _with_log_sigma(init_params(cfg, 9), -60.0)
        lam, d, h = 3, 2, 4
        s0 = init_state(cfg, lam, d)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1, 1, (lam, d))
        fit = rng.normal(size=lam)

        _, s1 = act(p, s0, Observation(None, None, 0), np.random.default_rng(0))
        got, _ = act(p, s1, Observation(pts, fit, 1), np.random.default_rng(1))

        ranks = oracles.naive_rank_transform(list(fit))
        for i in range(lam):
            for j in range(d):
                slot = i * d + j
                # generation 0: zero input through both layers
                h1, c1 = oracles.naive_lstm_step(
                    [0.0, 0.0], [0.0] * h, [0.0] * h, p.layers[0].w_x, p.layers[0].w_h, p.layers[0].b, h
                )
                h2, c2 = oracles.naive_lstm_step(
                    h1, [0.0] * h, [0.0] * h, p.layers[1].w_x, p.layers[1].w_h, p.layers[1].b, h
                )
                # generation 1: the slot's coordinate and its individual's rank
                h1b, _ = oracles.naive_lstm_step(
                    [pts[i, j], ranks[i]], h1, c1, p.layers[0].w_x, p.layers[0].w_h, p.layers[0].b, h
                )
                h2b, _ = oracles.naive_lstm_step(
                    h1b, h2, c2, p.layers[1].w_x, p.layers[1].w_h, p.layers[1].b, h
                )
                import math

                pre = sum(p.out_mean[k] * h2b[k] for k in range(h)) + p.out_mean[h]
                np.testing.assert_allclose(got.points[i, j], math.tanh(pre), atol=1e-10)

    def test_hidden_state_stays_bounded(self):
        p = init_params(CFG, 1)
        s = init_state(CFG, 4, 3)
        obs = Observation(None, None, 0)
        rng = np.random.default_rng(0)
        for g in range(5):
            batch, s = act(p, s, obs, np.random.default_rng(g))
            assert np.abs(s.h).max() < 1.0
            np.testing.assert_array_equal(s.prev_point, batch.points)
            obs = Observation(batch.points, rng.normal(size=4), g + 1)

    def test_generation0_requires_fresh_state(self):
        p = init_params(CFG, 0)
        s = init_state(CFG, 4, 3)
        _, s1 = act(p, s, Observation(None, None, 0), np.random.default_rng(0))
        with pytest.raises(ValueError):
            act(p, s1, Observation(None, None, 0), np.random.default_rng(1))

    def test_shape_mismatch_rejected(self):
        p = init_params(CFG, 0)
        s = init_state(CFG, 4, 3)
        _, s1 = act(p, s, Observation(None, None, 0), np.random.default_rng(0))
        bad = Observation(np.zeros((5, 3)), np.zeros(5), 1)
        with pytest.raises(ValueError):
            act(p, s1, bad, np.random.default_rng(1))


class _LockstepOptimizer:
    """Runs ``act`` and the frozen reference step side by side in one episode.

    Each keeps its own state chain and its own generator, both built by
    ``rng_from(seed)`` once per episode; every emitted batch must match byte
    for byte, and the final states are kept for comparison.
    """

    def __init__(self, params, config):
        self.params, self.config = params, config

    def reset(self, lam, dimension, seed):
        self.state = self.ref_state = init_state(self.config, lam, dimension)
        self.rng, self.ref_rng = rng_from(seed), rng_from(seed)
        self.steps = 0

    def act(self, obs):
        batch, self.state = act(self.params, self.state, obs, self.rng)
        ref, self.ref_state = oracles.reference_act(self.params, self.ref_state, obs, self.ref_rng)
        assert batch.points.shape == ref.points.shape
        assert batch.points.tobytes() == ref.points.tobytes(), f"generation {obs.generation}"
        self.steps += 1
        return batch


#: Inputs where a sigmoid formulation could overflow, underflow or lose sign.
SIGMOID_EDGES = (0.0, 1e-300, 709.0, 745.2, 1e308, np.inf)


class TestReferenceStep:
    """``act`` is bit-identical to the original masked-sigmoid step."""

    @pytest.mark.parametrize("lam,d", [(10, 2), (10, 5), (10, 10)])
    @pytest.mark.parametrize("scale", [1.0, 25.0])
    def test_full_episode_bytes_match(self, lam, d, scale):
        """Every batch from generation 0 to a truncated last one, then h and c.

        ``scale`` 25 blows the weights up so most gates saturate.
        """
        config = PolicyConfig(lam=lam)
        params = unflatten(config, flatten(init_params(config, 31 + d)) * scale)
        task = make_instance(Family.SPHERE, d, 400 + d)
        fe_max = 20 * d + 7
        opt = _LockstepOptimizer(params, config)
        rec = run_episode(opt, task, EpisodeConfig(lam=lam, fe_max=fe_max, episode_seed=5))
        assert rec.evals_used == fe_max
        assert opt.steps == -(-fe_max // lam)
        assert opt.state.h.tobytes() == opt.ref_state.h.tobytes()
        assert opt.state.c.tobytes() == opt.ref_state.c.tobytes()

    def test_sigmoid_bytes_match_on_edge_inputs(self):
        x = np.array(SIGMOID_EDGES + tuple(-v for v in SIGMOID_EDGES))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _sigmoid(x)
            want = oracles.reference_sigmoid(x)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0, 100.0, 800.0])
    def test_sigmoid_bytes_match_on_random_gates(self, scale):
        x = np.random.default_rng(int(scale * 10)).normal(0.0, scale, (20, 128))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _sigmoid(x).tobytes() == oracles.reference_sigmoid(x).tobytes()


class TestLearnedOptimizer:
    def test_episode_is_deterministic(self):
        task = make_instance(Family.SPHERE, 2, 21)
        cfg = PolicyConfig(lam=6)
        p = init_params(cfg, 5)
        econf = EpisodeConfig(lam=6, fe_max=60, episode_seed=77)
        a = run_episode(LearnedOptimizer(p, cfg), task, econf)
        b = run_episode(LearnedOptimizer(p, cfg), task, econf)
        np.testing.assert_array_equal(a.best_gap_trajectory, b.best_gap_trajectory)
        assert a.evals_used == 60

    def test_different_episode_seeds_change_rollout(self):
        task = make_instance(Family.SPHERE, 2, 21)
        cfg = PolicyConfig(lam=6)
        p = init_params(cfg, 5)
        a = run_episode(LearnedOptimizer(p, cfg), task, EpisodeConfig(lam=6, fe_max=60, episode_seed=1))
        b = run_episode(LearnedOptimizer(p, cfg), task, EpisodeConfig(lam=6, fe_max=60, episode_seed=2))
        assert not np.array_equal(a.best_gap_trajectory, b.best_gap_trajectory)

    def test_requires_reset(self):
        cfg = PolicyConfig(lam=4)
        opt = LearnedOptimizer(init_params(cfg, 0), cfg)
        with pytest.raises(RuntimeError):
            opt.act(Observation(None, None, 0))


class TestCheckpoint:
    def test_config_json_roundtrip_and_key_order(self):
        cfg = PolicyConfig(lam=7, hidden_size=5, num_layers=3)
        data = cfg.to_json()
        assert list(data) == ["lambda", "hidden_size", "num_layers", "input_size", "output_size"]
        assert PolicyConfig.from_json(data) == cfg

    def test_rejects_a_different_architecture(self):
        for key, value in (("input_size", 3), ("output_size", 2)):
            with pytest.raises(ValueError, match="fixed to 2 inputs and 1 output"):
                PolicyConfig.from_json({**CFG.to_json(), key: value})

    def test_rejects_a_single_individual(self, tmp_path):
        """lambda=1 has no fitness ranks: refused on load, not at generation 1."""
        with pytest.raises(ValueError, match="lam must be >= 2"):
            PolicyConfig(lam=1)
        path = tmp_path / "policy.json"
        save_params(path, CFG, init_params(CFG, 0))
        import json

        payload = json.loads(path.read_text())
        payload["policy_config"]["lambda"] = 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="lam must be >= 2"):
            load_params(path)

    def test_roundtrip_bit_exact(self, tmp_path):
        p = init_params(CFG, 12)
        path = tmp_path / "policy.json"
        save_params(path, CFG, p)
        cfg2, p2 = load_params(path)
        assert cfg2 == CFG
        np.testing.assert_array_equal(flatten(p2), flatten(p))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_params(self, tmp_path, bad):
        path = tmp_path / "policy.json"
        save_params(path, CFG, init_params(CFG, 0))
        import json

        payload = json.loads(path.read_text())
        payload["flat_params"][7] = bad
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="flat_params contains non-finite values"):
            load_params(path)

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "policy.json"
        save_params(path, CFG, init_params(CFG, 0))
        import json

        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_params(path)
