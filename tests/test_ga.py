"""Tests for the seed-list genetic algorithm (outer loop)."""

from __future__ import annotations

import json
import math
from unittest import mock

import numpy as np
import pytest

from metapop import ert, ga
from metapop.config import FORMAT_VERSION
from metapop.env import EpisodeConfig, run_episode
from metapop.ga import (
    GaConfig,
    Genome,
    TrainHistory,
    decode,
    evolve_step,
    genome_from_json,
    genome_to_json,
    load_ga_checkpoint,
    load_genome,
    save_genome,
    sigma_schedule,
    train,
    write_ga_checkpoint,
    write_history_csv,
)
from metapop.policy import PolicyConfig, flatten, init_params
from metapop.problems import Family, make_suite

PC = PolicyConfig(lam=4)
SMALL_GA = GaConfig(population_size=8, n_elites=2, n_parents=3, generations=3)


def _suite():
    return make_suite(
        [Family.LINEAR_SLOPE], dimension=2, instances_per_family=4,
        split_ratio=(0.5, 0.25, 0.25), master_seed=5,
    )


class TestDecode:
    def test_empty_genome_equals_init(self):
        g = Genome(init_seed=42)
        np.testing.assert_array_equal(flatten(decode(g, PC)), flatten(init_params(PC, 42)))

    def test_decode_is_deterministic(self):
        g = Genome(7, ((11, 0.3), (13, 0.2)))
        np.testing.assert_array_equal(flatten(decode(g, PC)), flatten(decode(g, PC)))

    def test_mutation_statistics(self):
        """A single sigma=0.3 mutation shifts parameters by ~N(0, 0.3)."""
        base = flatten(decode(Genome(3), PC))
        mutated = flatten(decode(Genome(3, ((99, 0.3),)), PC))
        delta = mutated - base
        assert delta.size >= 10_000
        assert abs(delta.std() - 0.3) <= 0.01
        assert abs(delta.mean()) <= 0.01

    def test_sigma_is_embedded_per_mutation(self):
        """Replayed sigma comes from the genome, not any current schedule."""
        a = flatten(decode(Genome(3, ((99, 0.3),)), PC))
        b = flatten(decode(Genome(3, ((99, 0.6),)), PC))
        base = flatten(decode(Genome(3), PC))
        np.testing.assert_allclose(b - base, 2.0 * (a - base), rtol=0, atol=1e-12)

    def test_genome_validation(self):
        with pytest.raises(ValueError):
            Genome(-1)
        with pytest.raises(ValueError):
            Genome(0, ((1, 0.0),))
        for sigma in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="mutation sigma must be positive and finite"):
                Genome(0, ((1, 0.2), (2, sigma)))


class TestDecodeWithAncestors:
    """Decoding from cached ancestors gives the bytes of a full replay."""

    PARENT = Genome(7, ((11, 0.3), (13, 0.2), (17, 0.25)))

    @staticmethod
    def flat(genome, ancestors=None):
        return flatten(decode(genome, PC, ancestors)).tobytes()

    @classmethod
    def cached(cls, *genomes):
        return {g: flatten(decode(g, PC)) for g in genomes}

    def test_child_of_cached_parent(self):
        child = Genome(7, self.PARENT.mutations + ((19, 0.1),))
        assert self.flat(child, self.cached(self.PARENT)) == self.flat(child)

    def test_cached_elite(self):
        assert self.flat(self.PARENT, self.cached(self.PARENT)) == self.flat(self.PARENT)

    def test_no_cached_ancestor_replays_from_init_seed(self):
        grandchild = Genome(7, self.PARENT.mutations + ((19, 0.1), (23, 0.05)))
        for genome in (Genome(7), grandchild):
            assert self.flat(genome, self.cached(self.PARENT, Genome(8))) == self.flat(genome)

    def test_unrelated_lineages_never_match(self):
        child = Genome(7, self.PARENT.mutations + ((19, 0.1),))
        other_init = Genome(8, self.PARENT.mutations)
        other_seed = Genome(7, ((11, 0.3), (14, 0.2), (17, 0.25)))
        other_sigma = Genome(7, ((11, 0.3), (13, 0.2), (17, 0.5)))
        for decoy in (other_init, other_seed, other_sigma):
            assert self.flat(child, self.cached(decoy)) == self.flat(child)

    def test_parent_vector_is_used(self):
        """The child is drawn on top of the cached vector, not replayed."""
        child = Genome(7, self.PARENT.mutations + ((19, 0.1),))
        zero = np.zeros_like(flatten(decode(self.PARENT, PC)))
        got = flatten(decode(child, PC, {self.PARENT: zero}))
        np.testing.assert_array_equal(got, 0.1 * np.random.default_rng(19).standard_normal(zero.size))


class TestSigmaSchedule:
    def test_tabled_values(self):
        cfg = GaConfig()
        assert sigma_schedule(0, cfg) == 0.3
        assert sigma_schedule(1, cfg) == pytest.approx(0.285, rel=1e-12)
        assert sigma_schedule(200, cfg) == 0.01

    def test_floor_never_crossed(self):
        cfg = GaConfig()
        values = [sigma_schedule(g, cfg) for g in range(0, 400, 7)]
        assert min(values) == 0.01
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestEvolveStep:
    def test_all_elites_case(self):
        cfg = GaConfig(population_size=3, n_elites=3, n_parents=3, generations=1)
        pop = [Genome(1), Genome(2), Genome(3)]
        out = evolve_step(pop, [3.0, 1.0, 2.0], 0, cfg, seed=0)
        assert out == [Genome(2), Genome(3), Genome(1)]

    def test_single_elite_is_argmin(self):
        cfg = GaConfig(population_size=3, n_elites=1, n_parents=2, generations=1)
        pop = [Genome(1), Genome(2), Genome(3)]
        out = evolve_step(pop, [3.0, 1.0, 2.0], 0, cfg, seed=0)
        assert out[0] == Genome(2)

    def test_children_extend_a_parent_by_one_mutation(self):
        cfg = GaConfig(population_size=10, n_elites=2, n_parents=4, generations=1)
        pop = [Genome(i, ((i, 0.5),) * i) for i in range(10)]
        fits = [float(i) for i in range(10)]
        out = evolve_step(pop, fits, generation=3, config=cfg, seed=7)
        parents = pop[:4]
        for child in out[2:]:
            assert len(child.mutations) >= 1
            seed, sigma = child.mutations[-1]
            assert sigma == sigma_schedule(3, cfg)
            parent = Genome(child.init_seed, child.mutations[:-1])
            assert parent in parents

    def test_tie_break_by_index(self):
        cfg = GaConfig(population_size=3, n_elites=2, n_parents=2, generations=1)
        pop = [Genome(10), Genome(11), Genome(12)]
        out = evolve_step(pop, [1.0, 1.0, 0.5], 0, cfg, seed=0)
        assert out[0] == Genome(12) and out[1] == Genome(10)

    def test_deterministic_and_seed_sensitive(self):
        cfg = GaConfig(population_size=6, n_elites=1, n_parents=2, generations=1)
        pop = [Genome(i) for i in range(6)]
        fits = [float(i) for i in range(6)]
        a = evolve_step(pop, fits, 0, cfg, seed=5)
        b = evolve_step(pop, fits, 0, cfg, seed=5)
        c = evolve_step(pop, fits, 0, cfg, seed=6)
        assert a == b
        assert a != c

    def test_rejects_bad_input(self):
        cfg = GaConfig(population_size=2, n_elites=1, n_parents=1, generations=1)
        with pytest.raises(ValueError):
            evolve_step([Genome(1)], [1.0, 2.0], 0, cfg, 0)
        with pytest.raises(ValueError):
            evolve_step([Genome(1), Genome(2)], [1.0, math.nan], 0, cfg, 0)


class TestGaConfigValidation:
    def test_ordering_constraint(self):
        with pytest.raises(ValueError):
            GaConfig(population_size=4, n_elites=3, n_parents=2)
        with pytest.raises(ValueError):
            GaConfig(population_size=4, n_elites=5, n_parents=5)


class TestTrain:
    def test_generations_zero_is_one_evaluation_round(self):
        best, history = train(
            GaConfig(population_size=4, n_elites=1, n_parents=2, generations=0),
            PC, _suite(), EpisodeConfig(lam=4, fe_max=40), runs_per_task=2, master_seed=1,
        )
        assert len(history) == 1
        assert best.mutations == ()
        assert math.isfinite(history.rows[0].train_best)
        assert history.rows[0].train_best <= history.rows[0].train_mean

    def test_same_seed_identical_history(self, tmp_path):
        kwargs = dict(
            ga_config=SMALL_GA, policy_config=PC, suite=_suite(),
            episode_config=EpisodeConfig(lam=4, fe_max=40), runs_per_task=2, master_seed=9,
        )
        best_a, hist_a = train(**kwargs)
        best_b, hist_b = train(**kwargs)
        assert best_a == best_b
        assert hist_a == hist_b
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_history_csv(pa, hist_a)
        write_history_csv(pb, hist_b)
        assert pa.read_bytes() == pb.read_bytes()

    def test_worker_count_is_invisible(self):
        kwargs = dict(
            ga_config=GaConfig(population_size=4, n_elites=1, n_parents=2, generations=1),
            policy_config=PC, suite=_suite(),
            episode_config=EpisodeConfig(lam=4, fe_max=40), runs_per_task=2, master_seed=4,
        )
        _, serial = train(**kwargs, workers=1)
        _, parallel = train(**kwargs, workers=4)
        assert serial == parallel

    def test_checkpoints_roundtrip(self, tmp_path):
        _, history = train(
            SMALL_GA, PC, _suite(), EpisodeConfig(lam=4, fe_max=40),
            runs_per_task=2, master_seed=3,
            checkpoint_dir=tmp_path, checkpoint_every=2,
        )
        files = sorted(tmp_path.glob("checkpoint_*.json"))
        assert [f.name for f in files] == ["checkpoint_0000.json", "checkpoint_0002.json", "checkpoint_0003.json"]
        state = load_ga_checkpoint(files[-1])
        assert state["generation"] == 3
        assert len(state["population"]) == SMALL_GA.population_size
        assert state["history"] == history
        assert state["ga_config"] == SMALL_GA

    def test_requires_training_tasks(self):
        suite = make_suite([Family.SPHERE], 2, 3, (0.0, 0.0, 1.0), master_seed=0)
        with pytest.raises(ValueError):
            train(SMALL_GA, PC, suite, EpisodeConfig(lam=4, fe_max=40), 2, 0)

    @pytest.mark.parametrize("every", [0, -1])
    def test_rejects_checkpoint_every_below_one_before_scoring(self, every, tmp_path, monkeypatch):
        scored = []
        monkeypatch.setattr(ga, "_genome_fitness", lambda *args, **kwargs: scored.append(args) or 0.0)
        with pytest.raises(ValueError, match="checkpoint_every"):
            train(SMALL_GA, PC, _suite(), EpisodeConfig(lam=4, fe_max=40), 1, 0,
                  checkpoint_dir=tmp_path, checkpoint_every=every)
        assert scored == []
        assert list(tmp_path.iterdir()) == []

    def test_scoring_round_stops_every_episode_at_the_tolerance(self):
        """Training and validation episodes all get the tolerance as stop gap."""
        seen = []

        def spy(optimizer, task, config, stop_gap=None):
            seen.append(stop_gap)
            return run_episode(optimizer, task, config, stop_gap=stop_gap)

        suite = _suite()
        with mock.patch.object(ert, "run_episode", spy):
            train(
                GaConfig(population_size=3, n_elites=1, n_parents=2, generations=0),
                PC, suite, EpisodeConfig(lam=4, fe_max=40, tolerance=0.05),
                runs_per_task=2, master_seed=1,
            )
        n_episodes = (3 * len(suite.train_tasks) + len(suite.validation_tasks)) * 2
        assert len(suite.validation_tasks) > 0
        assert seen == [0.05] * n_episodes

    def test_history_has_generations_plus_one_rows(self):
        _, history = train(
            SMALL_GA, PC, _suite(), EpisodeConfig(lam=4, fe_max=40),
            runs_per_task=1, master_seed=11,
        )
        assert [r.generation for r in history.rows] == [0, 1, 2, 3]
        assert history.rows[0].sigma == 0.3


class TestSerialization:
    def test_genome_json_roundtrip(self):
        g = Genome(5, ((1, 0.3), (2, 0.285)))
        assert genome_from_json(genome_to_json(g)) == g

    def test_genome_file_roundtrip(self, tmp_path):
        g = Genome(5, ((1, 0.3),))
        path = tmp_path / "best.json"
        save_genome(path, g, PC)
        g2, pc2 = load_genome(path)
        assert g2 == g and pc2 == PC

    def test_files_carry_the_format_version(self, tmp_path):
        genome_path, checkpoint_path = tmp_path / "best.json", tmp_path / "ckpt.json"
        save_genome(genome_path, Genome(5), PC)
        write_ga_checkpoint(checkpoint_path, SMALL_GA, PC, 0, [Genome(5)] * 8, TrainHistory(()))
        for path, load in ((genome_path, load_genome), (checkpoint_path, load_ga_checkpoint)):
            payload = json.loads(path.read_text())
            assert payload["format_version"] == FORMAT_VERSION
            payload["format_version"] = FORMAT_VERSION + 1
            path.write_text(json.dumps(payload))
            with pytest.raises(ValueError, match="version"):
                load(path)

    def test_history_csv_format(self, tmp_path):
        hist = TrainHistory(rows=tuple())
        path = tmp_path / "h.csv"
        write_history_csv(path, hist)
        assert path.read_text().strip() == "generation,train_best,train_mean,val_best,sigma"
