"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import csv
import json
from collections import Counter
from unittest import mock

import numpy as np
import pytest
import yaml

from metapop import ert
from metapop.bench import EcdfCurve, ecdf_auc
from metapop.cli import main
from metapop.config import load_config
from metapop.ga import Genome, decode, load_ga_checkpoint, load_genome, save_genome
from metapop.policy import PolicyConfig, flatten, init_params, load_params


def _write_config(tmp_path, **updates):
    tree = {
        "suite": {
            "families": ["sphere"],
            "dimension": 2,
            "instances_per_family": 5,
            "split_ratio": [0.6, 0.2, 0.2],
            "seed": 7,
        },
        "policy": {"lambda": 5, "hidden_size": 8, "num_layers": 1},
        "ga": {"population_size": 4, "n_elites": 1, "n_parents": 2, "generations": 2},
        "episode": {"fe_max": 30, "tolerance": 0.05},
        "runs_per_task": 1,
        "master_seed": 3,
        "output_dir": str(tmp_path / "out"),
        "workers": 0,
    }
    for key, value in updates.items():
        if isinstance(value, dict):
            tree[key].update(value)
        else:
            tree[key] = value
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(tree))
    return path


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _tiny_genome(tmp_path, name="genome.json", mutations=((11, 0.2),)):
    config = PolicyConfig(lam=5, hidden_size=8, num_layers=1)
    genome = Genome(init_seed=42, mutations=mutations)
    path = tmp_path / name
    save_genome(path, genome, config)
    return path, genome, config


class TestTrain:
    def test_smoke_run_emits_loadable_artifacts(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        out = tmp_path / "out"

        genome, policy_config = load_genome(out / "best_genome.json")
        assert policy_config.lam == 5
        decode(genome, policy_config)

        state = load_ga_checkpoint(out / "checkpoints" / "checkpoint_0002.json")
        assert state["generation"] == 2
        assert len(state["population"]) == 4

        history = _rows(out / "history.csv")
        assert len(history) == 3
        assert [r["generation"] for r in history] == ["0", "1", "2"]

        meta = json.loads((out / "metadata.json").read_text())
        assert meta["format_version"] == 1
        assert meta["master_seed"] == 3
        assert len(meta["config_hash"]) == 64

        progress = capsys.readouterr().out
        assert "generation" in progress and "sigma" in progress

    def test_generations_zero_is_evaluation_only(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--generations", "0"]) == 0
        out = tmp_path / "out"
        assert len(_rows(out / "history.csv")) == 1
        genome, _ = load_genome(out / "best_genome.json")
        assert genome.mutations == ()

    def test_missing_config_exits_2_naming_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.yaml"
        assert main(["train", "--config", str(missing)]) == 2
        assert "nope.yaml" in capsys.readouterr().err

    def test_invalid_config_exits_2_with_field_message(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        code = main(["train", "--config", str(cfg), "--set", "ga.n_elites=99"])
        assert code == 2
        assert "n_elites" in capsys.readouterr().err

    def test_worker_count_never_changes_outputs(self, tmp_path):
        cfg = _write_config(tmp_path)
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert main(["train", "--config", str(cfg), "--workers", "1",
                     "--out", str(out1)]) == 0
        assert main(["train", "--config", str(cfg), "--workers", "2",
                     "--out", str(out2)]) == 0
        for name in ("history.csv", "best_genome.json", "metadata.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_workers_env_var(self, tmp_path, monkeypatch):
        cfg = _write_config(tmp_path, workers=None)
        monkeypatch.setenv("METAPOP_WORKERS", "2")
        out_env = tmp_path / "env"
        assert main(["train", "--config", str(cfg), "--out", str(out_env)]) == 0
        monkeypatch.setenv("METAPOP_WORKERS", "not-a-number")
        assert main(["train", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("every", ["0", "-1"])
    def test_checkpoint_every_below_one_exits_2_before_training(self, tmp_path, capsys, every):
        cfg = _write_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--checkpoint-every", every]) == 2
        assert f"--checkpoint-every: must be >= 1, got {every}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestEval:
    @pytest.mark.parametrize("flag, env, source", [
        (["--workers", "-3"], None, "--workers"),
        ([], "-3", "METAPOP_WORKERS"),
    ])
    def test_negative_worker_count_exits_2_naming_source(self, tmp_path, monkeypatch, capsys, flag, env, source):
        cfg = _write_config(tmp_path, workers=None)
        genome_path, _, _ = _tiny_genome(tmp_path)
        if env is None:
            monkeypatch.delenv("METAPOP_WORKERS", raising=False)
        else:
            monkeypatch.setenv("METAPOP_WORKERS", env)
        assert main(["eval", "--config", str(cfg), "--genome", str(genome_path), *flag]) == 2
        assert f"{source}: must be non-negative, got -3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_split_task_sets_are_disjoint(self, tmp_path):
        cfg = _write_config(tmp_path)
        genome_path, _, _ = _tiny_genome(tmp_path)
        by_split = {}
        for split in ("train", "test"):
            out = tmp_path / split
            assert main(["eval", "--config", str(cfg), "--genome", str(genome_path),
                         "--split", split, "--out", str(out)]) == 0
            by_split[split] = {r["task_id"] for r in _rows(out / "ert.csv")}
        assert by_split["train"] and by_split["test"]
        assert not (by_split["train"] & by_split["test"])

    def test_rerun_reproduces_csvs_byte_identically(self, tmp_path):
        cfg = _write_config(tmp_path)
        genome_path, _, _ = _tiny_genome(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["eval", "--config", str(cfg), "--genome", str(genome_path),
                         "--out", str(out), "--workers", "1" if name == "a" else "3"]) == 0
            outs.append(out)
        for csv_name in ("ecdf.csv", "ert.csv"):
            assert (outs[0] / csv_name).read_bytes() == (outs[1] / csv_name).read_bytes()

    def test_runs_each_task_run_episode_once(self, tmp_path):
        """ecdf.csv and ert.csv are derived from one (task x run) episode grid."""
        cfg = _write_config(tmp_path, runs_per_task=3)
        genome_path, _, _ = _tiny_genome(tmp_path)
        episodes = Counter()
        run_episode = ert.run_episode

        def counting(optimizer, task, config, stop_gap=None):
            episodes[task.task_id, config.episode_seed] += 1
            return run_episode(optimizer, task, config, stop_gap=stop_gap)

        with mock.patch.object(ert, "run_episode", counting):
            assert main(["eval", "--config", str(cfg), "--genome", str(genome_path)]) == 0
        tasks = load_config(cfg).suite.build().test_tasks
        assert sorted({task_id for task_id, _ in episodes}) == sorted(t.task_id for t in tasks)
        assert sum(episodes.values()) == len(episodes) == len(tasks) * 3

    def test_corrupted_genome_exits_1_naming_offset(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": 1,,}')
        code = main(["eval", "--config", str(cfg), "--genome", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert "bad.json" in err and "char" in err

    def test_version_mismatch_exits_1(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        genome_path, genome, policy_config = _tiny_genome(tmp_path)
        payload = json.loads(genome_path.read_text())
        payload["format_version"] = 99
        genome_path.write_text(json.dumps(payload))
        assert main(["eval", "--config", str(cfg), "--genome", str(genome_path)]) == 1
        assert "version" in capsys.readouterr().err.lower()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = _write_config(tmp_path)
        genome_path, _, _ = _tiny_genome(tmp_path)
        out = tmp_path / "seeded"
        assert main(["eval", "--config", str(cfg), "--genome", str(genome_path),
                     "--seed", "123", "--out", str(out)]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["master_seed"] == 123


class TestCompare:
    def test_rs_only_gives_two_optimizer_report(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        genome_path, _, _ = _tiny_genome(tmp_path)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg), "--genome", str(genome_path),
                     "--baselines", "rs", "--out", str(out)]) == 0
        names = {r["optimizer"] for r in _rows(out / "ecdf.csv")}
        assert names == {"learned", "rs"}
        table = capsys.readouterr().out
        assert "learned" in table and "rs" in table and "cma-es" not in table

    def test_unknown_baseline_exits_2_listing_names(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        genome_path, _, _ = _tiny_genome(tmp_path)
        code = main(["compare", "--config", str(cfg), "--genome", str(genome_path),
                     "--baselines", "pso"])
        assert code == 2
        err = capsys.readouterr().err
        assert "pso" in err and "rs" in err and "cma-es" in err

    def test_reported_auc_matches_csv_recomputation(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        genome_path, _, _ = _tiny_genome(tmp_path)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg), "--genome", str(genome_path),
                     "--out", str(out)]) == 0
        printed = {}
        for line in capsys.readouterr().out.splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[0] != "optimizer":
                printed[parts[0]] = (float(parts[1]), float(parts[2]))
        assert set(printed) == {"learned", "rs", "cma-es"}

        by_name = {}
        for row in _rows(out / "ecdf.csv"):
            by_name.setdefault(row["optimizer"], []).append(row)
        for name, rows in by_name.items():
            curve = EcdfCurve(
                tuple(int(r["budget"]) for r in rows),
                tuple(float(r["fraction_solved"]) for r in rows),
                int(rows[0]["n_pairs"]),
            )
            auc, final = printed[name]
            assert ecdf_auc(curve, 30) == pytest.approx(auc, abs=5e-5)
            assert curve.final_fraction == pytest.approx(final, abs=5e-5)


class TestListSuite:
    def test_row_count_is_instances_times_families(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path, suite={"families": ["sphere", "rastrigin"], "instances_per_family": 6},
        )
        assert main(["list-suite", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "task_id,family,dimension,split"
        assert len(lines) - 1 == 12

    def test_split_filter(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["list-suite", "--config", str(cfg), "--split", "train"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(lines) == 3
        assert all(line.endswith(",train") for line in lines)


class TestDecode:
    def test_empty_mutation_genome_equals_init_params(self, tmp_path):
        genome_path, _, config = _tiny_genome(tmp_path, mutations=())
        out = tmp_path / "params.json"
        assert main(["decode", str(genome_path), "--out", str(out)]) == 0
        loaded_config, params = load_params(out)
        assert loaded_config == config
        expected = flatten(init_params(config, seed=42))
        np.testing.assert_array_equal(flatten(params), expected)

    def test_decode_then_eval_equals_genome_eval(self, tmp_path):
        cfg = _write_config(tmp_path)
        genome_path, _, _ = _tiny_genome(tmp_path)
        params_path = tmp_path / "params.json"
        assert main(["decode", str(genome_path), "--out", str(params_path)]) == 0
        out_g, out_p = tmp_path / "via_genome", tmp_path / "via_params"
        assert main(["eval", "--config", str(cfg), "--genome", str(genome_path),
                     "--out", str(out_g)]) == 0
        assert main(["eval", "--config", str(cfg), "--params", str(params_path),
                     "--out", str(out_p)]) == 0
        for name in ("ecdf.csv", "ert.csv"):
            assert (out_g / name).read_bytes() == (out_p / name).read_bytes()


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_eval_requires_exactly_one_source(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["eval", "--config", str(cfg)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["eval", "compare"])
    def test_artifact_lambda_above_budget_exits_2_before_any_output(self, tmp_path, capsys, command):
        cfg = _write_config(tmp_path, episode={"fe_max": 20})
        genome_path = tmp_path / "wide.json"
        save_genome(genome_path, Genome(42), PolicyConfig(lam=30, hidden_size=8, num_layers=1))
        out = tmp_path / "never"
        assert main([command, "--config", str(cfg), "--genome", str(genome_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: episode.fe_max: budget 20 is below the artifact's lambda 30\n"
        assert not out.exists()
