"""Atomic writes and the versioned JSON loader of ``metapop.artifacts``."""

from __future__ import annotations

import json
import os

import pytest
import yaml

from metapop import artifacts
from metapop.cli import main
from metapop.ga import GaConfig, Genome, TrainHistory, load_ga_checkpoint, load_genome, save_genome, write_ga_checkpoint
from metapop.policy import PolicyConfig, init_params, load_params, save_params

PC = PolicyConfig(lam=5, hidden_size=4, num_layers=1)


def _siblings(path):
    return sorted(p.name for p in path.parent.iterdir())


class TestWriteAtomic:
    def test_failed_replace_keeps_old_bytes_and_leaves_no_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.json"
        target.write_text("old")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(artifacts.os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            artifacts.write_atomic(target, "new")
        assert target.read_text() == "old"
        assert _siblings(target) == ["out.json"]

    def test_csv_row_error_leaves_old_file_untouched(self, tmp_path):
        target = tmp_path / "table.csv"
        target.write_bytes(b"a,b\r\n1,2\r\n")

        def rows():
            yield [3, 4]
            raise RuntimeError("row failed")

        with pytest.raises(RuntimeError, match="row failed"):
            artifacts.write_csv(target, ["a", "b"], rows())
        assert target.read_bytes() == b"a,b\r\n1,2\r\n"
        assert _siblings(target) == ["table.csv"]

    def test_new_file_gets_the_umask_mode(self, tmp_path):
        old = os.umask(0o027)
        try:
            artifacts.write_atomic(tmp_path / "new.txt", "x")
            mode = (tmp_path / "new.txt").stat().st_mode & 0o777
        finally:
            os.umask(old)
        assert mode == 0o666 & ~0o027

    def test_symlinked_target_is_replaced_not_written_through(self, tmp_path):
        real, link = tmp_path / "real.txt", tmp_path / "link.txt"
        real.write_text("old")
        link.symlink_to(real)
        artifacts.write_atomic(link, "new")
        assert real.read_text() == "old"
        assert not link.is_symlink() and link.read_text() == "new"


class TestLoaderMessages:
    """Each loader's errors name the kind of file, its path and the problem."""

    @staticmethod
    def _write(kind, path):
        if kind == "parameter":
            save_params(path, PC, init_params(PC, 0))
        elif kind == "genome":
            save_genome(path, Genome(5, ((1, 0.2),)), PC)
        else:
            ga = GaConfig(population_size=2, n_elites=1, n_parents=1, generations=0)
            write_ga_checkpoint(path, ga, PC, 0, [Genome(5), Genome(6)], TrainHistory(()))

    LOADERS = {
        "parameter": (load_params, "flat_params"),
        "genome": (load_genome, "genome"),
        "checkpoint": (load_ga_checkpoint, "population"),
    }

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_bad_version_names_kind_and_path(self, tmp_path, kind):
        path = tmp_path / f"{kind}.json"
        self._write(kind, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 7
        path.write_text(json.dumps(payload))
        load, _ = self.LOADERS[kind]
        with pytest.raises(ValueError) as info:
            load(path)
        assert str(info.value) == f"{kind} file {path}: unsupported format_version 7, expected 1"

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_missing_key_names_kind_path_and_key(self, tmp_path, kind):
        path = tmp_path / f"{kind}.json"
        self._write(kind, path)
        load, key = self.LOADERS[kind]
        payload = json.loads(path.read_text())
        del payload[key]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as info:
            load(path)
        assert str(info.value) == f"{kind} file {path}: missing key {key!r}"

    def test_missing_nested_key_is_named_too(self, tmp_path):
        path = tmp_path / "genome.json"
        self._write("genome", path)
        payload = json.loads(path.read_text())
        del payload["policy_config"]["lambda"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"genome file .*: missing key 'lambda'"):
            load_genome(path)

    def test_cli_prints_the_missing_key(self, tmp_path, capsys):
        path = tmp_path / "genome.json"
        self._write("parameter", path)
        assert main(["decode", str(path), "--out", str(tmp_path / "p.json")]) == 1
        assert capsys.readouterr().err == f"error: genome file {path}: missing key 'genome'\n"


def _tiny_config(tmp_path):
    tree = {
        "suite": {"families": ["sphere"], "dimension": 2, "instances_per_family": 3,
                  "split_ratio": [0.34, 0.33, 0.33], "seed": 1},
        "policy": {"lambda": 5, "hidden_size": 4, "num_layers": 1},
        "ga": {"population_size": 2, "n_elites": 1, "n_parents": 1, "generations": 1},
        "episode": {"fe_max": 10, "tolerance": 0.1},
        "runs_per_task": 1,
        "workers": 0,
    }
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(tree))
    return cfg


class TestCliOutputs:
    def test_train_leaves_no_temp_file(self, tmp_path):
        out = tmp_path / "run" / "train"
        assert main(["train", "--config", str(_tiny_config(tmp_path)), "--out", str(out)]) == 0
        files = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
        assert files == [
            "best_genome.json", "checkpoints/checkpoint_0000.json",
            "checkpoints/checkpoint_0001.json", "history.csv", "metadata.json",
        ]

    def test_decode_creates_the_output_directory(self, tmp_path):
        genome = tmp_path / "genome.json"
        save_genome(genome, Genome(5), PC)
        out = tmp_path / "new" / "dir" / "params.json"
        assert main(["decode", str(genome), "--out", str(out)]) == 0
        assert load_params(out)[0] == PC
