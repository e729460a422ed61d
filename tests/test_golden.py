"""Golden hashes of a tiny train -> eval -> compare pipeline.

The pinned sha256 values make "the same behaviour" a check: any change to the
numbers a run produces (policy step, GA, episodes, ERT, ECDF, CSV formatting)
changes a hash. A speed-up that is meant to keep every bit must leave these
values alone; a deliberate numerics change re-pins them and says so.

Bits depend on the kernels that run: OpenBLAS picks a matmul kernel per CPU,
and numpy picks SIMD loops per CPU. So every pinned pipeline runs in a fresh
interpreter under ``PORTABLE_ENV``: OpenBLAS's generic x86-64 kernel and
numpy's loops below AVX2, a code path that every x86-64 CPU takes, whatever
kernel the caller's environment would select. Feature names that a CPU or
numpy build does not know are ignored. Bits are still only promised per numpy
and BLAS build, so a failure prints that build's fingerprint. ARM and other
non-x86 machines are out of scope: these hashes are not expected to match
there.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import metapop
from metapop.cli import main
from metapop.config import load_config
from metapop.env import EpisodeConfig, run_episode
from metapop.policy import LearnedOptimizer, load_params

#: (artifact path relative to the run directory) -> sha256, per dimension.
GOLDEN = {
    2: {
        "train/history.csv": "e6125b388cd17f3a82357910270e9355d2dd6ad0385aba2287478217f55b3a44",
        "train/best_genome.json": "ecd84ae74c140663b0e13196887db7372dae2c89ab1d9f49b88827b7fdc88045",
        "eval/ecdf.csv": "92ac05d8371e660bc07fafe70bb5408dbda5bf92dbb4fec74f81d60851a778ec",
        "eval/ert.csv": "020da2a85e83d889014853f8b1b3b4fd6283c8378444d7cdce3721c15e329516",
        "compare/ecdf.csv": "9be893ec403deaa568c249d113a7c6697106afd6a9bf627084cf5f7162d26f5f",
    },
    5: {
        "train/history.csv": "f5c4a99f9db38fb79a91c6e2953d7165d6f5e86ace2218503dcf192b5bcac998",
        "train/best_genome.json": "a72e776f46375c990b1f23f32b91ad020b0e82dbfc6320c791767a24257311c5",
        "eval/ecdf.csv": "3f5569289e38d074bce00709910d5f00d7ed69446efe6543b6cfb02063f1592b",
        "eval/ert.csv": "73fea637d119dc677fb17cc67a292b1a3fcb7ee0072406d179f508356247b000",
        "compare/ecdf.csv": "501b258cabe6ecb04d5eb4b4f33c9323579016c8b0d11d1c5cc226aa46bdb33d",
    },
}

#: Artifacts of a 28-generation train whose best genome carries a long lineage.
LINEAGE_GOLDEN = {
    "history.csv": "fb6e9263c2070ab28e06dea1347049b4e5fc1dcbbe5ed49e21790a840bad87f5",
    "best_genome.json": "1b018badb826e30aaed1b033341ff0f255aa716d02712a65254168e4c5187dfe",
}


#: A pipeline whose episodes mostly succeed well inside their budget.
SLOPE_GOLDEN = {
    "train/history.csv": "6b6d4acb0eaaa8ba71171217154ed9f24f85ca9f7a6c94be6422d25bb9e4a09a",
    "train/best_genome.json": "e17b019e7dd2d69066110574f987bf00947e76150e6c9ab3b6cc547f7a243b3a",
    "eval/ecdf.csv": "63da5525cd8ef9498dcb6490eb7e0e214c6f40629465bf015dd43a0e959f4f91",
    "eval/ert.csv": "3276dd29341617c4c1c21b2acff4b668c3eaeaccf011ee31bdbe47acd01322d6",
    "compare/ecdf.csv": "b66b58a1dc9313db2ea75d1a111758721683fcad769bc340bfca0647c43a885d",
}


#: The environment every pinned pipeline runs under (see the module docstring).
PORTABLE_ENV = {
    "OPENBLAS_CORETYPE": "Prescott",
    "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
}


def _openblas_core() -> str:
    """The kernel OpenBLAS chose at run time, read from the library numpy ships."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):  # another BLAS or wheel layout
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def _fingerprint() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # show_config's layout is not a stable API
        blas_id = f"unknown ({exc})"
    disabled = os.environ.get("NPY_DISABLE_CPU_FEATURES", "")
    return (
        f"numpy {np.__version__}, BLAS {blas_id} (kernel {_openblas_core()}), "
        f"NPY_DISABLE_CPU_FEATURES={disabled!r}, python {platform.python_version()} on {platform.machine()}"
    )


def _portable(tmp_path, pipeline: str, *args) -> tuple[dict[str, str], str]:
    """Run ``pipeline(tmp_path, *args)`` of this module in a fresh interpreter
    under ``PORTABLE_ENV``; return its hashes and that interpreter's fingerprint."""
    result = tmp_path / f"{pipeline}.json"
    code = (
        "import json, sys; from pathlib import Path; import test_golden as g; "
        "name, out, args, result = sys.argv[1:]; "
        "got = getattr(g, name)(Path(out), *json.loads(args)); "
        "Path(result).write_text(json.dumps([got, g._fingerprint()]))"
    )
    path = [str(Path(metapop.__file__).parents[1]), str(Path(__file__).parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **PORTABLE_ENV, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run(
        [sys.executable, "-c", code, pipeline, str(tmp_path), json.dumps(args), str(result)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, f"{pipeline} failed:\n{proc.stderr}"
    hashes, fingerprint = json.loads(result.read_text())
    return hashes, fingerprint


def run_pipeline(tmp_path, dimension: int) -> dict[str, str]:
    """Train 2 generations, then eval and compare the best genome; hash outputs.

    Default policy architecture (hidden 32, 2 layers, lambda 10) on sphere and
    linear-slope. The budget is not a multiple of lambda, so every episode
    ends with a truncated generation.
    """
    tree = {
        "suite": {
            "families": ["sphere", "linear-slope"],
            "dimension": dimension,
            "instances_per_family": 3,
            "split_ratio": [0.34, 0.33, 0.33],
            "seed": 5,
        },
        "policy": {"lambda": 10},
        "ga": {"population_size": 4, "n_elites": 1, "n_parents": 2, "generations": 2},
        "episode": {"fe_max": 10 * dimension + 5, "tolerance": 0.1},
        "runs_per_task": 2,
        "master_seed": 17,
        "workers": 1,
    }
    return _cli_pipeline_hashes(tmp_path, tree, GOLDEN[dimension])


def _cli_pipeline_hashes(tmp_path, tree: dict, names) -> dict[str, str]:
    """CLI train, then eval and compare of its best genome; hash the named files."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(tree))
    out = {name: tmp_path / name for name in ("train", "eval", "compare")}
    genome = str(out["train"] / "best_genome.json")
    common = ["--config", str(cfg)]
    assert main(["train", *common, "--out", str(out["train"])]) == 0
    assert main(["eval", *common, "--genome", genome, "--out", str(out["eval"])]) == 0
    assert main(["compare", *common, "--genome", genome, "--baselines", "rs,cma-es",
                 "--out", str(out["compare"])]) == 0
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("dimension", sorted(GOLDEN))
def test_pipeline_artifacts_match_pinned_hashes(tmp_path, dimension):
    got, fingerprint = _portable(tmp_path, "run_pipeline", dimension)
    changed = sorted(name for name, digest in got.items() if digest != GOLDEN[dimension][name])
    assert not changed, (
        f"artifacts changed at d={dimension}: {changed}\n"
        f"got {got}\n"
        f"pinned on one numpy/BLAS build; this one is {fingerprint}"
    )


def run_lineage_train(tmp_path, workers: int) -> dict[str, str]:
    """Train 28 generations on one sphere task at d=2; hash the outputs.

    Population 8 with 4 parents, so the returned genome's lineage is 20 or
    more mutations long; the pinned hashes therefore cover a decode that
    reuses ancestors' parameters many generations deep.
    """
    tree = {
        "suite": {
            "families": ["sphere"],
            "dimension": 2,
            "instances_per_family": 3,
            "split_ratio": [0.34, 0.33, 0.33],
            "seed": 5,
        },
        "policy": {"lambda": 10},
        "ga": {"population_size": 8, "n_elites": 1, "n_parents": 4, "generations": 28},
        "episode": {"fe_max": 20, "tolerance": 0.1},
        "runs_per_task": 1,
        "master_seed": 23,
        "workers": workers,
    }
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(tree))
    out = tmp_path / f"train-w{workers}"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    genome = json.loads((out / "best_genome.json").read_text())["genome"]
    assert len(genome["mutations"]) >= 20
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in LINEAGE_GOLDEN}


def test_long_lineage_train_matches_pinned_hashes_at_any_worker_count(tmp_path):
    serial, fingerprint = _portable(tmp_path, "run_lineage_train", 1)
    assert serial == LINEAGE_GOLDEN, (
        f"got {serial}\npinned on one numpy/BLAS build; this one is {fingerprint}"
    )
    assert _portable(tmp_path, "run_lineage_train", 2)[0] == serial


def run_slope_pipeline(tmp_path) -> dict[str, str]:
    """Train, eval and compare on linear-slope at d=2 with a 200-eval budget.

    Many episodes reach the 1e-3 tolerance in the middle of their budget
    and some never do, so the hashes cover both the first-hit records the
    scoring paths read and the zero-success fallback of the meta-objective.
    """
    tree = {
        "suite": {
            "families": ["linear-slope"],
            "dimension": 2,
            "instances_per_family": 9,
            "split_ratio": [0.34, 0.33, 0.33],
            "seed": 5,
        },
        "policy": {"lambda": 10},
        "ga": {"population_size": 6, "n_elites": 1, "n_parents": 3, "generations": 2},
        "episode": {"fe_max": 200, "tolerance": 1e-3},
        "runs_per_task": 3,
        "master_seed": 29,
        "workers": 1,
    }
    return _cli_pipeline_hashes(tmp_path, tree, SLOPE_GOLDEN)


def test_slope_pipeline_with_mid_budget_successes_matches_pinned_hashes(tmp_path):
    got, fingerprint = _portable(tmp_path, "run_slope_pipeline")
    assert got == SLOPE_GOLDEN, (
        f"got {got}\npinned on one numpy/BLAS build; this one is {fingerprint}"
    )


#: Files of one tiny train -> decode run that the pipelines above do not hash.
ARTIFACT_GOLDEN = {
    "train/metadata.json": "2c8152b36604fb511b85a465f8467ce50b601e69a03f96802269e373f41c4ad3",
    "train/checkpoints/checkpoint_0000.json": "5392f0e1c76c4f95d90ca159db7681a6446268481af98b8e95067d41fbc6868c",
    "train/checkpoints/checkpoint_0002.json": "2e66b06c9d96b470c33ae84d70e616a8ff000a91a710cbaa578729716457888c",
    "params.json": "bcfb1925afd803b029e5af4a3630595180ac00f23b4e63421399e9a757a36f48",
    "trace.csv": "0ee0977fd4bc6eaeb50297fd14cf1a129f473bb9625781817436b1a5aabb2522",
}


def run_artifact_pipeline(tmp_path) -> dict[str, str]:
    """CLI train and decode of a one-layer policy, then one traced episode.

    Covers the JSON envelopes (run metadata, GA checkpoints, raw parameters)
    and the per-point trace CSV byte for byte.
    """
    tree = {
        "suite": {
            "families": ["sphere"],
            "dimension": 2,
            "instances_per_family": 3,
            "split_ratio": [0.34, 0.33, 0.33],
            "seed": 5,
        },
        "policy": {"lambda": 5, "hidden_size": 8, "num_layers": 1},
        "ga": {"population_size": 4, "n_elites": 1, "n_parents": 2, "generations": 2},
        "episode": {"fe_max": 22, "tolerance": 0.1},
        "runs_per_task": 1,
        "master_seed": 31,
        "workers": 1,
    }
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(tree))
    train_dir, params = tmp_path / "train", tmp_path / "params.json"
    assert main(["train", "--config", str(cfg), "--out", str(train_dir),
                 "--checkpoint-every", "2"]) == 0
    assert main(["decode", str(train_dir / "best_genome.json"), "--out", str(params)]) == 0
    policy_config, policy_params = load_params(params)
    task = load_config(cfg).suite.build().tasks[0]
    run_episode(LearnedOptimizer(policy_params, policy_config), task,
                EpisodeConfig(lam=5, fe_max=22, episode_seed=9), trace_path=tmp_path / "trace.csv")
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ARTIFACT_GOLDEN}


def test_envelope_and_trace_artifacts_match_pinned_hashes(tmp_path):
    got, fingerprint = _portable(tmp_path, "run_artifact_pipeline")
    assert got == ARTIFACT_GOLDEN, (
        f"got {got}\npinned on one numpy/BLAS build; this one is {fingerprint}"
    )
