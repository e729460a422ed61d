"""Golden hashes of a tiny train -> eval -> compare pipeline.

The pinned sha256 values make "the same behaviour" a check: any change to the
numbers a run produces (policy step, GA, episodes, ERT, ECDF, CSV formatting)
changes a hash. A speed-up that is meant to keep every bit must leave these
values alone; a deliberate numerics change re-pins them and says so.

Bits are only promised per BLAS build (matmul summation order is the
library's choice), so a failure prints the numpy and BLAS fingerprint.
"""

from __future__ import annotations

import hashlib
import json
import platform

import numpy as np
import pytest
import yaml

from metapop.cli import main

#: (artifact path relative to the run directory) -> sha256, per dimension.
GOLDEN = {
    2: {
        "train/history.csv": "1164e0d2613bdef187c560354f32c82a4a99488ba17b830d579e812265861ce6",
        "train/best_genome.json": "6e0d83bcf12e19b43978731e5fbb4a47dd7e94c35d2a186fcb23e0bbdac4a5cb",
        "eval/ecdf.csv": "45db816f45fd1ddd06f7a084fe0104bdbd33f345d22a6b1c44f6591f6bce9c69",
        "eval/ert.csv": "2e680b6642a29815883a5715c3c9fdf0b0bc5345b4a52ca8f20c06b78111765e",
        "compare/ecdf.csv": "cc26ccd90493f4780dd5aa4ef056b7cfd8cfad1da754f8cff600ee0c7af0196e",
    },
    5: {
        "train/history.csv": "40d696f7d8127293e44bed23154904e2c1841fd53e15a16bf1547ddd2c37e696",
        "train/best_genome.json": "a63cde102a904dce1ea5aa9a4b76f7fff4104d0435c4ca6f1a1094ddff654bc9",
        "eval/ecdf.csv": "a8829e8f21f1a46cac7c15797ca360ce7ba3f59fe9864643584807382e3d5960",
        "eval/ert.csv": "5166683b985e3e0ddbbf6348f2901b671fc1ee807ecd5fe17d3e678b5ec66af0",
        "compare/ecdf.csv": "62f628ce9e4949425afcbb559211e968f619b24bbbc016b96de9601252f3e68c",
    },
}

#: Artifacts of a 28-generation train whose best genome carries a long lineage.
LINEAGE_GOLDEN = {
    "history.csv": "738b2b4ab4acc63311c6a005970e2aa3bb143b6e35240fa5922a704a348fe784",
    "best_genome.json": "581b545ba863b651799e312ff5a88c1955819c7fcdb049938325d542a92686f7",
}


#: A pipeline whose episodes mostly succeed well inside their budget.
SLOPE_GOLDEN = {
    "train/history.csv": "fc7dff3029fa57b23a2b57f6c33981b11da16ba31ecbce23107ceb46e3dcfe7b",
    "train/best_genome.json": "e17b019e7dd2d69066110574f987bf00947e76150e6c9ab3b6cc547f7a243b3a",
    "eval/ecdf.csv": "dd008a24d77d7dabf54d2abbca8a4dfe3300f6407cfc729bf4fe52fad9c2110c",
    "eval/ert.csv": "846e4b754487d3118d832d24855309d93f8665d78d5222a608311bc5b9016d7b",
    "compare/ecdf.csv": "b0f1545c118b774c367cba758c07ecb69ba14214f0522c31d1bc281dd47ae218",
}


def _fingerprint() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # show_config's layout is not a stable API
        blas_id = f"unknown ({exc})"
    return f"numpy {np.__version__}, BLAS {blas_id}, python {platform.python_version()}"


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
    got = run_pipeline(tmp_path, dimension)
    changed = sorted(name for name, digest in got.items() if digest != GOLDEN[dimension][name])
    assert not changed, (
        f"artifacts changed at d={dimension}: {changed}\n"
        f"got {got}\n"
        f"pinned on one BLAS build; this one is {_fingerprint()}"
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
    serial = run_lineage_train(tmp_path, workers=1)
    assert serial == LINEAGE_GOLDEN, (
        f"got {serial}\npinned on one BLAS build; this one is {_fingerprint()}"
    )
    assert run_lineage_train(tmp_path, workers=2) == serial


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
    got = run_slope_pipeline(tmp_path)
    assert got == SLOPE_GOLDEN, (
        f"got {got}\npinned on one BLAS build; this one is {_fingerprint()}"
    )
