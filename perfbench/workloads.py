"""The benchmark's workloads: inputs generated from a seed, one timed
repetition through metapop's public API or CLI, and correctness checks on
what the repetition wrote.

Every episode runs to its full budget, so the cost of a repetition does not
depend on how good the optimizer is: an untrained, seeded genome is a
faithful load. Repetition ``r`` of a run uses master seed ``base + r``, so
no two repetitions of a run repeat the same episodes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import yaml

import metapop
from metapop import bench, cli, ga
from metapop.problems import Family

ALL_FAMILIES = tuple(f.value for f in Family)
#: Baselines the CLI workload's ``compare`` runs next to the learned policy.
CLI_BASELINES = ("rs", "cma-es")


@dataclass(frozen=True)
class TrainSpec:
    """``ga.train`` on a suite of one family."""

    family: str
    dimension: int
    instances: int
    split: tuple[float, float, float]
    lam: int
    fe_max: int
    runs: int
    population: int
    elites: int
    parents: int
    generations: int


@dataclass(frozen=True)
class EvalCompareSpec:
    """CLI ``eval`` then ``compare`` of a seeded genome on an all-test suite."""

    families: tuple[str, ...]
    dimension: int
    instances: int
    runs: int
    lam: int
    genome_mutations: int


@dataclass(frozen=True)
class BaselinesSpec:
    """``bench.compare`` of random search and CMA-ES on an all-test suite."""

    families: tuple[str, ...]
    dimension: int
    instances: int
    runs: int
    lam: int


#: Workload name -> sizes. BENCHMARK.json says why each workload is there.
WORKLOADS: dict[str, TrainSpec | EvalCompareSpec | BaselinesSpec] = {
    "train-slope-d2": TrainSpec("linear-slope", 2, 3, (0.67, 0.0, 0.33), lam=10, fe_max=200,
                                runs=3, population=32, elites=4, parents=8, generations=1),
    "train-lineage-sphere-d2": TrainSpec("sphere", 2, 3, (0.34, 0.0, 0.66), lam=10, fe_max=20,
                                         runs=1, population=8, elites=2, parents=4, generations=60),
    "eval-compare-mixed-d5": EvalCompareSpec(ALL_FAMILIES, 5, 3, runs=1, lam=10, genome_mutations=30),
    "baselines-mixed-d10": BaselinesSpec(ALL_FAMILIES, 10, 3, runs=3, lam=10),
}


@dataclass
class Prepared:
    """Generated inputs of one run, built and written by :func:`prepare`."""

    spec: TrainSpec | EvalCompareSpec | BaselinesSpec
    suite_seed: int
    master_seed: int
    out_dir: Path
    suite: object = None
    paths: dict[str, Path] = field(default_factory=dict)


@dataclass
class RepResult:
    wall_s: float
    genomes: int | None
    phases: dict[str, float]
    checks: list[tuple[str, bool]]
    digest: str
    quality: dict[str, float]
    episodes: int = 0
    distinct_episodes: int = 0


def prepare(name: str, seed: int, out_dir: str | Path, spec=None) -> Prepared:
    """Generate the inputs for ``seed``, build what the program needs, and
    write them under ``out_dir``. ``spec`` replaces the workload's sizes."""
    spec = WORKLOADS[name] if spec is None else spec
    rng = random.Random(f"{name}:{seed}")
    prep = Prepared(spec, rng.randrange(2**31), rng.randrange(2**31), Path(out_dir))
    prep.out_dir.mkdir(parents=True, exist_ok=True)
    inputs = {"workload": name, "seed": seed, "suite_seed": prep.suite_seed,
              "master_seed": prep.master_seed, "spec": asdict(spec)}
    if isinstance(spec, EvalCompareSpec):
        genome = ga.Genome(
            rng.randrange(2**63),
            tuple((rng.randrange(2**63), ga.sigma_schedule(g, ga.GaConfig()))
                  for g in range(spec.genome_mutations)),
        )
        prep.paths["genome"] = prep.out_dir / "genome.json"
        ga.save_genome(prep.paths["genome"], genome, metapop.PolicyConfig(lam=spec.lam))
        prep.paths["config"] = prep.out_dir / "config.yaml"
        config = {
            "suite": {"families": list(spec.families), "dimension": spec.dimension,
                      "instances_per_family": spec.instances,
                      "split_ratio": [0.0, 0.0, 1.0], "seed": prep.suite_seed},
            "policy": {"lambda": spec.lam},
            "runs_per_task": spec.runs,
            "master_seed": prep.master_seed,
            "output_dir": "rep",
        }
        prep.paths["config"].write_text(yaml.safe_dump(config, sort_keys=False))
    elif isinstance(spec, TrainSpec):
        prep.suite = metapop.make_suite([Family(spec.family)], spec.dimension, spec.instances,
                                        spec.split, prep.suite_seed)
    else:
        prep.suite = metapop.make_suite([Family(f) for f in spec.families], spec.dimension,
                                        spec.instances, (0.0, 0.0, 1.0), prep.suite_seed)
    (prep.out_dir / "inputs.json").write_text(json.dumps(inputs, sort_keys=True, indent=1) + "\n")
    return prep


def expected_episodes(prep: Prepared) -> tuple[int, int]:
    """Episodes one repetition must complete, from the workload's sizes, and
    how many of them are distinct. The CLI workload's two commands each need
    the learned policy's grid, the same episodes twice."""
    spec = prep.spec
    if isinstance(spec, TrainSpec):
        n_train, n_val = len(prep.suite.train_tasks), len(prep.suite.validation_tasks)
        n = (spec.generations + 1) * (spec.population * n_train + n_val) * spec.runs
        return n, n
    grid = len(spec.families) * spec.instances * spec.runs
    if isinstance(spec, BaselinesSpec):
        return 2 * grid, 2 * grid
    return (2 + len(CLI_BASELINES)) * grid, (1 + len(CLI_BASELINES)) * grid


def run_rep(prep: Prepared, rep: int, workers: int) -> RepResult:
    """One timed repetition; checks run after the timed section."""
    rep_dir = prep.out_dir / "rep"
    rep_dir.mkdir(exist_ok=True)
    seed = prep.master_seed + rep
    spec = prep.spec
    if isinstance(spec, TrainSpec):
        result = _train_rep(prep, spec, seed, workers, rep_dir)
    elif isinstance(spec, EvalCompareSpec):
        result = _eval_compare_rep(prep, spec, seed, workers, rep_dir)
    else:
        result = _baselines_rep(prep, spec, seed, workers, rep_dir)
    result.episodes, result.distinct_episodes = expected_episodes(prep)
    return result


def _train_rep(prep: Prepared, spec: TrainSpec, seed: int, workers: int, rep_dir: Path) -> RepResult:
    ga_config = ga.GaConfig(population_size=spec.population, n_elites=spec.elites,
                            n_parents=spec.parents, generations=spec.generations)
    policy_config = metapop.PolicyConfig(lam=spec.lam)
    episode = metapop.EpisodeConfig(lam=spec.lam, fe_max=spec.fe_max)
    t0 = time.perf_counter()
    best, history = ga.train(ga_config, policy_config, prep.suite, episode, spec.runs, seed,
                             workers=workers)
    ga.write_history_csv(rep_dir / "history.csv", history)
    ga.save_genome(rep_dir / "best_genome.json", best, policy_config)
    wall = time.perf_counter() - t0

    checks = Checks()
    has_val = bool(prep.suite.validation_tasks)
    with checks.guard("history"):
        rows = _read_csv(rep_dir / "history.csv")
        checks.add("history.rows", len(rows) == spec.generations + 1)
        for r in rows:
            best_f, mean_f = float(r["train_best"]), float(r["train_mean"])
            val = float(r["val_best"])
            checks.add("history.finite",
                       all(math.isfinite(v) for v in (best_f, mean_f, float(r["sigma"])))
                       and (math.isfinite(val) if has_val else math.isnan(val)))
            checks.add("history.best_le_mean", best_f <= mean_f)
        loaded, _ = ga.load_genome(rep_dir / "best_genome.json")
        checks.add("best_genome.length", len(loaded.mutations) <= spec.generations)
    final_best = history.rows[-1].train_best
    return RepResult(
        wall_s=wall,
        genomes=(spec.generations + 1) * (spec.population + has_val),
        phases={},
        checks=checks.items,
        digest=_digest(rep_dir, ("history.csv", "best_genome.json"), {"train_best": final_best}),
        quality={"train_best": final_best},
    )


def _eval_compare_rep(prep: Prepared, spec: EvalCompareSpec, seed: int, workers: int,
                      rep_dir: Path) -> RepResult:
    common = ["--config", str(prep.paths["config"]), "--genome", str(prep.paths["genome"]),
              "--split", "test", "--workers", str(workers), "--seed", str(seed)]
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        t0 = time.perf_counter()
        rc_eval = cli.main(["eval", *common, "--out", str(rep_dir / "eval")])
        t1 = time.perf_counter()
        rc_compare = cli.main(["compare", *common, "--baselines", ",".join(CLI_BASELINES),
                               "--out", str(rep_dir / "compare")])
        t2 = time.perf_counter()

    checks = Checks()
    checks.add("eval.exit_code", rc_eval == 0)
    checks.add("compare.exit_code", rc_compare == 0)
    tasks = len(spec.families) * spec.instances
    targets = len(metapop.default_targets())
    fe_max = 100 * spec.dimension
    quality: dict[str, float] = {}
    with checks.guard("eval"):
        curves = _check_ecdf_csv(checks, "eval", rep_dir / "eval" / "ecdf.csv", ["learned"],
                                 tasks * targets * spec.runs)
        ert_rows = _read_csv(rep_dir / "eval" / "ert.csv")
        checks.add("eval.ert_rows", len(ert_rows) == tasks * targets)
        checks.add("eval.ert_runs", all(int(r["n_runs"]) == spec.runs for r in ert_rows))
        checks.add("eval.ert_finite", all(
            math.isfinite(float(r["p_hat"])) and math.isfinite(float(r["expected_fe"]))
            and (r["e_fe_succ_hat"] == "" or math.isfinite(float(r["e_fe_succ_hat"])))
            for r in ert_rows))
        # the ECDF's final value is the mean success rate over the
        # (task, target) pairs it aggregates (the acceptance-7 invariant)
        mean_p = math.fsum(float(r["p_hat"]) for r in ert_rows) / len(ert_rows)
        checks.add("eval.final_fraction_eq_mean_p_hat",
                   abs(curves["learned"].final_fraction - mean_p) <= 1e-12)
        quality["eval.auc.learned"] = metapop.ecdf_auc(curves["learned"], fe_max)
    with checks.guard("compare"):
        names = ["learned", *CLI_BASELINES]
        compared = _check_ecdf_csv(checks, "compare", rep_dir / "compare" / "ecdf.csv", names,
                                   tasks * targets * spec.runs)
        checks.add("compare.learned_matches_eval", compared["learned"] == curves["learned"])
        for name, curve in compared.items():
            quality[f"auc.{name}"] = metapop.ecdf_auc(curve, fe_max)
    return RepResult(
        wall_s=t2 - t0,
        genomes=None,
        phases={"eval_s": t1 - t0, "compare_s": t2 - t1},
        checks=checks.items,
        digest=_digest(rep_dir, ("eval/ecdf.csv", "eval/ert.csv", "compare/ecdf.csv"), quality),
        quality=quality,
    )


def _baselines_rep(prep: Prepared, spec: BaselinesSpec, seed: int, workers: int,
                   rep_dir: Path) -> RepResult:
    targets = metapop.default_targets()
    episode = metapop.EpisodeConfig(lam=spec.lam)
    t0 = time.perf_counter()
    report = bench.compare([("rs", metapop.RandomSearch()), ("cma-es", metapop.CmaEs())],
                           prep.suite, targets, episode, spec.runs, seed, workers=workers)
    bench.write_ecdf_csv(rep_dir / "ecdf.csv", [(e.name, e.curve) for e in report.entries])
    wall = time.perf_counter() - t0

    checks = Checks()
    quality: dict[str, float] = {}
    with checks.guard("compare"):
        tasks = len(spec.families) * spec.instances
        curves = _check_ecdf_csv(checks, "compare", rep_dir / "ecdf.csv", ["rs", "cma-es"],
                                 tasks * len(targets) * spec.runs)
        for entry in report.entries:
            checks.add("compare.report_matches_csv", curves[entry.name] == entry.curve)
            checks.add("compare.auc_in_unit_interval", 0.0 <= entry.auc <= 1.0)
            quality[f"auc.{entry.name}"] = entry.auc
    return RepResult(
        wall_s=wall,
        genomes=None,
        phases={},
        checks=checks.items,
        digest=_digest(rep_dir, ("ecdf.csv",), quality),
        quality=quality,
    )


class Checks:
    """Named pass/fail results; an exception inside ``guard`` is one failure."""

    def __init__(self) -> None:
        self.items: list[tuple[str, bool]] = []

    def add(self, name: str, ok: bool) -> None:
        self.items.append((name, bool(ok)))

    @contextlib.contextmanager
    def guard(self, name: str):
        try:
            yield
        except Exception as exc:  # a malformed artifact is a failed check, not a crash
            self.add(f"{name}.error: {type(exc).__name__}: {exc}", False)


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _check_ecdf_csv(checks: Checks, prefix: str, path: Path, names: list[str],
                    n_pairs: int) -> dict[str, metapop.EcdfCurve]:
    """Rebuild each optimizer's curve from the CSV and check its shape."""
    by_name: dict[str, list[dict[str, str]]] = {}
    for row in _read_csv(path):
        by_name.setdefault(row["optimizer"], []).append(row)
    checks.add(f"{prefix}.ecdf_optimizers", sorted(by_name) == sorted(names))
    curves = {}
    for name in names:
        rows = by_name.get(name, [])
        fractions = [float(r["fraction_solved"]) for r in rows]
        checks.add(f"{prefix}.ecdf_n_pairs", all(int(r["n_pairs"]) == n_pairs for r in rows))
        checks.add(f"{prefix}.ecdf_in_unit_interval",
                   all(math.isfinite(f) and 0.0 <= f <= 1.0 for f in fractions))
        checks.add(f"{prefix}.ecdf_non_decreasing",
                   all(a <= b for a, b in zip(fractions, fractions[1:])))
        curves[name] = metapop.EcdfCurve(tuple(int(r["budget"]) for r in rows),
                                         tuple(fractions), n_pairs)
    return curves


def _digest(rep_dir: Path, files: tuple[str, ...], quality: dict[str, float]) -> str:
    h = hashlib.sha256()
    for name in files:
        h.update(name.encode() + b"\0" + (rep_dir / name).read_bytes())
    h.update(json.dumps(quality, sort_keys=True).encode())
    return h.hexdigest()
