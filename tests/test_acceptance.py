"""Acceptance suite: seven end-to-end checks with pinned tolerances.

Each test prints one live PASS/FAIL line (bypassing capture) so the
verdicts are visible in any pytest run.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import yaml

from metapop.baselines import CmaEs, RandomSearch, default_cma_lambda
from metapop.bench import TargetSet, collect, default_targets, ecdf_auc, ert_table, run_ecdf
from metapop.cli import main
from metapop.env import EpisodeConfig, Observation, run_episode
from metapop.ert import expected_fe, expected_restarts
from metapop.ga import GaConfig, Genome, decode, evolve_step, sigma_schedule, train
from metapop.policy import (
    LearnedOptimizer,
    PolicyConfig,
    act,
    flatten,
    init_params,
    init_state,
)
from metapop.problems import Family, make_instance, make_suite

_WORKERS = 0  # numerics are worker-invariant; serial keeps timings honest


def _verdict(capsys, number: int, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[acceptance {number}] {'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"acceptance {number} ({label}): {detail}"


def test_1_act_is_invariant_under_monotone_fitness_transforms(capsys):
    """100 random policies, populations, transforms: bit-identical acts."""
    start = time.time()
    mismatches = 0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        lam = int(rng.integers(4, 11))
        dim = int(rng.integers(2, 6))
        config = PolicyConfig(lam=lam)
        params = init_params(config, seed=trial)

        state = init_state(config, lam, dim)
        batch0, state = act(params, state, Observation(None, None, 0), np.random.default_rng(trial))
        points = batch0.points
        fitness = rng.uniform(0.5, 3.0, lam)
        kind = trial % 3
        if kind == 0:
            transformed = fitness**3
        elif kind == 1:
            transformed = rng.uniform(0.5, 2.0) * fitness + rng.normal()
        else:
            transformed = np.exp(fitness)

        out_f = act(params, state, Observation(points, fitness, 1), np.random.default_rng(trial + 1))
        out_g = act(params, state, Observation(points, transformed, 1), np.random.default_rng(trial + 1))
        same = (
            np.array_equal(out_f[0].points, out_g[0].points)
            and np.array_equal(out_f[1].h, out_g[1].h)
            and np.array_equal(out_f[1].c, out_g[1].c)
        )
        mismatches += not same
    elapsed = time.time() - start
    ok = mismatches == 0 and elapsed < 10.0
    _verdict(capsys, 1, "monotone invariance",
             ok, f"{mismatches}/100 mismatches, {elapsed:.1f}s (< 10 s)")


def test_2_expected_fe_matches_restart_simulation(capsys):
    """Closed form vs 1e6-trial Monte Carlo: 0.5% on FE, 0.02 on restarts."""
    start = time.time()
    fe_max, e_succ, n_trials = 100, 37.0, 10**6
    worst_fe_rel = 0.0
    worst_restart_abs = 0.0
    for idx, p in enumerate((0.1, 0.3, 0.5, 0.9)):
        rng = np.random.default_rng(200 + idx)
        failures = rng.geometric(p, n_trials) - 1
        sim_fe = (failures * fe_max + e_succ).mean()
        worst_fe_rel = max(
            worst_fe_rel, abs(sim_fe - expected_fe(p, e_succ, fe_max)) / expected_fe(p, e_succ, fe_max)
        )
        restarts = np.random.default_rng(300 + idx).geometric(p, 4 * n_trials) - 1.0
        worst_restart_abs = max(worst_restart_abs, abs(restarts.mean() - expected_restarts(p)))
    elapsed = time.time() - start
    ok = worst_fe_rel <= 0.005 and worst_restart_abs <= 0.02 and elapsed < 30.0
    _verdict(capsys, 2, "ERT oracle equivalence", ok,
             f"max FE rel err {worst_fe_rel:.2e} (<= 5e-3), "
             f"max restart abs err {worst_restart_abs:.2e} (<= 2e-2), {elapsed:.1f}s (< 30 s)")


def test_3_genome_decoding_is_deterministic_and_children_extend_parents(capsys):
    """1000 genomes decode bit-identically twice; mutation list semantics."""
    start = time.time()
    config = PolicyConfig(lam=10)
    rng = np.random.default_rng(7)
    decode_mismatches = 0
    for _ in range(1000):
        mutations = tuple(
            (int(rng.integers(2**63)), float(rng.uniform(0.01, 0.3)))
            for _ in range(rng.integers(0, 4))
        )
        genome = Genome(init_seed=int(rng.integers(2**63)), mutations=mutations)
        first = flatten(decode(genome, config))
        second = flatten(decode(genome, config))
        decode_mismatches += not np.array_equal(first, second)

    ga = GaConfig(population_size=24, n_elites=3, n_parents=6, generations=30)
    population = [Genome(init_seed=i, mutations=((i, 0.3),) * (i % 3)) for i in range(24)]
    fitnesses = list(np.random.default_rng(8).uniform(10, 500, 24))
    lineage_ok = True
    for g in (0, 1, 5):
        children = evolve_step(population, fitnesses, g, ga, seed=g)[ga.n_elites:]
        for child in children:
            parents = [
                p for p in population
                if p.init_seed == child.init_seed and p.mutations == child.mutations[:-1]
            ]
            lineage_ok &= bool(parents) and child.mutations[-1][1] == sigma_schedule(g, ga)

    schedule_ok = (
        sigma_schedule(0, ga) == 0.3
        and math.isclose(sigma_schedule(1, ga), 0.285, rel_tol=1e-12)
        and sigma_schedule(200, ga) == 0.01
    )
    elapsed = time.time() - start
    ok = decode_mismatches == 0 and lineage_ok and schedule_ok and elapsed < 10.0
    _verdict(capsys, 3, "genome determinism", ok,
             f"{decode_mismatches}/1000 decode mismatches, lineage {lineage_ok}, "
             f"sigma table {schedule_ok}, {elapsed:.1f}s (< 10 s)")


def test_4_baseline_sanity_cma_solves_sphere_and_rs_matches_volume(capsys):
    """CMA-ES >= 95/100 on Sphere d in {2, 5}; RS ECDF vs sublevel volume."""
    start = time.time()
    wins = {}
    for dimension in (2, 5):
        lam = default_cma_lambda(dimension)
        count = 0
        for seed in range(100):
            task = make_instance(Family.SPHERE, dimension, 1000 + seed)
            cfg = EpisodeConfig(lam=lam, fe_max=1000 * dimension, episode_seed=seed)
            count += run_episode(CmaEs(), task, cfg, stop_gap=cfg.tolerance).best_gap <= cfg.tolerance
        wins[dimension] = count

    tol = 0.5
    tasks = [make_instance(Family.SPHERE, 2, 4000 + i) for i in range(50)]
    cfg = EpisodeConfig(lam=10, fe_max=200, tolerance=tol)
    targets = TargetSet((tol,))
    grouped = collect(RandomSearch(), tasks, targets, cfg, 4, seed=17, workers=_WORKERS)
    curve = run_ecdf(tasks, grouped, targets, cfg)
    rng = np.random.default_rng(18)
    predictions = []
    for task in tasks:
        draws = rng.uniform(-1.0, 1.0, (20_000, 2))
        gaps = 25.0 * ((draws - task.config.shift) ** 2).sum(axis=1)
        predictions.append(1.0 - (1.0 - (gaps <= tol).mean()) ** 200)
    rs_gap = abs(curve.final_fraction - float(np.mean(predictions)))

    elapsed = time.time() - start
    ok = wins[2] >= 95 and wins[5] >= 95 and rs_gap <= 0.03 and elapsed < 120.0
    _verdict(capsys, 4, "baseline sanity", ok,
             f"CMA wins d2 {wins[2]}/100, d5 {wins[5]}/100 (>= 95); "
             f"RS vs volume prediction |diff| {rs_gap:.4f} (<= 0.03), {elapsed:.0f}s (< 120 s)")


def test_5_learned_optimizer_beats_random_search_on_linear_slope(capsys):
    """Pinned recipe: pop 32, 30 gens, 8 train tasks, lam 10, fe 200."""
    start = time.time()
    suite = make_suite([Family.LINEAR_SLOPE], 2, 58, (8 / 58, 0.0, 50 / 58), master_seed=0)
    assert len(suite.train_tasks) == 8 and len(suite.test_tasks) == 50
    policy_config = PolicyConfig(lam=10)
    episode = EpisodeConfig(lam=10, fe_max=200, tolerance=1e-3)
    ga = GaConfig(population_size=32, n_elites=4, n_parents=8, generations=30)

    best, _ = train(ga, policy_config, suite, episode, runs_per_task=3,
                    master_seed=0, workers=_WORKERS)
    learned = LearnedOptimizer(decode(best, policy_config), policy_config)

    tasks, targets, tight_targets = suite.test_tasks, default_targets(), TargetSet((1e-3,))
    learned_grid = collect(learned, tasks, targets, episode, 3, seed=2026, workers=_WORKERS)
    rs_grid = collect(RandomSearch(), tasks, targets, episode, 3, seed=2026, workers=_WORKERS)
    tight_grid = collect(learned, tasks, tight_targets, episode, 3, seed=2026, workers=_WORKERS)
    learned_curve = run_ecdf(tasks, learned_grid, targets, episode)
    rs_curve = run_ecdf(tasks, rs_grid, targets, episode)
    tight = run_ecdf(tasks, tight_grid, tight_targets, episode)
    learned_auc = ecdf_auc(learned_curve, 200)
    rs_auc = ecdf_auc(rs_curve, 200)

    elapsed = time.time() - start
    ok = (
        learned_curve.final_fraction >= rs_curve.final_fraction
        and learned_auc >= rs_auc
        and tight.final_fraction >= 0.8
        and elapsed <= 900.0
    )
    _verdict(capsys, 5, "scaled Linear Slope reproduction", ok,
             f"final fraction learned {learned_curve.final_fraction:.3f} vs rs "
             f"{rs_curve.final_fraction:.3f}; AUC {learned_auc:.3f} vs {rs_auc:.3f}; "
             f"1e-3 fraction {tight.final_fraction:.3f} (>= 0.8); {elapsed:.0f}s (<= 900 s)")


def test_6_smoke_pipeline_is_byte_identical_across_workers(capsys, tmp_path):
    """train(2 gens) -> eval -> compare twice, workers 1 vs 4: same bytes."""
    start = time.time()
    tree = {
        "suite": {
            "families": ["sphere"],
            "dimension": 2,
            "instances_per_family": 6,
            "split_ratio": [4 / 6, 1 / 6, 1 / 6],
            "seed": 5,
        },
        "policy": {"lambda": 5, "hidden_size": 8, "num_layers": 1},
        "ga": {"population_size": 6, "n_elites": 2, "n_parents": 3, "generations": 2},
        "episode": {"fe_max": 30, "tolerance": 0.05},
        "runs_per_task": 2,
        "master_seed": 11,
    }
    config_path = tmp_path / "smoke.yaml"
    config_path.write_text(yaml.safe_dump(tree))

    outputs = {}
    for workers in (1, 4):
        out = tmp_path / f"w{workers}"
        base = ["--config", str(config_path), "--workers", str(workers)]
        assert main(["train", *base, "--out", str(out / "train")]) == 0
        genome = out / "train" / "best_genome.json"
        assert main(["eval", *base, "--genome", str(genome),
                     "--split", "test", "--out", str(out / "eval")]) == 0
        assert main(["compare", *base, "--genome", str(genome),
                     "--out", str(out / "cmp")]) == 0
        outputs[workers] = [
            (out / "train" / "history.csv").read_bytes(),
            (out / "train" / "best_genome.json").read_bytes(),
            (out / "eval" / "ecdf.csv").read_bytes(),
            (out / "eval" / "ert.csv").read_bytes(),
            (out / "cmp" / "ecdf.csv").read_bytes(),
        ]
    capsys.readouterr()
    identical = outputs[1] == outputs[4]
    elapsed = time.time() - start
    _verdict(capsys, 6, "end-to-end determinism", identical,
             f"5 artifacts byte-identical across workers 1 vs 4: {identical}, {elapsed:.0f}s")


def test_7_single_target_ecdf_final_equals_mean_success_rate(capsys):
    """ECDF and ERT views agree to 1e-12 on several optimizer/task mixes."""
    start = time.time()
    worst = 0.0
    runs = [
        (RandomSearch(), [make_instance(Family.RASTRIGIN, 2, s) for s in (20, 21, 22)], 2.0),
        (CmaEs(), [make_instance(Family.SPHERE, 2, s) for s in (23, 24)], 1e-2),
    ]
    for optimizer, tasks, tol in runs:
        cfg = EpisodeConfig(lam=6, fe_max=60, tolerance=tol)
        targets = TargetSet((tol,))
        grouped = collect(optimizer, tasks, targets, cfg, 5, seed=9, workers=_WORKERS)
        curve = run_ecdf(tasks, grouped, targets, cfg)
        rows = ert_table(tasks, grouped, targets, cfg)
        mean_p = math.fsum(r.stats.p_hat for r in rows) / len(rows)
        worst = max(worst, abs(curve.final_fraction - mean_p))
    elapsed = time.time() - start
    ok = worst <= 1e-12
    _verdict(capsys, 7, "ECDF/ERT consistency", ok,
             f"max |final fraction - mean p_hat| {worst:.2e} (<= 1e-12), {elapsed:.1f}s")
