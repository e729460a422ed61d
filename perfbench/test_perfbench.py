"""Tests of the benchmark itself, at tiny scale. Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import BaselinesSpec, EvalCompareSpec, TrainSpec  # noqa: E402

TINY = {
    "train-slope-d2": TrainSpec("linear-slope", 2, 3, (0.67, 0.0, 0.33), lam=4, fe_max=8, runs=2,
                                population=4, elites=1, parents=2, generations=1),
    # one validation task, so the validation path is checked too
    "train-lineage-sphere-d2": TrainSpec("sphere", 2, 3, (0.34, 0.33, 0.33), lam=4, fe_max=8,
                                         runs=1, population=3, elites=1, parents=2, generations=3),
    "eval-compare-mixed-d5": EvalCompareSpec(("sphere", "rastrigin"), 2, 3, runs=1, lam=4,
                                             genome_mutations=3),
    "baselines-mixed-d10": BaselinesSpec(("sphere", "schwefel"), 2, 3, runs=1, lam=4),
}


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def site_functions() -> list:
    return [getattr(importlib.import_module(m), a, None) for m, a, _ in tracing.SITES]


def test_tiny_specs_cover_every_workload():
    assert sorted(TINY) == sorted(workloads.WORKLOADS)
    assert [w["name"] for w in declared()["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_passes_every_check(name, tmp_path):
    prep = workloads.prepare(name, 5, tmp_path, spec=TINY[name])
    result = workloads.run_rep(prep, 0, workers=1)
    assert result.checks
    assert [c for c, ok in result.checks if not ok] == []
    assert result.wall_s > 0 and result.episodes >= result.distinct_episodes > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_tracing_changes_no_number_and_restores_originals(name, tmp_path):
    originals = site_functions()
    prep = workloads.prepare(name, 5, tmp_path, spec=TINY[name])
    tracer = tracing.Tracer()
    assert None not in originals
    with tracer.installed():
        assert site_functions() != originals
        traced = workloads.run_rep(prep, 0, workers=1)
    assert site_functions() == originals
    assert tracer.restored()
    untraced = workloads.run_rep(prep, 0, workers=1)
    assert traced.digest == untraced.digest
    assert len(tracer.distinct_episodes) == traced.distinct_episodes


def test_compare_path_is_traced_through_bench(tmp_path):
    # bench.compare looks run_ecdf up in metapop.bench, not in metapop.cli
    name = "baselines-mixed-d10"
    prep = workloads.prepare(name, 5, tmp_path, spec=TINY[name])
    tracer = tracing.Tracer()
    with tracer.installed():
        for rep in range(2):
            workloads.run_rep(prep, rep, workers=1)
    m = tracer.layer_metrics(traced_wall_s=1.0)
    assert m["bench.run_ecdf.calls"] == 2 * 2  # random search and CMA-ES per repetition
    assert m["bench.first_hits.calls"] > 0 and m["policy.act.calls"] == 0


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for name in TINY:
        files = []
        for label, seed in (("a", 3), ("b", 3), ("c", 4)):
            out = tmp_path / f"{name}-{label}"
            workloads.prepare(name, seed, out)
            files.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert files[0] == files[1]
        assert files[0] != files[2]


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.span_names[:] = ["policy.act", "seeding.rng_from"]
    tracer._name_ids.update({"policy.act": 0, "seeding.rng_from": 1})
    # act [0, 100) calls rng_from [10, 40); a second act [200, 250)
    for nid, parent, start, end in ((0, -1, 0, 100), (1, 0, 10, 40), (0, -1, 200, 250)):
        tracer.name.append(nid)
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
    m = tracer.layer_metrics(traced_wall_s=1000e-9)
    assert m["policy.act.calls"] == 2
    assert m["policy.act.share"] == pytest.approx(0.15)
    assert m["policy.act.self_share"] == pytest.approx(0.12)
    assert m["seeding.rng_from.self_share"] == pytest.approx(0.03)


def test_calibrator_times_work_and_ends_its_process():
    with calibration.Calibrator() as calibrator:
        times = [calibrator.measure() for _ in range(2)]
    assert all(0.0 < t < 60.0 for t in times)
    assert calibrator.proc.returncode == 0


def test_setups_and_calibrations_are_spread_between_repetitions(monkeypatch):
    events = []

    class FakeWorkloads:
        @staticmethod
        def run_rep(prep, rep, workers):
            events.append("rep")
            time.sleep(0.01)

    monkeypatch.setattr(run, "SETUP_RUNS", 4)
    reps, calibrations, setups = run.timed_reps(
        FakeWorkloads, None, 0.04,
        lambda: events.append("setup") or 0.0, lambda: events.append("calibrate") or 1.0,
    )
    assert len(setups) == 4 and len(reps) >= 1 and len(calibrations) == len(reps) + 1
    assert events[:2] == ["calibrate", "setup"] and events.count("setup") == 4
    assert events.index("rep") < len(events) - 1 - events[::-1].index("setup")
    # every repetition is followed by a calibration
    assert all(events[i + 1] == "calibrate" for i, e in enumerate(events) if e == "rep")


def tiny_run(monkeypatch, trace: int) -> dict:
    """Last stdout line of a tiny ``baselines-mixed-d10`` run, parsed."""
    name = "baselines-mixed-d10"
    monkeypatch.setitem(workloads.WORKLOADS, name, TINY[name])
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", name, "--seed", "2", "--seconds", "0.01", "--trace", str(trace)]) == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_metrics_match_benchmark_json(trace, monkeypatch):
    result = tiny_run(monkeypatch, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = declared()["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in section)
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_missing_trace_site_fails_a_check(monkeypatch):
    monkeypatch.setattr(tracing, "SITES", (*tracing.SITES, ("metapop.ert", "renamed_away", "ert.estimate")))
    result = tiny_run(monkeypatch, trace=1)
    assert not result["correct"] and result["failed"] == 1


def test_refuses_to_run_without_metapop_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "train-slope-d2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
