"""metapop benchmark: one workload, one seed, one run.

Run from the root of a metapop checkout:

    python3 perfbench/run.py --workload train-slope-d2 --seed 1 --seconds 16 --trace 0

The benchmark imports metapop from ``src/`` of the current directory and
fails with exit code 2 when it is not there. It drives one client serially
(closed loop, ``workers=1``), repeating the workload until its repetitions
have taken ``--seconds``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
``SETUP_RUNS`` fresh processes that import metapop, build the workload's
inputs and write them, interleaved with the repetitions), ``wall_s`` (timed
section of one repetition, mean over the run), ``episodes_per_s``
(episodes the workload config asks for, over ``wall_s``) and
``peak_rss_mb``. Both times are given at a reference machine speed: they are
scaled by ``calibration.REFERENCE_S`` over the mean time of a fixed
calibration run before the first repetition and after each one (see
``calibration.py``); the measured times are in ``result.json``.

``--trace 1`` runs each repetition three times (untraced, traced serially,
traced with ``workers=2``) and reports per-layer metrics from the traced
serial runs (see ``tracing.py``), the tracing overhead and the two-worker
speed-up, both as paired ratios.

Every repetition's outputs are checked; ``attempted`` and ``failed`` in the
last stdout line count those checks. A fuller report, with the environment
fingerprint, workload-specific figures and the numerics digest, goes to
``.perfbench-out/<workload>-seed<seed>-trace<0|1>/result.json``.

The benchmark never sets BLAS thread variables: default threading is part of
what users get today.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 8
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.prepare(sys.argv[3], int(sys.argv[4]), sys.argv[5])"
)


def median(values) -> float:
    return float(statistics.median(values))


def fingerprint(root: Path) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads_env": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(root),
    }


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from ``.git`` directly; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup_time(src: Path, workload: str, seed: int, out_dir: Path) -> float:
    """Wall time of a fresh process doing the workload's set-up, from process
    start to the point where the timed section would begin."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(src), str(HERE), workload, str(seed), str(out_dir)],
        check=True,  # no timeout: Popen.wait with one polls in steps of up to 50 ms
    )
    return time.perf_counter() - t0


def timed_reps(workloads, prep, seconds: float, setup, calibrate) -> tuple[list, list, list]:
    """Repeat the workload serially until its repetitions have taken
    ``seconds`` (at least once), with a calibration before the first
    repetition and after each one, and ``SETUP_RUNS`` calls of ``setup``
    spread evenly between the repetitions, so that every sample spans the
    whole run rather than one moment of a machine whose speed drifts.
    Returns the repetitions, the calibration times and the set-up times."""
    reps, calibrations, setups = [], [calibrate()], [setup()]
    busy = 0.0
    while not reps or busy < seconds:
        t0 = time.perf_counter()
        reps.append(workloads.run_rep(prep, len(reps), workers=1))
        busy += time.perf_counter() - t0
        calibrations.append(calibrate())
        while len(setups) < min(SETUP_RUNS, SETUP_RUNS * busy / seconds):
            setups.append(setup())
    while len(setups) < SETUP_RUNS:
        setups.append(setup())
    return reps, calibrations, setups


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "metapop" / "__init__.py").is_file():
        print(f"perfbench: {src / 'metapop'} not found; run from a metapop checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import metapop

    if Path(metapop.__file__).resolve().parent != (src / "metapop").resolve():
        print(f"perfbench: imported metapop from {metapop.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = root / ".perfbench-out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    report: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "fingerprint": fingerprint(root)}
    checks: list[tuple[str, bool]] = []

    if args.trace == 0:
        prep = workloads.prepare(args.workload, args.seed, out_dir / "inputs")
        with calibration.Calibrator() as calibrator:
            reps, calibrations, setups = timed_reps(
                workloads, prep, args.seconds,
                lambda: setup_time(src, args.workload, args.seed, out_dir / "setup-inputs"),
                calibrator.measure,
            )
        # times at the reference machine speed: the run's repetitions and
        # calibrations both sample the machine's speed over the whole run, so
        # the ratio of their mean times cancels it
        scale = calibration.REFERENCE_S / statistics.fmean(calibrations)
        wall = statistics.fmean(r.wall_s for r in reps) * scale
        metrics = {
            "setup_s": median(setups) * scale,
            "wall_s": wall,
            "episodes_per_s": reps[0].episodes / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        report["time_scale"] = scale
        report["measured"] = {"setup_s": median(setups),
                              "wall_s": statistics.fmean(r.wall_s for r in reps)}
        report["calibration_s"] = calibrations
        report["setup_s_samples"] = setups
        phases = {"untraced": reps}
    else:
        prep = workloads.prepare(args.workload, args.seed, out_dir / "inputs")
        scale = 1.0
        tracer, tracer_w2 = tracing.Tracer(), tracing.Tracer()
        phases = {"untraced": [], "traced": [], "traced_w2": []}
        # each cycle runs one repetition three ways, on the same inputs, so
        # the ratios between them are paired and machine drift cancels
        started = time.perf_counter()
        while not phases["untraced"] or time.perf_counter() - started < args.seconds:
            rep = len(phases["untraced"])
            phases["untraced"].append(workloads.run_rep(prep, rep, workers=1))
            for phase, t, workers in (("traced", tracer, 1), ("traced_w2", tracer_w2, 2)):
                with t.installed():
                    phases[phase].append(workloads.run_rep(prep, rep, workers))
                checks.append(("trace.originals_restored", t.restored()))
                checks.append((f"{phase}.same_numerics_as_untraced",
                               phases[phase][-1].digest == phases["untraced"][-1].digest))
        traced = phases["traced"]
        expected = sum(r.distinct_episodes for r in traced)
        checks.append(("trace.distinct_episodes_match_config", len(tracer.distinct_episodes) == expected))
        # a site that no longer exists would read as a layer that costs nothing
        checks += [(f"trace.site_present.{module}.{attr}", f"{module}.{attr}" not in tracer.missing_sites)
                   for module, attr, _ in tracing.SITES]
        tracer.write_spans(out_dir / "spans.csv.gz")
        tracer_w2.write_spans(out_dir / "spans-w2.csv.gz")

        def paired(a: str, b: str) -> float:
            return median(x.wall_s / y.wall_s for x, y in zip(phases[a], phases[b]))

        metrics = tracer.layer_metrics(sum(r.wall_s for r in traced))
        metrics["seeding.parallel_map.speedup_w2"] = paired("traced", "traced_w2")
        metrics["trace.overhead"] = paired("traced", "untraced") - 1.0

    all_reps = [r for reps in phases.values() for r in reps]
    checks += [c for r in all_reps for c in r.checks]
    failed = sum(not ok for _, ok in checks)
    if args.trace:
        metrics["error_rate"] = failed / len(checks)

    serial = phases["untraced"]
    # a traced run is not calibrated: its figures are in measured seconds
    report["workload_figures"] = {
        "error_rate": failed / len(checks),
        "genomes_per_s": (serial[0].genomes / (statistics.fmean(r.wall_s for r in serial) * scale)
                          if serial[0].genomes is not None else None),
        **{name: statistics.fmean(r.phases[name] for r in serial) * scale for name in serial[0].phases},
    }
    report["numerics_digest"] = serial[0].digest
    report["quality"] = serial[0].quality
    report["reps"] = {
        phase: [{"wall_s": r.wall_s, "episodes": r.episodes, "genomes": r.genomes,
                 "phases": r.phases, "digest": r.digest, "quality": r.quality} for r in reps]
        for phase, reps in phases.items()
    }
    report["failed_checks"] = sorted({name for name, ok in checks if not ok})
    units = unit_table()
    report["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    (out_dir / "result.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(f"perfbench: {args.workload} seed {args.seed}: {len(all_reps)} repetitions, "
          f"{failed}/{len(checks)} checks failed; report in {out_dir / 'result.json'}")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


def unit_table() -> dict[str, str]:
    """Metric units as declared in BENCHMARK.json, next to this directory."""
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
