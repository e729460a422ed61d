"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
measures it: for each workload, run the benchmark once per seed and report
each metric's median and its interquartile range as a share of the median.

    python3 perfbench/spread.py --seeds 10 [--workload NAME ...]

Run from the root of a metapop checkout. Results also go to
``.perfbench-out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        default=None, help="default: every workload")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in declared["workloads"]]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    ok = True
    for name in names:
        runs, elapsed = [], []
        for seed in range(1, args.seeds + 1):
            t0 = time.perf_counter()
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(declared["run_seconds"]), "--trace", "0"],
                check=True, capture_output=True, text=True, timeout=600,
            ).stdout
            result = json.loads(out.splitlines()[-1])
            ok &= result["correct"]
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            elapsed.append(time.perf_counter() - t0)
        summary = {}
        for metric in bounds:
            values = [r[metric] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary[metric] = {"median": med, "iqr_share": (q3 - q1) / med,
                               "bound": bounds[metric], "values": values}
            print(f"{name:26s} {metric:15s} median {med:10.4f}  iqr/median {(q3 - q1) / med:.4f}"
                  f"  bound {bounds[metric]}", flush=True)
        print(f"{name:26s} seconds per run: median {statistics.median(elapsed):.1f}, "
              f"max {max(elapsed):.1f}", flush=True)
        summary["run_elapsed_s"] = elapsed
        out_dir = Path(".perfbench-out")
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spread-{name}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
