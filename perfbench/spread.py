"""Run-to-run spread of the end-to-end metrics; optionally record a baseline.

    python3 perfbench/spread.py --runs 10 [--workloads subharm-sweep,cli-grid]
                                [--first-seed 0] [--baseline perfbench/baseline.json]

Runs the benchmark ``--runs`` times per workload, one seed per run, for the
run length BENCHMARK.json sets.  For each end-to-end metric it prints the
median and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to a
third of the metric's bound; a spread above that is flagged.  With
``--baseline`` it also makes one traced run per workload and writes every
value, with the machine and library versions, to the given file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    out = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        entry = {"attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs], "end_to_end": {}}
        for name, bound in bounds.items():
            s = spread([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = s
            flag = "" if s["spread"] < bound / 3 or name == "setup_s" else "  TOO WIDE"
            steady = steady and (not flag)
            print(f"{workload:16s} {name:12s} median {s['median']:12.6g}  "
                  f"spread {s['spread']:.4f}  (bound/3 {bound / 3:.4f}){flag}  "
                  f"values {' '.join(f'{v:.4g}' for v in s['values'])}", flush=True)
        if args.baseline:
            traced = run_once(workload, seeds[0], seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][workload] = entry

    if args.baseline:
        import numpy

        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        out.update({
            "commit": rev.stdout.strip() or None,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
        })
        args.baseline.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
