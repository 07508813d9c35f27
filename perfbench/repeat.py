"""Run the benchmark several times and summarise each metric.

    python3 perfbench/repeat.py --workloads decompose,decouple,verify \
        --seeds 1-10 [--trace 0|1] [--out perfbench/results/NAME.json]

Each run is a fresh ``run.py`` process with its own seed.  For every
workload and metric the summary gives the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the spread, (Q3 - Q1) / median.
Seconds per run come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="decompose,decouple,verify")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    report = {"machine": {"python": platform.python_version(), "nproc": os.cpu_count(),
                          "platform": platform.platform()},
              "run_seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            start = time.perf_counter()
            result = run_once(workload, seed, seconds, args.trace)
            result["seed"] = seed
            result["wall_s"] = time.perf_counter() - start
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        metrics = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "wall_s": [round(r["wall_s"], 2) for r in runs],
            "metrics": metrics,
        }
        for name, s in metrics.items():
            print(f"{workload:10s} {name:45s} median {s['median']:.6g}  "
                  f"spread {s['spread']:.3f}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
