#!/usr/bin/env python3
"""Measure the baseline and write ``baseline.json``.

    python3 bench/make_baseline.py [--seeds 1-10] [--seconds 20] [--workloads a,b]

Runs every workload untraced once per seed, each run in its own process, and
once traced at seed 0; records the median, quartiles and spread
((q3 - q1) / median) of every end-to-end metric, and the traced run's
per-layer metrics.  The layer map and anything else already in
``baseline.json`` are kept.  Takes about (seeds + 1) x (seconds + 5) seconds
per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run_bench import BENCH_DIR, ROOT, WORKLOADS

BASELINE = BENCH_DIR / "baseline.json"


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run_bench.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{' '.join(cmd)} reported failed operations:\n{proc.stderr[-2000:]}")
    return result


def summary(values: list[float], unit: str) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "n": len(values), "unit": unit, "values": values}


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    baseline = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
    baseline.setdefault("end_to_end", {})
    baseline.setdefault("per_layer", {})
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in seeds:
            for name, metric in run(workload, seed, args.seconds, 0)["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        baseline["end_to_end"][workload] = {
            name: summary(v, units[name]) for name, v in values.items()
        }
        traced = run(workload, 0, args.seconds, 1)["metrics"]
        baseline["per_layer"][workload] = {name: m["value"] for name, m in traced.items()}
        for name, s in baseline["end_to_end"][workload].items():
            print(f"{workload:<15} {name:<14} median {s['median']:.6g} {s['unit']:<4} "
                  f"spread {s['spread']:.3f}", flush=True)
    baseline["note"] = (
        f"Medians and quartiles of untraced runs per workload (seeds {args.seeds}, "
        f"--seconds {args.seconds:g}), and one traced run per workload at seed 0. Times "
        "are normalised to the reference host speed (calibration.py)."
    )
    BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
