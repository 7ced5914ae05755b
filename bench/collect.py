"""Repeat benchmark runs over several seeds and summarise their spread.

    python3 bench/collect.py --seeds 1-10 [--workloads a,b] [--baseline]

Each run is ``bench/run.py --workload W --seed N --seconds S --trace 0`` with
S from BENCHMARK.json.  For every end-to-end metric this prints the median,
the quartiles and the spread (interquartile distance over the median) next
to the metric's bound.  ``--baseline`` also makes one traced run per
workload and writes everything to ``bench/baseline.json``.
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

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(spec: str) -> list[int]:
    low, _, high = spec.partition("-")
    return list(range(int(low), int(high or low) + 1))


def run(workload, seed, seconds, trace) -> dict:
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"incorrect result for {workload} seed {seed}:\n{proc.stderr}")
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in declared["workloads"]))
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args(argv)
    seconds = declared["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    out = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "run_seconds": seconds,
        "workloads": {},
        "per_layer_expectations": {name: moves for name, _, moves in tracer.METRICS},
    }
    for workload in args.workloads.split(","):
        results = [run(workload, seed, seconds, 0) for seed in seeds(args.seeds)]
        config = workloads.WORKLOADS[workload]
        entry = {
            "budget": config.budget,
            "probe": config.probe,
            "files": len(config.slots),
            "seeds": args.seeds,
            "end_to_end": {},
        }
        print(f"{workload}: {len(results)} runs")
        for name in bounds:
            stats = summary([r["metrics"][name]["value"] for r in results])
            entry["end_to_end"][name] = stats
            flag = "" if stats["spread"] < bounds[name] / 3 else "  <-- over a third of the bound"
            print(f"  {name:16} median {stats['median']:10.4f}  spread {stats['spread']:.4f}"
                  f"  bound {bounds[name]}{flag}")
        if args.baseline:
            traced = run(workload, seeds(args.seeds)[0], seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][workload] = entry
        sys.stdout.flush()
    if args.baseline:
        path = BENCH / "baseline.json"
        path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
