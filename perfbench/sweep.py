#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/sweep.py [--record]

It runs every workload of BENCHMARK.json on seeds 1-10. Each run is
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`,
exactly as the benchmark is driven, with T = BENCHMARK.json's run_seconds. For every end-to-end metric the script prints the median, the
quartiles from statistics.quantiles(n=4) and the quartile distance as a share
of the median, next to the metric's bound. --record appends the medians and
quartiles as one point to trajectory.jsonl.
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TRAJECTORY = BENCH_DIR / "trajectory.jsonl"
SEEDS = list(range(1, 11))


def run(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    lines = proc.stdout.rstrip("\n").split("\n")
    env = next(json.loads(line[len("env "):]) for line in lines
               if line.startswith("env "))
    return json.loads(lines[-1]), env


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    point = {"workloads": {}}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        values = {name: [] for name in bounds}
        for seed in SEEDS:
            result, env = run(workload, seed, spec["run_seconds"])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload} ({len(SEEDS)} seeds)")
        summary = {}
        for name, samples in values.items():
            median = statistics.median(samples)
            q1, _, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds[name]
            # The set-up spread is not held to its bound; only its median is.
            flag = ""
            if name != "setup_s":
                flag = "ok" if spread <= bound / 3 else (
                    "WIDE" if spread <= bound else "OVER")
            print(f"  {name:30s} median {median:14.6g}  q1 {q1:14.6g}  "
                  f"q3 {q3:14.6g}  spread {spread:7.4f}  bound {bound}  {flag}")
            summary[name] = {"median": median, "q1": q1, "q3": q3}
        point["workloads"][workload] = summary

    if args.record:
        point = {"date": datetime.date.today().isoformat(),
                 "commit": env.get("commit"), "sources": env.get("sources"),
                 "machine": {"nproc": env.get("nproc"),
                             "compiler": env.get("compiler"),
                             "build_type": env.get("build_type")},
                 "run_seconds": spec["run_seconds"], "seeds": SEEDS, **point}
        with open(TRAJECTORY, "a") as f:
            f.write(json.dumps(point, sort_keys=True) + "\n")
        print(f"appended a point to {TRAJECTORY}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
