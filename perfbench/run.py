#!/usr/bin/env python3
"""Builds and runs the simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script compiles ../src plus the driver in an optimized configuration
under $CARGO_TARGET_DIR (default .bench_build) in the repository root, runs
one workload for the time budget, checks its output hash against the golden
value when the seed has one, and prints every metric with the unit and
better direction BENCHMARK.json gives it. The last line of stdout is the
result: {"correct", "attempted", "failed", "metrics"} with the
end-to-end metrics of BENCHMARK.json for --trace 0 and its per-layer metrics
for --trace 1.

Other modes:
    --selftest        golden hashes hold and a different seed changes every
                      workload's hash
    --update-golden   recompute golden.json (only after a change that is
                      meant to alter simulated results)
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN = BENCH_DIR / "golden.json"
WORKLOADS = ("fleet_datacenter", "difs_serve", "ec_crash")
DEFAULT_SEED = 20250514
HELD_OUT_SEED = 7
# One run must end within 180 s; the driver stops starting repetitions at
# 150 s, so this only catches a hang.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the driver; returns its path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        try:
            proc = subprocess.run(step, cwd=ROOT, capture_output=True,
                                  text=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as exc:
            fail(f"build step {step[:2]} failed: {exc}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            fail(f"build step {' '.join(step[:2])} exited {proc.returncode}")
    binary = out / "perfbench_driver"
    if not binary.exists():
        fail(f"{binary} was not built")
    return binary


def run_driver(binary, workload, seed, seconds, trace, extra=()):
    """Runs the C++ driver; returns (human-readable lines, result dict)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"driver exited {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("driver printed no result line")
    return lines[:-1], result


def load_golden():
    if not GOLDEN.exists():
        return {}
    with open(GOLDEN) as f:
        return json.load(f)


def check_golden(result, golden):
    """Returns an error string, or "" when the hash matches or is unpinned."""
    expected = golden.get(result["workload"], {}).get(str(result["seed"]))
    if expected is not None and expected != result["hash"]:
        return (f"output hash {result['hash']} != golden {expected} "
                f"for seed {result['seed']}")
    return ""


def source_digest():
    """sha256 over the simulator and benchmark sources, in path order."""
    digest = hashlib.sha256()
    files = sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*")
                   if p.is_file() and p.suffix in (".h", ".cc", ".txt", ".py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def catalogue():
    """BENCHMARK.json's metrics: name -> (kind, unit, better)."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: (kind, m["unit"], m["better"])
            for kind in ("end_to_end", "per_layer") for m in spec[kind]}


def run_once(args):
    binary = build()
    out = build_dir()
    extra = []
    if args.trace == 1:
        extra = ["--trace-out",
                 str(out / f"spans-{args.workload}-{args.seed}.csv")]
    lines, result = run_driver(binary, args.workload, args.seed, args.seconds,
                               args.trace, extra)
    metrics = catalogue()
    unknown = sorted(set(result["metrics"]) - set(metrics))
    if unknown:
        fail(f"driver reported metrics missing from BENCHMARK.json: {unknown}")
    # A layer the workload does not exercise reports nothing and reads 0.
    values = {name: result["metrics"].get(name, 0.0) for name in metrics}
    error = result["error"] or check_golden(result, load_golden())
    correct = result["correct"] and not error
    env = dict(result["env"], commit=git_commit(), sources=source_digest(),
               seed=args.seed, nproc=os.cpu_count())
    result.update(correct=correct, error=error, env=env, metrics=values)
    (out / "results").mkdir(exist_ok=True)
    with open(out / "results" /
              f"{args.workload}-{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(result, f, indent=1)

    print("\n".join(lines))
    if error:
        print(f"CORRECTNESS FAILURE: {error}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{'metric':42s} {'value':>22s} {'unit':6s} better")
    for name, (_, unit, better) in metrics.items():
        print(f"{name:42s} {values[name]:22.10g} {unit:6s} {better}")
    kind = "per_layer" if args.trace == 1 else "end_to_end"
    reported = {name: {"value": values[name], "unit": unit}
                for name, (k, unit, _) in metrics.items() if k == kind}
    attempted = max(1, result["attempted"])
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": attempted if not correct else result["failed"],
                      "metrics": reported}))


def golden_runs(binary, seeds):
    hashes = {}
    for workload in WORKLOADS:
        for seed in seeds:
            _, result = run_driver(binary, workload, seed, 1, 0,
                                   ["--min-reps", "1"])
            if not result["correct"]:
                fail(f"{workload} seed {seed}: {result['error']}")
            hashes.setdefault(workload, {})[str(seed)] = result["hash"]
            print(f"{workload} seed {seed}: {result['hash']}")
    return hashes


def selftest():
    binary = build()
    golden = load_golden()
    other_seed = DEFAULT_SEED + 1
    hashes = golden_runs(binary, (DEFAULT_SEED, HELD_OUT_SEED, other_seed))
    ok = True
    for workload, by_seed in hashes.items():
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            expected = golden.get(workload, {}).get(str(seed))
            if expected != by_seed[str(seed)]:
                print(f"FAIL {workload} seed {seed}: {by_seed[str(seed)]} "
                      f"!= golden {expected}")
                ok = False
        if len(set(by_seed.values())) != len(by_seed):
            print(f"FAIL {workload}: two seeds share a hash {by_seed}")
            ok = False
    print("selftest " + ("passed" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


def update_golden():
    binary = build()
    hashes = golden_runs(binary, (DEFAULT_SEED, HELD_OUT_SEED))
    with open(GOLDEN, "w") as f:
        json.dump(hashes, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
    elif args.update_golden:
        update_golden()
    elif args.workload is None:
        parser.error("--workload is required")
    else:
        if args.seed < 0 or not 1 <= args.seconds <= 120:
            parser.error("--seed must be >= 0 and --seconds in [1, 120]")
        run_once(args)


if __name__ == "__main__":
    main()
