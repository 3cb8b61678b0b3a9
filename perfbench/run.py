#!/usr/bin/env python3
"""Builds the RichWasm benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (the library from ./src plus the perfbench program) into
.bench_build/perfbench; later runs rebuild only what changed. Build output
goes to stderr. The program's report goes to stdout, ending with one JSON
line: {"correct", "attempted", "failed", "metrics"}.

BENCHMARK.json is the one list of metrics. Before the JSON line is
printed, the program's metrics are checked against the mode's list
(end_to_end with --trace 0, per_layer with --trace 1): each must be
declared there, with the unit it declares, and every end-to-end metric
must be present. A per-layer metric the workload does not exercise is
filled in as 0. A mismatch is refused: no JSON line, nonzero exit. RW_* environment variables (which switch the
library's tracing and tier-up policy) are removed for the run.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "ingest" / "Ingest.h").is_file():
        log(f"RichWasm sources not found under {ROOT / 'src'}")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def check(result, declared, fill_missing):
    """Returns a list of reasons the result is refused (empty if none).
    With fill_missing, a declared metric the result lacks is added as 0.
    The metrics are put in declared order."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    metrics = result["metrics"]
    for name, unit in declared.items():
        if name not in metrics:
            if fill_missing:
                metrics[name] = {"value": 0, "unit": unit}
            else:
                problems.append(f"metric {name} missing")
        elif metrics[name].get("unit") != unit:
            problems.append(f"metric {name} in {metrics[name].get('unit')}, "
                            f"BENCHMARK.json declares {unit}")
    for name in metrics:
        if name not in declared:
            problems.append(f"metric {name} not declared in BENCHMARK.json")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    result["metrics"] = {name: metrics[name] for name in declared
                         if name in metrics}
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        log("BENCHMARK.json not found")
        return 1
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    if not build():
        return 1

    env = {k: v for k, v in os.environ.items() if not k.startswith("RW_")}
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-dir", str(TRACES)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        log(f"perfbench exited with code {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench printed no result line")
        return 1
    problems = check(result, declared, fill_missing=bool(args.trace))
    if problems:
        for p in problems:
            log("refused: " + p)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
