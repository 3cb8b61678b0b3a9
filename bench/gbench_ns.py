"""Unit handling for bench/run_bench.sh.

google-benchmark reports real_time in each benchmark's own time_unit
(benchmarks registered with ->Unit(kMicrosecond) report microseconds).
Every BENCH_*.json stores nanoseconds and says so with a top-level
"time_unit": "ns". These helpers convert on the way in and refuse input
whose units cannot be told apart.
"""

import json
import sys

NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def refuse(msg):
    print(f"run_bench: {msg}", file=sys.stderr)
    sys.exit(1)


def measured(raw):
    """Yields (name, real_time in ns, benchmark record) for every plain
    run in a google-benchmark JSON report. Refuses an unknown time_unit
    and a benchmark whose repetitions report different units."""
    units = {}
    for b in raw["benchmarks"]:
        if b.get("run_type") == "aggregate":
            continue
        if b.get("error_occurred") or b.get("skipped"):
            continue
        unit = b.get("time_unit", "ns")
        if unit not in NS_PER_UNIT:
            refuse(f"{b['name']}: unknown time_unit {unit!r}")
        if units.setdefault(b["name"], unit) != unit:
            refuse(f"{b['name']}: repetitions mix time units "
                   f"{units[b['name']]!r} and {unit!r}")
        yield b["name"], b["real_time"] * NS_PER_UNIT[unit], b


def load_baseline(path):
    """The "results" of a committed BENCH_*.json baseline. Refuses a file
    that does not declare nanoseconds: comparing it against this run's
    nanoseconds would mix units."""
    base = json.load(open(path))
    if base.get("time_unit") != "ns":
        refuse(f"baseline {path} does not declare \"time_unit\": \"ns\"; "
               "refusing to compare it against nanoseconds")
    return base["results"]
