#!/usr/bin/env python3
"""Embeds a baseline c7 run into a BENCH_server.json.

    bench/server_baseline.py <server.json> <baseline.json> <baseline-name>

Both files are c7_admission_server outputs. The baseline run is copied
under "baseline" with its name (for example the commit it was built
from), and "vs_baseline" gets baseline/current ratios of the latency
quantiles (overall and per request class) and current/baseline of the
throughput, so every ratio above 1 is an improvement. Refuses runs from
different hosts or with different thread or request counts, and a
baseline that failed its reconciliation gates.
"""

import json
import sys


def refuse(msg):
    print(f"server_baseline: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 4:
        refuse("usage: server_baseline.py <server.json> <baseline.json> "
               "<baseline-name>")
    path, base_path, name = sys.argv[1:]
    cur = json.load(open(path))
    base = json.load(open(base_path))
    base.pop("baseline", None)
    base.pop("vs_baseline", None)
    for key in ("host_fingerprint", "threads", "requests"):
        if cur.get(key) != base.get(key):
            refuse(f"{key} differs: {cur.get(key)!r} vs baseline "
                   f"{base.get(key)!r}")
    if base.get("reconciliation_failures", 1) != 0:
        refuse("the baseline run failed its reconciliation gates")

    def ratio(b, c):
        return round(b / c, 3) if c else None

    vs = {"requests_per_sec": ratio(cur["requests_per_sec"],
                                    base["requests_per_sec"])}
    for q in ("p50", "p99", "p999"):
        vs[f"latency_{q}"] = ratio(base["latency_ns"][q],
                                   cur["latency_ns"][q])
    for cls, qs in cur.get("latency_by_class_ns", {}).items():
        bq = base.get("latency_by_class_ns", {}).get(cls)
        if bq:
            for q in qs:
                vs[f"{cls}_latency_{q}"] = ratio(bq[q], qs[q])
    cur["baseline"] = dict(name=name, **base)
    cur["vs_baseline"] = vs
    with open(path, "w") as f:
        json.dump(cur, f, indent=2)
        f.write("\n")
    print(f"{path}: vs baseline {name}: " +
          ", ".join(f"{k}={v}x" for k, v in vs.items() if v is not None))


if __name__ == "__main__":
    main()
