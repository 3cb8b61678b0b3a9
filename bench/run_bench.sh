#!/usr/bin/env bash
# Runs the benchmark suite's trajectory experiments and emits machine-
# readable JSON so successive PRs have perf trajectories:
#
#  * BENCH_interp.json  — execution throughput on every engine tier
#                         (fig4: tree, flat, jit), with the Tree→Flat and
#                         Flat→Jit geomean speedups (RW_JIT_GATE=1 fails
#                         the run when Flat→Jit < RW_JIT_MIN_SPEEDUP,
#                         default 3x, on jit-enabled builds);
#  * BENCH_typing.json  — type-checker throughput (fig7 F7_CheckModule,
#                         the parallel F7_CheckModulePar batch pipeline,
#                         and the T1 soundness generate-check-run loop),
#                         the admission-control hot path at link
#                         boundaries;
#  * BENCH_link.json    — batch vs sequential import resolution (fig3
#                         F3_Resolve*) at 8/64/256 modules;
#  * BENCH_cache.json   — content-addressed admission cache (c6): cold vs
#                         warm full-pipeline admission, plus the
#                         serialization layer; the 64-module warm
#                         admission speedup is the headline (≥10x gates
#                         cache PRs);
#  * BENCH_server.json  — the c7 admission-server simulation: N client
#                         threads, zipf hot/cold/adversarial mix through
#                         ingest::admit with tracing + timeline live;
#                         p50/p99/p999 admission latency, cache pressure,
#                         and the obs-vs-ground-truth reconciliation
#                         gates (the binary exits nonzero on divergence),
#                         plus per-class latency and the per-phase span
#                         ledger. RW_C7_THREADS / RW_C7_REQUESTS tune the
#                         load (defaults 8 / 100000; CI smoke uses
#                         4 / 20000).
#
# Every time is stored in nanoseconds, converted from each benchmark's
# google-benchmark time_unit (bench/gbench_ns.py); each file says so with
# "time_unit": "ns", and a baseline that does not is refused.
#
# Usage: bench/run_bench.sh [build-dir] [interp-out.json] [typing-out.json]
#                           [link-out.json] [cache-out.json] [server-out.json]
set -euo pipefail

# The Python steps below import bench/gbench_ns.py.
export PYTHONPATH="$(cd "$(dirname "$0")" && pwd)${PYTHONPATH:+:$PYTHONPATH}"

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_interp.json}"
TYPING_OUT="${3:-BENCH_typing.json}"
LINK_OUT="${4:-BENCH_link.json}"
CACHE_OUT="${5:-BENCH_cache.json}"
SERVER_OUT="${6:-BENCH_server.json}"
BIN="$BUILD_DIR/fig4_interp_throughput"
TYPING_BIN="$BUILD_DIR/fig7_typecheck_throughput"
T1_BIN="$BUILD_DIR/t1_soundness_throughput"
LINK_BIN="$BUILD_DIR/fig3_linking_types"
CACHE_BIN="$BUILD_DIR/c6_admission_cache"
SERVER_BIN="$BUILD_DIR/c7_admission_server"

for B in "$BIN" "$TYPING_BIN" "$T1_BIN" "$LINK_BIN" "$CACHE_BIN" \
         "$SERVER_BIN"; do
  if [[ ! -x "$B" ]]; then
    echo "error: $B not built (cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j)" >&2
    exit 1
  fi
done


#===----------------------------------------------------------------------===#
# Observability overhead gate (RW_OBS_GATE=1 runs the gate instead of
# the trajectory suite)
#===----------------------------------------------------------------------===#
# The obs layer's contract is "compiled in but disabled costs nothing":
# counters are relaxed adds into per-thread shards and spans are one
# relaxed load when the runtime flag is off. This gate holds the suite to
# it: build the same benches with -DRW_OBS=OFF, run the two hot paths —
# F7_CheckModule (the admission-control loop) and F4_Wasm_Loop (tree and
# flat dispatch; the flat engine fuses profile bumps into translation) —
# in both builds, and fail if the instrumented-but-idle build is more than
# BENCH_OBS_TOLERANCE_PCT (default 2%) slower.
#
# The tree-engine loop is the gate's *control*: both engines' TUs
# (Interp.cpp, Engine.cpp) compile byte-identical under ON and OFF — the
# execution paths carry no compiled-in instrumentation — so any delta the
# tree bench shows is measurement artifact by construction (the two
# binaries link differing TUs elsewhere, which shifts code layout and
# alignment of the identical hot loop; plus host noise). The gate
# measures that floor on the control and judges the instrumented benches
# against tolerance + the floor, so a noisy or layout-shifted run doesn't
# convict instrumentation that provably isn't in the measured code.
if [[ "${RW_OBS_GATE:-0}" == "1" ]]; then
  OFF_DIR="${BENCH_OBS_OFF_DIR:-$BUILD_DIR-obs-off}"
  GATE_REPS="${BENCH_OBS_GATE_REPS:-7}"
  echo "obs overhead gate: building RW_OBS=OFF reference in $OFF_DIR"
  cmake -B "$OFF_DIR" -S . -DRW_OBS=OFF >/dev/null
  cmake --build "$OFF_DIR" -j \
        --target fig4_interp_throughput fig7_typecheck_throughput >/dev/null

  # Interleave the ON/OFF runs rep by rep: on a busy or thermally drifty
  # host, consecutive blocks confound build effects with machine drift;
  # alternating keeps the min-of-reps comparison honest. Both runs must
  # see the layer runtime-disabled, so the enable vars are scrubbed.
  GATE_TMP="$(mktemp -d)"
  run_gate_bin() { # build-dir out-file bench-bin filter
    env -u RW_OBS -u RW_OBS_TRACE "$1/$3" --benchmark_filter="$4" \
        --benchmark_format=json >"$2"
  }
  ON_F7=(); ON_F4=(); OFF_F7=(); OFF_F4=()
  for ((REP = 1; REP <= GATE_REPS; REP++)); do
    # Alternate which build goes first inside each pair: a fixed order
    # would fold any systematic first-runner effect into the ratio.
    if ((REP % 2)); then FIRST="$BUILD_DIR"; SECOND="$OFF_DIR"
                         FPRE=on; SPRE=off
    else                 FIRST="$OFF_DIR";   SECOND="$BUILD_DIR"
                         FPRE=off; SPRE=on
    fi
    run_gate_bin "$FIRST"  "$GATE_TMP/${FPRE}_f7_$REP.json" \
                 fig7_typecheck_throughput 'F7_CheckModule/64'
    run_gate_bin "$SECOND" "$GATE_TMP/${SPRE}_f7_$REP.json" \
                 fig7_typecheck_throughput 'F7_CheckModule/64'
    run_gate_bin "$FIRST"  "$GATE_TMP/${FPRE}_f4_$REP.json" \
                 fig4_interp_throughput 'F4_Wasm_Loop_(Tree|Flat)/1000$'
    run_gate_bin "$SECOND" "$GATE_TMP/${SPRE}_f4_$REP.json" \
                 fig4_interp_throughput 'F4_Wasm_Loop_(Tree|Flat)/1000$'
    ON_F7+=("$GATE_TMP/on_f7_$REP.json"); ON_F4+=("$GATE_TMP/on_f4_$REP.json")
    OFF_F7+=("$GATE_TMP/off_f7_$REP.json"); OFF_F4+=("$GATE_TMP/off_f4_$REP.json")
  done

  GATE_STATUS=0
  python3 - "${BENCH_OBS_TOLERANCE_PCT:-2}" "$GATE_REPS" \
            "${ON_F7[@]}" "${ON_F4[@]}" "${OFF_F7[@]}" "${OFF_F4[@]}" \
            <<'EOF' || GATE_STATUS=$?
import json, sys
from gbench_ns import measured

def series(paths):
    """name -> [best ns at rep 1, rep 2, ...] in path order."""
    out = {}
    for path in paths:
        rep = {}
        for name, ns, _ in measured(json.load(open(path))):
            if name not in rep or ns < rep[name]:
                rep[name] = ns
        for name, ns in rep.items():
            out.setdefault(name, []).append(ns)
    return out

tol = float(sys.argv[1])
reps = int(sys.argv[2])
paths = sys.argv[3:]
on, off = series(paths[: 2 * reps]), series(paths[2 * reps :])

# The tree loop's hot TU is byte-identical in both builds, so its delta
# is the run's measurement floor (layout shift + residual host noise),
# not instrumentation cost.
CONTROL = "F4_Wasm_Loop_Tree/1000"

def delta_pct(name):
    # Paired ratios of adjacent-in-time runs cancel host drift (frequency
    # scaling, background load); the median is robust to outlier reps.
    ratios = sorted(a / b for a, b in zip(on[name], off[name]))
    return 100.0 * (ratios[len(ratios) // 2] - 1.0)

names = sorted(set(on) & set(off))
if not names:
    print("obs overhead gate: no comparable benchmarks ran", file=sys.stderr)
    sys.exit(1)
floor = max(0.0, delta_pct(CONTROL)) if CONTROL in names else 0.0
bad = []
for name in names:
    pct = delta_pct(name)
    if name == CONTROL:
        marker = "control: measurement floor"
    else:
        marker = "FAIL" if pct > tol + floor else "ok"
    print(f"obs overhead {name}: median-paired delta={pct:+.2f}% over "
          f"{len(on[name])} reps (on_min={min(on[name]):.0f}ns "
          f"off_min={min(off[name]):.0f}ns) [{marker}]")
    if name != CONTROL and pct > tol + floor:
        bad.append(name)
if bad:
    print(f"obs overhead gate FAILED (> {tol}% + {floor:.2f}% floor): "
          f"{', '.join(bad)}", file=sys.stderr)
    sys.exit(1)
print(f"obs overhead gate passed (tolerance {tol}% + {floor:.2f}% "
      f"measurement floor)")
EOF
  rm -rf "$GATE_TMP"
  exit "$GATE_STATUS"
fi

RAW="$(mktemp)"
TYPING_RAW="$(mktemp)"
T1_RAW="$(mktemp)"
LINK_RAW="$(mktemp)"
CACHE_RAW="$(mktemp)"
trap 'rm -f "$RAW" "$TYPING_RAW" "$T1_RAW" "$LINK_RAW" "$CACHE_RAW"' EXIT

"$BIN" --benchmark_filter='F4_Wasm' --benchmark_format=json \
       --benchmark_repetitions="${BENCH_REPS:-1}" >"$RAW"

# The host fingerprint comes from the fig4 binary's custom context
# (bench/Common.h hostFingerprint); every BENCH_*.json written by this
# run is stamped with it so trajectory deltas across PRs can be
# attributed to code, not to a host swap.
BENCH_HOST_FP="$(python3 -c '
import json, sys
print(json.load(open(sys.argv[1])).get("context", {})
      .get("host_fingerprint", "unknown"))' "$RAW")"
export BENCH_HOST_FP

python3 - "$RAW" "$OUT" <<'EOF'
import json, sys, math, os, datetime
from gbench_ns import measured

raw = json.load(open(sys.argv[1]))
runs = {}
for name, ns, b in measured(raw):  # e.g. F4_Wasm_Loop_Flat/1000
    runs.setdefault(name, []).append((ns, b))

engines = {"tree": {}, "flat": {}, "jit": {}}
for name, bs in runs.items():
    base, _, arg = name.partition("/")
    parts = base.split("_")          # F4 Wasm <Workload> <Engine>
    workload, engine = parts[2], parts[3].lower()
    ns, best = min(bs, key=lambda nb: nb[0])
    engines[engine][f"{workload}/{arg}"] = {
        "ns_per_invoke": ns,
        "insts_per_sec": best.get("insts/s"),
    }

def pairwise(slow, fast):
    out = {}
    for key, s in engines[slow].items():
        f = engines[fast].get(key)
        if f:
            out[key] = s["ns_per_invoke"] / f["ns_per_invoke"]
    return out

def geomean(d):
    return (math.exp(sum(math.log(s) for s in d.values()) / len(d))
            if d else None)

speedups = pairwise("tree", "flat")
jit_speedups = pairwise("flat", "jit")
gm = geomean(speedups)
jit_gm = geomean(jit_speedups)

fp = os.environ.get("BENCH_HOST_FP", "unknown")
# Cross-host warning: a committed baseline measured elsewhere makes the
# trajectory meaningless; flag it loudly (the overwrite still happens —
# the new numbers become the baseline for this host).
if os.path.exists(sys.argv[2]):
    try:
        prev = json.load(open(sys.argv[2])).get("host_fingerprint")
    except Exception:
        prev = None
    if prev and prev != fp:
        print(f"WARNING: overwriting {sys.argv[2]} recorded on a different "
              f"host:\n  old: {prev}\n  new: {fp}\n  deltas vs the previous "
              "numbers are not comparable", file=sys.stderr)

out = {
    "benchmark": "fig4_interp_throughput",
    "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    "host_fingerprint": fp,
    "time_unit": "ns",
    "engines": engines,
    "speedup_flat_over_tree": speedups,
    "speedup_geomean": gm,
    "speedup_jit_over_flat": jit_speedups,
    "speedup_jit_geomean": jit_gm,
    "target_jit_geomean": 3.0,
}
json.dump(out, open(sys.argv[2], "w"), indent=2)
if gm is None:
    print(f"wrote {sys.argv[2]}: no comparable tree/flat pairs (benchmarks "
          "skipped or errored)")
    sys.exit(1)
print(f"wrote {sys.argv[2]}: geomean Tree->Flat speedup = {gm:.2f}x")
if jit_gm is not None:
    print(f"geomean Flat->Jit speedup = {jit_gm:.2f}x (target >=3x on "
          "jit-enabled builds)")

# RW_JIT_GATE=1 holds the tier-3 backend to its headline: >=3x over the
# flat interpreter (geomean across the fig4 kernels). Only meaningful on
# RW_JIT=ON builds — a jit-off build runs the Jit benches on the flat
# tier and would sit at ~1x by construction.
if os.environ.get("RW_JIT_GATE", "0") == "1":
    floor = float(os.environ.get("RW_JIT_MIN_SPEEDUP", "3"))
    if jit_gm is None:
        print("jit gate FAILED: no comparable flat/jit pairs", file=sys.stderr)
        sys.exit(1)
    if jit_gm < floor:
        print(f"jit gate FAILED: Flat->Jit geomean {jit_gm:.2f}x < "
              f"{floor:.2f}x", file=sys.stderr)
        sys.exit(1)
    print(f"jit gate passed: {jit_gm:.2f}x >= {floor:.2f}x")
EOF

"$TYPING_BIN" --benchmark_filter='F7_' --benchmark_format=json \
              --benchmark_repetitions="${BENCH_REPS:-1}" >"$TYPING_RAW"
"$T1_BIN" --benchmark_filter='T1_' --benchmark_format=json \
          --benchmark_repetitions="${BENCH_REPS:-1}" >"$T1_RAW"

# BENCH_BASELINE_TYPING can point at a previous BENCH_typing.json to embed
# per-benchmark speedups (the F7_CheckModule geomean gates checker PRs).
python3 - "$TYPING_RAW" "$T1_RAW" "$TYPING_OUT" <<'EOF'
import json, sys, math, os, datetime
from gbench_ns import load_baseline, measured

results = {}
for path in (sys.argv[1], sys.argv[2]):
    for name, ns, b in measured(json.load(open(path))):
        cur = results.get(name)
        if cur is None or ns < cur["ns"]:
            results[name] = {
                "ns": ns,
                "per_sec": b.get("funcs/s") or b.get("programs/s"),
            }

out = {
    "benchmark": "typing_throughput",
    "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    "host_fingerprint": os.environ.get("BENCH_HOST_FP", "unknown"),
    "time_unit": "ns",
    "results": results,
}

baseline_path = os.environ.get("BENCH_BASELINE_TYPING", "")
if baseline_path and os.path.exists(baseline_path):
    base = load_baseline(baseline_path)
    speedups = {
        name: base[name]["ns"] / r["ns"]
        for name, r in results.items()
        if name in base and r["ns"] > 0
    }
    out["speedup_vs_baseline"] = speedups
    gate = [s for n, s in speedups.items()
            if n in ("F7_CheckModule/64", "F7_CheckModule/256")]
    if gate:
        out["checkmodule_geomean_speedup"] = math.exp(
            sum(math.log(s) for s in gate) / len(gate))

json.dump(out, open(sys.argv[3], "w"), indent=2)
line = ", ".join(f"{n}={r['ns']:.0f}ns" for n, r in sorted(results.items()))
print(f"wrote {sys.argv[3]}: {line}")
if "checkmodule_geomean_speedup" in out:
    print(f"F7_CheckModule geomean speedup vs baseline = "
          f"{out['checkmodule_geomean_speedup']:.2f}x")
EOF

"$LINK_BIN" --benchmark_filter='F3_Resolve|F3_Cold|F3_Ingest' \
            --benchmark_format=json \
            --benchmark_repetitions="${BENCH_REPS:-1}" >"$LINK_RAW"

# Batch resolution must beat the sequential reference; the 64-module case
# is the headline number (≥2x gates linker PRs). F3_ColdAdmission (check
# verdicts + instantiateLowered, single-check post-refactor) is the
# cold-pipeline gate: BENCH_BASELINE_LINK can point at a previous
# BENCH_link.json (bench/BASELINE_cold_pr4.json is the committed
# pre-refactor snapshot) to embed the cold speedups (≥1.8x @64 is the
# target on multi-core; F3_ColdInstantiate tracks the bare lowered path).
python3 - "$LINK_RAW" "$LINK_OUT" <<'EOF'
import json, sys, datetime, os
from gbench_ns import load_baseline, measured

raw = json.load(open(sys.argv[1]))
results = {}
for name, ns, b in measured(raw):
    cur = results.get(name)
    if cur is None or ns < cur["ns"]:
        entry = {"ns": ns}
        if "imports/s" in b:
            entry["imports_per_sec"] = b["imports/s"]
        if "modules/s" in b:
            entry["modules_per_sec"] = b["modules/s"]
        results[name] = entry

speedups = {}
for name, r in results.items():
    if not name.startswith("F3_ResolveBatch/"):
        continue
    arg = name.split("/")[1]
    seq = results.get(f"F3_ResolveSequential/{arg}")
    if seq and r["ns"] > 0:
        speedups[arg] = seq["ns"] / r["ns"]

out = {
    "benchmark": "link_batch_resolution",
    "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    "host_fingerprint": os.environ.get("BENCH_HOST_FP", "unknown"),
    "time_unit": "ns",
    "results": results,
    "speedup_batch_over_sequential": speedups,
}

# Ingest front-door smoke: ingest::admit must stay within a few percent
# of hand-running the same pipeline — the front door adds sniffing,
# limit checks, and error plumbing, not real work.
admit = results.get("F3_IngestAdmit/64")
rawpipe = results.get("F3_IngestPipeline/64")
if admit and rawpipe and rawpipe["ns"] > 0:
    out["ingest_overhead_pct"] = 100.0 * (admit["ns"] / rawpipe["ns"] - 1.0)
    out["target_ingest_overhead_pct"] = 5.0

baseline_path = os.environ.get("BENCH_BASELINE_LINK", "")
if baseline_path and os.path.exists(baseline_path):
    base = load_baseline(baseline_path)
    cold = {
        name: base[name]["ns"] / r["ns"]
        for name, r in results.items()
        if name.split("/")[0] in ("F3_ColdInstantiate", "F3_ColdAdmission")
        and name in base and r["ns"] > 0
    }
    if cold:
        out["cold_speedup_vs_baseline"] = cold
        out["cold_admission_speedup_64"] = cold.get("F3_ColdAdmission/64")
        out["cold_instantiate_speedup_64"] = cold.get("F3_ColdInstantiate/64")
        out["target_cold_admission_speedup_64"] = 1.8

json.dump(out, open(sys.argv[2], "w"), indent=2)
line = ", ".join(f"{n}={s:.2f}x" for n, s in sorted(speedups.items(),
                                                   key=lambda kv: int(kv[0])))
print(f"wrote {sys.argv[2]}: batch-over-sequential {line}")
cold64 = out.get("cold_admission_speedup_64")
if cold64 is not None:
    print(f"cold admission speedup @64 modules = {cold64:.2f}x vs "
          "pre-refactor baseline (target >=1.8x)")
coldi64 = out.get("cold_instantiate_speedup_64")
if coldi64 is not None:
    print(f"cold instantiateLowered speedup @64 modules = {coldi64:.2f}x "
          "vs pre-refactor baseline")
ing = out.get("ingest_overhead_pct")
if ing is not None:
    print(f"ingest front-door overhead @64 modules = {ing:+.2f}% vs raw "
          "pipeline (target <=5%)")
    if os.environ.get("RW_INGEST_GATE", "0") == "1" and ing > 5.0:
        print(f"ingest gate FAILED: {ing:+.2f}% > 5%", file=sys.stderr)
        sys.exit(1)
EOF

"$CACHE_BIN" --benchmark_filter='C6_' --benchmark_format=json \
             --benchmark_repetitions="${BENCH_REPS:-1}" >"$CACHE_RAW"

# Warm admission must beat cold by >=10x at 64 modules (the cache PR gate):
# a warm resubmission skips check + lower + translate and goes straight to
# instantiation.
python3 - "$CACHE_RAW" "$CACHE_OUT" <<'EOF'
import json, sys, datetime, os
from gbench_ns import measured

raw = json.load(open(sys.argv[1]))
results = {}
for name, ns, b in measured(raw):
    cur = results.get(name)
    if cur is None or ns < cur["ns"]:
        entry = {"ns": ns}
        for key in ("modules/s", "cache_hits", "cache_misses",
                    "cache_evictions", "cache_bytes", "bytes_per_module"):
            if key in b:
                entry[key] = b[key]
        results[name] = entry

speedups = {}
for name, r in results.items():
    if not name.startswith("C6_AdmissionWarm/"):
        continue
    arg = name.split("/")[1]
    cold = results.get(f"C6_AdmissionCold/{arg}")
    if cold and r["ns"] > 0:
        speedups[f"Admission/{arg}"] = cold["ns"] / r["ns"]

out = {
    "benchmark": "admission_cache",
    "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    "host_fingerprint": os.environ.get("BENCH_HOST_FP", "unknown"),
    "time_unit": "ns",
    "results": results,
    "speedup_warm_over_cold": speedups,
    "admission_warm_speedup_64": speedups.get("Admission/64"),
    "target_admission_warm_speedup_64": 10.0,
}
json.dump(out, open(sys.argv[2], "w"), indent=2)
line = ", ".join(f"{n}={s:.2f}x" for n, s in sorted(speedups.items()))
print(f"wrote {sys.argv[2]}: warm-over-cold {line}")
head = speedups.get("Admission/64")
if head is not None:
    print(f"warm admission speedup @64 modules = {head:.2f}x (target >=10x)")
EOF

#===----------------------------------------------------------------------===#
# c7 admission-server simulation
#===----------------------------------------------------------------------===#
# Unlike the google-benchmark binaries above, c7 is its own harness: it
# self-checks the observability reconciliation invariants (histogram
# count == request count, hist p99 within 10% of exact, timeline
# base+deltas == latest) and writes its JSON directly, stamped with the
# shared bench/Common.h host fingerprint.
"$SERVER_BIN" "${RW_C7_THREADS:-8}" "${RW_C7_REQUESTS:-100000}" "$SERVER_OUT"
