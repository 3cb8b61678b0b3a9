//===- bench/fig4_interp_throughput.cpp - F4: execution throughput --------===//
// The Fig 4 cost profile, at every execution tier: the RichWasm
// small-step machine (the dynamic semantics), and the lowered-Wasm path
// on all three engines — the tree-walking reference interpreter, the
// flat-bytecode engine, and the tier-3 copy-and-patch JIT (eager). The
// per-engine counters let run_bench.sh emit geomean Tree→Flat and
// Flat→Jit speedups; the jit is the shipping tier where compiled in.
#include "Common.h"
#include <benchmark/benchmark.h>
using namespace rw;
using namespace rwbench;

static void F4_StepsPerSecond_Loop(benchmark::State &St) {
  ir::Module M = loopModule(static_cast<int32_t>(St.range(0)));
  link::LinkOptions Opts;
  auto Mach = link::instantiate({&M}, Opts);
  uint64_t Steps = 0;
  for (auto _ : St) {
    (*Mach)->setupInvoke(0, 0, {}, {});
    auto R = (*Mach)->run();
    benchmark::DoNotOptimize(R);
  }
  Steps = (*Mach)->stepCount();
  St.counters["steps/s"] =
      benchmark::Counter(static_cast<double>(Steps), benchmark::Counter::kIsRate);
}
BENCHMARK(F4_StepsPerSecond_Loop)->Arg(100)->Arg(1000);

static void F4_StepsPerSecond_HeapChurn(benchmark::State &St) {
  ir::Module M = allocModule(static_cast<int32_t>(St.range(0)), /*Linear=*/true);
  auto Mach = link::instantiate({&M});
  for (auto _ : St) {
    (*Mach)->setupInvoke(0, 0, {}, {});
    auto R = (*Mach)->run();
    benchmark::DoNotOptimize(R);
  }
  St.counters["steps/s"] = benchmark::Counter(
      static_cast<double>((*Mach)->stepCount()), benchmark::Counter::kIsRate);
}
BENCHMARK(F4_StepsPerSecond_HeapChurn)->Arg(100)->Arg(1000);

//===----------------------------------------------------------------------===//
// Lowered Wasm, all engines. The benchmark names carry the engine so
// tooling can compute per-engine throughput and the tier speedups.
//===----------------------------------------------------------------------===//

static void runLowered(benchmark::State &St, ir::Module M, const char *Export,
                       wasm::EngineKind K) {
  link::LinkOptions Opts;
  Opts.Engine = K;
  auto LI = link::instantiateLowered({&M}, Opts);
  if (!LI) {
    St.SkipWithError("instantiation failed");
    return;
  }
  LI->Instance->resetInstrCount();
  for (auto _ : St) {
    auto R = LI->invokeExport(Export, {});
    benchmark::DoNotOptimize(R);
  }
  St.counters["insts/s"] =
      benchmark::Counter(static_cast<double>(LI->Instance->instrCount()),
                         benchmark::Counter::kIsRate);
}

static void F4_Wasm_Loop_Tree(benchmark::State &St) {
  runLowered(St, loopModule(static_cast<int32_t>(St.range(0))),
             "loopmod.main", wasm::EngineKind::Tree);
}
static void F4_Wasm_Loop_Flat(benchmark::State &St) {
  runLowered(St, loopModule(static_cast<int32_t>(St.range(0))),
             "loopmod.main", wasm::EngineKind::Flat);
}
static void F4_Wasm_Loop_Jit(benchmark::State &St) {
  runLowered(St, loopModule(static_cast<int32_t>(St.range(0))),
             "loopmod.main", wasm::EngineKind::Jit);
}
BENCHMARK(F4_Wasm_Loop_Tree)->Arg(100)->Arg(1000);
BENCHMARK(F4_Wasm_Loop_Flat)->Arg(100)->Arg(1000);
BENCHMARK(F4_Wasm_Loop_Jit)->Arg(100)->Arg(1000);

static void F4_Wasm_HeapChurn_Tree(benchmark::State &St) {
  runLowered(St, allocModule(static_cast<int32_t>(St.range(0)), true),
             "allocmod.main", wasm::EngineKind::Tree);
}
static void F4_Wasm_HeapChurn_Flat(benchmark::State &St) {
  runLowered(St, allocModule(static_cast<int32_t>(St.range(0)), true),
             "allocmod.main", wasm::EngineKind::Flat);
}
static void F4_Wasm_HeapChurn_Jit(benchmark::State &St) {
  runLowered(St, allocModule(static_cast<int32_t>(St.range(0)), true),
             "allocmod.main", wasm::EngineKind::Jit);
}
BENCHMARK(F4_Wasm_HeapChurn_Tree)->Arg(100)->Arg(1000);
BENCHMARK(F4_Wasm_HeapChurn_Flat)->Arg(100)->Arg(1000);
BENCHMARK(F4_Wasm_HeapChurn_Jit)->Arg(100)->Arg(1000);

// Call-heavy: the loop's body is one call to a one-add function, so the
// per-call cost of each tier dominates.
static void F4_Wasm_Calls_Tree(benchmark::State &St) {
  runLowered(St, callsModule(static_cast<int32_t>(St.range(0))),
             "callmod.main", wasm::EngineKind::Tree);
}
static void F4_Wasm_Calls_Flat(benchmark::State &St) {
  runLowered(St, callsModule(static_cast<int32_t>(St.range(0))),
             "callmod.main", wasm::EngineKind::Flat);
}
static void F4_Wasm_Calls_Jit(benchmark::State &St) {
  runLowered(St, callsModule(static_cast<int32_t>(St.range(0))),
             "callmod.main", wasm::EngineKind::Jit);
}
BENCHMARK(F4_Wasm_Calls_Tree)->Arg(1000);
BENCHMARK(F4_Wasm_Calls_Flat)->Arg(1000);
BENCHMARK(F4_Wasm_Calls_Jit)->Arg(1000);

// Custom main (instead of BENCHMARK_MAIN) so the host fingerprint lands
// in the JSON context and run_bench.sh can refuse cross-host deltas.
int main(int argc, char **argv) {
  benchmark::AddCustomContext("host_fingerprint", rwbench::hostFingerprint());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
