//===- bench/fig9_counter.cpp - F9: the Counter/Client workload -----------===//
// The §4.2 example as a benchmark: GC'd client ticks the linear counter
// library across the FFI, on the RichWasm machine and lowered to Wasm.
#include "Common.h"
#include <benchmark/benchmark.h>
using namespace rw;
using namespace rwbench;

static void F9_TicksOnMachine(benchmark::State &St) {
  auto Lib = l3::compileSource("lib", CounterLibL3);
  auto App = ml::compileSource("app", CounterClientML);
  auto Mach = link::instantiate({&*Lib, &*App});
  if (!Mach) { St.SkipWithError("link failed"); return; }
  uint32_t Init = *link::findExport(*App, "init");
  uint32_t Tick = *link::findExport(*App, "tick");
  (void)(*Mach)->invoke(1, Init, {}, {sem::Value::unit()});
  uint64_t N = 0;
  for (auto _ : St) {
    auto R = (*Mach)->invoke(1, Tick, {}, {sem::Value::unit()});
    benchmark::DoNotOptimize(R);
    ++N;
    // Collect the unrestricted garbage the protocol generates.
    if (N % 64 == 0) (*Mach)->collect();
  }
  St.counters["ticks/s"] =
      benchmark::Counter(static_cast<double>(N), benchmark::Counter::kIsRate);
}
BENCHMARK(F9_TicksOnMachine);

static void F9_TicksOnWasm(benchmark::State &St) {
  auto Lib = l3::compileSource("lib", CounterLibL3);
  auto App = ml::compileSource("app", CounterClientML);
  auto Art = link::buildArtifact({&*Lib, &*App}, {});
  if (!Art) { St.SkipWithError("lowering failed"); return; }
  const lower::LoweredProgram *LP = &(*Art)->Program;
  wasm::WasmInstance Inst(LP->Module);
  (void)Inst.initialize();
  (void)Inst.invokeByName("app.init", {});
  lower::HostGc Gc(Inst, LP->Runtime, LP->RefGlobals);
  uint64_t N = 0;
  for (auto _ : St) {
    auto R = Inst.invokeByName("app.tick", {});
    benchmark::DoNotOptimize(R);
    ++N;
    if (N % 64 == 0) Gc.collect();
  }
  St.counters["ticks/s"] =
      benchmark::Counter(static_cast<double>(N), benchmark::Counter::kIsRate);
}
BENCHMARK(F9_TicksOnWasm);

BENCHMARK_MAIN();
