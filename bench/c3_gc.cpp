//===- bench/c3_gc.cpp - C3: collection of the unrestricted memory --------===//
// The §3 collect rule: reclamation throughput as garbage volume sweeps,
// in the RichWasm machine and via the host-assisted collector on Wasm.
#include "Common.h"
#include <benchmark/benchmark.h>
using namespace rw;
using namespace rwbench;

static void C3_MachineCollect(benchmark::State &St) {
  int32_t N = static_cast<int32_t>(St.range(0));
  ir::Module M = allocModule(N, /*Linear=*/false);
  auto Mach = link::instantiate({&M});
  if (!Mach) { St.SkipWithError("link failed"); return; }
  uint64_t Reclaimed = 0;
  for (auto _ : St) {
    St.PauseTiming();
    (void)(*Mach)->invoke(0, 0, {}, {});
    St.ResumeTiming();
    Reclaimed += (*Mach)->collect();
  }
  St.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(Reclaimed), benchmark::Counter::kIsRate);
}
BENCHMARK(C3_MachineCollect)->Arg(100)->Arg(1000)->Arg(10000);

static void C3_HostGcOnWasm(benchmark::State &St, wasm::EngineKind K) {
  int32_t N = static_cast<int32_t>(St.range(0));
  ir::Module M = allocModule(N, /*Linear=*/false);
  auto Art = link::buildArtifact({&M}, {});
  if (!Art) { St.SkipWithError("lowering failed"); return; }
  const lower::LoweredProgram *LP = &(*Art)->Program;
  auto Inst = wasm::createInstance(LP->Module, K);
  (void)Inst->initialize();
  lower::HostGc Gc(*Inst, LP->Runtime, LP->RefGlobals);
  uint64_t Swept = 0;
  for (auto _ : St) {
    St.PauseTiming();
    (void)Inst->invokeByName("allocmod.main", {});
    St.ResumeTiming();
    Swept += Gc.collect().Swept;
  }
  St.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(Swept), benchmark::Counter::kIsRate);
}
static void C3_HostGcOnWasm_Tree(benchmark::State &St) {
  C3_HostGcOnWasm(St, wasm::EngineKind::Tree);
}
static void C3_HostGcOnWasm_Flat(benchmark::State &St) {
  C3_HostGcOnWasm(St, wasm::EngineKind::Flat);
}
BENCHMARK(C3_HostGcOnWasm_Tree)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(C3_HostGcOnWasm_Flat)->Arg(100)->Arg(1000)->Arg(10000);

BENCHMARK_MAIN();
