//===- bench/c5_lowered_speedup.cpp - C5: interp vs lowered execution -----===//
// The same checked program on the RichWasm small-step machine (the
// semantics the theorems speak about) vs compiled to Wasm (the shipping
// path). The lowered code should win by a wide margin — the machine
// re-decomposes the whole term each step.
#include "Common.h"
#include <benchmark/benchmark.h>
using namespace rw;
using namespace rwbench;

static void C5_RichWasmMachine(benchmark::State &St) {
  ir::Module M = loopModule(static_cast<int32_t>(St.range(0)));
  auto Mach = link::instantiate({&M});
  for (auto _ : St) {
    (*Mach)->setupInvoke(0, 0, {}, {});
    auto R = (*Mach)->run();
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(C5_RichWasmMachine)->Arg(100)->Arg(1000);

static void C5_LoweredWasm(benchmark::State &St, wasm::EngineKind K) {
  ir::Module M = loopModule(static_cast<int32_t>(St.range(0)));
  auto Art = link::buildArtifact({&M}, {});
  if (!Art) { St.SkipWithError("lowering failed"); return; }
  const lower::LoweredProgram *LP = &(*Art)->Program;
  auto Inst = wasm::createInstance(LP->Module, K);
  (void)Inst->initialize();
  for (auto _ : St) {
    auto R = Inst->invokeByName("loopmod.main", {});
    benchmark::DoNotOptimize(R);
  }
}
static void C5_LoweredWasm_Tree(benchmark::State &St) {
  C5_LoweredWasm(St, wasm::EngineKind::Tree);
}
static void C5_LoweredWasm_Flat(benchmark::State &St) {
  C5_LoweredWasm(St, wasm::EngineKind::Flat);
}
BENCHMARK(C5_LoweredWasm_Tree)->Arg(100)->Arg(1000);
BENCHMARK(C5_LoweredWasm_Flat)->Arg(100)->Arg(1000);

BENCHMARK_MAIN();
