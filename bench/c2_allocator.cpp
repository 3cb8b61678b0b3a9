//===- bench/c2_allocator.cpp - C2: the emitted free-list allocator -------===//
// §6's "simple free list allocator" emitted as Wasm functions: alloc/free
// churn throughput and the reuse behavior (bump pointer stays flat).
#include "Common.h"
#include <benchmark/benchmark.h>
using namespace rw;
using namespace rwbench;

static void C2_AllocFreeChurn(benchmark::State &St) {
  ir::Module M = allocModule(static_cast<int32_t>(St.range(0)), /*Linear=*/true);
  auto Art = link::buildArtifact({&M}, {});
  if (!Art) { St.SkipWithError("lowering failed"); return; }
  const lower::LoweredProgram *LP = &(*Art)->Program;
  wasm::WasmInstance Inst(LP->Module);
  (void)Inst.initialize();
  uint64_t Pairs = 0;
  for (auto _ : St) {
    auto R = Inst.invokeByName("allocmod.main", {});
    benchmark::DoNotOptimize(R);
    Pairs += static_cast<uint64_t>(St.range(0));
  }
  St.counters["allocfree/s"] =
      benchmark::Counter(static_cast<double>(Pairs), benchmark::Counter::kIsRate);
  St.counters["bump_bytes"] =
      static_cast<double>(Inst.global(LP->Runtime.GBump).asU32() -
                          lower::RuntimeLayout::HeapBase);
}
BENCHMARK(C2_AllocFreeChurn)->Arg(100)->Arg(1000)->Arg(10000);

BENCHMARK_MAIN();
