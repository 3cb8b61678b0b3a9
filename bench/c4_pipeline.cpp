//===- bench/c4_pipeline.cpp - C4: compilation is tractable (§5/§6) -------===//
// End-to-end compile cost: ML/L3 source → (parse, check, closure-convert,
// annotate, codegen) → RichWasm check → Wasm lowering → validation.
#include "Common.h"
#include <benchmark/benchmark.h>
using namespace rw;
using namespace rwbench;

static void C4_MLFrontend(benchmark::State &St) {
  for (auto _ : St) {
    auto M = ml::compileSource("app", CounterClientML);
    benchmark::DoNotOptimize(M);
  }
}
BENCHMARK(C4_MLFrontend);

static void C4_L3Frontend(benchmark::State &St) {
  for (auto _ : St) {
    auto M = l3::compileSource("lib", CounterLibL3);
    benchmark::DoNotOptimize(M);
  }
}
BENCHMARK(C4_L3Frontend);

static void C4_FullPipelineToWasmBinary(benchmark::State &St) {
  for (auto _ : St) {
    auto Lib = l3::compileSource("lib", CounterLibL3);
    auto App = ml::compileSource("app", CounterClientML);
    auto Art = link::buildArtifact({&*Lib, &*App}, {});
    if (!Art) { St.SkipWithError("lowering failed"); return; }
    const lower::LoweredProgram *LP = &(*Art)->Program;
    std::vector<uint8_t> Bytes = wasm::encode(LP->Module);
    benchmark::DoNotOptimize(Bytes.size());
  }
}
BENCHMARK(C4_FullPipelineToWasmBinary);

BENCHMARK_MAIN();
