//===- bench/c1_capability_erasure.cpp - C1: zero-cost capabilities -------===//
// §6/§7's contrast with MSWasm: RichWasm's capabilities are static, so
// they compile to *nothing*. Two variants of a heap workload — one
// shuffling capability/ownership tokens on every iteration, one without —
// must produce byte-identical instruction counts and equal runtimes.
#include "Common.h"
#include <benchmark/benchmark.h>
using namespace rw;
using namespace rw::ir;
using namespace rw::ir::build;

static ir::Module capModule(int32_t N, bool WithCaps) {
  InstVec Inner;
  if (WithCaps)
    for (int J = 0; J < 8; ++J) {
      Inner.push_back(refSplit());
      Inner.push_back(refJoin());
      Inner.push_back(qualify(Qual::lin()));
    }
  Inner.push_back(structGet(0));
  Inner.push_back(setLocal(0));
  Inner.push_back(structFree());
  InstVec Loop = {iconst(7),
                  structMalloc({Size::constant(32)}, Qual::lin()),
                  memUnpack(arrow({}, {}), {{0, i32T()}}, std::move(Inner)),
                  getLocal(1, Qual::unr()), iconst(1), addI32(),
                  setLocal(1), getLocal(1, Qual::unr()), iconst(N),
                  relop(NumType::I32, RelopKind::Lt), brIf(0)};
  ir::Module M;
  M.Name = "cap";
  M.Funcs.push_back(function(
      {"main"}, FunType::get({}, arrow({}, {i32T()})),
      {Size::constant(32), Size::constant(32)},
      {iconst(0), setLocal(0), iconst(0), setLocal(1),
       block(arrow({}, {}), {}, {loop(arrow({}, {}), std::move(Loop))}),
       getLocal(0, Qual::unr())}));
  return M;
}

static size_t countInsts(const std::vector<wasm::WInst> &B) {
  size_t N = 0;
  for (const wasm::WInst &I : B) {
    ++N;
    N += countInsts(I.Body);
    N += countInsts(I.Else);
  }
  return N;
}

static void C1_Run(benchmark::State &St, bool WithCaps) {
  ir::Module M = capModule(1000, WithCaps);
  auto Art = link::buildArtifact({&M}, {});
  if (!Art) { St.SkipWithError("lowering failed"); return; }
  const lower::LoweredProgram *LP = &(*Art)->Program;
  wasm::WasmInstance Inst(LP->Module);
  (void)Inst.initialize();
  for (auto _ : St) {
    auto R = Inst.invokeByName("cap.main", {});
    benchmark::DoNotOptimize(R);
  }
  size_t Total = 0;
  for (const wasm::WFunc &F : LP->Module.Funcs)
    Total += countInsts(F.Body);
  St.counters["lowered_insts"] = static_cast<double>(Total);
}
static void C1_WithCapabilityShuffling(benchmark::State &St) { C1_Run(St, true); }
static void C1_WithoutCapabilities(benchmark::State &St) { C1_Run(St, false); }
BENCHMARK(C1_WithCapabilityShuffling);
BENCHMARK(C1_WithoutCapabilities);

BENCHMARK_MAIN();
