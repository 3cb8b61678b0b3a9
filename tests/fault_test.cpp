//===- tests/fault_test.cpp - Induced-failure degradation suite -----------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Proves the graceful-degradation contracts under injected failures
// (DESIGN.md §12, PR 8). Only meaningful under -DRW_FAULT=ON — the whole
// suite skips when the injection layer is compiled out, so it rides
// along in every build but only bites in the fault CI job:
//
//   * JIT compile / code-page map failures → the engine silently stays
//     on the flat interpreter with identical results, including trap
//     errors, and jitCompiledCount() pinned at 0.
//   * Cache store failures → admission still succeeds (uncached); the
//     cache stays empty and consistent; re-admission recomputes. A
//     failed build on a cached admission stores nothing.
//   * Mid-admission allocation failures (decode / check / lower) → a
//     clean structured rejection with the right category and zero
//     residue in the process-wide type arena.
//   * Worker spawn failures → the pool degrades to fewer workers and
//     parallel-check diagnostics stay byte-identical to sequential.
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"
#include "cache/AdmissionCache.h"
#include "exec/Engine.h"
#include "ingest/Ingest.h"
#include "ir/TypeArena.h"
#include "lower/Lower.h"
#include "serial/Serial.h"
#include "support/FaultInject.h"
#include "support/ThreadPool.h"
#include "typing/Checker.h"
#include "wasm/Binary.h"

#include <gtest/gtest.h>

using namespace rw;
using namespace rw::wasm;
namespace fault = rw::support::fault;
using fault::Seam;

namespace {

/// sum(n) plus a second function that traps (division by zero) — the
/// parity checks below must agree on trap errors, not just values.
WModule sumAndTrapModule() {
  WModule M;
  uint32_t TV = M.addType({{ValType::I32}, {ValType::I32}});
  M.Funcs.push_back(
      {TV,
       {ValType::I32, ValType::I32},
       {WInst::block(
            {{}, {}},
            {WInst::loop({{}, {}},
                         {WInst::idx(Op::LocalGet, 1), WInst::i32c(1),
                          WInst::mk(Op::I32Add), WInst::idx(Op::LocalTee, 1),
                          WInst::idx(Op::LocalGet, 2), WInst::mk(Op::I32Add),
                          WInst::idx(Op::LocalSet, 2),
                          WInst::idx(Op::LocalGet, 1),
                          WInst::idx(Op::LocalGet, 0), WInst::mk(Op::I32LtS),
                          WInst::idx(Op::BrIf, 0)})}),
        WInst::idx(Op::LocalGet, 2)}});
  M.Funcs.push_back({TV,
                     {},
                     {WInst::idx(Op::LocalGet, 0), WInst::i32c(0),
                      WInst::mk(Op::I32DivS)}});
  M.Exports.push_back({"sum", ExportKind::Func, 0});
  M.Exports.push_back({"trap", ExportKind::Func, 1});
  return M;
}

std::string resultText(const Expected<std::vector<WValue>> &R) {
  if (!R)
    return "error: " + R.error().message();
  std::string S = "ok:";
  for (const WValue &V : *R)
    S += " " + std::to_string(V.Bits);
  return S;
}

uint64_t globalArenaNodes() {
  return ir::TypeArena::globalPtr()->stats().totalNodes();
}

class Fault : public testing::Test {
protected:
  void SetUp() override {
    if (!fault::compiledIn())
      GTEST_SKIP() << "fault injection not compiled in (-DRW_FAULT=OFF)";
    fault::disarmAll();
  }
  void TearDown() override { fault::disarmAll(); }
};

TEST_F(Fault, JitCompileFailureDegradesToFlatWithIdenticalResults) {
  WModule M = sumAndTrapModule();

  // Reference: plain flat interpretation, no tiering.
  exec::FlatInstance Ref(M, EngineKind::Flat);
  ASSERT_TRUE(Ref.initialize().ok());

  fault::armEvery(Seam::JitCompile, 1);
  exec::FlatInstance FI(M, EngineKind::Jit);
  FI.setTierPolicy(1); // tier-up eagerly — every attempt is injected away
  ASSERT_TRUE(FI.initialize().ok());

  for (int I = 0; I < 50; ++I) {
    auto R = FI.invokeByName("sum", {WValue::i32(100)});
    auto E = Ref.invokeByName("sum", {WValue::i32(100)});
    ASSERT_EQ(resultText(R), resultText(E)) << "invoke " << I;
  }
  // Trap parity: the degraded engine reports the *same* trap.
  EXPECT_EQ(resultText(FI.invokeByName("trap", {WValue::i32(7)})),
            resultText(Ref.invokeByName("trap", {WValue::i32(7)})));

  EXPECT_EQ(FI.jitCompiledCount(), 0u)
      << "injected compile failures must not count as compiled";
  EXPECT_GT(fault::injected(Seam::JitCompile), 0u)
      << "the tier policy never reached the seam — test is vacuous";
}

TEST_F(Fault, JitMapFailureDegradesToFlatWithIdenticalResults) {
  WModule M = sumAndTrapModule();
  exec::FlatInstance Ref(M, EngineKind::Flat);
  ASSERT_TRUE(Ref.initialize().ok());

  fault::armEvery(Seam::JitMap, 1);
  exec::FlatInstance FI(M, EngineKind::Jit);
  FI.setTierPolicy(1);
  ASSERT_TRUE(FI.initialize().ok());

  for (int I = 0; I < 50; ++I) {
    auto R = FI.invokeByName("sum", {WValue::i32(64)});
    auto E = Ref.invokeByName("sum", {WValue::i32(64)});
    ASSERT_EQ(resultText(R), resultText(E)) << "invoke " << I;
  }
  EXPECT_EQ(resultText(FI.invokeByName("trap", {WValue::i32(3)})),
            resultText(Ref.invokeByName("trap", {WValue::i32(3)})));
  EXPECT_EQ(FI.jitCompiledCount(), 0u);
  EXPECT_GT(fault::injected(Seam::JitMap), 0u);
}

TEST_F(Fault, CacheStoreFailureDegradesToUncachedAdmission) {
  std::vector<uint8_t> B = serial::write(rwbench::loopModule(10));
  cache::AdmissionCache C;
  link::LinkOptions Opts;
  Opts.Cache = &C;

  fault::armEvery(Seam::CacheStore, 1);
  auto A1 = ingest::admit(B, ingest::Limits(), Opts);
  ASSERT_TRUE(A1) << A1.error().message();
  auto R1 = A1->invoke("loopmod.main", {});
  ASSERT_TRUE(R1) << R1.error().message();
  EXPECT_EQ((*R1)[0].Bits, 55u);
  EXPECT_EQ(C.stats().Entries, 0u)
      << "a failed store must not leave a partial entry";

  // Re-admission recomputes (a miss again, not a hit on garbage).
  auto A2 = ingest::admit(B, ingest::Limits(), Opts);
  ASSERT_TRUE(A2) << A2.error().message();
  auto R2 = A2->invoke("loopmod.main", {});
  ASSERT_TRUE(R2) << R2.error().message();
  EXPECT_EQ((*R2)[0].Bits, 55u);
  EXPECT_EQ(C.stats().ProgramHits, 0u);

  // Once the seam heals, the same cache starts retaining entries.
  fault::disarm(Seam::CacheStore);
  auto A3 = ingest::admit(B, ingest::Limits(), Opts);
  ASSERT_TRUE(A3) << A3.error().message();
  EXPECT_GT(C.stats().Entries, 0u);
}

TEST_F(Fault, DecodeFailureOnCachedWasmAdmissionStoresNothing) {
  auto M = rwbench::loopModule(10);
  std::vector<uint8_t> Wasm =
      wasm::encode((*link::buildArtifact({&M}, {}))->Program.Module);
  cache::AdmissionCache C;
  link::LinkOptions Opts;
  Opts.Cache = &C;

  fault::armNth(Seam::DecodeAlloc, 1);
  ingest::IngestError E;
  EXPECT_FALSE(ingest::admit(Wasm, ingest::Limits(), Opts, &E));
  EXPECT_EQ(E.Cat, ingest::Category::Resource) << E.render();
  EXPECT_EQ(C.stats().Entries, 0u) << "a failed build must store nothing";

  // The seam heals: the same bytes admit, are stored, and then hit.
  fault::disarm(Seam::DecodeAlloc);
  for (int I = 0; I < 2; ++I) {
    auto A = ingest::admit(Wasm, ingest::Limits(), Opts);
    ASSERT_TRUE(A) << A.error().message();
    auto R = A->invoke("loopmod.main", {});
    ASSERT_TRUE(R) << R.error().message();
    EXPECT_EQ((*R)[0].Bits, 55u);
  }
  EXPECT_EQ(C.stats().Entries, 1u);
  EXPECT_EQ(C.stats().ProgramHits, 1u);
}

TEST_F(Fault, MidAdmissionAllocFailuresRejectCleanly) {
  std::vector<uint8_t> Wasm = [] {
    auto M = rwbench::loopModule(6);
    return wasm::encode((*link::buildArtifact({&M}, {}))->Program.Module);
  }();
  std::vector<uint8_t> Serial = serial::write(rwbench::loopModule(6));

  uint64_t Before = globalArenaNodes();

  fault::armNth(Seam::DecodeAlloc, 1);
  ingest::IngestError E;
  EXPECT_FALSE(ingest::admit(Wasm, ingest::Limits(), {}, &E));
  EXPECT_EQ(E.Cat, ingest::Category::Resource) << E.render();

  fault::armNth(Seam::CheckAlloc, 1);
  EXPECT_FALSE(ingest::admit(Serial, ingest::Limits(), {}, &E));
  EXPECT_EQ(E.Cat, ingest::Category::Check) << E.render();

  fault::armNth(Seam::LowerAlloc, 1);
  EXPECT_FALSE(ingest::admit(Serial, ingest::Limits(), {}, &E));
  EXPECT_EQ(E.Cat, ingest::Category::Lower) << E.render();

  EXPECT_EQ(globalArenaNodes(), Before)
      << "injected mid-admission failures left arena residue";

  // All three seams heal: the same bytes admit and run.
  fault::disarmAll();
  auto A = ingest::admit(Serial);
  ASSERT_TRUE(A) << A.error().message();
  auto R = A->invoke("loopmod.main", {});
  ASSERT_TRUE(R) << R.error().message();
  EXPECT_EQ((*R)[0].Bits, 21u);
}

TEST_F(Fault, PoolSpawnFailureKeepsParallelCheckDeterministic) {
  std::vector<ir::Module> Mods;
  for (unsigned I = 1; I <= 6; ++I)
    Mods.push_back(rwbench::wideModule(3 * I));
  // Break one module so the parity check covers diagnostics, not just
  // success bits.
  Mods[2].Funcs[0].Body.insert(
      Mods[2].Funcs[0].Body.begin(),
      {ir::build::iconst(1),
       ir::build::structMalloc({ir::Size::constant(32)}, ir::Qual::lin()),
       ir::build::drop()});
  std::vector<const ir::Module *> P;
  for (const ir::Module &M : Mods)
    P.push_back(&M);

  // Every other worker spawn fails — the pool comes up short-handed and
  // work-stealing covers the gap.
  fault::armEvery(Seam::PoolSpawn, 2);
  support::ThreadPool Pool(8);
  EXPECT_LT(Pool.size(), 9u);
  std::vector<Status> Par = typing::checkModules(P, Pool);
  EXPECT_GT(fault::injected(Seam::PoolSpawn), 0u);

  ASSERT_EQ(Par.size(), Mods.size());
  for (size_t I = 0; I < Mods.size(); ++I) {
    Status Seq = typing::checkModule(Mods[I]);
    EXPECT_EQ(Seq.ok(), Par[I].ok()) << "module " << I;
    std::string SeqText = Seq.ok() ? "<ok>" : Seq.error().message();
    std::string ParText = Par[I].ok() ? "<ok>" : Par[I].error().message();
    EXPECT_EQ(SeqText, ParText) << "module " << I;
  }
}

TEST_F(Fault, DisarmedSeamsNeverFire) {
  // Counting continues while disarmed, but nothing injects.
  std::vector<uint8_t> B = serial::write(rwbench::loopModule(4));
  uint64_t Inj = fault::injected(Seam::CheckAlloc);
  for (int I = 0; I < 5; ++I)
    ASSERT_TRUE(ingest::admit(B));
  EXPECT_EQ(fault::injected(Seam::CheckAlloc), Inj);
}

} // namespace
