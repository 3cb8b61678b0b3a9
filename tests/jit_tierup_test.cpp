//===- tests/jit_tierup_test.cpp - Tier-up policy contracts ---------------===//
//
// The policy half of the tier-3 backend (DESIGN.md §11): NeverTier keeps
// an instance interpreted in every build, an eager instance's "jit" obs
// source reports tier state and code bytes, and under -DRW_JIT=OFF tier
// policies are accepted and ignored with jitCompiledCount() pinned 0.
// Threshold tier-up (synchronous, at invoke entry) is pinned against the
// interpreter by exec_test's tier battery.
//
//===----------------------------------------------------------------------===//

#include "exec/Engine.h"
#include "obs/Obs.h"
#include "wasm/Validate.h"

#include <gtest/gtest.h>

#include <map>

using namespace rw;
using namespace rw::wasm;

namespace {

/// sum(n) = 1 + 2 + ... + n via a counting loop: enough back-edges to
/// feed the loop-head counter, one param, one result.
WModule sumModule() {
  WModule M;
  uint32_t TV = M.addType({{ValType::I32}, {ValType::I32}});
  // Locals: 0 = n (param), 1 = i, 2 = acc.
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
  M.Exports.push_back({"sum", ExportKind::Func, 0});
  return M;
}

/// A three-deep call chain — f0 calls f1 calls f2 (the sum loop) — so an
/// eager instance has several functions to compile.
WModule chainModule() {
  WModule M;
  uint32_t TV = M.addType({{ValType::I32}, {ValType::I32}});
  M.Funcs.push_back({TV,
                     {},
                     {WInst::idx(Op::LocalGet, 0), WInst::idx(Op::Call, 1),
                      WInst::i32c(1), WInst::mk(Op::I32Add)}});
  M.Funcs.push_back({TV,
                     {},
                     {WInst::idx(Op::LocalGet, 0), WInst::idx(Op::Call, 2),
                      WInst::i32c(2), WInst::mk(Op::I32Add)}});
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
  M.Exports.push_back({"f", ExportKind::Func, 0});
  return M;
}

uint32_t expectSum(uint32_t N) { return N * (N + 1) / 2; }

} // namespace

//===----------------------------------------------------------------------===//
// Always-on contract: NeverTier means never, in every build.
//===----------------------------------------------------------------------===//

TEST(JitTierUp, NeverTierStaysInterpretedForever) {
  WModule M = sumModule();
  ASSERT_TRUE(validate(M).ok());
  exec::FlatInstance FI(M);
  FI.setTierPolicy(exec::FlatInstance::NeverTier);
  ASSERT_TRUE(FI.initialize().ok());
  for (int I = 0; I < 20; ++I) {
    auto R = FI.invokeByName("sum", {WValue::i32(100)});
    ASSERT_TRUE(bool(R));
    EXPECT_EQ(R->at(0).asU32(), expectSum(100));
  }
  EXPECT_EQ(FI.jitCompiledCount(), 0u);
}

#if RW_JIT_ENABLED

#if RW_OBS_ENABLED

TEST(JitTierUp, ObsSourceExportsTierStateAndCodeBytes) {
  obs::setEnabled(true);
  WModule M = chainModule();
  ASSERT_TRUE(validate(M).ok());
  exec::FlatInstance FI(M);
  FI.setTierPolicy(0); // Eager: compile everything.
  ASSERT_TRUE(FI.initialize().ok());
  auto R = FI.invokeByName("f", {WValue::i32(10)});
  ASSERT_TRUE(bool(R));
  ASSERT_GT(FI.jitCompiledCount(), 0u);

  // The instance's "jit" source (prefix possibly uniquified "jit#N")
  // reports tier counts, code-cache bytes, and per-function tier state.
  std::map<std::string, uint64_t> Src;
  uint64_t CompileSamples = 0;
  for (const obs::Metric &Mt : obs::snapshot().Metrics) {
    if (Mt.Name == "jit.compile.ns") {
      CompileSamples = Mt.Value;
      continue;
    }
    size_t Dot = Mt.Name.find('.');
    if (Dot == std::string::npos)
      continue;
    std::string Stem = Mt.Name.substr(0, Dot);
    if (Stem == "jit" || Stem.rfind("jit#", 0) == 0)
      Src[Mt.Name.substr(Dot + 1)] = Mt.Value;
  }
  ASSERT_TRUE(Src.count("funcs"));
  EXPECT_EQ(Src["funcs"], 3u);
  EXPECT_EQ(Src["compiled"], FI.jitCompiledCount());
  EXPECT_GT(Src["code_bytes"], 0u);
  ASSERT_TRUE(Src.count("func0.tier"));
  for (unsigned F = 0; F < 3; ++F) {
    std::string K = "func" + std::to_string(F) + ".tier";
    ASSERT_TRUE(Src.count(K)) << K;
    // 0 untried, 1 compiling, 2 native, 3 refused.
    EXPECT_TRUE(Src[K] == 2 || Src[K] == 3) << K << "=" << Src[K];
  }
  EXPECT_EQ(Src["compiled"] + Src["unsupported"] + Src["pending"],
            Src["funcs"]);
  // Every eager compile recorded its latency.
  EXPECT_GE(CompileSamples, FI.jitCompiledCount());
}

TEST(JitTierUp, DeoptDeepInANativeChainIsOneSideExit) {
  // f0 -> f1 -> f2 all native, f2 divides by its argument. A divide by
  // zero deopts f2; the native callers pass that outward as an unwind,
  // so the root's exit counts one side exit and no deopt of its own.
  obs::setEnabled(true);
  WModule M;
  uint32_t TV = M.addType({{ValType::I32}, {ValType::I32}});
  for (uint32_t K = 1; K <= 2; ++K)
    M.Funcs.push_back({TV,
                       {},
                       {WInst::idx(Op::LocalGet, 0), WInst::idx(Op::Call, K),
                        WInst::i32c(1), WInst::mk(Op::I32Add)}});
  M.Funcs.push_back({TV,
                     {},
                     {WInst::i32c(100), WInst::idx(Op::LocalGet, 0),
                      WInst::mk(Op::I32DivU)}});
  M.Exports.push_back({"f", ExportKind::Func, 0});
  ASSERT_TRUE(validate(M).ok());
  exec::FlatInstance FI(M);
  FI.setTierPolicy(0);
  ASSERT_TRUE(FI.initialize().ok());
  ASSERT_EQ(FI.jitCompiledCount(), 3u);
  auto Counts = [] {
    std::map<std::string, uint64_t> C;
    for (const obs::Metric &Mt : obs::snapshot().Metrics)
      if (Mt.Name == "exec.tier.deopts" || Mt.Name == "exec.tier.side_exits")
        C[Mt.Name] = Mt.Value;
    return C;
  };
  auto Before = Counts();
  auto R = FI.invokeByName("f", {WValue::i32(5)});
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(R->at(0).asU32(), 22u);
  EXPECT_EQ(Counts(), Before) << "a clean native chain exits nowhere";
  R = FI.invokeByName("f", {WValue::i32(0)});
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.error().message(), "trap: integer divide error [func 2]");
  auto After = Counts();
  EXPECT_EQ(After["exec.tier.deopts"], Before["exec.tier.deopts"]);
  EXPECT_EQ(After["exec.tier.side_exits"], Before["exec.tier.side_exits"] + 1);
}

#endif // RW_OBS_ENABLED

#else // !RW_JIT_ENABLED

TEST(JitTierUpOff, PoliciesAcceptedAndInert) {
  WModule M = sumModule();
  ASSERT_TRUE(validate(M).ok());
  exec::FlatInstance FI(M, EngineKind::Jit); // Degrades to flat.
  FI.setTierPolicy(0);                       // Eager — still inert.
  ASSERT_TRUE(FI.initialize().ok());
  for (int I = 0; I < 10; ++I) {
    auto R = FI.invokeByName("sum", {WValue::i32(100)});
    ASSERT_TRUE(bool(R));
    EXPECT_EQ(R->at(0).asU32(), expectSum(100));
  }
  EXPECT_EQ(FI.jitCompiledCount(), 0u);
}

#endif // RW_JIT_ENABLED
