//===- tests/exec_test.cpp - Differential testing of the engine tiers -----===//
//
// The flat-bytecode engine (exec/Engine.h) and its JIT tier must be
// observationally identical to the tree-walking reference interpreter
// (wasm/Interp.h); tests/Oracle.h states what that means and checks it.
// This suite sweeps
//
//   * handcrafted Wasm modules covering the control-flow re-encoding
//     (blocks with results, loops, if/else, br_table, multi-value
//     branches), calls (direct, indirect, host), memory, and every trap;
//   * the lowered-pipeline workloads from bench/Common.h (loop,
//     linear/unrestricted heap churn, the Counter/Client FFI protocol)
//     on the machine and every tier, including host-assisted GC parity;
//   * a deterministic fuzz-ish sweep of straight-line numeric functions
//     over the whole operator alphabet, checksummed through a local;
//   * an oracle running every numeric opcode over edge operands;
//   * the one-walk oracle: translate() and validate() give one verdict
//     and message on the regression corpus and seeded mutants of lowered
//     modules, and code no path reaches is checked but not emitted;
//   * a boundary oracle for lazily committed memory: every load/store
//     row and fused memory op at the commit-chunk and memory edges,
//     before and after memory.grow, against the fully committed engines.
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"
#include "bench/ServerMix.h"
#include "exec/Engine.h"
#include "exec/Translate.h"
#include "ingest/Limits.h"
#include "link/Link.h"
#include "lower/Lower.h"
#include "obs/Obs.h"
#include "support/NumericOps.h"
#include "tests/Oracle.h"
#include "wasm/Binary.h"
#include "wasm/Validate.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>

using namespace rw;
using namespace rw::wasm;
using namespace rwtest;

namespace {

constexpr EngineKind BothEngines[] = {EngineKind::Tree, EngineKind::Flat};
constexpr EngineKind AllEngines[] = {EngineKind::Tree, EngineKind::Flat,
                                     EngineKind::Jit};

WModule oneFunc(FuncType FT, std::vector<ValType> Locals,
                std::vector<WInst> Body) {
  WModule M;
  uint32_t TI = M.addType(std::move(FT));
  M.Funcs.push_back({TI, std::move(Locals), std::move(Body)});
  M.Exports.push_back({"f", ExportKind::Func, 0});
  return M;
}

/// f(n) = 1 + ... + n, with a loop whose br_if re-enters the label.
WModule loopSum() {
  return oneFunc(
      {{ValType::I32}, {ValType::I32}}, {ValType::I32, ValType::I32},
      {WInst::block(
           {{}, {}},
           {WInst::loop(
               {{}, {}},
               {WInst::idx(Op::LocalGet, 1), WInst::i32c(1),
                WInst::mk(Op::I32Add), WInst::idx(Op::LocalTee, 1),
                WInst::idx(Op::LocalGet, 2), WInst::mk(Op::I32Add),
                WInst::idx(Op::LocalSet, 2), WInst::idx(Op::LocalGet, 1),
                WInst::idx(Op::LocalGet, 0), WInst::mk(Op::I32LtS),
                WInst::idx(Op::BrIf, 0)})}),
       WInst::idx(Op::LocalGet, 2)});
}

} // namespace

//===----------------------------------------------------------------------===//
// Control-flow re-encoding
//===----------------------------------------------------------------------===//

TEST(ExecDiff, BlockWithResultAndBr) {
  // block (result i32) { 7; br 0; 999 } + 1 — the br carries one value.
  WModule M = oneFunc(
      {{}, {ValType::I32}}, {},
      {WInst::block({{}, {ValType::I32}},
                    {WInst::i32c(7), WInst::idx(Op::Br, 0), WInst::i32c(999)}),
       WInst::i32c(1), WInst::mk(Op::I32Add)});
  auto T = everyTier(M, "f")[Tree];
  EXPECT_TRUE(T.Ok);
  EXPECT_EQ(T.Results[0].asU32(), 8u);
}

TEST(ExecDiff, BrWithStackFixup) {
  // Extra operands below the branched value must be discarded: the flat
  // engine's keep/reset fix-up path.
  WModule M = oneFunc(
      {{}, {ValType::I32}}, {},
      {WInst::block({{}, {ValType::I32}},
                    {WInst::i32c(100), WInst::i32c(200), WInst::i32c(42),
                     WInst::idx(Op::Br, 0)}),
       });
  auto T = everyTier(M, "f")[Tree];
  EXPECT_TRUE(T.Ok);
  EXPECT_EQ(T.Results[0].asU32(), 42u);
}

TEST(ExecDiff, LoopSum) {
  auto T = everyTier(loopSum(), "f", {WValue::i32(100)})[Tree];
  EXPECT_TRUE(T.Ok);
  EXPECT_EQ(T.Results[0].asU32(), 5050u);
}

TEST(ExecDiff, LoopWithParams) {
  // A loop whose label has a parameter: branching back must keep the
  // top slot as the next iteration's argument. Computes 2^10 by
  // iterating (x -> 2x) from 1, counting with local 0.
  WModule M = oneFunc(
      {{}, {ValType::I32}}, {ValType::I32},
      {WInst::i32c(1),
       WInst::loop({{ValType::I32}, {ValType::I32}},
                   {WInst::i32c(2), WInst::mk(Op::I32Mul),
                    WInst::idx(Op::LocalGet, 0), WInst::i32c(1),
                    WInst::mk(Op::I32Add), WInst::idx(Op::LocalTee, 0),
                    WInst::i32c(10), WInst::mk(Op::I32LtS),
                    WInst::idx(Op::BrIf, 0)})});
  auto T = everyTier(M, "f")[Tree];
  EXPECT_TRUE(T.Ok);
  EXPECT_EQ(T.Results[0].asU32(), 1024u);
}

TEST(ExecDiff, IfElseMultiValue) {
  // if (result i32 i32) picks between two pairs; then sums them.
  for (uint32_t Cond : {0u, 1u}) {
    WModule M = oneFunc(
        {{ValType::I32}, {ValType::I32}}, {},
        {WInst::idx(Op::LocalGet, 0),
         WInst::ifElse({{}, {ValType::I32, ValType::I32}},
                       {WInst::i32c(10), WInst::i32c(20)},
                       {WInst::i32c(1), WInst::i32c(2)}),
         WInst::mk(Op::I32Add)});
    auto T = everyTier(M, "f", {WValue::i32(Cond)})[Tree];
    EXPECT_TRUE(T.Ok);
    EXPECT_EQ(T.Results[0].asU32(), Cond ? 30u : 3u);
  }
}

TEST(ExecDiff, IfWithoutElse) {
  WModule M = oneFunc({{ValType::I32}, {ValType::I32}}, {ValType::I32},
                      {WInst::idx(Op::LocalGet, 0),
                       WInst::ifElse({{}, {}},
                                     {WInst::i32c(99),
                                      WInst::idx(Op::LocalSet, 1)},
                                     {}),
                       WInst::idx(Op::LocalGet, 1)});
  for (uint32_t Cond : {0u, 7u}) {
    auto T = everyTier(M, "f", {WValue::i32(Cond)})[Tree];
    EXPECT_TRUE(T.Ok);
    EXPECT_EQ(T.Results[0].asU32(), Cond ? 99u : 0u);
  }
}

TEST(ExecDiff, BrTableDispatch) {
  // br_table over three nested blocks plus default, routing to a
  // different local.set in each arm.
  for (uint32_t Sel : {0u, 1u, 2u, 3u, 200u}) {
    WModule M = oneFunc(
        {{ValType::I32}, {ValType::I32}}, {ValType::I32},
        {WInst::block(
             {{}, {}},
             {WInst::block(
                  {{}, {}},
                  {WInst::block(
                       {{}, {}},
                       {WInst::block({{}, {}},
                                     {WInst::idx(Op::LocalGet, 0),
                                      WInst::brTable({0, 1, 2}, 3)}),
                        // depth-0 target: record 10, exit everything.
                        WInst::i32c(10), WInst::idx(Op::LocalSet, 1),
                        WInst::idx(Op::Br, 2)}),
                   WInst::i32c(20), WInst::idx(Op::LocalSet, 1),
                   WInst::idx(Op::Br, 1)}),
              WInst::i32c(30), WInst::idx(Op::LocalSet, 1)}),
         WInst::idx(Op::LocalGet, 1)});
    auto T = everyTier(M, "f", {WValue::i32(Sel)})[Tree];
    EXPECT_TRUE(T.Ok);
    // Default (depth 3) exits past every local.set, leaving 0.
    uint32_t Want = Sel == 0 ? 10 : Sel == 1 ? 20 : Sel == 2 ? 30 : 0;
    EXPECT_EQ(T.Results[0].asU32(), Want) << "selector " << Sel;
  }
}

TEST(ExecDiff, BrTableCarriesValue) {
  // All br_table labels share one value-carrying block; extra operands
  // below the carried value force the keep/reset fix-up.
  for (uint32_t Sel : {0u, 5u}) {
    WModule M = oneFunc(
        {{ValType::I32}, {ValType::I32}}, {},
        {WInst::block({{}, {ValType::I32}},
                      {WInst::i32c(7), WInst::i32c(42),
                       WInst::idx(Op::LocalGet, 0),
                       WInst::brTable({0}, 0)})});
    auto T = everyTier(M, "f", {WValue::i32(Sel)})[Tree];
    EXPECT_TRUE(T.Ok);
    EXPECT_EQ(T.Results[0].asU32(), 42u) << "selector " << Sel;
  }
}

TEST(ExecDiff, DeadCodeAfterBranchIsSkipped) {
  // The translator drops unreachable tails; semantics must not change.
  WModule M = oneFunc(
      {{}, {ValType::I32}}, {},
      {WInst::block({{}, {ValType::I32}},
                    {WInst::i32c(5), WInst::idx(Op::Br, 0),
                     // Dead: a whole nested structure.
                     WInst::block({{}, {}}, {WInst::mk(Op::Unreachable)}),
                     WInst::i32c(1), WInst::mk(Op::I32Add)})});
  auto T = everyTier(M, "f")[Tree];
  EXPECT_TRUE(T.Ok);
  EXPECT_EQ(T.Results[0].asU32(), 5u);
}

//===----------------------------------------------------------------------===//
// Calls
//===----------------------------------------------------------------------===//

TEST(ExecDiff, DirectCallsAndRecursion) {
  // fib(n) by naive double recursion across a direct call.
  WModule M;
  uint32_t TI = M.addType({{ValType::I32}, {ValType::I32}});
  M.Funcs.push_back(
      {TI,
       {},
       {WInst::idx(Op::LocalGet, 0), WInst::i32c(2), WInst::mk(Op::I32LtS),
        WInst::ifElse({{}, {ValType::I32}}, {WInst::idx(Op::LocalGet, 0)},
                      {WInst::idx(Op::LocalGet, 0), WInst::i32c(1),
                       WInst::mk(Op::I32Sub), WInst::idx(Op::Call, 0),
                       WInst::idx(Op::LocalGet, 0), WInst::i32c(2),
                       WInst::mk(Op::I32Sub), WInst::idx(Op::Call, 0),
                       WInst::mk(Op::I32Add)})}});
  M.Exports.push_back({"f", ExportKind::Func, 0});
  auto T = everyTier(M, "f", {WValue::i32(15)})[Tree];
  EXPECT_TRUE(T.Ok);
  EXPECT_EQ(T.Results[0].asU32(), 610u);
}

TEST(ExecDiff, CallIndirect) {
  // Table dispatch between an adder and a multiplier, plus both trap
  // modes (index out of bounds, signature mismatch).
  WModule M;
  uint32_t Bin = M.addType({{ValType::I32, ValType::I32}, {ValType::I32}});
  uint32_t Un = M.addType({{ValType::I32}, {ValType::I32}});
  M.Funcs.push_back({Bin,
                     {},
                     {WInst::idx(Op::LocalGet, 0), WInst::idx(Op::LocalGet, 1),
                      WInst::mk(Op::I32Add)}});
  M.Funcs.push_back({Bin,
                     {},
                     {WInst::idx(Op::LocalGet, 0), WInst::idx(Op::LocalGet, 1),
                      WInst::mk(Op::I32Mul)}});
  M.Funcs.push_back(
      {Un, {}, {WInst::idx(Op::LocalGet, 0), WInst::i32c(1),
                WInst::mk(Op::I32Add)}});
  // f(sel, a, b) = table[sel](a, b) via the binary type.
  std::vector<WInst> Body = {WInst::idx(Op::LocalGet, 1),
                             WInst::idx(Op::LocalGet, 2),
                             WInst::idx(Op::LocalGet, 0),
                             WInst::idx(Op::CallIndirect, Bin)};
  uint32_t Tri =
      M.addType({{ValType::I32, ValType::I32, ValType::I32}, {ValType::I32}});
  M.Funcs.push_back({Tri, {}, std::move(Body)});
  M.TableElems = {0, 1, 2};
  M.Exports.push_back({"f", ExportKind::Func, 3});

  struct Case {
    uint32_t Sel;
    bool Traps;
    uint32_t Want;
  } Cases[] = {
      {0, false, 9}, // add
      {1, false, 18}, // mul
      {2, true, 0},  // unary: signature mismatch
      {9, true, 0},  // out of bounds
  };
  for (const Case &C : Cases) {
    auto T = everyTier(
        M, "f", {WValue::i32(C.Sel), WValue::i32(3), WValue::i32(6)})[Tree];
    EXPECT_EQ(T.Ok, !C.Traps) << "selector " << C.Sel << ": " << T.Err;
    if (!C.Traps)
      EXPECT_EQ(T.Results[0].asU32(), C.Want);
  }
}

TEST(ExecDiff, HostCallsThroughImports) {
  // An import in the middle of wasm-to-wasm arithmetic; the host also
  // pokes instance memory, which both engines must expose identically.
  WModule M;
  uint32_t TI = M.addType({{ValType::I32}, {ValType::I32}});
  M.ImportFuncs.push_back({"env", "scale", TI});
  M.Memory = {{1, std::nullopt}};
  M.Funcs.push_back({TI,
                     {},
                     {WInst::idx(Op::LocalGet, 0), WInst::idx(Op::Call, 0),
                      WInst::i32c(1), WInst::mk(Op::I32Add)}});
  M.Exports.push_back({"f", ExportKind::Func, 1});
  auto Bind = [](Instance &I) {
    I.registerHost("env", "scale",
                   [](Instance &Inst, const std::vector<WValue> &Args)
                       -> Expected<std::vector<WValue>> {
                     Inst.store32(64, Args[0].asU32());
                     return std::vector<WValue>{
                         WValue::i32(Args[0].asU32() * 3)};
                   });
  };
  auto T = everyTier(M, "f", {WValue::i32(5)}, Bind)[Tree];
  EXPECT_TRUE(T.Ok);
  EXPECT_EQ(T.Results[0].asU32(), 16u);
  EXPECT_EQ(T.Inst->load32(64), 5u);
}

TEST(ExecDiff, HostTrapPropagates) {
  WModule M;
  uint32_t TI = M.addType({{}, {}});
  M.ImportFuncs.push_back({"env", "boom", TI});
  M.Funcs.push_back({TI, {}, {WInst::idx(Op::Call, 0)}});
  M.Exports.push_back({"f", ExportKind::Func, 1});
  auto Bind = [](Instance &I) {
    I.registerHost("env", "boom",
                   [](Instance &, const std::vector<WValue> &)
                       -> Expected<std::vector<WValue>> {
                     return Error("host exploded");
                   });
  };
  auto T = everyTier(M, "f", {}, Bind)[Tree];
  EXPECT_FALSE(T.Ok);
  EXPECT_EQ(T.Err, "trap: host exploded [func 0]");
}

TEST(ExecDiff, CallStackExhaustion) {
  // Infinite recursion must trap identically on both engines.
  WModule M;
  uint32_t TI = M.addType({{}, {}});
  M.Funcs.push_back({TI, {}, {WInst::idx(Op::Call, 0)}});
  M.Exports.push_back({"f", ExportKind::Func, 0});
  auto T = everyTier(M, "f")[Tree];
  EXPECT_FALSE(T.Ok);
  EXPECT_EQ(T.Err, "trap: call stack exhausted [func 0]");
}

TEST(ExecDiff, TrapAttributedToInnermostFunction) {
  // f0 (exported) calls f1, which hits unreachable: the trap note names
  // the *faulting* function, not the entry point, on both engines.
  WModule M;
  uint32_t TI = M.addType({{}, {}});
  M.Funcs.push_back({TI, {}, {WInst::idx(Op::Call, 1)}});
  M.Funcs.push_back({TI, {}, {WInst::mk(Op::Unreachable)}});
  M.Exports.push_back({"f", ExportKind::Func, 0});
  auto T = everyTier(M, "f")[Tree];
  EXPECT_FALSE(T.Ok);
  EXPECT_EQ(T.Err, "trap: unreachable executed [func 1]");
}

//===----------------------------------------------------------------------===//
// Memory and traps
//===----------------------------------------------------------------------===//

TEST(ExecDiff, MemoryOpsAllWidths) {
  // Write with every store width, read back with every load flavor,
  // checksum everything.
  WModule M = oneFunc(
      {{}, {ValType::I64}}, {ValType::I64},
      {// i64 store at 0
       WInst::i32c(0), WInst::i64c(0x1122334455667788ll),
       WInst::mem(Op::I64Store, 3, 0),
       // i32 store16/store8 at 16
       WInst::i32c(16), WInst::i32c(0xbeef), WInst::mem(Op::I32Store16, 1, 0),
       WInst::i32c(18), WInst::i32c(0x7f), WInst::mem(Op::I32Store8, 0, 0),
       // f64/f32 stores
       WInst::i32c(24), WInst::i64c(0x3ff0000000000000ll),
       WInst::mem(Op::I64Store, 3, 0),
       // checksum: i64 loads of various widths/signs
       WInst::i32c(0), WInst::mem(Op::I64Load, 3, 0),
       WInst::i32c(0), WInst::mem(Op::I64Load8S, 0, 3),
       WInst::mk(Op::I64Add),
       WInst::i32c(0), WInst::mem(Op::I64Load16U, 1, 4),
       WInst::mk(Op::I64Xor),
       WInst::i32c(16), WInst::mem(Op::I64Load32S, 2, 0),
       WInst::mk(Op::I64Add),
       WInst::i32c(14), WInst::mem(Op::I64Load16S, 1, 0),
       WInst::mk(Op::I64Xor),
       WInst::i32c(24), WInst::mem(Op::I64Load, 3, 0),
       WInst::mk(Op::I64Add)});
  M.Memory = {{1, std::nullopt}};
  auto T = everyTier(M, "f")[Tree];
  EXPECT_TRUE(T.Ok) << T.Err;
}

TEST(ExecDiff, OutOfBoundsTrap) {
  for (uint32_t Addr : {65533u, 65536u, 0xfffffffcu}) {
    WModule M = oneFunc({{}, {ValType::I32}}, {},
                        {WInst::i32c(static_cast<int32_t>(Addr)),
                         WInst::mem(Op::I32Load, 2, 0)});
    M.Memory = {{1, std::nullopt}};
    auto T = everyTier(M, "f")[Tree];
    EXPECT_FALSE(T.Ok);
    EXPECT_EQ(T.Err, "trap: out-of-bounds memory access [func 0]");
  }
}

TEST(ExecDiff, MemoryGrowAndSize) {
  // Grow by 2 pages (observing the old size), then store past the old
  // boundary, then grow past the max and observe -1.
  WModule M = oneFunc(
      {{}, {ValType::I32}}, {ValType::I32},
      {WInst::i32c(2), WInst::mk(Op::MemoryGrow), WInst::idx(Op::LocalSet, 0),
       WInst::i32c(65536 + 8), WInst::i32c(77), WInst::mem(Op::I32Store, 2, 0),
       WInst::i32c(100), WInst::mk(Op::MemoryGrow), // beyond max: -1
       WInst::idx(Op::LocalGet, 0), WInst::mk(Op::I32Add),
       WInst::mk(Op::MemorySize), WInst::mk(Op::I32Add)});
  M.Memory = {{1, {4}}};
  auto T = everyTier(M, "f")[Tree];
  EXPECT_TRUE(T.Ok) << T.Err;
  // old(1) + (-1) + size(3) = 3
  EXPECT_EQ(T.Results[0].asU32(), 3u);
}

TEST(ExecDiff, ArithmeticTraps) {
  struct Case {
    std::vector<WInst> Body;
    const char *Msg;
  } Cases[] = {
      {{WInst::i32c(1), WInst::i32c(0), WInst::mk(Op::I32DivS)},
       "trap: integer divide error [func 0]"},
      {{WInst::i32c(static_cast<int32_t>(0x80000000)), WInst::i32c(-1),
        WInst::mk(Op::I32DivS)},
       "trap: integer divide error [func 0]"},
      {{WInst::i64c(5), WInst::i64c(0), WInst::mk(Op::I64RemU),
        WInst::mk(Op::I32WrapI64)},
       "trap: integer divide error [func 0]"},
      {{WInst::mk(Op::Unreachable)}, "trap: unreachable executed [func 0]"},
  };
  for (Case &C : Cases) {
    WModule M = oneFunc({{}, {ValType::I32}}, {}, C.Body);
    auto T = everyTier(M, "f")[Tree];
    EXPECT_FALSE(T.Ok);
    EXPECT_EQ(T.Err, C.Msg);
  }
}

TEST(ExecDiff, TruncationTrap) {
  // f64 2^40 fits i64 but traps for i32.
  WModule M = oneFunc({{}, {ValType::I32}}, {},
                      {WInst::i64c(0x4270000000000000ll), // f64 2^40 bits
                       WInst::mk(Op::F64ReinterpretI64),
                       WInst::mk(Op::I32TruncF64S)});
  auto T = everyTier(M, "f")[Tree];
  EXPECT_FALSE(T.Ok);
  EXPECT_EQ(T.Err, "trap: invalid conversion to integer [func 0]");
}

TEST(ExecDiff, GlobalsAndSelect) {
  WModule M = oneFunc(
      {{ValType::I32}, {ValType::I64}}, {},
      {WInst::idx(Op::GlobalGet, 0), WInst::i64c(100), WInst::mk(Op::I64Add),
       WInst::idx(Op::GlobalSet, 1),
       WInst::idx(Op::GlobalGet, 1), WInst::idx(Op::GlobalGet, 0),
       WInst::idx(Op::LocalGet, 0), WInst::mk(Op::Select)});
  M.Globals.push_back({ValType::I64, false, {WInst::i64c(7)}});
  M.Globals.push_back({ValType::I64, true, {WInst::i64c(0)}});
  for (uint32_t Cond : {0u, 1u}) {
    auto T = everyTier(M, "f", {WValue::i32(Cond)})[Tree];
    EXPECT_TRUE(T.Ok);
    EXPECT_EQ(T.Results[0].Bits, Cond ? 107u : 7u);
  }
}

//===----------------------------------------------------------------------===//
// Lowered-pipeline workloads (bench/Common.h) on the machine and every tier
//===----------------------------------------------------------------------===//

TEST(ExecLowered, LoopWorkload) {
  ir::Module M = rwbench::loopModule(500);
  Oracle O({&M});
  ASSERT_TRUE(O.ready());
  // The second run starts native on the threshold tier:
  // LinkOptions::JitThreshold drives the tier-up policy from the link layer.
  for (int K = 0; K < 2; ++K)
    EXPECT_TRUE(O.run("loopmod.main").Ok);
#if RW_JIT_ENABLED
  EXPECT_GT(jitCompiledCount(O.lowered().instance(JitThreshold)), 0u);
#endif
}

TEST(ExecLowered, HeapChurnAndHostGc) {
  // Linear churn frees every cell; unrestricted churn leaves garbage the
  // host-assisted collector reclaims, with the same statistics, heap
  // bytes and runtime counters on every tier (mark and sweep run as
  // native code on the JIT).
  for (bool Linear : {true, false}) {
    ir::Module M = rwbench::allocModule(Linear ? 300 : 200, Linear);
    Oracle O({&M});
    ASSERT_TRUE(O.ready());
    EXPECT_TRUE(O.run("allocmod.main").Ok);
#if RW_JIT_ENABLED
    // Every function native: a silent mass refusal must not pass.
    EXPECT_EQ(jitCompiledCount(O.lowered().instance(JitEager)),
              O.program().Module.Funcs.size());
#endif
    Oracle::Gc G = O.collect();
    EXPECT_EQ(G.Stats.Swept > 0, !Linear);
    EXPECT_EQ(G.Live, 0u);
  }
}

TEST(ExecLowered, WideModuleEveryFunction) {
  ir::Module M = rwbench::wideModule(20);
  auto Art = link::buildArtifact({&M}, {});
  ASSERT_TRUE(bool(Art)) << Art.error().message();
  WasmOracle O((*Art)->Program.Module);
  ASSERT_TRUE(O.ready());
  for (const WExport &E : (*Art)->Program.Module.Exports)
    for (uint32_t Arg : {0u, 13u})
      O.run(E.Name, {WValue::i32(Arg)});
}

TEST(ExecLowered, CounterClientProtocol) {
  // The Fig 9 Counter/Client FFI workload: stateful globals, linear
  // references crossing the boundary, repeated invocations.
  auto Lib = l3::compileSource("lib", rwbench::CounterLibL3);
  auto App = ml::compileSource("app", rwbench::CounterClientML);
  ASSERT_TRUE(bool(Lib)) << Lib.error().message();
  ASSERT_TRUE(bool(App)) << App.error().message();
  Oracle O({&*Lib, &*App});
  ASSERT_TRUE(O.ready());
  const sem::Value Unit = sem::Value::unit();
  ASSERT_TRUE(O.run("app.init", {Unit}).Ok);
  ASSERT_TRUE(O.run("app.set_rate", {sem::Value::i32(3)}).Ok);
  for (int I = 0; I < 5; ++I)
    ASSERT_TRUE(O.run("app.tick", {Unit}).Ok);
  EXPECT_EQ(O.run("app.total", {Unit}).bits(), 15u);
}

//===----------------------------------------------------------------------===//
// Fuzz-ish sweep: straight-line numerics over the operator alphabet
//===----------------------------------------------------------------------===//

namespace {

/// Deterministic 64-bit LCG (so failures are reproducible by seed).
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    S = S * 6364136223846793005ull + 1442695040888963407ull;
    return S >> 31;
  }
  uint32_t below(uint32_t N) { return static_cast<uint32_t>(next() % N); }
};

/// Builds a random straight-line function f(i32) -> i32 exercising the
/// numeric alphabet. A typed virtual stack keeps the module valid; an
/// i32 accumulator local checksums intermediate values so divergence
/// anywhere shows up in the result.
WModule fuzzModule(uint64_t Seed, unsigned Steps) {
  Rng R(Seed);
  std::vector<WInst> Body;
  std::vector<ValType> Stk;
  auto fold = [&]() {
    // Fold the top of stack into the accumulator (local 1), erasing it.
    switch (Stk.back()) {
    case ValType::I64:
      Body.push_back(WInst::mk(Op::I32WrapI64));
      break;
    case ValType::F32:
      Body.push_back(WInst::mk(Op::I32ReinterpretF32));
      break;
    case ValType::F64:
      Body.push_back(WInst::mk(Op::I64ReinterpretF64));
      Body.push_back(WInst::mk(Op::I32WrapI64));
      break;
    case ValType::I32:
      break;
    }
    Body.push_back(WInst::idx(Op::LocalGet, 1));
    Body.push_back(WInst::mk(Op::I32Xor));
    Body.push_back(WInst::idx(Op::LocalSet, 1));
    Stk.pop_back();
  };
  auto pushConst = [&]() {
    switch (R.below(4)) {
    case 0: {
      static const int32_t Pool[] = {0, 1, -1, 7, 1000000007,
                                     static_cast<int32_t>(0x80000000)};
      Body.push_back(WInst::i32c(Pool[R.below(6)]));
      Stk.push_back(ValType::I32);
      break;
    }
    case 1: {
      static const int64_t Pool[] = {0, 1, -1, 1ll << 40,
                                     static_cast<int64_t>(0x8000000000000000ull)};
      Body.push_back(WInst::i64c(Pool[R.below(5)]));
      Stk.push_back(ValType::I64);
      break;
    }
    case 2: {
      WInst W(Op::F32Const);
      // Small integral floats keep the space interesting but portable.
      W.U64 = num::f32ToBits(static_cast<float>(
                  static_cast<int32_t>(R.below(64)) - 16)) &
              0xffffffffu;
      Body.push_back(W);
      Stk.push_back(ValType::F32);
      break;
    }
    default: {
      WInst W(Op::F64Const);
      W.U64 = num::f64ToBits(static_cast<double>(
          static_cast<int32_t>(R.below(1024)) - 256));
      Body.push_back(W);
      Stk.push_back(ValType::F64);
      break;
    }
    }
  };

  // Opcode pools by shape.
  static const Op I32Bin[] = {Op::I32Add, Op::I32Sub, Op::I32Mul, Op::I32DivS,
                              Op::I32DivU, Op::I32RemS, Op::I32RemU,
                              Op::I32And, Op::I32Or, Op::I32Xor, Op::I32Shl,
                              Op::I32ShrS, Op::I32ShrU, Op::I32Rotl,
                              Op::I32Rotr, Op::I32Eq, Op::I32Ne, Op::I32LtS,
                              Op::I32LtU, Op::I32GtS, Op::I32GtU, Op::I32LeS,
                              Op::I32LeU, Op::I32GeS, Op::I32GeU};
  static const Op I64Bin[] = {Op::I64Add, Op::I64Sub, Op::I64Mul, Op::I64DivS,
                              Op::I64DivU, Op::I64RemS, Op::I64RemU,
                              Op::I64And, Op::I64Or, Op::I64Xor, Op::I64Shl,
                              Op::I64ShrS, Op::I64ShrU, Op::I64Rotl,
                              Op::I64Rotr};
  static const Op F32Bin[] = {Op::F32Add, Op::F32Sub, Op::F32Mul, Op::F32Div,
                              Op::F32Min, Op::F32Max, Op::F32Copysign};
  static const Op F64Bin[] = {Op::F64Add, Op::F64Sub, Op::F64Mul, Op::F64Div,
                              Op::F64Min, Op::F64Max, Op::F64Copysign};
  static const Op I32Un[] = {Op::I32Clz, Op::I32Ctz, Op::I32Popcnt,
                             Op::I32Eqz};
  static const Op I64Un[] = {Op::I64Clz, Op::I64Ctz, Op::I64Popcnt};
  static const Op F32Un[] = {Op::F32Abs, Op::F32Neg, Op::F32Ceil,
                             Op::F32Floor, Op::F32Trunc, Op::F32Nearest,
                             Op::F32Sqrt};
  static const Op F64Un[] = {Op::F64Abs, Op::F64Neg, Op::F64Ceil,
                             Op::F64Floor, Op::F64Trunc, Op::F64Nearest,
                             Op::F64Sqrt};
  static const Op FromI32[] = {Op::I64ExtendI32S, Op::I64ExtendI32U,
                               Op::F32ConvertI32S, Op::F32ConvertI32U,
                               Op::F64ConvertI32S, Op::F64ConvertI32U,
                               Op::F32ReinterpretI32};
  static const Op FromI64[] = {Op::I32WrapI64, Op::F32ConvertI64S,
                               Op::F32ConvertI64U, Op::F64ConvertI64S,
                               Op::F64ConvertI64U, Op::F64ReinterpretI64};
  static const Op FromF32[] = {Op::I32TruncF32S, Op::I32TruncF32U,
                               Op::I64TruncF32S, Op::I64TruncF32U,
                               Op::F64PromoteF32, Op::I32ReinterpretF32};
  static const Op FromF64[] = {Op::I32TruncF64S, Op::I32TruncF64U,
                               Op::I64TruncF64S, Op::I64TruncF64U,
                               Op::F32DemoteF64, Op::I64ReinterpretF64};

  // Seed the stack from the parameter.
  Body.push_back(WInst::idx(Op::LocalGet, 0));
  Stk.push_back(ValType::I32);

  for (unsigned I = 0; I < Steps; ++I) {
    unsigned Choice = R.below(10);
    if (Stk.size() < 2 || Choice < 3) {
      pushConst();
      continue;
    }
    ValType Top = Stk.back();
    if (Choice < 6 && Stk[Stk.size() - 2] == Top) { // binop
      const Op *Pool = nullptr;
      uint32_t N = 0;
      switch (Top) {
      case ValType::I32: Pool = I32Bin; N = 25; break;
      case ValType::I64: Pool = I64Bin; N = 15; break;
      case ValType::F32: Pool = F32Bin; N = 7; break;
      case ValType::F64: Pool = F64Bin; N = 7; break;
      }
      Op K = Pool[R.below(N)];
      Body.push_back(WInst::mk(K));
      Stk.pop_back();
      Stk.pop_back();
      Stk.push_back(opInfo(K).Out);
      continue;
    }
    if (Choice < 8) { // unop
      const Op *Pool = nullptr;
      uint32_t N = 0;
      switch (Top) {
      case ValType::I32: Pool = I32Un; N = 4; break;
      case ValType::I64: Pool = I64Un; N = 3; break;
      case ValType::F32: Pool = F32Un; N = 7; break;
      case ValType::F64: Pool = F64Un; N = 7; break;
      }
      Op K = Pool[R.below(N)];
      Body.push_back(WInst::mk(K));
      Stk.back() = opInfo(K).Out;
      continue;
    }
    if (Choice == 8) { // conversion
      const Op *Pool = nullptr;
      uint32_t N = 0;
      switch (Top) {
      case ValType::I32: Pool = FromI32; N = 7; break;
      case ValType::I64: Pool = FromI64; N = 6; break;
      case ValType::F32: Pool = FromF32; N = 6; break;
      case ValType::F64: Pool = FromF64; N = 6; break;
      }
      Op K = Pool[R.below(N)];
      Body.push_back(WInst::mk(K));
      Stk.back() = opInfo(K).Out;
      continue;
    }
    fold(); // checksum the top into the accumulator
  }
  while (!Stk.empty())
    fold();
  Body.push_back(WInst::idx(Op::LocalGet, 1));
  return oneFunc({{ValType::I32}, {ValType::I32}}, {ValType::I32},
                 std::move(Body));
}

} // namespace

TEST(ExecFuzz, StraightLineNumericSweep) {
  // Every tier over the fuzz alphabet: every inlined ALU template, every
  // helper-dispatched conversion, every trap edge.
  unsigned Agree = 0, Trapped = 0;
  for (uint64_t Seed = 1; Seed <= 150; ++Seed) {
    WModule M = fuzzModule(Seed, 60);
    ASSERT_TRUE(validate(M).ok())
        << "seed " << Seed << ": " << validate(M).error().message();
    for (uint32_t Arg : {0u, 0xdeadbeefu}) {
      SCOPED_TRACE("seed " + std::to_string(Seed) + " arg " +
                   std::to_string(Arg));
      TierRun T = everyTier(M, "f", {WValue::i32(Arg)})[Tree];
      ASSERT_FALSE(HasFailure());
      ++(T.Ok ? Agree : Trapped);
    }
    if (Seed == 100) { // The floors the jit-only sweep held over 100 seeds.
      EXPECT_GT(Agree, 30u);
      EXPECT_GT(Trapped, 5u);
    }
  }
  // The sweep must actually exercise both completion and trapping.
  EXPECT_GT(Agree, 50u);
  EXPECT_GT(Trapped, 10u);
}

TEST(ExecOracle, EveryNumericOpcodeOverEdgeOperands) {
  // f(x[, y]) = op x [y] for every numeric row of the opcode table
  // (0x45..0xbf), over every operand tuple drawn from the edge values of
  // its input types: zero, +-1, the signed and unsigned extremes, 2^31 and
  // 2^63, signed zeros, infinities, NaN, and floats just inside and just
  // past each truncation limit. Every tier must agree on results and trap
  // bytes, and all but Tree on instructions executed.
  auto F32 = [](float V) { return num::f32ToBits(V); };
  auto F64 = [](double V) { return num::f64ToBits(V); };
  const float Inf32 = std::numeric_limits<float>::infinity();
  const double Inf64 = std::numeric_limits<double>::infinity();
  const std::vector<uint64_t> I32s = {0, 1, 0xffffffffu, 0x80000000u,
                                      0x7fffffffu, 31, 32};
  const std::vector<uint64_t> I64s = {0,           1,          ~0ull,
                                      1ull << 63, (1ull << 63) - 1,
                                      1ull << 31,  0xffffffffu, 63};
  const std::vector<uint64_t> F32s = {
      F32(0.0f), F32(-0.0f), F32(1.0f), F32(-1.0f), F32(Inf32), F32(-Inf32),
      F32(std::numeric_limits<float>::quiet_NaN()), F32(-0.75f),
      F32(2147483520.0f),           // largest f32 below 2^31
      F32(2147483648.0f),           // 2^31: past i32
      F32(-2147483648.0f),          // i32 min, exactly
      F32(-2147483904.0f),          // past i32 min
      F32(4294967296.0f),           // 2^32: past u32
      F32(9223372036854775808.0f),  // 2^63: past i64
      F32(-9223373136366403584.0f), // past i64 min
      F32(18446744073709551616.0f)}; // 2^64: past u64
  const std::vector<uint64_t> F64s = {
      F64(0.0), F64(-0.0), F64(1.0), F64(-1.0), F64(Inf64), F64(-Inf64),
      F64(std::numeric_limits<double>::quiet_NaN()), F64(-0.75),
      F64(2147483647.9),  F64(2147483648.0),  // around i32 max
      F64(-2147483648.9), F64(-2147483649.0), // around i32 min
      F64(4294967295.9),  F64(4294967296.0),  // around u32 max
      F64(9223372036854775808.0),             // 2^63: past i64
      F64(-9223372036854777856.0),            // past i64 min
      F64(18446744073709549568.0),            // largest below 2^64
      F64(18446744073709551616.0)};           // 2^64: past u64
  auto Pool = [&](ValType T) -> const std::vector<uint64_t> & {
    return T == ValType::I32   ? I32s
           : T == ValType::I64 ? I64s
           : T == ValType::F32 ? F32s
                               : F64s;
  };

  unsigned Ops = 0, Runs = 0, DivTraps = 0, ConvTraps = 0;
  for (uint32_t Code = 0; Code < OpTable.size(); ++Code) {
    const OpInfo &Row = OpTable[Code];
    if (!Row.numeric())
      continue;
    Op K = static_cast<Op>(Code);
    FuncType Sig{{Row.In, Row.In + Row.Pops}, {Row.Out}};
    std::vector<WInst> Body;
    for (uint32_t I = 0; I < Row.Pops; ++I)
      Body.push_back(WInst::idx(Op::LocalGet, I));
    Body.push_back(WInst::mk(K));
    WModule M = oneFunc(Sig, {}, std::move(Body));
    ASSERT_TRUE(validate(M).ok()) << "opcode " << Code;
    WasmOracle O(M);
    ASSERT_TRUE(O.ready()) << "opcode " << Code;
#if RW_JIT_ENABLED
    ASSERT_EQ(jitCompiledCount(O.instance(JitEager)), 1u)
        << "opcode " << Code << " refused by the native tier";
#endif
    ++Ops;

    const std::vector<uint64_t> &PA = Pool(Sig.Params[0]);
    const std::vector<uint64_t> One = {0};
    const std::vector<uint64_t> &PB =
        Sig.Params.size() == 2 ? Pool(Sig.Params[1]) : One;
    for (uint64_t A : PA)
      for (uint64_t B : PB) {
        std::vector<WValue> Args = {{Sig.Params[0], A}};
        if (Sig.Params.size() == 2)
          Args.push_back({Sig.Params[1], B});
        SCOPED_TRACE("opcode " + std::to_string(Code) + " a=" +
                     std::to_string(A) + " b=" + std::to_string(B));
        std::vector<TierRun> R = O.run("f", Args);
        ASSERT_FALSE(HasFailure());
        ++Runs;
        if (!R[Tree].Ok) {
          const std::string &Msg = R[Tree].Err;
          DivTraps += Msg == "trap: integer divide error [func 0]";
          ConvTraps += Msg == "trap: invalid conversion to integer [func 0]";
        }
      }
  }
  EXPECT_EQ(Ops, 0xbfu - 0x45u + 1);
  EXPECT_GT(Runs, 10000u);
  EXPECT_GT(DivTraps, 0u);
  EXPECT_GT(ConvTraps, 0u);
}

//===----------------------------------------------------------------------===//
// One walk: translate() validates in the walk that emits the code
//===----------------------------------------------------------------------===//

namespace {

/// validate(M, Cap) and translate(M, Cap) give one verdict with the same
/// message bytes, so a module that validates always translates.
void expectOneVerdict(const WModule &M, uint32_t Cap, const std::string &Why) {
  Status V = validate(M, Cap);
  Expected<exec::FlatModule> T = exec::translate(M, Cap);
  ASSERT_EQ(V.ok(), bool(T))
      << Why << ": " << (V ? T.error().message() : V.error().message());
  if (!V) {
    EXPECT_EQ(V.error().message(), T.error().message()) << Why;
  }
}

/// One to three random local edits of \p M's bodies: drop, duplicate,
/// retarget or re-opcode an instruction, or insert a trap, a return, a
/// branch, a br_table or a constant, or wrap a run in a block or loop.
void mutate(WModule &M, Rng &R) {
  for (uint32_t K = 1 + R.below(3); K > 0; --K) {
    std::vector<WInst> *S = &M.Funcs[R.below(M.Funcs.size())].Body.mut();
    while (!S->empty() && R.below(2)) {
      WInst &I = (*S)[R.below(S->size())];
      if (I.Body.empty())
        break;
      S = I.Else.empty() || R.below(2) ? &I.Body.mut() : &I.Else.mut();
    }
    uint32_t P = S->empty() ? 0 : R.below(S->size());
    auto At = S->begin() + P;
    switch (S->empty() ? 0 : R.below(9)) {
    case 0:
      S->insert(At, WInst::mk(R.below(2) ? Op::Unreachable : Op::Return));
      break;
    case 1:
      S->erase(At);
      break;
    case 2:
      S->insert(At, WInst(*At));
      break;
    case 3:
      At->U32 += R.below(2) ? 1 : -1;
      break;
    case 4: {
      const OpInfo *Row;
      uint8_t B;
      do {
        B = static_cast<uint8_t>(R.below(256));
        Row = &OpTable[B];
      } while (!Row->Valid || Row->Imm == ImmKind::Structured ||
               Row->Imm == ImmKind::BrTable);
      At->K = static_cast<Op>(B);
      break;
    }
    case 5:
      S->insert(At, WInst::idx(R.below(2) ? Op::Br : Op::BrIf, R.below(4)));
      break;
    case 6:
      S->insert(At, WInst::brTable({R.below(4), R.below(4)}, R.below(4)));
      break;
    case 7:
      S->insert(At, WInst::i32c(7));
      break;
    case 8: {
      auto End = At + R.below(S->end() - At + 1);
      std::vector<WInst> Run(At, End);
      FuncType BT;
      BT.Params.resize(R.below(2), ValType::I32);
      BT.Results.resize(R.below(3), ValType::I32);
      WInst W = R.below(3) ? WInst::block(BT, std::move(Run))
                           : WInst::loop(BT, std::move(Run));
      P = static_cast<uint32_t>(At - S->begin());
      S->erase(At, End);
      S->insert(S->begin() + P, std::move(W));
      break;
    }
    }
  }
}

} // namespace

TEST(ExecOneWalk, TranslationVerdictIsValidationVerdict) {
  // Every regression-corpus input that decodes, under the policy's cap.
  ingest::Limits L;
  const std::filesystem::path Dir =
      std::filesystem::path(RW_SOURCE_DIR) / "fuzz/corpus/regression";
  for (const auto &Entry : std::filesystem::directory_iterator(Dir)) {
    std::ifstream In(Entry.path(), std::ios::binary);
    std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),
                               std::istreambuf_iterator<char>());
    if (Expected<WModule> M = decode(Bytes, L))
      expectOneVerdict(*M, L.MaxOperandDepth, Entry.path().filename());
  }

  // Seeded mutants of lowered bench modules, uncapped and under a small
  // cap, and every fourth one decoded from a byte-mutated encoding.
  std::vector<ir::Module> Mods;
  Mods.push_back(rwbench::loopModule(10));
  Mods.push_back(rwbench::allocModule(10, /*Linear=*/true));
  Mods.push_back(rwbench::allocModule(10, /*Linear=*/false));
  Mods.push_back(rwbench::wideModule(4));
  Mods.push_back(rwbench::serverModule(3));
  Rng R(0x5eed);
  unsigned Mutants = 0, Valid = 0;
  for (const ir::Module &Mod : Mods) {
    auto Art = link::buildArtifact({&Mod}, {});
    ASSERT_TRUE(bool(Art)) << Art.error().message();
    const WModule &Base = (*Art)->Program.Module;
    expectOneVerdict(Base, ~0u, Mod.Name);
    std::vector<uint8_t> Enc = encode(Base);
    for (unsigned K = 0; K < 250; ++K, ++Mutants) {
      std::string Why = Mod.Name + " mutant " + std::to_string(K);
      if (K % 4 == 0) {
        std::vector<uint8_t> B = Enc;
        B[R.below(B.size())] = static_cast<uint8_t>(R.below(256));
        if (Expected<WModule> M = decode(B, L))
          expectOneVerdict(*M, L.MaxOperandDepth, Why);
        continue;
      }
      WModule M = Base;
      mutate(M, R);
      Valid += validate(M).ok();
      expectOneVerdict(M, ~0u, Why);
      expectOneVerdict(M, 1 + R.below(12), Why);
    }
  }
  EXPECT_GE(Mutants, 1000u);
  EXPECT_GT(Valid, 50u) << "the mutants should keep some modules valid";
}

TEST(ExecOneWalk, DeadCodeIsCheckedButNotEmitted) {
  // block (unreachable) end never falls out and no branch targets it:
  // the code after it is type-checked but not emitted.
  FuncType I32Out{{}, {ValType::I32}};
  WInst Trap = WInst::block({}, {WInst::mk(Op::Unreachable)});
  WModule Bad = oneFunc(I32Out, {},
                        {Trap, WInst::i64c(1), WInst::mk(Op::I32Eqz)});
  const char *Msg =
      "in function 0: type mismatch at operator: expected i32, found i64";
  ASSERT_FALSE(validate(Bad).ok());
  EXPECT_EQ(validate(Bad).error().message(), Msg);
  Expected<exec::FlatModule> T = exec::translate(Bad);
  ASSERT_FALSE(bool(T));
  EXPECT_EQ(T.error().message(), Msg);

  // Valid tails emit nothing and raise no height, and the unreachable
  // end of the body needs no final return. A block begun in dead code
  // stays dead, even when a branch targets it or it is an if with an
  // else arm.
  const std::vector<uint32_t> JustTheTrap = {
      static_cast<uint32_t>(Op::Unreachable)};
  FuncType TwoI32{{}, {ValType::I32, ValType::I32}};
  for (std::vector<WInst> Tail :
       {std::vector<WInst>{WInst::i32c(5)},
        std::vector<WInst>{WInst::block({}, {WInst::idx(Op::Br, 0)}),
                           WInst::i32c(5)},
        std::vector<WInst>{WInst::block(TwoI32, {WInst::mk(Op::Unreachable)}),
                           WInst::mk(Op::Drop)},
        std::vector<WInst>{WInst::i32c(1),
                           WInst::ifElse(I32Out, {WInst::i32c(2)},
                                         {WInst::i32c(3)})}}) {
    Tail.insert(Tail.begin(), Trap);
    WModule Good = oneFunc(I32Out, {}, std::move(Tail));
    Expected<exec::FlatModule> FM = exec::translate(Good);
    ASSERT_TRUE(bool(FM)) << FM.error().message();
    EXPECT_EQ(FM->Funcs[0].Code, JustTheTrap);
    EXPECT_EQ(FM->Funcs[0].MaxDepth, 0u);
  }
}

TEST(ExecOneWalk, BrTableTargetsTakeTheDefaultsTypes) {
  // The default (the inner block) carries nothing; target 1 (the outer
  // block) carries an i32. No branch could take both.
  WModule M = oneFunc(
      {{}, {}}, {},
      {WInst::block({{}, {ValType::I32}},
                    {WInst::block({}, {WInst::i32c(0),
                                       WInst::brTable({1}, 0)}),
                     WInst::i32c(1)}),
       WInst::mk(Op::Drop)});
  const char *Msg = "in function 0: br_table: label types disagree";
  ASSERT_FALSE(validate(M).ok());
  EXPECT_EQ(validate(M).error().message(), Msg);
  expectOneVerdict(M, ~0u, "br_table");
}

//===----------------------------------------------------------------------===//
// Flat-engine specifics
//===----------------------------------------------------------------------===//

TEST(ExecFlat, TranslationShrinksDispatchCount) {
  // The flat engine must execute fewer dispatches than the tree walker
  // for the same structured program (blocks/ends/dead code erased).
  ir::Module M = rwbench::loopModule(100);
  auto Art = link::buildArtifact({&M}, {});
  ASSERT_TRUE(bool(Art));
  const lower::LoweredProgram *LP = &(*Art)->Program;
  auto TI = createInstance(LP->Module, EngineKind::Tree);
  auto FI = createInstance(LP->Module, EngineKind::Flat);
  ASSERT_TRUE(TI->initialize().ok());
  ASSERT_TRUE(FI->initialize().ok());
  ASSERT_TRUE(bool(TI->invokeByName("loopmod.main", {})));
  ASSERT_TRUE(bool(FI->invokeByName("loopmod.main", {})));
  EXPECT_GT(TI->instrCount(), 0u);
  EXPECT_GT(FI->instrCount(), 0u);
  EXPECT_LE(FI->instrCount(), TI->instrCount());
}

TEST(ExecFlat, FuelExhaustionTraps) {
  WModule M = oneFunc({{}, {}}, {},
                      {WInst::block({{}, {}},
                                    {WInst::loop({{}, {}},
                                                 {WInst::idx(Op::Br, 0)})})});
  auto FI = createInstance(M, EngineKind::Flat);
  ASSERT_TRUE(FI->initialize().ok());
  auto R = FI->invoke(0, {}, /*MaxFuel=*/1000);
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.error().message(), "trap: fuel exhausted [func 0]");
}

TEST(ExecFlat, ImportInvokeResultArityMatchesTree) {
  // invoke() of an import index must apply the same result handling as
  // the tree engine: keep the last |results| values from the host.
  WModule M;
  uint32_t TI = M.addType({{}, {ValType::I32}});
  M.ImportFuncs.push_back({"env", "chatty", TI});
  M.Exports.push_back({"f", ExportKind::Func, 0});
  auto Bind = [](Instance &I) {
    I.registerHost("env", "chatty",
                   [](Instance &, const std::vector<WValue> &)
                       -> Expected<std::vector<WValue>> {
                     return std::vector<WValue>{WValue::i32(1),
                                                WValue::i32(42)};
                   });
  };
  TierRun T = everyTier(M, "f", {}, Bind)[Tree];
  ASSERT_TRUE(T.Ok) << T.Err;
  ASSERT_EQ(T.Results.size(), 1u);
  EXPECT_EQ(T.Results[0].asU32(), 42u);
}

TEST(ExecFlat, RunStartFalseStillBuildsInstanceState) {
  // LinkOptions::RunStart only gates the start function; the instance
  // (memory, globals, engine preparation) must still exist.
  ir::Module M = rwbench::loopModule(10);
  for (EngineKind K : BothEngines) {
    link::LinkOptions Opts;
    Opts.Engine = K;
    Opts.RunStart = false;
    auto LI = link::instantiateLowered({&M}, Opts);
    ASSERT_TRUE(bool(LI)) << LI.error().message();
    EXPECT_FALSE(LI->Instance->memory().empty()) << engineKindName(K);
    auto R = LI->invokeExport("loopmod.main", {});
    ASSERT_TRUE(bool(R)) << engineKindName(K) << ": "
                         << R.error().message();
    EXPECT_EQ((*R)[0].asU32(), 55u);
  }
}

TEST(ExecFlat, EngineKindReporting) {
  WModule M = oneFunc({{}, {}}, {}, {});
  EXPECT_EQ(createInstance(M, EngineKind::Tree)->engine(), EngineKind::Tree);
  EXPECT_EQ(createInstance(M, EngineKind::Flat)->engine(), EngineKind::Flat);
  EXPECT_STREQ(engineKindName(EngineKind::Flat), "flat");
}

TEST(ExecFlat, HostReentryIntoRunningInstanceTraps) {
  // A host function that invokes back into the instance that called it
  // would scribble over the flat engine's operand stack, register file,
  // and frame stack mid-run. The engine must detect the re-entry and
  // surface a proper trap (this was undefined behavior before the guard).
  WModule M;
  uint32_t TI = M.addType({{}, {ValType::I32}});
  M.ImportFuncs.push_back({"env", "reenter", TI});
  M.Funcs.push_back({TI, {}, {WInst::idx(Op::Call, 0)}});
  M.Funcs.push_back({TI, {}, {WInst::i32c(7)}});
  M.Exports.push_back({"f", ExportKind::Func, 1});
  M.Exports.push_back({"leaf", ExportKind::Func, 2});

  exec::FlatInstance Inst(M);
  Inst.registerHost("env", "reenter",
                    [](Instance &I, const std::vector<WValue> &)
                        -> Expected<std::vector<WValue>> {
                      // Re-enter the *running* caller: must trap, not
                      // corrupt its execution state.
                      auto R = I.invoke(2, {});
                      if (!R)
                        return R.error();
                      return std::vector<WValue>{(*R)[0]};
                    });
  ASSERT_TRUE(Inst.initialize().ok());
  auto R = Inst.invokeByName("f", {});
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().message().find("re-entrant invoke"),
            std::string::npos)
      << R.error().message();
}

TEST(ExecFlat, InvokeAfterReentryTrapStillWorks) {
  // The guard must reset after the trap unwinds: the instance stays
  // usable for subsequent (non-re-entrant) invokes.
  WModule M;
  uint32_t TI = M.addType({{}, {ValType::I32}});
  M.ImportFuncs.push_back({"env", "reenter", TI});
  M.Funcs.push_back({TI, {}, {WInst::idx(Op::Call, 0)}});
  M.Funcs.push_back({TI, {}, {WInst::i32c(9)}});
  M.Exports.push_back({"f", ExportKind::Func, 1});
  M.Exports.push_back({"leaf", ExportKind::Func, 2});

  exec::FlatInstance Inst(M);
  Inst.registerHost("env", "reenter",
                    [](Instance &I, const std::vector<WValue> &)
                        -> Expected<std::vector<WValue>> {
                      auto R = I.invoke(2, {});
                      if (!R)
                        return R.error();
                      return std::vector<WValue>{(*R)[0]};
                    });
  ASSERT_TRUE(Inst.initialize().ok());
  ASSERT_FALSE(bool(Inst.invokeByName("f", {})));
  // Direct invoke of the leaf (no host in the path) succeeds afterwards.
  auto R2 = Inst.invokeByName("leaf", {});
  ASSERT_TRUE(bool(R2)) << R2.error().message();
  EXPECT_EQ((*R2)[0].asU32(), 9u);
}

//===----------------------------------------------------------------------===//
// Tier-3 native backend: jit = flat = tree (DESIGN.md paragraph 11)
//
// EngineKind::Jit is the flat engine with eager whole-module native
// compilation; with -DRW_JIT=OFF it degrades to plain flat execution, so
// every test here must pass under both configurations. Where a test
// asserts that native code actually ran (jitCompiledCount > 0) the
// assertion is gated on RW_JIT_ENABLED.
//===----------------------------------------------------------------------===//

TEST(JitDiff, ControlFlowBattery) {
  // The ExecDiff control-flow cases run on the JIT too; here the loop is
  // checked to run as native code.
  auto R = everyTier(loopSum(), "f", {WValue::i32(100)});
  EXPECT_TRUE(R[JitEager].Ok);
  EXPECT_EQ(R[JitEager].Results[0].asU32(), 5050u);
  EXPECT_EQ(jitCompiledCount(*R[JitEager].Inst), RW_JIT_ENABLED ? 1u : 0u);
}

TEST(JitDiff, BodiesEndingInDeadCodeCompile) {
  // A body whose end no path reaches has no final return to compile:
  // it ends in unreachable, in return, or in an if whose arms both
  // leave. A body ending in br 0 does reach its end.
  FuncType I32ToI32{{ValType::I32}, {ValType::I32}};
  WInst Inc[] = {WInst::idx(Op::LocalGet, 0), WInst::i32c(1),
                 WInst::mk(Op::I32Add)};
  std::vector<std::vector<WInst>> Bodies = {
      {Inc[0], Inc[1], Inc[2], WInst::mk(Op::Drop),
       WInst::mk(Op::Unreachable)},
      {Inc[0], Inc[1], Inc[2], WInst::mk(Op::Return)},
      {Inc[0], Inc[1], Inc[2], WInst::idx(Op::Br, 0)},
      {WInst::idx(Op::LocalGet, 0),
       WInst::ifElse({{}, {ValType::I32}},
                     {Inc[0], Inc[1], Inc[2], WInst::mk(Op::Return)},
                     {WInst::mk(Op::Unreachable)})},
  };
  for (size_t I = 0; I < Bodies.size(); ++I) {
    for (uint32_t Arg : {0u, 41u}) {
      auto R = everyTier(oneFunc(I32ToI32, {}, Bodies[I]), "f",
                             {WValue::i32(Arg)});
      EXPECT_EQ(jitCompiledCount(*R[JitEager].Inst), RW_JIT_ENABLED ? 1u : 0u)
          << "body " << I;
      if (R[JitEager].Ok) {
        EXPECT_EQ(R[JitEager].Results[0].asU32(), Arg + 1) << "body " << I;
      } else {
        EXPECT_EQ(R[JitEager].Err, "trap: unreachable executed [func 0]")
            << "body " << I;
      }
    }
  }
}

TEST(JitDiff, CallsRecursionAndIndirect) {
  // fib by double recursion: nested native frames through jitDirectCall.
  WModule Fib;
  uint32_t TI = Fib.addType({{ValType::I32}, {ValType::I32}});
  Fib.Funcs.push_back(
      {TI,
       {},
       {WInst::idx(Op::LocalGet, 0), WInst::i32c(2), WInst::mk(Op::I32LtS),
        WInst::ifElse({{}, {ValType::I32}}, {WInst::idx(Op::LocalGet, 0)},
                      {WInst::idx(Op::LocalGet, 0), WInst::i32c(1),
                       WInst::mk(Op::I32Sub), WInst::idx(Op::Call, 0),
                       WInst::idx(Op::LocalGet, 0), WInst::i32c(2),
                       WInst::mk(Op::I32Sub), WInst::idx(Op::Call, 0),
                       WInst::mk(Op::I32Add)})}});
  Fib.Exports.push_back({"f", ExportKind::Func, 0});
  auto R = everyTier(Fib, "f", {WValue::i32(15)});
  EXPECT_TRUE(R[JitEager].Ok);
  EXPECT_EQ(R[JitEager].Results[0].asU32(), 610u);

  // call_indirect: both success arms and both trap modes.
  WModule M;
  uint32_t Bin = M.addType({{ValType::I32, ValType::I32}, {ValType::I32}});
  uint32_t Un = M.addType({{ValType::I32}, {ValType::I32}});
  M.Funcs.push_back({Bin,
                     {},
                     {WInst::idx(Op::LocalGet, 0), WInst::idx(Op::LocalGet, 1),
                      WInst::mk(Op::I32Add)}});
  M.Funcs.push_back({Bin,
                     {},
                     {WInst::idx(Op::LocalGet, 0), WInst::idx(Op::LocalGet, 1),
                      WInst::mk(Op::I32Mul)}});
  M.Funcs.push_back(
      {Un, {}, {WInst::idx(Op::LocalGet, 0), WInst::i32c(1),
                WInst::mk(Op::I32Add)}});
  uint32_t Tri =
      M.addType({{ValType::I32, ValType::I32, ValType::I32}, {ValType::I32}});
  M.Funcs.push_back({Tri,
                     {},
                     {WInst::idx(Op::LocalGet, 1), WInst::idx(Op::LocalGet, 2),
                      WInst::idx(Op::LocalGet, 0),
                      WInst::idx(Op::CallIndirect, Bin)}});
  M.TableElems = {0, 1, 2};
  M.Exports.push_back({"f", ExportKind::Func, 3});
  for (uint32_t Sel : {0u, 1u, 2u, 9u})
    everyTier(M, "f", {WValue::i32(Sel), WValue::i32(3), WValue::i32(6)});

  // Unbounded recursion: "call stack exhausted" from a native frame.
  WModule Rec;
  uint32_t TV = Rec.addType({{}, {}});
  Rec.Funcs.push_back({TV, {}, {WInst::idx(Op::Call, 0)}});
  Rec.Exports.push_back({"f", ExportKind::Func, 0});
  auto RR = everyTier(Rec, "f");
  EXPECT_EQ(RR[JitEager].Err, "trap: call stack exhausted [func 0]");
}

TEST(JitDiff, HostCallbacksAndHostTraps) {
  // Host call in the middle of jitted arithmetic; the host pokes memory
  // (visible identically) and its results flow back into native code.
  WModule M;
  uint32_t TI = M.addType({{ValType::I32}, {ValType::I32}});
  M.ImportFuncs.push_back({"env", "scale", TI});
  M.Memory = {{1, std::nullopt}};
  M.Funcs.push_back({TI,
                     {},
                     {WInst::idx(Op::LocalGet, 0), WInst::idx(Op::Call, 0),
                      WInst::i32c(1), WInst::mk(Op::I32Add)}});
  M.Exports.push_back({"f", ExportKind::Func, 1});
  auto Bind = [](Instance &I) {
    I.registerHost("env", "scale",
                   [](Instance &Inst, const std::vector<WValue> &Args)
                       -> Expected<std::vector<WValue>> {
                     Inst.store32(64, Args[0].asU32());
                     return std::vector<WValue>{
                         WValue::i32(Args[0].asU32() * 3)};
                   });
  };
  auto R = everyTier(M, "f", {WValue::i32(5)}, Bind);
  EXPECT_TRUE(R[JitEager].Ok);
  EXPECT_EQ(R[JitEager].Results[0].asU32(), 16u);
  EXPECT_EQ(R[JitEager].Inst->load32(64), 5u);

  // A trapping host: the one JTrapFinal path (cannot re-execute).
  WModule B;
  uint32_t TV = B.addType({{}, {}});
  B.ImportFuncs.push_back({"env", "boom", TV});
  B.Funcs.push_back({TV, {}, {WInst::idx(Op::Call, 0)}});
  B.Exports.push_back({"f", ExportKind::Func, 1});
  auto BindBoom = [](Instance &I) {
    I.registerHost("env", "boom",
                   [](Instance &, const std::vector<WValue> &)
                       -> Expected<std::vector<WValue>> {
                     return Error("host exploded");
                   });
  };
  auto RB = everyTier(B, "f", {}, BindBoom);
  EXPECT_EQ(RB[JitEager].Err, "trap: host exploded [func 0]");

  // An unbound import: all three engines refuse identically (initialize
  // rejects it before anything runs; equality asserted by expectSameAll).
  auto RU = everyTier(B, "f", {});
  EXPECT_FALSE(RU[JitEager].Ok);
  EXPECT_NE(RU[JitEager].Err.find("unsatisfied import"), std::string::npos)
      << RU[JitEager].Err;
}

TEST(JitDiff, MemoryAndTrapMessagesExact) {
  // Every store width + every load flavor, checksummed.
  WModule W = oneFunc(
      {{}, {ValType::I64}}, {ValType::I64},
      {WInst::i32c(0), WInst::i64c(0x1122334455667788ll),
       WInst::mem(Op::I64Store, 3, 0),
       WInst::i32c(16), WInst::i32c(0xbeef), WInst::mem(Op::I32Store16, 1, 0),
       WInst::i32c(18), WInst::i32c(0x7f), WInst::mem(Op::I32Store8, 0, 0),
       WInst::i32c(24), WInst::i64c(0x3ff0000000000000ll),
       WInst::mem(Op::I64Store, 3, 0),
       WInst::i32c(0), WInst::mem(Op::I64Load, 3, 0),
       WInst::i32c(0), WInst::mem(Op::I64Load8S, 0, 3),
       WInst::mk(Op::I64Add),
       WInst::i32c(0), WInst::mem(Op::I64Load16U, 1, 4),
       WInst::mk(Op::I64Xor),
       WInst::i32c(16), WInst::mem(Op::I64Load32S, 2, 0),
       WInst::mk(Op::I64Add),
       WInst::i32c(14), WInst::mem(Op::I64Load16S, 1, 0),
       WInst::mk(Op::I64Xor),
       WInst::i32c(24), WInst::mem(Op::I64Load, 3, 0),
       WInst::mk(Op::I64Add)});
  W.Memory = {{1, std::nullopt}};
  everyTier(W, "f");

  // Out-of-bounds addresses, including the wraparound corner.
  for (uint32_t Addr : {65533u, 65536u, 0xfffffffcu}) {
    WModule M = oneFunc({{}, {ValType::I32}}, {},
                        {WInst::i32c(static_cast<int32_t>(Addr)),
                         WInst::mem(Op::I32Load, 2, 0)});
    M.Memory = {{1, std::nullopt}};
    auto R = everyTier(M, "f");
    EXPECT_EQ(R[JitEager].Err, "trap: out-of-bounds memory access [func 0]");
  }

  // memory.grow with a max, observed sizes, and the -1 failure.
  WModule G = oneFunc(
      {{}, {ValType::I32}}, {ValType::I32},
      {WInst::i32c(2), WInst::mk(Op::MemoryGrow), WInst::idx(Op::LocalSet, 0),
       WInst::i32c(65536 + 8), WInst::i32c(77), WInst::mem(Op::I32Store, 2, 0),
       WInst::i32c(100), WInst::mk(Op::MemoryGrow),
       WInst::idx(Op::LocalGet, 0), WInst::mk(Op::I32Add),
       WInst::mk(Op::MemorySize), WInst::mk(Op::I32Add)});
  G.Memory = {{1, {4}}};
  auto RG = everyTier(G, "f");
  EXPECT_TRUE(RG[JitEager].Ok);
  EXPECT_EQ(RG[JitEager].Results[0].asU32(), 3u);

  // Arithmetic and conversion traps from inlined and helper-dispatched
  // templates alike.
  struct Case {
    std::vector<WInst> Body;
    const char *Msg;
  } Cases[] = {
      {{WInst::i32c(1), WInst::i32c(0), WInst::mk(Op::I32DivS)},
       "trap: integer divide error [func 0]"},
      {{WInst::i32c(static_cast<int32_t>(0x80000000)), WInst::i32c(-1),
        WInst::mk(Op::I32DivS)},
       "trap: integer divide error [func 0]"},
      {{WInst::i64c(5), WInst::i64c(0), WInst::mk(Op::I64RemU),
        WInst::mk(Op::I32WrapI64)},
       "trap: integer divide error [func 0]"},
      {{WInst::mk(Op::Unreachable)}, "trap: unreachable executed [func 0]"},
      {{WInst::i64c(0x4270000000000000ll), WInst::mk(Op::F64ReinterpretI64),
        WInst::mk(Op::I32TruncF64S)},
       "trap: invalid conversion to integer [func 0]"},
  };
  for (Case &C : Cases) {
    WModule M = oneFunc({{}, {ValType::I32}}, {}, C.Body);
    auto R = everyTier(M, "f");
    EXPECT_EQ(R[JitEager].Err, C.Msg);
  }
}

TEST(JitDiff, FuelExhaustionParity) {
  // An infinite loop under a tight fuel budget must trap "fuel
  // exhausted" after consuming *exactly* as much fuel as the
  // interpreter would — segment batching refunds the unexecuted rest.
  WModule M = oneFunc({{}, {}}, {},
                      {WInst::block({{}, {}},
                                    {WInst::loop({{}, {}},
                                                 {WInst::idx(Op::Br, 0)})})});
  auto FI = createInstance(M, EngineKind::Flat);
  auto JI = createInstance(M, EngineKind::Jit);
  ASSERT_TRUE(FI->initialize().ok());
  ASSERT_TRUE(JI->initialize().ok());
  auto RF = FI->invoke(0, {}, /*MaxFuel=*/1000);
  auto RJ = JI->invoke(0, {}, /*MaxFuel=*/1000);
  ASSERT_FALSE(bool(RF));
  ASSERT_FALSE(bool(RJ));
  EXPECT_EQ(RF.error().message(), "trap: fuel exhausted [func 0]");
  EXPECT_EQ(RJ.error().message(), RF.error().message());
  EXPECT_EQ(FI->instrCount(), JI->instrCount());
  EXPECT_EQ(JI->instrCount(), 1000u);
}

TEST(JitDiff, TierUpMidLoopThenTrap) {
  // Threshold tiering: f(d) divides by d inside a loop. Two clean
  // invokes push the profile mass over threshold 1 so the third invoke
  // runs native — and traps mid-loop with the interpreter's exact
  // message (the deopt re-executes the faulting division flat).
  WModule M = oneFunc(
      {{ValType::I32}, {ValType::I32}}, {ValType::I32, ValType::I32},
      {WInst::block(
           {{}, {}},
           {WInst::loop(
               {{}, {}},
               {WInst::idx(Op::LocalGet, 1), WInst::i32c(1),
                WInst::mk(Op::I32Add), WInst::idx(Op::LocalTee, 1),
                WInst::idx(Op::LocalGet, 0), WInst::mk(Op::I32DivU),
                WInst::idx(Op::LocalGet, 2), WInst::mk(Op::I32Add),
                WInst::idx(Op::LocalSet, 2), WInst::idx(Op::LocalGet, 1),
                WInst::i32c(10), WInst::mk(Op::I32LtS),
                WInst::idx(Op::BrIf, 0)})}),
       WInst::idx(Op::LocalGet, 2)});
  ASSERT_TRUE(validate(M).ok());

  exec::FlatInstance Jit(M);
  Jit.setTierPolicy(/*Threshold=*/1);
  ASSERT_TRUE(Jit.initialize().ok());
  EXPECT_EQ(Jit.jitCompiledCount(), 0u) << "nothing tiers before profiles";

  auto TreeI = createInstance(M, EngineKind::Tree);
  ASSERT_TRUE(TreeI->initialize().ok());

  for (uint32_t D : {1u, 2u}) {
    auto RJ = Jit.invoke(0, {WValue::i32(D)});
    auto RT = TreeI->invoke(0, {WValue::i32(D)});
    ASSERT_TRUE(bool(RJ)) << RJ.error().message();
    ASSERT_TRUE(bool(RT));
    EXPECT_EQ((*RJ)[0].Bits, (*RT)[0].Bits);
  }
#if RW_JIT_ENABLED
  EXPECT_EQ(Jit.jitCompiledCount(), 1u) << "threshold crossing missed";
#endif
  auto RJ = Jit.invoke(0, {WValue::i32(0)});
  auto RT = TreeI->invoke(0, {WValue::i32(0)});
  ASSERT_FALSE(bool(RJ));
  ASSERT_FALSE(bool(RT));
  EXPECT_EQ(RJ.error().message(), RT.error().message());
  EXPECT_EQ(RJ.error().message(), "trap: integer divide error [func 0]");
#if RW_JIT_ENABLED
  // Threshold tiering profiles the instance, and the deopt leaves the
  // counters at the trap: three invokes, ten loop headers in each clean
  // one and the first of the third.
  ASSERT_EQ(Jit.functionProfiles().size(), 1u);
  EXPECT_EQ(Jit.functionProfiles()[0].Invocations, 3u);
  EXPECT_EQ(Jit.functionProfiles()[0].LoopHeads, 21u);
#endif
  // And the instance keeps working natively after the trap unwound.
  auto RAgain = Jit.invoke(0, {WValue::i32(3)});
  ASSERT_TRUE(bool(RAgain)) << RAgain.error().message();
}

TEST(JitDiff, ThresholdNeverStaysFlat) {
  WModule M = oneFunc({{ValType::I32}, {ValType::I32}}, {},
                      {WInst::idx(Op::LocalGet, 0), WInst::i32c(2),
                       WInst::mk(Op::I32Mul)});
  exec::FlatInstance I(M);
  I.setTierPolicy(exec::FlatInstance::NeverTier);
  ASSERT_TRUE(I.initialize().ok());
  for (int K = 0; K < 50; ++K) {
    auto R = I.invoke(0, {WValue::i32(21)});
    ASSERT_TRUE(bool(R));
    EXPECT_EQ((*R)[0].asU32(), 42u);
  }
  EXPECT_EQ(I.jitCompiledCount(), 0u);
}

TEST(JitDiff, ProfileTrapNoteParity) {
  // Trap bytes depend on neither the engine nor the tier policy: tree,
  // flat and eager JIT, each with and without profiling, and a flat
  // instance tiering at threshold 1 all render the same " [func N]" note.
  // The counts live in functionProfiles() alone, and the native profile
  // templates leave the same ones as both interpreters. f0 runs three
  // loop-header executions and calls f1, which traps; the threshold
  // instance tiers after the first invoke, so the second runs natively.
  WModule M;
  uint32_t TV = M.addType({{}, {}});
  M.Funcs.push_back(
      {TV,
       {ValType::I32},
       {WInst::block(
            {{}, {}},
            {WInst::loop({{}, {}},
                         {WInst::idx(Op::LocalGet, 0), WInst::i32c(1),
                          WInst::mk(Op::I32Add), WInst::idx(Op::LocalTee, 0),
                          WInst::i32c(3), WInst::mk(Op::I32LtS),
                          WInst::idx(Op::BrIf, 0)})}),
        WInst::idx(Op::Call, 1)}});
  M.Funcs.push_back({TV, {}, {WInst::mk(Op::Unreachable)}});
  M.Exports.push_back({"f", ExportKind::Func, 0});
  ASSERT_TRUE(validate(M).ok()) << validate(M).error().message();

  std::vector<std::unique_ptr<Instance>> Insts;
  for (EngineKind K : AllEngines)
    for (bool Profiled : {false, true}) {
      Insts.push_back(createInstance(M, K));
      if (Profiled)
        Insts.back()->enableProfiling();
    }
  auto Tiering = std::make_unique<exec::FlatInstance>(M);
  Tiering->setTierPolicy(/*Threshold=*/1);
  Insts.push_back(std::move(Tiering));

  for (size_t N = 0; N < Insts.size(); ++N) {
    Instance &I = *Insts[N];
    SCOPED_TRACE(std::string(engineKindName(I.engine())) + " #" +
                 std::to_string(N));
    ASSERT_TRUE(I.initialize().ok());
    for (uint64_t K = 1; K <= 2; ++K) {
      auto R = I.invokeByName("f", {});
      ASSERT_FALSE(bool(R));
      EXPECT_EQ(R.error().message(), "trap: unreachable executed [func 1]");
      // The threshold policy profiles by itself only with the backend in.
      if (!I.profilingEnabled())
        continue;
      const std::vector<FunctionProfile> &P = I.functionProfiles();
      ASSERT_EQ(P.size(), 2u);
      EXPECT_EQ(P[0].Invocations, K);
      EXPECT_EQ(P[0].LoopHeads, 3 * K);
      EXPECT_EQ(P[1].Invocations, K);
      EXPECT_EQ(P[1].LoopHeads, 0u);
    }
  }
  // The threshold instance ran natively what the unprofiled eager JIT
  // (Insts[4]) compiled.
  auto Compiled = [&](size_t N) { return jitCompiledCount(*Insts[N]); };
  EXPECT_EQ(Compiled(Insts.size() - 1), Compiled(4));
#if RW_JIT_ENABLED
  EXPECT_GT(Compiled(4), 0u);
#endif
}

TEST(JitDiff, ResetProfilesRetiers) {
  // Instance::resetProfiles zeroes the counters: a threshold instance whose
  // profile was reset must re-accumulate before tiering new functions.
  WModule M = oneFunc({{ValType::I32}, {ValType::I32}}, {},
                      {WInst::idx(Op::LocalGet, 0), WInst::i32c(1),
                       WInst::mk(Op::I32Add)});
  exec::FlatInstance I(M);
  I.setTierPolicy(/*Threshold=*/5);
  I.enableProfiling(); // Keeps functionProfiles() populated under JIT=OFF.
  ASSERT_TRUE(I.initialize().ok());
  for (int K = 0; K < 3; ++K)
    ASSERT_TRUE(bool(I.invoke(0, {WValue::i32(K)})));
  I.resetProfiles();
  EXPECT_EQ(I.functionProfiles()[0].Invocations, 0u);
  for (int K = 0; K < 2; ++K)
    ASSERT_TRUE(bool(I.invoke(0, {WValue::i32(K)})));
  // 3 + 2 invokes but never 5 *consecutive* since the reset: still flat.
  EXPECT_EQ(I.jitCompiledCount(), 0u);
  for (int K = 0; K < 4; ++K)
    ASSERT_TRUE(bool(I.invoke(0, {WValue::i32(K)})));
#if RW_JIT_ENABLED
  EXPECT_EQ(I.jitCompiledCount(), 1u);
#endif
}

//===----------------------------------------------------------------------===//
// Native-to-native calls: the call stencil pushes frame records itself,
// so every case below runs deep or mixed chains of native frames and
// checks that traps, deopts and fallbacks look exactly as interpreted.
//===----------------------------------------------------------------------===//

namespace {

/// i32 -> i32: n == 0 ? i32.load(Addr) : f(n - 1) + 1 (function 0).
WModule recurseThenLoad(uint32_t Addr) {
  WModule M;
  uint32_t TI = M.addType({{ValType::I32}, {ValType::I32}});
  M.Memory = {{1, std::nullopt}};
  M.Funcs.push_back(
      {TI,
       {},
       {WInst::idx(Op::LocalGet, 0), WInst::mk(Op::I32Eqz),
        WInst::ifElse({{}, {ValType::I32}},
                      {WInst::i32c(static_cast<int32_t>(Addr)),
                       WInst::mem(Op::I32Load, 2, 0)},
                      {WInst::idx(Op::LocalGet, 0), WInst::i32c(1),
                       WInst::mk(Op::I32Sub), WInst::idx(Op::Call, 0),
                       WInst::i32c(1), WInst::mk(Op::I32Add)})}});
  M.Exports.push_back({"f", ExportKind::Func, 0});
  return M;
}

/// f0 -> f1 -> f2 -> f3, each f_k(x) = f_{k+1}(x + 1) * 2 + k, and
/// f3(x) = x == 99 ? unreachable : x.
WModule callChain() {
  WModule M;
  uint32_t TI = M.addType({{ValType::I32}, {ValType::I32}});
  for (uint32_t K = 0; K < 3; ++K)
    M.Funcs.push_back(
        {TI,
         {},
         {WInst::idx(Op::LocalGet, 0), WInst::i32c(1), WInst::mk(Op::I32Add),
          WInst::idx(Op::Call, K + 1), WInst::i32c(2), WInst::mk(Op::I32Mul),
          WInst::i32c(static_cast<int32_t>(K)), WInst::mk(Op::I32Add)}});
  M.Funcs.push_back(
      {TI,
       {},
       {WInst::idx(Op::LocalGet, 0), WInst::i32c(99), WInst::mk(Op::I32Eq),
        WInst::ifElse({{}, {}}, {WInst::mk(Op::Unreachable)}, {}),
        WInst::idx(Op::LocalGet, 0)}});
  M.Exports.push_back({"f", ExportKind::Func, 0});
  return M;
}

} // namespace

TEST(JitCalls, OutOfBoundsTrapDeepInNativeCallees) {
  // 600 native frames deep, the innermost one loads out of bounds. It
  // deopts, every frame record above it is the stencil's, and every
  // engine's profile counts all 601 entries.
  auto Profile = [](Instance &I) { I.enableProfiling(); };
  auto ExpectEntries = [](const std::vector<TierRun> &R, uint64_t Inv) {
    for (const TierRun &E : R) {
      const std::vector<FunctionProfile> &P = E.Inst->functionProfiles();
      ASSERT_EQ(P.size(), 1u) << engineKindName(E.Inst->engine());
      EXPECT_EQ(P[0].Invocations, Inv) << engineKindName(E.Inst->engine());
      EXPECT_EQ(P[0].LoopHeads, 0u) << engineKindName(E.Inst->engine());
    }
  };
  auto R = everyTier(recurseThenLoad(65536), "f", {WValue::i32(600)},
                         Profile);
  EXPECT_EQ(R[JitEager].Err, "trap: out-of-bounds memory access [func 0]");
  ExpectEntries(R, 601);
#if RW_JIT_ENABLED
  EXPECT_EQ(jitCompiledCount(*R[JitEager].Inst), 1u);
#endif
  // The same chain in bounds returns through all 600 native frames.
  auto Ok = everyTier(recurseThenLoad(0), "f", {WValue::i32(600)},
                          Profile);
  ASSERT_TRUE(Ok[JitEager].Ok) << Ok[JitEager].Err;
  EXPECT_EQ(Ok[JitEager].Results[0].asU32(), 600u);
  // At the depth limit the stencil falls back and the interpreter traps.
  auto Deep = everyTier(recurseThenLoad(0), "f", {WValue::i32(5000)},
                            Profile);
  EXPECT_EQ(Deep[JitEager].Err, "trap: call stack exhausted [func 0]");
  ExpectEntries(Deep, 2000);
}

TEST(JitCalls, DeoptInNativeCalleePartwayDownAChain) {
  WModule M = callChain();
  auto R = everyTier(M, "f", {WValue::i32(5)});
  ASSERT_TRUE(R[JitEager].Ok) << R[JitEager].Err;
  EXPECT_EQ(R[JitEager].Results[0].asU32(), ((8u * 2 + 2) * 2 + 1) * 2 + 0);
  // f3 reaches unreachable three native frames down.
  auto U = everyTier(M, "f", {WValue::i32(96)});
  EXPECT_EQ(U[JitEager].Err, "trap: unreachable executed [func 3]");

  // Fuel runs out at every instruction of the chain in turn: the flat
  // and native tiers stop at the same instruction with the same note.
  auto FI = createInstance(M, EngineKind::Flat);
  auto JI = createInstance(M, EngineKind::Jit);
  ASSERT_TRUE(FI->initialize().ok());
  ASSERT_TRUE(JI->initialize().ok());
  ASSERT_TRUE(bool(FI->invoke(0, {WValue::i32(5)})));
  const uint64_t Total = FI->instrCount();
  for (uint64_t Fuel = 1; Fuel <= Total; ++Fuel) {
    FI->resetInstrCount();
    JI->resetInstrCount();
    auto RF = FI->invoke(0, {WValue::i32(5)}, Fuel);
    auto RJ = JI->invoke(0, {WValue::i32(5)}, Fuel);
    ASSERT_EQ(bool(RF), bool(RJ)) << "fuel " << Fuel;
    if (!RF)
      EXPECT_EQ(RF.error().message(), RJ.error().message()) << "fuel " << Fuel;
    EXPECT_EQ(FI->instrCount(), JI->instrCount()) << "fuel " << Fuel;
    EXPECT_EQ(bool(RF), Fuel == Total) << "fuel " << Fuel;
  }
}

TEST(JitCalls, RegisterAndOperandGrowthPartwayDownAChain) {
  // f(n) = n == 0 ? g(7) : f(n - 1) + g(n) + h(n), 500 deep. g has 200
  // locals and a 41-slot operand stack, so its first call deep in the
  // chain must grow Regs and OpStack through the fallback; h has three.
  // Both read locals their previous activations, one register lower,
  // left dirty: the stencil must zero them (returns are x + 40 and x).
  WModule M;
  uint32_t TI = M.addType({{ValType::I32}, {ValType::I32}});
  M.Funcs.push_back(
      {TI,
       {},
       {WInst::idx(Op::LocalGet, 0), WInst::mk(Op::I32Eqz),
        WInst::ifElse({{}, {ValType::I32}},
                      {WInst::i32c(7), WInst::idx(Op::Call, 1)},
                      {WInst::idx(Op::LocalGet, 0), WInst::i32c(1),
                       WInst::mk(Op::I32Sub), WInst::idx(Op::Call, 0),
                       WInst::idx(Op::LocalGet, 0), WInst::idx(Op::Call, 1),
                       WInst::mk(Op::I32Add), WInst::idx(Op::LocalGet, 0),
                       WInst::idx(Op::Call, 2), WInst::mk(Op::I32Add)})}});
  auto Dirtying = [](uint32_t Hi, uint32_t Lo, std::vector<WInst> Body) {
    for (uint32_t L : {Hi - 1, Hi, Lo - 1, Lo}) {
      Body.push_back(WInst::i32c(12345));
      Body.push_back(WInst::idx(Op::LocalSet, L));
    }
    return Body;
  };
  std::vector<WInst> G = {WInst::idx(Op::LocalGet, 0),
                          WInst::idx(Op::LocalGet, 199), WInst::mk(Op::I32Add),
                          WInst::idx(Op::LocalGet, 150), WInst::mk(Op::I32Add)};
  for (int K = 0; K < 40; ++K)
    G.push_back(WInst::i32c(1));
  for (int K = 0; K < 40; ++K)
    G.push_back(WInst::mk(Op::I32Add));
  M.Funcs.push_back(
      {TI, std::vector<ValType>(199, ValType::I32), Dirtying(199, 150, G)});
  M.Funcs.push_back(
      {TI,
       {ValType::I32, ValType::I32},
       Dirtying(2, 2,
                {WInst::idx(Op::LocalGet, 0), WInst::idx(Op::LocalGet, 1),
                 WInst::mk(Op::I32Add), WInst::idx(Op::LocalGet, 2),
                 WInst::mk(Op::I32Add)})});
  M.Exports.push_back({"f", ExportKind::Func, 0});
  auto R = everyTier(M, "f", {WValue::i32(500)});
  ASSERT_TRUE(R[JitEager].Ok) << R[JitEager].Err;
  // 47 + sum over n = 1..500 of (n + 40) + n.
  EXPECT_EQ(R[JitEager].Results[0].asU32(), 47u + 500u * 501u + 40u * 500u);
#if RW_JIT_ENABLED
  EXPECT_EQ(jitCompiledCount(*R[JitEager].Inst), 3u);
#endif
}

TEST(JitCalls, CompiledCallerOfAnUntieredCallee) {
  // Threshold policy: f0 loops n times and calls f1(sum); f1 loops ten
  // times and returns f2(x) + 1; f2 traps on 0. f0 and f1 tier after one
  // invoke and f2 only after ten, so for nine invokes a native caller
  // enters a native callee (the stencil) that enters an interpreted one
  // (the fallback), and the interpreter returns through both frame
  // records. Results, fuel, the trap note and the profile counts track a
  // flat-only instance.
  // block { loop { if Ctr >= Limit break; Work; ++Ctr; continue } }
  auto CountTo = [](WInst Limit, uint32_t Ctr, std::vector<WInst> Work) {
    std::vector<WInst> Body = {WInst::idx(Op::LocalGet, Ctr), Limit,
                               WInst::mk(Op::I32GeS), WInst::idx(Op::BrIf, 1)};
    Body.insert(Body.end(), Work.begin(), Work.end());
    for (WInst I : {WInst::idx(Op::LocalGet, Ctr), WInst::i32c(1),
                    WInst::mk(Op::I32Add), WInst::idx(Op::LocalSet, Ctr),
                    WInst::idx(Op::Br, 0)})
      Body.push_back(I);
    return WInst::block({{}, {}}, {WInst::loop({{}, {}}, Body)});
  };
  WModule M;
  uint32_t TI = M.addType({{ValType::I32}, {ValType::I32}});
  M.Funcs.push_back({TI,
                     {ValType::I32, ValType::I32},
                     {CountTo(WInst::idx(Op::LocalGet, 0), 1,
                              {WInst::idx(Op::LocalGet, 2),
                               WInst::idx(Op::LocalGet, 1),
                               WInst::mk(Op::I32Add),
                               WInst::idx(Op::LocalSet, 2)}),
                      WInst::idx(Op::LocalGet, 2), WInst::idx(Op::Call, 1)}});
  M.Funcs.push_back({TI,
                     {ValType::I32},
                     {CountTo(WInst::i32c(10), 1, {}),
                      WInst::idx(Op::LocalGet, 0), WInst::idx(Op::Call, 2),
                      WInst::i32c(1), WInst::mk(Op::I32Add)}});
  M.Funcs.push_back(
      {TI,
       {},
       {WInst::idx(Op::LocalGet, 0), WInst::mk(Op::I32Eqz),
        WInst::ifElse({{}, {}}, {WInst::mk(Op::Unreachable)}, {}),
        WInst::idx(Op::LocalGet, 0), WInst::i32c(3), WInst::mk(Op::I32Mul)}});
  ASSERT_TRUE(validate(M).ok()) << validate(M).error().message();

  exec::FlatInstance Ref(M);
  Ref.setTierPolicy(exec::FlatInstance::NeverTier);
  Ref.enableProfiling();
  ASSERT_TRUE(Ref.initialize().ok());
  exec::FlatInstance Jit(M);
  Jit.setTierPolicy(/*Threshold=*/10);
  Jit.enableProfiling();
  ASSERT_TRUE(Jit.initialize().ok());

  for (uint32_t K = 1; K <= 12; ++K) {
    auto RR = Ref.invoke(0, {WValue::i32(20)});
    auto RJ = Jit.invoke(0, {WValue::i32(20)});
    ASSERT_TRUE(bool(RR)) << RR.error().message();
    ASSERT_TRUE(bool(RJ)) << RJ.error().message();
    EXPECT_EQ((*RJ)[0].asU32(), 190u * 3 + 1);
    EXPECT_EQ(Ref.instrCount(), Jit.instrCount()) << "invoke " << K;
#if RW_JIT_ENABLED
    // Compiles happen at the start of an invoke, from earlier profiles.
    EXPECT_EQ(Jit.jitCompiledCount(), K == 1 ? 0u : K <= 10 ? 2u : 3u)
        << "invoke " << K;
#endif
  }
  auto RR = Ref.invoke(0, {WValue::i32(0)});
  auto RJ = Jit.invoke(0, {WValue::i32(0)});
  ASSERT_FALSE(bool(RR));
  ASSERT_FALSE(bool(RJ));
  EXPECT_EQ(RJ.error().message(), RR.error().message());
  EXPECT_EQ(RJ.error().message(), "trap: unreachable executed [func 2]");
  EXPECT_EQ(Ref.instrCount(), Jit.instrCount());
  ASSERT_EQ(Ref.functionProfiles().size(), 3u);
  ASSERT_EQ(Jit.functionProfiles().size(), 3u);
  EXPECT_EQ(Ref.functionProfiles()[2].Invocations, 13u);
  for (size_t F = 0; F < 3; ++F) {
    EXPECT_EQ(Jit.functionProfiles()[F].Invocations,
              Ref.functionProfiles()[F].Invocations) << "func " << F;
    EXPECT_EQ(Jit.functionProfiles()[F].LoopHeads,
              Ref.functionProfiles()[F].LoopHeads) << "func " << F;
  }
}

//===----------------------------------------------------------------------===//
// Lazily committed memory: the flat engine zero-fills linear memory on
// first touch, while the tree engine and native code commit all of it up
// front. Every access must see the bytes a plainly zeroed memory holds.
//===----------------------------------------------------------------------===//

namespace {

/// Bytes one Memarg row reads or writes.
uint64_t accessBytes(Op K) {
  switch (K) {
  case Op::I32Load8S: case Op::I32Load8U: case Op::I64Load8S:
  case Op::I64Load8U: case Op::I32Store8: case Op::I64Store8:
    return 1;
  case Op::I32Load16S: case Op::I32Load16U: case Op::I64Load16S:
  case Op::I64Load16U: case Op::I32Store16: case Op::I64Store16:
    return 2;
  case Op::I64Load: case Op::F64Load: case Op::I64Store: case Op::F64Store:
    return 8;
  default:
    return 4;
  }
}

WInst constOf(ValType T) {
  WInst W(T == ValType::I32   ? Op::I32Const
          : T == ValType::I64 ? Op::I64Const
          : T == ValType::F32 ? Op::F32Const
                              : Op::F64Const);
  W.U64 = T == ValType::I32   ? 0x89abcdefull
          : T == ValType::I64 ? 0x0123456789abcdefull
          : T == ValType::F32 ? 0x3f8ccccdull // 1.1f
                              : 0x400921fb54442d18ull; // pi
  return W;
}

/// The opcode words of flat function \p F, in order (F has no br_table,
/// the one variable-width opcode).
std::vector<uint32_t> flatOps(const exec::FlatFunc &F) {
  std::vector<uint32_t> Ops;
  for (size_t Pc = 0; Pc < F.Code.size();
       Pc += 1 + exec::flatOpInfo(F.Code[Pc]).Words)
    Ops.push_back(F.Code[Pc]);
  return Ops;
}

/// One memory access under test: an export taking the address, and the
/// flat opcode its body must execute.
struct Access {
  std::string Name;
  uint32_t FlatOp;
  uint64_t Bytes;
};

/// A one-page memory (max three) exporting "size", "grow", "pat" (eight
/// single-byte stores of 0xa0..0xa7 at the address) and one function per
/// access: each Memarg row unfused (the address comes from an add, so no
/// peephole applies) and the three fused memory ops.
WModule boundaryModule(std::vector<Access> &Accesses) {
  WModule M;
  M.Memory = {{1, {3}}};
  auto Add = [&](const std::string &Name, FuncType FT,
                 std::vector<ValType> Locals, std::vector<WInst> Body) {
    uint32_t TI = M.addType(std::move(FT));
    M.Exports.push_back(
        {Name, ExportKind::Func, static_cast<uint32_t>(M.Funcs.size())});
    M.Funcs.push_back({TI, std::move(Locals), std::move(Body)});
  };
  Add("size", {{}, {ValType::I32}}, {}, {WInst::mk(Op::MemorySize)});
  Add("grow", {{ValType::I32}, {ValType::I32}}, {},
      {WInst::idx(Op::LocalGet, 0), WInst::mk(Op::MemoryGrow)});
  std::vector<WInst> Pat;
  for (uint32_t I = 0; I < 8; ++I)
    Pat.insert(Pat.end(), {WInst::idx(Op::LocalGet, 0),
                           WInst::i32c(static_cast<int32_t>(0xa0 + I)),
                           WInst::mem(Op::I32Store8, 0, I)});
  Add("pat", {{ValType::I32}, {}}, {}, std::move(Pat));

  const std::vector<WInst> Addr = {WInst::idx(Op::LocalGet, 0),
                                   WInst::i32c(0), WInst::mk(Op::I32Add)};
  for (uint32_t Code = 0; Code < OpTable.size(); ++Code) {
    const OpInfo &Row = OpTable[Code];
    if (Row.Imm != ImmKind::Memarg)
      continue;
    Op K = static_cast<Op>(Code);
    std::vector<WInst> Body = Addr;
    FuncType FT{{ValType::I32}, {}};
    if (Row.Pops == 2)
      Body.push_back(constOf(Row.In[1]));
    else
      FT.Results.push_back(Row.Out);
    Body.push_back(WInst::mem(K, 0, 0));
    std::string Name = "op" + std::to_string(Code);
    Add(Name, FT, {}, std::move(Body));
    Accesses.push_back({Name, Code, accessBytes(K)});
  }
  Add("getload", {{ValType::I32}, {ValType::I32}}, {},
      {WInst::idx(Op::LocalGet, 0), WInst::mem(Op::I32Load, 2, 0)});
  Accesses.push_back({"getload", exec::FGetLoadI32, 4});
  Add("getgetstore", {{ValType::I32}, {}}, {ValType::I32},
      {WInst::i32c(0x5a5b5c5d), WInst::idx(Op::LocalSet, 1),
       WInst::idx(Op::LocalGet, 0), WInst::idx(Op::LocalGet, 1),
       WInst::mem(Op::I32Store, 2, 0)});
  Accesses.push_back({"getgetstore", exec::FGetGetStoreI32, 4});
  Add("getconststore", {{ValType::I32}, {}}, {},
      {WInst::idx(Op::LocalGet, 0), WInst::i32c(0x6a6b6c6d),
       WInst::mem(Op::I32Store, 2, 0)});
  Accesses.push_back({"getconststore", exec::FGetConstStoreI32, 4});
  return M;
}

} // namespace

TEST(ExecLazyMemory, BoundaryOracleOverEveryAccess) {
  // For each access and each first-touch address — 0, the first chunk
  // edge -1/0/+1, the last in-bounds address and one past it — fresh
  // tree, flat and eager-JIT instances each run: memory.size before any
  // touch; the access; eight byte stores from the address; the access
  // again; memory.grow by two pages and memory.size; the access at the
  // first grown byte and at the new last in-bounds address and one past
  // it (grown pages never touched before). Every call must agree on
  // results and trap bytes, flat and JIT on instructions executed (the
  // tree engine counts structured instructions), and the final memories
  // must be byte-identical. The flat instance must commit lazily: nothing
  // before the first access, and no more than the access needs after it.
  std::vector<Access> Accesses;
  WModule M = boundaryModule(Accesses);
  ASSERT_TRUE(validate(M).ok()) << validate(M).error().message();
  ASSERT_EQ(Accesses.size(), 23u + 3u);

  {
    exec::FlatInstance Probe(M);
    ASSERT_TRUE(Probe.initialize().ok());
    for (const Access &A : Accesses) {
      std::optional<uint32_t> Idx = Probe.findExport(A.Name, ExportKind::Func);
      ASSERT_TRUE(Idx.has_value());
      std::vector<uint32_t> Ops = flatOps(Probe.flat().Funcs[*Idx]);
      EXPECT_NE(std::find(Ops.begin(), Ops.end(), A.FlatOp), Ops.end())
          << A.Name << " does not execute the access under test";
    }
  }

  const uint64_t Page = PageSize, Grown = 3 * PageSize;
  unsigned Traps = 0, Calls = 0;
  for (const Access &A : Accesses) {
    const uint64_t N = A.Bytes;
    for (uint64_t First : {uint64_t(0), MemChunk - 1, MemChunk, MemChunk + 1,
                           Page - N, Page - N + 1, uint64_t(0xfffffffc)}) {
      SCOPED_TRACE(A.Name + " first touch at " + std::to_string(First));
      std::unique_ptr<Instance> In[3];
      for (int E = 0; E < 3; ++E) {
        In[E] = createInstance(M, AllEngines[E]);
        if (E == 1)
          static_cast<exec::FlatInstance &>(*In[E]).setTierPolicy(
              exec::FlatInstance::NeverTier);
        ASSERT_TRUE(In[E]->initialize().ok());
      }
      EXPECT_EQ(In[0]->committedBytes(), Page);
      EXPECT_EQ(In[1]->committedBytes(), 0u);
#if RW_JIT_ENABLED
      EXPECT_EQ(In[2]->committedBytes(), Page);
#endif

      auto Call = [&](const std::string &Name, uint64_t Arg) -> uint64_t {
        Expected<std::vector<WValue>> R[3] = {Error(""), Error(""),
                                              Error("")};
        uint64_t Count[3];
        for (int E = 0; E < 3; ++E) {
          uint64_t Before = In[E]->instrCount();
          R[E] = In[E]->invokeByName(
              Name, {WValue::i32(static_cast<uint32_t>(Arg))});
          Count[E] = In[E]->instrCount() - Before;
        }
        ++Calls;
        Traps += !R[0];
        for (int E = 1; E < 3; ++E) {
          const char *Who = engineKindName(AllEngines[E]);
          EXPECT_EQ(bool(R[0]), bool(R[E]))
              << Name << "(" << Arg << ") " << Who;
          if (R[0] && R[E]) {
            EXPECT_EQ(R[0]->size(), R[E]->size()) << Name << " " << Who;
            for (size_t J = 0; J < std::min(R[0]->size(), R[E]->size()); ++J)
              EXPECT_EQ((*R[0])[J].Bits, (*R[E])[J].Bits)
                  << Name << "(" << Arg << ") " << Who;
          } else if (!R[0] && !R[E]) {
            EXPECT_EQ(R[0].error().message(), R[E].error().message())
                << Name << "(" << Arg << ") " << Who;
          }
        }
        EXPECT_EQ(Count[1], Count[2]) << Name << "(" << Arg << ")";
        return R[0] && !R[0]->empty() ? (*R[0])[0].Bits : ~0ull;
      };

      EXPECT_EQ(Call("size", 0), 1u);
      EXPECT_EQ(In[1]->committedBytes(), 0u) << "memory.size touched memory";
      Call(A.Name, First);
      uint64_t End = First + N;
      uint64_t Want = End > Page ? 0
                                 : std::min(Page, (End + MemChunk - 1) /
                                                      MemChunk * MemChunk);
      EXPECT_EQ(In[1]->committedBytes(), Want);
      Call("pat", First);
      Call(A.Name, First);
      EXPECT_EQ(Call("grow", 2), 1u);
      EXPECT_EQ(Call("size", 0), 3u);
      for (uint64_t Later : {Page, Grown - N, Grown - N + 1})
        Call(A.Name, Later);
      EXPECT_LE(In[1]->committedBytes(), Grown);
      EXPECT_EQ(In[0]->memory(), In[1]->memory());
      EXPECT_EQ(In[0]->memory(), In[2]->memory());
      EXPECT_EQ(In[1]->committedBytes(), Grown);
    }
  }
  EXPECT_GT(Traps, 0u);
  EXPECT_GT(Calls, 1000u);
}

TEST(ExecLazyMemory, CommittedBytesCounterMatchesTheAccessPattern) {
  // A data segment commits the chunk it writes; stores at 100, 5000 and
  // 20000 then commit [0, 4096), double it to 8192, and round 20004 up to
  // 20480. exec.mem.committed_bytes counts exactly the bytes committed,
  // and memory() commits the rest of the two pages.
  const uint64_t One = obs::compiledIn() ? 1 : 0;
  obs::Counter Committed("exec.mem.committed_bytes");
  WModule M = oneFunc({{}, {}}, {},
                      {WInst::i32c(100), WInst::i32c(1),
                       WInst::mem(Op::I32Store, 2, 0), WInst::i32c(5000),
                       WInst::i32c(2), WInst::mem(Op::I32Store, 2, 0),
                       WInst::i32c(20000), WInst::i32c(3),
                       WInst::mem(Op::I32Store, 2, 0)});
  M.Memory = {{2, std::nullopt}};
  M.Data.push_back({16, {1, 2, 3, 4, 5, 6, 7, 8}});
  ASSERT_TRUE(validate(M).ok());

  exec::FlatInstance I(M);
  I.setTierPolicy(exec::FlatInstance::NeverTier);
  uint64_t C0 = Committed.value();
  ASSERT_TRUE(I.initialize().ok());
  EXPECT_EQ(I.committedBytes(), MemChunk);
  EXPECT_EQ(Committed.value() - C0, One * MemChunk);
  ASSERT_TRUE(I.invokeByName("f", {}));
  EXPECT_EQ(I.committedBytes(), 20480u);
  EXPECT_EQ(Committed.value() - C0, One * 20480);
  ASSERT_TRUE(I.invokeByName("f", {}));
  EXPECT_EQ(Committed.value() - C0, One * 20480) << "a committed touch counts";
  EXPECT_EQ(I.load32(20000), 3u);
  EXPECT_EQ(I.load32(16), 0x04030201u);
  EXPECT_EQ(I.committedBytes(), 20480u);
  EXPECT_EQ(I.memory().size(), 2 * PageSize);
  EXPECT_EQ(Committed.value() - C0, One * 2 * PageSize);
  if (obs::compiledIn()) {
    std::string Prom = obs::renderPrometheus(obs::snapshot());
    EXPECT_NE(Prom.find("exec_mem_committed_bytes"), std::string::npos);
  }
}
