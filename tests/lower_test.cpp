//===- tests/lower_test.cpp - RichWasm→Wasm lowering (§6) -----------------===//
//
// Differential testing: every program is executed both by the RichWasm
// small-step machine and, lowered, on every Wasm tier and through the
// binary codec (tests/Oracle.h); results must agree. This pins the
// semantics-preservation claim of the compiler. Also checks the
// erasure property (capability instructions emit no code), the allocator,
// and the host-assisted GC.
//
//===----------------------------------------------------------------------===//

#include "cache/AdmissionCache.h"
#include "ir/Builder.h"
#include "link/Link.h"
#include "lower/Lower.h"
#include "wasm/Interp.h"
#include "support/ThreadPool.h"
#include "tests/Oracle.h"
#include "wasm/Validate.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

using namespace rw;
using namespace rw::ir;
using namespace rw::ir::build;

namespace {

ir::Module mainModule(InstVec Body, std::vector<Type> Results,
                      std::vector<SizeRef> Locals = {}) {
  ir::Module M;
  M.Name = "t";
  M.Funcs.push_back(function({"main"},
                             FunType::get({}, arrow({}, std::move(Results))),
                             std::move(Locals), std::move(Body)));
  return M;
}

/// Runs "t.main" of \p M on the machine and every lowered tier.
void expectMain(const ir::Module &M, uint64_t Want) {
  rwtest::expectResult({&M}, "t.main", Want);
}

} // namespace

//===----------------------------------------------------------------------===//
// Numerics and control flow
//===----------------------------------------------------------------------===//

TEST(Lower, Arithmetic) {
  expectMain(mainModule({iconst(30), iconst(12), addI32()}, {i32T()}), 42);
}

TEST(Lower, I64Arithmetic) {
  expectMain(mainModule({i64const(1) , i64const(41),
                          binop(NumType::I64, BinopKind::Add)},
                         {i64T()}),
              42);
}

TEST(Lower, ControlFlow) {
  expectMain(
      mainModule({iconst(1),
                  ifElse(arrow({}, {i32T()}), {}, {iconst(7)}, {iconst(9)})},
                 {i32T()}),
      7);
}

TEST(Lower, LoopSum) {
  // sum 1..10 via locals.
  InstVec Body = {
      iconst(0), setLocal(0), iconst(0), setLocal(1),
      block(arrow({}, {}), {},
            {loop(arrow({}, {}),
                  {getLocal(1, Qual::unr()), iconst(1), addI32(),
                   setLocal(1), getLocal(0, Qual::unr()),
                   getLocal(1, Qual::unr()), addI32(), setLocal(0),
                   getLocal(1, Qual::unr()), iconst(10),
                   relop(NumType::I32, RelopKind::Lt), brIf(0)})}),
      getLocal(0, Qual::unr()),
  };
  expectMain(mainModule(Body, {i32T()},
                         {Size::constant(32), Size::constant(32)}),
              55);
}

TEST(Lower, LocalStrongUpdateI64) {
  // A 64-bit slot first holds an i32, then an i64 (strong local update).
  InstVec Body = {
      iconst(5),     setLocal(0),
      i64const(40),  setLocal(0),
      getLocal(0, Qual::unr()),
      i64const(2),   binop(NumType::I64, BinopKind::Add),
  };
  expectMain(mainModule(Body, {i64T()}, {Size::constant(64)}), 42);
}

//===----------------------------------------------------------------------===//
// Heap structures
//===----------------------------------------------------------------------===//

TEST(Lower, StructRoundTrip) {
  InstVec Body = {
      iconst(7),
      structMalloc({Size::constant(32)}, Qual::lin()),
      memUnpack(arrow({}, {i32T()}), {{0, i32T()}},
                {iconst(35), structSwap(0), setLocal(0), structFree(),
                 getLocal(0, Qual::unr())}),
  };
  expectMain(mainModule(Body, {i32T()}, {Size::constant(32)}), 7);
}

TEST(Lower, StructTwoFieldsMixedWidth) {
  InstVec Body = {
      iconst(2), i64const(40),
      structMalloc({Size::constant(32), Size::constant(64)}, Qual::lin()),
      memUnpack(arrow({}, {i64T()}), {{0, i32T()}, {1, i64T()}},
                {structGet(0), setLocal(0), // i32 field
                 structGet(1), setLocal(1), // i64 field
                 structFree(),
                 getLocal(0, Qual::unr()), cvt(NumType::I32, NumType::I64),
                 getLocal(1, Qual::unr()),
                 binop(NumType::I64, BinopKind::Add)}),
  };
  expectMain(mainModule(Body, {i64T()},
                         {Size::constant(32), Size::constant(64)}),
              42);
}

TEST(Lower, UnrStructSharedMutation) {
  InstVec Body = {
      iconst(40),
      structMalloc({Size::constant(32)}, Qual::unr()),
      memUnpack(arrow({}, {i32T()}), {{0, i32T()}, {1, i32T()}},
                {// Mutate through one copy, read through another.
                 teeLocal(0), iconst(42), structSet(0), drop(),
                 getLocal(0, Qual::unr()), structGet(0), setLocal(1), drop(),
                 getLocal(1, Qual::unr()), iconst(0), setLocal(0)}),
  };
  ir::Module M = mainModule(Body, {i32T()},
                            {Size::constant(64), Size::constant(32)});
  expectMain(M, 42);
}

TEST(Lower, VariantDispatch) {
  std::vector<Type> Cases = {unitT(), i32T()};
  InstVec Body = {
      iconst(33),
      variantMalloc(1, Cases, Qual::lin()),
      memUnpack(arrow({}, {i32T()}), {},
                {variantCase(Qual::lin(), variantHT(Cases),
                             arrow({}, {i32T()}), {},
                             {{drop(), iconst(-1)}, {}})}),
  };
  expectMain(mainModule(Body, {i32T()}), 33);
}

TEST(Lower, VariantUnitCase) {
  std::vector<Type> Cases = {unitT(), i32T()};
  InstVec Body = {
      // A fresh local holds unit; reading it builds the unit payload. (A
      // unit payload occupies zero words.)
      getLocal(0, Qual::unr()),
      variantMalloc(0, Cases, Qual::lin()),
      memUnpack(arrow({}, {i32T()}), {},
                {variantCase(Qual::lin(), variantHT(Cases),
                             arrow({}, {i32T()}), {},
                             {{drop(), iconst(55)}, {}})}),
  };
  expectMain(mainModule(Body, {i32T()}, {Size::constant(0)}), 55);
}

TEST(Lower, ArrayOps) {
  InstVec Body = {
      iconst(7), uconst(5), arrayMalloc(Qual::lin()),
      memUnpack(arrow({}, {i32T()}), {{0, i32T()}, {1, i32T()}},
                {uconst(2), iconst(9), arraySet(), uconst(2), arrayGet(),
                 setLocal(0), uconst(4), arrayGet(), setLocal(1),
                 arrayFree(), getLocal(0, Qual::unr()),
                 getLocal(1, Qual::unr()), addI32()}),
  };
  expectMain(mainModule(Body, {i32T()},
                         {Size::constant(32), Size::constant(32)}),
              16);
}

TEST(Lower, ExistentialPackUnpack) {
  // The opened value is abstract (α#); it can only be dropped or passed
  // along abstractly — computing with it is rejected by the checker. The
  // Fig 9 pattern (applying a packed coderef to the abstract value) is
  // covered by ExistentialWithCoderef below.
  HeapTypeRef Ex =
      exHT(Qual::unr(), Size::constant(32), Type(varPT(0), Qual::unr()));
  InstVec Body = {
      iconst(21),
      existPack(numPT(NumType::I32), Ex, Qual::lin()),
      memUnpack(arrow({}, {i32T()}), {},
                {existUnpack(Qual::lin(), Ex, arrow({}, {i32T()}), {},
                             {drop(), iconst(42)})}),
  };
  expectMain(mainModule(Body, {i32T()}), 42);
}

TEST(Lower, ExistentialWithCoderef) {
  // Fig 9 in miniature: a package hides a value α together with a coderef
  // ∀ε. α → i32; the client applies the coderef to the abstract value.
  // Lowering must use the runtime shape dispatch at the call_indirect.
  Type AlphaV(varPT(0), Qual::unr());
  FunTypeRef OpTy =
      FunType::get({}, build::arrow({AlphaV}, {i32T()}));
  HeapTypeRef Ex = exHT(
      Qual::unr(), Size::constant(32),
      Type(prodPT({AlphaV, Type(coderefPT(OpTy), Qual::unr())}),
           Qual::unr()));

  ir::Module M;
  M.Name = "t";
  // f0: i32 -> i32, doubles.
  M.Funcs.push_back(function(
      {}, FunType::get({}, arrow({i32T()}, {i32T()})), {},
      {getLocal(0, Qual::unr()), iconst(2), mulI32()}));
  M.Tab.Entries = {0};
  // main: pack (21, coderef f0) as ∃α.(α, coderef α→i32) with witness i32.
  M.Funcs.push_back(function(
      {"main"}, FunType::get({}, arrow({}, {i32T()})), {},
      {iconst(21), coderef(0), group(2, Qual::unr()),
       existPack(numPT(NumType::I32), Ex, Qual::lin()),
       memUnpack(
           arrow({}, {i32T()}), {},
           {existUnpack(Qual::lin(), Ex, arrow({}, {i32T()}), {},
                        {// Stack: the opened (α, coderef α→i32) pair.
                         ungroup(), callIndirect()})})}));
  expectMain(M, 42);
}

//===----------------------------------------------------------------------===//
// Calls, polymorphism, coderefs
//===----------------------------------------------------------------------===//

TEST(Lower, DirectCall) {
  ir::Module M;
  M.Name = "t";
  M.Funcs.push_back(function(
      {}, FunType::get({}, arrow({i32T(), i32T()}, {i32T()})), {},
      {getLocal(0, Qual::unr()), getLocal(1, Qual::unr()), addI32()}));
  M.Funcs.push_back(function({"main"},
                             FunType::get({}, arrow({}, {i32T()})), {},
                             {iconst(30), iconst(12), call(0)}));
  expectMain(M, 42);
}

TEST(Lower, PolymorphicIdentityCoercion) {
  // id : ∀(unr ⪯ α ≲ 64). [α^unr] -> [α^unr]; calls at i32 and i64 need
  // the paper's stack coercions.
  ir::Module M;
  M.Name = "t";
  FunTypeRef IdTy = FunType::get(
      {Quant::type(Qual::unr(), Size::constant(64), true)},
      arrow({Type(varPT(0), Qual::unr())}, {Type(varPT(0), Qual::unr())}));
  M.Funcs.push_back(function({}, IdTy, {}, {getLocal(0, Qual::unr())}));
  M.Funcs.push_back(function(
      {"main"}, FunType::get({}, arrow({}, {i64T()})), {},
      {iconst(2), call(0, {Index::pretype(numPT(NumType::I32))}),
       cvt(NumType::I32, NumType::I64),
       i64const(40), call(0, {Index::pretype(numPT(NumType::I64))}),
       binop(NumType::I64, BinopKind::Add)}));
  expectMain(M, 42);
}

TEST(Lower, IndirectCallThroughTable) {
  ir::Module M;
  M.Name = "t";
  M.Funcs.push_back(function(
      {}, FunType::get({}, arrow({i32T()}, {i32T()})), {},
      {getLocal(0, Qual::unr()), iconst(2), mulI32()}));
  M.Tab.Entries = {0};
  M.Funcs.push_back(function(
      {"main"}, FunType::get({}, arrow({}, {i32T()})), {},
      {iconst(21), coderef(0), callIndirect()}));
  expectMain(M, 42);
}

TEST(Lower, CrossModuleCall) {
  ir::Module Lib;
  Lib.Name = "lib";
  Lib.Funcs.push_back(function(
      {"inc"}, FunType::get({}, arrow({i32T()}, {i32T()})), {},
      {getLocal(0, Qual::unr()), iconst(1), addI32()}));
  ir::Module App;
  App.Name = "app";
  App.Funcs.push_back(importFunc(
      {"lib", "inc"}, FunType::get({}, arrow({i32T()}, {i32T()}))));
  App.Funcs.push_back(function({"main"},
                               FunType::get({}, arrow({}, {i32T()})), {},
                               {iconst(41), call(0)}));
  rwtest::expectResult({&Lib, &App}, "app.main", 42);
}

//===----------------------------------------------------------------------===//
// Globals and start
//===----------------------------------------------------------------------===//

TEST(Lower, GlobalInitAndStart) {
  ir::Module M;
  M.Name = "t";
  ir::Global G;
  G.Mut = true;
  G.P = numPT(NumType::I32);
  G.Init = {iconst(20)};
  M.Globals.push_back(G);
  M.Funcs.push_back(function({}, FunType::get({}, arrow({}, {})), {},
                             {getGlobal(0), iconst(22), addI32(),
                              setGlobal(0)}));
  M.Funcs.push_back(function({"main"},
                             FunType::get({}, arrow({}, {i32T()})), {},
                             {getGlobal(0)}));
  M.Start = 0;
  expectMain(M, 42);
}

//===----------------------------------------------------------------------===//
// Erasure: capability bookkeeping compiles to zero instructions
//===----------------------------------------------------------------------===//

namespace {

/// Counts instructions in a lowered function body.
size_t countInsts(const std::vector<wasm::WInst> &Body) {
  size_t N = 0;
  for (const wasm::WInst &I : Body) {
    ++N;
    N += countInsts(I.Body);
    N += countInsts(I.Else);
  }
  return N;
}

} // namespace

TEST(Lower, CapabilityOpsAreErased) {
  // Two variants of the same function: one shuffles capability/ownership
  // tokens heavily, the other does not. The lowered code must be
  // *identical in size* — the zero-cost claim (§6, contrast with MSWasm).
  auto MkBody = [](bool WithCaps) {
    InstVec Inner;
    if (WithCaps) {
      for (int J = 0; J < 16; ++J) {
        Inner.push_back(refSplit()); // ref → cap, ptr
        Inner.push_back(refJoin());  // cap, ptr → ref
        Inner.push_back(qualify(Qual::lin()));
      }
    }
    Inner.push_back(structGet(0));
    Inner.push_back(setLocal(0));
    Inner.push_back(structFree());
    Inner.push_back(getLocal(0, Qual::unr()));
    InstVec Body = {
        iconst(42),
        structMalloc({Size::constant(32)}, Qual::lin()),
        memUnpack(arrow({}, {i32T()}), {{0, i32T()}}, std::move(Inner)),
    };
    return Body;
  };
  ir::Module Plain = mainModule(MkBody(false), {i32T()}, {Size::constant(32)});
  ir::Module Caps = mainModule(MkBody(true), {i32T()}, {Size::constant(32)});
  auto Art1 = link::buildArtifact({&Plain}, {});
  auto Art2 = link::buildArtifact({&Caps}, {});
  ASSERT_TRUE(bool(Art1)) << Art1.error().message();
  ASSERT_TRUE(bool(Art2)) << Art2.error().message();
  const lower::LoweredProgram *LP1 = &(*Art1)->Program;
  const lower::LoweredProgram *LP2 = &(*Art2)->Program;
  // Find the lowered main bodies (same index in both).
  auto MainIdx = [](const lower::LoweredProgram &LP) {
    for (const wasm::WExport &E : LP.Module.Exports)
      if (E.Name == "t.main")
        return E.Idx - static_cast<uint32_t>(LP.Module.ImportFuncs.size());
    ADD_FAILURE() << "no t.main export";
    return 0u;
  };
  uint32_t I1 = MainIdx(*LP1), I2 = MainIdx(*LP2);
  EXPECT_EQ(countInsts(LP1->Module.Funcs[I1].Body),
            countInsts(LP2->Module.Funcs[I2].Body));
  expectMain(Caps, 42);
}

//===----------------------------------------------------------------------===//
// Allocator behaviour and host GC
//===----------------------------------------------------------------------===//

TEST(Lower, FreeListReusesMemory) {
  // Allocate and free in a loop: the bump pointer must stabilize (the
  // free list recycles the block).
  InstVec Body = {
      iconst(0), setLocal(1),
      block(arrow({}, {}), {},
            {loop(arrow({}, {}),
                  {iconst(7),
                   structMalloc({Size::constant(32)}, Qual::lin()),
                   memUnpack(arrow({}, {}), {}, {structFree()}),
                   getLocal(1, Qual::unr()), iconst(1), addI32(),
                   setLocal(1), getLocal(1, Qual::unr()), iconst(100),
                   relop(NumType::I32, RelopKind::Lt), brIf(0)})}),
      iconst(0),
  };
  ir::Module M = mainModule(Body, {i32T()},
                            {Size::constant(64), Size::constant(32)});
  rwtest::Oracle O({&M});
  ASSERT_TRUE(O.ready());
  ASSERT_TRUE(O.run("t.main").Ok);
  // Every route holds the same globals; read the reference's.
  wasm::Instance &Inst = O.lowered().instance(rwtest::Tree);
  const lower::RuntimeLayout &L = O.program().Runtime;
  // 100 allocations, 100 frees; everything reused.
  EXPECT_EQ(Inst.global(L.GAllocs).asU32(), 100u);
  EXPECT_EQ(Inst.global(L.GFrees).asU32(), 100u);
  EXPECT_EQ(Inst.global(L.GLive).asU32(), 0u);
  // Bump pointer advanced by roughly one block, not a hundred.
  EXPECT_LT(Inst.global(L.GBump).asU32(),
            lower::RuntimeLayout::HeapBase + 64);
}

TEST(Lower, HostGcCollectsGarbage) {
  // Allocate unrestricted cells in a loop without keeping references.
  InstVec Body = {
      iconst(0), setLocal(1),
      block(arrow({}, {}), {},
            {loop(arrow({}, {}),
                  {iconst(7),
                   structMalloc({Size::constant(32)}, Qual::unr()),
                   memUnpack(arrow({}, {}), {}, {drop()}),
                   getLocal(1, Qual::unr()), iconst(1), addI32(),
                   setLocal(1), getLocal(1, Qual::unr()), iconst(50),
                   relop(NumType::I32, RelopKind::Lt), brIf(0)})}),
      iconst(0),
  };
  ir::Module M = mainModule(Body, {i32T()},
                            {Size::constant(64), Size::constant(32)});
  rwtest::Oracle O({&M});
  ASSERT_TRUE(O.ready());
  ASSERT_TRUE(O.run("t.main").Ok);
  EXPECT_EQ(O.lowered()
                .instance(rwtest::Tree)
                .global(O.program().Runtime.GLive)
                .asU32(),
            50u);
  rwtest::Oracle::Gc G = O.collect();
  EXPECT_EQ(G.Stats.Swept, 50u);
  EXPECT_EQ(G.Live, 0u);
}

TEST(Lower, HostGcTracesThroughHeap) {
  // A chain root-global → unr cell → unr cell stays alive; an unlinked
  // cell dies.
  ir::Module M;
  M.Name = "t";
  HeapTypeRef InnerHT = structHT({{i32T(), Size::constant(32)}});
  Type InnerRef(exLocPT(Type(refPT(Privilege::RW, Loc::var(0), InnerHT),
                             Qual::unr())),
                Qual::unr());
  ir::Global G;
  G.Mut = true;
  G.P = exLocPT(Type(
      refPT(Privilege::RW, Loc::var(0),
            structHT({{InnerRef, Size::constant(64)}})),
      Qual::unr()));
  // Initializer: inner = {7}; outer = {inner}; plus one garbage cell.
  G.Init = {
      iconst(7),
      structMalloc({Size::constant(32)}, Qual::unr()), // inner
      structMalloc({Size::constant(64)}, Qual::unr()), // outer holds inner
      // garbage:
      iconst(9),
      structMalloc({Size::constant(32)}, Qual::unr()),
      memUnpack(arrow({}, {}), {}, {drop()}),
  };
  M.Globals.push_back(G);
  M.Funcs.push_back(function({"main"},
                             FunType::get({}, arrow({}, {i32T()})), {},
                             {iconst(0)}));
  rwtest::Oracle O({&M});
  ASSERT_TRUE(O.ready());
  EXPECT_EQ(O.lowered()
                .instance(rwtest::Tree)
                .global(O.program().Runtime.GLive)
                .asU32(),
            3u);
  ASSERT_EQ(O.program().RefGlobals.size(), 1u);
  rwtest::Oracle::Gc St = O.collect();
  EXPECT_EQ(St.Stats.Marked, 2u); // outer + inner survive
  EXPECT_EQ(St.Stats.Swept, 1u);  // the garbage cell dies
  EXPECT_EQ(St.Live, 2u);
}

TEST(Lower, HostGcSurvivesHostileHeapWords) {
  // The heap is the program's memory, so every header word the collector
  // reads may be hostile. Each case forges one and checks that collect()
  // terminates without touching memory out of bounds (the ASan/UBSan job
  // runs this too).
  ir::Module M = mainModule({iconst(0)}, {i32T()}, {});
  auto Art = link::buildArtifact({&M}, {});
  ASSERT_TRUE(bool(Art)) << Art.error().message();
  const lower::LoweredProgram *LP = &(*Art)->Program;
  const lower::RuntimeLayout &L = LP->Runtime;
  constexpr uint32_t Base = lower::RuntimeLayout::HeapBase;
  constexpr uint32_t Hdr = lower::RuntimeLayout::HeaderBytes;
  auto Put = [](wasm::Instance &I, uint32_t A, uint32_t V) {
    std::memcpy(I.memory().data() + A, &V, 4);
  };
  auto Fresh = [&] {
    auto I = std::make_unique<wasm::WasmInstance>(LP->Module);
    EXPECT_TRUE(I->initialize().ok());
    return I;
  };

  {
    // An array whose length word claims 2^31 - 1 elements: the scan stops
    // at the block's end instead of walking (and wrapping) the address
    // space.
    auto I = Fresh();
    Put(*I, Base, 32);
    Put(*I, Base + 4,
        lower::RtAllocated | lower::RtArray | (4u << lower::RtElemShift));
    Put(*I, Base + 8, 1);
    Put(*I, Base + Hdr, 0x7fffffffu);
    I->setGlobal(L.GBump, wasm::WValue::i32(Base + 32));
    lower::HostGc Gc(*I, L, LP->RefGlobals);
    lower::HostGc::Stats St = Gc.collect({Base + Hdr});
    EXPECT_EQ(St.Marked, 1u);
    EXPECT_EQ(St.Swept, 0u);
  }
  {
    // A size word whose end wraps past 2^32, under a bump frontier far
    // beyond the memory: the walk stops at the first block.
    auto I = Fresh();
    Put(*I, Base, 0xfffffff0u);
    Put(*I, Base + 4, lower::RtAllocated);
    I->setGlobal(L.GBump, wasm::WValue::i32(0xffffffffu));
    lower::HostGc Gc(*I, L, LP->RefGlobals);
    lower::HostGc::Stats St = Gc.collect({0xfffffffcu, 0xffffffffu, 5});
    EXPECT_EQ(St.Marked, 0u);
    EXPECT_EQ(St.Swept, 0u);
  }
  {
    // A block ending four bytes short of the memory's end, followed by a
    // header that would straddle it: the first block is swept, the
    // second is never read past the end.
    auto I = Fresh();
    uint32_t MemSize = static_cast<uint32_t>(I->memory().size());
    Put(*I, Base, MemSize - Base - 4);
    Put(*I, Base + 4, lower::RtAllocated);
    Put(*I, MemSize - 4, 0xfffffff8u);
    I->setGlobal(L.GBump, wasm::WValue::i32(MemSize));
    lower::HostGc Gc(*I, L, LP->RefGlobals);
    lower::HostGc::Stats St = Gc.collect();
    EXPECT_EQ(St.Swept, 1u);
    EXPECT_EQ(I->global(L.GFree).asU32(), Base);
  }
}

//===----------------------------------------------------------------------===//
// Unified import matching (link/Resolve.h semantics on the lowering path)
//===----------------------------------------------------------------------===//

TEST(Lower, SelfImportLowersToHostImportLikeInstantiate) {
  // Imports resolve against *earlier modules only* (Wasm instantiation
  // order) — the same rule link::instantiate applies. A module importing
  // its own export is therefore not bound in-set: it lowers to a
  // host-satisfiable Wasm import (and link::instantiate reports it
  // unresolved), instead of the pre-unification behavior of silently
  // binding to the module's own earlier function.
  ir::Module M;
  M.Name = "m";
  FunTypeRef Fn = FunType::get({}, arrow({i32T()}, {i32T()}));
  M.Funcs.push_back(function({"f"}, Fn, {}, {getLocal(0, Qual::unr())}));
  M.Funcs.push_back(importFunc({"m", "f"}, Fn));
  M.Funcs.push_back(function({"main"},
                             FunType::get({}, arrow({}, {i32T()})), {},
                             {iconst(21), call(1)}));

  auto Art = link::buildArtifact({&M}, {});
  ASSERT_TRUE(bool(Art)) << Art.error().message();
  const lower::LoweredProgram *LP = &(*Art)->Program;
  ASSERT_EQ(LP->Module.ImportFuncs.size(), 1u);
  EXPECT_EQ(LP->Module.ImportFuncs[0].Mod, "m");
  EXPECT_EQ(LP->Module.ImportFuncs[0].Name, "f");
  ASSERT_TRUE(wasm::validate(LP->Module).ok());

  // The host satisfies the open import; the program runs on every tier.
  auto Double = [](wasm::Instance &I) {
    I.registerHost("m", "f",
                   [](wasm::Instance &, const std::vector<wasm::WValue> &A)
                       -> Expected<std::vector<wasm::WValue>> {
                     return std::vector<wasm::WValue>{
                         wasm::WValue::i32(A[0].asU32() * 2)};
                   });
  };
  rwtest::TierRun R =
      rwtest::everyTier(LP->Module, "m.main", {}, Double)[rwtest::Tree];
  ASSERT_TRUE(R.Ok) << R.Err;
  EXPECT_EQ(R.Results[0].Bits, 42u);

  // instantiate agrees that the import has no in-set provider.
  auto Mach = link::instantiate({&M});
  ASSERT_FALSE(bool(Mach));
  EXPECT_NE(Mach.error().message().find("unresolved import"),
            std::string::npos)
      << Mach.error().message();
}

TEST(Lower, GlobalInitCallIndirectGetsTypePatched) {
  // Regression: the call_indirect type-index patch pass used to run
  // before global initializers were lowered, so an indirect call inside
  // one kept its placeholder type index 0 (some unrelated signature) and
  // failed validation or trapped. The patch now runs after all bodies
  // exist.
  ir::Module M;
  M.Name = "t";
  M.Funcs.push_back(function(
      {}, FunType::get({}, arrow({i32T()}, {i32T()})), {},
      {getLocal(0, Qual::unr()), iconst(2), mulI32()}));
  M.Tab.Entries = {0};
  ir::Global G;
  G.Mut = true;
  G.P = numPT(NumType::I32);
  G.Init = {iconst(21), coderef(0), callIndirect()};
  M.Globals.push_back(G);
  M.Funcs.push_back(function({"main"},
                             FunType::get({}, arrow({}, {i32T()})), {},
                             {getGlobal(0)}));
  expectMain(M, 42);
}

TEST(Lower, TwoArenaInputsRejectedWithDocumentedError) {
  // Regression for the lowerProgram preamble: modules interned in
  // different arenas must produce the documented shared-arena error —
  // never cross-arena interning (whose pointer-equality checks would
  // silently misbehave).
  ir::Module A;
  A.Name = "arena_a";
  A.Funcs.push_back(function({"f"},
                             FunType::get({}, arrow({i32T()}, {i32T()})),
                             {}, {getLocal(0, Qual::unr())}));

  auto OtherArena = std::make_shared<ir::TypeArena>();
  ir::Module B;
  {
    ir::ArenaScope Scope(*OtherArena);
    B.Name = "arena_b";
    B.Funcs.push_back(function({"g"},
                               FunType::get({}, arrow({i32T()}, {i32T()})),
                               {}, {getLocal(0, Qual::unr())}));
  }
  B.Arena = OtherArena;

  auto Art = link::buildArtifact({&A, &B}, {});
  ASSERT_FALSE(bool(Art));
  EXPECT_NE(Art.error().message().find("different type arenas"),
            std::string::npos)
      << Art.error().message();
  EXPECT_NE(Art.error().message().find("arena_a"), std::string::npos);
  EXPECT_NE(Art.error().message().find("arena_b"), std::string::npos);

  // Same rejection with a pool set, so the parallel path cannot reach
  // cross-arena state either.
  support::ThreadPool Pool(3);
  link::LinkOptions Opts;
  Opts.Pool = &Pool;
  auto Art2 = link::buildArtifact({&A, &B}, Opts);
  ASSERT_FALSE(bool(Art2));
  EXPECT_NE(Art2.error().message().find("different type arenas"),
            std::string::npos);
}

TEST(Lower, ImportTypeMismatchRejectedOnLoweringPath) {
  // A *named* provider with the wrong type is an error (previously the
  // lowering matched by name only).
  ir::Module Lib;
  Lib.Name = "lib";
  Lib.Funcs.push_back(function({"f"},
                               FunType::get({}, arrow({i32T()}, {i32T()})),
                               {}, {getLocal(0, Qual::unr())}));
  ir::Module Client;
  Client.Name = "client";
  Client.Funcs.push_back(
      importFunc({"lib", "f"}, FunType::get({}, arrow({i64T()}, {i64T()}))));
  auto Art = link::buildArtifact({&Lib, &Client}, {});
  ASSERT_FALSE(bool(Art));
  EXPECT_NE(Art.error().message().find("type mismatch"), std::string::npos)
      << Art.error().message();
}
