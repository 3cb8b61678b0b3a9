//===- tests/soundness_test.cpp - Type safety, property-based (§4.1) ------===//
//
// The executable stand-in for the paper's Coq proof of progress and
// preservation. A generator produces random RichWasm programs that are
// well-typed *by construction*; for each seed we check:
//
//   1. the generator's output indeed passes the RichWasm checker
//      (cross-validating generator and checker against each other);
//   2. PROGRESS: single-stepping never reports Stuck — every well-typed
//      non-value configuration reduces (traps only at the sanctioned
//      partial operations, which the generator avoids);
//   3. the LINEAR-UNIQUENESS invariant after every step: every linear
//      memory address is owned by at most one reference across the whole
//      configuration (stack, locals, frames, globals, heap) — the runtime
//      shadow of the type system's ⊎-splitting of the linear store typing;
//   4. TYPE PRESERVATION at the observation level: the final value matches
//      the program's static result type, and all linear cells were
//      consumed (the configuration-typing rule's "no linear values remain"
//      premise);
//   5. the differential check: the machine and the lowered module on
//      every tier and through the binary codec (tests/Oracle.h) compute
//      the same result, and a host collection leaves no live cell.
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "link/Link.h"
#include "sem/Machine.h"
#include "tests/Oracle.h"
#include "typing/Checker.h"

#include <gtest/gtest.h>

#include <random>

using namespace rw;
using namespace rw::ir;
using namespace rw::ir::build;
using namespace rw::sem;

namespace {

//===----------------------------------------------------------------------===//
// Random well-typed program generation
//===----------------------------------------------------------------------===//

/// Generates instruction sequences that leave exactly one i32 on the
/// stack, drawing from numerics, control flow, locals, and every heap
/// family — with all linear resources freed on every path.
class Gen {
public:
  Gen(uint64_t Seed) : Rng(Seed) {}

  ir::Module module() {
    ir::Module M;
    M.Name = "gen";
    // A few helper functions the main expression can call.
    uint32_t NHelpers = pick(0, 2);
    for (uint32_t I = 0; I < NHelpers; ++I) {
      FunCtx FC;
      FC.Base = 1; // One parameter.
      InstVec Body = {getLocal(0, Qual::unr())};
      genI32Tail(FC, 1, Body);
      std::vector<SizeRef> Locals = finishLocals(FC, Body);
      M.Funcs.push_back(function({},
                                 FunType::get({}, arrow({i32T()}, {i32T()})),
                                 std::move(Locals), std::move(Body)));
      Helpers.push_back(static_cast<uint32_t>(M.Funcs.size() - 1));
    }
    FunCtx FC;
    InstVec Body;
    genI32(FC, 3, Body);
    std::vector<SizeRef> Locals = finishLocals(FC, Body);
    M.Funcs.push_back(function({"main"},
                               FunType::get({}, arrow({}, {i32T()})),
                               std::move(Locals), std::move(Body)));
    return M;
  }

private:
  struct FunCtx {
    std::vector<SizeRef> Locals;
    uint32_t nextLocal(uint64_t Bits) {
      Locals.push_back(Size::constant(Bits));
      return Base + static_cast<uint32_t>(Locals.size() - 1);
    }
    std::vector<SizeRef> takeLocals() { return std::move(Locals); }
    uint32_t Base = 0;
  };

  uint32_t pick(uint32_t Lo, uint32_t Hi) {
    return Lo + static_cast<uint32_t>(Rng() % (Hi - Lo + 1));
  }

  /// Every generator local holds an i32 from the function preamble onward,
  /// so block bodies never change the local environment (empty local
  /// effects are correct everywhere).
  std::vector<SizeRef> finishLocals(FunCtx &FC, InstVec &Body) {
    InstVec Pre;
    for (size_t I = 0; I < FC.Locals.size(); ++I) {
      Pre.push_back(iconst(0));
      Pre.push_back(setLocal(FC.Base + static_cast<uint32_t>(I)));
    }
    Body.insert(Body.begin(), std::make_move_iterator(Pre.begin()),
                std::make_move_iterator(Pre.end()));
    return FC.takeLocals();
  }

  /// Emits instructions producing one i32 (with depth-bounded structure).
  void genI32(FunCtx &FC, unsigned Depth, InstVec &O) {
    unsigned Choice = Depth == 0 ? pick(0, 1) : pick(0, 9);
    switch (Choice) {
    case 0:
    case 1:
      O.push_back(iconst(static_cast<int32_t>(pick(0, 1000))));
      return;
    case 2: { // Binop.
      genI32(FC, Depth - 1, O);
      genI32(FC, Depth - 1, O);
      static const BinopKind Ops[] = {BinopKind::Add, BinopKind::Sub,
                                      BinopKind::Mul, BinopKind::And,
                                      BinopKind::Or, BinopKind::Xor};
      O.push_back(binop(NumType::I32, Ops[pick(0, 5)]));
      return;
    }
    case 3: { // Block.
      InstVec B;
      genI32(FC, Depth - 1, B);
      if (pick(0, 1))
        B.push_back(br(0));
      O.push_back(block(arrow({}, {i32T()}), {}, std::move(B)));
      return;
    }
    case 4: { // If.
      genI32(FC, Depth - 1, O);
      InstVec T, F;
      genI32(FC, Depth - 1, T);
      genI32(FC, Depth - 1, F);
      O.push_back(ifElse(arrow({}, {i32T()}), {}, std::move(T),
                         std::move(F)));
      return;
    }
    case 5: { // Local round-trip.
      uint32_t L = FC.nextLocal(32);
      genI32(FC, Depth - 1, O);
      O.push_back(setLocal(L));
      O.push_back(getLocal(L, Qual::unr()));
      return;
    }
    case 6: { // Linear struct: alloc, swap, read back, free.
      genI32(FC, Depth - 1, O);
      O.push_back(structMalloc({Size::constant(32)}, Qual::lin()));
      uint32_t L = FC.nextLocal(32);
      InstVec B = {iconst(static_cast<int32_t>(pick(0, 99))),
                   structSwap(0), setLocal(L), structFree(),
                   getLocal(L, Qual::unr())};
      O.push_back(memUnpack(arrow({}, {i32T()}), {{L, i32T()}},
                            std::move(B)));
      return;
    }
    case 7: { // Unrestricted struct: alloc, set, get (GC reclaims it).
      genI32(FC, Depth - 1, O);
      O.push_back(structMalloc({Size::constant(32)}, Qual::unr()));
      uint32_t L = FC.nextLocal(32);
      InstVec B = {iconst(static_cast<int32_t>(pick(0, 99))), structSet(0),
                   structGet(0), setLocal(L), drop(),
                   getLocal(L, Qual::unr())};
      O.push_back(memUnpack(arrow({}, {i32T()}), {{L, i32T()}},
                            std::move(B)));
      return;
    }
    case 8: { // Linear variant dispatch.
      uint32_t Tag = pick(0, 1);
      std::vector<Type> Cases = {i32T(), i32T()};
      genI32(FC, Depth - 1, O);
      O.push_back(variantMalloc(Tag, Cases, Qual::lin()));
      InstVec Arm0 = {iconst(1), addI32()};
      InstVec Arm1 = {iconst(2), addI32()};
      InstVec B = {variantCase(Qual::lin(), variantHT(Cases),
                               arrow({}, {i32T()}), {},
                               {std::move(Arm0), std::move(Arm1)})};
      O.push_back(memUnpack(arrow({}, {i32T()}), {}, std::move(B)));
      return;
    }
    case 9: { // Helper call (when available).
      if (Helpers.empty()) {
        O.push_back(iconst(7));
        return;
      }
      genI32(FC, Depth - 1, O);
      O.push_back(call(Helpers[pick(0, static_cast<uint32_t>(
                                           Helpers.size() - 1))]));
      return;
    }
    }
  }

  /// Body continuation for helpers: an i32 is on the stack; mangle it.
  void genI32Tail(FunCtx &FC, unsigned Depth, InstVec &O) {
    genI32(FC, Depth, O);
    O.push_back(addI32());
  }

  std::mt19937_64 Rng;
  std::vector<uint32_t> Helpers;
};

//===----------------------------------------------------------------------===//
// Linear-uniqueness invariant
//===----------------------------------------------------------------------===//

void countLinRefsInValue(const Value &V, std::map<uint64_t, int> &Count) {
  switch (V.kind()) {
  case ValueKind::Ref:
    if (V.loc().mem() == MemKind::Lin)
      Count[V.loc().addr()] += 1;
    break;
  case ValueKind::Mempack:
    countLinRefsInValue(V.inner(), Count);
    break;
  case ValueKind::Fold:
    countLinRefsInValue(V.inner(), Count);
    break;
  case ValueKind::Tuple:
    for (const Value &E : V.elems())
      countLinRefsInValue(E, Count);
    break;
  default:
    break;
  }
}

void countLinRefsInCode(const Code &Cd, std::map<uint64_t, int> &Count) {
  switch (Cd.K) {
  case CodeKind::Val:
    countLinRefsInValue(Cd.V, Count);
    break;
  case CodeKind::Label:
    for (const Code &B : Cd.Lbl->Body)
      countLinRefsInCode(B, Count);
    break;
  case CodeKind::Frame:
    for (const Value &L : Cd.Frm->Locals)
      countLinRefsInValue(L, Count);
    for (const Code &B : Cd.Frm->Body)
      countLinRefsInCode(B, Count);
    break;
  case CodeKind::Malloc:
    for (const Value &V : Cd.Mal->HV.Vals)
      countLinRefsInValue(V, Count);
    break;
  default:
    break;
  }
}

/// Every linear address is owned by at most one reference across the whole
/// machine state — the runtime image of the type system's disjoint
/// splitting of the linear store typing.
testing::AssertionResult linearOwnershipUnique(const Machine &M) {
  std::map<uint64_t, int> Count;
  for (const Code &Cd : M.config().Program)
    countLinRefsInCode(Cd, Count);
  for (const Value &V : M.config().Locals)
    countLinRefsInValue(V, Count);
  for (const Instance &I : M.store().Insts)
    for (const Value &G : I.Globals)
      countLinRefsInValue(G, Count);
  for (const auto &[Addr, Cell] : M.store().Mem.Lin)
    for (const Value &V : Cell.HV.Vals)
      countLinRefsInValue(V, Count);
  for (const auto &[Addr, Cell] : M.store().Mem.Unr)
    for (const Value &V : Cell.HV.Vals)
      countLinRefsInValue(V, Count);
  for (const auto &[Addr, N] : Count)
    if (N > 1)
      return testing::AssertionFailure()
             << "linear address " << Addr << " owned by " << N
             << " references";
  return testing::AssertionSuccess();
}

} // namespace

//===----------------------------------------------------------------------===//
// The parameterized soundness sweep
//===----------------------------------------------------------------------===//

class Soundness : public testing::TestWithParam<uint64_t> {};

TEST_P(Soundness, ProgressPreservationAndLinearUniqueness) {
  Gen G(GetParam());
  ir::Module M = G.module();

  // (1) Generator output is well-typed.
  Status Check = typing::checkModule(M);
  ASSERT_TRUE(Check.ok()) << Check.error().message();

  // (2)+(3) Step to completion; no Stuck states; invariant holds at every
  // intermediate configuration.
  auto Mach = link::instantiate({&M});
  ASSERT_TRUE(bool(Mach)) << Mach.error().message();
  uint32_t MainIdx = *link::findExport(M, "main");
  (*Mach)->setupInvoke(0, MainIdx, {}, {});
  uint64_t Steps = 0;
  for (;;) {
    StepStatus St = (*Mach)->step();
    if (St == StepStatus::Done)
      break;
    ASSERT_NE(St, StepStatus::Stuck)
        << "PROGRESS violated after " << Steps << " steps";
    ASSERT_NE(St, StepStatus::Trapped)
        << "generator produced a trapping program";
    ASSERT_TRUE(linearOwnershipUnique(**Mach)) << "after step " << Steps;
    ++Steps;
    ASSERT_LT(Steps, 2'000'000u) << "program did not terminate";
  }

  // (4) Observation-level preservation: one i32 result; no leaked linear
  // cells (the configuration rule's all-unrestricted premise).
  const CodeSeq &Prog = (*Mach)->config().Program;
  ASSERT_EQ(Prog.size(), 1u);
  ASSERT_EQ(Prog[0].K, CodeKind::Val);
  ASSERT_TRUE(Prog[0].V.isNum());
  EXPECT_EQ(Prog[0].V.numType(), NumType::I32);
  EXPECT_TRUE((*Mach)->store().Mem.Lin.empty())
      << "linear memory leaked by a checked program";
  uint64_t InterpResult = Prog[0].V.bits();

  // (5) Differential: the machine and every lowered route agree on the
  // result. Checked programs free all their linear cells; unrestricted
  // garbage may remain until collection.
  rwtest::Oracle O({&M});
  ASSERT_TRUE(O.ready());
  rwtest::Outcome R = O.run("gen.main");
  ASSERT_TRUE(R.Ok) << R.Err;
  EXPECT_EQ(R.bits(), InterpResult);
  EXPECT_EQ(O.collect().Live, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Soundness,
                         testing::Range<uint64_t>(1, 251));

//===----------------------------------------------------------------------===//
// Negative soundness: mutated programs are rejected
//===----------------------------------------------------------------------===//

class Mutation : public testing::TestWithParam<uint64_t> {};

TEST_P(Mutation, LinearViolationsAreRejected) {
  // Take a well-typed program and break its linearity by duplicating or
  // dropping a linear reference; the checker must reject every mutant.
  Gen G(GetParam());
  ir::Module M = G.module();
  ASSERT_TRUE(typing::checkModule(M).ok());

  // Mutant A: allocate a linear cell and drop it.
  ir::Module MA = M;
  MA.Funcs.back().Body.insert(
      MA.Funcs.back().Body.begin(),
      {iconst(1), structMalloc({Size::constant(32)}, Qual::lin()), drop()});
  EXPECT_FALSE(typing::checkModule(MA).ok());

  // Mutant B: free an unrestricted cell.
  ir::Module MB = M;
  MB.Funcs.back().Body.insert(
      MB.Funcs.back().Body.begin(),
      {iconst(1), structMalloc({Size::constant(32)}, Qual::unr()),
       memUnpack(arrow({}, {}), {}, {structFree()})});
  EXPECT_FALSE(typing::checkModule(MB).ok());

  // Mutant C: strong-update through an unrestricted reference.
  ir::Module MC = M;
  MC.Funcs.back().Body.insert(
      MC.Funcs.back().Body.begin(),
      {i64const(1), structMalloc({Size::constant(64)}, Qual::unr()),
       memUnpack(arrow({}, {}), {},
                 {iconst(0), structSet(0), drop()})});
  EXPECT_FALSE(typing::checkModule(MC).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, Mutation, testing::Range<uint64_t>(1, 26));
