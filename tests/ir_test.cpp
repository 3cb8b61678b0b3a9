//===- tests/ir_test.cpp - IR construction, sizes, substitution ----------===//
//
// Covers Fig 2 (abstract syntax): every production is constructed, printed,
// compared, and rewritten. Also exercises the size normal form and the
// de Bruijn shift/substitution machinery the dynamic semantics depends on.
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "ir/Print.h"
#include "ir/Rewrite.h"
#include "ir/TypeOps.h"

#include <gtest/gtest.h>

using namespace rw;
using namespace rw::ir;

//===----------------------------------------------------------------------===//
// Sizes
//===----------------------------------------------------------------------===//

TEST(Size, NormalFormConstants) {
  SizeRef S = Size::plus(Size::constant(32), Size::constant(64));
  NormalSize N = normalizeSize(S);
  EXPECT_EQ(N.Const, 96u);
  EXPECT_TRUE(N.isConst());
  EXPECT_EQ(closedSizeBits(S), 96u);
}

TEST(Size, NormalFormMixesVarsAndConstants) {
  SizeRef S = Size::plus(Size::var(1),
                         Size::plus(Size::constant(8), Size::var(0)));
  NormalSize N = normalizeSize(S);
  EXPECT_EQ(N.Const, 8u);
  ASSERT_EQ(N.Vars.size(), 2u);
  EXPECT_EQ(N.Vars[0], 0u);
  EXPECT_EQ(N.Vars[1], 1u);
  EXPECT_FALSE(N.isConst());
}

TEST(Size, EqualityModuloAssocComm) {
  SizeRef A = Size::plus(Size::var(0), Size::constant(32));
  SizeRef B = Size::plus(Size::constant(32), Size::var(0));
  EXPECT_TRUE(sizeEquals(A, B));
  SizeRef C = Size::plus(Size::constant(33), Size::var(0));
  EXPECT_FALSE(sizeEquals(A, C));
}

//===----------------------------------------------------------------------===//
// Qualifiers and locations
//===----------------------------------------------------------------------===//

TEST(Qual, ConstructorsAndEquality) {
  EXPECT_TRUE(Qual::unr().isUnrConst());
  EXPECT_TRUE(Qual::lin().isLinConst());
  EXPECT_TRUE(Qual::var(3).isVar());
  EXPECT_EQ(Qual::var(3), Qual::var(3));
  EXPECT_NE(Qual::var(3), Qual::var(4));
  EXPECT_NE(Qual::unr(), Qual::lin());
}

TEST(Loc, KindsAndEquality) {
  Loc V = Loc::var(2);
  Loc C = Loc::concrete(MemKind::Lin, 7);
  Loc S = Loc::skolem(9);
  EXPECT_TRUE(V.isVar());
  EXPECT_TRUE(C.isConcrete());
  EXPECT_TRUE(S.isSkolem());
  EXPECT_EQ(C, Loc::concrete(MemKind::Lin, 7));
  EXPECT_NE(C, Loc::concrete(MemKind::Unr, 7));
  EXPECT_NE(V, S);
}

//===----------------------------------------------------------------------===//
// The size metafunction ||τ||
//===----------------------------------------------------------------------===//

TEST(SizeOf, BaseTypes) {
  EXPECT_EQ(closedSizeBits(sizeOfType(unitT(), {})), 0u);
  EXPECT_EQ(closedSizeBits(sizeOfType(i32T(), {})), 32u);
  EXPECT_EQ(closedSizeBits(sizeOfType(i64T(), {})), 64u);
  EXPECT_EQ(closedSizeBits(sizeOfType(numT(NumType::F64), {})), 64u);
}

TEST(SizeOf, ErasedEntitiesAreZero) {
  Loc L = Loc::var(0);
  HeapTypeRef H = structHT({{i32T(), Size::constant(32)}});
  EXPECT_EQ(closedSizeBits(sizeOfPretype(capPT(Privilege::RW, L, H), {})), 0u);
  EXPECT_EQ(closedSizeBits(sizeOfPretype(ownPT(L), {})), 0u);
}

TEST(SizeOf, ReferencesAreOneWord) {
  Loc L = Loc::var(0);
  HeapTypeRef H = arrayHT(i32T());
  EXPECT_EQ(closedSizeBits(sizeOfPretype(refPT(Privilege::R, L, H), {})), 64u);
  EXPECT_EQ(closedSizeBits(sizeOfPretype(ptrPT(L), {})), 64u);
}

TEST(SizeOf, TuplesSum) {
  Type T(prodPT({i32T(), i64T(), unitT()}), Qual::unr());
  EXPECT_EQ(closedSizeBits(sizeOfType(T, {})), 96u);
}

TEST(SizeOf, TypeVarUsesBound) {
  Type T(varPT(0), Qual::unr());
  TypeVarSizes Bounds = {Size::constant(128)};
  EXPECT_EQ(closedSizeBits(sizeOfType(T, Bounds)), 128u);
}

//===----------------------------------------------------------------------===//
// no_caps
//===----------------------------------------------------------------------===//

TEST(NoCaps, CapsAndOwnAreRejected) {
  Loc L = Loc::var(0);
  HeapTypeRef H = arrayHT(i32T());
  EXPECT_FALSE(pretypeNoCaps(capPT(Privilege::R, L, H), {}));
  EXPECT_FALSE(pretypeNoCaps(ownPT(L), {}));
  EXPECT_TRUE(pretypeNoCaps(ptrPT(L), {}));
  // A reference packages its capability with its pointer: allowed.
  EXPECT_TRUE(pretypeNoCaps(refPT(Privilege::RW, L, H), {}));
}

TEST(NoCaps, TuplesPropagate) {
  Loc L = Loc::var(0);
  Type CapT(capPT(Privilege::R, L, arrayHT(i32T())), Qual::lin());
  EXPECT_FALSE(pretypeNoCaps(prodPT({i32T(), CapT}), {}));
  EXPECT_TRUE(pretypeNoCaps(prodPT({i32T(), i64T()}), {}));
}

//===----------------------------------------------------------------------===//
// Structural equality
//===----------------------------------------------------------------------===//

TEST(TypeEquals, Basics) {
  EXPECT_TRUE(typeEquals(i32T(), i32T()));
  EXPECT_FALSE(typeEquals(i32T(), i64T()));
  EXPECT_FALSE(typeEquals(i32T(), i32T(Qual::lin())));
  EXPECT_TRUE(typeEquals(Type(varPT(1), Qual::lin()),
                         Type(varPT(1), Qual::lin())));
}

TEST(TypeEquals, StructuralHeapTypes) {
  HeapTypeRef A = structHT({{i32T(), Size::constant(32)},
                            {i64T(), Size::constant(64)}});
  HeapTypeRef B = structHT({{i32T(), Size::constant(32)},
                            {i64T(), Size::constant(64)}});
  HeapTypeRef C = structHT({{i32T(), Size::constant(32)}});
  EXPECT_TRUE(heapTypeEquals(*A, *B));
  EXPECT_FALSE(heapTypeEquals(*A, *C));
}

TEST(TypeEquals, FunTypes) {
  FunTypeRef F1 = FunType::get({Quant::loc()},
                               build::arrow({i32T()}, {i32T()}));
  FunTypeRef F2 = FunType::get({Quant::loc()},
                               build::arrow({i32T()}, {i32T()}));
  FunTypeRef F3 = FunType::get({}, build::arrow({i32T()}, {i32T()}));
  EXPECT_TRUE(funTypeEquals(*F1, *F2));
  EXPECT_FALSE(funTypeEquals(*F1, *F3));
}

//===----------------------------------------------------------------------===//
// Substitution and shifting
//===----------------------------------------------------------------------===//

TEST(Subst, LocSubstitutionStripsBinder) {
  // ∃ρ. ref rw ρ ψ — substituting ℓ for the binder after unpacking.
  HeapTypeRef H = arrayHT(i32T());
  Type Body(refPT(Privilege::RW, Loc::var(0), H), Qual::lin());
  Loc Target = Loc::concrete(MemKind::Lin, 42);
  Subst S = Subst::oneLoc(Target);
  Type Out = S.rewrite(Body);
  const auto *R = dyn_cast<RefPT>(Out.P);
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R->loc(), Target);
}

TEST(Subst, OuterVariablesDropByGroupSize) {
  // Var 1 under a 1-binder substitution becomes var 0.
  Type T(ptrPT(Loc::var(1)), Qual::unr());
  Subst S = Subst::oneLoc(Loc::concrete(MemKind::Unr, 1));
  Type Out = S.rewrite(T);
  const auto *P = dyn_cast<PtrPT>(Out.P);
  ASSERT_NE(P, nullptr);
  ASSERT_TRUE(P->loc().isVar());
  EXPECT_EQ(P->loc().varIndex(), 0u);
}

TEST(Subst, BoundVariablesAreProtected) {
  // ∃ρ. ptr ρ: the inner binder must not be replaced by an outer subst.
  Type Inner(ptrPT(Loc::var(0)), Qual::unr());
  Type T(exLocPT(Inner), Qual::unr());
  Subst S = Subst::oneLoc(Loc::concrete(MemKind::Unr, 3));
  Type Out = S.rewrite(T);
  const auto *Ex = dyn_cast<ExLocPT>(Out.P);
  ASSERT_NE(Ex, nullptr);
  const auto *P = dyn_cast<PtrPT>(Ex->body().P);
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(P->loc().isVar());
  EXPECT_EQ(P->loc().varIndex(), 0u);
}

TEST(Subst, PretypeSubstitutionUnfoldsRec) {
  // rec unr ⪯ α. (ref rw ρ0 (variant [unit^unr; α^unr]))^unr
  HeapTypeRef V = variantHT({unitT(), Type(varPT(0), Qual::unr())});
  PretypeRef Rec =
      recPT(Qual::unr(),
            Type(refPT(Privilege::RW, Loc::var(0), V), Qual::unr()));
  const auto *R = cast<RecPT>(Rec.get());
  Subst S = Subst::onePretype(Rec);
  Type Unfolded = S.rewrite(R->body());
  const auto *Ref = dyn_cast<RefPT>(Unfolded.P);
  ASSERT_NE(Ref, nullptr);
  const auto *VH = dyn_cast<VariantHT>(Ref->heapType());
  ASSERT_NE(VH, nullptr);
  EXPECT_TRUE(isa<RecPT>(VH->cases()[1].P));
}

TEST(Subst, QualInstantiation) {
  // ∀δ. [α^δ] → [α^δ] instantiated with lin.
  FunTypeRef F = FunType::get(
      {Quant::qual(), Quant::type(Qual::var(0), Size::constant(32), true)},
      build::arrow({Type(varPT(0), Qual::var(0))},
                   {Type(varPT(0), Qual::var(0))}));
  std::vector<Index> Args = {Index::qual(Qual::lin()),
                             Index::pretype(numPT(NumType::I32))};
  ArrowType A = instantiateFunType(*F, Args);
  ASSERT_EQ(A.Params.size(), 1u);
  EXPECT_TRUE(typeEquals(A.Params[0], i32T(Qual::lin())));
}

TEST(Subst, SimultaneousMultiKind) {
  // ∀ρ σ α. [(ref rw ρ (struct (α^unr, σ)))^unr] → [α^unr]
  HeapTypeRef H =
      structHT({{Type(varPT(0), Qual::unr()), Size::var(0)}});
  FunTypeRef F = FunType::get(
      {Quant::loc(), Quant::size(), Quant::type(Qual::unr(), Size::var(0), true)},
      build::arrow({Type(refPT(Privilege::RW, Loc::var(0), H), Qual::unr())},
                   {Type(varPT(0), Qual::unr())}));
  std::vector<Index> Args = {Index::loc(Loc::concrete(MemKind::Unr, 5)),
                             Index::size(Size::constant(32)),
                             Index::pretype(numPT(NumType::I32))};
  ArrowType A = instantiateFunType(*F, Args);
  const auto *R = dyn_cast<RefPT>(A.Params[0].P);
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R->loc(), Loc::concrete(MemKind::Unr, 5));
  const auto *SH = dyn_cast<StructHT>(R->heapType());
  ASSERT_NE(SH, nullptr);
  EXPECT_TRUE(isa<NumPT>(SH->structFields()[0].T.P));
  EXPECT_EQ(closedSizeBits(SH->structFields()[0].Slot), 32u);
  EXPECT_TRUE(typeEquals(A.Results[0], i32T()));
}

TEST(Shift, FreeVarsMoveBoundVarsStay) {
  // ∃ρ. (ptr ρ0, ptr ρ1): shifting by 2 affects only the free ρ1.
  Type Body(prodPT({Type(ptrPT(Loc::var(0)), Qual::unr()),
                    Type(ptrPT(Loc::var(1)), Qual::unr())}),
            Qual::unr());
  Type T(exLocPT(Body), Qual::unr());
  Shifter Sh(2, 0, 0, 0);
  Type Out = Sh.rewrite(T);
  const auto *Ex = cast<ExLocPT>(Out.P.get());
  const auto *Prod = cast<ProdPT>(Ex->body().P.get());
  EXPECT_EQ(cast<PtrPT>(Prod->elems()[0].P.get())->loc().varIndex(), 0u);
  EXPECT_EQ(cast<PtrPT>(Prod->elems()[1].P.get())->loc().varIndex(), 3u);
}

//===----------------------------------------------------------------------===//
// Instruction rewriting (call-time substitution into bodies)
//===----------------------------------------------------------------------===//

TEST(InstRewrite, SubstitutesAnnotationsAndRespectsBinders) {
  using namespace rw::ir::build;
  // Body: struct.malloc [σ0] lin; mem.unpack ... ρ. (mem.pack ρ0)
  InstVec Body = {
      structMalloc({Size::var(0)}, Qual::lin()),
      memUnpack(arrow({}, {}), {}, {memPack(Loc::var(0))}),
      memPack(Loc::var(0)),
  };
  Subst S = Subst::fromIndices({Index::size(Size::constant(32)),
                                Index::loc(Loc::concrete(MemKind::Lin, 9))});
  InstVec Out = rewriteInsts(Body, S);

  const auto *SM = cast<StructMallocInst>(Out[0].get());
  EXPECT_EQ(closedSizeBits(SM->sizes()[0]), 32u);

  // Inside the mem.unpack body, ρ0 is the *unpack's* binder: untouched.
  const auto *MU = cast<MemUnpackInst>(Out[1].get());
  const auto *InnerPack = cast<MemPackInst>(MU->body()[0].get());
  EXPECT_TRUE(InnerPack->loc().isVar());
  EXPECT_EQ(InnerPack->loc().varIndex(), 0u);

  // Outside, ρ0 was the function's binder: substituted.
  const auto *OuterPack = cast<MemPackInst>(Out[2].get());
  EXPECT_EQ(OuterPack->loc(), Loc::concrete(MemKind::Lin, 9));
}

//===----------------------------------------------------------------------===//
// Printing (Fig 2 coverage — every production renders)
//===----------------------------------------------------------------------===//

TEST(Print, EveryPretypeRenders) {
  Loc L = Loc::var(0);
  HeapTypeRef H = structHT({{i32T(), Size::constant(32)}});
  std::vector<PretypeRef> All = {
      unitPT(),
      numPT(NumType::U64),
      varPT(2),
      prodPT({i32T(), i64T()}),
      refPT(Privilege::RW, L, H),
      ptrPT(L),
      capPT(Privilege::R, L, H),
      ownPT(L),
      recPT(Qual::unr(), Type(refPT(Privilege::RW, L, variantHT({unitT()})),
                              Qual::unr())),
      exLocPT(i32T()),
      coderefPT(FunType::get({}, build::arrow({}, {i32T()}))),
  };
  for (const PretypeRef &P : All)
    EXPECT_FALSE(printPretype(P).empty());
}

TEST(Print, EveryHeapTypeRenders) {
  std::vector<HeapTypeRef> All = {
      variantHT({unitT(), i32T()}),
      structHT({{i32T(), Size::constant(32)}}),
      arrayHT(i64T()),
      exHT(Qual::unr(), Size::constant(64), Type(varPT(0), Qual::unr())),
  };
  for (const HeapTypeRef &H : All)
    EXPECT_FALSE(printHeapType(H).empty());
}

TEST(Print, InstructionsRender) {
  using namespace rw::ir::build;
  InstVec Insts = {
      iconst(7),
      addI32(),
      block(arrow({}, {i32T()}), {}, {iconst(1)}),
      loop(arrow({}, {}), {}),
      getLocal(0, Qual::lin()),
      structMalloc({Size::constant(32)}, Qual::lin()),
      variantCase(Qual::unr(), variantHT({unitT()}), arrow({}, {}), {},
                  {{}}),
      memUnpack(arrow({}, {}), {}, {}),
  };
  std::string S = printInsts(Insts);
  EXPECT_NE(S.find("i32.const 7"), std::string::npos);
  EXPECT_NE(S.find("block"), std::string::npos);
  EXPECT_NE(S.find("struct.malloc"), std::string::npos);
}

TEST(Print, ModuleRenders) {
  using namespace rw::ir::build;
  ir::Module M;
  M.Name = "demo";
  M.Funcs.push_back(function(
      {"f"}, FunType::get({}, arrow({i32T()}, {i32T()})), {},
      {getLocal(0, Qual::unr())}));
  std::string S = printModule(M);
  EXPECT_NE(S.find("demo"), std::string::npos);
  EXPECT_NE(S.find("export \"f\""), std::string::npos);
}
