//===- tests/checker_test.cpp - Instruction typing (Fig 7) ----------------===//
//
// One positive and one negative test per instruction family, plus the
// paper's headline property: programs that duplicate or drop linear values
// (the Fig 1 "stash" pattern) are rejected statically.
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "typing/Checker.h"
#include "typing/Entail.h"

#include <gtest/gtest.h>

using namespace rw;
using namespace rw::ir;
using namespace rw::ir::build;
using namespace rw::typing;

namespace {

/// Checks a body in an empty context with the given locals.
Expected<SeqResult> check(const InstVec &Insts, LocalCtx Locals = {},
                          std::vector<Type> StackIn = {}) {
  ModuleEnv Env;
  return checkSeq(Env, KindCtx(), std::nullopt, std::move(Locals),
                  std::move(StackIn), Insts);
}

/// A linear struct reference type over one i32 field (the workhorse of the
/// heap tests).
Type linCellRef() {
  return Type(exLocPT(Type(
                  refPT(Privilege::RW, Loc::var(0),
                        structHT({{i32T(), Size::constant(32)}})),
                  Qual::lin())),
              Qual::lin());
}

LocalSlot slot(Type T, uint64_t Bits) {
  return {std::move(T), Size::constant(Bits)};
}

} // namespace

//===----------------------------------------------------------------------===//
// Numerics, drop, select
//===----------------------------------------------------------------------===//

TEST(Checker, ConstAndAdd) {
  auto R = check({iconst(2), iconst(3), addI32()});
  ASSERT_TRUE(bool(R));
  ASSERT_EQ(R->Stack.size(), 1u);
  EXPECT_TRUE(typeEquals(R->Stack[0], i32T()));
}

TEST(Checker, BinopTypeMismatch) {
  auto R = check({iconst(2), i64const(3), addI32()});
  EXPECT_FALSE(bool(R));
}

TEST(Checker, FloatOpOnIntRejected) {
  auto R = check({iconst(1), iconst(2), binop(NumType::I32, BinopKind::Min)});
  EXPECT_FALSE(bool(R));
}

TEST(Checker, DropUnrOk) {
  auto R = check({iconst(1), drop()});
  ASSERT_TRUE(bool(R));
  EXPECT_TRUE(R->Stack.empty());
}

TEST(Checker, DropLinearRejected) {
  // A linear value on the stack cannot be dropped.
  auto R = check({drop()}, {}, {linCellRef()});
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().message().find("linear"), std::string::npos);
}

TEST(Checker, SelectRequiresEqualTypes) {
  EXPECT_TRUE(bool(check({iconst(1), iconst(2), iconst(0), select()})));
  EXPECT_FALSE(bool(check({iconst(1), i64const(2), iconst(0), select()})));
}

//===----------------------------------------------------------------------===//
// Blocks, branching, locals
//===----------------------------------------------------------------------===//

TEST(Checker, BlockResultTypes) {
  auto R = check({block(arrow({}, {i32T()}), {}, {iconst(5)})});
  ASSERT_TRUE(bool(R));
  EXPECT_TRUE(typeEquals(R->Stack[0], i32T()));
}

TEST(Checker, BlockBodyMismatchRejected) {
  auto R = check({block(arrow({}, {i32T()}), {}, {i64const(5)})});
  EXPECT_FALSE(bool(R));
}

TEST(Checker, BrToLabelOk) {
  auto R = check({block(arrow({}, {i32T()}), {}, {iconst(5), br(0)})});
  EXPECT_TRUE(bool(R));
}

TEST(Checker, BrWouldDropLinearRejected) {
  // Inside the block, a linear cell is allocated and then a br jumps out
  // without consuming it.
  auto R = check({block(arrow({}, {}), {},
                        {iconst(1),
                         structMalloc({Size::constant(32)}, Qual::lin()),
                         br(0)})});
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().message().find("linear"), std::string::npos);
}

TEST(Checker, BrPastLockedLinearRejected) {
  // A linear value sits beneath an inner block; br 1 from inside the inner
  // block would drop it.
  InstVec Inner = {br(1)};
  auto R = check({block(
      arrow({}, {}), {},
      {iconst(1), structMalloc({Size::constant(32)}, Qual::lin()),
       block(arrow({}, {}), {}, Inner),
       // Unreached cleanup, present to satisfy the outer block's type.
       memUnpack(arrow({}, {}), {},
                 {structFree()})})});
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().message().find("locked"), std::string::npos);
}

TEST(Checker, IfBranchesAgree) {
  auto R = check({iconst(1),
                  ifElse(arrow({}, {i32T()}), {}, {iconst(1)}, {iconst(2)})});
  EXPECT_TRUE(bool(R));
  auto Bad = check({iconst(1),
                    ifElse(arrow({}, {i32T()}), {}, {iconst(1)}, {i64const(2)})});
  EXPECT_FALSE(bool(Bad));
}

TEST(Checker, LoopParamsAreBranchTarget) {
  // loop [i32] -> [i32] whose body conditionally re-enters with br 0.
  auto R = check({iconst(0),
                  loop(arrow({i32T()}, {i32T()}),
                       {iconst(1), addI32(), teeLocal(0), getLocal(0, Qual::unr()),
                        iconst(10), relop(NumType::I32, RelopKind::Lt),
                        brIf(0)})},
                 {slot(i32T(), 32)});
  ASSERT_TRUE(bool(R)) << R.error().message();
  EXPECT_TRUE(typeEquals(R->Stack[0], i32T()));
}

TEST(Checker, GetLocalUnrCopies) {
  auto R = check({getLocal(0, Qual::unr()), getLocal(0, Qual::unr())},
                 {slot(i32T(), 32)});
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(R->Stack.size(), 2u);
  EXPECT_TRUE(typeEquals(R->Locals[0].T, i32T()));
}

TEST(Checker, GetLocalLinMovesAndBlanks) {
  auto R = check({getLocal(0, Qual::lin())}, {slot(linCellRef(), 64)});
  ASSERT_TRUE(bool(R));
  EXPECT_TRUE(typeEquals(R->Locals[0].T, unitT()));
  EXPECT_TRUE(typeEquals(R->Stack[0], linCellRef()));
}

TEST(Checker, GetLocalLinTwiceGivesUnit) {
  // The second linear get reads unit, not the original type — this is the
  // mechanism that rejects compiled `stash`-style duplication.
  auto R = check({getLocal(0, Qual::lin()), getLocal(0, Qual::lin())},
                 {slot(linCellRef(), 64)});
  EXPECT_FALSE(bool(R)); // Annotation no longer matches slot qualifier.
}

TEST(Checker, SetLocalChecksFitAndOldQual) {
  // i64 into a 32-bit slot: rejected.
  auto Bad = check({i64const(1), setLocal(0)}, {slot(i32T(), 32)});
  EXPECT_FALSE(bool(Bad));
  // Overwriting a linear value: rejected.
  auto Bad2 = check({iconst(1), setLocal(0)}, {slot(linCellRef(), 64)});
  ASSERT_FALSE(bool(Bad2));
  EXPECT_NE(Bad2.error().message().find("linear"), std::string::npos);
  // Strong local update i32 -> i64 in a big-enough slot: fine.
  auto Good = check({i64const(1), setLocal(0)}, {slot(i32T(), 64)});
  EXPECT_TRUE(bool(Good));
}

TEST(Checker, TeeLocalRejectsLinear) {
  auto R = check({teeLocal(0)}, {slot(unitT(), 64)}, {linCellRef()});
  EXPECT_FALSE(bool(R));
}

//===----------------------------------------------------------------------===//
// Qualify, group/ungroup
//===----------------------------------------------------------------------===//

TEST(Checker, QualifyUpOk) {
  auto R = check({iconst(1), qualify(Qual::lin())});
  ASSERT_TRUE(bool(R));
  EXPECT_TRUE(typeEquals(R->Stack[0], i32T(Qual::lin())));
}

TEST(Checker, QualifyDownRejected) {
  auto R = check({qualify(Qual::unr())}, {}, {i32T(Qual::lin())});
  EXPECT_FALSE(bool(R));
}

TEST(Checker, GroupQualMustBoundComponents) {
  // Grouping a linear component into an unrestricted tuple is rejected.
  auto Bad = check({group(1, Qual::unr())}, {}, {linCellRef()});
  EXPECT_FALSE(bool(Bad));
  auto Good = check({group(1, Qual::lin())}, {}, {linCellRef()});
  EXPECT_TRUE(bool(Good));
}

TEST(Checker, GroupUngroupRoundTrip) {
  auto R = check({iconst(1), i64const(2), group(2, Qual::unr()), ungroup()});
  ASSERT_TRUE(bool(R));
  ASSERT_EQ(R->Stack.size(), 2u);
  EXPECT_TRUE(typeEquals(R->Stack[0], i32T()));
  EXPECT_TRUE(typeEquals(R->Stack[1], i64T()));
}

//===----------------------------------------------------------------------===//
// Structs: malloc / get / set / swap / free
//===----------------------------------------------------------------------===//

TEST(Checker, StructMallocUnpackFree) {
  InstVec Body = {
      iconst(7),
      structMalloc({Size::constant(32)}, Qual::lin()),
      memUnpack(arrow({}, {}), {}, {structFree()}),
  };
  auto R = check(Body);
  ASSERT_TRUE(bool(R)) << R.error().message();
  EXPECT_TRUE(R->Stack.empty());
}

TEST(Checker, StructMallocFieldTooBigRejected) {
  auto R = check({i64const(7), structMalloc({Size::constant(32)}, Qual::lin())});
  EXPECT_FALSE(bool(R));
}

TEST(Checker, CapabilitiesCannotGoOnHeap) {
  // Try to store a capability (split off a ref) into a struct.
  InstVec Body = {
      iconst(7),
      structMalloc({Size::constant(32)}, Qual::lin()),
      memUnpack(arrow({}, {}), {},
                {refSplit(), // cap below, ptr on top
                 drop(),     // drop the ptr (unrestricted, fine)
                 structMalloc({Size::constant(64)}, Qual::lin()),
                 memUnpack(arrow({}, {}), {}, {structFree()})}),
  };
  auto R = check(Body);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().message().find("capabilit"), std::string::npos);
}

TEST(Checker, StructGetRequiresUnrField) {
  // Build an unr struct of one i32 in unrestricted memory and read it.
  InstVec Body = {
      iconst(7),
      structMalloc({Size::constant(32)}, Qual::unr()),
      memUnpack(arrow({}, {i32T()}), {},
                {structGet(0),
                 // Stack: ref, field. Field on top; swap roles: drop ref
                 // under the field is impossible, so re-order via locals.
                 setLocal(0), drop(), getLocal(0, Qual::unr())}),
  };
  auto R = check(Body, {slot(i32T(), 32)});
  ASSERT_TRUE(bool(R)) << R.error().message();
  ASSERT_EQ(R->Stack.size(), 1u);
  EXPECT_TRUE(typeEquals(R->Stack[0], i32T()));
}

TEST(Checker, StrongUpdateOnlyThroughLinearRef) {
  // Unrestricted struct: type-changing set is rejected.
  InstVec Bad = {
      iconst(7),
      structMalloc({Size::constant(64)}, Qual::unr()),
      memUnpack(arrow({}, {}), {},
                {i64const(1), structSet(0), drop()}),
  };
  auto R = check(Bad);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().message().find("strong update"), std::string::npos);

  // Linear struct: the same strong update is accepted.
  InstVec Good = {
      iconst(7),
      structMalloc({Size::constant(64)}, Qual::lin()),
      memUnpack(arrow({}, {}), {},
                {i64const(1), structSet(0), structFree()}),
  };
  auto R2 = check(Good);
  EXPECT_TRUE(bool(R2)) << R2.error().message();
}

TEST(Checker, StructSwapMovesLinearField) {
  // A linear cell holding a linear cell: swap extracts the inner one.
  InstVec Body = {
      // Allocate the inner cell and stash the (packed) reference in a
      // local; its type is the ∃ρ package, which mentions no skolem.
      iconst(1),
      structMalloc({Size::constant(32)}, Qual::lin()),
      setLocal(0),
      // Allocate an outer cell with a 64-bit slot holding an i32.
      iconst(2),
      structMalloc({Size::constant(64)}, Qual::lin()),
      memUnpack(
          arrow({}, {}), {{0, unitT()}},
          {// Strong-update the inner package into the outer's field.
           getLocal(0, Qual::lin()), structSwap(0), drop(),
           // Swap it back out, unpack it, and free both cells.
           iconst(9), structSwap(0),
           memUnpack(arrow({}, {}), {}, {structFree()}), structFree()}),
  };
  auto R = check(Body, {slot(unitT(), 64)});
  EXPECT_TRUE(bool(R)) << R.error().message();
}

TEST(Checker, StructGetOfLinearFieldRejected) {
  Type InnerRef = linCellRef();
  // An outer linear struct whose field is linear: struct.get must fail.
  InstVec Body = {
      iconst(1),
      structMalloc({Size::constant(32)}, Qual::lin()),
      memUnpack(arrow({}, {}), {},
                {structMalloc({Size::constant(64)}, Qual::lin()),
                 memUnpack(arrow({}, {}), {},
                           {structGet(0), drop(), structFree()})}),
  };
  auto R = check(Body);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().message().find("struct.swap"), std::string::npos);
}

TEST(Checker, FreeRequiresLinear) {
  InstVec Body = {
      iconst(7),
      structMalloc({Size::constant(32)}, Qual::unr()),
      memUnpack(arrow({}, {}), {}, {structFree()}),
  };
  auto R = check(Body);
  ASSERT_FALSE(bool(R));
}

//===----------------------------------------------------------------------===//
// Variants
//===----------------------------------------------------------------------===//

TEST(Checker, VariantRoundTrip) {
  std::vector<Type> Cases = {unitT(), i32T()};
  InstVec Body = {
      iconst(42),
      variantMalloc(1, Cases, Qual::lin()),
      memUnpack(arrow({}, {i32T()}), {},
                {variantCase(Qual::lin(), variantHT(Cases),
                             arrow({}, {i32T()}), {},
                             {{drop(), iconst(0)}, {}})}),
  };
  auto R = check(Body);
  ASSERT_TRUE(bool(R)) << R.error().message();
  EXPECT_TRUE(typeEquals(R->Stack[0], i32T()));
}

TEST(Checker, VariantMallocWrongPayloadRejected) {
  std::vector<Type> Cases = {unitT(), i32T()};
  auto R = check({i64const(1), variantMalloc(1, Cases, Qual::lin())});
  EXPECT_FALSE(bool(R));
}

TEST(Checker, UnrCaseOverLinearCasesRejected) {
  std::vector<Type> Cases = {linCellRef()};
  InstVec Body = {
      variantCase(Qual::unr(), variantHT(Cases), arrow({}, {}), {},
                  {{drop()}}),
  };
  Type VRef(refPT(Privilege::RW, Loc::concrete(MemKind::Unr, 1),
                  variantHT(Cases)),
            Qual::unr());
  auto R = check(Body, {}, {VRef});
  ASSERT_FALSE(bool(R));
}

//===----------------------------------------------------------------------===//
// Arrays
//===----------------------------------------------------------------------===//

TEST(Checker, ArrayMallocGetSetFree) {
  InstVec Body = {
      iconst(7), uconst(10), arrayMalloc(Qual::lin()),
      memUnpack(arrow({}, {i32T()}), {},
                {uconst(3), arrayGet(), setLocal(0), uconst(4), iconst(9),
                 arraySet(), arrayFree(), getLocal(0, Qual::unr())}),
  };
  auto R = check(Body, {slot(i32T(), 32)});
  ASSERT_TRUE(bool(R)) << R.error().message();
  EXPECT_TRUE(typeEquals(R->Stack[0], i32T()));
}

TEST(Checker, ArraySetTypePreservingOnly) {
  InstVec Body = {
      iconst(7), uconst(10), arrayMalloc(Qual::lin()),
      memUnpack(arrow({}, {}), {},
                {uconst(0), i64const(1), arraySet(), arrayFree()}),
  };
  auto R = check(Body);
  EXPECT_FALSE(bool(R));
}

TEST(Checker, ArrayInitMustBeUnr) {
  auto R = check({uconst(4), arrayMalloc(Qual::lin())}, {},
                 {linCellRef()});
  EXPECT_FALSE(bool(R));
}

//===----------------------------------------------------------------------===//
// Existential packages (heap ∃α)
//===----------------------------------------------------------------------===//

TEST(Checker, ExistPackUnpack) {
  HeapTypeRef Ex =
      exHT(Qual::unr(), Size::constant(32), Type(varPT(0), Qual::unr()));
  InstVec Body = {
      iconst(5),
      existPack(numPT(NumType::I32), Ex, Qual::lin()),
      memUnpack(arrow({}, {}), {},
                {existUnpack(Qual::lin(), Ex, arrow({}, {}), {},
                             {drop()})}),
  };
  auto R = check(Body);
  ASSERT_TRUE(bool(R)) << R.error().message();
}

TEST(Checker, ExistPackWitnessTooBigRejected) {
  HeapTypeRef Ex =
      exHT(Qual::unr(), Size::constant(32), Type(varPT(0), Qual::unr()));
  auto R = check({i64const(5), existPack(numPT(NumType::I64), Ex, Qual::lin())});
  EXPECT_FALSE(bool(R));
}

TEST(Checker, ExistUnpackSkolemCannotEscape) {
  HeapTypeRef Ex =
      exHT(Qual::unr(), Size::constant(32), Type(varPT(0), Qual::unr()));
  // The body tries to smuggle the opened abstract value out through a
  // local. No annotation can name the skolem, so this must be rejected
  // (either as a local-effect disagreement or as a skolem escape).
  InstVec Body = {
      iconst(5),
      existPack(numPT(NumType::I32), Ex, Qual::unr()),
      memUnpack(arrow({}, {}), {{0, unitT()}},
                {existUnpack(Qual::unr(), Ex, arrow({}, {}), {{0, unitT()}},
                             {setLocal(0)}),
                 drop()}),
  };
  auto R = check(Body, {slot(unitT(), 64)});
  EXPECT_FALSE(bool(R));
}

//===----------------------------------------------------------------------===//
// Capabilities and references
//===----------------------------------------------------------------------===//

TEST(Checker, RefSplitJoinRoundTrip) {
  InstVec Body = {
      iconst(7),
      structMalloc({Size::constant(32)}, Qual::lin()),
      memUnpack(arrow({}, {}), {},
                {refSplit(), refJoin(), structFree()}),
  };
  auto R = check(Body);
  EXPECT_TRUE(bool(R)) << R.error().message();
}

TEST(Checker, CapSplitJoinRoundTrip) {
  InstVec Body = {
      iconst(7),
      structMalloc({Size::constant(32)}, Qual::lin()),
      memUnpack(arrow({}, {}), {{0, i32T()}},
                {refSplit(),      // cap, ptr
                 setLocal(0),     // stash the ptr
                 capSplit(),      // cap r, own
                 capJoin(),       // cap rw
                 getLocal(0, Qual::unr()), refJoin(), structFree(),
                 // Overwrite the ptr so the skolem does not linger in the
                 // local past the unpack scope.
                 iconst(0), setLocal(0)}),
  };
  auto R = check(Body, {slot(unitT(), 64)});
  EXPECT_TRUE(bool(R)) << R.error().message();
}

TEST(Checker, RefDemoteDropsWrite) {
  InstVec Body = {
      iconst(7),
      structMalloc({Size::constant(32)}, Qual::lin()),
      memUnpack(arrow({}, {}), {},
                {refDemote(), iconst(1), structSet(0), structFree()}),
  };
  auto R = check(Body);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().message().find("privilege"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Functions, calls, polymorphism
//===----------------------------------------------------------------------===//

TEST(Checker, ModuleWithCall) {
  ir::Module M;
  M.Name = "m";
  // f0: [i32 i32] -> [i32] = add.
  M.Funcs.push_back(function(
      {}, FunType::get({}, arrow({i32T(), i32T()}, {i32T()})), {},
      {getLocal(0, Qual::unr()), getLocal(1, Qual::unr()), addI32()}));
  // f1: [] -> [i32] = f0(2, 3).
  M.Funcs.push_back(function({"main"},
                             FunType::get({}, arrow({}, {i32T()})), {},
                             {iconst(2), iconst(3), call(0)}));
  EXPECT_TRUE(checkModule(M).ok());
}

TEST(Checker, CallArityMismatchRejected) {
  ir::Module M;
  M.Name = "m";
  M.Funcs.push_back(function(
      {}, FunType::get({}, arrow({i32T()}, {i32T()})), {},
      {getLocal(0, Qual::unr())}));
  M.Funcs.push_back(function({}, FunType::get({}, arrow({}, {i32T()})), {},
                             {call(0)}));
  EXPECT_FALSE(checkModule(M).ok());
}

TEST(Checker, PolymorphicIdentity) {
  // ∀ (unr ⪯ α ≲ 64). [α^unr] -> [α^unr], called at i32.
  ir::Module M;
  M.Name = "m";
  FunTypeRef IdTy = FunType::get(
      {Quant::type(Qual::unr(), Size::constant(64), true)},
      arrow({Type(varPT(0), Qual::unr())}, {Type(varPT(0), Qual::unr())}));
  M.Funcs.push_back(function({}, IdTy, {}, {getLocal(0, Qual::unr())}));
  M.Funcs.push_back(function(
      {"main"}, FunType::get({}, arrow({}, {i32T()})), {},
      {iconst(7), call(0, {Index::pretype(numPT(NumType::I32))})}));
  EXPECT_TRUE(checkModule(M).ok()) << checkModule(M).error().message();
}

TEST(Checker, InstantiationSizeBoundViolationRejected) {
  ir::Module M;
  M.Name = "m";
  FunTypeRef IdTy = FunType::get(
      {Quant::type(Qual::unr(), Size::constant(32), true)},
      arrow({Type(varPT(0), Qual::unr())}, {Type(varPT(0), Qual::unr())}));
  M.Funcs.push_back(function({}, IdTy, {}, {getLocal(0, Qual::unr())}));
  // i64 has size 64 > 32: rejected.
  M.Funcs.push_back(function(
      {}, FunType::get({}, arrow({}, {i64T()})), {},
      {i64const(7), call(0, {Index::pretype(numPT(NumType::I64))})}));
  EXPECT_FALSE(checkModule(M).ok());
}

TEST(Checker, TypeQuantifierWithoutSizeBoundRejected) {
  // ∀ (unr ⪯ α ≲ null). [α₁] → []: the bound is missing and the parameter
  // is out of scope. The missing bound is reported before any diagnostic
  // prints the type (which would read the bound).
  ir::Module M;
  M.Name = "m";
  M.Funcs.push_back(function(
      {}, FunType::get({Quant::type(Qual::unr(), nullptr)},
                       arrow({Type(varPT(1), Qual::unr())}, {})),
      {}, {}));
  Status S = checkModule(M);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.error().message().find("type quantifier has no size bound"),
            std::string::npos)
      << S.error().message();
}

TEST(Checker, FunctionMayNotDuplicateLinearParam) {
  // The RichWasm-level essence of Fig 1's stash: a function that returns
  // its linear argument twice cannot typecheck.
  ir::Module M;
  M.Name = "m";
  Type Lin = linCellRef();
  M.Funcs.push_back(function(
      {}, FunType::get({}, arrow({Lin}, {Lin, Lin})), {},
      {getLocal(0, Qual::lin()), getLocal(0, Qual::lin())}));
  auto S = checkModule(M);
  ASSERT_FALSE(S.ok());
}

TEST(Checker, FunctionMayNotLeakLinearParam) {
  // Ending with a linear value still in a local is rejected.
  ir::Module M;
  M.Name = "m";
  Type Lin = linCellRef();
  M.Funcs.push_back(function({}, FunType::get({}, arrow({Lin}, {})), {},
                             {nop()}));
  auto S = checkModule(M);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.error().message().find("linear"), std::string::npos);
}

TEST(Checker, CoderefAndCallIndirect) {
  ir::Module M;
  M.Name = "m";
  M.Funcs.push_back(function(
      {}, FunType::get({}, arrow({i32T()}, {i32T()})), {},
      {getLocal(0, Qual::unr()), iconst(1), addI32()}));
  M.Tab.Entries = {0};
  M.Funcs.push_back(function(
      {"main"}, FunType::get({}, arrow({}, {i32T()})), {},
      {iconst(41), coderef(0), callIndirect()}));
  EXPECT_TRUE(checkModule(M).ok()) << checkModule(M).error().message();
}

TEST(Checker, GlobalsTypePreserving) {
  ir::Module M;
  M.Name = "m";
  ir::Global G;
  G.Mut = true;
  G.P = numPT(NumType::I32);
  G.Init = {iconst(0)};
  M.Globals.push_back(G);
  M.Funcs.push_back(function(
      {}, FunType::get({}, arrow({}, {})), {},
      {getGlobal(0), iconst(1), addI32(), setGlobal(0)}));
  EXPECT_TRUE(checkModule(M).ok()) << checkModule(M).error().message();

  // Writing an i64 into an i32 global is rejected.
  ir::Module Bad = M;
  Bad.Funcs[0] = function({}, FunType::get({}, arrow({}, {})), {},
                          {i64const(1), setGlobal(0)});
  EXPECT_FALSE(checkModule(Bad).ok());
}

TEST(Checker, ReturnChecksLeaks) {
  ir::Module M;
  M.Name = "m";
  Type Lin = linCellRef();
  // return while a linear value is on the stack below the results.
  M.Funcs.push_back(function(
      {}, FunType::get({}, arrow({Lin}, {i32T()})), {},
      {getLocal(0, Qual::lin()), iconst(1), ret()}));
  EXPECT_FALSE(checkModule(M).ok());
}
