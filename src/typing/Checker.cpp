//===- typing/Checker.cpp - Instruction typing (Fig 7) --------------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "typing/Checker.h"

#include "ir/Print.h"
#include "ir/Rewrite.h"
#include "obs/Obs.h"
#include "support/FaultInject.h"
#include "ir/TypeArena.h"
#include "ir/TypeOps.h"
#include "support/SmallVec.h"
#include "typing/Entail.h"
#include "typing/WellFormed.h"

#include <cassert>

using namespace rw;
using namespace rw::typing;
using namespace rw::ir;

namespace {

/// Rewrites every occurrence of a fixed location to the innermost location
/// variable — the canonical abstraction step of mem.pack ℓ.
class AbstractLoc : public TypeRewriter {
public:
  explicit AbstractLoc(Loc Target) : Target(Target) {
    // The hook is pure in (location, depths). When the abstracted target
    // is a skolem or concrete location (the common case), a subtree with
    // no free location variables and no non-variable locations cannot be
    // affected, so memoization/short-circuiting is sound. A *variable*
    // target is compared literally, which can also match bound variables —
    // no short-circuit is valid then.
    if (!Target.isVar())
      enableStructuralMemo(/*ActLoc=*/true, false, false, false,
                           /*NonVarLocs=*/true);
  }

  Loc rewrite(const Loc &L) override {
    if (L == Target)
      return Loc::var(LocDepth);
    if (L.isVar())
      return Loc::var(L.varIndex() >= LocDepth ? L.varIndex() + 1
                                               : L.varIndex());
    return L;
  }

private:
  Loc Target;
};

/// Occurs check for skolems escaping their unpack scope.
class SkolemScan : public TypeRewriter {
public:
  SkolemScan(uint64_t LocId, uint64_t TypeId, bool WantLoc, bool WantType)
      : LocId(LocId), TypeId(TypeId), WantLoc(WantLoc), WantType(WantType) {}

  bool found(const Type &T) {
    Found = false;
    (void)TypeRewriter::rewrite(T);
    return Found;
  }

  Loc rewrite(const Loc &L) override {
    if (WantLoc && L.isSkolem() && L.skolemId() == LocId)
      Found = true;
    return L;
  }

protected:
  PretypeRef onTypeVar(uint32_t Idx) override { return varPT(Idx); }

public:
  // Scan hook for skolem pretypes: TypeRewriter passes them through
  // untouched, so intercept at the pretype level via this helper.
  static bool pretypeHasSkolem(const PretypeRef &P, uint64_t Id);

private:
  uint64_t LocId, TypeId;
  bool WantLoc, WantType;
  bool Found = false;
};

bool pretypeHasTypeSkolem(const Pretype *P, uint64_t Id);

bool typeHasTypeSkolem(TypeRef T, uint64_t Id) {
  // Intern-time occurrence flags make the common no-skolem case O(1).
  if (!(T.P->flags() & TF_HasSkolemType))
    return false;
  return pretypeHasTypeSkolem(T.P, Id);
}

bool heapHasTypeSkolem(const HeapType *H, uint64_t Id) {
  if (!(H->flags() & TF_HasSkolemType))
    return false;
  switch (H->kind()) {
  case HeapTypeKind::Variant:
    for (const Type &T : cast<VariantHT>(H)->cases())
      if (typeHasTypeSkolem(T, Id))
        return true;
    return false;
  case HeapTypeKind::Struct:
    for (const StructField &F : cast<StructHT>(H)->structFields())
      if (typeHasTypeSkolem(F.T, Id))
        return true;
    return false;
  case HeapTypeKind::Array:
    return typeHasTypeSkolem(cast<ArrayHT>(H)->elem(), Id);
  case HeapTypeKind::Ex:
    return typeHasTypeSkolem(cast<ExHT>(H)->body(), Id);
  }
  return false;
}

bool pretypeHasTypeSkolem(const Pretype *P, uint64_t Id) {
  switch (P->kind()) {
  case PretypeKind::Skolem:
    return cast<SkolemPT>(P)->id() == Id;
  case PretypeKind::Prod:
    for (const Type &T : cast<ProdPT>(P)->elems())
      if (typeHasTypeSkolem(T, Id))
        return true;
    return false;
  case PretypeKind::Ref:
    return heapHasTypeSkolem(cast<RefPT>(P)->heapType().get(), Id);
  case PretypeKind::Cap:
    return heapHasTypeSkolem(cast<CapPT>(P)->heapType().get(), Id);
  case PretypeKind::Rec:
    return typeHasTypeSkolem(cast<RecPT>(P)->body(), Id);
  case PretypeKind::ExLoc:
    return typeHasTypeSkolem(cast<ExLocPT>(P)->body(), Id);
  case PretypeKind::Coderef: {
    const FunType &FT = *cast<CoderefPT>(P)->funType();
    for (const Type &T : FT.arrow().Params)
      if (typeHasTypeSkolem(T, Id))
        return true;
    for (const Type &T : FT.arrow().Results)
      if (typeHasTypeSkolem(T, Id))
        return true;
    return false;
  }
  default:
    return false;
  }
}

bool typeHasLocSkolem(TypeRef T, uint64_t Id) {
  // Intern-time occurrence flags make the common no-skolem case O(1).
  if (!(T.P->flags() & TF_HasSkolemLoc))
    return false;
  SkolemScan S(Id, 0, true, false);
  return S.found(T.own());
}

//===----------------------------------------------------------------------===//
// The checker
//===----------------------------------------------------------------------===//

class CheckerImpl {
public:
  CheckerImpl(const ModuleEnv &Env, KindCtx Kinds,
              const std::vector<Type> *Ret, InfoMap *IM)
      : Env(Env), IM(IM) {
    F.Kinds = std::move(Kinds);
    F.Return = Ret;
  }

  /// Per-block checker state. The operand stack is *shared* across nested
  /// blocks (the CheckerImpl member below): a block sees only the segment
  /// at index >= Base, and underflow checks compare against that floor, so
  /// entering a block pushes its params in place instead of copying the
  /// stack. Locals are a COW handle — straight-line blocks share their
  /// parent's buffer and fork on first write.
  struct State {
    size_t Base = 0;
    LocalEnv Locals;
    bool Unreachable = false;
  };

  Status checkSeq(const InstVec &Insts, State &St) {
    for (const InstRef &I : Insts) {
      if (St.Unreachable)
        return Status::success(); // Dead code after a jump is skipped.
      if (Status S = checkInst(*I, St); !S)
        return S;
    }
    return Status::success();
  }

  FunCtx F;
  /// The one operand stack of this function check, shared by all blocks
  /// (see State::Base). Inline capacity covers every realistic operand
  /// depth, so steady-state checking performs no stack allocation. Entries
  /// are borrowed TypeRef views (every node is arena-interned), so pushes,
  /// pops, copies, and truncation are refcount-free flat moves — the ~24
  /// atomic release ops per function the F7 profile charged to the old
  /// shared_ptr stack are gone.
  support::SmallVec<TypeRef, 24> Stack;

private:
  /// Per-check cache of the numeric pretypes (and i32/unit, the two the
  /// dispatch consults constantly). The arena is fixed for the lifetime of
  /// one CheckerImpl (ArenaScope), so caching canonical nodes here turns
  /// every numT/i32T site from an arena round-trip (thread-local read +
  /// atomic leaf-slot load + shared_from_this) into a member read.
  TypeRef numCached(NumType NT) {
    TypeRef &Slot = NumCache[static_cast<size_t>(NT)];
    if (!Slot.valid())
      Slot = numT(NT);
    return Slot;
  }
  TypeRef i32Cached() {
    if (!I32Cache.valid())
      I32Cache = i32T();
    return I32Cache;
  }
  TypeRef unitCached() {
    if (!UnitCache.valid())
      UnitCache = unitT();
    return UnitCache;
  }
  TypeRef NumCache[6];
  TypeRef I32Cache, UnitCache;

  const ModuleEnv &Env;
  InfoMap *IM;
  uint64_t NextSkolem = 1;
  /// Skolem locations of the mem.unpack binders currently open, innermost
  /// last. Location-variable annotations on mem.pack count these binders
  /// first, then the function's quantified locations.
  support::SmallVec<Loc, 8> LocBinders;
  /// Reused scratch for struct.malloc's field list (span-probe interning).
  support::SmallVec<StructFieldRef, 8> ScratchFields;

  /// Resolves a location annotation against the open unpack binders.
  Loc resolveLoc(const Loc &L) const {
    if (!L.isVar() || L.varIndex() >= LocBinders.size())
      return L.isVar() && L.varIndex() >= LocBinders.size()
                 ? Loc::var(L.varIndex() -
                            static_cast<uint32_t>(LocBinders.size()))
                 : L;
    return LocBinders[LocBinders.size() - 1 - L.varIndex()];
  }

  static Error err(const std::string &Msg) { return Error(Msg); }

  //===--------------------------------------------------------------------===//
  // Stack helpers
  //===--------------------------------------------------------------------===//

  /// Number of operands visible to the current block.
  size_t depth(const State &St) const { return Stack.size() - St.Base; }

  Expected<TypeRef> popAny(State &St, const char *What) {
    if (Stack.size() <= St.Base)
      return err(std::string("stack underflow at ") + What);
    TypeRef T = Stack.back();
    Stack.pop_back();
    return T;
  }

  Status popExpect(State &St, TypeRef Want, const char *What) {
    if (Stack.size() <= St.Base)
      return err(std::string("stack underflow at ") + What);
    // Pointer equality on interned types; no Type copy on the hot path.
    if (!typeEquals(Stack.back(), Want))
      return err(std::string("type mismatch at ") + What + ": expected " +
                 printType(Want) + ", found " + printType(Stack.back()));
    Stack.pop_back();
    return Status::success();
  }

  Status popParams(State &St, const std::vector<Type> &Params,
                   const char *What) {
    for (size_t I = Params.size(); I > 0; --I)
      if (Status S = popExpect(St, Params[I - 1], What); !S)
        return S;
    return Status::success();
  }

  void push(State &, TypeRef T) { Stack.push_back(T); }
  void pushAll(State &, const std::vector<Type> &Ts) {
    for (const Type &T : Ts)
      Stack.push_back(T);
  }

  /// Borrows an owning type list (instruction arrows) for InfoMap notes.
  static std::vector<TypeRef> refs(const std::vector<Type> &Ts) {
    return std::vector<TypeRef>(Ts.begin(), Ts.end());
  }

  bool isUnr(Qual Q) const { return qualIsUnr(Q, F.Kinds); }
  bool isLin(Qual Q) const { return qualIsLin(Q, F.Kinds); }

  /// Whether an annotation for \p I should be recorded at all: an InfoMap
  /// was requested and the lowering consults this instruction kind. Call
  /// sites gate on this *before* materializing the operand/result vectors.
  bool noteNeeded(const Inst &I) const {
    return IM && infoConsumedByLowering(I.kind());
  }

  /// Records operand/result annotations for the lowering (borrowed views;
  /// see the InfoMap lifetime contract in Checker.h).
  void note(const Inst &I, std::vector<TypeRef> Operands,
            std::vector<TypeRef> Results) {
    (*IM)[&I] = InstInfo{std::move(Operands), std::move(Results)};
  }

  //===--------------------------------------------------------------------===//
  // Locals
  //===--------------------------------------------------------------------===//

  static bool localsEqual(const LocalEnv &A, const LocalEnv &B) {
    // Shared buffers are immutable while shared (the COW invariant), so
    // handle identity decides almost every comparison in O(1).
    if (A.sameBuffer(B))
      return true;
    if (A.size() != B.size())
      return false;
    for (size_t I = 0; I < A.size(); ++I)
      if (!typeEquals(A[I].T, B[I].T) || A[I].Slot != B[I].Slot)
        return false;
    return true;
  }

  Expected<LocalEnv> applyEffects(const LocalEnv &L,
                                  const std::vector<LocalEffect> &Fx) {
    LocalEnv Out = L; // Shared until an effect actually changes a slot.
    for (const LocalEffect &E : Fx) {
      if (E.LocalIdx >= Out.size())
        return err("local effect names out-of-range slot " +
                   std::to_string(E.LocalIdx));
      if (Status S = wfType(E.T, F.Kinds); !S)
        return S.error();
      if (!leqSize(sizeOfType(E.T, F.Kinds), Out[E.LocalIdx].Slot, F.Kinds))
        return err("local effect type does not fit slot " +
                   std::to_string(E.LocalIdx));
      if (!typeEquals(Out[E.LocalIdx].T, E.T))
        Out.mut(E.LocalIdx).T = E.T;
    }
    return Out;
  }

  //===--------------------------------------------------------------------===//
  // Blocks and branching
  //===--------------------------------------------------------------------===//

  /// Checks one block body under a fresh label. The body runs on the
  /// shared operand stack: its params (plus ExtraStack values, e.g. the
  /// payload of a case arm) are pushed in place and its floor is the
  /// current height, so no stack is copied. On return the stack is
  /// truncated back to the outer height — the caller pushes the results.
  Status checkBlockBody(State &Outer, const ArrowType &TF,
                        const LocalEnv &LPrime, const InstVec &Body,
                        bool IsLoop, const TypeRef *ExtraStack = nullptr) {
    // All values remaining below this block must keep their qualifiers in
    // mind when someone branches past the block: record whether they are
    // all unrestricted (the paper's F.linear head "lock-in"). Values below
    // the *outer* block's floor are covered by that block's own label flag.
    bool BelowUnr = true;
    for (size_t I = Outer.Base, N = Stack.size(); I < N; ++I)
      if (!isUnr(Stack[I].Q))
        BelowUnr = false;

    LabelEntry E;
    E.Results = IsLoop ? &TF.Params : &TF.Results;
    E.Locals = IsLoop ? Outer.Locals : LPrime;
    E.Height = BelowUnr ? 1 : 0; // Reused as the all-unr flag; see brCheck.
    F.Labels.push_back(std::move(E));

    State Inner;
    Inner.Base = Stack.size();
    for (const Type &T : TF.Params)
      Stack.push_back(T);
    if (ExtraStack)
      Stack.push_back(*ExtraStack);
    Inner.Locals = Outer.Locals; // Shared; body forks on first write.

    Status S = checkSeq(Body, Inner);
    F.Labels.pop_back();
    if (!S)
      return S;

    if (!Inner.Unreachable) {
      // The body must leave exactly the results and the prescribed locals.
      size_t Left = Stack.size() - Inner.Base;
      if (Left != TF.Results.size())
        return err("block body leaves " + std::to_string(Left) +
                   " values, expected " + std::to_string(TF.Results.size()));
      for (size_t I = 0; I < TF.Results.size(); ++I)
        if (!typeEquals(Stack[Inner.Base + I], TF.Results[I]))
          return err("block body result " + std::to_string(I) +
                     " has type " + printType(Stack[Inner.Base + I]) +
                     ", expected " + printType(TF.Results[I]));
      if (!localsEqual(Inner.Locals, LPrime))
        return err("block body's final locals disagree with its local "
                   "effects annotation");
    }
    Stack.truncate(Inner.Base);
    return Status::success();
  }

  /// Common checks for br/br_if/br_table to label depth \p D: the target's
  /// result types must be on top of the stack; every value that unwinding
  /// would drop must be unrestricted; locals must agree with the target's
  /// view. Destructive = values are consumed (br / taken br_table).
  Status brCheck(State &St, uint32_t D, bool Destructive, const char *What) {
    if (D >= F.Labels.size())
      return err(std::string(What) + " targets label " + std::to_string(D) +
                 " but only " + std::to_string(F.Labels.size()) +
                 " labels are in scope");
    const LabelEntry &Target = F.Labels[F.Labels.size() - 1 - D];
    const std::vector<Type> &Results = *Target.Results;
    if (depth(St) < Results.size())
      return err(std::string(What) + ": stack underflow for label results");
    size_t Base = Stack.size() - Results.size();
    for (size_t I = 0; I < Results.size(); ++I)
      if (!typeEquals(Stack[Base + I], Results[I]))
        return err(std::string(What) + ": stack does not match label " +
                   std::to_string(D) + " result types");
    // Everything below the results in this sequence is dropped.
    for (size_t I = St.Base; I < Base; ++I)
      if (!isUnr(Stack[I].Q))
        return err(std::string(What) +
                   " would drop a linear value on the stack");
    // Segments locked under the labels we unwind through must be all-unr.
    for (uint32_t I = 0; I < D; ++I)
      if (F.Labels[F.Labels.size() - 1 - I].Height == 0)
        return err(std::string(What) +
                   " would drop a linear value locked under label " +
                   std::to_string(I));
    if (!localsEqual(St.Locals, Target.Locals))
      return err(std::string(What) + ": locals disagree with label " +
                 std::to_string(D) + "'s view of the local environment");
    if (Destructive)
      St.Unreachable = true;
    return Status::success();
  }

  //===--------------------------------------------------------------------===//
  // The big dispatch
  //===--------------------------------------------------------------------===//

  Status checkInst(const Inst &I, State &St);
  Status checkNumeric(const Inst &I, State &St);
  Status checkCallLike(const Inst &I, State &St);
  Status checkHeap(const Inst &I, State &St);
};

//===----------------------------------------------------------------------===//
// Numeric instructions
//===----------------------------------------------------------------------===//

Status CheckerImpl::checkNumeric(const Inst &I, State &St) {
  switch (I.kind()) {
  case InstKind::NumConst: {
    const auto *C = cast<NumConstInst>(&I);
    TypeRef T = numCached(C->numType());
    if (noteNeeded(I))
      note(I, {}, {T});
    push(St, T);
    return Status::success();
  }
  case InstKind::NumUnop: {
    const auto *U = cast<NumUnopInst>(&I);
    if (isIntType(U->numType()) != isIntUnop(U->op()))
      return err("unary operator does not match numeric type");
    TypeRef T = numCached(U->numType());
    if (Status S = popExpect(St, T, "unop"); !S)
      return S;
    if (noteNeeded(I))
      note(I, {T}, {T});
    push(St, T);
    return Status::success();
  }
  case InstKind::NumBinop: {
    const auto *B = cast<NumBinopInst>(&I);
    if (isIntType(B->numType()) && isFloatOnlyBinop(B->op()))
      return err("float operator applied at integer type");
    if (isFloatType(B->numType()) && isIntOnlyBinop(B->op()))
      return err("integer operator applied at float type");
    TypeRef T = numCached(B->numType());
    if (Status S = popExpect(St, T, "binop"); !S)
      return S;
    if (Status S = popExpect(St, T, "binop"); !S)
      return S;
    if (noteNeeded(I))
      note(I, {T, T}, {T});
    push(St, T);
    return Status::success();
  }
  case InstKind::NumTestop: {
    const auto *T = cast<NumTestopInst>(&I);
    if (!isIntType(T->numType()))
      return err("testop requires an integer type");
    TypeRef In = numCached(T->numType());
    if (Status S = popExpect(St, In, "testop"); !S)
      return S;
    if (noteNeeded(I))
      note(I, {In}, {i32Cached()});
    push(St, i32Cached());
    return Status::success();
  }
  case InstKind::NumRelop: {
    const auto *R = cast<NumRelopInst>(&I);
    TypeRef In = numCached(R->numType());
    if (Status S = popExpect(St, In, "relop"); !S)
      return S;
    if (Status S = popExpect(St, In, "relop"); !S)
      return S;
    if (noteNeeded(I))
      note(I, {In, In}, {i32Cached()});
    push(St, i32Cached());
    return Status::success();
  }
  case InstKind::NumCvt: {
    const auto *C = cast<NumCvtInst>(&I);
    if (C->op() == CvtopKind::Reinterpret &&
        numTypeBits(C->from()) != numTypeBits(C->to()))
      return err("reinterpret requires same-width types");
    TypeRef In = numCached(C->from());
    TypeRef Out = numCached(C->to());
    if (Status S = popExpect(St, In, "cvtop"); !S)
      return S;
    if (noteNeeded(I))
      note(I, {In}, {Out});
    push(St, Out);
    return Status::success();
  }
  default:
    return err("not a numeric instruction");
  }
}

//===----------------------------------------------------------------------===//
// Calls, coderefs, instantiation
//===----------------------------------------------------------------------===//

Status CheckerImpl::checkCallLike(const Inst &I, State &St) {
  switch (I.kind()) {
  case InstKind::CoderefI: {
    const auto *C = cast<CoderefInst>(&I);
    if (C->funcIndex() >= Env.Table.size())
      return err("coderef index " + std::to_string(C->funcIndex()) +
                 " out of table range");
    TypeRef T(coderefPT(Env.Table[C->funcIndex()]).get(), Qual::unr());
    if (noteNeeded(I))
      note(I, {}, {T});
    push(St, T);
    return Status::success();
  }
  case InstKind::InstIdx: {
    const auto *II = cast<InstIdxInst>(&I);
    Expected<TypeRef> T = popAny(St, "inst");
    if (!T)
      return T.error();
    const auto *CR = dyn_cast<CoderefPT>(T->P);
    if (!CR)
      return err("inst expects a coderef on the stack");
    const FunType &FT = *CR->funType();
    size_t N = II->args().size();
    if (N > FT.quants().size())
      return err("inst provides more indices than the coderef quantifies");
    if (Status S = checkInstantiation(F.Kinds, FT, II->args(), N); !S)
      return S;
    // Partially instantiate: strip the first N quantifiers.
    std::vector<Quant> Rest(FT.quants().begin() + static_cast<ptrdiff_t>(N),
                            FT.quants().end());
    FunTypeRef Trunc = FunType::get(std::move(Rest), FT.arrow());
    Subst Sub = Subst::fromIndices(II->args());
    FunTypeRef NewFT = Sub.rewrite(Trunc);
    TypeRef Out(coderefPT(NewFT).get(), T->Q);
    if (noteNeeded(I))
      note(I, {*T}, {Out});
    push(St, Out);
    return Status::success();
  }
  case InstKind::CallIndirect: {
    Expected<TypeRef> T = popAny(St, "call_indirect");
    if (!T)
      return T.error();
    const auto *CR = dyn_cast<CoderefPT>(T->P);
    if (!CR)
      return err("call_indirect expects a coderef on the stack");
    const FunType &FT = *CR->funType();
    if (!FT.quants().empty())
      return err("call_indirect requires a fully instantiated coderef");
    if (Status S = popParams(St, FT.arrow().Params, "call_indirect"); !S)
      return S;
    if (noteNeeded(I)) {
      std::vector<TypeRef> Ops = refs(FT.arrow().Params);
      Ops.push_back(*T);
      note(I, std::move(Ops), refs(FT.arrow().Results));
    }
    pushAll(St, FT.arrow().Results);
    return Status::success();
  }
  case InstKind::Call: {
    const auto *C = cast<CallInst>(&I);
    if (C->funcIndex() >= Env.Funcs.size())
      return err("call of unknown function " + std::to_string(C->funcIndex()));
    const FunType &FT = *Env.Funcs[C->funcIndex()];
    if (C->args().size() != FT.quants().size())
      return err("call instantiates " + std::to_string(C->args().size()) +
                 " of " + std::to_string(FT.quants().size()) + " quantifiers");
    if (Status S = checkInstantiation(F.Kinds, FT, C->args(), C->args().size());
        !S)
      return S;
    // Monomorphic calls (the common case) use the declared arrow in place;
    // only an actual instantiation materializes a substituted copy.
    ArrowType Subbed;
    const ArrowType &Arrow =
        C->args().empty() ? FT.arrow()
                          : (Subbed = instantiateFunType(FT, C->args()));
    if (Status S = popParams(St, Arrow.Params, "call"); !S)
      return S;
    if (noteNeeded(I))
      note(I, refs(Arrow.Params), refs(Arrow.Results));
    pushAll(St, Arrow.Results);
    return Status::success();
  }
  default:
    return err("not a call-like instruction");
  }
}

//===----------------------------------------------------------------------===//
// Main dispatch
//===----------------------------------------------------------------------===//

Status CheckerImpl::checkInst(const Inst &I, State &St) {
  switch (I.kind()) {
  case InstKind::NumConst:
  case InstKind::NumUnop:
  case InstKind::NumBinop:
  case InstKind::NumTestop:
  case InstKind::NumRelop:
  case InstKind::NumCvt:
    return checkNumeric(I, St);

  case InstKind::Unreachable:
    St.Unreachable = true;
    return Status::success();
  case InstKind::Nop:
    return Status::success();
  case InstKind::Drop: {
    Expected<TypeRef> T = popAny(St, "drop");
    if (!T)
      return T.error();
    if (!isUnr(T->Q))
      return err("drop of a linear value of type " + printType(*T));
    if (noteNeeded(I))
      note(I, {*T}, {});
    return Status::success();
  }
  case InstKind::Select: {
    if (Status S = popExpect(St, i32Cached(), "select"); !S)
      return S;
    Expected<TypeRef> T2 = popAny(St, "select");
    if (!T2)
      return T2.error();
    Expected<TypeRef> T1 = popAny(St, "select");
    if (!T1)
      return T1.error();
    if (!typeEquals(*T1, *T2))
      return err("select operands disagree: " + printType(*T1) + " vs " +
                 printType(*T2));
    if (!isUnr(T1->Q))
      return err("select would drop a linear value");
    if (noteNeeded(I))
      note(I, {*T1, *T2, i32Cached()}, {*T1});
    push(St, *T1);
    return Status::success();
  }

  case InstKind::Block: {
    const auto *B = cast<BlockInst>(&I);
    if (Status S = popParams(St, B->arrow().Params, "block"); !S)
      return S;
    Expected<LocalEnv> LP = applyEffects(St.Locals, B->effects());
    if (!LP)
      return LP.error();
    if (Status S = checkBlockBody(St, B->arrow(), *LP, B->body(),
                                  /*IsLoop=*/false);
        !S)
      return S;
    St.Locals = *LP;
    if (noteNeeded(I))
      note(I, refs(B->arrow().Params), refs(B->arrow().Results));
    pushAll(St, B->arrow().Results);
    return Status::success();
  }
  case InstKind::Loop: {
    const auto *L = cast<LoopInst>(&I);
    if (Status S = popParams(St, L->arrow().Params, "loop"); !S)
      return S;
    // A loop body must restore the local environment it entered with.
    if (Status S = checkBlockBody(St, L->arrow(), St.Locals, L->body(),
                                  /*IsLoop=*/true);
        !S)
      return S;
    if (noteNeeded(I))
      note(I, refs(L->arrow().Params), refs(L->arrow().Results));
    pushAll(St, L->arrow().Results);
    return Status::success();
  }
  case InstKind::If: {
    const auto *FI = cast<IfInst>(&I);
    if (Status S = popExpect(St, i32Cached(), "if"); !S)
      return S;
    if (Status S = popParams(St, FI->arrow().Params, "if"); !S)
      return S;
    Expected<LocalEnv> LP = applyEffects(St.Locals, FI->effects());
    if (!LP)
      return LP.error();
    if (Status S = checkBlockBody(St, FI->arrow(), *LP, FI->thenBody(),
                                  /*IsLoop=*/false);
        !S)
      return S;
    if (Status S = checkBlockBody(St, FI->arrow(), *LP, FI->elseBody(),
                                  /*IsLoop=*/false);
        !S)
      return S;
    St.Locals = *LP;
    if (noteNeeded(I))
      note(I, refs(FI->arrow().Params), refs(FI->arrow().Results));
    pushAll(St, FI->arrow().Results);
    return Status::success();
  }
  case InstKind::Br:
    return brCheck(St, cast<BrInst>(&I)->depth(), /*Destructive=*/true, "br");
  case InstKind::BrIf: {
    if (Status S = popExpect(St, i32Cached(), "br_if"); !S)
      return S;
    return brCheck(St, cast<BrInst>(&I)->depth(), /*Destructive=*/false,
                   "br_if");
  }
  case InstKind::BrTable: {
    const auto *B = cast<BrTableInst>(&I);
    if (Status S = popExpect(St, i32Cached(), "br_table"); !S)
      return S;
    for (uint32_t D : B->depths())
      if (Status S = brCheck(St, D, /*Destructive=*/false, "br_table"); !S)
        return S;
    if (Status S =
            brCheck(St, B->defaultDepth(), /*Destructive=*/true, "br_table");
        !S)
      return S;
    return Status::success();
  }
  case InstKind::Return: {
    if (!F.Return)
      return err("return outside of a function");
    if (depth(St) < F.Return->size())
      return err("return: stack underflow");
    size_t Base = Stack.size() - F.Return->size();
    for (size_t J = 0; J < F.Return->size(); ++J)
      if (!typeEquals(Stack[Base + J], (*F.Return)[J]))
        return err("return value type mismatch");
    for (size_t J = St.Base; J < Base; ++J)
      if (!isUnr(Stack[J].Q))
        return err("return would drop a linear value on the stack");
    for (const LabelEntry &E : F.Labels)
      if (E.Height == 0)
        return err("return would drop a linear value locked under a label");
    for (const LocalSlotRef &L : St.Locals)
      if (!isUnr(L.T.Q))
        return err("return with a linear value still in a local");
    St.Unreachable = true;
    return Status::success();
  }

  case InstKind::GetLocal: {
    const auto *G = cast<GetLocalInst>(&I);
    if (G->index() >= St.Locals.size())
      return err("get_local " + std::to_string(G->index()) + " out of range");
    const LocalSlotRef &Slot = St.Locals[G->index()];
    if (Slot.T.Q != G->qual())
      return err("get_local qualifier annotation " + G->qual().str() +
                 " disagrees with slot qualifier " + Slot.T.Q.str());
    TypeRef Out = Slot.T;
    if (isUnr(Slot.T.Q)) {
      // Copy; slot keeps its type — the environment is untouched, so a
      // shared buffer stays shared.
    } else {
      // Move; the slot reverts to unrestricted unit.
      St.Locals.mut(G->index()).T = unitCached();
    }
    if (noteNeeded(I))
      note(I, {}, {Out});
    push(St, Out);
    return Status::success();
  }
  case InstKind::SetLocal: {
    const auto *SI = cast<VarIdxInst>(&I);
    if (SI->index() >= St.Locals.size())
      return err("set_local " + std::to_string(SI->index()) + " out of range");
    Expected<TypeRef> T = popAny(St, "set_local");
    if (!T)
      return T.error();
    const LocalSlotRef &Slot = St.Locals[SI->index()];
    if (!isUnr(Slot.T.Q))
      return err("set_local would drop the linear value in slot " +
                 std::to_string(SI->index()));
    if (!leqSize(sizeOfType(*T, F.Kinds), Slot.Slot, F.Kinds))
      return err("set_local: value of type " + printType(*T) +
                 " does not fit slot of size " + Slot.Slot->str());
    // Writing the type the slot already holds is a no-op on the abstract
    // environment — skip the COW fork entirely.
    if (!typeEquals(Slot.T, *T))
      St.Locals.mut(SI->index()).T = *T;
    if (noteNeeded(I))
      note(I, {*T}, {});
    return Status::success();
  }
  case InstKind::TeeLocal: {
    const auto *TI = cast<VarIdxInst>(&I);
    if (TI->index() >= St.Locals.size())
      return err("tee_local " + std::to_string(TI->index()) + " out of range");
    Expected<TypeRef> T = popAny(St, "tee_local");
    if (!T)
      return T.error();
    if (!isUnr(T->Q))
      return err("tee_local duplicates a linear value");
    const LocalSlotRef &Slot = St.Locals[TI->index()];
    if (!isUnr(Slot.T.Q))
      return err("tee_local would drop the linear value in slot " +
                 std::to_string(TI->index()));
    if (!leqSize(sizeOfType(*T, F.Kinds), Slot.Slot, F.Kinds))
      return err("tee_local: value does not fit the slot");
    if (!typeEquals(Slot.T, *T))
      St.Locals.mut(TI->index()).T = *T;
    if (noteNeeded(I))
      note(I, {*T}, {*T});
    push(St, *T);
    return Status::success();
  }
  case InstKind::GetGlobal: {
    const auto *G = cast<VarIdxInst>(&I);
    if (G->index() >= Env.Globals.size())
      return err("get_global " + std::to_string(G->index()) + " out of range");
    TypeRef T(Env.Globals[G->index()].P.get(), Qual::unr());
    if (noteNeeded(I))
      note(I, {}, {T});
    push(St, T);
    return Status::success();
  }
  case InstKind::SetGlobal: {
    const auto *G = cast<VarIdxInst>(&I);
    if (G->index() >= Env.Globals.size())
      return err("set_global " + std::to_string(G->index()) + " out of range");
    const ModuleEnv::GlobalTy &GT = Env.Globals[G->index()];
    if (!GT.Mut)
      return err("set_global of immutable global " +
                 std::to_string(G->index()));
    Expected<TypeRef> T = popAny(St, "set_global");
    if (!T)
      return T.error();
    if (T->P != GT.P.get())
      return err("set_global type mismatch");
    if (!isUnr(T->Q))
      return err("globals hold unrestricted values only");
    if (noteNeeded(I))
      note(I, {*T}, {});
    return Status::success();
  }
  case InstKind::Qualify: {
    const auto *Q = cast<QualifyInst>(&I);
    if (Status S = wfQual(Q->qual(), F.Kinds); !S)
      return S;
    Expected<TypeRef> T = popAny(St, "qualify");
    if (!T)
      return T.error();
    if (!leqQual(T->Q, Q->qual(), F.Kinds))
      return err("qualify can only strengthen the qualifier upward");
    TypeRef Out(T->P, Q->qual());
    if (Status S = wfType(Out, F.Kinds); !S)
      return S;
    if (noteNeeded(I))
      note(I, {*T}, {Out});
    push(St, Out);
    return Status::success();
  }

  case InstKind::CoderefI:
  case InstKind::InstIdx:
  case InstKind::CallIndirect:
  case InstKind::Call:
    return checkCallLike(I, St);

  case InstKind::RecFold: {
    const auto *RF = cast<RecFoldInst>(&I);
    const auto *Rec = dyn_cast<RecPT>(RF->pretype());
    if (!Rec)
      return err("rec.fold annotation is not a recursive pretype");
    if (Status S = wfPretypeAt(RF->pretype(), Rec->body().Q, F.Kinds); !S)
      return S;
    Subst Sub = Subst::onePretype(RF->pretype());
    Type Unfolded = Sub.rewrite(Rec->body());
    if (Status S = popExpect(St, Unfolded, "rec.fold"); !S)
      return S;
    TypeRef Out(RF->pretype().get(), Rec->body().Q);
    if (noteNeeded(I))
      note(I, {Unfolded}, {Out});
    push(St, Out);
    return Status::success();
  }
  case InstKind::RecUnfold: {
    Expected<TypeRef> T = popAny(St, "rec.unfold");
    if (!T)
      return T.error();
    const auto *Rec = dyn_cast<RecPT>(T->P);
    if (!Rec)
      return err("rec.unfold expects a recursive type");
    Subst Sub = Subst::onePretype(T->P->shared_from_this());
    Type Out = Sub.rewrite(Rec->body());
    if (noteNeeded(I))
      note(I, {*T}, {Out});
    push(St, Out);
    return Status::success();
  }
  case InstKind::MemPack: {
    const auto *MP = cast<MemPackInst>(&I);
    Loc Target = resolveLoc(MP->loc());
    if (Status S = wfLoc(Target, F.Kinds); !S)
      return S;
    Expected<TypeRef> T = popAny(St, "mem.pack");
    if (!T)
      return T.error();
    AbstractLoc Abs(Target);
    PretypeRef Body = Abs.TypeRewriter::rewrite(T->P->shared_from_this());
    TypeRef Out(exLocPT(Type(Body, T->Q)).get(), T->Q);
    if (noteNeeded(I))
      note(I, {*T}, {Out});
    push(St, Out);
    return Status::success();
  }
  case InstKind::MemUnpack: {
    const auto *MU = cast<MemUnpackInst>(&I);
    Expected<TypeRef> T = popAny(St, "mem.unpack");
    if (!T)
      return T.error();
    const auto *Ex = dyn_cast<ExLocPT>(T->P);
    if (!Ex)
      return err("mem.unpack expects an existential-location package");
    if (Status S = popParams(St, MU->arrow().Params, "mem.unpack"); !S)
      return S;
    Expected<LocalEnv> LP = applyEffects(St.Locals, MU->effects());
    if (!LP)
      return LP.error();
    uint64_t SkId = NextSkolem++;
    Subst Sub = Subst::oneLoc(Loc::skolem(SkId));
    Type Opened = Sub.rewrite(Ex->body());
    TypeRef OpenedRef = Opened;
    LocBinders.push_back(Loc::skolem(SkId));
    Status BodySt = checkBlockBody(St, MU->arrow(), *LP, MU->body(),
                                   /*IsLoop=*/false, &OpenedRef);
    LocBinders.pop_back();
    if (!BodySt)
      return BodySt;
    for (const Type &R : MU->arrow().Results)
      if (typeHasLocSkolem(R, SkId))
        return err("mem.unpack: abstract location escapes in a result type");
    for (const LocalSlotRef &L : *LP)
      if (typeHasLocSkolem(L.T, SkId))
        return err("mem.unpack: abstract location escapes in a local");
    St.Locals = *LP;
    if (noteNeeded(I)) {
      std::vector<TypeRef> Ops = refs(MU->arrow().Params);
      Ops.push_back(*T);
      note(I, std::move(Ops), refs(MU->arrow().Results));
    }
    pushAll(St, MU->arrow().Results);
    return Status::success();
  }

  case InstKind::Group: {
    const auto *G = cast<GroupInst>(&I);
    if (Status S = wfQual(G->qual(), F.Kinds); !S)
      return S;
    if (depth(St) < G->count())
      return err("seq.group: stack underflow");
    const TypeRef *Elems = Stack.end() - G->count();
    for (size_t J = 0; J < G->count(); ++J)
      if (!leqQual(Elems[J].Q, G->qual(), F.Kinds))
        return err("seq.group: component qualifier exceeds tuple qualifier");
    TypeRef Out(TypeArena::current().prodSpan(Elems, G->count()).get(),
                G->qual());
    if (noteNeeded(I))
      note(I, std::vector<TypeRef>(Elems, Elems + G->count()), {Out});
    Stack.truncate(Stack.size() - G->count());
    push(St, Out);
    return Status::success();
  }
  case InstKind::Ungroup: {
    Expected<TypeRef> T = popAny(St, "seq.ungroup");
    if (!T)
      return T.error();
    const auto *P = dyn_cast<ProdPT>(T->P);
    if (!P)
      return err("seq.ungroup expects a tuple");
    if (noteNeeded(I))
      note(I, {*T}, refs(P->elems()));
    pushAll(St, P->elems());
    return Status::success();
  }

  case InstKind::CapSplit: {
    Expected<TypeRef> T = popAny(St, "cap.split");
    if (!T)
      return T.error();
    const auto *C = dyn_cast<CapPT>(T->P);
    if (!C || C->privilege() != Privilege::RW)
      return err("cap.split expects a read-write capability");
    TypeRef RCap(capPT(Privilege::R, C->loc(), C->heapType()).get(), T->Q);
    TypeRef Own(ownPT(C->loc()).get(), T->Q);
    if (noteNeeded(I))
      note(I, {*T}, {RCap, Own});
    push(St, RCap);
    push(St, Own);
    return Status::success();
  }
  case InstKind::CapJoin: {
    Expected<TypeRef> TOwn = popAny(St, "cap.join");
    if (!TOwn)
      return TOwn.error();
    Expected<TypeRef> TCap = popAny(St, "cap.join");
    if (!TCap)
      return TCap.error();
    const auto *O = dyn_cast<OwnPT>(TOwn->P);
    const auto *C = dyn_cast<CapPT>(TCap->P);
    if (!O || !C || C->privilege() != Privilege::R)
      return err("cap.join expects a read capability and an ownership token");
    if (C->loc() != O->loc())
      return err("cap.join: capability and ownership token disagree on the "
                 "location");
    TypeRef Out(capPT(Privilege::RW, C->loc(), C->heapType()).get(),
                TCap->Q);
    if (noteNeeded(I))
      note(I, {*TCap, *TOwn}, {Out});
    push(St, Out);
    return Status::success();
  }
  case InstKind::RefDemote: {
    Expected<TypeRef> T = popAny(St, "ref.demote");
    if (!T)
      return T.error();
    const auto *R = dyn_cast<RefPT>(T->P);
    if (!R || R->privilege() != Privilege::RW)
      return err("ref.demote expects a read-write reference");
    TypeRef Out(refPT(Privilege::R, R->loc(), R->heapType()).get(), T->Q);
    if (noteNeeded(I))
      note(I, {*T}, {Out});
    push(St, Out);
    return Status::success();
  }
  case InstKind::RefSplit: {
    Expected<TypeRef> T = popAny(St, "ref.split");
    if (!T)
      return T.error();
    const auto *R = dyn_cast<RefPT>(T->P);
    if (!R)
      return err("ref.split expects a reference");
    TypeRef Cap(capPT(R->privilege(), R->loc(), R->heapType()).get(), T->Q);
    TypeRef Ptr(ptrPT(R->loc()).get(), Qual::unr());
    if (noteNeeded(I))
      note(I, {*T}, {Cap, Ptr});
    push(St, Cap);
    push(St, Ptr);
    return Status::success();
  }
  case InstKind::RefJoin: {
    Expected<TypeRef> TPtr = popAny(St, "ref.join");
    if (!TPtr)
      return TPtr.error();
    Expected<TypeRef> TCap = popAny(St, "ref.join");
    if (!TCap)
      return TCap.error();
    const auto *P = dyn_cast<PtrPT>(TPtr->P);
    const auto *C = dyn_cast<CapPT>(TCap->P);
    if (!P || !C)
      return err("ref.join expects a capability and a pointer");
    if (P->loc() != C->loc())
      return err("ref.join: capability and pointer disagree on the location");
    TypeRef Out(refPT(C->privilege(), C->loc(), C->heapType()).get(),
                TCap->Q);
    if (noteNeeded(I))
      note(I, {*TCap, *TPtr}, {Out});
    push(St, Out);
    return Status::success();
  }

  default:
    return checkHeap(I, St);
  }
}

//===----------------------------------------------------------------------===//
// Heap instructions
//===----------------------------------------------------------------------===//

Status CheckerImpl::checkHeap(const Inst &I, State &St) {
  switch (I.kind()) {
  case InstKind::StructMalloc: {
    const auto *SM = cast<StructMallocInst>(&I);
    if (Status S = wfQual(SM->qual(), F.Kinds); !S)
      return S;
    size_t N = SM->sizes().size();
    if (depth(St) < N)
      return err("struct.malloc: stack underflow");
    const TypeRef *Fields = Stack.end() - N;
    ScratchFields.clear();
    for (size_t J = 0; J < N; ++J) {
      if (Status S = wfSize(SM->sizes()[J], F.Kinds); !S)
        return S;
      if (!leqSize(sizeOfType(Fields[J], F.Kinds), SM->sizes()[J], F.Kinds))
        return err("struct.malloc: field " + std::to_string(J) +
                   " does not fit its declared slot");
      if (!noCaps(Fields[J], F.Kinds))
        return err("struct.malloc: capabilities cannot be stored on the heap");
      ScratchFields.push_back({Fields[J], SM->sizes()[J].get()});
    }
    TypeRef Ref(refPT(Privilege::RW, Loc::var(0),
                      TypeArena::current().structureSpan(
                          ScratchFields.begin(), ScratchFields.size()))
                    .get(),
                SM->qual());
    TypeRef Out(exLocPT(Ref.own()).get(), SM->qual());
    if (noteNeeded(I))
      note(I, std::vector<TypeRef>(Stack.end() - N, Stack.end()), {Out});
    Stack.truncate(Stack.size() - N);
    push(St, Out);
    return Status::success();
  }

  case InstKind::StructFree:
  case InstKind::ArrayFree: {
    Expected<TypeRef> T = popAny(St, "free");
    if (!T)
      return T.error();
    const auto *R = dyn_cast<RefPT>(T->P);
    if (!R || R->privilege() != Privilege::RW)
      return err("free expects a read-write reference");
    if (!isLin(T->Q))
      return err("free of a non-linear reference");
    if (R->loc().isConcrete() && R->loc().mem() != MemKind::Lin)
      return err("free of an unrestricted-memory reference");
    if (noteNeeded(I))
      note(I, {*T}, {});
    return Status::success();
  }

  case InstKind::StructGet: {
    const auto *SG = cast<StructIdxInst>(&I);
    if (depth(St) == 0)
      return err("struct.get: stack underflow");
    const TypeRef &RefT = Stack.back();
    const auto *R = dyn_cast<RefPT>(RefT.P);
    const StructHT *H = R ? dyn_cast<StructHT>(R->heapType()) : nullptr;
    if (!H)
      return err("struct.get expects a struct reference");
    if (SG->fieldIndex() >= H->structFields().size())
      return err("struct.get: field index out of range");
    const Type &FieldT = H->structFields()[SG->fieldIndex()].T;
    if (!isUnr(FieldT.Q))
      return err("struct.get of a linear field (use struct.swap)");
    if (noteNeeded(I))
      note(I, {RefT}, {RefT, FieldT});
    push(St, FieldT);
    return Status::success();
  }

  case InstKind::StructSet:
  case InstKind::StructSwap: {
    const auto *SS = cast<StructIdxInst>(&I);
    bool IsSwap = I.kind() == InstKind::StructSwap;
    const char *Name = IsSwap ? "struct.swap" : "struct.set";
    Expected<TypeRef> NewT = popAny(St, Name);
    if (!NewT)
      return NewT.error();
    if (depth(St) == 0)
      return err(std::string(Name) + ": stack underflow");
    TypeRef RefT = Stack.back();
    const auto *R = dyn_cast<RefPT>(RefT.P);
    const StructHT *H = R ? dyn_cast<StructHT>(R->heapType()) : nullptr;
    if (!H)
      return err(std::string(Name) + " expects a struct reference");
    if (R->privilege() != Privilege::RW)
      return err(std::string(Name) + " requires write privilege");
    if (SS->fieldIndex() >= H->structFields().size())
      return err(std::string(Name) + ": field index out of range");
    const StructField &Field = H->structFields()[SS->fieldIndex()];
    if (!IsSwap && !isUnr(Field.T.Q))
      return err("struct.set would drop the linear value in the field");
    if (!leqSize(sizeOfType(*NewT, F.Kinds), Field.Slot, F.Kinds))
      return err(std::string(Name) + ": new value does not fit the slot");
    if (!noCaps(*NewT, F.Kinds))
      return err(std::string(Name) +
                 ": capabilities cannot be stored on the heap");
    // Strong updates only through linear references; unrestricted cells
    // admit type-preserving updates only.
    bool SameFieldType = typeEquals(*NewT, Field.T);
    if (!isLin(RefT.Q) && !SameFieldType)
      return err(std::string(Name) +
                 ": strong update through a non-linear reference");
    TypeRef NewRef = RefT;
    if (!SameFieldType) {
      // Only a genuinely strong update changes the reference type; a
      // type-preserving write reuses the canonical node outright.
      std::vector<StructField> NewFields = H->structFields();
      NewFields[SS->fieldIndex()].T = NewT->own();
      NewRef = TypeRef(
          refPT(Privilege::RW, R->loc(), structHT(NewFields)).get(), RefT.Q);
    }
    Stack.back() = NewRef;
    if (IsSwap) {
      if (noteNeeded(I))
        note(I, {RefT, *NewT}, {NewRef, Field.T});
      push(St, Field.T);
    } else {
      if (noteNeeded(I))
        note(I, {RefT, *NewT}, {NewRef});
    }
    return Status::success();
  }

  case InstKind::VariantMalloc: {
    const auto *VM = cast<VariantMallocInst>(&I);
    if (Status S = wfQual(VM->qual(), F.Kinds); !S)
      return S;
    if (VM->tag() >= VM->cases().size())
      return err("variant.malloc: tag out of range");
    for (const Type &T : VM->cases()) {
      if (Status S = wfType(T, F.Kinds); !S)
        return S;
      if (!noCaps(T, F.Kinds))
        return err("variant.malloc: capabilities cannot be stored on the "
                   "heap");
    }
    if (Status S = popExpect(St, VM->cases()[VM->tag()], "variant.malloc");
        !S)
      return S;
    TypeRef Ref(refPT(Privilege::RW, Loc::var(0),
                      TypeArena::current().variantSpan(VM->cases().data(),
                                                       VM->cases().size()))
                    .get(),
                VM->qual());
    TypeRef Out(exLocPT(Ref.own()).get(), VM->qual());
    if (noteNeeded(I))
      note(I, {VM->cases()[VM->tag()]}, {Out});
    push(St, Out);
    return Status::success();
  }

  case InstKind::VariantCase: {
    const auto *VC = cast<VariantCaseInst>(&I);
    const auto *H = dyn_cast<VariantHT>(VC->heapType());
    if (!H)
      return err("variant.case annotation is not a variant heap type");
    if (VC->arms().size() != H->cases().size())
      return err("variant.case: arm count disagrees with the variant");
    if (Status S = popParams(St, VC->arrow().Params, "variant.case"); !S)
      return S;
    Expected<TypeRef> RefT = popAny(St, "variant.case");
    if (!RefT)
      return RefT.error();
    const auto *R = dyn_cast<RefPT>(RefT->P);
    if (!R || !heapTypeEquals(*R->heapType(), *H))
      return err("variant.case: reference does not match the annotated "
                 "variant type");
    Expected<LocalEnv> LP = applyEffects(St.Locals, VC->effects());
    if (!LP)
      return LP.error();

    bool LinMode = isLin(VC->qual());
    if (LinMode) {
      if (!isLin(RefT->Q))
        return err("linear variant.case on a non-linear reference");
      if (R->privilege() != Privilege::RW)
        return err("linear variant.case requires write privilege to free");
    } else {
      if (!isUnr(VC->qual()))
        return err("variant.case qualifier must be concrete-intent (unr or "
                   "lin)");
      for (const Type &CT : H->cases())
        if (!isUnr(CT.Q))
          return err("unrestricted variant.case over linear case types");
    }

    // Each arm receives the params plus its case payload. While an arm
    // runs, an unrestricted case keeps the (possibly linear) reference
    // locked beneath the block, so account for it in the drop discipline.
    if (!LinMode)
      push(St, *RefT);
    for (size_t A = 0; A < VC->arms().size(); ++A) {
      TypeRef CaseT = H->cases()[A];
      if (Status S = checkBlockBody(St, VC->arrow(), *LP, VC->arms()[A],
                                    /*IsLoop=*/false, &CaseT);
          !S)
        return Error("in arm " + std::to_string(A) + ": " +
                     S.error().message());
    }
    if (!LinMode)
      Stack.pop_back();

    St.Locals = *LP;
    if (!LinMode)
      push(St, *RefT);
    pushAll(St, VC->arrow().Results);
    if (noteNeeded(I)) {
      std::vector<TypeRef> Ops = refs(VC->arrow().Params);
      Ops.push_back(*RefT);
      std::vector<TypeRef> Res;
      if (!LinMode)
        Res.push_back(*RefT);
      for (const Type &T : VC->arrow().Results)
        Res.push_back(T);
      note(I, std::move(Ops), std::move(Res));
    }
    return Status::success();
  }

  case InstKind::ArrayMalloc: {
    const auto *AM = cast<ArrayMallocInst>(&I);
    if (Status S = wfQual(AM->qual(), F.Kinds); !S)
      return S;
    Expected<TypeRef> Len = popAny(St, "array.malloc");
    if (!Len)
      return Len.error();
    const auto *N = dyn_cast<NumPT>(Len->P);
    if (!N || numTypeBits(N->numType()) != 32 || !isIntType(N->numType()))
      return err("array.malloc expects a 32-bit integer length");
    Expected<TypeRef> Init = popAny(St, "array.malloc");
    if (!Init)
      return Init.error();
    if (!isUnr(Init->Q))
      return err("array.malloc replicates its initializer, which must be "
                 "unrestricted");
    if (!noCaps(*Init, F.Kinds))
      return err("array.malloc: capabilities cannot be stored on the heap");
    TypeRef Ref(
        refPT(Privilege::RW, Loc::var(0), arrayHT(Init->own())).get(),
        AM->qual());
    TypeRef Out(exLocPT(Ref.own()).get(), AM->qual());
    if (noteNeeded(I))
      note(I, {*Init, *Len}, {Out});
    push(St, Out);
    return Status::success();
  }
  case InstKind::ArrayGet: {
    Expected<TypeRef> Idx = popAny(St, "array.get");
    if (!Idx)
      return Idx.error();
    if (!isa<NumPT>(Idx->P))
      return err("array.get expects an integer index");
    if (depth(St) == 0)
      return err("array.get: stack underflow");
    const TypeRef &RefT = Stack.back();
    const auto *R = dyn_cast<RefPT>(RefT.P);
    const ArrayHT *H = R ? dyn_cast<ArrayHT>(R->heapType()) : nullptr;
    if (!H)
      return err("array.get expects an array reference");
    if (!isUnr(H->elem().Q))
      return err("array.get of linear elements");
    if (noteNeeded(I))
      note(I, {RefT, *Idx}, {RefT, H->elem()});
    push(St, H->elem());
    return Status::success();
  }
  case InstKind::ArraySet: {
    Expected<TypeRef> NewT = popAny(St, "array.set");
    if (!NewT)
      return NewT.error();
    Expected<TypeRef> Idx = popAny(St, "array.set");
    if (!Idx)
      return Idx.error();
    if (!isa<NumPT>(Idx->P))
      return err("array.set expects an integer index");
    if (depth(St) == 0)
      return err("array.set: stack underflow");
    const TypeRef &RefT = Stack.back();
    const auto *R = dyn_cast<RefPT>(RefT.P);
    const ArrayHT *H = R ? dyn_cast<ArrayHT>(R->heapType()) : nullptr;
    if (!H)
      return err("array.set expects an array reference");
    if (R->privilege() != Privilege::RW)
      return err("array.set requires write privilege");
    if (!typeEquals(*NewT, H->elem()))
      return err("array.set: arrays support type-preserving updates only");
    if (!isUnr(NewT->Q))
      return err("array.set would drop the previous (linear) element");
    if (noteNeeded(I))
      note(I, {RefT, *Idx, *NewT}, {RefT});
    return Status::success();
  }

  case InstKind::ExistPack: {
    const auto *EP = cast<ExistPackInst>(&I);
    const auto *H = dyn_cast<ExHT>(EP->heapType());
    if (!H)
      return err("exist.pack annotation is not an existential heap type");
    if (Status S = wfQual(EP->qual(), F.Kinds); !S)
      return S;
    if (Status S = wfHeapType(EP->heapType(), F.Kinds); !S)
      return S;
    if (Status S = wfPretypeAt(EP->witness(), H->qualLower(), F.Kinds); !S)
      return S;
    if (!leqSize(ir::sizeOfPretype(EP->witness(), typeVarSizes(F.Kinds)),
                 H->sizeUpper(), F.Kinds))
      return err("exist.pack: witness exceeds the size bound");
    if (!noCapsPre(EP->witness(), F.Kinds))
      return err("exist.pack: capabilities cannot be stored on the heap");
    Subst Sub = Subst::onePretype(EP->witness());
    Type Expected = Sub.rewrite(H->body());
    if (Status S = popExpect(St, Expected, "exist.pack"); !S)
      return S;
    TypeRef Ref(refPT(Privilege::RW, Loc::var(0), EP->heapType()).get(),
                EP->qual());
    TypeRef Out(exLocPT(Ref.own()).get(), EP->qual());
    if (noteNeeded(I))
      note(I, {Expected}, {Out});
    push(St, Out);
    return Status::success();
  }

  case InstKind::ExistUnpack: {
    const auto *EU = cast<ExistUnpackInst>(&I);
    const auto *H = dyn_cast<ExHT>(EU->heapType());
    if (!H)
      return err("exist.unpack annotation is not an existential heap type");
    if (Status S = popParams(St, EU->arrow().Params, "exist.unpack"); !S)
      return S;
    Expected<TypeRef> RefT = popAny(St, "exist.unpack");
    if (!RefT)
      return RefT.error();
    const auto *R = dyn_cast<RefPT>(RefT->P);
    if (!R || !heapTypeEquals(*R->heapType(), *H))
      return err("exist.unpack: reference does not match the annotated "
                 "package type");
    Expected<LocalEnv> LP = applyEffects(St.Locals, EU->effects());
    if (!LP)
      return LP.error();

    bool LinMode = isLin(EU->qual());
    if (LinMode) {
      if (!isLin(RefT->Q))
        return err("linear exist.unpack on a non-linear reference");
      if (R->privilege() != Privilege::RW)
        return err("linear exist.unpack requires write privilege to free");
    } else if (!isUnr(EU->qual())) {
      return err("exist.unpack qualifier must be unr or lin");
    }

    uint64_t SkId = NextSkolem++;
    PretypeRef Sk =
        skolemPT(SkId, H->qualLower(), H->sizeUpper(), /*NoCaps=*/true);
    Subst Sub = Subst::onePretype(Sk);
    Type Opened = Sub.rewrite(H->body());
    TypeRef OpenedRef = Opened;

    if (!LinMode)
      push(St, *RefT);
    if (Status S = checkBlockBody(St, EU->arrow(), *LP, EU->body(),
                                  /*IsLoop=*/false, &OpenedRef);
        !S)
      return S;
    if (!LinMode)
      Stack.pop_back();

    for (const Type &T : EU->arrow().Results)
      if (typeHasTypeSkolem(T, SkId))
        return err("exist.unpack: abstract pretype escapes in a result type");
    for (const LocalSlotRef &L : *LP)
      if (typeHasTypeSkolem(L.T, SkId))
        return err("exist.unpack: abstract pretype escapes in a local");

    St.Locals = *LP;
    if (!LinMode)
      push(St, *RefT);
    pushAll(St, EU->arrow().Results);
    if (noteNeeded(I)) {
      std::vector<TypeRef> Ops = refs(EU->arrow().Params);
      Ops.push_back(*RefT);
      std::vector<TypeRef> Res;
      if (!LinMode)
        Res.push_back(*RefT);
      for (const Type &T : EU->arrow().Results)
        Res.push_back(T);
      note(I, std::move(Ops), std::move(Res));
    }
    return Status::success();
  }

  default:
    return err("unhandled instruction kind in checker");
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Instantiation checking
//===----------------------------------------------------------------------===//

Status rw::typing::checkInstantiation(const KindCtx &Kinds, const FunType &FT,
                                      const std::vector<Index> &Args,
                                      size_t Count) {
  assert(Count <= Args.size());
  for (size_t I = 0; I < Count; ++I) {
    const Quant &Q = FT.quants()[I];
    const Index &A = Args[I];
    if (Q.K != A.K)
      return Error("instantiation index " + std::to_string(I) +
                   " has the wrong kind");
    // Constraints mention earlier binders: substitute the earlier
    // arguments into them before checking entailment in the ambient
    // context.
    std::vector<Index> Prefix(Args.begin(),
                              Args.begin() + static_cast<ptrdiff_t>(I));
    Subst Sub = Subst::fromIndices(Prefix);
    switch (Q.K) {
    case QuantKind::Loc:
      if (Status S = wfLoc(A.L, Kinds); !S)
        return S;
      break;
    case QuantKind::Size: {
      if (!A.Sz)
        return Error("missing size index");
      if (Status S = wfSize(A.Sz, Kinds); !S)
        return S;
      for (const SizeRef &L : Q.SizeLower)
        if (!leqSize(Sub.rewrite(L), A.Sz, Kinds))
          return Error("size index violates its lower bound");
      for (const SizeRef &U : Q.SizeUpper)
        if (!leqSize(A.Sz, Sub.rewrite(U), Kinds))
          return Error("size index violates its upper bound");
      break;
    }
    case QuantKind::Qual: {
      if (Status S = wfQual(A.Q, Kinds); !S)
        return S;
      for (Qual L : Q.QualLower)
        if (!leqQual(Sub.rewrite(L), A.Q, Kinds))
          return Error("qualifier index violates its lower bound");
      for (Qual U : Q.QualUpper)
        if (!leqQual(A.Q, Sub.rewrite(U), Kinds))
          return Error("qualifier index violates its upper bound");
      break;
    }
    case QuantKind::Type: {
      if (!A.P)
        return Error("missing pretype index");
      Qual QLB = Sub.rewrite(Q.TypeQualLower);
      if (Status S = wfPretypeAt(A.P, QLB, Kinds); !S)
        return S;
      SizeRef Bound = Q.TypeSizeUpper ? Sub.rewrite(Q.TypeSizeUpper)
                                      : Size::constant(64);
      SizeRef ArgSize =
          A.P->freeBounds().Type == 0
              ? sizeOfPretype(A.P, {}) // Memoized; bounds never consulted.
              : sizeOfPretype(A.P, typeVarSizes(Kinds));
      if (!leqSize(ArgSize, Bound, Kinds))
        return Error("pretype index exceeds its size bound");
      if (Q.TypeNoCaps && !noCapsPre(A.P, Kinds))
        return Error("pretype index may not contain capabilities");
      break;
    }
    }
  }
  return Status::success();
}

//===----------------------------------------------------------------------===//
// Public entry points
//===----------------------------------------------------------------------===//

Expected<typing::SeqResult> rw::typing::checkSeq(
    const ModuleEnv &Env, const KindCtx &Kinds,
    const std::optional<std::vector<Type>> &Ret, LocalCtx Locals,
    std::vector<Type> StackIn, const InstVec &Insts, InfoMap *IM) {
  CheckerImpl C(Env, Kinds, Ret ? &*Ret : nullptr, IM);
  // StackIn stays alive (and owning) for the whole check; the checker
  // stack borrows from it.
  for (const Type &T : StackIn)
    C.Stack.push_back(T);
  CheckerImpl::State St;
  St.Locals = LocalEnv(Locals);
  if (Status S = C.checkSeq(Insts, St); !S)
    return S.error();
  // Results cross the public ownership boundary: re-own them.
  std::vector<Type> OutStack;
  OutStack.reserve(C.Stack.size());
  for (const TypeRef &T : C.Stack)
    OutStack.push_back(T.own());
  return typing::SeqResult{std::move(OutStack), St.Locals.materialize()};
}

Status rw::typing::checkFunction(const ModuleEnv &Env, const Function &Fn,
                                 InfoMap *IM) {
  static obs::Counter FunctionsChecked("typing.functions_checked");
  FunctionsChecked.inc();
  if (!Fn.Ty)
    return Error("function has no type");
  if (Status S = wfFunType(*Fn.Ty, KindCtx()); !S)
    return S;
  if (Fn.isImport())
    return Status::success();

  KindCtx Kinds = buildKindCtx(Fn.Ty->quants());
  CheckerImpl C(Env, Kinds, &Fn.Ty->arrow().Results, IM);

  // Build the borrowed local environment directly: parameter types are
  // owned by the function's declared type, slot sizes by the arena.
  support::SmallVec<LocalSlotRef, 16> Locals;
  for (const Type &P : Fn.Ty->arrow().Params)
    Locals.push_back({P, typing::sizeOfType(P, Kinds)});
  for (const SizeRef &Sz : Fn.Locals) {
    if (Status S = wfSize(Sz, Kinds); !S)
      return S;
    Locals.push_back({unitT(), Sz.get()});
  }
  CheckerImpl::State St;
  St.Locals = LocalEnv(Locals.begin(), Locals.size());

  if (Status S = C.checkSeq(Fn.Body, St); !S)
    return S;

  if (!St.Unreachable) {
    const std::vector<Type> &Want = Fn.Ty->arrow().Results;
    if (C.Stack.size() != Want.size())
      return Error("function body leaves " + std::to_string(C.Stack.size()) +
                   " values, expected " + std::to_string(Want.size()));
    for (size_t I = 0; I < Want.size(); ++I)
      if (!typeEquals(C.Stack[I], Want[I]))
        return Error("function result " + std::to_string(I) +
                     " has type " + printType(C.Stack[I]) + ", expected " +
                     printType(Want[I]));
    for (const LocalSlotRef &L : St.Locals)
      if (!qualIsUnr(L.T.Q, Kinds))
        return Error("function ends with a linear value in a local");
  }
  return Status::success();
}

Status rw::typing::detail::checkTableEntries(const Module &M) {
  for (uint32_t Idx : M.Tab.Entries)
    if (Idx >= M.Funcs.size())
      return Error("table entry " + std::to_string(Idx) + " out of range");
  return Status::success();
}

Status rw::typing::detail::checkGlobalsAndStart(const Module &M,
                                                const ModuleEnv &Env,
                                                InfoMap *IM) {
  for (size_t I = 0; I < M.Globals.size(); ++I) {
    const Global &G = M.Globals[I];
    if (!G.P)
      return Error("global " + std::to_string(I) + " has no pretype");
    if (Status S = wfPretypeAt(G.P, Qual::unr(), KindCtx()); !S)
      return Error("in global " + std::to_string(I) + ": " +
                   S.error().message());
    if (G.isImport())
      continue;
    Expected<SeqResult> R = checkSeq(Env, KindCtx(), std::nullopt, {}, {},
                                     G.Init, IM);
    if (!R)
      return Error("in global " + std::to_string(I) + " initializer: " +
                   R.error().message());
    if (R->Stack.size() != 1 || !pretypeEquals(*R->Stack[0].P, *G.P))
      return Error("global " + std::to_string(I) +
                   " initializer does not produce the declared type");
  }

  if (M.Start) {
    if (*M.Start >= M.Funcs.size())
      return Error("start function index out of range");
    const FunType &FT = *M.Funcs[*M.Start].Ty;
    if (!FT.quants().empty() || !FT.arrow().Params.empty() ||
        !FT.arrow().Results.empty())
      return Error("start function must have type [] -> []");
  }
  return Status::success();
}

Status rw::typing::checkModule(const Module &M, InfoMap *IM) {
  OBS_SPAN("check_module", M.Funcs.size());
  static obs::Counter ModulesChecked("typing.modules_checked");
  ModulesChecked.inc();
  // Checker working-state allocation seam: the failure is reported like
  // any judgment failure and the admission is cleanly rejected.
  if (RW_FAULT_POINT(rw::support::fault::Seam::CheckAlloc))
    return Error("injected allocation failure in checkModule");
  // Intern every type the judgments build into the module's arena, so the
  // canonical-pointer equality guarantee spans the whole check.
  ArenaScope Scope(M.Arena ? *M.Arena : TypeArena::global());
  if (Status S = detail::checkTableEntries(M); !S)
    return S;
  ModuleEnv Env = buildModuleEnv(M);

  for (size_t I = 0; I < M.Funcs.size(); ++I)
    if (Status S = checkFunction(Env, M.Funcs[I], IM); !S)
      return Error("in function " + std::to_string(I) + ": " +
                   S.error().message());

  return detail::checkGlobalsAndStart(M, Env, IM);
}
