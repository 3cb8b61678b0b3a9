//===- typing/WellFormed.cpp - Type well-formedness -----------------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "typing/WellFormed.h"

#include "ir/Print.h"
#include "ir/TypeArena.h"
#include "typing/Entail.h"

using namespace rw;
using namespace rw::typing;
using namespace rw::ir;

namespace {

/// Whether wf of \p P at qualifier \p OuterQ is independent of the ambient
/// context: no free variables of any kind, and a concrete outer qualifier.
/// (Skolem bounds that mention variables are covered by the free bounds.)
bool wfIsContextFree(const Pretype &P, Qual OuterQ) {
  const FreeBounds &FB = P.freeBounds();
  return OuterQ.isConst() && FB.Loc == 0 && FB.Size == 0 && FB.Qual == 0 &&
         FB.Type == 0;
}

} // namespace

Status rw::typing::wfQual(Qual Q, const KindCtx &Ctx) {
  if (Q.isVar() && Q.varIndex() >= Ctx.Quals.size())
    return Error("qualifier variable δ" + std::to_string(Q.varIndex()) +
                 " out of scope");
  return Status::success();
}

Status rw::typing::wfSize(const SizeRef &S, const KindCtx &Ctx) {
  if (!S)
    return Error("missing size expression");
  switch (S->kind()) {
  case Size::Kind::Const:
    return Status::success();
  case Size::Kind::Var:
    if (S->varIndex() >= Ctx.Sizes.size())
      return Error("size variable σ" + std::to_string(S->varIndex()) +
                   " out of scope");
    return Status::success();
  case Size::Kind::Plus:
    if (Status St = wfSize(S->lhs(), Ctx); !St)
      return St;
    return wfSize(S->rhs(), Ctx);
  }
  return Status::success();
}

Status rw::typing::wfLoc(const Loc &L, const KindCtx &Ctx) {
  if (L.isVar() && L.varIndex() >= Ctx.NumLocVars)
    return Error("location variable ρ" + std::to_string(L.varIndex()) +
                 " out of scope");
  return Status::success();
}

namespace {

/// True if pretype variable \p Idx occurs in \p T outside any reference,
/// pointer, capability, or code-reference constructor (i.e. in a position
/// that contributes to flat layout).
bool occursUnprotected(TypeRef T, uint32_t Idx);

bool occursUnprotectedPre(const Pretype *P, uint32_t Idx) {
  switch (P->kind()) {
  case PretypeKind::Var:
    return cast<VarPT>(P)->index() == Idx;
  case PretypeKind::Prod:
    for (const Type &E : cast<ProdPT>(P)->elems())
      if (occursUnprotected(E, Idx))
        return true;
    return false;
  case PretypeKind::Rec:
    return occursUnprotected(cast<RecPT>(P)->body(), Idx + 1);
  case PretypeKind::ExLoc:
    return occursUnprotected(cast<ExLocPT>(P)->body(), Idx);
  default:
    // unit, num, skolem, ref, ptr, cap, own, coderef: either no type
    // subterms or all subterms are behind an indirection/erased construct.
    return false;
  }
}

bool occursUnprotected(TypeRef T, uint32_t Idx) {
  return occursUnprotectedPre(T.P, Idx);
}

/// Memory-privilege coherence for a reference-like pretype: linear-memory
/// cells are accessed through linear references; unrestricted cells through
/// unrestricted ones.
Status checkRefQual(const Loc &L, Qual Q, const KindCtx &Ctx) {
  if (!L.isConcrete())
    return Status::success();
  if (L.mem() == MemKind::Lin && !qualIsLin(Q, Ctx))
    return Error("reference to linear memory must be linear");
  if (L.mem() == MemKind::Unr && !qualIsUnr(Q, Ctx))
    return Error("reference to unrestricted memory must be unrestricted");
  return Status::success();
}

} // namespace

Status rw::typing::wfPretypeAt(const Pretype *P, Qual OuterQ,
                               const KindCtx &Ctx) {
  if (!P)
    return Error("missing pretype");
  // Context-independent judgments are memoized per canonical node in the
  // owning arena (successes only).
  const bool Memoizable = P->arena() && wfIsContextFree(*P, OuterQ);
  if (Memoizable && P->arena()->isKnownWfPretype(P, OuterQ.isLinConst()))
    return Status::success();
  Status Result = wfPretypeAtUncached(P, OuterQ, Ctx);
  if (Memoizable && Result)
    P->arena()->noteWfPretype(P, OuterQ.isLinConst());
  return Result;
}

Status rw::typing::wfPretypeAtUncached(const Pretype *P, Qual OuterQ,
                                       const KindCtx &Ctx) {
  switch (P->kind()) {
  case PretypeKind::Unit:
  case PretypeKind::Num:
    return Status::success();
  case PretypeKind::Var: {
    uint32_t Idx = cast<VarPT>(P)->index();
    if (Idx >= Ctx.Types.size())
      return Error("pretype variable α" + std::to_string(Idx) +
                   " out of scope");
    if (!leqQual(Ctx.Types[Idx].QualLower, OuterQ, Ctx))
      return Error("pretype variable α" + std::to_string(Idx) +
                   " used below its qualifier lower bound");
    return Status::success();
  }
  case PretypeKind::Skolem: {
    const auto *Sk = cast<SkolemPT>(P);
    if (!leqQual(Sk->qualLower(), OuterQ, Ctx))
      return Error("abstract pretype used below its qualifier lower bound");
    return Status::success();
  }
  case PretypeKind::Prod: {
    for (const Type &E : cast<ProdPT>(P)->elems()) {
      if (!leqQual(E.Q, OuterQ, Ctx))
        return Error("tuple component qualifier " + E.Q.str() +
                     " exceeds tuple qualifier " + OuterQ.str());
      if (Status St = wfType(E, Ctx); !St)
        return St;
    }
    return Status::success();
  }
  case PretypeKind::Ref: {
    const auto *R = cast<RefPT>(P);
    if (Status St = wfLoc(R->loc(), Ctx); !St)
      return St;
    if (Status St = checkRefQual(R->loc(), OuterQ, Ctx); !St)
      return St;
    return wfHeapType(R->heapType(), Ctx);
  }
  case PretypeKind::Cap: {
    const auto *C = cast<CapPT>(P);
    if (Status St = wfLoc(C->loc(), Ctx); !St)
      return St;
    return wfHeapType(C->heapType(), Ctx);
  }
  case PretypeKind::Ptr:
    return wfLoc(cast<PtrPT>(P)->loc(), Ctx);
  case PretypeKind::Own:
    return wfLoc(cast<OwnPT>(P)->loc(), Ctx);
  case PretypeKind::Rec: {
    const auto *R = cast<RecPT>(P);
    if (Status St = wfQual(R->bound(), Ctx); !St)
      return St;
    if (R->body().Q != R->bound())
      return Error("rec body qualifier must equal the rec bound");
    if (occursUnprotected(R->body(), 0))
      return Error("recursive type variable occurs outside an indirection");
    KindCtx Inner = Ctx;
    Inner.Types.insert(Inner.Types.begin(),
                       TypeBound{R->bound(), Size::constant(64), true});
    return wfType(R->body(), Inner);
  }
  case PretypeKind::ExLoc: {
    KindCtx Inner = Ctx;
    ++Inner.NumLocVars;
    return wfType(cast<ExLocPT>(P)->body(), Inner);
  }
  case PretypeKind::Coderef:
    return wfFunType(*cast<CoderefPT>(P)->funType(), Ctx);
  }
  return Status::success();
}

Status rw::typing::wfType(TypeRef T, const KindCtx &Ctx) {
  if (!T.valid())
    return Error("missing type");
  if (Status St = wfQual(T.Q, Ctx); !St)
    return St;
  return wfPretypeAt(T.P, T.Q, Ctx);
}

Status rw::typing::wfHeapType(const HeapType *H, const KindCtx &Ctx) {
  if (!H)
    return Error("missing heap type");
  switch (H->kind()) {
  case HeapTypeKind::Variant:
    for (const Type &T : cast<VariantHT>(H)->cases())
      if (Status St = wfType(T, Ctx); !St)
        return St;
    return Status::success();
  case HeapTypeKind::Struct:
    for (const StructField &F : cast<StructHT>(H)->structFields()) {
      if (Status St = wfType(F.T, Ctx); !St)
        return St;
      if (Status St = wfSize(F.Slot, Ctx); !St)
        return St;
      if (!leqSize(typing::sizeOfType(F.T, Ctx), F.Slot, Ctx))
        return Error("struct field type does not fit its declared slot");
    }
    return Status::success();
  case HeapTypeKind::Array:
    return wfType(cast<ArrayHT>(H)->elem(), Ctx);
  case HeapTypeKind::Ex: {
    const auto *E = cast<ExHT>(H);
    if (Status St = wfQual(E->qualLower(), Ctx); !St)
      return St;
    if (Status St = wfSize(E->sizeUpper(), Ctx); !St)
      return St;
    KindCtx Inner = Ctx;
    Inner.Types.insert(Inner.Types.begin(),
                       TypeBound{E->qualLower(), E->sizeUpper(), true});
    return wfType(E->body(), Inner);
  }
  }
  return Status::success();
}

KindCtx rw::typing::stackKindCtx(const std::vector<Quant> &Quants,
                                 const KindCtx &Ambient) {
  KindCtx Own = buildKindCtx(Quants);
  Own.Quals.insert(Own.Quals.end(), Ambient.Quals.begin(),
                   Ambient.Quals.end());
  Own.Sizes.insert(Own.Sizes.end(), Ambient.Sizes.begin(),
                   Ambient.Sizes.end());
  Own.Types.insert(Own.Types.end(), Ambient.Types.begin(),
                   Ambient.Types.end());
  Own.NumLocVars += Ambient.NumLocVars;
  return Own;
}

Status rw::typing::wfFunType(const FunType &F, const KindCtx &Ambient) {
  // A closed function type checked under an empty ambient context is a
  // per-node judgment; with hash-consing, all occurrences share one node.
  const FreeBounds &FB = F.freeBounds();
  const bool Memoizable =
      F.arena() && Ambient.Quals.empty() && Ambient.Sizes.empty() &&
      Ambient.Types.empty() && Ambient.NumLocVars == 0 && FB.Loc == 0 &&
      FB.Size == 0 && FB.Qual == 0 && FB.Type == 0;
  if (Memoizable && F.arena()->isKnownWfFun(&F))
    return Status::success();
  KindCtx Ctx = stackKindCtx(F.quants(), Ambient);
  // The (re-indexed) constraints themselves must be well-scoped.
  for (const QualBound &B : Ctx.Quals) {
    for (Qual Q : B.Lower)
      if (Status St = wfQual(Q, Ctx); !St)
        return St;
    for (Qual Q : B.Upper)
      if (Status St = wfQual(Q, Ctx); !St)
        return St;
  }
  for (const SizeBound &B : Ctx.Sizes) {
    for (const SizeRef &S : B.Lower)
      if (Status St = wfSize(S, Ctx); !St)
        return St;
    for (const SizeRef &S : B.Upper)
      if (Status St = wfSize(S, Ctx); !St)
        return St;
  }
  for (const TypeBound &B : Ctx.Types) {
    if (Status St = wfQual(B.QualLower, Ctx); !St)
      return St;
    if (B.SizeUpper)
      if (Status St = wfSize(B.SizeUpper, Ctx); !St)
        return St;
  }
  for (const Type &T : F.arrow().Params)
    if (Status St = wfType(T, Ctx); !St)
      return Error(St.error().message() + " (in parameter of " +
                   printFunType(F) + ")");
  for (const Type &T : F.arrow().Results)
    if (Status St = wfType(T, Ctx); !St)
      return Error(St.error().message() + " (in result of " +
                   printFunType(F) + ")");
  if (Memoizable)
    F.arena()->noteWfFun(&F);
  return Status::success();
}
