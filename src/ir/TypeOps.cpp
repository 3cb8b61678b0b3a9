//===- ir/TypeOps.cpp - Equality, sizes, no_caps, op names ---------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/TypeOps.h"

#include "ir/TypeArena.h"

#include <cassert>

using namespace rw;
using namespace rw::ir;

//===----------------------------------------------------------------------===//
// Shallow equality over interned children (arrow/quant are value types)
//===----------------------------------------------------------------------===//

static bool typesEqual(const std::vector<Type> &A, const std::vector<Type> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0, E = A.size(); I != E; ++I)
    if (!typeEquals(A[I], B[I]))
      return false;
  return true;
}

bool rw::ir::arrowEquals(const ArrowType &A, const ArrowType &B) {
  return typesEqual(A.Params, B.Params) && typesEqual(A.Results, B.Results);
}

static bool sizesEqual(const std::vector<SizeRef> &A,
                       const std::vector<SizeRef> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0, E = A.size(); I != E; ++I)
    if (!sizeEquals(A[I], B[I]))
      return false;
  return true;
}

bool rw::ir::quantEquals(const Quant &A, const Quant &B) {
  if (A.K != B.K)
    return false;
  switch (A.K) {
  case QuantKind::Loc:
    return true;
  case QuantKind::Size:
    return sizesEqual(A.SizeLower, B.SizeLower) &&
           sizesEqual(A.SizeUpper, B.SizeUpper);
  case QuantKind::Qual:
    return A.QualLower == B.QualLower && A.QualUpper == B.QualUpper;
  case QuantKind::Type:
    return A.TypeQualLower == B.TypeQualLower &&
           sizeEquals(A.TypeSizeUpper, B.TypeSizeUpper) &&
           A.TypeNoCaps == B.TypeNoCaps;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Deep-structural equality — reference implementations (tests only)
//===----------------------------------------------------------------------===//

static bool structuralSizeRefEquals(const SizeRef &A, const SizeRef &B) {
  if (A.get() == B.get())
    return true;
  if (!A || !B)
    return false;
  return structuralSizeEquals(A, B);
}

bool rw::ir::structuralTypeEquals(const Type &A, const Type &B) {
  if (A.Q != B.Q)
    return false;
  return structuralPretypeEquals(*A.P, *B.P);
}

static bool structuralTypesEqual(const std::vector<Type> &A,
                                 const std::vector<Type> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0, E = A.size(); I != E; ++I)
    if (!structuralTypeEquals(A[I], B[I]))
      return false;
  return true;
}

static bool structuralSizesEqual(const std::vector<SizeRef> &A,
                                 const std::vector<SizeRef> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0, E = A.size(); I != E; ++I)
    if (!structuralSizeRefEquals(A[I], B[I]))
      return false;
  return true;
}

bool rw::ir::structuralArrowEquals(const ArrowType &A, const ArrowType &B) {
  return structuralTypesEqual(A.Params, B.Params) &&
         structuralTypesEqual(A.Results, B.Results);
}

bool rw::ir::structuralQuantEquals(const Quant &A, const Quant &B) {
  if (A.K != B.K)
    return false;
  switch (A.K) {
  case QuantKind::Loc:
    return true;
  case QuantKind::Size:
    return structuralSizesEqual(A.SizeLower, B.SizeLower) &&
           structuralSizesEqual(A.SizeUpper, B.SizeUpper);
  case QuantKind::Qual:
    return A.QualLower == B.QualLower && A.QualUpper == B.QualUpper;
  case QuantKind::Type:
    return A.TypeQualLower == B.TypeQualLower &&
           structuralSizeRefEquals(A.TypeSizeUpper, B.TypeSizeUpper) &&
           A.TypeNoCaps == B.TypeNoCaps;
  }
  return false;
}

bool rw::ir::structuralFunTypeEquals(const FunType &A, const FunType &B) {
  if (A.quants().size() != B.quants().size())
    return false;
  for (size_t I = 0, E = A.quants().size(); I != E; ++I)
    if (!structuralQuantEquals(A.quants()[I], B.quants()[I]))
      return false;
  return structuralArrowEquals(A.arrow(), B.arrow());
}

bool rw::ir::structuralHeapTypeEquals(const HeapType &A, const HeapType &B) {
  if (A.kind() != B.kind())
    return false;
  switch (A.kind()) {
  case HeapTypeKind::Variant:
    return structuralTypesEqual(cast<VariantHT>(&A)->cases(),
                                cast<VariantHT>(&B)->cases());
  case HeapTypeKind::Struct: {
    const auto &FA = cast<StructHT>(&A)->structFields();
    const auto &FB = cast<StructHT>(&B)->structFields();
    if (FA.size() != FB.size())
      return false;
    for (size_t I = 0, E = FA.size(); I != E; ++I)
      if (!structuralTypeEquals(FA[I].T, FB[I].T) ||
          !structuralSizeRefEquals(FA[I].Slot, FB[I].Slot))
        return false;
    return true;
  }
  case HeapTypeKind::Array:
    return structuralTypeEquals(cast<ArrayHT>(&A)->elem(),
                                cast<ArrayHT>(&B)->elem());
  case HeapTypeKind::Ex: {
    const auto *EA = cast<ExHT>(&A);
    const auto *EB = cast<ExHT>(&B);
    return EA->qualLower() == EB->qualLower() &&
           structuralSizeRefEquals(EA->sizeUpper(), EB->sizeUpper()) &&
           structuralTypeEquals(EA->body(), EB->body());
  }
  }
  return false;
}

bool rw::ir::structuralPretypeEquals(const Pretype &A, const Pretype &B) {
  if (A.kind() != B.kind())
    return false;
  switch (A.kind()) {
  case PretypeKind::Unit:
    return true;
  case PretypeKind::Num:
    return cast<NumPT>(&A)->numType() == cast<NumPT>(&B)->numType();
  case PretypeKind::Var:
    return cast<VarPT>(&A)->index() == cast<VarPT>(&B)->index();
  case PretypeKind::Skolem: {
    // A skolem's identity is (id, binder constraints): the checker mints
    // fresh ids, but the lowering reuses id 0 with varying bounds, so the
    // bounds must participate — this is also exactly the intern key, which
    // is what keeps pointer equality ≡ structural equality.
    const auto *SA = cast<SkolemPT>(&A);
    const auto *SB = cast<SkolemPT>(&B);
    return SA->id() == SB->id() && SA->qualLower() == SB->qualLower() &&
           structuralSizeRefEquals(SA->sizeUpper(), SB->sizeUpper()) &&
           SA->noCaps() == SB->noCaps();
  }
  case PretypeKind::Prod:
    return structuralTypesEqual(cast<ProdPT>(&A)->elems(),
                                cast<ProdPT>(&B)->elems());
  case PretypeKind::Ref: {
    const auto *RA = cast<RefPT>(&A);
    const auto *RB = cast<RefPT>(&B);
    return RA->privilege() == RB->privilege() && RA->loc() == RB->loc() &&
           structuralHeapTypeEquals(*RA->heapType(), *RB->heapType());
  }
  case PretypeKind::Ptr:
    return cast<PtrPT>(&A)->loc() == cast<PtrPT>(&B)->loc();
  case PretypeKind::Cap: {
    const auto *CA = cast<CapPT>(&A);
    const auto *CB = cast<CapPT>(&B);
    return CA->privilege() == CB->privilege() && CA->loc() == CB->loc() &&
           structuralHeapTypeEquals(*CA->heapType(), *CB->heapType());
  }
  case PretypeKind::Own:
    return cast<OwnPT>(&A)->loc() == cast<OwnPT>(&B)->loc();
  case PretypeKind::Rec: {
    const auto *RA = cast<RecPT>(&A);
    const auto *RB = cast<RecPT>(&B);
    return RA->bound() == RB->bound() &&
           structuralTypeEquals(RA->body(), RB->body());
  }
  case PretypeKind::ExLoc:
    return structuralTypeEquals(cast<ExLocPT>(&A)->body(),
                                cast<ExLocPT>(&B)->body());
  case PretypeKind::Coderef:
    return structuralFunTypeEquals(*cast<CoderefPT>(&A)->funType(),
                                   *cast<CoderefPT>(&B)->funType());
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Size metafunction (memoized for closed pretypes)
//===----------------------------------------------------------------------===//

SizeRef rw::ir::detail::sizeOfPretypeRaw(const PretypeRef &P,
                                         const TypeVarSizes &Bounds) {
  assert(P && "sizing a null pretype");
  switch (P->kind()) {
  case PretypeKind::Unit:
  case PretypeKind::Cap:
  case PretypeKind::Own:
    return Size::constant(0);
  case PretypeKind::Num:
    return Size::constant(numTypeBits(cast<NumPT>(P.get())->numType()));
  case PretypeKind::Var: {
    uint32_t Idx = cast<VarPT>(P.get())->index();
    assert(Idx < Bounds.size() && "type variable out of scope in sizeOf");
    return Bounds[Idx];
  }
  case PretypeKind::Skolem:
    return cast<SkolemPT>(P.get())->sizeUpper();
  case PretypeKind::Prod: {
    SizeRef Acc = Size::constant(0);
    for (const Type &T : cast<ProdPT>(P.get())->elems())
      Acc = Size::plus(Acc, sizeOfType(T, Bounds));
    return Acc;
  }
  case PretypeKind::Ref:
  case PretypeKind::Ptr:
  case PretypeKind::Coderef:
    return Size::constant(64);
  case PretypeKind::Rec: {
    // The rec variable only occurs behind a reference (enforced by type
    // well-formedness), so any bound works; use one word.
    TypeVarSizes Inner;
    Inner.push_back(Size::constant(64));
    Inner.insert(Inner.end(), Bounds.begin(), Bounds.end());
    return sizeOfType(cast<RecPT>(P.get())->body(), Inner);
  }
  case PretypeKind::ExLoc:
    return sizeOfType(cast<ExLocPT>(P.get())->body(), Bounds);
  }
  return Size::constant(0);
}

SizeRef rw::ir::sizeOfPretype(const PretypeRef &P, const TypeVarSizes &Bounds) {
  assert(P && "sizing a null pretype");
  // A pretype with no free pretype variables has a context-independent
  // size: answer from the per-node cache in its owning arena. Open
  // pretypes recurse, with every closed subtree hitting this fast path.
  if (P->freeBounds().Type == 0 && P->arena())
    return P->arena()->closedSizeOf(P);
  return detail::sizeOfPretypeRaw(P, Bounds);
}

const Size *rw::ir::sizeOfPretypePtr(const Pretype *P,
                                     const TypeVarSizes &Bounds) {
  assert(P && "sizing a null pretype");
  // Borrowed fast path of the checker: the closed-pretype answer comes
  // straight from the per-node memo slot as a raw arena-owned pointer —
  // no shared_from_this, no refcount. Open pretypes (rare: bodies under
  // pretype quantifiers) fall back to the owning recursion; the result is
  // interned, so returning the raw pointer is safe under the TypeRef
  // lifetime contract.
  if (P->freeBounds().Type == 0 && P->arena())
    return P->arena()->closedSizePtr(P);
  return detail::sizeOfPretypeRaw(P->shared_from_this(), Bounds).get();
}

//===----------------------------------------------------------------------===//
// no_caps (answered from intern-time bits when context-independent)
//===----------------------------------------------------------------------===//

bool rw::ir::typeNoCaps(TypeRef T, const std::vector<bool> &VarNoCaps) {
  return pretypeNoCaps(T.P, VarNoCaps);
}

bool rw::ir::heapTypeNoCaps(const HeapType *H,
                            const std::vector<bool> &VarNoCaps) {
  if (!H->noCapsDependsOnVars())
    return H->noCapsIfAllVarsFree();
  switch (H->kind()) {
  case HeapTypeKind::Variant:
    for (const Type &T : cast<VariantHT>(H)->cases())
      if (!typeNoCaps(T, VarNoCaps))
        return false;
    return true;
  case HeapTypeKind::Struct:
    for (const StructField &F : cast<StructHT>(H)->structFields())
      if (!typeNoCaps(F.T, VarNoCaps))
        return false;
    return true;
  case HeapTypeKind::Array:
    return typeNoCaps(cast<ArrayHT>(H)->elem(), VarNoCaps);
  case HeapTypeKind::Ex: {
    const auto *E = cast<ExHT>(H);
    std::vector<bool> Inner;
    Inner.push_back(true); // The witness must itself be capability-free.
    Inner.insert(Inner.end(), VarNoCaps.begin(), VarNoCaps.end());
    return typeNoCaps(E->body(), Inner);
  }
  }
  return true;
}

bool rw::ir::pretypeNoCaps(const Pretype *P,
                           const std::vector<bool> &VarNoCaps) {
  if (!P->noCapsDependsOnVars())
    return P->noCapsIfAllVarsFree();
  switch (P->kind()) {
  case PretypeKind::Unit:
  case PretypeKind::Num:
  case PretypeKind::Ptr:
  case PretypeKind::Coderef:
    return true;
  case PretypeKind::Cap:
  case PretypeKind::Own:
    return false;
  case PretypeKind::Var: {
    uint32_t Idx = cast<VarPT>(P)->index();
    assert(Idx < VarNoCaps.size() && "type variable out of scope in no_caps");
    return VarNoCaps[Idx];
  }
  case PretypeKind::Skolem:
    return cast<SkolemPT>(P)->noCaps();
  case PretypeKind::Prod:
    for (const Type &T : cast<ProdPT>(P)->elems())
      if (!typeNoCaps(T, VarNoCaps))
        return false;
    return true;
  case PretypeKind::Ref:
    // A reference pairs its capability with its pointer, which is exactly
    // the form the paper allows in GC'd memory.
    return true;
  case PretypeKind::Rec: {
    std::vector<bool> Inner;
    Inner.push_back(true);
    Inner.insert(Inner.end(), VarNoCaps.begin(), VarNoCaps.end());
    return typeNoCaps(cast<RecPT>(P)->body(), Inner);
  }
  case PretypeKind::ExLoc:
    return typeNoCaps(cast<ExLocPT>(P)->body(), VarNoCaps);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Operator names
//===----------------------------------------------------------------------===//

const char *rw::ir::unopName(UnopKind K) {
  switch (K) {
  case UnopKind::Clz:
    return "clz";
  case UnopKind::Ctz:
    return "ctz";
  case UnopKind::Popcnt:
    return "popcnt";
  case UnopKind::Abs:
    return "abs";
  case UnopKind::Neg:
    return "neg";
  case UnopKind::Sqrt:
    return "sqrt";
  case UnopKind::Ceil:
    return "ceil";
  case UnopKind::Floor:
    return "floor";
  case UnopKind::Trunc:
    return "trunc";
  case UnopKind::Nearest:
    return "nearest";
  }
  return "?";
}

const char *rw::ir::binopName(BinopKind K) {
  switch (K) {
  case BinopKind::Add:
    return "add";
  case BinopKind::Sub:
    return "sub";
  case BinopKind::Mul:
    return "mul";
  case BinopKind::Div:
    return "div";
  case BinopKind::Rem:
    return "rem";
  case BinopKind::And:
    return "and";
  case BinopKind::Or:
    return "or";
  case BinopKind::Xor:
    return "xor";
  case BinopKind::Shl:
    return "shl";
  case BinopKind::Shr:
    return "shr";
  case BinopKind::Rotl:
    return "rotl";
  case BinopKind::Rotr:
    return "rotr";
  case BinopKind::Min:
    return "min";
  case BinopKind::Max:
    return "max";
  case BinopKind::Copysign:
    return "copysign";
  }
  return "?";
}

const char *rw::ir::relopName(RelopKind K) {
  switch (K) {
  case RelopKind::Eq:
    return "eq";
  case RelopKind::Ne:
    return "ne";
  case RelopKind::Lt:
    return "lt";
  case RelopKind::Gt:
    return "gt";
  case RelopKind::Le:
    return "le";
  case RelopKind::Ge:
    return "ge";
  }
  return "?";
}
