//===- ir/Rewrite.cpp - Shift and substitution implementations -----------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Rewrite.h"

#include <cassert>

using namespace rw;
using namespace rw::ir;

//===----------------------------------------------------------------------===//
// TypeRewriter traversal
//===----------------------------------------------------------------------===//

Qual TypeRewriter::rewrite(Qual Q) {
  if (Q.isVar())
    return onQualVar(Q.varIndex());
  return Q;
}

SizeRef TypeRewriter::rewrite(const SizeRef &S) {
  assert(S && "rewriting a null size");
  // Sizes only contain size variables; a size whose free bound is below
  // the current size depth (or a rewriter that never touches size
  // variables) passes through unchanged.
  if (MemoOn && (!ActSize || S->freeBound() <= SizeDepth))
    return S;
  switch (S->kind()) {
  case Size::Kind::Const:
    return S;
  case Size::Kind::Var:
    return onSizeVar(S->varIndex());
  case Size::Kind::Plus:
    return Size::plus(rewrite(S->lhs()), rewrite(S->rhs()));
  }
  return S;
}

Loc TypeRewriter::rewrite(const Loc &L) {
  if (L.isVar())
    return onLocVar(L.varIndex());
  return L;
}

Type TypeRewriter::rewrite(const Type &T) {
  return Type(rewrite(T.P), rewrite(T.Q));
}

PretypeRef TypeRewriter::rewrite(const PretypeRef &P) {
  assert(P && "rewriting a null pretype");
  if (MemoOn && unaffected(P->freeBounds(), P->flags()))
    return P;
  if (!memoUsable())
    return rewriteUncached(P);
  MemoKey K{P.get(), depthKey()};
  if (M)
    if (auto It = M->P.find(K); It != M->P.end())
      return It->second;
  uint64_t Before = ++Visits;
  PretypeRef R = rewriteUncached(P);
  // Memoize only subtrees whose rewrite did real work: caching a leaf-ish
  // node costs a map insert (an allocation) to save a two-node walk, which
  // is a net loss — and the checker's hot opens (mem.unpack, exist.unpack)
  // rewrite exactly such tiny trees.
  if (Visits - Before >= MemoMinVisits)
    memos().P.emplace(K, R);
  return R;
}

PretypeRef TypeRewriter::rewriteUncached(const PretypeRef &P) {
  switch (P->kind()) {
  case PretypeKind::Unit:
  case PretypeKind::Num:
  case PretypeKind::Skolem:
    return P;
  case PretypeKind::Var:
    return onTypeVar(cast<VarPT>(P.get())->index());
  case PretypeKind::Prod: {
    const auto *Prod = cast<ProdPT>(P.get());
    std::vector<Type> Elems;
    Elems.reserve(Prod->elems().size());
    for (const Type &T : Prod->elems())
      Elems.push_back(rewrite(T));
    return prodPT(std::move(Elems));
  }
  case PretypeKind::Ref: {
    const auto *R = cast<RefPT>(P.get());
    return refPT(R->privilege(), rewrite(R->loc()), rewrite(R->heapType()));
  }
  case PretypeKind::Ptr:
    return ptrPT(rewrite(cast<PtrPT>(P.get())->loc()));
  case PretypeKind::Cap: {
    const auto *C = cast<CapPT>(P.get());
    return capPT(C->privilege(), rewrite(C->loc()), rewrite(C->heapType()));
  }
  case PretypeKind::Own:
    return ownPT(rewrite(cast<OwnPT>(P.get())->loc()));
  case PretypeKind::Rec: {
    const auto *R = cast<RecPT>(P.get());
    Qual Bound = rewrite(R->bound());
    enterType();
    Type Body = rewrite(R->body());
    exitType();
    return recPT(Bound, std::move(Body));
  }
  case PretypeKind::ExLoc: {
    enterLoc();
    Type Body = rewrite(cast<ExLocPT>(P.get())->body());
    exitLoc();
    return exLocPT(std::move(Body));
  }
  case PretypeKind::Coderef:
    return coderefPT(rewrite(cast<CoderefPT>(P.get())->funType()));
  }
  return P;
}

HeapTypeRef TypeRewriter::rewrite(const HeapTypeRef &H) {
  assert(H && "rewriting a null heap type");
  if (MemoOn && unaffected(H->freeBounds(), H->flags()))
    return H;
  if (!memoUsable())
    return rewriteUncached(H);
  MemoKey K{H.get(), depthKey()};
  if (M)
    if (auto It = M->H.find(K); It != M->H.end())
      return It->second;
  uint64_t Before = ++Visits;
  HeapTypeRef R = rewriteUncached(H);
  if (Visits - Before >= MemoMinVisits)
    memos().H.emplace(K, R);
  return R;
}

HeapTypeRef TypeRewriter::rewriteUncached(const HeapTypeRef &H) {
  switch (H->kind()) {
  case HeapTypeKind::Variant: {
    const auto *V = cast<VariantHT>(H.get());
    std::vector<Type> Cases;
    Cases.reserve(V->cases().size());
    for (const Type &T : V->cases())
      Cases.push_back(rewrite(T));
    return variantHT(std::move(Cases));
  }
  case HeapTypeKind::Struct: {
    const auto *S = cast<StructHT>(H.get());
    std::vector<StructField> Fields;
    Fields.reserve(S->fields().size());
    for (const StructField &F : S->fields())
      Fields.push_back({rewrite(F.T), rewrite(F.Slot)});
    return structHT(std::move(Fields));
  }
  case HeapTypeKind::Array:
    return arrayHT(rewrite(cast<ArrayHT>(H.get())->elem()));
  case HeapTypeKind::Ex: {
    const auto *E = cast<ExHT>(H.get());
    Qual QL = rewrite(E->qualLower());
    SizeRef SU = rewrite(E->sizeUpper());
    enterType();
    Type Body = rewrite(E->body());
    exitType();
    return exHT(QL, std::move(SU), std::move(Body));
  }
  }
  return H;
}

ArrowType TypeRewriter::rewrite(const ArrowType &A) {
  ArrowType Out;
  Out.Params.reserve(A.Params.size());
  Out.Results.reserve(A.Results.size());
  for (const Type &T : A.Params)
    Out.Params.push_back(rewrite(T));
  for (const Type &T : A.Results)
    Out.Results.push_back(rewrite(T));
  return Out;
}

Quant TypeRewriter::rewrite(const Quant &Q) {
  Quant Out;
  Out.K = Q.K;
  switch (Q.K) {
  case QuantKind::Loc:
    break;
  case QuantKind::Size:
    for (const SizeRef &S : Q.SizeLower)
      Out.SizeLower.push_back(rewrite(S));
    for (const SizeRef &S : Q.SizeUpper)
      Out.SizeUpper.push_back(rewrite(S));
    break;
  case QuantKind::Qual:
    for (Qual X : Q.QualLower)
      Out.QualLower.push_back(rewrite(X));
    for (Qual X : Q.QualUpper)
      Out.QualUpper.push_back(rewrite(X));
    break;
  case QuantKind::Type:
    Out.TypeQualLower = rewrite(Q.TypeQualLower);
    Out.TypeSizeUpper = rewrite(Q.TypeSizeUpper);
    Out.TypeNoCaps = Q.TypeNoCaps;
    break;
  }
  return Out;
}

Index TypeRewriter::rewrite(const Index &I) {
  Index Out;
  Out.K = I.K;
  switch (I.K) {
  case QuantKind::Loc:
    Out.L = rewrite(I.L);
    break;
  case QuantKind::Size:
    Out.Sz = rewrite(I.Sz);
    break;
  case QuantKind::Qual:
    Out.Q = rewrite(I.Q);
    break;
  case QuantKind::Type:
    Out.P = rewrite(I.P);
    break;
  }
  return Out;
}

FunTypeRef TypeRewriter::rewrite(const FunTypeRef &F) {
  assert(F && "rewriting a null function type");
  if (MemoOn && unaffected(F->freeBounds(), F->flags()))
    return F;
  if (!memoUsable())
    return rewriteUncached(F);
  MemoKey K{F.get(), depthKey()};
  if (M)
    if (auto It = M->F.find(K); It != M->F.end())
      return It->second;
  uint64_t Before = ++Visits;
  FunTypeRef R = rewriteUncached(F);
  if (Visits - Before >= MemoMinVisits)
    memos().F.emplace(K, R);
  return R;
}

FunTypeRef TypeRewriter::rewriteUncached(const FunTypeRef &F) {
  std::vector<Quant> Quants;
  Quants.reserve(F->quants().size());
  // Each quantifier's constraints see the binders declared before it.
  unsigned NLoc = 0, NSize = 0, NQual = 0, NType = 0;
  for (const Quant &Q : F->quants()) {
    Quants.push_back(rewrite(Q));
    switch (Q.K) {
    case QuantKind::Loc:
      enterLoc();
      ++NLoc;
      break;
    case QuantKind::Size:
      enterSize();
      ++NSize;
      break;
    case QuantKind::Qual:
      enterQual();
      ++NQual;
      break;
    case QuantKind::Type:
      enterType();
      ++NType;
      break;
    }
  }
  ArrowType Arrow = rewrite(F->arrow());
  for (unsigned I = 0; I < NLoc; ++I)
    exitLoc();
  for (unsigned I = 0; I < NSize; ++I)
    exitSize();
  for (unsigned I = 0; I < NQual; ++I)
    exitQual();
  for (unsigned I = 0; I < NType; ++I)
    exitType();
  return FunType::get(std::move(Quants), std::move(Arrow));
}

//===----------------------------------------------------------------------===//
// Subst
//===----------------------------------------------------------------------===//

Subst Subst::fromIndices(const std::vector<Index> &Args) {
  Subst S;
  for (const Index &I : Args) {
    switch (I.K) {
    case QuantKind::Loc:
      S.Locs.push_back(I.L);
      break;
    case QuantKind::Size:
      S.Sizes.push_back(I.Sz);
      break;
    case QuantKind::Qual:
      S.Quals.push_back(I.Q);
      break;
    case QuantKind::Type:
      S.Types.push_back(I.P);
      break;
    }
  }
  return S;
}

Qual Subst::onQualVar(uint32_t Idx) {
  if (Idx < QualDepth)
    return Qual::var(Idx);
  uint32_t J = Idx - QualDepth;
  size_t M = Quals.size();
  if (J < M) {
    Qual Rep = Quals[M - 1 - J];
    if (Rep.isVar())
      return Qual::var(Rep.varIndex() + QualDepth);
    return Rep;
  }
  return Qual::var(Idx - static_cast<uint32_t>(M));
}

SizeRef Subst::onSizeVar(uint32_t Idx) {
  if (Idx < SizeDepth)
    return Size::var(Idx);
  uint32_t J = Idx - SizeDepth;
  size_t M = Sizes.size();
  if (J < M) {
    Shifter Sh(LocDepth, SizeDepth, QualDepth, TypeDepth);
    return Sh.rewrite(Sizes[M - 1 - J]);
  }
  return Size::var(Idx - static_cast<uint32_t>(M));
}

Loc Subst::onLocVar(uint32_t Idx) {
  if (Idx < LocDepth)
    return Loc::var(Idx);
  uint32_t J = Idx - LocDepth;
  size_t M = Locs.size();
  if (J < M) {
    Loc Rep = Locs[M - 1 - J];
    if (Rep.isVar())
      return Loc::var(Rep.varIndex() + LocDepth);
    return Rep;
  }
  return Loc::var(Idx - static_cast<uint32_t>(M));
}

PretypeRef Subst::onTypeVar(uint32_t Idx) {
  if (Idx < TypeDepth)
    return varPT(Idx);
  uint32_t J = Idx - TypeDepth;
  size_t M = Types.size();
  if (J < M) {
    Shifter Sh(LocDepth, SizeDepth, QualDepth, TypeDepth);
    return Sh.rewrite(Types[M - 1 - J]);
  }
  return varPT(Idx - static_cast<uint32_t>(M));
}

//===----------------------------------------------------------------------===//
// Instruction rewriting: intern-aware subtree sharing
//===----------------------------------------------------------------------===//
//
// Instruction trees are rewritten bottom-up, field by field from each
// class's fields() list, and every embedded type-level component is
// hash-consed: a component untouched by the rewrite comes back as the
// *same* node (the rewriter's FreeBounds short-circuit proves closedness
// without walking, and interning canonicalizes everything else), so "this
// subtree is closed under the rewrite" is decidable by O(1) pointer
// comparisons on the rewritten pieces. When every field (and every child
// instruction) is unchanged, the original shared_ptr node is returned
// instead of an allocated clone — call-time instantiation (sem::Machine's
// e*[z*/κ*]) then shares all untouched subtrees with the original body and
// only materializes the spine that actually changes.

namespace {

/// Field types with no type-level material: copied, never rewritten.
template <class T>
constexpr bool IsInert = std::is_arithmetic_v<T> || std::is_enum_v<T>;
template <class T> constexpr bool IsInert<std::vector<T>> = IsInert<T>;

template <class... Cs, class... Ts>
constexpr bool allInert(const std::tuple<Field<Cs, Ts>...> &) {
  return (IsInert<Ts> && ...);
}

/// One rewrite-and-compare per field type: each returns the rewritten
/// value and clears Same unless it is identical to the original.
struct FieldRewriter {
  TypeRewriter &RW;
  bool Same = true;

  template <class T>
    requires IsInert<T>
  T operator()(const T &V) {
    return V;
  }
  Qual operator()(Qual Q) {
    Qual R = RW.rewrite(Q);
    Same = Same && R == Q;
    return R;
  }
  Loc operator()(const Loc &L) {
    Loc R = RW.rewrite(L);
    Same = Same && R == L;
    return R;
  }
  SizeRef operator()(const SizeRef &S) {
    SizeRef R = RW.rewrite(S);
    Same = Same && R.get() == S.get();
    return R;
  }
  PretypeRef operator()(const PretypeRef &P) {
    PretypeRef R = RW.rewrite(P);
    Same = Same && R.get() == P.get();
    return R;
  }
  HeapTypeRef operator()(const HeapTypeRef &H) {
    HeapTypeRef R = RW.rewrite(H);
    Same = Same && R.get() == H.get();
    return R;
  }
  Type operator()(const Type &T) {
    Type R = RW.rewrite(T);
    Same = Same && typeEquals(R, T);
    return R;
  }
  ArrowType operator()(const ArrowType &A) {
    ArrowType R = RW.rewrite(A);
    Same = Same && arrowEquals(R, A);
    return R;
  }
  LocalEffect operator()(const LocalEffect &E) {
    return {E.LocalIdx, (*this)(E.T)};
  }
  Index operator()(const Index &I) {
    Index R = RW.rewrite(I);
    switch (I.K) {
    case QuantKind::Loc:
      Same = Same && R.L == I.L;
      break;
    case QuantKind::Size:
      Same = Same && R.Sz.get() == I.Sz.get();
      break;
    case QuantKind::Qual:
      Same = Same && R.Q == I.Q;
      break;
    case QuantKind::Type:
      Same = Same && R.P.get() == I.P.get();
      break;
    }
    return R;
  }
  InstRef operator()(const InstRef &I) {
    InstRef R = rewriteInst(I, RW);
    Same = Same && R.get() == I.get();
    return R;
  }
  template <class T>
    requires(!IsInert<T>)
  std::vector<T> operator()(const std::vector<T> &Vs) {
    std::vector<T> Out;
    Out.reserve(Vs.size());
    for (const T &V : Vs)
      Out.push_back((*this)(V));
    return Out;
  }

  /// Rewrites one field's value under the binder the field is marked with.
  template <class C, class T> T field(const C &N, const Field<C, T> &F) {
    scope(F.Binds, /*Enter=*/true);
    T Out = (*this)(N.*F.Member);
    scope(F.Binds, /*Enter=*/false);
    return Out;
  }

private:
  void scope(Binder B, bool Enter) {
    if (B == Binder::Loc)
      Enter ? RW.enterLoc() : RW.exitLoc();
    else if (B == Binder::Pretype)
      Enter ? RW.enterType() : RW.exitType();
  }
};

template <class C> InstRef rewriteAs(const InstRef &I, TypeRewriter &RW) {
  constexpr auto Fs = C::fields();
  if constexpr (allInert(Fs)) {
    return I; // No embedded type-level material.
  } else {
    const C &N = *static_cast<const C *>(I.get());
    FieldRewriter FR{RW};
    // Braced initialization evaluates the fields in list order.
    auto Vals = std::apply(
        [&](const auto &...F) { return std::tuple{FR.field(N, F)...}; }, Fs);
    if (FR.Same)
      return I;
    return makeInst<C>(I->kind(), std::move(Vals));
  }
}

} // namespace

InstVec rw::ir::rewriteInsts(const InstVec &Insts, TypeRewriter &RW) {
  FieldRewriter FR{RW};
  return FR(Insts);
}

InstRef rw::ir::rewriteInst(const InstRef &I, TypeRewriter &RW) {
  assert(I && "rewriting a null instruction");
  return visitInstClass(I->kind(),
                        [&]<class C>() { return rewriteAs<C>(I, RW); });
}

ArrowType rw::ir::instantiateFunType(const FunType &FT,
                                     const std::vector<Index> &Args) {
  assert(FT.quants().size() == Args.size() &&
         "instantiation arity mismatch (checked by the type checker)");
  Subst S = Subst::fromIndices(Args);
  return S.rewrite(FT.arrow());
}
