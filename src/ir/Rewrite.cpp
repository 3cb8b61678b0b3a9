//===- ir/Rewrite.cpp - Shift and substitution implementations -----------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Rewrite.h"

#include "ir/TypeArena.h"

#include <cassert>
#include <tuple>
#include <type_traits>
#include <utility>

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
// Field-by-field rewriting of type nodes and instructions
//===----------------------------------------------------------------------===//
//
// Type nodes and instruction trees are rewritten bottom-up, field by field
// from each class's fields() list (ir/Types.h, ir/Inst.h), entering the
// binder a field is marked with. Every embedded type-level component is
// hash-consed: a component untouched by the rewrite comes back as the
// *same* node (the rewriter's FreeBounds short-circuit proves closedness
// without walking, and interning canonicalizes everything else), so "this
// subtree is closed under the rewrite" is decidable by O(1) pointer
// comparisons on the rewritten pieces. When every field (and every child
// instruction) is unchanged, the original shared_ptr node is returned
// instead of a re-interned node or an allocated clone — call-time
// instantiation (sem::Machine's e*[z*/κ*]) then shares all untouched
// subtrees with the original body and only materializes the spine that
// actually changes.

namespace {

/// Field types with no type-level material: copied, never rewritten.
template <class T>
constexpr bool IsInert = std::is_arithmetic_v<T> || std::is_enum_v<T>;
template <class T> constexpr bool IsInert<std::vector<T>> = IsInert<T>;

template <class... Cs, class... Ts>
constexpr bool allInert(const std::tuple<Field<Cs, Ts>...> &) {
  return (IsInert<Ts> && ...);
}

/// A type node class the rewriter returns as it is (SkolemPT).
template <class C> constexpr bool isOpaque() {
  if constexpr (requires { C::Opaque; })
    return C::Opaque;
  else
    return false;
}

/// One rewrite-and-compare per field type: each returns the rewritten
/// value and clears Same unless it is identical to the original.
struct FieldRewriter {
  TypeRewriter &RW;
  bool Same = true;

  explicit FieldRewriter(TypeRewriter &RW) : RW(RW) {}

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
  FunTypeRef operator()(const FunTypeRef &F) {
    FunTypeRef R = RW.rewrite(F);
    Same = Same && R.get() == F.get();
    return R;
  }
  Type operator()(const Type &T) {
    Type R = RW.rewrite(T);
    Same = Same && typeEquals(R, T);
    return R;
  }
  Quant operator()(const Quant &Q) {
    Quant R;
    R.K = Q.K;
    switch (Q.K) {
    case QuantKind::Loc:
      break;
    case QuantKind::Size:
      R.SizeLower = (*this)(Q.SizeLower);
      R.SizeUpper = (*this)(Q.SizeUpper);
      break;
    case QuantKind::Qual:
      R.QualLower = (*this)(Q.QualLower);
      R.QualUpper = (*this)(Q.QualUpper);
      break;
    case QuantKind::Type:
      R.TypeQualLower = (*this)(Q.TypeQualLower);
      R.TypeSizeUpper = (*this)(Q.TypeSizeUpper);
      R.TypeNoCaps = Q.TypeNoCaps;
      break;
    }
    return R;
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
  /// Records (ArrowType, StructField, LocalEffect), field by field.
  template <HasFields R> R operator()(const R &Rec) {
    return std::apply([](auto &&...V) { return R{std::move(V)...}; },
                      fields(Rec));
  }

  /// Rewrites every field of \p N, in list order. Binders a quantifier
  /// list opens stay open for the fields after it, up to the end of N.
  template <class C> FieldValues<C> fields(const C &N) {
    FreeBounds Outer = std::exchange(Open, FreeBounds{});
    // Braced initialization evaluates the fields in list order.
    auto Vals = std::apply(
        [&](const auto &...F) { return FieldValues<C>{field(N, F)...}; },
        C::fields());
    for (; Open.Loc; --Open.Loc)
      RW.exitLoc();
    for (; Open.Size; --Open.Size)
      RW.exitSize();
    for (; Open.Qual; --Open.Qual)
      RW.exitQual();
    for (; Open.Type; --Open.Type)
      RW.exitType();
    Open = Outer;
    return Vals;
  }

private:
  /// Binders opened by a quantifier list of the node being rewritten.
  FreeBounds Open;

  /// Rewrites one field's value under the binder the field is marked with.
  template <class C, class T> T field(const C &N, const Field<C, T> &F) {
    if constexpr (std::is_same_v<T, std::vector<Quant>>)
      if (F.Binds == Binder::Quants)
        return quants(N.*F.Member);
    scope(F.Binds, /*Enter=*/true);
    T Out = (*this)(N.*F.Member);
    scope(F.Binds, /*Enter=*/false);
    return Out;
  }
  /// A quantifier list: each quantifier's constraints see the binders
  /// declared before it.
  std::vector<Quant> quants(const std::vector<Quant> &Qs) {
    std::vector<Quant> Out;
    Out.reserve(Qs.size());
    for (const Quant &Q : Qs) {
      Out.push_back((*this)(Q));
      switch (Q.K) {
      case QuantKind::Loc:
        RW.enterLoc();
        ++Open.Loc;
        break;
      case QuantKind::Size:
        RW.enterSize();
        ++Open.Size;
        break;
      case QuantKind::Qual:
        RW.enterQual();
        ++Open.Qual;
        break;
      case QuantKind::Type:
        RW.enterType();
        ++Open.Type;
        break;
      }
    }
    return Out;
  }
  void scope(Binder B, bool Enter) {
    if (B == Binder::Loc)
      Enter ? RW.enterLoc() : RW.exitLoc();
    else if (B == Binder::Pretype)
      Enter ? RW.enterType() : RW.exitType();
  }
};

/// Rewrites a type node of class \p C. Variables are the hooks' business
/// (TypeRewriter::rewriteUncached); nodes with nothing to rewrite, and
/// opaque ones, come back as they are.
template <class C, class Ref> Ref rewriteNode(const Ref &R, TypeRewriter &RW) {
  if constexpr (isOpaque<C>() || allInert(C::fields())) {
    return R;
  } else {
    FieldRewriter FR{RW};
    FieldValues<C> Vals = FR.fields(static_cast<const C &>(*R));
    if (FR.Same)
      return R;
    return TypeArena::current().intern<C>(std::move(Vals));
  }
}

template <class C> InstRef rewriteAs(const InstRef &I, TypeRewriter &RW) {
  if constexpr (allInert(C::fields())) {
    return I; // No embedded type-level material.
  } else {
    FieldRewriter FR{RW};
    FieldValues<C> Vals = FR.fields(*static_cast<const C *>(I.get()));
    if (FR.Same)
      return I;
    return makeInst<C>(I->kind(), std::move(Vals));
  }
}

} // namespace

PretypeRef TypeRewriter::rewriteUncached(const PretypeRef &P) {
  if (const auto *V = dyn_cast<VarPT>(P.get()))
    return onTypeVar(V->index());
  return visitTypeClass(P->kind(), [&]<class C>() {
    return rewriteNode<C>(P, *this);
  });
}

HeapTypeRef TypeRewriter::rewriteUncached(const HeapTypeRef &H) {
  return visitTypeClass(H->kind(), [&]<class C>() {
    return rewriteNode<C>(H, *this);
  });
}

FunTypeRef TypeRewriter::rewriteUncached(const FunTypeRef &F) {
  return rewriteNode<FunType>(F, *this);
}

ArrowType TypeRewriter::rewrite(const ArrowType &A) {
  return FieldRewriter{*this}(A);
}

Quant TypeRewriter::rewrite(const Quant &Q) { return FieldRewriter{*this}(Q); }

InstVec rw::ir::rewriteInsts(const InstVec &Insts, TypeRewriter &RW) {
  FieldRewriter FR{RW};
  return FR(Insts);
}

InstRef rw::ir::rewriteInst(const InstRef &I, TypeRewriter &RW) {
  assert(I && "rewriting a null instruction");
  return visitInstClass(I->kind(),
                        [&]<class C>() { return rewriteAs<C>(I, RW); });
}

InstVec rw::ir::rewriteInsts(const InstVec &Insts, Subst &S) {
  return rewriteInsts(Insts, static_cast<TypeRewriter &>(S.seal()));
}

InstRef rw::ir::rewriteInst(const InstRef &I, Subst &S) {
  return rewriteInst(I, static_cast<TypeRewriter &>(S.seal()));
}

ArrowType rw::ir::instantiateFunType(const FunType &FT,
                                     const std::vector<Index> &Args) {
  assert(FT.quants().size() == Args.size() &&
         "instantiation arity mismatch (checked by the type checker)");
  Subst S = Subst::fromIndices(Args);
  return S.rewrite(FT.arrow());
}
