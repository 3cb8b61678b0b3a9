//===- tests/interner_test.cpp - Hash-consing differential tests ---------===//
//
// Part of the RichWasm reproduction. MIT license.
//
// Pins the canonical-pointer equality guarantee: for types interned in one
// arena, pointer comparison (ir::typeEquals & friends) must agree with the
// deep-structural reference implementations (ir::structural*Equals) that
// predate the interner — including across shift/substitution round-trips,
// and for trees interned in two independent arenas (where each arena's
// interning decisions must agree with structural equality even though
// pointer identity deliberately fails across arenas).
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "ir/Rewrite.h"
#include "ir/TypeArena.h"
#include "ir/TypeOps.h"
#include "link/Link.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <type_traits>

using namespace rw;
using namespace rw::ir;

namespace {

/// Seeded random type generator. The same seed yields the same structure,
/// so one tree can be regenerated inside independent arenas. Skolem ids
/// and bounds vary independently — skolem identity is (id, bounds), for
/// interning and structural equality alike.
struct Gen {
  std::mt19937_64 Rng;
  explicit Gen(uint64_t Seed) : Rng(Seed) {}
  uint32_t pick(uint32_t N) { return static_cast<uint32_t>(Rng() % N); }

  Qual qual() {
    switch (pick(4)) {
    case 0:
      return Qual::lin();
    case 1:
      return Qual::var(pick(3));
    default:
      return Qual::unr();
    }
  }

  Loc loc() {
    switch (pick(3)) {
    case 0:
      return Loc::var(pick(3));
    case 1:
      return Loc::concrete(pick(2) ? MemKind::Lin : MemKind::Unr, pick(8));
    default:
      return Loc::skolem(pick(4));
    }
  }

  SizeRef size(unsigned D) {
    switch (D == 0 ? pick(2) : pick(4)) {
    case 0:
      return Size::constant(pick(5) * 32);
    case 1:
      return Size::var(pick(4));
    default:
      return Size::plus(size(D - 1), size(D - 1));
    }
  }

  Type type(unsigned D) { return Type(pretype(D), qual()); }

  PretypeRef pretype(unsigned D) {
    switch (D == 0 ? pick(6) : pick(12)) {
    case 0:
      return unitPT();
    case 1:
      return numPT(static_cast<NumType>(pick(6)));
    case 2:
      return varPT(pick(4));
    case 3:
      return ptrPT(loc());
    case 4:
      return ownPT(loc());
    case 5:
      return skolemPT(pick(3), pick(2) ? Qual::lin() : Qual::unr(),
                      Size::constant(32 + 32 * pick(3)), pick(2) == 0);
    case 6: {
      std::vector<Type> Es;
      for (unsigned I = 0, N = pick(3); I < N; ++I)
        Es.push_back(type(D - 1));
      return prodPT(std::move(Es));
    }
    case 7:
      return refPT(pick(2) ? Privilege::RW : Privilege::R, loc(),
                   heap(D - 1));
    case 8:
      return capPT(pick(2) ? Privilege::RW : Privilege::R, loc(),
                   heap(D - 1));
    case 9:
      return recPT(qual(), type(D - 1));
    case 10:
      return exLocPT(type(D - 1));
    default:
      return coderefPT(fun(D - 1));
    }
  }

  HeapTypeRef heap(unsigned D) {
    switch (pick(4)) {
    case 0: {
      std::vector<Type> Cs;
      for (unsigned I = 0, N = 1 + pick(2); I < N; ++I)
        Cs.push_back(type(D));
      return variantHT(std::move(Cs));
    }
    case 1: {
      std::vector<StructField> Fs;
      for (unsigned I = 0, N = pick(3); I < N; ++I)
        Fs.push_back({type(D), size(1)});
      return structHT(std::move(Fs));
    }
    case 2:
      return arrayHT(type(D));
    default:
      return exHT(qual(), size(1), type(D));
    }
  }

  FunTypeRef fun(unsigned D) {
    std::vector<Quant> Qs;
    for (unsigned I = 0, N = pick(3); I < N; ++I) {
      switch (pick(4)) {
      case 0:
        Qs.push_back(Quant::loc());
        break;
      case 1:
        Qs.push_back(Quant::size({size(0)}, {size(0)}));
        break;
      case 2:
        Qs.push_back(Quant::qual({qual()}, {}));
        break;
      default:
        Qs.push_back(Quant::type(qual(), size(1), pick(2) == 0));
        break;
      }
    }
    ArrowType A;
    for (unsigned I = 0, N = pick(3); I < N; ++I)
      A.Params.push_back(type(D));
    for (unsigned I = 0, N = pick(2); I < N; ++I)
      A.Results.push_back(type(D));
    return FunType::get(std::move(Qs), std::move(A));
  }
};

constexpr unsigned Depth = 3;
constexpr uint64_t NumSeeds = 150;

//===----------------------------------------------------------------------===//
// Intern identities
//===----------------------------------------------------------------------===//

TEST(Interner, LeavesAreUnique) {
  EXPECT_EQ(i32T().P.get(), i32T().P.get());
  EXPECT_EQ(unitPT().get(), unitPT().get());
  EXPECT_EQ(varPT(3).get(), varPT(3).get());
  EXPECT_NE(varPT(3).get(), varPT(4).get());
  EXPECT_EQ(Size::constant(64).get(), Size::constant(64).get());
  EXPECT_EQ(Size::var(0).get(), Size::var(0).get());
}

TEST(Interner, CompositesAreUnique) {
  auto mk = [] {
    return refPT(Privilege::RW, Loc::var(0),
                 structHT({{i32T(), Size::constant(32)}}));
  };
  EXPECT_EQ(mk().get(), mk().get());
  auto mkF = [] {
    return FunType::get({Quant::loc()},
                        ArrowType{{i32T()}, {i64T(Qual::lin())}});
  };
  EXPECT_EQ(mkF().get(), mkF().get());
}

TEST(Interner, SizesCanonicalizeModuloPlus) {
  // Commutativity, associativity, and constant folding all collapse to one
  // canonical node — the old sizeEquals semantics, now by pointer.
  SizeRef A = Size::plus(Size::var(0), Size::constant(32));
  SizeRef B = Size::plus(Size::constant(32), Size::var(0));
  EXPECT_EQ(A.get(), B.get());
  SizeRef C = Size::plus(Size::constant(16), Size::constant(16));
  EXPECT_EQ(C.get(), Size::constant(32).get());
  SizeRef D1 = Size::plus(Size::var(1), Size::plus(Size::var(0), A));
  SizeRef D2 = Size::plus(Size::plus(Size::var(0), Size::var(1)),
                          Size::plus(Size::var(0), Size::constant(32)));
  EXPECT_EQ(D1.get(), D2.get());
  EXPECT_FALSE(sizeEquals(A, Size::plus(A, Size::constant(1))));
  // Normal forms are precomputed.
  EXPECT_EQ(normalizeSize(D1).Const, 32u);
  EXPECT_EQ(normalizeSize(D1).Vars, (std::vector<uint32_t>{0, 0, 1}));
}

TEST(Interner, ClosedSizeMemoIsCanonical) {
  PretypeRef P = prodPT({i32T(), i64T(), unitT()});
  SizeRef S1 = sizeOfPretype(P, {});
  SizeRef S2 = sizeOfPretype(P, {});
  EXPECT_EQ(S1.get(), S2.get());
  EXPECT_EQ(closedSizeBits(S1), 96u);
  EXPECT_EQ(S1.get(), Size::constant(96).get());
}

//===----------------------------------------------------------------------===//
// Differential fuzz: interned equality ≡ deep structural equality
//===----------------------------------------------------------------------===//

TEST(InternerFuzz, PointerEqualityMatchesStructuralSameArena) {
  for (uint64_t Seed = 0; Seed < NumSeeds; ++Seed) {
    // Regenerating from one seed must intern to the same node.
    Type A = Gen(Seed).type(Depth);
    Type B = Gen(Seed).type(Depth);
    EXPECT_TRUE(typeEquals(A, B)) << "seed " << Seed;
    EXPECT_EQ(A.P.get(), B.P.get()) << "seed " << Seed;
    EXPECT_TRUE(structuralTypeEquals(A, B)) << "seed " << Seed;
    // Against an unrelated seed, both equalities must agree (almost always
    // "not equal", but the point is exact agreement either way).
    Type C = Gen(Seed + NumSeeds).type(Depth);
    EXPECT_EQ(typeEquals(A, C), structuralTypeEquals(A, C))
        << "seed " << Seed;
    HeapTypeRef HA = Gen(Seed).heap(Depth - 1);
    HeapTypeRef HC = Gen(Seed + NumSeeds).heap(Depth - 1);
    EXPECT_EQ(heapTypeEquals(*HA, *HC), structuralHeapTypeEquals(*HA, *HC))
        << "seed " << Seed;
    FunTypeRef FA = Gen(Seed).fun(Depth - 1);
    FunTypeRef FB = Gen(Seed).fun(Depth - 1);
    FunTypeRef FC = Gen(Seed + NumSeeds).fun(Depth - 1);
    EXPECT_EQ(FA.get(), FB.get()) << "seed " << Seed;
    EXPECT_EQ(funTypeEquals(*FA, *FC), structuralFunTypeEquals(*FA, *FC))
        << "seed " << Seed;
    SizeRef SA = Gen(Seed).size(Depth);
    SizeRef SB = Gen(Seed).size(Depth);
    SizeRef SC = Gen(Seed + NumSeeds).size(Depth);
    EXPECT_EQ(SA.get(), SB.get()) << "seed " << Seed;
    EXPECT_EQ(sizeEquals(SA, SC), structuralSizeEquals(SA, SC))
        << "seed " << Seed;
  }
}

TEST(InternerFuzz, IndependentArenasAgreeWithStructuralEquality) {
  TypeArena Arena1, Arena2;
  for (uint64_t Seed = 0; Seed < NumSeeds; ++Seed) {
    uint64_t Other = Seed * 31 + 7;
    Type A1, B1, A2, B2;
    {
      ArenaScope Scope(Arena1);
      A1 = Gen(Seed).type(Depth);
      B1 = Gen(Other).type(Depth);
    }
    {
      ArenaScope Scope(Arena2);
      A2 = Gen(Seed).type(Depth);
      B2 = Gen(Other).type(Depth);
    }
    // The same structure interned twice in one arena is one node; across
    // arenas pointer identity fails by design while structural equality
    // holds — and each arena's pointer-equality verdict must match the
    // deep reference implementation.
    EXPECT_NE(A1.P.get(), A2.P.get()) << "seed " << Seed;
    EXPECT_TRUE(structuralTypeEquals(A1, A2)) << "seed " << Seed;
    EXPECT_TRUE(structuralTypeEquals(B1, B2)) << "seed " << Seed;
    EXPECT_EQ(typeEquals(A1, B1), structuralTypeEquals(A1, B1))
        << "seed " << Seed;
    EXPECT_EQ(typeEquals(A2, B2), structuralTypeEquals(A2, B2))
        << "seed " << Seed;
    EXPECT_EQ(typeEquals(A1, B1), typeEquals(A2, B2)) << "seed " << Seed;
  }
}

TEST(InternerFuzz, ShiftSubstRoundTripIsIdentity) {
  for (uint64_t Seed = 0; Seed < NumSeeds; ++Seed) {
    Type T = Gen(Seed).type(Depth);
    // Shift every free variable up by one per kind, then strip one binder
    // per kind: the replacements are unused (no index-0 occurrences remain
    // after the shift), so the strip must restore the original — as the
    // *same canonical node*.
    Shifter Up(1, 1, 1, 1);
    Type Shifted = Up.rewrite(T);
    Subst Strip = Subst::fromIndices(
        {Index::loc(Loc::concrete(MemKind::Lin, 99)),
         Index::size(Size::constant(8)), Index::qual(Qual::lin()),
         Index::pretype(unitPT())});
    Type Back = Strip.rewrite(Shifted);
    EXPECT_TRUE(typeEquals(Back, T)) << "seed " << Seed;
    EXPECT_EQ(Back.P.get(), T.P.get()) << "seed " << Seed;
    EXPECT_TRUE(structuralTypeEquals(Back, T)) << "seed " << Seed;
  }
}

TEST(InternerFuzz, RewritesAgreeAcrossArenas) {
  TypeArena Arena1, Arena2;
  for (uint64_t Seed = 0; Seed < NumSeeds; ++Seed) {
    Type R1, R2;
    {
      ArenaScope Scope(Arena1);
      Type T = Gen(Seed).type(Depth);
      Subst Sub = Subst::onePretype(numPT(NumType::F64));
      R1 = Sub.rewrite(Shifter(0, 1, 0, 0).rewrite(T));
    }
    {
      ArenaScope Scope(Arena2);
      Type T = Gen(Seed).type(Depth);
      Subst Sub = Subst::onePretype(numPT(NumType::F64));
      R2 = Sub.rewrite(Shifter(0, 1, 0, 0).rewrite(T));
    }
    EXPECT_TRUE(structuralTypeEquals(R1, R2)) << "seed " << Seed;
  }
}

TEST(Interner, LinkRejectsMixedArenasWithClearDiagnostic) {
  using namespace rw::ir::build;
  // Exporter built in the default (global) arena.
  ir::Module Lib;
  Lib.Name = "lib";
  Lib.Funcs.push_back(function({"id"},
                               FunType::get({}, arrow({i32T()}, {i32T()})),
                               {}, {getLocal(0, Qual::unr())}));
  // Importer deliberately interned into (and owning) a private arena:
  // structurally identical signature, different canonical universe — the
  // module checks fine in isolation, and the mismatch must surface at the
  // link boundary as an arena diagnostic, not a bogus type mismatch.
  auto Private = std::make_shared<TypeArena>();
  ir::Module Client;
  Client.Arena = Private;
  {
    ArenaScope Scope(*Private);
    Client.Name = "client";
    Client.Funcs.push_back(importFunc(
        {"lib", "id"}, FunType::get({}, arrow({i32T()}, {i32T()}))));
    Client.Funcs.push_back(function(
        {"main"}, FunType::get({}, arrow({}, {i32T()})),
        {}, {iconst(7), call(0)}));
  }
  auto R = link::instantiate({&Lib, &Client});
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().message().find("different type arenas"),
            std::string::npos)
      << R.error().message();
}

TEST(Interner, RewriteInstsSharesUntouchedSubtrees) {
  using namespace rw::ir::build;
  // A body whose types are all closed is untouched by any shift or
  // outer-binder substitution: rewriteInsts must return the *original*
  // nodes (no clone), including through nested blocks. A subtree the
  // substitution does hit is rebuilt, but its untouched siblings are
  // still shared.
  InstVec Body = {
      iconst(1),
      block(arrow({i32T()}, {i32T()}), {},
            {iconst(2), addI32(),
             structMalloc({Size::constant(32)}, Qual::lin()),
             memUnpack(arrow({}, {i32T()}), {},
                       {iconst(9), structSwap(0), structFree()})}),
  };

  Shifter Sh(1, 1, 1, 1);
  InstVec Shifted = rewriteInsts(Body, Sh);
  ASSERT_EQ(Shifted.size(), Body.size());
  for (size_t I = 0; I < Body.size(); ++I)
    EXPECT_EQ(Shifted[I].get(), Body[I].get())
        << "closed subtree was cloned at " << I;

  // A substitution that replaces type variable 0 rewrites only the nodes
  // that mention it; the closed instructions around it stay shared.
  InstVec Open = {
      iconst(3),
      block(arrow({}, {}), {},
            {variantMalloc(0, {Type(varPT(0), Qual::unr()), i32T()},
                           Qual::unr()),
             memUnpack(arrow({}, {}), {}, {drop()})}),
      iconst(4),
  };
  Subst Sub = Subst::onePretype(i32T().P);
  InstVec Subbed = rewriteInsts(Open, Sub);
  ASSERT_EQ(Subbed.size(), Open.size());
  EXPECT_EQ(Subbed[0].get(), Open[0].get()); // Closed: shared.
  EXPECT_EQ(Subbed[2].get(), Open[2].get()); // Closed: shared.
  EXPECT_NE(Subbed[1].get(), Open[1].get()); // Mentions α0: rebuilt.
  // Inside the rebuilt block, the untouched mem.unpack child is shared.
  const auto *OldB = cast<BlockInst>(Open[1].get());
  const auto *NewB = cast<BlockInst>(Subbed[1].get());
  ASSERT_EQ(OldB->body().size(), NewB->body().size());
  EXPECT_NE(NewB->body()[0].get(), OldB->body()[0].get());
  EXPECT_EQ(NewB->body()[1].get(), OldB->body()[1].get());
}

TEST(InternerFuzz, MemoizedJudgmentsAreDeterministic) {
  for (uint64_t Seed = 0; Seed < NumSeeds; ++Seed) {
    PretypeRef P = Gen(Seed).pretype(Depth);
    if (P->freeBounds().Type != 0)
      continue; // sizeOf/noCaps of open pretypes needs a context.
    SizeRef S1 = sizeOfPretype(P, {});
    SizeRef S2 = sizeOfPretype(P, {});
    EXPECT_EQ(S1.get(), S2.get()) << "seed " << Seed;
    EXPECT_TRUE(structuralSizeEquals(S1, S2)) << "seed " << Seed;
    EXPECT_EQ(pretypeNoCaps(P, {}), pretypeNoCaps(P, {}))
        << "seed " << Seed;
  }
}

TEST(Interner, RewriteInstsSealsSubst) {
  using namespace rw::ir::build;
  // rewriteInsts through a Subst seals it, so the closed-subtree
  // short-circuit proves a closed body untouched without re-interning a
  // single type of it: the arena's table sees no probe at all.
  TypeArena Arena;
  ArenaScope Scope(Arena);
  Type Pair(prodPT({i32T(), i64T()}), Qual::unr());
  InstVec Body = {iconst(1)};
  for (int I = 0; I < 200; ++I)
    Body = {block(arrow({Pair}, {Pair}), {}, std::move(Body))};
  uint64_t Hits = Arena.stats().Hits;
  Subst Sub = Subst::oneLoc(Loc::concrete(MemKind::Lin, 8));
  InstVec Out = rewriteInsts(Body, Sub);
  EXPECT_EQ(Arena.stats().Hits, Hits);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].get(), Body[0].get());
}

//===----------------------------------------------------------------------===//
// Intern-time metadata against a naive walk
//===----------------------------------------------------------------------===//

/// Binders in scope, per kind.
struct Depths {
  uint32_t Loc = 0, Size = 0, Qual = 0, Type = 0;
};

/// Free bounds and occurrence flags recomputed by a naive recursive walk
/// that counts the binders it passes, reading no node's precomputed
/// metadata.
struct NaiveMeta {
  FreeBounds FB;
  uint8_t Flags = 0;

  static void occurs(uint32_t &Bound, uint32_t Idx, uint32_t Depth) {
    if (Idx >= Depth)
      Bound = std::max(Bound, Idx - Depth + 1);
  }
  void qual(Qual Q, const Depths &D) {
    if (Q.isVar())
      occurs(FB.Qual, Q.varIndex(), D.Qual);
  }
  void loc(const Loc &L, const Depths &D) {
    if (L.isVar())
      occurs(FB.Loc, L.varIndex(), D.Loc);
    else if (L.isSkolem())
      Flags |= TF_HasSkolemLoc;
    else
      Flags |= TF_HasConcreteLoc;
  }
  void size(const SizeRef &S, const Depths &D) {
    if (S)
      for (uint32_t V : S->norm().Vars)
        occurs(FB.Size, V, D.Size);
  }
  void type(const Type &T, const Depths &D) {
    pretype(*T.P, D);
    qual(T.Q, D);
  }
  void pretype(const Pretype &P, Depths D) {
    switch (P.kind()) {
    case PretypeKind::Unit:
    case PretypeKind::Num:
      break;
    case PretypeKind::Var:
      occurs(FB.Type, cast<VarPT>(&P)->index(), D.Type);
      break;
    case PretypeKind::Skolem:
      qual(cast<SkolemPT>(&P)->qualLower(), D);
      size(cast<SkolemPT>(&P)->sizeUpper(), D);
      Flags |= TF_HasSkolemType;
      break;
    case PretypeKind::Prod:
      for (const Type &T : cast<ProdPT>(&P)->elems())
        type(T, D);
      break;
    case PretypeKind::Ref:
      loc(cast<RefPT>(&P)->loc(), D);
      heap(*cast<RefPT>(&P)->heapType(), D);
      break;
    case PretypeKind::Cap:
      loc(cast<CapPT>(&P)->loc(), D);
      heap(*cast<CapPT>(&P)->heapType(), D);
      break;
    case PretypeKind::Ptr:
      loc(cast<PtrPT>(&P)->loc(), D);
      break;
    case PretypeKind::Own:
      loc(cast<OwnPT>(&P)->loc(), D);
      break;
    case PretypeKind::Rec:
      qual(cast<RecPT>(&P)->bound(), D);
      ++D.Type;
      type(cast<RecPT>(&P)->body(), D);
      break;
    case PretypeKind::ExLoc:
      ++D.Loc;
      type(cast<ExLocPT>(&P)->body(), D);
      break;
    case PretypeKind::Coderef:
      fun(*cast<CoderefPT>(&P)->funType(), D);
      break;
    }
  }
  void heap(const HeapType &H, Depths D) {
    switch (H.kind()) {
    case HeapTypeKind::Variant:
      for (const Type &T : cast<VariantHT>(&H)->cases())
        type(T, D);
      break;
    case HeapTypeKind::Struct:
      for (const StructField &F : cast<StructHT>(&H)->structFields()) {
        type(F.T, D);
        size(F.Slot, D);
      }
      break;
    case HeapTypeKind::Array:
      type(cast<ArrayHT>(&H)->elem(), D);
      break;
    case HeapTypeKind::Ex:
      qual(cast<ExHT>(&H)->qualLower(), D);
      size(cast<ExHT>(&H)->sizeUpper(), D);
      ++D.Type;
      type(cast<ExHT>(&H)->body(), D);
      break;
    }
  }
  void fun(const FunType &F, Depths D) {
    for (const Quant &Q : F.quants()) {
      switch (Q.K) {
      case QuantKind::Loc:
        ++D.Loc;
        break;
      case QuantKind::Size:
        for (const SizeRef &S : Q.SizeLower)
          size(S, D);
        for (const SizeRef &S : Q.SizeUpper)
          size(S, D);
        ++D.Size;
        break;
      case QuantKind::Qual:
        for (Qual X : Q.QualLower)
          qual(X, D);
        for (Qual X : Q.QualUpper)
          qual(X, D);
        ++D.Qual;
        break;
      case QuantKind::Type:
        qual(Q.TypeQualLower, D);
        size(Q.TypeSizeUpper, D);
        ++D.Type;
        break;
      }
    }
    for (const Type &T : F.arrow().Params)
      type(T, D);
    for (const Type &T : F.arrow().Results)
      type(T, D);
  }
};

template <class Node> NaiveMeta naiveMeta(const Node &N) {
  NaiveMeta M;
  if constexpr (std::is_same_v<Node, Pretype>)
    M.pretype(N, {});
  else if constexpr (std::is_same_v<Node, HeapType>)
    M.heap(N, {});
  else
    M.fun(N, {});
  return M;
}

/// The value types whose no_caps a node's own depends on: a reference's
/// heap type and a code pointer's function type do not count.
std::vector<const Type *> noCapsChildren(const Pretype &P) {
  std::vector<const Type *> Out;
  if (const auto *X = dyn_cast<ProdPT>(&P))
    for (const Type &T : X->elems())
      Out.push_back(&T);
  else if (const auto *X = dyn_cast<RecPT>(&P))
    Out.push_back(&X->body());
  else if (const auto *X = dyn_cast<ExLocPT>(&P))
    Out.push_back(&X->body());
  return Out;
}
std::vector<const Type *> noCapsChildren(const HeapType &H) {
  std::vector<const Type *> Out;
  if (const auto *X = dyn_cast<VariantHT>(&H))
    for (const Type &T : X->cases())
      Out.push_back(&T);
  else if (const auto *X = dyn_cast<StructHT>(&H))
    for (const StructField &F : X->structFields())
      Out.push_back(&F.T);
  else if (const auto *X = dyn_cast<ArrayHT>(&H))
    Out.push_back(&X->elem());
  else if (const auto *X = dyn_cast<ExHT>(&H))
    Out.push_back(&X->body());
  return Out;
}

/// no_caps with every free pretype variable taken to be capability-free.
bool naiveNoCaps(const Pretype &P);
template <class Node> bool naiveNoCapsOfChildren(const Node &N) {
  for (const Type *T : noCapsChildren(N))
    if (!naiveNoCaps(*T->P))
      return false;
  return true;
}
bool naiveNoCaps(const Pretype &P) {
  if (const auto *S = dyn_cast<SkolemPT>(&P))
    return S->noCaps();
  if (isa<CapPT>(&P) || isa<OwnPT>(&P))
    return false;
  return naiveNoCapsOfChildren(P);
}
bool naiveNoCaps(const HeapType &H) { return naiveNoCapsOfChildren(H); }

/// Whether the node reports that its no_caps depends on the variables:
/// it holds, it has a free pretype variable, and it is one or a value type
/// it is made of depends.
template <class Node> bool naiveNoCapsDepends(const Node &N) {
  if (!naiveNoCaps(N) || naiveMeta(N).FB.Type == 0)
    return false;
  if constexpr (std::is_same_v<Node, Pretype>)
    if (isa<VarPT>(&N))
      return true;
  for (const Type *T : noCapsChildren(N))
    if (naiveNoCapsDepends(*T->P))
      return true;
  return false;
}

/// Every node of a type tree, children included.
struct AllNodes {
  std::vector<const Pretype *> Pres;
  std::vector<const HeapType *> Heaps;
  std::vector<const FunType *> Funs;

  void type(const Type &T) { pretype(*T.P); }
  void pretype(const Pretype &P) {
    Pres.push_back(&P);
    if (const auto *X = dyn_cast<ProdPT>(&P))
      for (const Type &T : X->elems())
        type(T);
    else if (const auto *X = dyn_cast<RefPT>(&P))
      heap(*X->heapType());
    else if (const auto *X = dyn_cast<CapPT>(&P))
      heap(*X->heapType());
    else if (const auto *X = dyn_cast<RecPT>(&P))
      type(X->body());
    else if (const auto *X = dyn_cast<ExLocPT>(&P))
      type(X->body());
    else if (const auto *X = dyn_cast<CoderefPT>(&P))
      fun(*X->funType());
  }
  void heap(const HeapType &H) {
    Heaps.push_back(&H);
    for (const Type *T : noCapsChildren(H))
      type(*T);
  }
  void fun(const FunType &F) {
    Funs.push_back(&F);
    for (const Type &T : F.arrow().Params)
      type(T);
    for (const Type &T : F.arrow().Results)
      type(T);
  }
};

template <class Node>
void expectMetaMatches(const Node &N, const std::string &What) {
  NaiveMeta M = naiveMeta(N);
  EXPECT_EQ(N.freeBounds().Loc, M.FB.Loc) << What;
  EXPECT_EQ(N.freeBounds().Size, M.FB.Size) << What;
  EXPECT_EQ(N.freeBounds().Qual, M.FB.Qual) << What;
  EXPECT_EQ(N.freeBounds().Type, M.FB.Type) << What;
  EXPECT_EQ(N.flags(), M.Flags) << What;
  if constexpr (!std::is_same_v<Node, FunType>) {
    EXPECT_EQ(N.noCapsIfAllVarsFree(), naiveNoCaps(N)) << What;
    EXPECT_EQ(N.noCapsDependsOnVars(), naiveNoCapsDepends(N)) << What;
  }
}

TEST(InternerFuzz, MetadataMatchesNaiveWalk) {
  for (uint64_t Seed = 0; Seed < NumSeeds; ++Seed) {
    Gen G(Seed);
    AllNodes All;
    All.type(G.type(Depth));
    All.heap(*G.heap(Depth));
    All.fun(*G.fun(Depth));
    std::string What = "seed " + std::to_string(Seed);
    for (const Pretype *P : All.Pres)
      expectMetaMatches(*P, What + " pretype kind " +
                                std::to_string(int(P->kind())));
    for (const HeapType *H : All.Heaps)
      expectMetaMatches(*H, What + " heap kind " +
                                std::to_string(int(H->kind())));
    for (const FunType *F : All.Funs)
      expectMetaMatches(*F, What + " function type");
  }
}

} // namespace
