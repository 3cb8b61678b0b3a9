//===- ir/TypeArena.cpp - Hash-consing interner implementation -----------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Interning discipline: children are interned before parents, so lookup is
// shallow — a structural (Merkle) hash over child hashes plus scalars picks
// the bucket, and candidate equality compares scalars plus child *pointers*
// (pointer equality of children is their structural equality, by
// induction). Sizes are canonicalized to +-normal form before interning,
// which is what keeps `sizeEquals` (pointer identity) equivalent to the old
// equality modulo associativity/commutativity of `+`.
//
//===----------------------------------------------------------------------===//

#include "ir/TypeArena.h"

#include "ir/TypeOps.h"
#include "obs/Obs.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <mutex>
#include <unordered_map>
#include <vector>

using namespace rw;
using namespace rw::ir;

//===----------------------------------------------------------------------===//
// Structural hashing
//===----------------------------------------------------------------------===//

static uint64_t mix(uint64_t H, uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
  return H;
}

static uint64_t qualHash(Qual Q) {
  return Q.isVar() ? mix(0xA1, Q.varIndex())
                   : mix(0xA2, static_cast<uint64_t>(Q.constValue()));
}

static uint64_t locHash(const Loc &L) {
  switch (L.kind()) {
  case Loc::Kind::Var:
    return mix(0xB1, L.varIndex());
  case Loc::Kind::Concrete:
    return mix(mix(0xB2, static_cast<uint64_t>(L.mem())), L.addr());
  case Loc::Kind::Skolem:
    return mix(0xB3, L.skolemId());
  }
  return 0xB0;
}

static uint64_t sizePtrHash(const SizeRef &S) {
  return S ? S->hashValue() : 0xC0FFEE;
}

static uint64_t typePtrHash(const Type &T) {
  return mix(T.P->hashValue(), qualHash(T.Q));
}

static uint64_t typePtrHash(const TypeRef &T) {
  return mix(T.P->hashValue(), qualHash(T.Q));
}

static uint64_t normalSizeHash(const NormalSize &N) {
  uint64_t H = mix(0xD1, N.Const);
  for (uint32_t V : N.Vars)
    H = mix(H, V);
  return H;
}

static uint64_t quantHash(const Quant &Q) {
  uint64_t H = mix(0xE1, static_cast<uint64_t>(Q.K));
  switch (Q.K) {
  case QuantKind::Loc:
    break;
  case QuantKind::Size:
    for (const SizeRef &S : Q.SizeLower)
      H = mix(H, sizePtrHash(S));
    H = mix(H, 0x11);
    for (const SizeRef &S : Q.SizeUpper)
      H = mix(H, sizePtrHash(S));
    break;
  case QuantKind::Qual:
    for (Qual X : Q.QualLower)
      H = mix(H, qualHash(X));
    H = mix(H, 0x12);
    for (Qual X : Q.QualUpper)
      H = mix(H, qualHash(X));
    break;
  case QuantKind::Type:
    H = mix(H, qualHash(Q.TypeQualLower));
    H = mix(H, sizePtrHash(Q.TypeSizeUpper));
    H = mix(H, Q.TypeNoCaps ? 1 : 0);
    break;
  }
  return H;
}

static uint64_t arrowHash(const ArrowType &A) {
  uint64_t H = 0xE2;
  for (const Type &T : A.Params)
    H = mix(H, typePtrHash(T));
  H = mix(H, 0x13);
  for (const Type &T : A.Results)
    H = mix(H, typePtrHash(T));
  return H;
}

//===----------------------------------------------------------------------===//
// Intern-time metadata (free-variable bounds, occurrence flags)
//===----------------------------------------------------------------------===//

namespace {
/// Accumulator for FreeBounds and occurrence flags while scanning a node's
/// immediate children.
struct Meta {
  FreeBounds FB;
  uint8_t Flags = 0;
};
} // namespace

static void bump(uint32_t &Slot, uint32_t Bound) {
  if (Bound > Slot)
    Slot = Bound;
}

static void mergeFB(FreeBounds &Into, const FreeBounds &From) {
  bump(Into.Loc, From.Loc);
  bump(Into.Size, From.Size);
  bump(Into.Qual, From.Qual);
  bump(Into.Type, From.Type);
}

/// Decrements a free bound across \p N binders of the same kind.
static uint32_t decN(uint32_t X, uint32_t N) { return X > N ? X - N : 0; }

static void accQual(Qual Q, Meta &M) {
  if (Q.isVar())
    bump(M.FB.Qual, Q.varIndex() + 1);
}

static void accLoc(const Loc &L, Meta &M) {
  switch (L.kind()) {
  case Loc::Kind::Var:
    bump(M.FB.Loc, L.varIndex() + 1);
    break;
  case Loc::Kind::Concrete:
    M.Flags |= TF_HasConcreteLoc;
    break;
  case Loc::Kind::Skolem:
    M.Flags |= TF_HasSkolemLoc;
    break;
  }
}

static void accSize(const SizeRef &S, Meta &M) {
  if (S)
    bump(M.FB.Size, S->freeBound());
}

static void accPretype(const PretypeRef &P, Meta &M) {
  mergeFB(M.FB, P->freeBounds());
  M.Flags |= P->flags();
}

static void accType(const Type &T, Meta &M) {
  accPretype(T.P, M);
  accQual(T.Q, M);
}

static void accHeap(const HeapTypeRef &H, Meta &M) {
  mergeFB(M.FB, H->freeBounds());
  M.Flags |= H->flags();
}

static void accFun(const FunTypeRef &F, Meta &M) {
  mergeFB(M.FB, F->freeBounds());
  M.Flags |= F->flags();
}

namespace {
/// no_caps bits of one node: the value when every free pretype variable is
/// capability-free, and whether the answer depends on those variables at
/// all. The all-true value is an upper bound (the predicate is monotone in
/// the variable flags), so Dep is false whenever IfTrue is already false.
struct NoCapsBits {
  bool IfTrue = true;
  bool Dep = false;

  void andWith(bool ChildIfTrue, bool ChildDep) {
    if (!IfTrue)
      return;
    IfTrue = ChildIfTrue;
    Dep = IfTrue ? (Dep || ChildDep) : false;
  }
  void andWithType(const Type &T) {
    andWith(T.P->noCapsIfAllVarsFree(), T.P->noCapsDependsOnVars());
  }
  /// A node with no free pretype variables cannot depend on them.
  void clampTo(const FreeBounds &FB) {
    if (FB.Type == 0)
      Dep = false;
  }
};
} // namespace

//===----------------------------------------------------------------------===//
// The arena
//===----------------------------------------------------------------------===//

namespace {
constexpr uint32_t NumConstSizeCache = 257; ///< Bits 0..256 pre-interned.
constexpr uint32_t NumVarCache = 64;        ///< Indices 0..63 pre-interned.

/// Guard for the intern tables and memo maps. Critical sections are a few
/// hash probes long, so a spinlock beats a futex-backed mutex on the
/// (dominant) uncontended path while keeping the arena thread-safe.
struct SpinLock {
  std::atomic_flag F = ATOMIC_FLAG_INIT;
  void lock() {
    while (F.test_and_set(std::memory_order_acquire)) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }
  void unlock() { F.clear(std::memory_order_release); }
};
} // namespace

struct TypeArena::Impl {
  mutable SpinLock M;
  std::unordered_map<uint64_t, std::vector<PretypeRef>> PTab;
  std::unordered_map<uint64_t, std::vector<HeapTypeRef>> HTab;
  std::unordered_map<uint64_t, std::vector<FunTypeRef>> FTab;
  std::unordered_map<uint64_t, std::vector<SizeRef>> STab;
  /// Memoized ||p|| for closed pretypes, keyed on the canonical node. This
  /// table also *owns* the cached sizes, backing the per-node fast-path
  /// slot (Pretype::ClosedSizeMemo).
  std::unordered_map<const Pretype *, SizeRef> ClosedSize;
  // Lock-free leaf caches: lazily populated atomic slots pointing at
  // table-owned canonical nodes (populate races are benign — every writer
  // stores the same node). Lazy so that arena construction is near-free,
  // which lets short-lived arenas (per-machine runtime types, fuzz tests)
  // stay cheap.
  std::atomic<const Pretype *> Unit{nullptr};
  std::atomic<const Pretype *> Nums[6] = {};
  std::atomic<const Pretype *> TypeVars[NumVarCache] = {};
  std::atomic<const Size *> ConstSizes[NumConstSizeCache] = {};
  std::atomic<const Size *> SizeVars[NumVarCache] = {};
  Stats St;
};

/// Equality for the insert-race re-probe, comparing against the *built*
/// node (the candidate constructor arguments may have been moved into it).
/// Structural equality coincides with the intern key for nodes whose
/// children are canonical in the same arena.
static bool builtEquals(const Pretype &A, const Pretype &B) {
  return structuralPretypeEquals(A, B);
}
static bool builtEquals(const HeapType &A, const HeapType &B) {
  return structuralHeapTypeEquals(A, B);
}
static bool builtEquals(const FunType &A, const FunType &B) {
  return structuralFunTypeEquals(A, B);
}
static bool builtEquals(const Size &A, const Size &B) {
  return A.norm() == B.norm();
}

static bool nodeHasSkolem(const Pretype &P) {
  return P.flags() & (TF_HasSkolemLoc | TF_HasSkolemType);
}
static bool nodeHasSkolem(const HeapType &H) {
  return H.flags() & (TF_HasSkolemLoc | TF_HasSkolemType);
}
static bool nodeHasSkolem(const FunType &F) {
  return F.flags() & (TF_HasSkolemLoc | TF_HasSkolemType);
}
static bool nodeHasSkolem(const Size &) { return false; }

/// Sizeof-based live-memory estimate for Stats::ApproxBytes: the node
/// object plus its owned vector payloads (children are shared, counted
/// once at their own intern).
static uint64_t approxNodeBytes(const Pretype &P) {
  switch (P.kind()) {
  case PretypeKind::Prod:
    return sizeof(ProdPT) + cast<ProdPT>(&P)->elems().size() * sizeof(Type);
  case PretypeKind::Ref:
    return sizeof(RefPT);
  case PretypeKind::Cap:
    return sizeof(CapPT);
  case PretypeKind::Skolem:
    return sizeof(SkolemPT);
  case PretypeKind::Rec:
    return sizeof(RecPT);
  case PretypeKind::ExLoc:
    return sizeof(ExLocPT);
  case PretypeKind::Coderef:
    return sizeof(CoderefPT);
  default:
    return sizeof(Pretype);
  }
}
static uint64_t approxNodeBytes(const HeapType &H) {
  switch (H.kind()) {
  case HeapTypeKind::Variant:
    return sizeof(VariantHT) +
           cast<VariantHT>(&H)->cases().size() * sizeof(Type);
  case HeapTypeKind::Struct:
    return sizeof(StructHT) +
           cast<StructHT>(&H)->fields().size() * sizeof(StructField);
  case HeapTypeKind::Array:
    return sizeof(ArrayHT);
  case HeapTypeKind::Ex:
    return sizeof(ExHT);
  }
  return sizeof(HeapType);
}
static uint64_t approxNodeBytes(const FunType &F) {
  return sizeof(FunType) + F.quants().size() * sizeof(Quant) +
         (F.arrow().Params.size() + F.arrow().Results.size()) * sizeof(Type);
}
static uint64_t approxNodeBytes(const Size &S) {
  return sizeof(Size) + S.norm().Vars.size() * sizeof(uint32_t);
}

template <class Ref, class EqFn, class MakeFn>
static Ref internNode(SpinLock &M, TypeArena::Stats &St,
                      std::unordered_map<uint64_t, std::vector<Ref>> &Tab,
                      uint64_t H, uint64_t &NodeCount, EqFn &&Eq,
                      MakeFn &&Make) {
  // Probe under the lock; allocate and compute metadata *outside* it so
  // the critical sections stay a few hash probes long (Make only reads
  // immutable, already-interned children). On a lost insert race the
  // freshly built node is discarded in favor of the first writer's.
  {
    std::lock_guard<SpinLock> G(M);
    auto It = Tab.find(H);
    if (It != Tab.end())
      for (const Ref &N : It->second)
        if (Eq(*N)) {
          ++St.Hits;
          return N;
        }
  }
  Ref N = Make();
  std::lock_guard<SpinLock> G(M);
  std::vector<Ref> &Bucket = Tab[H];
  for (const Ref &Existing : Bucket)
    if (Existing->hashValue() == H && builtEquals(*Existing, *N)) {
      ++St.Hits;
      return Existing;
    }
  ++St.Misses;
  ++NodeCount;
  St.ApproxBytes += approxNodeBytes(*N);
  if (nodeHasSkolem(*N))
    ++St.SkolemNodes;
  Bucket.push_back(N);
  return N;
}

//===----------------------------------------------------------------------===//
// Private-field access for the intern helpers
//===----------------------------------------------------------------------===//

/// Befriended by the type-node classes so the file-local intern helpers can
/// fill intern-time metadata on freshly allocated nodes.
struct rw::ir::TypeArenaAccess {
  /// Allocates one canonical size node (no table interaction; callers
  /// guarantee uniqueness per normal form).
  static SizeRef newSizeNode(TypeArena *A, Size::Kind K, uint64_t ConstBits,
                             uint32_t VarIdx, SizeRef L, SizeRef R,
                             NormalSize N) {
    Size *S = new Size(K);
    S->ConstBits = ConstBits;
    S->VarIdx = VarIdx;
    S->LHS = std::move(L);
    S->RHS = std::move(R);
    S->FreeBound = N.Vars.empty() ? 0 : N.Vars.back() + 1;
    S->H = normalSizeHash(N);
    S->Norm = std::move(N);
    S->Arena = A;
    return SizeRef(S);
  }

  /// Fills the intern-time metadata of a freshly allocated node.
  template <class NodeT>
  static void finalize(NodeT &N, TypeArena *A, uint64_t H, const Meta &M) {
    N.FB = M.FB;
    N.Flags = M.Flags;
    N.H = H;
    N.Arena = A;
  }

  template <class NodeT>
  static void finalizeNC(NodeT &N, const NoCapsBits &NC) {
    N.NoCapsIfTrue = NC.IfTrue;
    N.NoCapsDepends = NC.Dep;
  }
};

static SizeRef newSizeNode(TypeArena *A, Size::Kind K, uint64_t ConstBits,
                           uint32_t VarIdx, SizeRef L, SizeRef R,
                           NormalSize N) {
  return TypeArenaAccess::newSizeNode(A, K, ConstBits, VarIdx, std::move(L),
                                      std::move(R), std::move(N));
}

template <class NodeT>
static void finalize(NodeT &N, TypeArena *A, uint64_t H, const Meta &M) {
  TypeArenaAccess::finalize(N, A, H, M);
}

template <class NodeT>
static void finalizeNC(NodeT &N, const NoCapsBits &NC) {
  TypeArenaAccess::finalizeNC(N, NC);
}

//===----------------------------------------------------------------------===//
// Sizes
//===----------------------------------------------------------------------===//

SizeRef TypeArena::sizeConst(uint64_t Bits) {
  std::atomic<const Size *> *Slot =
      Bits < NumConstSizeCache ? &I->ConstSizes[Bits] : nullptr;
  if (Slot)
    if (const Size *S = Slot->load(std::memory_order_acquire))
      return S->shared_from_this();
  NormalSize N;
  N.Const = Bits;
  uint64_t H = normalSizeHash(N);
  SizeRef R = internNode(
      I->M, I->St, I->STab, H, I->St.SizeNodes,
      [&](const Size &S) { return S.norm() == N; },
      [&] {
        return newSizeNode(this, Size::Kind::Const, Bits, 0, nullptr, nullptr,
                           N);
      });
  if (Slot)
    Slot->store(R.get(), std::memory_order_release);
  return R;
}

SizeRef TypeArena::sizeVar(uint32_t Idx) {
  std::atomic<const Size *> *Slot =
      Idx < NumVarCache ? &I->SizeVars[Idx] : nullptr;
  if (Slot)
    if (const Size *S = Slot->load(std::memory_order_acquire))
      return S->shared_from_this();
  NormalSize N;
  N.Vars.push_back(Idx);
  uint64_t H = normalSizeHash(N);
  SizeRef R = internNode(
      I->M, I->St, I->STab, H, I->St.SizeNodes,
      [&](const Size &S) { return S.norm() == N; },
      [&] {
        return newSizeNode(this, Size::Kind::Var, 0, Idx, nullptr, nullptr, N);
      });
  if (Slot)
    Slot->store(R.get(), std::memory_order_release);
  return R;
}

SizeRef TypeArena::sizeFromNormal(NormalSize N) {
  std::sort(N.Vars.begin(), N.Vars.end());
  if (N.Vars.empty())
    return sizeConst(N.Const);
  if (N.Const == 0 && N.Vars.size() == 1)
    return sizeVar(N.Vars[0]);
  // Canonical shape: a left-leaning chain over the sorted variables with
  // the constant (when nonzero) folded in last. Every prefix of the chain
  // is itself a canonical node, so prefixes are shared across sums.
  SizeRef Acc = sizeVar(N.Vars[0]);
  NormalSize Partial;
  Partial.Vars.push_back(N.Vars[0]);
  auto chain = [&](SizeRef Leaf, NormalSize Combined) {
    uint64_t H = normalSizeHash(Combined);
    SizeRef Node = internNode(
        I->M, I->St, I->STab, H, I->St.SizeNodes,
        [&](const Size &S) { return S.norm() == Combined; },
        [&] {
          return newSizeNode(this, Size::Kind::Plus, 0, 0, Acc,
                             std::move(Leaf), Combined);
        });
    Acc = std::move(Node);
    Partial = std::move(Combined);
  };
  for (size_t J = 1; J < N.Vars.size(); ++J) {
    NormalSize Combined = Partial;
    Combined.Vars.push_back(N.Vars[J]);
    chain(sizeVar(N.Vars[J]), std::move(Combined));
  }
  if (N.Const != 0) {
    NormalSize Combined = Partial;
    Combined.Const = N.Const;
    chain(sizeConst(N.Const), std::move(Combined));
  }
  return Acc;
}

SizeRef TypeArena::sizePlus(const SizeRef &L, const SizeRef &R) {
  assert(L && R && "plus of null sizes");
  NormalSize N;
  N.Const = L->norm().Const + R->norm().Const;
  N.Vars = L->norm().Vars;
  N.Vars.reserve(N.Vars.size() + R->norm().Vars.size());
  N.Vars.insert(N.Vars.end(), R->norm().Vars.begin(), R->norm().Vars.end());
  return sizeFromNormal(std::move(N));
}

//===----------------------------------------------------------------------===//
// Pretypes
//===----------------------------------------------------------------------===//

PretypeRef TypeArena::unit() {
  if (const Pretype *P = I->Unit.load(std::memory_order_acquire))
    return P->shared_from_this();
  uint64_t H = mix(static_cast<uint64_t>(PretypeKind::Unit), 0);
  PretypeRef R = internNode(
      I->M, I->St, I->PTab, H, I->St.PretypeNodes,
      [&](const Pretype &P) { return P.kind() == PretypeKind::Unit; },
      [&] {
        auto N = std::shared_ptr<UnitPT>(new UnitPT());
        finalize(*N, this, H, Meta{});
        finalizeNC(*N, NoCapsBits{});
        return N;
      });
  I->Unit.store(R.get(), std::memory_order_release);
  return R;
}

PretypeRef TypeArena::num(NumType NT) {
  std::atomic<const Pretype *> &Slot = I->Nums[static_cast<size_t>(NT)];
  if (const Pretype *P = Slot.load(std::memory_order_acquire))
    return P->shared_from_this();
  uint64_t H = mix(static_cast<uint64_t>(PretypeKind::Num),
                   static_cast<uint64_t>(NT));
  PretypeRef R = internNode(
      I->M, I->St, I->PTab, H, I->St.PretypeNodes,
      [&](const Pretype &P) {
        return P.kind() == PretypeKind::Num && cast<NumPT>(&P)->numType() == NT;
      },
      [&] {
        auto N = std::shared_ptr<NumPT>(new NumPT(NT));
        finalize(*N, this, H, Meta{});
        finalizeNC(*N, NoCapsBits{});
        return N;
      });
  Slot.store(R.get(), std::memory_order_release);
  return R;
}

PretypeRef TypeArena::typeVar(uint32_t Idx) {
  std::atomic<const Pretype *> *Slot =
      Idx < NumVarCache ? &I->TypeVars[Idx] : nullptr;
  if (Slot)
    if (const Pretype *P = Slot->load(std::memory_order_acquire))
      return P->shared_from_this();
  uint64_t H = mix(static_cast<uint64_t>(PretypeKind::Var), Idx);
  PretypeRef R = internNode(
      I->M, I->St, I->PTab, H, I->St.PretypeNodes,
      [&](const Pretype &P) {
        return P.kind() == PretypeKind::Var && cast<VarPT>(&P)->index() == Idx;
      },
      [&] {
        auto N = std::shared_ptr<VarPT>(new VarPT(Idx));
        Meta M;
        M.FB.Type = Idx + 1;
        finalize(*N, this, H, M);
        NoCapsBits NC;
        NC.IfTrue = true;
        NC.Dep = true;
        finalizeNC(*N, NC);
        return N;
      });
  if (Slot)
    Slot->store(R.get(), std::memory_order_release);
  return R;
}

PretypeRef TypeArena::skolem(uint64_t Id, Qual QualLower, SizeRef SizeUpper,
                             bool NoCaps) {
  uint64_t H = mix(static_cast<uint64_t>(PretypeKind::Skolem), Id);
  H = mix(H, qualHash(QualLower));
  H = mix(H, sizePtrHash(SizeUpper));
  H = mix(H, NoCaps ? 1 : 0);
  return internNode(
      I->M, I->St, I->PTab, H, I->St.PretypeNodes,
      [&](const Pretype &P) {
        if (P.kind() != PretypeKind::Skolem)
          return false;
        const auto *S = cast<SkolemPT>(&P);
        return S->id() == Id && S->qualLower() == QualLower &&
               S->sizeUpper().get() == SizeUpper.get() &&
               S->noCaps() == NoCaps;
      },
      [&] {
        auto N = std::shared_ptr<SkolemPT>(new SkolemPT(Id, QualLower,
                                            std::move(SizeUpper), NoCaps));
        Meta M;
        accQual(N->qualLower(), M);
        accSize(N->sizeUpper(), M);
        M.Flags |= TF_HasSkolemType;
        finalize(*N, this, H, M);
        NoCapsBits NC;
        NC.IfTrue = N->noCaps();
        finalizeNC(*N, NC);
        return N;
      });
}

PretypeRef TypeArena::prod(std::vector<Type> Elems) {
  return prodImpl(Elems.data(), Elems.size(), &Elems);
}

PretypeRef TypeArena::prodSpan(const Type *Elems, size_t N) {
  return prodImpl(Elems, N, nullptr);
}

PretypeRef TypeArena::prodSpan(const TypeRef *Elems, size_t N) {
  return prodImpl(Elems, N, nullptr);
}

/// Re-owns one element for a freshly interned node: owning elements copy,
/// borrowed ones bump the node's refcount (cold path only — a table hit
/// never materializes anything).
static Type ownElem(const Type &T) { return T; }
static Type ownElem(const TypeRef &T) { return T.own(); }

template <class E>
PretypeRef TypeArena::prodImpl(const E *Elems, size_t NumElems,
                               std::vector<Type> *Own) {
  uint64_t H = mix(0xF0, static_cast<uint64_t>(PretypeKind::Prod));
  for (size_t J = 0; J < NumElems; ++J)
    H = mix(H, typePtrHash(Elems[J]));
  return internNode(
      I->M, I->St, I->PTab, H, I->St.PretypeNodes,
      [&](const Pretype &P) {
        if (P.kind() != PretypeKind::Prod)
          return false;
        const auto &Have = cast<ProdPT>(&P)->elems();
        if (Have.size() != NumElems)
          return false;
        for (size_t J = 0; J < NumElems; ++J)
          if (!typeEquals(Have[J], Elems[J]))
            return false;
        return true;
      },
      [&] {
        std::vector<Type> OwnV;
        if (Own) {
          OwnV = std::move(*Own);
        } else {
          OwnV.reserve(NumElems);
          for (size_t J = 0; J < NumElems; ++J)
            OwnV.push_back(ownElem(Elems[J]));
        }
        auto N = std::shared_ptr<ProdPT>(new ProdPT(std::move(OwnV)));
        Meta M;
        NoCapsBits NC;
        for (const Type &T : N->elems()) {
          accType(T, M);
          NC.andWithType(T);
        }
        NC.clampTo(M.FB);
        finalize(*N, this, H, M);
        finalizeNC(*N, NC);
        return N;
      });
}

PretypeRef TypeArena::ref(Privilege Priv, Loc L, HeapTypeRef HT) {
  assert(HT && "ref with null heap type");
  uint64_t H = mix(static_cast<uint64_t>(PretypeKind::Ref),
                   static_cast<uint64_t>(Priv));
  H = mix(H, locHash(L));
  H = mix(H, HT->hashValue());
  return internNode(
      I->M, I->St, I->PTab, H, I->St.PretypeNodes,
      [&](const Pretype &P) {
        if (P.kind() != PretypeKind::Ref)
          return false;
        const auto *R = cast<RefPT>(&P);
        return R->privilege() == Priv && R->loc() == L &&
               R->heapType().get() == HT.get();
      },
      [&] {
        auto N = std::shared_ptr<RefPT>(new RefPT(Priv, L, std::move(HT)));
        Meta M;
        accLoc(N->loc(), M);
        accHeap(N->heapType(), M);
        finalize(*N, this, H, M);
        // A reference pairs its capability with its pointer — exactly the
        // form the paper allows in GC'd memory, so no_caps holds outright.
        finalizeNC(*N, NoCapsBits{});
        return N;
      });
}

PretypeRef TypeArena::ptr(Loc L) {
  uint64_t H = mix(static_cast<uint64_t>(PretypeKind::Ptr), locHash(L));
  return internNode(
      I->M, I->St, I->PTab, H, I->St.PretypeNodes,
      [&](const Pretype &P) {
        return P.kind() == PretypeKind::Ptr && cast<PtrPT>(&P)->loc() == L;
      },
      [&] {
        auto N = std::shared_ptr<PtrPT>(new PtrPT(L));
        Meta M;
        accLoc(L, M);
        finalize(*N, this, H, M);
        finalizeNC(*N, NoCapsBits{});
        return N;
      });
}

PretypeRef TypeArena::cap(Privilege Priv, Loc L, HeapTypeRef HT) {
  assert(HT && "cap with null heap type");
  uint64_t H = mix(static_cast<uint64_t>(PretypeKind::Cap),
                   static_cast<uint64_t>(Priv));
  H = mix(H, locHash(L));
  H = mix(H, HT->hashValue());
  return internNode(
      I->M, I->St, I->PTab, H, I->St.PretypeNodes,
      [&](const Pretype &P) {
        if (P.kind() != PretypeKind::Cap)
          return false;
        const auto *C = cast<CapPT>(&P);
        return C->privilege() == Priv && C->loc() == L &&
               C->heapType().get() == HT.get();
      },
      [&] {
        auto N = std::shared_ptr<CapPT>(new CapPT(Priv, L, std::move(HT)));
        Meta M;
        accLoc(N->loc(), M);
        accHeap(N->heapType(), M);
        finalize(*N, this, H, M);
        NoCapsBits NC;
        NC.IfTrue = false;
        finalizeNC(*N, NC);
        return N;
      });
}

PretypeRef TypeArena::own(Loc L) {
  uint64_t H = mix(static_cast<uint64_t>(PretypeKind::Own), locHash(L));
  return internNode(
      I->M, I->St, I->PTab, H, I->St.PretypeNodes,
      [&](const Pretype &P) {
        return P.kind() == PretypeKind::Own && cast<OwnPT>(&P)->loc() == L;
      },
      [&] {
        auto N = std::shared_ptr<OwnPT>(new OwnPT(L));
        Meta M;
        accLoc(L, M);
        finalize(*N, this, H, M);
        NoCapsBits NC;
        NC.IfTrue = false;
        finalizeNC(*N, NC);
        return N;
      });
}

PretypeRef TypeArena::rec(Qual Bound, Type Body) {
  assert(Body.valid() && "rec with null body");
  uint64_t H = mix(static_cast<uint64_t>(PretypeKind::Rec), qualHash(Bound));
  H = mix(H, typePtrHash(Body));
  return internNode(
      I->M, I->St, I->PTab, H, I->St.PretypeNodes,
      [&](const Pretype &P) {
        if (P.kind() != PretypeKind::Rec)
          return false;
        const auto *R = cast<RecPT>(&P);
        return R->bound() == Bound && typeEquals(R->body(), Body);
      },
      [&] {
        auto N = std::shared_ptr<RecPT>(new RecPT(Bound, std::move(Body)));
        Meta M;
        accType(N->body(), M);
        M.FB.Type = decN(M.FB.Type, 1); // One pretype binder.
        accQual(N->bound(), M);
        finalize(*N, this, H, M);
        NoCapsBits NC;
        NC.andWithType(N->body());
        NC.clampTo(M.FB);
        finalizeNC(*N, NC);
        return N;
      });
}

PretypeRef TypeArena::exLoc(Type Body) {
  assert(Body.valid() && "exloc with null body");
  uint64_t H =
      mix(static_cast<uint64_t>(PretypeKind::ExLoc), typePtrHash(Body));
  return internNode(
      I->M, I->St, I->PTab, H, I->St.PretypeNodes,
      [&](const Pretype &P) {
        return P.kind() == PretypeKind::ExLoc &&
               typeEquals(cast<ExLocPT>(&P)->body(), Body);
      },
      [&] {
        auto N = std::shared_ptr<ExLocPT>(new ExLocPT(std::move(Body)));
        Meta M;
        accType(N->body(), M);
        M.FB.Loc = decN(M.FB.Loc, 1); // One location binder.
        finalize(*N, this, H, M);
        NoCapsBits NC;
        NC.andWithType(N->body());
        NC.clampTo(M.FB);
        finalizeNC(*N, NC);
        return N;
      });
}

PretypeRef TypeArena::coderef(FunTypeRef FT) {
  assert(FT && "coderef with null function type");
  uint64_t H =
      mix(static_cast<uint64_t>(PretypeKind::Coderef), FT->hashValue());
  return internNode(
      I->M, I->St, I->PTab, H, I->St.PretypeNodes,
      [&](const Pretype &P) {
        return P.kind() == PretypeKind::Coderef &&
               cast<CoderefPT>(&P)->funType().get() == FT.get();
      },
      [&] {
        auto N = std::shared_ptr<CoderefPT>(new CoderefPT(std::move(FT)));
        Meta M;
        accFun(N->funType(), M);
        finalize(*N, this, H, M);
        finalizeNC(*N, NoCapsBits{}); // Code pointers never hold caps.
        return N;
      });
}

//===----------------------------------------------------------------------===//
// Heap types
//===----------------------------------------------------------------------===//

HeapTypeRef TypeArena::variant(std::vector<Type> Cases) {
  return variantImpl(Cases.data(), Cases.size(), &Cases);
}

HeapTypeRef TypeArena::variantSpan(const Type *Cases, size_t N) {
  return variantImpl(Cases, N, nullptr);
}

HeapTypeRef TypeArena::variantSpan(const TypeRef *Cases, size_t N) {
  return variantImpl(Cases, N, nullptr);
}

template <class E>
HeapTypeRef TypeArena::variantImpl(const E *Cases, size_t NumCases,
                                   std::vector<Type> *Own) {
  uint64_t H = mix(0xF1, static_cast<uint64_t>(HeapTypeKind::Variant));
  for (size_t J = 0; J < NumCases; ++J)
    H = mix(H, typePtrHash(Cases[J]));
  return internNode(
      I->M, I->St, I->HTab, H, I->St.HeapTypeNodes,
      [&](const HeapType &HT) {
        if (HT.kind() != HeapTypeKind::Variant)
          return false;
        const auto &Have = cast<VariantHT>(&HT)->cases();
        if (Have.size() != NumCases)
          return false;
        for (size_t J = 0; J < NumCases; ++J)
          if (!typeEquals(Have[J], Cases[J]))
            return false;
        return true;
      },
      [&] {
        std::vector<Type> OwnV;
        if (Own) {
          OwnV = std::move(*Own);
        } else {
          OwnV.reserve(NumCases);
          for (size_t J = 0; J < NumCases; ++J)
            OwnV.push_back(ownElem(Cases[J]));
        }
        auto N = std::shared_ptr<VariantHT>(new VariantHT(std::move(OwnV)));
        Meta M;
        NoCapsBits NC;
        for (const Type &T : N->cases()) {
          accType(T, M);
          NC.andWithType(T);
        }
        NC.clampTo(M.FB);
        finalize(*N, this, H, M);
        finalizeNC(*N, NC);
        return N;
      });
}

HeapTypeRef TypeArena::structure(std::vector<StructField> Fields) {
  return structureImpl(Fields.data(), Fields.size(), &Fields);
}

HeapTypeRef TypeArena::structureSpan(const StructField *Fields, size_t N) {
  return structureImpl(Fields, N, nullptr);
}

/// Uniform raw-slot access over owning and borrowed struct fields, so
/// the struct recipe below exists exactly once.
static const Size *slotPtr(const StructField &F) { return F.Slot.get(); }
static const Size *slotPtr(const StructFieldRef &F) { return F.Slot; }
static StructField ownField(const StructField &F) { return F; }
static StructField ownField(const StructFieldRef &F) {
  return {F.T.own(), F.Slot->shared_from_this()};
}

HeapTypeRef TypeArena::structureSpan(const StructFieldRef *Fields,
                                     size_t N) {
  return structureImpl(Fields, N, nullptr);
}

template <class F>
HeapTypeRef TypeArena::structureImpl(const F *Fields, size_t NumFields,
                                     std::vector<StructField> *Own) {
  uint64_t H = mix(0xF1, static_cast<uint64_t>(HeapTypeKind::Struct));
  for (size_t J = 0; J < NumFields; ++J) {
    H = mix(H, typePtrHash(Fields[J].T));
    const Size *S = slotPtr(Fields[J]);
    H = mix(H, S ? S->hashValue() : 0xC0FFEE);
  }
  return internNode(
      I->M, I->St, I->HTab, H, I->St.HeapTypeNodes,
      [&](const HeapType &HT) {
        if (HT.kind() != HeapTypeKind::Struct)
          return false;
        const auto &Have = cast<StructHT>(&HT)->fields();
        if (Have.size() != NumFields)
          return false;
        for (size_t J = 0; J < NumFields; ++J)
          if (!typeEquals(Have[J].T, Fields[J].T) ||
              Have[J].Slot.get() != slotPtr(Fields[J]))
            return false;
        return true;
      },
      [&] {
        std::vector<StructField> OwnV;
        if (Own) {
          OwnV = std::move(*Own);
        } else {
          OwnV.reserve(NumFields);
          for (size_t J = 0; J < NumFields; ++J)
            OwnV.push_back(ownField(Fields[J]));
        }
        auto N = std::shared_ptr<StructHT>(new StructHT(std::move(OwnV)));
        Meta M;
        NoCapsBits NC;
        for (const StructField &Fld : N->fields()) {
          accType(Fld.T, M);
          accSize(Fld.Slot, M);
          NC.andWithType(Fld.T);
        }
        NC.clampTo(M.FB);
        finalize(*N, this, H, M);
        finalizeNC(*N, NC);
        return N;
      });
}

HeapTypeRef TypeArena::array(Type Elem) {
  assert(Elem.valid() && "array with null element type");
  uint64_t H =
      mix(mix(0xF1, static_cast<uint64_t>(HeapTypeKind::Array)),
          typePtrHash(Elem));
  return internNode(
      I->M, I->St, I->HTab, H, I->St.HeapTypeNodes,
      [&](const HeapType &HT) {
        return HT.kind() == HeapTypeKind::Array &&
               typeEquals(cast<ArrayHT>(&HT)->elem(), Elem);
      },
      [&] {
        auto N = std::shared_ptr<ArrayHT>(new ArrayHT(std::move(Elem)));
        Meta M;
        accType(N->elem(), M);
        finalize(*N, this, H, M);
        NoCapsBits NC;
        NC.andWithType(N->elem());
        NC.clampTo(M.FB);
        finalizeNC(*N, NC);
        return N;
      });
}

HeapTypeRef TypeArena::ex(Qual QualLower, SizeRef SizeUpper, Type Body) {
  assert(Body.valid() && "ex with null body");
  uint64_t H = mix(mix(0xF1, static_cast<uint64_t>(HeapTypeKind::Ex)),
                   qualHash(QualLower));
  H = mix(H, sizePtrHash(SizeUpper));
  H = mix(H, typePtrHash(Body));
  return internNode(
      I->M, I->St, I->HTab, H, I->St.HeapTypeNodes,
      [&](const HeapType &HT) {
        if (HT.kind() != HeapTypeKind::Ex)
          return false;
        const auto *E = cast<ExHT>(&HT);
        return E->qualLower() == QualLower &&
               E->sizeUpper().get() == SizeUpper.get() &&
               typeEquals(E->body(), Body);
      },
      [&] {
        auto N = std::shared_ptr<ExHT>(new ExHT(QualLower, std::move(SizeUpper),
                                        std::move(Body)));
        Meta M;
        accQual(N->qualLower(), M);
        accSize(N->sizeUpper(), M);
        {
          Meta BodyM;
          accType(N->body(), BodyM);
          BodyM.FB.Type = decN(BodyM.FB.Type, 1); // One pretype binder.
          mergeFB(M.FB, BodyM.FB);
          M.Flags |= BodyM.Flags;
        }
        finalize(*N, this, H, M);
        NoCapsBits NC;
        NC.andWithType(N->body()); // The binder's witness is cap-free.
        NC.clampTo(M.FB);
        finalizeNC(*N, NC);
        return N;
      });
}

//===----------------------------------------------------------------------===//
// Function types
//===----------------------------------------------------------------------===//

FunTypeRef TypeArena::fun(std::vector<Quant> Quants, ArrowType Arrow) {
  uint64_t H = 0xF2;
  for (const Quant &Q : Quants)
    H = mix(H, quantHash(Q));
  H = mix(H, arrowHash(Arrow));
  return internNode(
      I->M, I->St, I->FTab, H, I->St.FunTypeNodes,
      [&](const FunType &F) {
        if (F.quants().size() != Quants.size())
          return false;
        for (size_t J = 0; J < Quants.size(); ++J)
          if (!quantEquals(F.quants()[J], Quants[J]))
            return false;
        return arrowEquals(F.arrow(), Arrow);
      },
      [&] {
        auto N = std::shared_ptr<FunType>(new FunType(std::move(Quants), std::move(Arrow)));
        Meta M;
        // Each quantifier's constraints see only the binders declared
        // before it; free bounds are re-based across those.
        uint32_t NL = 0, NS = 0, NQ = 0, NT = 0;
        for (const Quant &Q : N->quants()) {
          Meta QM;
          switch (Q.K) {
          case QuantKind::Loc:
            break;
          case QuantKind::Size:
            for (const SizeRef &S : Q.SizeLower)
              accSize(S, QM);
            for (const SizeRef &S : Q.SizeUpper)
              accSize(S, QM);
            break;
          case QuantKind::Qual:
            for (Qual X : Q.QualLower)
              accQual(X, QM);
            for (Qual X : Q.QualUpper)
              accQual(X, QM);
            break;
          case QuantKind::Type:
            accQual(Q.TypeQualLower, QM);
            accSize(Q.TypeSizeUpper, QM);
            break;
          }
          FreeBounds Rebased;
          Rebased.Loc = decN(QM.FB.Loc, NL);
          Rebased.Size = decN(QM.FB.Size, NS);
          Rebased.Qual = decN(QM.FB.Qual, NQ);
          Rebased.Type = decN(QM.FB.Type, NT);
          mergeFB(M.FB, Rebased);
          M.Flags |= QM.Flags;
          switch (Q.K) {
          case QuantKind::Loc:
            ++NL;
            break;
          case QuantKind::Size:
            ++NS;
            break;
          case QuantKind::Qual:
            ++NQ;
            break;
          case QuantKind::Type:
            ++NT;
            break;
          }
        }
        Meta AM;
        for (const Type &T : N->arrow().Params)
          accType(T, AM);
        for (const Type &T : N->arrow().Results)
          accType(T, AM);
        FreeBounds Rebased;
        Rebased.Loc = decN(AM.FB.Loc, NL);
        Rebased.Size = decN(AM.FB.Size, NS);
        Rebased.Qual = decN(AM.FB.Qual, NQ);
        Rebased.Type = decN(AM.FB.Type, NT);
        mergeFB(M.FB, Rebased);
        M.Flags |= AM.Flags;
        finalize(*N, this, H, M);
        return N;
      });
}

//===----------------------------------------------------------------------===//
// Memoized closed-type sizing
//===----------------------------------------------------------------------===//

SizeRef TypeArena::closedSizeOf(const PretypeRef &P) {
  assert(P && P->freeBounds().Type == 0 &&
         "closedSizeOf on an open pretype");
  // Lock-free fast path: the per-node slot caches a raw pointer to the
  // canonical size (kept alive by this arena's memo table); hand out an
  // *owning* reference via shared_from_this so the caller's SizeRef has
  // the same lifetime semantics as every other node reference.
  if (const Size *S = P->ClosedSizeMemo.load(std::memory_order_acquire))
    return S->shared_from_this();
  // Compute outside the lock (the recursion interns sizes, which locks per
  // operation), interning the result into *this* arena so that repeated
  // queries — possibly under a different current arena — always return the
  // same canonical node.
  SizeRef R;
  {
    ArenaScope Scope(*this);
    static const TypeVarSizes Empty;
    R = detail::sizeOfPretypeRaw(P, Empty);
  }
  std::lock_guard<SpinLock> G(I->M);
  auto [It, Inserted] = I->ClosedSize.emplace(P.get(), R);
  // Publish the first writer's node; later writers store the same pointer.
  P->ClosedSizeMemo.store(It->second.get(), std::memory_order_release);
  return It->second;
}

const Size *TypeArena::closedSizePtr(const Pretype *P) {
  assert(P && P->freeBounds().Type == 0 &&
         "closedSizePtr on an open pretype");
  // Same memo as closedSizeOf, but the answer stays a raw pointer: the
  // memo table owns the node for the arena's lifetime, so the borrowed
  // checker path never touches a refcount here.
  if (const Size *S = P->ClosedSizeMemo.load(std::memory_order_acquire))
    return S;
  return closedSizeOf(P->shared_from_this()).get();
}

// The wf memos live as lock-free per-node success bits; the arena methods
// are the sanctioned accessors (the bits are meaningless without the
// interning invariant that one structural identity is one node).

bool TypeArena::isKnownWfPretype(const Pretype *P, bool OuterLin) const {
  return P->WfMemo.load(std::memory_order_acquire) & (OuterLin ? 2u : 1u);
}

void TypeArena::noteWfPretype(const Pretype *P, bool OuterLin) {
  P->WfMemo.fetch_or(OuterLin ? 2u : 1u, std::memory_order_release);
}

bool TypeArena::isKnownWfFun(const FunType *F) const {
  return F->WfMemo.load(std::memory_order_acquire) != 0;
}

void TypeArena::noteWfFun(const FunType *F) {
  F->WfMemo.store(1, std::memory_order_release);
}

//===----------------------------------------------------------------------===//
// Arena lifecycle, current-arena scoping, stats
//===----------------------------------------------------------------------===//

// Leaf caches are lazy (see Impl), so constructing an arena allocates
// nothing beyond the empty tables — short-lived arenas are cheap.
TypeArena::TypeArena() : I(std::make_unique<Impl>()) {}

TypeArena::~TypeArena() = default;

TypeArena::Stats TypeArena::stats() const {
  std::lock_guard<SpinLock> G(I->M);
  return I->St;
}

const std::shared_ptr<TypeArena> &TypeArena::globalPtr() {
  static std::shared_ptr<TypeArena> G = [] {
    auto A = std::make_shared<TypeArena>();
    // The process-wide arena reports through obs::snapshot() for the
    // whole process lifetime (the weak_ptr breaks the cycle and guards
    // static-destruction order; short-lived scratch arenas stay out of
    // the registry). Never unregistered — the arena lives as long as any
    // code that could snapshot.
    obs::registerSource(
        "arena", [W = std::weak_ptr<TypeArena>(A)](const obs::EmitFn &E) {
          std::shared_ptr<TypeArena> A = W.lock();
          if (!A)
            return;
          TypeArena::Stats S = A->stats();
          E("hits", S.Hits);
          E("misses", S.Misses);
          E("pretype_nodes", S.PretypeNodes);
          E("heap_type_nodes", S.HeapTypeNodes);
          E("fun_type_nodes", S.FunTypeNodes);
          E("size_nodes", S.SizeNodes);
          E("skolem_nodes", S.SkolemNodes);
          E("total_nodes", S.totalNodes());
          E("approx_bytes", S.ApproxBytes);
        });
    return A;
  }();
  return G;
}

TypeArena &TypeArena::global() { return *globalPtr(); }

static thread_local TypeArena *CurrentArena = nullptr;

TypeArena &TypeArena::current() {
  return CurrentArena ? *CurrentArena : global();
}

ArenaScope::ArenaScope(TypeArena &A) : Prev(CurrentArena) {
  CurrentArena = &A;
}

ArenaScope::~ArenaScope() { CurrentArena = Prev; }

#ifndef NDEBUG
// Debug arena-lifetime assertion behind ir::TypeRef (ir/Types.h): every
// borrow must name a node of the arena active on this thread — the one
// whose table keeps the node alive for the duration of the check/lower.
// A mismatch means the borrow could outlive its owner (or that a worker
// thread forgot to install the module's ArenaScope), so fail loudly here
// rather than dangle later. The owner tag is the node's existing
// intern-time Arena back-pointer, so this costs nothing in release builds.
void rw::ir::detail::assertBorrowedFromCurrentArena(const Pretype *P) {
  assert((!P || !P->arena() || P->arena() == &TypeArena::current()) &&
         "borrowed TypeRef node does not belong to the active ArenaScope "
         "arena");
}
#endif

//===----------------------------------------------------------------------===//
// Free factory helpers (ir/Types.h, ir/Size.h) — intern into current()
//===----------------------------------------------------------------------===//

SizeRef Size::constant(uint64_t Bits) {
  return TypeArena::current().sizeConst(Bits);
}
SizeRef Size::var(uint32_t Idx) { return TypeArena::current().sizeVar(Idx); }
SizeRef Size::plus(SizeRef L, SizeRef R) {
  return TypeArena::current().sizePlus(L, R);
}

FunTypeRef FunType::get(std::vector<Quant> Quants, ArrowType Arrow) {
  return TypeArena::current().fun(std::move(Quants), std::move(Arrow));
}

PretypeRef rw::ir::unitPT() { return TypeArena::current().unit(); }
PretypeRef rw::ir::numPT(NumType NT) { return TypeArena::current().num(NT); }
PretypeRef rw::ir::varPT(uint32_t Idx) {
  return TypeArena::current().typeVar(Idx);
}
PretypeRef rw::ir::skolemPT(uint64_t Id, Qual QualLower, SizeRef SizeUpper,
                            bool NoCaps) {
  return TypeArena::current().skolem(Id, QualLower, std::move(SizeUpper),
                                     NoCaps);
}
PretypeRef rw::ir::prodPT(std::vector<Type> Elems) {
  return TypeArena::current().prod(std::move(Elems));
}
PretypeRef rw::ir::refPT(Privilege Priv, Loc L, HeapTypeRef HT) {
  return TypeArena::current().ref(Priv, L, std::move(HT));
}
PretypeRef rw::ir::ptrPT(Loc L) { return TypeArena::current().ptr(L); }
PretypeRef rw::ir::capPT(Privilege Priv, Loc L, HeapTypeRef HT) {
  return TypeArena::current().cap(Priv, L, std::move(HT));
}
PretypeRef rw::ir::ownPT(Loc L) { return TypeArena::current().own(L); }
PretypeRef rw::ir::recPT(Qual Bound, Type Body) {
  return TypeArena::current().rec(Bound, std::move(Body));
}
PretypeRef rw::ir::exLocPT(Type Body) {
  return TypeArena::current().exLoc(std::move(Body));
}
PretypeRef rw::ir::coderefPT(FunTypeRef FT) {
  return TypeArena::current().coderef(std::move(FT));
}

HeapTypeRef rw::ir::variantHT(std::vector<Type> Cases) {
  return TypeArena::current().variant(std::move(Cases));
}
HeapTypeRef rw::ir::structHT(std::vector<StructField> Fields) {
  return TypeArena::current().structure(std::move(Fields));
}
HeapTypeRef rw::ir::arrayHT(Type Elem) {
  return TypeArena::current().array(std::move(Elem));
}
HeapTypeRef rw::ir::exHT(Qual QualLower, SizeRef SizeUpper, Type Body) {
  return TypeArena::current().ex(QualLower, std::move(SizeUpper),
                                 std::move(Body));
}
