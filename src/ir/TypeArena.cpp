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
// Every pretype, heap type and function type interns through one recipe,
// TypeArena::internKeys, which reads the node's field list: the hash, the
// probe, the insert-race re-probe, the metadata (entering each marked
// binder) and the size estimate are folds over C::fields(). The fold
// bodies are overloads per field type, resolved at compile time, so the
// probe path is the same straight-line code the per-kind factories were.
//
//===----------------------------------------------------------------------===//

#include "ir/TypeArena.h"

#include "ir/TypeOps.h"
#include "obs/Obs.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <mutex>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
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
// Field-list walks: hash, probe equality, metadata, size estimate
//===----------------------------------------------------------------------===//
//
// Each walk folds over a node's fields (C::fields() in ir/Types.h) or over
// the keys a factory was called with, which line up with the fields one
// to one. A key is the field's own value or, for a vector field, a
// borrowed Span from the span probes; the hash and the equality treat the
// two alike, so owning and borrowed probes of one structural identity meet
// in one node.

namespace {
/// A borrowed element range standing in for a vector field's value.
template <class E> struct Span {
  const E *Data;
  size_t N;
  const E *begin() const { return Data; }
  const E *end() const { return Data + N; }
  size_t size() const { return N; }
};
template <class T> constexpr bool IsSpan = false;
template <class E> constexpr bool IsSpan<Span<E>> = true;

template <class T>
concept Scalar = std::is_arithmetic_v<T> || std::is_enum_v<T>;
} // namespace

/// Calls \p Fn(value, field) on each field of \p N, in list order.
template <class C, class Fn> static void forEachField(const C &N, Fn &&F) {
  std::apply([&](const auto &...Fs) { (F(N.*Fs.Member, Fs), ...); },
             C::fields());
}

// The Merkle fold of one field value into H: child nodes contribute their
// own hash, vectors each element in turn.
template <Scalar T> static uint64_t hashInto(uint64_t H, T V) {
  return mix(H, static_cast<uint64_t>(V));
}
static uint64_t hashInto(uint64_t H, Qual Q) { return mix(H, qualHash(Q)); }
static uint64_t hashInto(uint64_t H, const Loc &L) {
  return mix(H, locHash(L));
}
static uint64_t hashInto(uint64_t H, const Size *S) {
  return mix(H, S ? S->hashValue() : 0xC0FFEE);
}
static uint64_t hashInto(uint64_t H, const SizeRef &S) {
  return hashInto(H, S.get());
}
static uint64_t hashInto(uint64_t H, const Type &T) {
  assert(T.P && "null pretype child");
  return mix(H, typePtrHash(T));
}
static uint64_t hashInto(uint64_t H, const TypeRef &T) {
  return mix(H, typePtrHash(T));
}
static uint64_t hashInto(uint64_t H, const HeapTypeRef &C) {
  assert(C && "null heap type child");
  return mix(H, C->hashValue());
}
static uint64_t hashInto(uint64_t H, const FunTypeRef &C) {
  assert(C && "null function type child");
  return mix(H, C->hashValue());
}
static uint64_t hashInto(uint64_t H, const Quant &Q) {
  return mix(H, quantHash(Q));
}
static uint64_t hashInto(uint64_t H, const ArrowType &A) {
  return mix(H, arrowHash(A));
}
static uint64_t hashInto(uint64_t H, const StructField &F) {
  return hashInto(hashInto(H, F.T), F.Slot);
}
static uint64_t hashInto(uint64_t H, const StructFieldRef &F) {
  return hashInto(hashInto(H, F.T), F.Slot);
}
template <class Vs>
  requires requires(const Vs &X) { X.begin(); }
static uint64_t hashInto(uint64_t H, const Vs &Xs) {
  for (const auto &X : Xs)
    H = hashInto(H, X);
  return H;
}

/// Where a node's hash starts: its row's seed (ir/Types.h), and 0xF2 for
/// function types, which have no kind.
template <class C> static uint64_t hashSeed() {
  if constexpr (std::is_same_v<C, FunType>) {
    return 0xF2;
  } else {
    uint64_t K = static_cast<uint64_t>(C::Kind);
    return TypeRow<C>::HashSeed ? mix(TypeRow<C>::HashSeed, K) : K;
  }
}

// Shallow field equality: scalars by value, children by pointer (children
// are canonical in the arena, so pointer equality is their structural
// equality).
template <Scalar T> static bool eqField(T A, T B) { return A == B; }
static bool eqField(Qual A, Qual B) { return A == B; }
static bool eqField(const Loc &A, const Loc &B) { return A == B; }
static bool eqField(const SizeRef &A, const SizeRef &B) {
  return A.get() == B.get();
}
static bool eqField(const SizeRef &A, const Size *B) { return A.get() == B; }
static bool eqField(const Type &A, const Type &B) { return typeEquals(A, B); }
static bool eqField(const Type &A, const TypeRef &B) {
  return typeEquals(A, B);
}
static bool eqField(const HeapTypeRef &A, const HeapTypeRef &B) {
  return A.get() == B.get();
}
static bool eqField(const FunTypeRef &A, const FunTypeRef &B) {
  return A.get() == B.get();
}
static bool eqField(const Quant &A, const Quant &B) {
  return quantEquals(A, B);
}
static bool eqField(const ArrowType &A, const ArrowType &B) {
  return arrowEquals(A, B);
}
template <class F> static bool eqField(const StructField &A, const F &B) {
  return eqField(A.T, B.T) && eqField(A.Slot, B.Slot);
}
template <class E, class Vs>
static bool eqField(const std::vector<E> &A, const Vs &B) {
  if (A.size() != B.size())
    return false;
  auto It = B.begin();
  for (const E &V : A)
    if (!eqField(V, *It++))
      return false;
  return true;
}

/// Whether \p N is a class-\p C node.
template <class C, class Base> static bool isNode(const Base &N) {
  if constexpr (std::is_same_v<C, FunType>)
    return true;
  else
    return N.kind() == C::Kind;
}

/// The probe: does node \p N hold exactly the keys \p Key?
template <class C, class... K>
static bool fieldsEqual(const C &N, const K &...Key) {
  return std::apply(
      [&](const auto &...Fs) { return (eqField(N.*Fs.Member, Key) && ...); },
      C::fields());
}

/// The insert-race re-probe, against the *built* node (the keys may have
/// been moved into it): the same shallow equality as the first probe.
template <class C, class Base>
static bool builtEquals(const Base &Existing, const C &N) {
  return isNode<C>(Existing) &&
         std::apply(
             [&](const auto &...Fs) {
               return fieldsEqual(static_cast<const C &>(Existing),
                                  N.*Fs.Member...);
             },
             C::fields());
}
static bool builtEquals(const Size &A, const Size &B) {
  return A.norm() == B.norm();
}

namespace {
/// Folds field values into a node's metadata: free bounds and flags from
/// every variable, location, size and child node; no_caps bits from every
/// child value type. The heap type behind a ref or cap and the function
/// type of a coderef do not count towards no_caps — a reference pairs its
/// capability with its pointer, the form the paper allows in GC'd memory,
/// and code pointers never hold capabilities.
struct MetaAcc {
  FreeBounds FB;
  uint8_t Flags = 0;
  NoCapsBits NC;

  template <Scalar T> void operator()(T) {}
  void operator()(Qual Q) {
    if (Q.isVar())
      bump(FB.Qual, Q.varIndex() + 1);
  }
  void operator()(const Loc &L) {
    switch (L.kind()) {
    case Loc::Kind::Var:
      bump(FB.Loc, L.varIndex() + 1);
      break;
    case Loc::Kind::Concrete:
      Flags |= TF_HasConcreteLoc;
      break;
    case Loc::Kind::Skolem:
      Flags |= TF_HasSkolemLoc;
      break;
    }
  }
  void operator()(const SizeRef &S) {
    if (S)
      bump(FB.Size, S->freeBound());
  }
  void operator()(const Type &T) {
    child(*T.P);
    (*this)(T.Q);
    NC.andWithType(T);
  }
  void operator()(const HeapTypeRef &H) { child(*H); }
  void operator()(const FunTypeRef &F) { child(*F); }
  void operator()(const Quant &Q) {
    switch (Q.K) {
    case QuantKind::Loc:
      break;
    case QuantKind::Size:
      (*this)(Q.SizeLower);
      (*this)(Q.SizeUpper);
      break;
    case QuantKind::Qual:
      (*this)(Q.QualLower);
      (*this)(Q.QualUpper);
      break;
    case QuantKind::Type:
      (*this)(Q.TypeQualLower);
      (*this)(Q.TypeSizeUpper);
      break;
    }
  }
  template <class E> void operator()(const std::vector<E> &Vs) {
    for (const E &V : Vs)
      (*this)(V);
  }
  template <HasFields R> void operator()(const R &Rec) {
    forEachField(Rec, [&](const auto &V, const auto &) { (*this)(V); });
  }

  /// Folds a value that sits under the binders \p Under: its free bounds
  /// are re-based across them before they join the node's.
  template <class T> void under(const T &V, const FreeBounds &Under) {
    MetaAcc Sub;
    Sub(V);
    mergeFB(FB, {decN(Sub.FB.Loc, Under.Loc), decN(Sub.FB.Size, Under.Size),
                 decN(Sub.FB.Qual, Under.Qual),
                 decN(Sub.FB.Type, Under.Type)});
    Flags |= Sub.Flags;
    NC.andWith(Sub.NC.IfTrue, Sub.NC.Dep);
  }

private:
  template <class Node> void child(const Node &N) {
    mergeFB(FB, N.freeBounds());
    Flags |= N.flags();
  }
};
} // namespace

/// Opens one binder of the kind a field mark or a quantifier names.
static void bind(FreeBounds &Open, Binder B) {
  if (B == Binder::Loc)
    ++Open.Loc;
  else if (B == Binder::Pretype)
    ++Open.Type;
}
static void bind(FreeBounds &Open, QuantKind K) {
  switch (K) {
  case QuantKind::Loc:
    ++Open.Loc;
    break;
  case QuantKind::Size:
    ++Open.Size;
    break;
  case QuantKind::Qual:
    ++Open.Qual;
    break;
  case QuantKind::Type:
    ++Open.Type;
    break;
  }
}

// A kind's own metadata rule, applied before its fields are folded in.
template <class C> static void kindRule(const C &, MetaAcc &) {}
static void kindRule(const VarPT &N, MetaAcc &A) {
  A.FB.Type = N.index() + 1;
  A.NC.Dep = true; // Cap-free exactly when the variable is.
}
static void kindRule(const SkolemPT &N, MetaAcc &A) {
  A.Flags |= TF_HasSkolemType;
  A.NC.IfTrue = N.noCaps();
}
static void kindRule(const CapPT &, MetaAcc &A) { A.NC.IfTrue = false; }
static void kindRule(const OwnPT &, MetaAcc &A) { A.NC.IfTrue = false; }

/// The intern-time metadata of node \p N.
template <class C> static MetaAcc nodeMeta(const C &N) {
  MetaAcc Acc;
  kindRule(N, Acc);
  FreeBounds Open; // Binders a quantifier list opened earlier in N.
  forEachField(N, [&](const auto &V, const auto &F) {
    using T = std::decay_t<decltype(V)>;
    if constexpr (std::is_same_v<T, std::vector<Quant>>) {
      if (F.Binds == Binder::Quants) {
        // Each quantifier's constraints see the quantifiers before it.
        for (const Quant &Q : V) {
          Acc.under(Q, Open);
          bind(Open, Q.K);
        }
        return;
      }
    }
    FreeBounds Under = Open;
    bind(Under, F.Binds);
    Acc.under(V, Under);
  });
  Acc.NC.clampTo(Acc.FB);
  return Acc;
}

/// Sizeof-based live-memory estimate for Stats::ApproxBytes: the node
/// object plus its owned vector payloads (children are shared, counted
/// once at their own intern).
template <class T> static uint64_t payloadBytes(const T &) { return 0; }
template <class E> static uint64_t payloadBytes(const std::vector<E> &V) {
  return V.size() * sizeof(E);
}
static uint64_t payloadBytes(const ArrowType &A) {
  return payloadBytes(A.Params) + payloadBytes(A.Results);
}
template <class C> static uint64_t approxNodeBytes(const C &N) {
  uint64_t B = sizeof(C);
  forEachField(N, [&](const auto &V, const auto &) { B += payloadBytes(V); });
  return B;
}
static uint64_t approxNodeBytes(const Size &S) {
  return sizeof(Size) + S.norm().Vars.size() * sizeof(uint32_t);
}

/// Re-owns one key for a freshly built node: owned values move in, and a
/// borrowed span is copied into a vector (cold path only — a table hit
/// never materializes anything).
static Type ownElem(const Type &T) { return T; }
static Type ownElem(const TypeRef &T) { return T.own(); }
static StructField ownElem(const StructField &F) { return F; }
static StructField ownElem(const StructFieldRef &F) {
  return {F.T.own(), F.Slot->shared_from_this()};
}
template <class K> static decltype(auto) ownKey(K &&Key) {
  if constexpr (IsSpan<std::decay_t<K>>) {
    std::vector<decltype(ownElem(*Key.Data))> V;
    V.reserve(Key.N);
    for (const auto &E : Key)
      V.push_back(ownElem(E));
    return V;
  } else {
    return std::forward<K>(Key);
  }
}

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

/// Lock-free leaf caches: lazily populated atomic slots pointing at
/// table-owned canonical nodes (populate races are benign — every writer
/// stores the same node). Lazy so that arena construction is near-free,
/// which lets short-lived arenas (per-machine runtime types, fuzz tests)
/// stay cheap.
struct LeafCaches {
  std::atomic<const Pretype *> Unit{nullptr};
  std::atomic<const Pretype *> Nums[6] = {};
  std::atomic<const Pretype *> TypeVars[NumVarCache] = {};
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
  LeafCaches Leaves;
  // Size leaves, cached the same way.
  std::atomic<const Size *> ConstSizes[NumConstSizeCache] = {};
  std::atomic<const Size *> SizeVars[NumVarCache] = {};
  Stats St;
};

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
  auto N = Make();
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
/// build nodes and fill their intern-time metadata.
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

  /// Builds the class-\p C node from its keys and fills its intern-time
  /// metadata.
  template <class C, class... K>
  static std::shared_ptr<const C> newNode(TypeArena *A, uint64_t H,
                                          K &&...Key) {
    auto N = std::shared_ptr<C>(new C(ownKey(std::forward<K>(Key))...));
    MetaAcc Acc = nodeMeta(*N);
    N->FB = Acc.FB;
    N->Flags = Acc.Flags;
    N->H = H;
    N->Arena = A;
    if constexpr (!std::is_same_v<C, FunType>) {
      N->NoCapsIfTrue = Acc.NC.IfTrue;
      N->NoCapsDepends = Acc.NC.Dep;
    }
    return N;
  }
};

static SizeRef newSizeNode(TypeArena *A, Size::Kind K, uint64_t ConstBits,
                           uint32_t VarIdx, SizeRef L, SizeRef R,
                           NormalSize N) {
  return TypeArenaAccess::newSizeNode(A, K, ConstBits, VarIdx, std::move(L),
                                      std::move(R), std::move(N));
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
// Type nodes
//===----------------------------------------------------------------------===//

// The lock-free cache slot a leaf is published in, for the kinds that have
// one; every other kind interns through the table alone.
static std::atomic<const Pretype *> *leafSlot(LeafCaches &L, const UnitPT *) {
  return &L.Unit;
}
static std::atomic<const Pretype *> *leafSlot(LeafCaches &L, const NumPT *,
                                              NumType NT) {
  return &L.Nums[static_cast<size_t>(NT)];
}
static std::atomic<const Pretype *> *leafSlot(LeafCaches &L, const VarPT *,
                                              uint32_t Idx) {
  return Idx < NumVarCache ? &L.TypeVars[Idx] : nullptr;
}
template <class... K>
static std::nullptr_t leafSlot(LeafCaches &, const void *, const K &...) {
  return nullptr;
}

// Inlined into each factory, as the per-kind factories' bodies were, so
// a leaf-cache hit stays a load and a return.
template <class C, class... K>
[[gnu::always_inline]] inline NodeRef<C> TypeArena::internKeys(K &&...Key) {
  auto Slot = leafSlot(I->Leaves, static_cast<const C *>(nullptr), Key...);
  constexpr bool Cached = !std::is_same_v<decltype(Slot), std::nullptr_t>;
  if constexpr (Cached)
    if (Slot)
      if (const Pretype *P = Slot->load(std::memory_order_acquire))
        return P->shared_from_this();
  uint64_t H = hashSeed<C>();
  ((H = hashInto(H, Key)), ...);
  if constexpr (sizeof...(K) == 0)
    H = mix(H, 0);
  auto &Tab = [&]() -> auto & {
    if constexpr (std::is_base_of_v<Pretype, C>)
      return I->PTab;
    else if constexpr (std::is_base_of_v<HeapType, C>)
      return I->HTab;
    else
      return I->FTab;
  }();
  uint64_t &Count = std::is_base_of_v<Pretype, C>    ? I->St.PretypeNodes
                    : std::is_base_of_v<HeapType, C> ? I->St.HeapTypeNodes
                                                     : I->St.FunTypeNodes;
  NodeRef<C> R = internNode(
      I->M, I->St, Tab, H, Count,
      [&](const auto &N) {
        return isNode<C>(N) && fieldsEqual(static_cast<const C &>(N), Key...);
      },
      [&] {
        return TypeArenaAccess::newNode<C>(this, H, std::forward<K>(Key)...);
      });
  if constexpr (Cached)
    if (Slot)
      Slot->store(R.get(), std::memory_order_release);
  return R;
}

template <class C> NodeRef<C> TypeArena::intern(FieldValues<C> Vals) {
  return std::apply(
      [&](auto &...V) { return internKeys<C>(std::move(V)...); }, Vals);
}

#define RW_TYPE_INTERN(Kind, Class, Seed)                                      \
  template NodeRef<Class> TypeArena::intern<Class>(FieldValues<Class>);
RW_TYPE_KINDS(RW_TYPE_INTERN, RW_TYPE_INTERN)
#undef RW_TYPE_INTERN
template FunTypeRef TypeArena::intern<FunType>(FieldValues<FunType>);

PretypeRef TypeArena::prodSpan(const Type *Elems, size_t N) {
  return internKeys<ProdPT>(Span<Type>{Elems, N});
}
PretypeRef TypeArena::prodSpan(const TypeRef *Elems, size_t N) {
  return internKeys<ProdPT>(Span<TypeRef>{Elems, N});
}
HeapTypeRef TypeArena::variantSpan(const Type *Cases, size_t N) {
  return internKeys<VariantHT>(Span<Type>{Cases, N});
}
HeapTypeRef TypeArena::variantSpan(const TypeRef *Cases, size_t N) {
  return internKeys<VariantHT>(Span<TypeRef>{Cases, N});
}
HeapTypeRef TypeArena::structureSpan(const StructField *Fields, size_t N) {
  return internKeys<StructHT>(Span<StructField>{Fields, N});
}
HeapTypeRef TypeArena::structureSpan(const StructFieldRef *Fields,
                                     size_t N) {
  return internKeys<StructHT>(Span<StructFieldRef>{Fields, N});
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

// Each helper interns its node through the one recipe (intern<C>), in
// the field order of `C::fields()`.

FunTypeRef FunType::get(std::vector<Quant> Quants, ArrowType Arrow) {
  return TypeArena::current().intern<FunType>(
      {std::move(Quants), std::move(Arrow)});
}

PretypeRef rw::ir::unitPT() { return TypeArena::current().intern<UnitPT>({}); }
PretypeRef rw::ir::numPT(NumType NT) {
  return TypeArena::current().intern<NumPT>({NT});
}
PretypeRef rw::ir::varPT(uint32_t Idx) {
  return TypeArena::current().intern<VarPT>({Idx});
}
PretypeRef rw::ir::skolemPT(uint64_t Id, Qual QualLower, SizeRef SizeUpper,
                            bool NoCaps) {
  return TypeArena::current().intern<SkolemPT>(
      {Id, QualLower, std::move(SizeUpper), NoCaps});
}
PretypeRef rw::ir::prodPT(std::vector<Type> Elems) {
  return TypeArena::current().intern<ProdPT>({std::move(Elems)});
}
PretypeRef rw::ir::refPT(Privilege Priv, Loc L, HeapTypeRef HT) {
  return TypeArena::current().intern<RefPT>({Priv, L, std::move(HT)});
}
PretypeRef rw::ir::ptrPT(Loc L) {
  return TypeArena::current().intern<PtrPT>({L});
}
PretypeRef rw::ir::capPT(Privilege Priv, Loc L, HeapTypeRef HT) {
  return TypeArena::current().intern<CapPT>({Priv, L, std::move(HT)});
}
PretypeRef rw::ir::ownPT(Loc L) {
  return TypeArena::current().intern<OwnPT>({L});
}
PretypeRef rw::ir::recPT(Qual Bound, Type Body) {
  return TypeArena::current().intern<RecPT>({Bound, std::move(Body)});
}
PretypeRef rw::ir::exLocPT(Type Body) {
  return TypeArena::current().intern<ExLocPT>({std::move(Body)});
}
PretypeRef rw::ir::coderefPT(FunTypeRef FT) {
  return TypeArena::current().intern<CoderefPT>({std::move(FT)});
}

HeapTypeRef rw::ir::variantHT(std::vector<Type> Cases) {
  return TypeArena::current().intern<VariantHT>({std::move(Cases)});
}
HeapTypeRef rw::ir::structHT(std::vector<StructField> Fields) {
  return TypeArena::current().intern<StructHT>({std::move(Fields)});
}
HeapTypeRef rw::ir::arrayHT(Type Elem) {
  return TypeArena::current().intern<ArrayHT>({std::move(Elem)});
}
HeapTypeRef rw::ir::exHT(Qual QualLower, SizeRef SizeUpper, Type Body) {
  return TypeArena::current().intern<ExHT>(
      {QualLower, std::move(SizeUpper), std::move(Body)});
}
