//===- ir/TypeArena.h - Hash-consing interner for RichWasm types -*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hash-consing arena behind ir/Types.h and ir/Size.h. Every
/// Pretype/HeapType/FunType/Size node is allocated exactly once per
/// structural identity: interning a node whose (canonicalized) constructor
/// arguments match an existing node returns that node. Children are always
/// interned before their parents, so the intern lookup is *shallow* — a
/// hash over child pointers plus scalars, and pointer-wise equality on the
/// candidate's fields. This is what collapses `typeEquals` and friends to
/// pointer comparison, and it is the foundation for the memoized judgments
/// (closed-type sizing, no_caps bits, rewrite short-circuiting) layered on
/// the per-node metadata.
///
/// Invariants:
///  * Sizes are canonicalized to +-normal form at intern time; the arena
///    interns one node per normal form.
///  * A type tree must be interned wholly within one arena; pointer
///    equality is only meaningful between nodes of the same arena.
///  * Nodes keep their children alive via shared_ptr, but a node's
///    back-pointer to its owning arena (used by the memo caches) dangles
///    once the arena is destroyed — do not use nodes after that.
///
/// Ownership & threading: modules own a shared arena handle
/// (ir::Module::Arena), defaulting to the process-wide TypeArena::global(),
/// so that separately built modules share one canonical type universe and
/// link-time import/export matching stays a pointer comparison. All arena
/// operations (interning and the memo caches) are guarded by a per-arena
/// mutex, so many modules may be checked in parallel over one arena. The
/// free factory helpers intern into the *current* arena — a thread-local
/// set with ArenaScope, global() by default.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_IR_TYPEARENA_H
#define RICHWASM_IR_TYPEARENA_H

#include "ir/Types.h"

#include <memory>
#include <type_traits>

namespace rw::ir {

/// Hash-consing interner and memo-cache owner for RichWasm types.
class TypeArena {
public:
  TypeArena();
  ~TypeArena();
  TypeArena(const TypeArena &) = delete;
  TypeArena &operator=(const TypeArena &) = delete;

  /// The process-wide default arena (alive for the whole program).
  static TypeArena &global();
  /// Shared handle to the global arena, for module ownership.
  static const std::shared_ptr<TypeArena> &globalPtr();
  /// The arena the free factory helpers intern into: the innermost active
  /// ArenaScope on this thread, or global() when none is active.
  static TypeArena &current();

  /// Generic interning entry point, `Arena.get<XxxPT>(args...)`; dispatches
  /// to the kind-specific interners below.
  template <class T, class... Args> auto get(Args &&...args);

  // Pretypes.
  PretypeRef unit();
  PretypeRef num(NumType NT);
  PretypeRef typeVar(uint32_t Idx);
  PretypeRef skolem(uint64_t Id, Qual QualLower, SizeRef SizeUpper,
                    bool NoCaps);
  PretypeRef prod(std::vector<Type> Elems);
  PretypeRef ref(Privilege Priv, Loc L, HeapTypeRef HT);
  PretypeRef ptr(Loc L);
  PretypeRef cap(Privilege Priv, Loc L, HeapTypeRef HT);
  PretypeRef own(Loc L);
  PretypeRef rec(Qual Bound, Type Body);
  PretypeRef exLoc(Type Body);
  PretypeRef coderef(FunTypeRef FT);

  // Heap types.
  HeapTypeRef variant(std::vector<Type> Cases);
  HeapTypeRef structure(std::vector<StructField> Fields);
  HeapTypeRef array(Type Elem);
  HeapTypeRef ex(Qual QualLower, SizeRef SizeUpper, Type Body);

  /// Span-probe variants: intern from a borrowed element range without
  /// materializing an argument vector. On a table hit (the steady-state
  /// checker case) nothing is allocated; elements are copied into a node
  /// only on a miss. The range is not retained.
  PretypeRef prodSpan(const Type *Elems, size_t N);
  HeapTypeRef variantSpan(const Type *Cases, size_t N);
  HeapTypeRef structureSpan(const StructField *Fields, size_t N);
  /// Borrowed-range span probes (TypeRef / StructFieldRef elements): the
  /// checker's operand stack holds borrowed views, and these probe the
  /// table against them directly; elements are re-owned only on a miss.
  PretypeRef prodSpan(const TypeRef *Elems, size_t N);
  HeapTypeRef variantSpan(const TypeRef *Cases, size_t N);
  HeapTypeRef structureSpan(const StructFieldRef *Fields, size_t N);

  // Function types.
  FunTypeRef fun(std::vector<Quant> Quants, ArrowType Arrow);

  // Sizes (canonicalized to +-normal form).
  SizeRef sizeConst(uint64_t Bits);
  SizeRef sizeVar(uint32_t Idx);
  SizeRef sizePlus(const SizeRef &L, const SizeRef &R);
  SizeRef sizeFromNormal(NormalSize N);

  /// Memoized ||p|| for *closed* pretypes (freeBounds().Type == 0): the
  /// size of such a pretype is independent of the type-variable context, so
  /// it is computed once per node and cached here, interned in this arena.
  SizeRef closedSizeOf(const PretypeRef &P);
  /// Borrowed variant: the same memoized size as a raw arena-owned pointer
  /// (no shared_from_this) — the checker's TypeRef-based fast path.
  const Size *closedSizePtr(const Pretype *P);

  /// Judgment memos for type well-formedness: a closed pretype checked at a
  /// concrete qualifier, and a closed function type checked under an empty
  /// ambient context, are context-independent judgments. Only successes
  /// are recorded (failures are cold paths whose diagnostics must be
  /// recomputed anyway).
  bool isKnownWfPretype(const Pretype *P, bool OuterLin) const;
  void noteWfPretype(const Pretype *P, bool OuterLin);
  bool isKnownWfFun(const FunType *F) const;
  void noteWfFun(const FunType *F);

  /// Intern-table statistics (for benchmarks, tests, and server growth
  /// monitoring). Counts cover the locked table probes only: the
  /// lock-free fast paths (leaf caches, per-node closed-size slots)
  /// deliberately skip the counters, so Hits is a lower bound on real
  /// cache effectiveness. SkolemNodes counts interned nodes whose subtree
  /// mentions a checker skolem (types only a check mints, which is why
  /// admissions check in private arenas); ApproxBytes is a sizeof-based
  /// estimate of live node memory (excluding table overhead).
  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t PretypeNodes = 0;
    uint64_t HeapTypeNodes = 0;
    uint64_t FunTypeNodes = 0;
    uint64_t SizeNodes = 0;
    uint64_t SkolemNodes = 0;
    uint64_t ApproxBytes = 0;

    uint64_t totalNodes() const {
      return PretypeNodes + HeapTypeNodes + FunTypeNodes + SizeNodes;
    }
  };
  Stats stats() const;

private:
  /// One interning recipe each for prod/variant/struct, shared between the
  /// owning (Type/StructField) and borrowed (TypeRef/StructFieldRef) span
  /// probes — the hash seed, probe predicate, and metadata finalization
  /// must stay identical or one structural identity interns twice, so
  /// there is exactly one copy. Defined (and only instantiated) in
  /// TypeArena.cpp.
  template <class E>
  PretypeRef prodImpl(const E *Elems, size_t N, std::vector<Type> *Own);
  template <class E>
  HeapTypeRef variantImpl(const E *Cases, size_t N, std::vector<Type> *Own);
  template <class F>
  HeapTypeRef structureImpl(const F *Fields, size_t N,
                            std::vector<StructField> *Own);

  struct Impl;
  std::unique_ptr<Impl> I;
};

/// RAII override of the thread-local current arena.
class ArenaScope {
public:
  explicit ArenaScope(TypeArena &A);
  ~ArenaScope();
  ArenaScope(const ArenaScope &) = delete;
  ArenaScope &operator=(const ArenaScope &) = delete;

private:
  TypeArena *Prev;
};

template <class T, class... Args> auto TypeArena::get(Args &&...args) {
  if constexpr (std::is_same_v<T, UnitPT>)
    return unit();
  else if constexpr (std::is_same_v<T, NumPT>)
    return num(std::forward<Args>(args)...);
  else if constexpr (std::is_same_v<T, VarPT>)
    return typeVar(std::forward<Args>(args)...);
  else if constexpr (std::is_same_v<T, SkolemPT>)
    return skolem(std::forward<Args>(args)...);
  else if constexpr (std::is_same_v<T, ProdPT>)
    return prod(std::forward<Args>(args)...);
  else if constexpr (std::is_same_v<T, RefPT>)
    return ref(std::forward<Args>(args)...);
  else if constexpr (std::is_same_v<T, PtrPT>)
    return ptr(std::forward<Args>(args)...);
  else if constexpr (std::is_same_v<T, CapPT>)
    return cap(std::forward<Args>(args)...);
  else if constexpr (std::is_same_v<T, OwnPT>)
    return own(std::forward<Args>(args)...);
  else if constexpr (std::is_same_v<T, RecPT>)
    return rec(std::forward<Args>(args)...);
  else if constexpr (std::is_same_v<T, ExLocPT>)
    return exLoc(std::forward<Args>(args)...);
  else if constexpr (std::is_same_v<T, CoderefPT>)
    return coderef(std::forward<Args>(args)...);
  else if constexpr (std::is_same_v<T, VariantHT>)
    return variant(std::forward<Args>(args)...);
  else if constexpr (std::is_same_v<T, StructHT>)
    return structure(std::forward<Args>(args)...);
  else if constexpr (std::is_same_v<T, ArrayHT>)
    return array(std::forward<Args>(args)...);
  else if constexpr (std::is_same_v<T, ExHT>)
    return ex(std::forward<Args>(args)...);
  else if constexpr (std::is_same_v<T, FunType>)
    return fun(std::forward<Args>(args)...);
  else if constexpr (std::is_same_v<T, Size>)
    return sizeFromNormal(std::forward<Args>(args)...);
  else
    static_assert(!sizeof(T *), "not an internable type node");
}

} // namespace rw::ir

#endif // RICHWASM_IR_TYPEARENA_H
