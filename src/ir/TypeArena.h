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
/// There is one interning recipe for all type nodes, read from each
/// class's field list (ir/Types.h): the hash, the probe equality, the
/// free bounds and flags (taking one off a bound per marked binder), the
/// no_caps bits and the size estimate all fold over `C::fields()`. A
/// kind's own rule (a variable is free in its index, a skolem is flagged,
/// capabilities and ownership tokens are never capability-free) is one
/// small overload in TypeArena.cpp.
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

  /// Interns the class-\p C node (a pretype or heap-type class, or
  /// FunType) with the given field values, in `C::fields()` order — the
  /// entry point of the structural walks (the serial reader and the
  /// rewriter) and of the free factory helpers (unitPT() ... exHT(),
  /// FunType::get), which intern into current().
  template <class C> NodeRef<C> intern(FieldValues<C> Vals);

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
  /// The one interning recipe, read from `C::fields()`: \p Key holds one
  /// value per field — owned, or for a vector field a borrowed span the
  /// table is probed with directly (copied into a node only on a miss).
  /// Defined (and only instantiated) in TypeArena.cpp.
  template <class C, class... K> NodeRef<C> internKeys(K &&...Key);

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

} // namespace rw::ir

#endif // RICHWASM_IR_TYPEARENA_H
