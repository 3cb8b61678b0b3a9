//===- ir/Types.h - RichWasm value, heap, and function types ----*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The RichWasm type grammar of Fig 2:
///
///   pretypes  p ::= unit | np | (τ*) | ref π ℓ ψ | ptr ℓ | cap π ℓ ψ
///                 | rec q ⪯ α. τ | ∃ρ. τ | coderef χ | own ℓ | α
///   types     τ ::= p^q
///   heap      ψ ::= (variant τ*) | (struct (τ,sz)*) | (array τ)
///                 | (∃ q ⪯ α ≲ sz. τ)
///   functions χ ::= ∀κ*. τ1* → τ2*
///
/// Types are immutable *hash-consed* trees: every Pretype/HeapType/FunType
/// node is interned by a TypeArena (ir/TypeArena.h), so one structural
/// identity has exactly one node per arena and structural equality is
/// pointer comparison (`typeEquals` & friends below). Each node carries
/// precomputed metadata — free-variable bounds per binder kind, occurrence
/// flags, a structural hash, and no_caps bits — that the rewriter, sizing,
/// and no_caps judgments use to short-circuit and memoize.
///
/// Variables of every kind (location, size, qualifier, pretype) are de
/// Bruijn indices in their own index space, mirroring the paper's separate
/// context components. Pretypes form an LLVM-style class hierarchy
/// discriminated by PretypeKind, usable with isa/cast/dyn_cast from
/// support/Casting.h.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_IR_TYPES_H
#define RICHWASM_IR_TYPES_H

#include "ir/Loc.h"
#include "ir/Num.h"
#include "ir/Qual.h"
#include "ir/Size.h"
#include "support/Casting.h"

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

namespace rw::ir {

class Pretype;
class HeapType;
class FunType;
class TypeArena;
struct TypeArenaAccess;
using PretypeRef = std::shared_ptr<const Pretype>;
using HeapTypeRef = std::shared_ptr<const HeapType>;
using FunTypeRef = std::shared_ptr<const FunType>;

/// Per-kind upper bounds on the free de Bruijn variables of a node: for
/// each binder kind, 1 + the largest free index occurring in the subtree
/// (0 = closed with respect to that kind). Precomputed at intern time;
/// rewriters use it to prove a shift/substitution is the identity without
/// walking the tree.
struct FreeBounds {
  uint32_t Loc = 0;
  uint32_t Size = 0;
  uint32_t Qual = 0;
  uint32_t Type = 0;
};

/// Occurrence flags precomputed per node (OR over the whole subtree).
enum TypeNodeFlags : uint8_t {
  /// Mentions a skolem location (checker eigenvariable of mem.unpack).
  TF_HasSkolemLoc = 1u << 0,
  /// Mentions a concrete (runtime) location.
  TF_HasConcreteLoc = 1u << 1,
  /// Mentions a skolem pretype (checker eigenvariable of exist.unpack).
  TF_HasSkolemType = 1u << 2,
};

/// A value type τ = p^q: a pretype annotated with a qualifier. This is the
/// *owning* handle: it keeps the pretype node alive via shared_ptr and is
/// what module structure (instruction annotations, ir::Module fields,
/// serialized records, cache artifacts) stores.
struct Type {
  PretypeRef P;
  Qual Q = Qual::unr();

  Type() = default;
  Type(PretypeRef P, Qual Q) : P(std::move(P)), Q(Q) {}

  bool valid() const { return P != nullptr; }
};

namespace detail {
/// Debug-build arena-lifetime check behind TypeRef: asserts that a node
/// being borrowed belongs to the arena installed on this thread
/// (ArenaScope / TypeArena::current()), so a borrow whose arena is not the
/// active one — the precursor of a dangling borrow — is a loud assert
/// instead of silent UB. Compiled out under NDEBUG. Defined in
/// TypeArena.cpp.
#ifndef NDEBUG
void assertBorrowedFromCurrentArena(const Pretype *P);
#else
inline void assertBorrowedFromCurrentArena(const Pretype *) {}
#endif
} // namespace detail

/// A *borrowed* (non-owning) view of a value type: a raw pointer to an
/// arena-interned pretype plus the qualifier. The admission hot path — the
/// checker's operand stack, local environments, InstInfo annotations, and
/// the lowering's type traffic — runs on these views instead of refcounted
/// Types: every pretype the pipeline touches is interned in a TypeArena
/// whose lifetime strictly outlives any check/lower of its module (the
/// arena's intern table owns the node), so the shared_ptr bumps that
/// dominated the F7 profile are pure overhead there.
///
/// Lifetime contract (DESIGN.md §9): a TypeRef (and anything holding one,
/// e.g. an InfoMap) is valid while the owning arena is alive. Ownership
/// boundaries — module structure, serialization, cache artifacts — keep
/// owning Types; cross the boundary with own().
struct TypeRef {
  const Pretype *P = nullptr;
  Qual Q = Qual::unr();

  TypeRef() = default;
  TypeRef(const Pretype *P, Qual Q) : P(P), Q(Q) {
#ifndef NDEBUG
    detail::assertBorrowedFromCurrentArena(P);
#endif
  }
  /*implicit*/ TypeRef(const Type &T) : TypeRef(T.P.get(), T.Q) {}

  bool valid() const { return P != nullptr; }

  /// Re-owns the node for an ownership boundary (one refcount bump via the
  /// node's enable_shared_from_this). Defined below Pretype.
  inline Type own() const;
};

/// Read / read-write memory privilege (π in the paper).
enum class Privilege : uint8_t { R = 0, RW = 1 };

//===----------------------------------------------------------------------===//
// Pretypes
//===----------------------------------------------------------------------===//

enum class PretypeKind : uint8_t {
  Unit,
  Num,
  Var,
  Skolem,
  Prod,
  Ref,
  Ptr,
  Cap,
  Own,
  Rec,
  ExLoc,
  Coderef,
};

/// Base class of all pretypes. Construct via TypeArena (or the free factory
/// helpers below, which intern into the current arena) — never directly —
/// so that pointer identity coincides with structural identity.
/// (enable_shared_from_this lets the arena's lock-free leaf/memo fast paths
/// hand out owning references from raw cached pointers.)
class Pretype : public std::enable_shared_from_this<Pretype> {
public:
  PretypeKind kind() const { return K; }
  virtual ~Pretype() = default;

  /// Free-variable bounds per binder kind (intern-time metadata).
  const FreeBounds &freeBounds() const { return FB; }
  /// OR of TypeNodeFlags over the subtree.
  uint8_t flags() const { return Flags; }
  /// Structural hash, stable across arenas.
  uint64_t hashValue() const { return H; }
  /// The arena that owns this node. A node must not be used after its
  /// owning arena is destroyed.
  TypeArena *arena() const { return Arena; }

  /// The value of no_caps when every free pretype variable in scope is
  /// itself capability-free (an upper bound: flipping a variable's flag to
  /// "may hold caps" can only turn the predicate false).
  bool noCapsIfAllVarsFree() const { return NoCapsIfTrue; }
  /// Whether no_caps actually depends on the free-variable flags; when
  /// false, noCapsIfAllVarsFree() is the answer in every context.
  bool noCapsDependsOnVars() const { return NoCapsDepends; }

protected:
  explicit Pretype(PretypeKind K) : K(K) {}

private:
  friend class TypeArena;
  friend struct TypeArenaAccess;
  PretypeKind K;
  uint8_t Flags = 0;
  bool NoCapsIfTrue = true;
  bool NoCapsDepends = false;
  FreeBounds FB;
  uint64_t H = 0;
  TypeArena *Arena = nullptr;
  /// Lock-free fast path of TypeArena::closedSizeOf: the canonical size of
  /// a closed pretype, owned (kept alive) by the arena's memo table. A
  /// benign write-once race: every writer stores the same canonical node.
  mutable std::atomic<const Size *> ClosedSizeMemo{nullptr};
  /// Success bits of the context-free well-formedness judgment (see
  /// TypeArena::isKnownWfPretype): bit0 = wf at unr, bit1 = wf at lin.
  mutable std::atomic<uint8_t> WfMemo{0};
};

inline Type TypeRef::own() const { return Type(P->shared_from_this(), Q); }

/// The unit pretype; its only value is `()` and its size is 0.
class UnitPT : public Pretype {
private:
  friend class TypeArena;
  friend struct TypeArenaAccess;
  UnitPT() : Pretype(PretypeKind::Unit) {}

public:
  static bool classof(const Pretype *P) {
    return P->kind() == PretypeKind::Unit;
  }
};

/// A numeric pretype np.
class NumPT : public Pretype {
private:
  friend class TypeArena;
  friend struct TypeArenaAccess;
  explicit NumPT(NumType NT) : Pretype(PretypeKind::Num), NT(NT) {}

public:
  NumType numType() const { return NT; }
  static bool classof(const Pretype *P) {
    return P->kind() == PretypeKind::Num;
  }

private:
  NumType NT;
};

/// A pretype variable α (de Bruijn index into the type context).
class VarPT : public Pretype {
private:
  friend class TypeArena;
  friend struct TypeArenaAccess;
  explicit VarPT(uint32_t Idx) : Pretype(PretypeKind::Var), Idx(Idx) {}

public:
  uint32_t index() const { return Idx; }
  static bool classof(const Pretype *P) {
    return P->kind() == PretypeKind::Var;
  }

private:
  uint32_t Idx;
};

/// A skolem pretype — an eigenvariable the type checker introduces when
/// opening a heap existential (`exist.unpack α. e*`). It remembers the
/// binder's constraints so entailment and sizing can use them. Skolems
/// never occur in programs or at runtime. A skolem's identity — both for
/// interning and for structural equality — is (Id, bounds): the checker
/// mints per-check-fresh ids, while the lowering reuses id 0 with varying
/// bounds, and the bounds keep those distinct.
class SkolemPT : public Pretype {
private:
  friend class TypeArena;
  friend struct TypeArenaAccess;
  SkolemPT(uint64_t Id, Qual QualLower, SizeRef SizeUpper, bool NoCaps)
      : Pretype(PretypeKind::Skolem), Id(Id), QualLower(QualLower),
        SizeUpper(std::move(SizeUpper)), NoCaps(NoCaps) {}

public:
  uint64_t id() const { return Id; }
  Qual qualLower() const { return QualLower; }
  const SizeRef &sizeUpper() const { return SizeUpper; }
  bool noCaps() const { return NoCaps; }
  static bool classof(const Pretype *P) {
    return P->kind() == PretypeKind::Skolem;
  }

private:
  uint64_t Id;
  Qual QualLower;
  SizeRef SizeUpper;
  bool NoCaps;
};

/// A tuple pretype (τ*). Produced by seq.group; consumed by seq.ungroup.
class ProdPT : public Pretype {
private:
  friend class TypeArena;
  friend struct TypeArenaAccess;
  explicit ProdPT(std::vector<Type> Elems)
      : Pretype(PretypeKind::Prod), Elems(std::move(Elems)) {}

public:
  const std::vector<Type> &elems() const { return Elems; }
  static bool classof(const Pretype *P) {
    return P->kind() == PretypeKind::Prod;
  }

private:
  std::vector<Type> Elems;
};

/// A reference `ref π ℓ ψ`: the fusion of a capability and a pointer to
/// location ℓ, holding heap type ψ with privilege π.
class RefPT : public Pretype {
private:
  friend class TypeArena;
  friend struct TypeArenaAccess;
  RefPT(Privilege Priv, Loc L, HeapTypeRef HT)
      : Pretype(PretypeKind::Ref), Priv(Priv), L(L), HT(std::move(HT)) {}

public:
  Privilege privilege() const { return Priv; }
  const Loc &loc() const { return L; }
  const HeapTypeRef &heapType() const { return HT; }
  static bool classof(const Pretype *P) {
    return P->kind() == PretypeKind::Ref;
  }

private:
  Privilege Priv;
  Loc L;
  HeapTypeRef HT;
};

/// A bare pointer `ptr ℓ`: names a location but confers no access.
class PtrPT : public Pretype {
private:
  friend class TypeArena;
  friend struct TypeArenaAccess;
  explicit PtrPT(Loc L) : Pretype(PretypeKind::Ptr), L(L) {}

public:
  const Loc &loc() const { return L; }
  static bool classof(const Pretype *P) {
    return P->kind() == PretypeKind::Ptr;
  }

private:
  Loc L;
};

/// A capability `cap π ℓ ψ`: static ownership of ℓ, erased at runtime.
class CapPT : public Pretype {
private:
  friend class TypeArena;
  friend struct TypeArenaAccess;
  CapPT(Privilege Priv, Loc L, HeapTypeRef HT)
      : Pretype(PretypeKind::Cap), Priv(Priv), L(L), HT(std::move(HT)) {}

public:
  Privilege privilege() const { return Priv; }
  const Loc &loc() const { return L; }
  const HeapTypeRef &heapType() const { return HT; }
  static bool classof(const Pretype *P) {
    return P->kind() == PretypeKind::Cap;
  }

private:
  Privilege Priv;
  Loc L;
  HeapTypeRef HT;
};

/// An ownership token `own ℓ`: write ownership split off a rw capability.
class OwnPT : public Pretype {
private:
  friend class TypeArena;
  friend struct TypeArenaAccess;
  explicit OwnPT(Loc L) : Pretype(PretypeKind::Own), L(L) {}

public:
  const Loc &loc() const { return L; }
  static bool classof(const Pretype *P) {
    return P->kind() == PretypeKind::Own;
  }

private:
  Loc L;
};

/// An isorecursive type `rec q ⪯ α. τ`. The bound q constrains the
/// qualifiers of the positions the recursive variable may be unfolded into.
/// Binds one pretype variable in Body.
class RecPT : public Pretype {
private:
  friend class TypeArena;
  friend struct TypeArenaAccess;
  RecPT(Qual Bound, Type Body)
      : Pretype(PretypeKind::Rec), Bound(Bound), Body(std::move(Body)) {}

public:
  Qual bound() const { return Bound; }
  const Type &body() const { return Body; }
  static bool classof(const Pretype *P) {
    return P->kind() == PretypeKind::Rec;
  }

private:
  Qual Bound;
  Type Body;
};

/// Existential abstraction over a location: `∃ρ. τ`. Binds one location
/// variable in Body.
class ExLocPT : public Pretype {
private:
  friend class TypeArena;
  friend struct TypeArenaAccess;
  explicit ExLocPT(Type Body)
      : Pretype(PretypeKind::ExLoc), Body(std::move(Body)) {}

public:
  const Type &body() const { return Body; }
  static bool classof(const Pretype *P) {
    return P->kind() == PretypeKind::ExLoc;
  }

private:
  Type Body;
};

/// A code pointer type `coderef χ`.
class CoderefPT : public Pretype {
private:
  friend class TypeArena;
  friend struct TypeArenaAccess;
  explicit CoderefPT(FunTypeRef FT)
      : Pretype(PretypeKind::Coderef), FT(std::move(FT)) {}

public:
  const FunTypeRef &funType() const { return FT; }
  static bool classof(const Pretype *P) {
    return P->kind() == PretypeKind::Coderef;
  }

private:
  FunTypeRef FT;
};

//===----------------------------------------------------------------------===//
// Heap types
//===----------------------------------------------------------------------===//

enum class HeapTypeKind : uint8_t { Variant, Struct, Array, Ex };

/// Base class of heap types ψ, describing the structured contents of one
/// memory cell. Interned like pretypes; carries the same metadata.
class HeapType {
public:
  HeapTypeKind kind() const { return K; }
  virtual ~HeapType() = default;

  const FreeBounds &freeBounds() const { return FB; }
  uint8_t flags() const { return Flags; }
  uint64_t hashValue() const { return H; }
  TypeArena *arena() const { return Arena; }
  bool noCapsIfAllVarsFree() const { return NoCapsIfTrue; }
  bool noCapsDependsOnVars() const { return NoCapsDepends; }

protected:
  explicit HeapType(HeapTypeKind K) : K(K) {}

private:
  friend class TypeArena;
  friend struct TypeArenaAccess;
  HeapTypeKind K;
  uint8_t Flags = 0;
  bool NoCapsIfTrue = true;
  bool NoCapsDepends = false;
  FreeBounds FB;
  uint64_t H = 0;
  TypeArena *Arena = nullptr;
};

/// `(variant τ*)` — a tagged sum over the listed case types.
class VariantHT : public HeapType {
private:
  friend class TypeArena;
  friend struct TypeArenaAccess;
  explicit VariantHT(std::vector<Type> Cases)
      : HeapType(HeapTypeKind::Variant), Cases(std::move(Cases)) {}

public:
  const std::vector<Type> &cases() const { return Cases; }
  static bool classof(const HeapType *H) {
    return H->kind() == HeapTypeKind::Variant;
  }

private:
  std::vector<Type> Cases;
};

/// One struct field: its current type and its *allocated slot size*. The
/// slot size persists across strong updates and bounds the types that may
/// be swapped into the field.
struct StructField {
  Type T;
  SizeRef Slot;
};

/// Borrowed view of one struct field (checker scratch for the arena's
/// span-probe interning; same lifetime contract as TypeRef).
struct StructFieldRef {
  TypeRef T;
  const Size *Slot = nullptr;
};

/// `(struct (τ,sz)*)`.
class StructHT : public HeapType {
private:
  friend class TypeArena;
  friend struct TypeArenaAccess;
  explicit StructHT(std::vector<StructField> Fields)
      : HeapType(HeapTypeKind::Struct), Fields(std::move(Fields)) {}

public:
  const std::vector<StructField> &fields() const { return Fields; }
  static bool classof(const HeapType *H) {
    return H->kind() == HeapTypeKind::Struct;
  }

private:
  std::vector<StructField> Fields;
};

/// `(array τ)` — a variable-length array of τ.
class ArrayHT : public HeapType {
private:
  friend class TypeArena;
  friend struct TypeArenaAccess;
  explicit ArrayHT(Type Elem)
      : HeapType(HeapTypeKind::Array), Elem(std::move(Elem)) {}

public:
  const Type &elem() const { return Elem; }
  static bool classof(const HeapType *H) {
    return H->kind() == HeapTypeKind::Array;
  }

private:
  Type Elem;
};

/// `(∃ q ⪯ α ≲ sz. τ)` — a heap-allocated existential package abstracting a
/// pretype with a qualifier lower bound and a size upper bound. Binds one
/// pretype variable in Body.
class ExHT : public HeapType {
private:
  friend class TypeArena;
  friend struct TypeArenaAccess;
  ExHT(Qual QualLower, SizeRef SizeUpper, Type Body)
      : HeapType(HeapTypeKind::Ex), QualLower(QualLower),
        SizeUpper(std::move(SizeUpper)), Body(std::move(Body)) {}

public:
  Qual qualLower() const { return QualLower; }
  const SizeRef &sizeUpper() const { return SizeUpper; }
  const Type &body() const { return Body; }
  static bool classof(const HeapType *H) {
    return H->kind() == HeapTypeKind::Ex;
  }

private:
  Qual QualLower;
  SizeRef SizeUpper;
  Type Body;
};

//===----------------------------------------------------------------------===//
// Quantifiers and function types
//===----------------------------------------------------------------------===//

/// The four binder kinds a function type may quantify over.
enum class QuantKind : uint8_t { Loc, Size, Qual, Type };

/// One quantifier κ with its constraints. Constraint expressions may refer
/// to *earlier* binders in the same quantifier list.
struct Quant {
  QuantKind K = QuantKind::Loc;

  // For K == Size: sz* ≤ σ ≤ sz*.
  std::vector<SizeRef> SizeLower, SizeUpper;
  // For K == Qual: q* ⪯ δ ⪯ q*.
  std::vector<Qual> QualLower, QualUpper;
  // For K == Type: q ⪯ α (c?) ≲ sz.
  Qual TypeQualLower = Qual::unr();
  SizeRef TypeSizeUpper;
  /// True when α is guaranteed capability-free and may therefore be stored
  /// in garbage-collected memory (the absence of the paper's `c` marker).
  bool TypeNoCaps = true;

  static Quant loc() {
    Quant Q;
    Q.K = QuantKind::Loc;
    return Q;
  }
  static Quant size(std::vector<SizeRef> Lower = {},
                    std::vector<SizeRef> Upper = {}) {
    Quant Q;
    Q.K = QuantKind::Size;
    Q.SizeLower = std::move(Lower);
    Q.SizeUpper = std::move(Upper);
    return Q;
  }
  static Quant qual(std::vector<Qual> Lower = {},
                    std::vector<Qual> Upper = {}) {
    Quant Q;
    Q.K = QuantKind::Qual;
    Q.QualLower = std::move(Lower);
    Q.QualUpper = std::move(Upper);
    return Q;
  }
  static Quant type(Qual QualLower, SizeRef SizeUpper, bool NoCaps = true) {
    Quant Q;
    Q.K = QuantKind::Type;
    Q.TypeQualLower = QualLower;
    Q.TypeSizeUpper = std::move(SizeUpper);
    Q.TypeNoCaps = NoCaps;
    return Q;
  }
};

/// An instantiation argument for one quantifier (z/κ at call sites).
struct Index {
  QuantKind K = QuantKind::Loc;
  Loc L = Loc::var(0);
  SizeRef Sz;
  Qual Q = Qual::unr();
  PretypeRef P;

  static Index loc(Loc L) {
    Index I;
    I.K = QuantKind::Loc;
    I.L = L;
    return I;
  }
  static Index size(SizeRef S) {
    Index I;
    I.K = QuantKind::Size;
    I.Sz = std::move(S);
    return I;
  }
  static Index qual(Qual Q) {
    Index I;
    I.K = QuantKind::Qual;
    I.Q = Q;
    return I;
  }
  static Index pretype(PretypeRef P) {
    Index I;
    I.K = QuantKind::Type;
    I.P = std::move(P);
    return I;
  }
};

/// A monomorphic arrow type tf = τ1* → τ2*.
struct ArrowType {
  std::vector<Type> Params;
  std::vector<Type> Results;
};

/// A (possibly polymorphic) function type χ = ∀κ*. τ1* → τ2*. The
/// quantifier list binds left-to-right: the *last* binder of each kind has
/// de Bruijn index 0 inside the arrow. Interned; FunType::get is the
/// canonicalizing constructor.
class FunType {
private:
  friend class TypeArena;
  friend struct TypeArenaAccess;
  FunType(std::vector<Quant> Quants, ArrowType Arrow)
      : Quants(std::move(Quants)), Arrow(std::move(Arrow)) {}

public:
  const std::vector<Quant> &quants() const { return Quants; }
  const ArrowType &arrow() const { return Arrow; }

  const FreeBounds &freeBounds() const { return FB; }
  uint8_t flags() const { return Flags; }
  uint64_t hashValue() const { return H; }
  TypeArena *arena() const { return Arena; }

  /// Interns in the current TypeArena.
  static FunTypeRef get(std::vector<Quant> Quants, ArrowType Arrow);

private:
  std::vector<Quant> Quants;
  ArrowType Arrow;
  uint8_t Flags = 0;
  FreeBounds FB;
  uint64_t H = 0;
  TypeArena *Arena = nullptr;
  /// Success bit of the closed, empty-ambient well-formedness judgment
  /// (see TypeArena::isKnownWfFun).
  mutable std::atomic<uint8_t> WfMemo{0};
};

//===----------------------------------------------------------------------===//
// Factory helpers (intern into the current TypeArena)
//===----------------------------------------------------------------------===//

PretypeRef unitPT();
PretypeRef numPT(NumType NT);
PretypeRef varPT(uint32_t Idx);
PretypeRef skolemPT(uint64_t Id, Qual QualLower, SizeRef SizeUpper,
                    bool NoCaps);
PretypeRef prodPT(std::vector<Type> Elems);
PretypeRef refPT(Privilege Priv, Loc L, HeapTypeRef HT);
PretypeRef ptrPT(Loc L);
PretypeRef capPT(Privilege Priv, Loc L, HeapTypeRef HT);
PretypeRef ownPT(Loc L);
PretypeRef recPT(Qual Bound, Type Body);
PretypeRef exLocPT(Type Body);
PretypeRef coderefPT(FunTypeRef FT);

HeapTypeRef variantHT(std::vector<Type> Cases);
HeapTypeRef structHT(std::vector<StructField> Fields);
HeapTypeRef arrayHT(Type Elem);
HeapTypeRef exHT(Qual QualLower, SizeRef SizeUpper, Type Body);

inline Type unitT(Qual Q = Qual::unr()) { return Type(unitPT(), Q); }
inline Type numT(NumType NT, Qual Q = Qual::unr()) {
  return Type(numPT(NT), Q);
}
inline Type i32T(Qual Q = Qual::unr()) { return numT(NumType::I32, Q); }
inline Type i64T(Qual Q = Qual::unr()) { return numT(NumType::I64, Q); }

//===----------------------------------------------------------------------===//
// Equality
//===----------------------------------------------------------------------===//

/// Structural type equality (alpha-equivalence is just index equality under
/// de Bruijn representation; sizes compare modulo +-normalization). Because
/// every node is hash-consed, these are *pointer comparisons*: within one
/// arena, structurally equal types are the same node. Comparing types from
/// two different arenas yields false even for structurally equal trees —
/// intern interacting modules into a shared arena (the default: all modules
/// use TypeArena::global()). The deep-walking reference implementations
/// survive as structural*Equals in ir/TypeOps.h for differential tests.
inline bool pretypeEquals(const Pretype &A, const Pretype &B) {
  return &A == &B;
}
inline bool typeEquals(const Type &A, const Type &B) {
  return A.P.get() == B.P.get() && A.Q == B.Q;
}
/// Borrowed-view equality; Type converts implicitly, so mixed Type/TypeRef
/// comparisons resolve here too.
inline bool typeEquals(const TypeRef &A, const TypeRef &B) {
  return A.P == B.P && A.Q == B.Q;
}
inline bool heapTypeEquals(const HeapType &A, const HeapType &B) {
  return &A == &B;
}
inline bool funTypeEquals(const FunType &A, const FunType &B) {
  return &A == &B;
}
bool arrowEquals(const ArrowType &A, const ArrowType &B);
bool quantEquals(const Quant &A, const Quant &B);

} // namespace rw::ir

#endif // RICHWASM_IR_TYPES_H
