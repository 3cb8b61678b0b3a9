//===- ir/Rewrite.h - Shift and substitution over types/insts ---*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generic structural rewriting over RichWasm types and instruction trees.
/// TypeRewriter walks a type maintaining per-kind binder depths (location,
/// size, qualifier, pretype) and dispatches free-variable occurrences to
/// overridable hooks. Two standard rewriters are provided:
///
///  * Shifter — adds a delta to every free variable of selected kinds;
///  * Subst — simultaneously replaces an outermost group of binders (as
///    when instantiating a function type's quantifier list at a call site,
///    or opening a single rec/∃ binder), shifting replacements as they move
///    under binders.
///
/// Because types are hash-consed (ir/TypeArena.h), the rewriter exploits
/// per-node metadata: a subtree whose free-variable bounds show it cannot
/// be touched by the hooks is returned as-is (closed-type short-circuit),
/// and rewriters whose hooks are pure in (index, depths) memoize results
/// per (node, binder-depths) — so rewriting a shared subtree twice costs
/// one hash lookup the second time. Shifter and Subst opt in; custom
/// subclasses may via enableStructuralMemo once their replacement state is
/// final.
///
/// Type nodes and instructions are rewritten by one walk over each class's
/// fields() list (ir/Types.h, ir/Inst.h) — the lists the arena and the
/// wire format read too — entering the binder scope a field is marked
/// with: a pretype for the bodies of rec, ∃α and exist.unpack, a location
/// for those of ∃ρ and mem.unpack, and a function type's quantifiers, one
/// by one, for the quantifiers after them and the arrow. Variables go to
/// the hooks; skolems are opaque and come back untouched. The walk is
/// intern-aware: rewritten components are hash-consed, so a subtree the
/// rewrite cannot touch is detected by O(1) pointer comparisons bottom-up
/// and returned as the *original* node instead of a re-interned node or a
/// clone — instantiation shares everything but the changed spine.
///
/// rewriteInsts rewrites an instruction tree through a TypeRewriter —
/// this is what call-time substitution e*[z*/κ*] in Fig 4 uses. Passing a
/// Subst seals it first, like every Subst entry point, so its memo and
/// closed-subtree short-circuit are on.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_IR_REWRITE_H
#define RICHWASM_IR_REWRITE_H

#include "ir/Inst.h"
#include "ir/Types.h"
#include "support/SmallVec.h"

#include <memory>
#include <unordered_map>

namespace rw::ir {

/// Depth-tracking structural rewriter over types.
class TypeRewriter {
public:
  TypeRewriter() = default;
  TypeRewriter(TypeRewriter &&) = default;
  TypeRewriter &operator=(TypeRewriter &&) = default;
  virtual ~TypeRewriter() = default;

  Qual rewrite(Qual Q);
  SizeRef rewrite(const SizeRef &S);
  virtual Loc rewrite(const Loc &L);
  Type rewrite(const Type &T);
  PretypeRef rewrite(const PretypeRef &P);
  HeapTypeRef rewrite(const HeapTypeRef &H);
  FunTypeRef rewrite(const FunTypeRef &F);
  ArrowType rewrite(const ArrowType &A);
  Quant rewrite(const Quant &Q);
  Index rewrite(const Index &I);

  /// Binder-scope management, public so the instruction rewriter can enter
  /// the scopes opened by mem.unpack / exist.unpack bodies.
  void enterLoc() { ++LocDepth; }
  void exitLoc() { --LocDepth; }
  void enterType() { ++TypeDepth; }
  void exitType() { --TypeDepth; }
  void enterSize() { ++SizeDepth; }
  void exitSize() { --SizeDepth; }
  void enterQual() { ++QualDepth; }
  void exitQual() { --QualDepth; }

protected:
  /// Hooks receive the raw de Bruijn index of a variable occurrence; the
  /// current depths are available as members. Defaults are the identity.
  virtual Qual onQualVar(uint32_t Idx) { return Qual::var(Idx); }
  virtual SizeRef onSizeVar(uint32_t Idx) { return Size::var(Idx); }
  virtual Loc onLocVar(uint32_t Idx) { return Loc::var(Idx); }
  virtual PretypeRef onTypeVar(uint32_t Idx) { return varPT(Idx); }

  /// Opts in to per-(node, depths) memoization and closed-subtree
  /// short-circuiting. Only valid when the hooks are pure functions of
  /// (index, current depths) that leave bound variables (index < depth)
  /// untouched, and when the rewriter's state is final. \p ActLoc..ActType
  /// say which kinds of free variables the hooks may change; a subtree
  /// whose free bounds rule out any such occurrence is returned unchanged.
  /// Set \p NonVarLocs when rewrite(Loc) may also alter skolem/concrete
  /// locations — subtrees mentioning one are then never short-circuited.
  void enableStructuralMemo(bool ActLoc, bool ActSize, bool ActQual,
                            bool ActType, bool NonVarLocs = false) {
    MemoOn = true;
    this->ActLoc = ActLoc;
    this->ActSize = ActSize;
    this->ActQual = ActQual;
    this->ActType = ActType;
    this->NonVarLocs = NonVarLocs;
  }

  uint32_t LocDepth = 0;
  uint32_t SizeDepth = 0;
  uint32_t QualDepth = 0;
  uint32_t TypeDepth = 0;

private:
  /// True when the hooks provably leave every variable of \p FB unchanged
  /// at the current depths (and, for loc-rewriting hooks, the subtree
  /// mentions no skolem/concrete location).
  bool unaffected(const FreeBounds &FB, uint8_t Flags) const {
    if (NonVarLocs && (Flags & (TF_HasSkolemLoc | TF_HasConcreteLoc)))
      return false;
    return (!ActLoc || FB.Loc <= LocDepth) &&
           (!ActSize || FB.Size <= SizeDepth) &&
           (!ActQual || FB.Qual <= QualDepth) &&
           (!ActType || FB.Type <= TypeDepth);
  }
  /// Packs the four binder depths into one memo-key word.
  uint64_t depthKey() const {
    return (static_cast<uint64_t>(LocDepth & 0xffff)) |
           (static_cast<uint64_t>(SizeDepth & 0xffff) << 16) |
           (static_cast<uint64_t>(QualDepth & 0xffff) << 32) |
           (static_cast<uint64_t>(TypeDepth & 0xffff) << 48);
  }
  bool memoUsable() const {
    return MemoOn && LocDepth < 0x10000 && SizeDepth < 0x10000 &&
           QualDepth < 0x10000 && TypeDepth < 0x10000;
  }

  struct MemoKey {
    const void *Node;
    uint64_t Depths;
    bool operator==(const MemoKey &O) const {
      return Node == O.Node && Depths == O.Depths;
    }
  };
  struct MemoKeyHash {
    size_t operator()(const MemoKey &K) const {
      uint64_t H = reinterpret_cast<uintptr_t>(K.Node);
      H ^= K.Depths + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
      return static_cast<size_t>(H);
    }
  };

  bool MemoOn = false;
  bool ActLoc = false, ActSize = false, ActQual = false, ActType = false;
  bool NonVarLocs = false;
  /// Counts rewrite() entries; a node is memoized only when rewriting it
  /// required at least MemoMinVisits nested visits, so tiny trees (the
  /// checker's unpack opens) never pay for a map insert.
  uint64_t Visits = 0;
  static constexpr uint64_t MemoMinVisits = 4;
  /// The memo tables, allocated on first insert: rewriters are built and
  /// torn down per instruction on the checker's hot path (one Subst per
  /// unpack open, one scan per skolem-escape check), and most never
  /// memoize anything — three map ctor/dtor pairs per rewriter showed up
  /// in the F7 profile.
  struct Memos {
    std::unordered_map<MemoKey, PretypeRef, MemoKeyHash> P;
    std::unordered_map<MemoKey, HeapTypeRef, MemoKeyHash> H;
    std::unordered_map<MemoKey, FunTypeRef, MemoKeyHash> F;
  };
  Memos &memos() {
    if (!M)
      M = std::make_unique<Memos>();
    return *M;
  }
  std::unique_ptr<Memos> M;

  PretypeRef rewriteUncached(const PretypeRef &P);
  HeapTypeRef rewriteUncached(const HeapTypeRef &H);
  FunTypeRef rewriteUncached(const FunTypeRef &F);
};

/// Adds per-kind deltas to all free variables (those with index >= the
/// depth at their occurrence).
class Shifter : public TypeRewriter {
public:
  Shifter(uint32_t DLoc, uint32_t DSize, uint32_t DQual, uint32_t DType)
      : DLoc(DLoc), DSize(DSize), DQual(DQual), DType(DType) {
    enableStructuralMemo(DLoc != 0, DSize != 0, DQual != 0, DType != 0);
  }

protected:
  Qual onQualVar(uint32_t Idx) override {
    return Qual::var(Idx >= QualDepth ? Idx + DQual : Idx);
  }
  SizeRef onSizeVar(uint32_t Idx) override {
    return Size::var(Idx >= SizeDepth ? Idx + DSize : Idx);
  }
  Loc onLocVar(uint32_t Idx) override {
    return Loc::var(Idx >= LocDepth ? Idx + DLoc : Idx);
  }
  PretypeRef onTypeVar(uint32_t Idx) override {
    return varPT(Idx >= TypeDepth ? Idx + DType : Idx);
  }

private:
  uint32_t DLoc, DSize, DQual, DType;
};

/// Simultaneous substitution of an outermost binder group. Replacement
/// vectors are ordered *outermost binder first* (the order of a function
/// type's quantifier list); binders beyond the replaced group are stripped
/// (their indices drop by the group size). Replacements are shifted by the
/// current depths as they move under binders.
///
/// The replacement vectors are populated only through the factories below
/// — the first rewrite call freezes which variable kinds the memoization
/// treats as active, so later mutation would be unsound (and is also
/// guarded by a debug fingerprint).
class Subst : public TypeRewriter {
public:
  /// Builds a substitution from a quantifier instantiation list (the κ*/z*
  /// of call/inst), splitting the indices by kind.
  static Subst fromIndices(const std::vector<Index> &Args);

  /// Substitution of a single location binder (mem.unpack).
  static Subst oneLoc(Loc L) {
    Subst S;
    S.Locs.push_back(L);
    return S;
  }
  /// Substitution of a single pretype binder (rec unfold, exist.unpack).
  static Subst onePretype(PretypeRef P) {
    Subst S;
    S.Types.push_back(std::move(P));
    return S;
  }

  Type rewrite(const Type &T) { return seal().TypeRewriter::rewrite(T); }
  PretypeRef rewrite(const PretypeRef &P) {
    return seal().TypeRewriter::rewrite(P);
  }
  HeapTypeRef rewrite(const HeapTypeRef &H) {
    return seal().TypeRewriter::rewrite(H);
  }
  FunTypeRef rewrite(const FunTypeRef &F) {
    return seal().TypeRewriter::rewrite(F);
  }
  ArrowType rewrite(const ArrowType &A) {
    return seal().TypeRewriter::rewrite(A);
  }
  SizeRef rewrite(const SizeRef &S) { return seal().TypeRewriter::rewrite(S); }
  Qual rewrite(Qual Q) { return seal().TypeRewriter::rewrite(Q); }
  using TypeRewriter::rewrite; // Loc, Quant, Index.

protected:
  Qual onQualVar(uint32_t Idx) override;
  SizeRef onSizeVar(uint32_t Idx) override;
  Loc onLocVar(uint32_t Idx) override;
  PretypeRef onTypeVar(uint32_t Idx) override;

private:
  // Inline storage: nearly every substitution replaces a handful of
  // binders (one for the checker's unpack opens), so building one should
  // not allocate.
  support::SmallVec<Loc, 4> Locs;
  support::SmallVec<SizeRef, 4> Sizes;
  support::SmallVec<Qual, 4> Quals;
  support::SmallVec<PretypeRef, 4> Types;

  /// Debug fingerprint of the replacement vectors (element-sensitive, not
  /// just sizes), so mutation after the first rewrite is caught.
  size_t replacementFingerprint() const {
    auto Mix = [](size_t H, size_t V) {
      return H ^ (V + 0x9e3779b9u + (H << 6) + (H >> 2));
    };
    size_t H = Locs.size();
    for (const Loc &L : Locs)
      H = Mix(H, L.isVar() ? L.varIndex() + 1
                           : (L.isSkolem() ? L.skolemId() * 3 + 2
                                           : L.addr() * 5 + 3));
    for (const SizeRef &S : Sizes)
      H = Mix(H, reinterpret_cast<uintptr_t>(S.get()));
    for (Qual Q : Quals)
      H = Mix(H, Q.isVar() ? Q.varIndex() * 2 + 1
                           : static_cast<size_t>(Q.constValue()) * 2);
    for (const PretypeRef &P : Types)
      H = Mix(H, reinterpret_cast<uintptr_t>(P.get()));
    return H;
  }

public:
  /// Enables memoization once the replacement vectors are known; later
  /// mutation of the vectors would make the frozen activity flags (and any
  /// cached results) wrong, so it is rejected in debug builds via the
  /// element-sensitive fingerprint above. Every rewrite entry point seals,
  /// and so must a walk that drives this substitution through a plain
  /// TypeRewriter & (rewriteInsts below does).
  Subst &seal() {
    if (!Sealed) {
      Sealed = true;
      SealedFingerprint = replacementFingerprint();
      enableStructuralMemo(!Locs.empty(), !Sizes.empty(), !Quals.empty(),
                           !Types.empty());
    } else {
      assert(SealedFingerprint == replacementFingerprint() &&
             "Subst replacement vectors mutated after the first rewrite");
    }
    return *this;
  }

private:
  bool Sealed = false;
  size_t SealedFingerprint = 0;
};

/// Clones an instruction sequence, rewriting every embedded type, size,
/// qualifier, location, and instantiation index through \p RW. Binder
/// scopes introduced by instruction forms are entered appropriately.
InstVec rewriteInsts(const InstVec &Insts, TypeRewriter &RW);
InstRef rewriteInst(const InstRef &I, TypeRewriter &RW);
/// The same through a substitution, sealed first.
InstVec rewriteInsts(const InstVec &Insts, Subst &S);
InstRef rewriteInst(const InstRef &I, Subst &S);

/// Instantiates the full quantifier list of \p FT with \p Args, yielding
/// the monomorphic arrow. Asserts that counts and kinds line up (the type
/// checker validates this before use).
ArrowType instantiateFunType(const FunType &FT, const std::vector<Index> &Args);

} // namespace rw::ir

#endif // RICHWASM_IR_REWRITE_H
