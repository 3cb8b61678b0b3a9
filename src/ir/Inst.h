//===- ir/Inst.h - RichWasm instructions ------------------------*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The RichWasm instruction set (Fig 2). Instructions form an LLVM-style
/// class hierarchy keyed by InstKind. Block-introducing instructions carry
/// their arrow type annotation and *local effects* (i, τ)* — the changes the
/// block makes to the types of local slots — as required by the paper so
/// that jumps agree on the local environment. Instruction trees are
/// immutable and shared; substitution (at call/unpack time) produces new
/// trees via ir/Rewrite.h.
///
/// Each instruction's payload is described once. RW_INST_KINDS maps every
/// kind to the class that represents it, and each payload-carrying class
/// lists its members in `fields()` (the Field machinery of ir/Types.h), in
/// constructor order. The structural walks read nothing else:
/// serial/Serial.cpp writes, hashes and reads a node field by field, and
/// ir::rewriteInst rewrites and compares it field by field, entering the
/// binder a field is marked with.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_IR_INST_H
#define RICHWASM_IR_INST_H

#include "ir/Types.h"
#include "support/Casting.h"

#include <memory>
#include <tuple>
#include <type_traits>
#include <vector>

namespace rw::ir {

class Inst;
using InstRef = std::shared_ptr<const Inst>;
using InstVec = std::vector<InstRef>;

/// A local effect annotation: slot \p LocalIdx has type \p T after the
/// annotated block finishes.
struct LocalEffect {
  uint32_t LocalIdx = 0;
  Type T;

  static constexpr auto fields() {
    return std::tuple{field(&LocalEffect::LocalIdx, "local index"),
                      field(&LocalEffect::T)};
  }
};

/// Every instruction kind with the class that represents it. A row's
/// position is its InstKind value, which the wire format writes, so rows
/// are only ever appended. Classes that appear on several rows carry the
/// kind as their first constructor argument.
#define RW_INST_KINDS(X)                                                       \
  /* Numeric. */                                                               \
  X(NumConst, NumConstInst)                                                    \
  X(NumUnop, NumUnopInst)                                                      \
  X(NumBinop, NumBinopInst)                                                    \
  X(NumTestop, NumTestopInst)                                                  \
  X(NumRelop, NumRelopInst)                                                    \
  X(NumCvt, NumCvtInst)                                                        \
  /* Parametric / control. */                                                  \
  X(Unreachable, SimpleInst)                                                   \
  X(Nop, SimpleInst)                                                           \
  X(Drop, SimpleInst)                                                          \
  X(Select, SimpleInst)                                                        \
  X(Block, BlockInst)                                                          \
  X(Loop, LoopInst)                                                            \
  X(If, IfInst)                                                                \
  X(Br, BrInst)                                                                \
  X(BrIf, BrInst)                                                              \
  X(BrTable, BrTableInst)                                                      \
  X(Return, SimpleInst)                                                        \
  /* Variables. */                                                             \
  X(GetLocal, GetLocalInst)                                                    \
  X(SetLocal, VarIdxInst)                                                      \
  X(TeeLocal, VarIdxInst)                                                      \
  X(GetGlobal, VarIdxInst)                                                     \
  X(SetGlobal, VarIdxInst)                                                     \
  X(Qualify, QualifyInst)                                                      \
  /* Functions. */                                                             \
  X(CoderefI, CoderefInst)                                                     \
  X(InstIdx, InstIdxInst)                                                      \
  X(CallIndirect, SimpleInst)                                                  \
  X(Call, CallInst)                                                            \
  /* Recursive and existential-location types. */                              \
  X(RecFold, RecFoldInst)                                                      \
  X(RecUnfold, SimpleInst)                                                     \
  X(MemPack, MemPackInst)                                                      \
  X(MemUnpack, MemUnpackInst)                                                  \
  /* Tuples, capabilities, references. */                                      \
  X(Group, GroupInst)                                                          \
  X(Ungroup, SimpleInst)                                                       \
  X(CapSplit, SimpleInst)                                                      \
  X(CapJoin, SimpleInst)                                                       \
  X(RefDemote, SimpleInst)                                                     \
  X(RefSplit, SimpleInst)                                                      \
  X(RefJoin, SimpleInst)                                                       \
  /* Structs. */                                                               \
  X(StructMalloc, StructMallocInst)                                            \
  X(StructFree, SimpleInst)                                                    \
  X(StructGet, StructIdxInst)                                                  \
  X(StructSet, StructIdxInst)                                                  \
  X(StructSwap, StructIdxInst)                                                 \
  /* Variants. */                                                              \
  X(VariantMalloc, VariantMallocInst)                                          \
  X(VariantCase, VariantCaseInst)                                              \
  /* Arrays. */                                                                \
  X(ArrayMalloc, ArrayMallocInst)                                              \
  X(ArrayGet, SimpleInst)                                                      \
  X(ArraySet, SimpleInst)                                                      \
  X(ArrayFree, SimpleInst)                                                     \
  /* Existential (pretype) packages. */                                        \
  X(ExistPack, ExistPackInst)                                                  \
  X(ExistUnpack, ExistUnpackInst)

enum class InstKind : uint8_t {
#define RW_INST_ENUM(Kind, Class) Kind,
  RW_INST_KINDS(RW_INST_ENUM)
#undef RW_INST_ENUM
};

#define RW_INST_DECLARE(Kind, Class) class Class;
RW_INST_KINDS(RW_INST_DECLARE)
#undef RW_INST_DECLARE

/// True when class \p C represents instruction kind \p K.
template <class C> constexpr bool kindIsOf(InstKind K) {
  switch (K) {
#define RW_INST_IS(Kind, Class)                                                \
  case InstKind::Kind:                                                         \
    return std::is_same_v<C, Class>;
    RW_INST_KINDS(RW_INST_IS)
#undef RW_INST_IS
  }
  return false;
}

/// Base class of all RichWasm instructions.
class Inst {
public:
  InstKind kind() const { return K; }
  virtual ~Inst() = default;

protected:
  explicit Inst(InstKind K) : K(K) {}

private:
  InstKind K;
};

//===----------------------------------------------------------------------===//
// Numeric instructions
//===----------------------------------------------------------------------===//

/// `np.const c` — pushes a numeric constant. Bits holds the raw
/// representation (zero-extended for 32-bit types; IEEE bits for floats).
class NumConstInst : public Inst {
public:
  NumConstInst(NumType NT, uint64_t Bits)
      : Inst(InstKind::NumConst), NT(NT), Bits(Bits) {}
  NumType numType() const { return NT; }
  uint64_t bits() const { return Bits; }
  static constexpr auto fields() {
    return std::tuple{field(&NumConstInst::NT, "numeric type"),
                      field(&NumConstInst::Bits)};
  }
  static bool classof(const Inst *I) {
    return I->kind() == InstKind::NumConst;
  }

private:
  NumType NT;
  uint64_t Bits;
};

class NumUnopInst : public Inst {
public:
  NumUnopInst(NumType NT, UnopKind Op)
      : Inst(InstKind::NumUnop), NT(NT), Op(Op) {}
  NumType numType() const { return NT; }
  UnopKind op() const { return Op; }
  static constexpr auto fields() {
    return std::tuple{field(&NumUnopInst::NT, "numeric unop"),
                      field(&NumUnopInst::Op, "numeric unop")};
  }
  static bool classof(const Inst *I) { return I->kind() == InstKind::NumUnop; }

private:
  NumType NT;
  UnopKind Op;
};

class NumBinopInst : public Inst {
public:
  NumBinopInst(NumType NT, BinopKind Op)
      : Inst(InstKind::NumBinop), NT(NT), Op(Op) {}
  NumType numType() const { return NT; }
  BinopKind op() const { return Op; }
  static constexpr auto fields() {
    return std::tuple{field(&NumBinopInst::NT, "numeric binop"),
                      field(&NumBinopInst::Op, "numeric binop")};
  }
  static bool classof(const Inst *I) {
    return I->kind() == InstKind::NumBinop;
  }

private:
  NumType NT;
  BinopKind Op;
};

class NumTestopInst : public Inst {
public:
  NumTestopInst(NumType NT, TestopKind Op)
      : Inst(InstKind::NumTestop), NT(NT), Op(Op) {}
  NumType numType() const { return NT; }
  TestopKind op() const { return Op; }
  static constexpr auto fields() {
    return std::tuple{field(&NumTestopInst::NT, "numeric testop"),
                      field(&NumTestopInst::Op, "numeric testop")};
  }
  static bool classof(const Inst *I) {
    return I->kind() == InstKind::NumTestop;
  }

private:
  NumType NT;
  TestopKind Op;
};

class NumRelopInst : public Inst {
public:
  NumRelopInst(NumType NT, RelopKind Op)
      : Inst(InstKind::NumRelop), NT(NT), Op(Op) {}
  NumType numType() const { return NT; }
  RelopKind op() const { return Op; }
  static constexpr auto fields() {
    return std::tuple{field(&NumRelopInst::NT, "numeric relop"),
                      field(&NumRelopInst::Op, "numeric relop")};
  }
  static bool classof(const Inst *I) {
    return I->kind() == InstKind::NumRelop;
  }

private:
  NumType NT;
  RelopKind Op;
};

/// `np.cvtop np'` — converts the top of stack from From to To.
class NumCvtInst : public Inst {
public:
  NumCvtInst(NumType From, NumType To, CvtopKind Op)
      : Inst(InstKind::NumCvt), From(From), To(To), Op(Op) {}
  NumType from() const { return From; }
  NumType to() const { return To; }
  CvtopKind op() const { return Op; }
  static constexpr auto fields() {
    return std::tuple{field(&NumCvtInst::From, "conversion"),
                      field(&NumCvtInst::To, "conversion"),
                      field(&NumCvtInst::Op, "conversion")};
  }
  static bool classof(const Inst *I) { return I->kind() == InstKind::NumCvt; }

private:
  NumType From, To;
  CvtopKind Op;
};

//===----------------------------------------------------------------------===//
// Simple (payload-free) instructions
//===----------------------------------------------------------------------===//

/// Covers every kind whose RW_INST_KINDS row names SimpleInst: the
/// instructions whose only payload is their kind.
class SimpleInst : public Inst {
public:
  explicit SimpleInst(InstKind K) : Inst(K) {
    assert(isSimple(K) && "not a payload-free instruction kind");
  }
  static bool isSimple(InstKind K) { return kindIsOf<SimpleInst>(K); }
  static constexpr auto fields() { return std::tuple{}; }
  static bool classof(const Inst *I) { return isSimple(I->kind()); }
};

//===----------------------------------------------------------------------===//
// Control flow
//===----------------------------------------------------------------------===//

/// `block tf (i,τ)* e* end`.
class BlockInst : public Inst {
public:
  BlockInst(ArrowType TF, std::vector<LocalEffect> Fx, InstVec Body)
      : Inst(InstKind::Block), TF(std::move(TF)), Fx(std::move(Fx)),
        Body(std::move(Body)) {}
  const ArrowType &arrow() const { return TF; }
  const std::vector<LocalEffect> &effects() const { return Fx; }
  const InstVec &body() const { return Body; }
  static constexpr auto fields() {
    return std::tuple{field(&BlockInst::TF), field(&BlockInst::Fx),
                      field(&BlockInst::Body)};
  }
  static bool classof(const Inst *I) { return I->kind() == InstKind::Block; }

private:
  ArrowType TF;
  std::vector<LocalEffect> Fx;
  InstVec Body;
};

/// `loop tf e* end`. Branching to a loop label re-enters the loop, so the
/// body must leave the local environment as it found it (no local effects).
class LoopInst : public Inst {
public:
  LoopInst(ArrowType TF, InstVec Body)
      : Inst(InstKind::Loop), TF(std::move(TF)), Body(std::move(Body)) {}
  const ArrowType &arrow() const { return TF; }
  const InstVec &body() const { return Body; }
  static constexpr auto fields() {
    return std::tuple{field(&LoopInst::TF), field(&LoopInst::Body)};
  }
  static bool classof(const Inst *I) { return I->kind() == InstKind::Loop; }

private:
  ArrowType TF;
  InstVec Body;
};

/// `if tf (i,τ)* e1* else e2* end`.
class IfInst : public Inst {
public:
  IfInst(ArrowType TF, std::vector<LocalEffect> Fx, InstVec Then, InstVec Else)
      : Inst(InstKind::If), TF(std::move(TF)), Fx(std::move(Fx)),
        Then(std::move(Then)), Else(std::move(Else)) {}
  const ArrowType &arrow() const { return TF; }
  const std::vector<LocalEffect> &effects() const { return Fx; }
  const InstVec &thenBody() const { return Then; }
  const InstVec &elseBody() const { return Else; }
  static constexpr auto fields() {
    return std::tuple{field(&IfInst::TF), field(&IfInst::Fx),
                      field(&IfInst::Then), field(&IfInst::Else)};
  }
  static bool classof(const Inst *I) { return I->kind() == InstKind::If; }

private:
  ArrowType TF;
  std::vector<LocalEffect> Fx;
  InstVec Then, Else;
};

/// `br i` / `br_if i`.
class BrInst : public Inst {
public:
  BrInst(InstKind K, uint32_t Depth) : Inst(K), Depth(Depth) {
    assert(kindIsOf<BrInst>(K) && "bad br kind");
  }
  uint32_t depth() const { return Depth; }
  static constexpr auto fields() {
    return std::tuple{field(&BrInst::Depth, "branch depth")};
  }
  static bool classof(const Inst *I) { return kindIsOf<BrInst>(I->kind()); }

private:
  uint32_t Depth;
};

/// `br_table i* j`.
class BrTableInst : public Inst {
public:
  BrTableInst(std::vector<uint32_t> Depths, uint32_t Default)
      : Inst(InstKind::BrTable), Depths(std::move(Depths)), Default(Default) {}
  const std::vector<uint32_t> &depths() const { return Depths; }
  uint32_t defaultDepth() const { return Default; }
  static constexpr auto fields() {
    return std::tuple{
        field(&BrTableInst::Depths, "branch target", "branch depth"),
        field(&BrTableInst::Default, "branch depth")};
  }
  static bool classof(const Inst *I) { return I->kind() == InstKind::BrTable; }

private:
  std::vector<uint32_t> Depths;
  uint32_t Default;
};

//===----------------------------------------------------------------------===//
// Locals / globals / qualify
//===----------------------------------------------------------------------===//

/// `get_local i q`. The annotation q is the qualifier the program expects
/// the slot to have; a linear get moves the value out and leaves unit.
class GetLocalInst : public Inst {
public:
  GetLocalInst(uint32_t Idx, Qual Q)
      : Inst(InstKind::GetLocal), Idx(Idx), Q(Q) {}
  uint32_t index() const { return Idx; }
  Qual qual() const { return Q; }
  static constexpr auto fields() {
    return std::tuple{field(&GetLocalInst::Idx, "local index"),
                      field(&GetLocalInst::Q)};
  }
  static bool classof(const Inst *I) {
    return I->kind() == InstKind::GetLocal;
  }

private:
  uint32_t Idx;
  Qual Q;
};

/// `set_local i`, `tee_local i`, `get_global i`, `set_global i`.
class VarIdxInst : public Inst {
public:
  VarIdxInst(InstKind K, uint32_t Idx) : Inst(K), Idx(Idx) {
    assert(kindIsOf<VarIdxInst>(K) && "bad variable-index instruction kind");
  }
  uint32_t index() const { return Idx; }
  static constexpr auto fields() {
    return std::tuple{field(&VarIdxInst::Idx, "variable index")};
  }
  static bool classof(const Inst *I) {
    return kindIsOf<VarIdxInst>(I->kind());
  }

private:
  uint32_t Idx;
};

/// `qualify q` — weakens the top-of-stack qualifier upward to q.
class QualifyInst : public Inst {
public:
  explicit QualifyInst(Qual Q) : Inst(InstKind::Qualify), Q(Q) {}
  Qual qual() const { return Q; }
  static constexpr auto fields() {
    return std::tuple{field(&QualifyInst::Q)};
  }
  static bool classof(const Inst *I) { return I->kind() == InstKind::Qualify; }

private:
  Qual Q;
};

//===----------------------------------------------------------------------===//
// Calls
//===----------------------------------------------------------------------===//

/// `coderef i` — pushes a code reference to function i of this module.
class CoderefInst : public Inst {
public:
  explicit CoderefInst(uint32_t FuncIdx)
      : Inst(InstKind::CoderefI), FuncIdx(FuncIdx) {}
  uint32_t funcIndex() const { return FuncIdx; }
  static constexpr auto fields() {
    return std::tuple{field(&CoderefInst::FuncIdx, "function index")};
  }
  static bool classof(const Inst *I) {
    return I->kind() == InstKind::CoderefI;
  }

private:
  uint32_t FuncIdx;
};

/// `inst κ*` — instantiates leading quantifiers of a coderef on the stack.
class InstIdxInst : public Inst {
public:
  explicit InstIdxInst(std::vector<Index> Args)
      : Inst(InstKind::InstIdx), Args(std::move(Args)) {}
  const std::vector<Index> &args() const { return Args; }
  static constexpr auto fields() {
    return std::tuple{field(&InstIdxInst::Args)};
  }
  static bool classof(const Inst *I) { return I->kind() == InstKind::InstIdx; }

private:
  std::vector<Index> Args;
};

/// `call i κ*` — direct call of function i with instantiation κ*.
class CallInst : public Inst {
public:
  CallInst(uint32_t FuncIdx, std::vector<Index> Args)
      : Inst(InstKind::Call), FuncIdx(FuncIdx), Args(std::move(Args)) {}
  uint32_t funcIndex() const { return FuncIdx; }
  const std::vector<Index> &args() const { return Args; }
  static constexpr auto fields() {
    return std::tuple{field(&CallInst::FuncIdx, "function index"),
                      field(&CallInst::Args)};
  }
  static bool classof(const Inst *I) { return I->kind() == InstKind::Call; }

private:
  uint32_t FuncIdx;
  std::vector<Index> Args;
};

//===----------------------------------------------------------------------===//
// Recursive types and location packages
//===----------------------------------------------------------------------===//

/// `rec.fold p` — folds the top of stack into recursive pretype p (which
/// must be a RecPT).
class RecFoldInst : public Inst {
public:
  explicit RecFoldInst(PretypeRef P)
      : Inst(InstKind::RecFold), P(std::move(P)) {}
  const PretypeRef &pretype() const { return P; }
  static constexpr auto fields() {
    return std::tuple{field(&RecFoldInst::P)};
  }
  static bool classof(const Inst *I) { return I->kind() == InstKind::RecFold; }

private:
  PretypeRef P;
};

/// `mem.pack ℓ` — packs the top of stack into ∃ρ, hiding location ℓ.
class MemPackInst : public Inst {
public:
  explicit MemPackInst(Loc L) : Inst(InstKind::MemPack), L(L) {}
  const Loc &loc() const { return L; }
  static constexpr auto fields() {
    return std::tuple{field(&MemPackInst::L)};
  }
  static bool classof(const Inst *I) { return I->kind() == InstKind::MemPack; }

private:
  Loc L;
};

/// `mem.unpack tf (i,τ)* ρ. e*` — opens an ∃ρ package, binding one location
/// variable in Body.
class MemUnpackInst : public Inst {
public:
  MemUnpackInst(ArrowType TF, std::vector<LocalEffect> Fx, InstVec Body)
      : Inst(InstKind::MemUnpack), TF(std::move(TF)), Fx(std::move(Fx)),
        Body(std::move(Body)) {}
  const ArrowType &arrow() const { return TF; }
  const std::vector<LocalEffect> &effects() const { return Fx; }
  const InstVec &body() const { return Body; }
  static constexpr auto fields() {
    return std::tuple{field(&MemUnpackInst::TF), field(&MemUnpackInst::Fx),
                      field(&MemUnpackInst::Body, Binder::Loc)};
  }
  static bool classof(const Inst *I) {
    return I->kind() == InstKind::MemUnpack;
  }

private:
  ArrowType TF;
  std::vector<LocalEffect> Fx;
  InstVec Body;
};

//===----------------------------------------------------------------------===//
// Tuples
//===----------------------------------------------------------------------===//

/// `seq.group i q` — groups the top i stack values into a tuple with
/// qualifier q.
class GroupInst : public Inst {
public:
  GroupInst(uint32_t N, Qual Q) : Inst(InstKind::Group), N(N), Q(Q) {}
  uint32_t count() const { return N; }
  Qual qual() const { return Q; }
  static constexpr auto fields() {
    return std::tuple{field(&GroupInst::N, "group count"),
                      field(&GroupInst::Q)};
  }
  static bool classof(const Inst *I) { return I->kind() == InstKind::Group; }

private:
  uint32_t N;
  Qual Q;
};

//===----------------------------------------------------------------------===//
// Heap: structs, variants, arrays, existentials
//===----------------------------------------------------------------------===//

/// `struct.malloc sz* q` — allocates a struct with the given slot sizes,
/// initializing the fields from the stack.
class StructMallocInst : public Inst {
public:
  StructMallocInst(std::vector<SizeRef> Sizes, Qual Q)
      : Inst(InstKind::StructMalloc), Sizes(std::move(Sizes)), Q(Q) {}
  const std::vector<SizeRef> &sizes() const { return Sizes; }
  Qual qual() const { return Q; }
  static constexpr auto fields() {
    return std::tuple{field(&StructMallocInst::Sizes, "slot size"),
                      field(&StructMallocInst::Q)};
  }
  static bool classof(const Inst *I) {
    return I->kind() == InstKind::StructMalloc;
  }

private:
  std::vector<SizeRef> Sizes;
  Qual Q;
};

/// `struct.get i`, `struct.set i`, `struct.swap i`.
class StructIdxInst : public Inst {
public:
  StructIdxInst(InstKind K, uint32_t Idx) : Inst(K), Idx(Idx) {
    assert(kindIsOf<StructIdxInst>(K) && "bad struct-field instruction kind");
  }
  uint32_t fieldIndex() const { return Idx; }
  static constexpr auto fields() {
    return std::tuple{field(&StructIdxInst::Idx, "field index")};
  }
  static bool classof(const Inst *I) {
    return kindIsOf<StructIdxInst>(I->kind());
  }

private:
  uint32_t Idx;
};

/// `variant.malloc i τ* q` — allocates case Tag of (variant τ*) from the
/// stack value.
class VariantMallocInst : public Inst {
public:
  VariantMallocInst(uint32_t Tag, std::vector<Type> Cases, Qual Q)
      : Inst(InstKind::VariantMalloc), Tag(Tag), Cases(std::move(Cases)),
        Q(Q) {}
  uint32_t tag() const { return Tag; }
  const std::vector<Type> &cases() const { return Cases; }
  Qual qual() const { return Q; }
  static constexpr auto fields() {
    return std::tuple{field(&VariantMallocInst::Tag, "variant tag"),
                      field(&VariantMallocInst::Cases, "variant case"),
                      field(&VariantMallocInst::Q)};
  }
  static bool classof(const Inst *I) {
    return I->kind() == InstKind::VariantMalloc;
  }

private:
  uint32_t Tag;
  std::vector<Type> Cases;
  Qual Q;
};

/// `variant.case q ψ tf (i,τ)* (e*)* end` — case analysis on a variant
/// reference. A `lin` annotation frees the variant cell after the branch.
class VariantCaseInst : public Inst {
public:
  VariantCaseInst(Qual Q, HeapTypeRef HT, ArrowType TF,
                  std::vector<LocalEffect> Fx, std::vector<InstVec> Arms)
      : Inst(InstKind::VariantCase), Q(Q), HT(std::move(HT)),
        TF(std::move(TF)), Fx(std::move(Fx)), Arms(std::move(Arms)) {}
  Qual qual() const { return Q; }
  const HeapTypeRef &heapType() const { return HT; }
  const ArrowType &arrow() const { return TF; }
  const std::vector<LocalEffect> &effects() const { return Fx; }
  const std::vector<InstVec> &arms() const { return Arms; }
  static constexpr auto fields() {
    return std::tuple{field(&VariantCaseInst::Q), field(&VariantCaseInst::HT),
                      field(&VariantCaseInst::TF), field(&VariantCaseInst::Fx),
                      field(&VariantCaseInst::Arms, "variant arm")};
  }
  static bool classof(const Inst *I) {
    return I->kind() == InstKind::VariantCase;
  }

private:
  Qual Q;
  HeapTypeRef HT;
  ArrowType TF;
  std::vector<LocalEffect> Fx;
  std::vector<InstVec> Arms;
};

/// `array.malloc q` — takes an initial value and a ui32 length from the
/// stack and allocates an array.
class ArrayMallocInst : public Inst {
public:
  explicit ArrayMallocInst(Qual Q) : Inst(InstKind::ArrayMalloc), Q(Q) {}
  Qual qual() const { return Q; }
  static constexpr auto fields() {
    return std::tuple{field(&ArrayMallocInst::Q)};
  }
  static bool classof(const Inst *I) {
    return I->kind() == InstKind::ArrayMalloc;
  }

private:
  Qual Q;
};

/// `exist.pack p ψ q` — allocates a heap existential package with witness
/// pretype p.
class ExistPackInst : public Inst {
public:
  ExistPackInst(PretypeRef Witness, HeapTypeRef HT, Qual Q)
      : Inst(InstKind::ExistPack), Witness(std::move(Witness)),
        HT(std::move(HT)), Q(Q) {}
  const PretypeRef &witness() const { return Witness; }
  const HeapTypeRef &heapType() const { return HT; }
  Qual qual() const { return Q; }
  static constexpr auto fields() {
    return std::tuple{field(&ExistPackInst::Witness), field(&ExistPackInst::HT),
                      field(&ExistPackInst::Q)};
  }
  static bool classof(const Inst *I) {
    return I->kind() == InstKind::ExistPack;
  }

private:
  PretypeRef Witness;
  HeapTypeRef HT;
  Qual Q;
};

/// `exist.unpack q ψ tf (i,τ)* α. e* end` — opens a heap existential,
/// binding one pretype variable in Body. A `lin` annotation frees the cell.
class ExistUnpackInst : public Inst {
public:
  ExistUnpackInst(Qual Q, HeapTypeRef HT, ArrowType TF,
                  std::vector<LocalEffect> Fx, InstVec Body)
      : Inst(InstKind::ExistUnpack), Q(Q), HT(std::move(HT)),
        TF(std::move(TF)), Fx(std::move(Fx)), Body(std::move(Body)) {}
  Qual qual() const { return Q; }
  const HeapTypeRef &heapType() const { return HT; }
  const ArrowType &arrow() const { return TF; }
  const std::vector<LocalEffect> &effects() const { return Fx; }
  const InstVec &body() const { return Body; }
  static constexpr auto fields() {
    return std::tuple{field(&ExistUnpackInst::Q), field(&ExistUnpackInst::HT),
                      field(&ExistUnpackInst::TF), field(&ExistUnpackInst::Fx),
                      field(&ExistUnpackInst::Body, Binder::Pretype)};
  }
  static bool classof(const Inst *I) {
    return I->kind() == InstKind::ExistUnpack;
  }

private:
  Qual Q;
  HeapTypeRef HT;
  ArrowType TF;
  std::vector<LocalEffect> Fx;
  InstVec Body;
};

/// Calls `F.template operator()<C>()` with the class \p C that represents
/// kind \p K.
template <class Fn> decltype(auto) visitInstClass(InstKind K, Fn &&F) {
  switch (K) {
#define RW_INST_VISIT(Kind, Class)                                             \
  case InstKind::Kind:                                                         \
    return F.template operator()<Class>();
    RW_INST_KINDS(RW_INST_VISIT)
#undef RW_INST_VISIT
  }
  __builtin_unreachable();
}

/// Builds the node of kind \p K and class \p C from its field values, in
/// `C::fields()` order.
template <class C, class... Ts>
InstRef makeInst(InstKind K, std::tuple<Ts...> &&Vals) {
  return std::apply(
      [&](Ts &...V) -> InstRef {
        // Classes shared by several kinds take the kind first.
        if constexpr (std::is_constructible_v<C, InstKind, Ts...>)
          return std::make_shared<C>(K, std::move(V)...);
        else
          return std::make_shared<C>(std::move(V)...);
      },
      Vals);
}

} // namespace rw::ir

#endif // RICHWASM_IR_INST_H
