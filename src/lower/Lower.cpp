//===- lower/Lower.cpp - RichWasm → Wasm code generation -------------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "lower/Lower.h"

#include "ir/Rewrite.h"
#include "ir/TypeArena.h"
#include "lower/Rep.h"
#include "obs/Obs.h"
#include "support/FaultInject.h"
#include "typing/Checker.h"
#include "typing/Entail.h"
#include "support/ThreadPool.h"

#include <cassert>
#include <functional>
#include <map>

using namespace rw;
using namespace rw::lower;
using namespace rw::ir;
using wasm::Op;
using wasm::ValType;
using wasm::WInst;

namespace {

/// A numeric instruction lowers to the one opcode whose row means it; a
/// conversion that changes no bits lowers to nothing.
Status lowerNumeric(const Inst &I, std::vector<WInst> &O) {
  wasm::NumOp N;
  switch (I.kind()) {
  case InstKind::NumUnop: {
    const auto *U = cast<NumUnopInst>(&I);
    N = wasm::NumOp::un(U->op(), U->numType());
    break;
  }
  case InstKind::NumBinop: {
    const auto *B = cast<NumBinopInst>(&I);
    N = wasm::NumOp::bin(B->op(), B->numType());
    break;
  }
  case InstKind::NumTestop: {
    const auto *T = cast<NumTestopInst>(&I);
    N = wasm::NumOp::test(T->op(), T->numType());
    break;
  }
  case InstKind::NumRelop: {
    const auto *R = cast<NumRelopInst>(&I);
    N = wasm::NumOp::rel(R->op(), R->numType());
    break;
  }
  case InstKind::NumCvt: {
    const auto *C = cast<NumCvtInst>(&I);
    if (isIdentityCvt(C->from(), C->to()))
      return Status::success();
    N = wasm::NumOp::cvt(C->op(), C->from(), C->to());
    break;
  }
  default:
    return Error("not a numeric instruction");
  }
  std::optional<Op> K = wasm::numericOp(N);
  if (!K)
    return Error("numeric operator has no Wasm instruction at its type");
  O.push_back(WInst::mk(*K));
  return Status::success();
}

//===----------------------------------------------------------------------===//
// Program lowering
//===----------------------------------------------------------------------===//

class ProgramLowering {
public:
  ProgramLowering(const std::vector<const Module *> &Mods,
                  const LowerOptions &Opts)
      : Mods(Mods), Resolved(Opts.Resolved), Infos(Opts.Infos),
        Pool(Opts.Pool) {}

  Expected<LoweredProgram> run();

  LoweredProgram Out;
  /// (module index, RichWasm function index) → Wasm function index.
  std::map<std::pair<uint32_t, uint32_t>, uint32_t> FuncMap;
  /// Module index → base offset of its entries in the merged table.
  std::map<uint32_t, uint32_t> TableBase;
  std::vector<const Module *> Mods;
  /// The caller's import resolution (link/Resolve.h). Not owned.
  const std::vector<link::ResolvedModule> *Resolved;
  /// The caller's per-module checker annotations. Not owned.
  const std::vector<typing::InfoMap> *Infos;
  /// Optional pool for (module, function)-parallel body lowering.
  support::ThreadPool *Pool;
  /// (module, RichWasm global idx) → (base Wasm global, component reps).
  std::map<std::pair<uint32_t, uint32_t>,
           std::pair<uint32_t, std::vector<ValType>>>
      GlobalMap;

  /// The lowered shape of each merged-table slot, used by the runtime
  /// shape dispatch at abstract call_indirect sites (§6's "case for each
  /// possible shape in the table").
  struct SlotShape {
    std::vector<std::vector<ValType>> ParamReps, ResultReps;
    wasm::FuncType Sig;
  };
  std::vector<SlotShape> TableShapes;

  const typing::InstInfo *info(uint32_t ModIdx, const Inst *I) const {
    // The checker records annotations only for kinds on this allowlist; a
    // consult for any other kind means the two lists drifted apart —
    // fail loudly here rather than with a puzzling missing-annotation
    // error on well-typed input.
    assert(typing::infoConsumedByLowering(I->kind()) &&
           "lowering consults an instruction kind the checker does not "
           "annotate (update typing::infoConsumedByLowering)");
    const typing::InfoMap &IM = (*Infos)[ModIdx];
    auto It = IM.find(I);
    return It == IM.end() ? nullptr : &It->second;
  }
};

/// True if a type mentions an abstract pretype (variable or skolem)
/// anywhere that affects its flat representation.
bool containsAbstract(TypeRef T);
bool containsAbstractP(const Pretype *P) {
  switch (P->kind()) {
  case PretypeKind::Var:
  case PretypeKind::Skolem:
    return true;
  case PretypeKind::Prod:
    for (const Type &E : cast<ProdPT>(P)->elems())
      if (containsAbstract(E))
        return true;
    return false;
  case PretypeKind::Rec:
    return containsAbstract(cast<RecPT>(P)->body());
  case PretypeKind::ExLoc:
    return containsAbstract(cast<ExLocPT>(P)->body());
  default:
    return false;
  }
}
bool containsAbstract(TypeRef T) { return containsAbstractP(T.P); }

/// Lowers one instruction sequence (a function body or a global
/// initializer) into Wasm instructions, managing locals and scratches.
class FuncLowering {
public:
  FuncLowering(ProgramLowering &P, uint32_t ModIdx, TypeVarSizes Bounds,
               std::vector<ValType> ParamComps)
      : P(P), ModIdx(ModIdx), Bounds(std::move(Bounds)),
        NumParams(static_cast<uint32_t>(ParamComps.size())),
        ParamTypes(std::move(ParamComps)) {}

  ProgramLowering &P;
  uint32_t ModIdx;
  TypeVarSizes Bounds;
  uint32_t NumParams;
  std::vector<ValType> ParamTypes;
  std::vector<ValType> ExtraLocals; ///< Beyond the Wasm params.
  std::vector<uint32_t> RwLocalBase, RwLocalWords;
  /// Scratch-local indices, one stack of every-so-far-released local per
  /// value type. Indexed flat (I32=0x7f..F64=0x7c mapped to 0..3): the
  /// old std::map paid a node allocation per (function, type), which is
  /// pure churn at 10⁵ functions/s of cold admission.
  support::SmallVec<uint32_t, 8> FreePool[4];
  uint32_t Depth = 0;
  std::vector<uint32_t> RichLabels; ///< D_L per label, innermost at back.
  /// Set when this body emitted a call_indirect: only such bodies need the
  /// post-assembly type-index patch walk.
  bool HasCallIndirect = false;

  /// Reused stash scratch (see stash()): indices of spilled components.
  using Scratch = support::SmallVec<uint32_t, 8>;

  static unsigned poolIdx(ValType T) {
    return 0x7fu - static_cast<unsigned>(T);
  }
  uint32_t newLocal(ValType T) {
    ExtraLocals.push_back(T);
    return NumParams + static_cast<uint32_t>(ExtraLocals.size() - 1);
  }
  uint32_t acquire(ValType T) {
    auto &Pool = FreePool[poolIdx(T)];
    if (!Pool.empty()) {
      uint32_t L = Pool.back();
      Pool.pop_back();
      return L;
    }
    return newLocal(T);
  }
  void release(ValType T, uint32_t L) {
    FreePool[poolIdx(T)].push_back(L);
  }

  Expected<std::vector<ValType>> rep(TypeRef T) {
    return repOfType(T, Bounds);
  }

  static uint32_t wordsOf(const std::vector<ValType> &R) {
    uint32_t W = 0;
    for (ValType V : R)
      W += valTypeBytes(V) / 4;
    return W;
  }

  //===--------------------------------------------------------------------===//
  // Stack plumbing primitives
  //===--------------------------------------------------------------------===//

  /// Pops rep components (top of stack = last component) into scratch
  /// locals; returns them first-component-first. The index list lives in
  /// a SmallVec — realistic representations are a handful of components,
  /// so stashing allocates nothing.
  Scratch stash(const std::vector<ValType> &R, std::vector<WInst> &O) {
    Scratch Ls;
    for (size_t I = 0; I < R.size(); ++I)
      Ls.push_back(0);
    for (size_t I = R.size(); I > 0; --I) {
      Ls[I - 1] = acquire(R[I - 1]);
      O.push_back(WInst::idx(Op::LocalSet, Ls[I - 1]));
    }
    return Ls;
  }

  void unstash(const std::vector<ValType> &R, const Scratch &Ls,
               std::vector<WInst> &O, bool Release = true) {
    for (size_t I = 0; I < Ls.size(); ++I) {
      O.push_back(WInst::idx(Op::LocalGet, Ls[I]));
      if (Release)
        release(R[I], Ls[I]);
    }
  }

  void releaseAll(const std::vector<ValType> &R, const Scratch &Ls) {
    for (size_t I = 0; I < Ls.size(); ++I)
      release(R[I], Ls[I]);
  }

  /// Pops a value of representation R into the word-local range starting at
  /// WordBase (splitting 64-bit components).
  void spillToWords(uint32_t WordBase, const std::vector<ValType> &R,
                    std::vector<WInst> &O) {
    Scratch Ls = stash(R, O);
    uint32_t W = 0;
    for (size_t I = 0; I < R.size(); ++I) {
      switch (R[I]) {
      case ValType::I32:
        O.push_back(WInst::idx(Op::LocalGet, Ls[I]));
        O.push_back(WInst::idx(Op::LocalSet, WordBase + W));
        W += 1;
        break;
      case ValType::F32:
        O.push_back(WInst::idx(Op::LocalGet, Ls[I]));
        O.push_back(WInst::mk(Op::I32ReinterpretF32));
        O.push_back(WInst::idx(Op::LocalSet, WordBase + W));
        W += 1;
        break;
      case ValType::F64:
      case ValType::I64: {
        uint32_t S64 = acquire(ValType::I64);
        O.push_back(WInst::idx(Op::LocalGet, Ls[I]));
        if (R[I] == ValType::F64)
          O.push_back(WInst::mk(Op::I64ReinterpretF64));
        O.push_back(WInst::idx(Op::LocalSet, S64));
        O.push_back(WInst::idx(Op::LocalGet, S64));
        O.push_back(WInst::mk(Op::I32WrapI64));
        O.push_back(WInst::idx(Op::LocalSet, WordBase + W));
        O.push_back(WInst::idx(Op::LocalGet, S64));
        O.push_back(WInst::i64c(32));
        O.push_back(WInst::mk(Op::I64ShrU));
        O.push_back(WInst::mk(Op::I32WrapI64));
        O.push_back(WInst::idx(Op::LocalSet, WordBase + W + 1));
        release(ValType::I64, S64);
        W += 2;
        break;
      }
      }
    }
    releaseAll(R, Ls);
  }

  /// Pushes a value of representation R from the word locals at WordBase.
  void loadFromWords(uint32_t WordBase, const std::vector<ValType> &R,
                     std::vector<WInst> &O) {
    uint32_t W = 0;
    for (ValType V : R) {
      switch (V) {
      case ValType::I32:
        O.push_back(WInst::idx(Op::LocalGet, WordBase + W));
        W += 1;
        break;
      case ValType::F32:
        O.push_back(WInst::idx(Op::LocalGet, WordBase + W));
        O.push_back(WInst::mk(Op::F32ReinterpretI32));
        W += 1;
        break;
      case ValType::I64:
      case ValType::F64:
        O.push_back(WInst::idx(Op::LocalGet, WordBase + W));
        O.push_back(WInst::mk(Op::I64ExtendI32U));
        O.push_back(WInst::idx(Op::LocalGet, WordBase + W + 1));
        O.push_back(WInst::mk(Op::I64ExtendI32U));
        O.push_back(WInst::i64c(32));
        O.push_back(WInst::mk(Op::I64Shl));
        O.push_back(WInst::mk(Op::I64Or));
        if (V == ValType::F64)
          O.push_back(WInst::mk(Op::F64ReinterpretI64));
        W += 2;
        break;
      }
    }
  }

  /// Stores a value whose components sit in scratch locals Ls to memory at
  /// [BaseLocal] + ByteOff.
  void storeComps(uint32_t BaseLocal, uint32_t ByteOff,
                  const std::vector<ValType> &R, const Scratch &Ls,
                  std::vector<WInst> &O) {
    uint32_t Off = ByteOff;
    for (size_t I = 0; I < R.size(); ++I) {
      O.push_back(WInst::idx(Op::LocalGet, BaseLocal));
      O.push_back(WInst::idx(Op::LocalGet, Ls[I]));
      switch (R[I]) {
      case ValType::I32:
        O.push_back(WInst::mem(Op::I32Store, 2, Off));
        break;
      case ValType::I64:
        O.push_back(WInst::mem(Op::I64Store, 3, Off));
        break;
      case ValType::F32:
        O.push_back(WInst::mem(Op::F32Store, 2, Off));
        break;
      case ValType::F64:
        O.push_back(WInst::mem(Op::F64Store, 3, Off));
        break;
      }
      Off += valTypeBytes(R[I]);
    }
  }

  /// Pops a value of representation R from the stack and stores it at
  /// [BaseLocal] + ByteOff.
  void popStoreToMem(uint32_t BaseLocal, uint32_t ByteOff,
                     const std::vector<ValType> &R, std::vector<WInst> &O) {
    Scratch Ls = stash(R, O);
    storeComps(BaseLocal, ByteOff, R, Ls, O);
    releaseAll(R, Ls);
  }

  /// Pushes a value of representation R loaded from [BaseLocal] + ByteOff.
  void loadFromMem(uint32_t BaseLocal, uint32_t ByteOff,
                   const std::vector<ValType> &R, std::vector<WInst> &O) {
    uint32_t Off = ByteOff;
    for (ValType V : R) {
      O.push_back(WInst::idx(Op::LocalGet, BaseLocal));
      switch (V) {
      case ValType::I32:
        O.push_back(WInst::mem(Op::I32Load, 2, Off));
        break;
      case ValType::I64:
        O.push_back(WInst::mem(Op::I64Load, 3, Off));
        break;
      case ValType::F32:
        O.push_back(WInst::mem(Op::F32Load, 2, Off));
        break;
      case ValType::F64:
        O.push_back(WInst::mem(Op::F64Load, 3, Off));
        break;
      }
      Off += valTypeBytes(V);
    }
  }

  /// Coerces the value on top of the stack from representation RF to the
  /// raw-word representation of width TargetWords (the paper's boxing-free
  /// stack coercion into a bound-words shape).
  void compsToWords(const std::vector<ValType> &RF, uint32_t TargetWords,
                    std::vector<WInst> &O) {
    // Spill through fresh word scratches.
    Scratch Words;
    for (uint32_t I = 0; I < wordsOf(RF); ++I)
      Words.push_back(acquire(ValType::I32));
    // spillToWords needs a contiguous range; emulate with a per-component
    // loop instead.
    Scratch Ls = stash(RF, O);
    uint32_t W = 0;
    for (size_t I = 0; I < RF.size(); ++I) {
      switch (RF[I]) {
      case ValType::I32:
        O.push_back(WInst::idx(Op::LocalGet, Ls[I]));
        O.push_back(WInst::idx(Op::LocalSet, Words[W++]));
        break;
      case ValType::F32:
        O.push_back(WInst::idx(Op::LocalGet, Ls[I]));
        O.push_back(WInst::mk(Op::I32ReinterpretF32));
        O.push_back(WInst::idx(Op::LocalSet, Words[W++]));
        break;
      case ValType::I64:
      case ValType::F64: {
        uint32_t S64 = acquire(ValType::I64);
        O.push_back(WInst::idx(Op::LocalGet, Ls[I]));
        if (RF[I] == ValType::F64)
          O.push_back(WInst::mk(Op::I64ReinterpretF64));
        O.push_back(WInst::idx(Op::LocalSet, S64));
        O.push_back(WInst::idx(Op::LocalGet, S64));
        O.push_back(WInst::mk(Op::I32WrapI64));
        O.push_back(WInst::idx(Op::LocalSet, Words[W++]));
        O.push_back(WInst::idx(Op::LocalGet, S64));
        O.push_back(WInst::i64c(32));
        O.push_back(WInst::mk(Op::I64ShrU));
        O.push_back(WInst::mk(Op::I32WrapI64));
        O.push_back(WInst::idx(Op::LocalSet, Words[W++]));
        release(ValType::I64, S64);
        break;
      }
      }
    }
    releaseAll(RF, Ls);
    for (uint32_t I = 0; I < TargetWords; ++I) {
      if (I < Words.size())
        O.push_back(WInst::idx(Op::LocalGet, Words[I]));
      else
        O.push_back(WInst::i32c(0)); // Zero padding up to the bound.
    }
    for (uint32_t Wd : Words)
      release(ValType::I32, Wd);
  }

  /// Coerces SourceWords raw words on top of the stack back into the
  /// concrete representation RT.
  void wordsToComps(const std::vector<ValType> &RT, uint32_t SourceWords,
                    std::vector<WInst> &O) {
    std::vector<ValType> Words(SourceWords, ValType::I32);
    Scratch Ls = stash(Words, O);
    uint32_t W = 0;
    for (ValType V : RT) {
      switch (V) {
      case ValType::I32:
        O.push_back(WInst::idx(Op::LocalGet, Ls[W++]));
        break;
      case ValType::F32:
        O.push_back(WInst::idx(Op::LocalGet, Ls[W++]));
        O.push_back(WInst::mk(Op::F32ReinterpretI32));
        break;
      case ValType::I64:
      case ValType::F64:
        O.push_back(WInst::idx(Op::LocalGet, Ls[W]));
        O.push_back(WInst::mk(Op::I64ExtendI32U));
        O.push_back(WInst::idx(Op::LocalGet, Ls[W + 1]));
        O.push_back(WInst::mk(Op::I64ExtendI32U));
        O.push_back(WInst::i64c(32));
        O.push_back(WInst::mk(Op::I64Shl));
        O.push_back(WInst::mk(Op::I64Or));
        if (V == ValType::F64)
          O.push_back(WInst::mk(Op::F64ReinterpretI64));
        W += 2;
        break;
      }
    }
    releaseAll(Words, Ls);
  }

  /// Coerces the top-of-stack value from type From (under this function's
  /// bounds) to type To (under ToBounds — the callee's). No-op when the
  /// representations already agree.
  Status coerce(TypeRef From, TypeRef To, const TypeVarSizes &ToBounds,
                std::vector<WInst> &O) {
    Expected<std::vector<ValType>> RF = repOfType(From, Bounds);
    Expected<std::vector<ValType>> RT = repOfType(To, ToBounds);
    if (!RF)
      return RF.error();
    if (!RT)
      return RT.error();
    if (*RF == *RT)
      return Status::success();
    bool ToWords = isa<VarPT>(To.P) || isa<SkolemPT>(To.P);
    bool FromWords = isa<VarPT>(From.P) || isa<SkolemPT>(From.P);
    if (ToWords) {
      compsToWords(*RF, wordsOf(*RT), O);
      return Status::success();
    }
    if (FromWords) {
      // Drop the padding words beyond the concrete value's width first:
      // pop all source words, push back only the low ones as the value.
      std::vector<ValType> Words(RF->size(), ValType::I32);
      FuncLowering::Scratch Ls = stash(Words, O);
      uint32_t Need = wordsOf(*RT);
      for (uint32_t I = 0; I < Need; ++I)
        O.push_back(WInst::idx(Op::LocalGet, Ls[I]));
      releaseAll(Words, Ls);
      wordsToComps(*RT, Need, O);
      return Status::success();
    }
    // Structural: unwrap ∃ρ and rec, recurse through tuples.
    if (const auto *EF = dyn_cast<ExLocPT>(From.P))
      return coerce(EF->body(), To, ToBounds, O);
    if (const auto *ET = dyn_cast<ExLocPT>(To.P))
      return coerce(From, ET->body(), ToBounds, O);
    if (isa<ProdPT>(From.P) && isa<ProdPT>(To.P)) {
      const auto &EFs = cast<ProdPT>(From.P)->elems();
      const auto &ETs = cast<ProdPT>(To.P)->elems();
      if (EFs.size() != ETs.size())
        return Error("tuple arity mismatch in stack coercion");
      // Stash everything, then re-push element by element with coercion.
      std::vector<std::vector<ValType>> ERs;
      std::vector<FuncLowering::Scratch> ELs(EFs.size());
      for (const Type &E : EFs) {
        Expected<std::vector<ValType>> R = repOfType(E, Bounds);
        if (!R)
          return R.error();
        ERs.push_back(*R);
      }
      for (size_t I = EFs.size(); I > 0; --I)
        ELs[I - 1] = stash(ERs[I - 1], O);
      for (size_t I = 0; I < EFs.size(); ++I) {
        unstash(ERs[I], ELs[I], O);
        if (Status S = coerce(EFs[I], ETs[I], ToBounds, O); !S)
          return S;
      }
      return Status::success();
    }
    return Error("unsupported stack coercion between " +
                 std::to_string(RF->size()) + " and " +
                 std::to_string(RT->size()) + " components");
  }

  //===--------------------------------------------------------------------===//
  // Instruction lowering
  //===--------------------------------------------------------------------===//

  Expected<std::vector<WInst>> lowerSeq(const InstVec &Insts);
  Status lowerInst(const Inst &I, std::vector<WInst> &O, bool &Terminated);

  const typing::InstInfo *info(const Inst *I) { return P.info(ModIdx, I); }
};

//===----------------------------------------------------------------------===//
// FuncLowering implementation
//===----------------------------------------------------------------------===//

Expected<std::vector<WInst>> FuncLowering::lowerSeq(const InstVec &Insts) {
  std::vector<WInst> O;
  O.reserve(Insts.size() * 2);
  bool Terminated = false;
  for (const InstRef &I : Insts) {
    if (Terminated)
      break; // Dead code carries no checker annotations; skip it.
    if (Status S = lowerInst(*I, O, Terminated); !S)
      return S.error();
  }
  return O;
}

Status FuncLowering::lowerInst(const Inst &I, std::vector<WInst> &O,
                               bool &Terminated) {
  // The checker annotation is consulted lazily: most instructions (all
  // numerics and control flow) never need it, and the map probe per
  // instruction showed up in the cold-admission profile.
  switch (I.kind()) {
  //===---------------------------------------------------- numeric -------===//
  case InstKind::NumConst: {
    const auto *C = cast<NumConstInst>(&I);
    switch (C->numType()) {
    case NumType::I32:
    case NumType::U32:
      O.push_back(WInst::i32c(static_cast<int32_t>(C->bits())));
      break;
    case NumType::I64:
    case NumType::U64:
      O.push_back(WInst::i64c(static_cast<int64_t>(C->bits())));
      break;
    case NumType::F32: {
      WInst W(Op::F32Const);
      W.U64 = C->bits() & 0xffffffffu;
      O.push_back(W);
      break;
    }
    case NumType::F64: {
      WInst W(Op::F64Const);
      W.U64 = C->bits();
      O.push_back(W);
      break;
    }
    }
    return Status::success();
  }
  case InstKind::NumUnop:
  case InstKind::NumBinop:
  case InstKind::NumTestop:
  case InstKind::NumRelop:
  case InstKind::NumCvt:
    return lowerNumeric(I, O);

  //===------------------------------------------------- parametric -------===//
  case InstKind::Unreachable:
    O.push_back(WInst::mk(Op::Unreachable));
    Terminated = true;
    return Status::success();
  case InstKind::Nop:
    return Status::success();
  case InstKind::Drop: {
    const typing::InstInfo *Inf = info(&I);
    if (!Inf)
      return Error("missing checker annotation at drop");
    Expected<std::vector<ValType>> R = rep(Inf->Operands[0]);
    if (!R)
      return R.error();
    for (size_t J = 0; J < R->size(); ++J)
      O.push_back(WInst::mk(Op::Drop));
    return Status::success();
  }
  case InstKind::Select: {
    const typing::InstInfo *Inf = info(&I);
    if (!Inf)
      return Error("missing checker annotation at select");
    Expected<std::vector<ValType>> R = rep(Inf->Operands[0]);
    if (!R)
      return R.error();
    if (R->size() == 1) {
      O.push_back(WInst::mk(Op::Select));
      return Status::success();
    }
    // Multi-component select: pop the condition, both values, and re-push
    // the chosen one through an if.
    uint32_t Cond = acquire(ValType::I32);
    O.push_back(WInst::idx(Op::LocalSet, Cond));
    FuncLowering::Scratch V2 = stash(*R, O);
    FuncLowering::Scratch V1 = stash(*R, O);
    std::vector<WInst> Then, Else;
    unstash(*R, V1, Then, /*Release=*/false);
    unstash(*R, V2, Else, /*Release=*/false);
    O.push_back(WInst::idx(Op::LocalGet, Cond));
    O.push_back(WInst::ifElse({{}, *R}, std::move(Then), std::move(Else)));
    releaseAll(*R, V1);
    releaseAll(*R, V2);
    release(ValType::I32, Cond);
    return Status::success();
  }

  //===------------------------------------------------ control flow ------===//
  case InstKind::Block:
  case InstKind::Loop: {
    const ArrowType &TF = I.kind() == InstKind::Block
                              ? cast<BlockInst>(&I)->arrow()
                              : cast<LoopInst>(&I)->arrow();
    const InstVec &Body = I.kind() == InstKind::Block
                              ? cast<BlockInst>(&I)->body()
                              : cast<LoopInst>(&I)->body();
    Expected<std::vector<ValType>> PR = repOfTypes(TF.Params, Bounds);
    Expected<std::vector<ValType>> RR = repOfTypes(TF.Results, Bounds);
    if (!PR || !RR)
      return Error("bad block type in lowering");
    ++Depth;
    RichLabels.push_back(Depth);
    Expected<std::vector<WInst>> B = lowerSeq(Body);
    RichLabels.pop_back();
    --Depth;
    if (!B)
      return B.error();
    wasm::FuncType BT{*PR, *RR};
    if (I.kind() == InstKind::Block)
      O.push_back(WInst::block(std::move(BT), std::move(*B)));
    else
      O.push_back(WInst::loop(std::move(BT), std::move(*B)));
    return Status::success();
  }
  case InstKind::If: {
    const auto *F = cast<IfInst>(&I);
    Expected<std::vector<ValType>> PR = repOfTypes(F->arrow().Params, Bounds);
    Expected<std::vector<ValType>> RR = repOfTypes(F->arrow().Results, Bounds);
    if (!PR || !RR)
      return Error("bad if type in lowering");
    ++Depth;
    RichLabels.push_back(Depth);
    Expected<std::vector<WInst>> T = lowerSeq(F->thenBody());
    Expected<std::vector<WInst>> E = lowerSeq(F->elseBody());
    RichLabels.pop_back();
    --Depth;
    if (!T)
      return T.error();
    if (!E)
      return E.error();
    O.push_back(
        WInst::ifElse({*PR, *RR}, std::move(*T), std::move(*E)));
    return Status::success();
  }
  case InstKind::Br:
  case InstKind::BrIf: {
    uint32_t D = cast<BrInst>(&I)->depth();
    if (D >= RichLabels.size())
      return Error("br depth out of range in lowering");
    uint32_t Target = RichLabels[RichLabels.size() - 1 - D];
    uint32_t WasmD = Depth - Target;
    O.push_back(WInst::idx(I.kind() == InstKind::Br ? Op::Br : Op::BrIf,
                           WasmD));
    if (I.kind() == InstKind::Br)
      Terminated = true;
    return Status::success();
  }
  case InstKind::BrTable: {
    const auto *B = cast<BrTableInst>(&I);
    std::vector<uint32_t> Ds;
    for (uint32_t D : B->depths()) {
      if (D >= RichLabels.size())
        return Error("br_table depth out of range in lowering");
      Ds.push_back(Depth - RichLabels[RichLabels.size() - 1 - D]);
    }
    if (B->defaultDepth() >= RichLabels.size())
      return Error("br_table default out of range in lowering");
    uint32_t Dd = Depth - RichLabels[RichLabels.size() - 1 - B->defaultDepth()];
    O.push_back(WInst::brTable(std::move(Ds), Dd));
    Terminated = true;
    return Status::success();
  }
  case InstKind::Return:
    O.push_back(WInst::mk(Op::Return));
    Terminated = true;
    return Status::success();

  //===---------------------------------------------------- locals --------===//
  case InstKind::GetLocal: {
    const auto *G = cast<GetLocalInst>(&I);
    const typing::InstInfo *Inf = info(&I);
    if (!Inf)
      return Error("missing checker annotation at get_local");
    Expected<std::vector<ValType>> R = rep(Inf->Results[0]);
    if (!R)
      return R.error();
    loadFromWords(RwLocalBase[G->index()], *R, O);
    return Status::success();
  }
  case InstKind::SetLocal:
  case InstKind::TeeLocal: {
    const auto *S = cast<VarIdxInst>(&I);
    const typing::InstInfo *Inf = info(&I);
    if (!Inf)
      return Error("missing checker annotation at set/tee_local");
    Expected<std::vector<ValType>> R = rep(Inf->Operands[0]);
    if (!R)
      return R.error();
    spillToWords(RwLocalBase[S->index()], *R, O);
    if (I.kind() == InstKind::TeeLocal)
      loadFromWords(RwLocalBase[S->index()], *R, O);
    return Status::success();
  }
  case InstKind::GetGlobal:
  case InstKind::SetGlobal: {
    const auto *G = cast<VarIdxInst>(&I);
    auto It = P.GlobalMap.find({ModIdx, G->index()});
    if (It == P.GlobalMap.end())
      return Error("global not lowered");
    uint32_t Base = It->second.first;
    const std::vector<ValType> &R = It->second.second;
    if (I.kind() == InstKind::GetGlobal) {
      for (uint32_t J = 0; J < R.size(); ++J)
        O.push_back(WInst::idx(Op::GlobalGet, Base + J));
    } else {
      for (size_t J = R.size(); J > 0; --J)
        O.push_back(WInst::idx(Op::GlobalSet, Base + static_cast<uint32_t>(J - 1)));
    }
    return Status::success();
  }

  //===------------------------------------ erased (type-level) ops -------===//
  case InstKind::Qualify:
  case InstKind::CapSplit:
  case InstKind::CapJoin:
  case InstKind::RefDemote:
  case InstKind::RefSplit:
  case InstKind::RefJoin:
  case InstKind::RecFold:
  case InstKind::RecUnfold:
  case InstKind::MemPack:
  case InstKind::Group:
  case InstKind::Ungroup:
  case InstKind::InstIdx:
    return Status::success();

  //===---------------------------------------------------- calls ---------===//
  case InstKind::CoderefI: {
    const auto *C = cast<CoderefInst>(&I);
    uint32_t Base = P.TableBase.at(ModIdx);
    O.push_back(WInst::i32c(static_cast<int32_t>(Base + C->funcIndex())));
    return Status::success();
  }
  case InstKind::Call: {
    const auto *C = cast<CallInst>(&I);
    const typing::InstInfo *Inf = info(&I);
    if (!Inf)
      return Error("missing checker annotation at call");
    const Module &M = *P.Mods[ModIdx];
    const FunTypeRef &CalleeTy = M.Funcs[C->funcIndex()].Ty;
    uint32_t Target = P.FuncMap.at({ModIdx, C->funcIndex()});

    // Fast path: shapes agree when there are no pretype/size quantifiers.
    bool NeedsCoercion = false;
    for (const Quant &Q : CalleeTy->quants())
      if (Q.K == QuantKind::Type || Q.K == QuantKind::Size)
        NeedsCoercion = true;
    if (!NeedsCoercion) {
      O.push_back(WInst::idx(Op::Call, Target));
      return Status::success();
    }

    TypeVarSizes CalleeBounds =
        typing::typeVarSizes(typing::buildKindCtx(CalleeTy->quants()));
    const std::vector<TypeRef> &ConcP = Inf->Operands;
    const std::vector<Type> &PolyP = CalleeTy->arrow().Params;
    // Stash all arguments (top of stack = last parameter).
    std::vector<std::vector<ValType>> Reps(ConcP.size());
    std::vector<FuncLowering::Scratch> Ls(ConcP.size());
    for (size_t J = ConcP.size(); J > 0; --J) {
      Expected<std::vector<ValType>> R = rep(ConcP[J - 1]);
      if (!R)
        return R.error();
      Reps[J - 1] = *R;
      Ls[J - 1] = stash(Reps[J - 1], O);
    }
    for (size_t J = 0; J < ConcP.size(); ++J) {
      unstash(Reps[J], Ls[J], O);
      if (Status S = coerce(ConcP[J], PolyP[J], CalleeBounds, O); !S)
        return S;
    }
    O.push_back(WInst::idx(Op::Call, Target));
    // Coerce results back: stash by the *callee's* reps, re-push coerced.
    const std::vector<TypeRef> &ConcR = Inf->Results;
    const std::vector<Type> &PolyR = CalleeTy->arrow().Results;
    std::vector<std::vector<ValType>> RReps(PolyR.size());
    std::vector<FuncLowering::Scratch> RLs(PolyR.size());
    for (size_t J = PolyR.size(); J > 0; --J) {
      Expected<std::vector<ValType>> R = repOfType(PolyR[J - 1], CalleeBounds);
      if (!R)
        return R.error();
      RReps[J - 1] = *R;
      RLs[J - 1] = stash(RReps[J - 1], O);
    }
    for (size_t J = 0; J < PolyR.size(); ++J) {
      unstash(RReps[J], RLs[J], O);
      // Reverse coercion: from the callee's poly shape to the caller's
      // concrete shape. Swap roles: treat poly as "from" (callee bounds).
      Expected<std::vector<ValType>> RF = repOfType(PolyR[J], CalleeBounds);
      Expected<std::vector<ValType>> RT = rep(ConcR[J]);
      if (!RF || !RT)
        return Error("bad result representation");
      if (*RF != *RT) {
        if (isa<VarPT>(PolyR[J].P) || isa<SkolemPT>(PolyR[J].P)) {
          std::vector<ValType> Words(RF->size(), ValType::I32);
          FuncLowering::Scratch WLs = stash(Words, O);
          uint32_t Need = wordsOf(*RT);
          for (uint32_t K = 0; K < Need; ++K)
            O.push_back(WInst::idx(Op::LocalGet, WLs[K]));
          releaseAll(Words, WLs);
          wordsToComps(*RT, Need, O);
        } else {
          return Error("unsupported result coercion");
        }
      }
    }
    return Status::success();
  }
  case InstKind::CallIndirect: {
    const typing::InstInfo *Inf = info(&I);
    if (!Inf)
      return Error("missing checker annotation at call_indirect");
    // Operands = params + coderef; the coderef type is fully instantiated.
    const TypeRef &CT = Inf->Operands.back();
    const auto *CR = dyn_cast<CoderefPT>(CT.P);
    if (!CR)
      return Error("call_indirect without a coderef operand");
    const ArrowType &Arrow = CR->funType()->arrow();

    bool Abstract = false;
    for (const Type &T : Arrow.Params)
      Abstract |= containsAbstract(T);
    for (const Type &T : Arrow.Results)
      Abstract |= containsAbstract(T);

    HasCallIndirect = true;
    if (!Abstract) {
      // Concrete signature: the table entry was compiled with exactly this
      // shape, so a plain call_indirect suffices.
      Expected<std::vector<ValType>> PR = repOfTypes(Arrow.Params, Bounds);
      Expected<std::vector<ValType>> RR = repOfTypes(Arrow.Results, Bounds);
      if (!PR || !RR)
        return Error("bad indirect call signature");
      WInst CI(Op::CallIndirect);
      CI.U32 = 0; // Patched later (needs module-level type interning).
      CI.BT = {*PR, *RR};
      O.push_back(CI);
      return Status::success();
    }

    // Abstract signature (the Fig 9 pattern: a coderef whose type mentions
    // an opened existential). Table entries were compiled against their
    // concrete shapes, so emit the paper's runtime shape dispatch: a case
    // per distinct table shape that coerces arguments from the abstract
    // (bound-words) representation to the entry's concrete shape and the
    // results back.
    std::vector<std::vector<ValType>> APar, ARes;
    for (const Type &T : Arrow.Params) {
      Expected<std::vector<ValType>> R = rep(T);
      if (!R)
        return R.error();
      APar.push_back(*R);
    }
    for (const Type &T : Arrow.Results) {
      Expected<std::vector<ValType>> R = rep(T);
      if (!R)
        return R.error();
      ARes.push_back(*R);
    }
    Expected<std::vector<ValType>> ARFlat = repOfTypes(Arrow.Results, Bounds);
    if (!ARFlat)
      return ARFlat.error();

    // The coderef (table index) is on top; then the args.
    uint32_t IdxL = acquire(ValType::I32);
    O.push_back(WInst::idx(Op::LocalSet, IdxL));
    std::vector<FuncLowering::Scratch> ALs(APar.size());
    for (size_t J = APar.size(); J > 0; --J)
      ALs[J - 1] = stash(APar[J - 1], O);

    // Group compatible table slots by lowered signature.
    const std::vector<ProgramLowering::SlotShape> &Shapes = P.TableShapes;
    std::vector<wasm::FuncType> GroupSigs;
    std::vector<const ProgramLowering::SlotShape *> GroupShape;
    std::vector<uint32_t> SlotToGroup(Shapes.size(), ~0u);
    for (size_t K = 0; K < Shapes.size(); ++K) {
      const auto &Sh = Shapes[K];
      if (Sh.ParamReps.size() != APar.size() ||
          Sh.ResultReps.size() != ARes.size())
        continue; // Incompatible arity: routed to the trap case.
      bool Compatible = true;
      for (size_t J = 0; J < APar.size() && Compatible; ++J)
        if (Sh.ParamReps[J] != APar[J] &&
            !(containsAbstract(Arrow.Params[J])))
          Compatible = false;
      for (size_t J = 0; J < ARes.size() && Compatible; ++J)
        if (Sh.ResultReps[J] != ARes[J] &&
            !(containsAbstract(Arrow.Results[J])))
          Compatible = false;
      if (!Compatible)
        continue;
      uint32_t G = ~0u;
      for (uint32_t GI = 0; GI < GroupSigs.size(); ++GI)
        if (GroupSigs[GI] == Sh.Sig)
          G = GI;
      if (G == ~0u) {
        G = static_cast<uint32_t>(GroupSigs.size());
        GroupSigs.push_back(Sh.Sig);
        GroupShape.push_back(&Sh);
      }
      SlotToGroup[K] = G;
    }

    size_t NG = GroupSigs.size();
    // Cases 0..NG-1 are the shape groups; case NG traps (bad index or
    // incompatible entry).
    std::vector<WInst> Cur;
    Cur.push_back(WInst::idx(Op::LocalGet, IdxL));
    {
      std::vector<uint32_t> Ts;
      for (size_t K = 0; K < Shapes.size(); ++K)
        Ts.push_back(SlotToGroup[K] == ~0u ? static_cast<uint32_t>(NG)
                                           : SlotToGroup[K]);
      Cur.push_back(WInst::brTable(std::move(Ts),
                                   static_cast<uint32_t>(NG)));
    }
    for (size_t G = 0; G <= NG; ++G) {
      std::vector<WInst> Next;
      Next.push_back(WInst::block({{}, {}}, std::move(Cur)));
      if (G == NG) {
        Next.push_back(WInst::mk(Op::Unreachable));
      } else {
        const auto &Sh = *GroupShape[G];
        for (size_t J = 0; J < APar.size(); ++J) {
          unstash(APar[J], ALs[J], Next, /*Release=*/false);
          if (APar[J] != Sh.ParamReps[J]) {
            // Abstract words → the entry's concrete shape.
            std::vector<ValType> Words(APar[J].size(), ValType::I32);
            FuncLowering::Scratch WLs = stash(Words, Next);
            uint32_t Need = wordsOf(Sh.ParamReps[J]);
            for (uint32_t K2 = 0; K2 < Need; ++K2)
              Next.push_back(WInst::idx(Op::LocalGet, WLs[K2]));
            releaseAll(Words, WLs);
            wordsToComps(Sh.ParamReps[J], Need, Next);
          }
        }
        Next.push_back(WInst::idx(Op::LocalGet, IdxL));
        WInst CI(Op::CallIndirect);
        CI.U32 = 0; // Patched later.
        CI.BT = Sh.Sig;
        Next.push_back(CI);
        // Coerce results back to the abstract representation.
        std::vector<FuncLowering::Scratch> RLs(ARes.size());
        for (size_t J = ARes.size(); J > 0; --J)
          RLs[J - 1] = stash(Sh.ResultReps[J - 1], Next);
        for (size_t J = 0; J < ARes.size(); ++J) {
          unstash(Sh.ResultReps[J], RLs[J], Next);
          if (ARes[J] != Sh.ResultReps[J])
            compsToWords(Sh.ResultReps[J],
                         static_cast<uint32_t>(ARes[J].size()), Next);
        }
        Next.push_back(
            WInst::idx(Op::Br, static_cast<uint32_t>(NG - G)));
      }
      Cur = std::move(Next);
    }
    O.push_back(WInst::block({{}, *ARFlat}, std::move(Cur)));
    for (size_t J = 0; J < APar.size(); ++J)
      releaseAll(APar[J], ALs[J]);
    release(ValType::I32, IdxL);
    return Status::success();
  }

  //===------------------------------------------------ mem.unpack --------===//
  case InstKind::MemUnpack: {
    const auto *MU = cast<MemUnpackInst>(&I);
    const typing::InstInfo *Inf = info(&I);
    if (!Inf)
      return Error("missing checker annotation at mem.unpack");
    const TypeRef &PackT = Inf->Operands.back();
    const auto *Ex = dyn_cast<ExLocPT>(PackT.P);
    if (!Ex)
      return Error("mem.unpack operand is not an existential package");
    Expected<std::vector<ValType>> PR =
        repOfTypes(MU->arrow().Params, Bounds);
    Expected<std::vector<ValType>> VR = rep(Ex->body());
    Expected<std::vector<ValType>> RR =
        repOfTypes(MU->arrow().Results, Bounds);
    if (!PR || !VR || !RR)
      return Error("bad mem.unpack types");
    std::vector<ValType> In = *PR;
    In.insert(In.end(), VR->begin(), VR->end());
    ++Depth;
    RichLabels.push_back(Depth);
    Expected<std::vector<WInst>> B = lowerSeq(MU->body());
    RichLabels.pop_back();
    --Depth;
    if (!B)
      return B.error();
    O.push_back(WInst::block({std::move(In), *RR}, std::move(*B)));
    return Status::success();
  }

  //===---------------------------------------------------- structs -------===//
  case InstKind::StructMalloc: {
    const auto *SM = cast<StructMallocInst>(&I);
    const typing::InstInfo *Inf = info(&I);
    if (!Inf)
      return Error("missing checker annotation at struct.malloc");
    const std::vector<TypeRef> &Fields = Inf->Operands;
    std::vector<uint32_t> Offs;
    uint32_t Off = 0;
    std::vector<bool> Map;
    for (size_t J = 0; J < Fields.size(); ++J) {
      Offs.push_back(Off);
      Expected<uint32_t> SB = slotBytes(SM->sizes()[J]);
      if (!SB)
        return SB.error();
      Expected<std::vector<bool>> FM = refMaskOfType(Fields[J], Bounds);
      if (!FM)
        return FM.error();
      while (Map.size() < Off / 4)
        Map.push_back(false);
      for (bool Bit : *FM)
        Map.push_back(Bit);
      while (Map.size() < (Off + *SB) / 4)
        Map.push_back(false);
      Off += *SB;
    }
    bool Lin = SM->qual().isLinConst();
    // Stash fields (last on top).
    std::vector<std::vector<ValType>> Reps(Fields.size());
    std::vector<FuncLowering::Scratch> Ls(Fields.size());
    for (size_t J = Fields.size(); J > 0; --J) {
      Expected<std::vector<ValType>> R = rep(Fields[J - 1]);
      if (!R)
        return R.error();
      Reps[J - 1] = *R;
      Ls[J - 1] = stash(Reps[J - 1], O);
    }
    O.push_back(WInst::i32c(static_cast<int32_t>(Off)));
    O.push_back(WInst::i32c(Lin ? static_cast<int32_t>(RtLinear) : 0));
    O.push_back(WInst::i32c(static_cast<int32_t>(packPtrMap(Map))));
    O.push_back(WInst::idx(Op::Call, P.Out.Runtime.AllocFunc));
    uint32_t Base = acquire(ValType::I32);
    O.push_back(WInst::idx(Op::LocalSet, Base));
    for (size_t J = 0; J < Fields.size(); ++J) {
      storeComps(Base, Offs[J], Reps[J], Ls[J], O);
      releaseAll(Reps[J], Ls[J]);
    }
    O.push_back(WInst::idx(Op::LocalGet, Base));
    release(ValType::I32, Base);
    return Status::success();
  }
  case InstKind::StructFree:
  case InstKind::ArrayFree:
    O.push_back(WInst::idx(Op::Call, P.Out.Runtime.FreeFunc));
    return Status::success();
  case InstKind::StructGet:
  case InstKind::StructSet:
  case InstKind::StructSwap: {
    const auto *SG = cast<StructIdxInst>(&I);
    const typing::InstInfo *Inf = info(&I);
    if (!Inf)
      return Error("missing checker annotation at struct access");
    const TypeRef &RefT = Inf->Operands[0];
    const auto *R = dyn_cast<RefPT>(RefT.P);
    const StructHT *H = R ? dyn_cast<StructHT>(R->heapType()) : nullptr;
    if (!H)
      return Error("struct access without struct reference type");
    uint32_t Off = 0;
    for (uint32_t J = 0; J < SG->fieldIndex(); ++J) {
      Expected<uint32_t> SB = slotBytes(H->structFields()[J].Slot);
      if (!SB)
        return SB.error();
      Off += *SB;
    }
    const Type &FieldT = H->structFields()[SG->fieldIndex()].T;
    Expected<std::vector<ValType>> FR = rep(FieldT);
    if (!FR)
      return FR.error();

    if (I.kind() == InstKind::StructGet) {
      uint32_t Base = acquire(ValType::I32);
      O.push_back(WInst::idx(Op::LocalTee, Base)); // ref stays on the stack
      loadFromMem(Base, Off, *FR, O);
      release(ValType::I32, Base);
      return Status::success();
    }

    // set / swap: stack is [ref, new-value].
    const TypeRef &NewT = Inf->Operands[1];
    Expected<std::vector<ValType>> NR = rep(NewT);
    if (!NR)
      return NR.error();
    FuncLowering::Scratch NLs = stash(*NR, O);
    uint32_t Base = acquire(ValType::I32);
    O.push_back(WInst::idx(Op::LocalTee, Base)); // ref stays
    if (I.kind() == InstKind::StructSwap)
      loadFromMem(Base, Off, *FR, O); // old value above the ref
    storeComps(Base, Off, *NR, NLs, O);
    releaseAll(*NR, NLs);

    // Maintain the header pointer map across strong updates.
    Expected<std::vector<bool>> OldM = refMaskOfType(FieldT, Bounds);
    Expected<std::vector<bool>> NewM = refMaskOfType(NewT, Bounds);
    if (!OldM || !NewM)
      return Error("bad pointer masks");
    Expected<uint32_t> SlotB = slotBytes(H->structFields()[SG->fieldIndex()].Slot);
    if (!SlotB)
      return SlotB.error();
    uint32_t SlotWords = *SlotB / 4;
    uint32_t ClearMask = 0, SetMask = 0;
    for (uint32_t W = 0; W < SlotWords; ++W) {
      uint32_t Bit = Off / 4 + W;
      if (Bit >= 29)
        break;
      ClearMask |= 1u << Bit;
      if (W < NewM->size() && (*NewM)[W])
        SetMask |= 1u << Bit;
    }
    bool OldHasPtr = false;
    for (bool Bt : *OldM)
      OldHasPtr |= Bt;
    bool NewHasPtr = false;
    for (bool Bt : *NewM)
      NewHasPtr |= Bt;
    if (OldHasPtr || NewHasPtr) {
      // map = (map & ~Clear) | Set, at address base - 4.
      uint32_t Addr = acquire(ValType::I32);
      O.push_back(WInst::idx(Op::LocalGet, Base));
      O.push_back(WInst::i32c(4));
      O.push_back(WInst::mk(Op::I32Sub));
      O.push_back(WInst::idx(Op::LocalTee, Addr));
      O.push_back(WInst::idx(Op::LocalGet, Addr));
      O.push_back(WInst::mem(Op::I32Load, 2, 0));
      O.push_back(WInst::i32c(static_cast<int32_t>(~ClearMask)));
      O.push_back(WInst::mk(Op::I32And));
      O.push_back(WInst::i32c(static_cast<int32_t>(SetMask)));
      O.push_back(WInst::mk(Op::I32Or));
      O.push_back(WInst::mem(Op::I32Store, 2, 0));
      release(ValType::I32, Addr);
    }
    release(ValType::I32, Base);
    return Status::success();
  }

  //===---------------------------------------------------- variants ------===//
  case InstKind::VariantMalloc: {
    const auto *VM = cast<VariantMallocInst>(&I);
    const Type &PayloadT = VM->cases()[VM->tag()];
    Expected<std::vector<ValType>> PRp = rep(PayloadT);
    Expected<uint32_t> PB = byteSizeOfType(PayloadT, Bounds);
    Expected<std::vector<bool>> PM = refMaskOfType(PayloadT, Bounds);
    if (!PRp || !PB || !PM)
      return Error("bad variant payload type");
    std::vector<bool> Map = {false}; // Tag word.
    Map.insert(Map.end(), PM->begin(), PM->end());
    FuncLowering::Scratch Ls = stash(*PRp, O);
    O.push_back(WInst::i32c(static_cast<int32_t>(4 + *PB)));
    O.push_back(WInst::i32c(VM->qual().isLinConst() ? static_cast<int32_t>(RtLinear) : 0));
    O.push_back(WInst::i32c(static_cast<int32_t>(packPtrMap(Map))));
    O.push_back(WInst::idx(Op::Call, P.Out.Runtime.AllocFunc));
    uint32_t Base = acquire(ValType::I32);
    O.push_back(WInst::idx(Op::LocalSet, Base));
    O.push_back(WInst::idx(Op::LocalGet, Base));
    O.push_back(WInst::i32c(static_cast<int32_t>(VM->tag())));
    O.push_back(WInst::mem(Op::I32Store, 2, 0));
    storeComps(Base, 4, *PRp, Ls, O);
    releaseAll(*PRp, Ls);
    O.push_back(WInst::idx(Op::LocalGet, Base));
    release(ValType::I32, Base);
    return Status::success();
  }
  case InstKind::VariantCase: {
    const auto *VC = cast<VariantCaseInst>(&I);
    const auto *H = dyn_cast<VariantHT>(VC->heapType());
    if (!H)
      return Error("variant.case annotation is not a variant");
    size_t N = VC->arms().size();
    bool Lin = VC->qual().isLinConst();
    Expected<std::vector<ValType>> PR = repOfTypes(VC->arrow().Params, Bounds);
    Expected<std::vector<ValType>> RR =
        repOfTypes(VC->arrow().Results, Bounds);
    if (!PR || !RR)
      return Error("bad variant.case types");

    // Stack: [ref, params...]. Stash params, then the ref.
    FuncLowering::Scratch PLs = stash(*PR, O);
    uint32_t Base = acquire(ValType::I32);
    O.push_back(WInst::idx(Op::LocalSet, Base));

    uint32_t DOut = Depth + 1; // Wasm depth just inside the result block.
    // Innermost: the dispatch br_table.
    std::vector<WInst> Cur;
    Cur.push_back(WInst::idx(Op::LocalGet, Base));
    Cur.push_back(WInst::mem(Op::I32Load, 2, 0));
    {
      std::vector<uint32_t> Ts;
      for (size_t A = 0; A < N; ++A)
        Ts.push_back(static_cast<uint32_t>(A));
      Cur.push_back(WInst::brTable(std::move(Ts),
                                   static_cast<uint32_t>(N - 1)));
    }
    for (size_t A = 0; A < N; ++A) {
      std::vector<WInst> Next;
      Next.push_back(WInst::block({{}, {}}, std::move(Cur)));
      // Arm A's code: params, payload, free (linear), arm body.
      unstash(*PR, PLs, Next, /*Release=*/false);
      const Type &CaseT = H->cases()[A];
      Expected<std::vector<ValType>> CR = rep(CaseT);
      if (!CR)
        return CR.error();
      loadFromMem(Base, 4, *CR, Next);
      if (Lin) {
        Next.push_back(WInst::idx(Op::LocalGet, Base));
        Next.push_back(WInst::idx(Op::Call, P.Out.Runtime.FreeFunc));
      }
      uint32_t SavedDepth = Depth;
      Depth = DOut + static_cast<uint32_t>(N - 1 - A);
      RichLabels.push_back(DOut);
      Expected<std::vector<WInst>> ArmCode = lowerSeq(VC->arms()[A]);
      RichLabels.pop_back();
      Depth = SavedDepth;
      if (!ArmCode)
        return ArmCode.error();
      Next.insert(Next.end(), std::make_move_iterator(ArmCode->begin()),
                  std::make_move_iterator(ArmCode->end()));
      if (A + 1 < N)
        Next.push_back(WInst::idx(Op::Br, static_cast<uint32_t>(N - 1 - A)));
      Cur = std::move(Next);
    }
    O.push_back(WInst::block({{}, *RR}, std::move(Cur)));
    releaseAll(*PR, PLs);

    if (!Lin) {
      // The reference goes back *under* the results.
      FuncLowering::Scratch RLs = stash(*RR, O);
      O.push_back(WInst::idx(Op::LocalGet, Base));
      unstash(*RR, RLs, O);
    }
    release(ValType::I32, Base);
    return Status::success();
  }

  //===---------------------------------------------------- arrays --------===//
  case InstKind::ArrayMalloc: {
    const typing::InstInfo *Inf = info(&I);
    if (!Inf)
      return Error("missing checker annotation at array.malloc");
    const TypeRef &InitT = Inf->Operands[0];
    Expected<std::vector<ValType>> IR = rep(InitT);
    Expected<uint32_t> EB = byteSizeOfType(InitT, Bounds);
    Expected<std::vector<bool>> EM = refMaskOfType(InitT, Bounds);
    if (!IR || !EB || !EM)
      return Error("bad array element type");
    bool Lin = cast<ArrayMallocInst>(&I)->qual().isLinConst();
    uint32_t Len = acquire(ValType::I32);
    O.push_back(WInst::idx(Op::LocalSet, Len));
    FuncLowering::Scratch ILs = stash(*IR, O);
    // payload = 4 + len * elemBytes
    O.push_back(WInst::idx(Op::LocalGet, Len));
    O.push_back(WInst::i32c(static_cast<int32_t>(*EB)));
    O.push_back(WInst::mk(Op::I32Mul));
    O.push_back(WInst::i32c(4));
    O.push_back(WInst::mk(Op::I32Add));
    uint32_t Flags = (Lin ? static_cast<uint32_t>(RtLinear) : 0u) | RtArray |
                     (*EB << RtElemShift);
    O.push_back(WInst::i32c(static_cast<int32_t>(Flags)));
    O.push_back(WInst::i32c(static_cast<int32_t>(packPtrMap(*EM))));
    O.push_back(WInst::idx(Op::Call, P.Out.Runtime.AllocFunc));
    uint32_t Base = acquire(ValType::I32);
    O.push_back(WInst::idx(Op::LocalSet, Base));
    // Store the length.
    O.push_back(WInst::idx(Op::LocalGet, Base));
    O.push_back(WInst::idx(Op::LocalGet, Len));
    O.push_back(WInst::mem(Op::I32Store, 2, 0));
    // Fill loop.
    if (*EB > 0) {
      uint32_t Idx = acquire(ValType::I32);
      uint32_t Addr = acquire(ValType::I32);
      O.push_back(WInst::i32c(0));
      O.push_back(WInst::idx(Op::LocalSet, Idx));
      std::vector<WInst> LoopBody;
      LoopBody.push_back(WInst::idx(Op::LocalGet, Idx));
      LoopBody.push_back(WInst::idx(Op::LocalGet, Len));
      LoopBody.push_back(WInst::mk(Op::I32GeU));
      LoopBody.push_back(WInst::idx(Op::BrIf, 1));
      LoopBody.push_back(WInst::idx(Op::LocalGet, Base));
      LoopBody.push_back(WInst::idx(Op::LocalGet, Idx));
      LoopBody.push_back(WInst::i32c(static_cast<int32_t>(*EB)));
      LoopBody.push_back(WInst::mk(Op::I32Mul));
      LoopBody.push_back(WInst::mk(Op::I32Add));
      LoopBody.push_back(WInst::idx(Op::LocalSet, Addr));
      storeComps(Addr, 4, *IR, ILs, LoopBody);
      LoopBody.push_back(WInst::idx(Op::LocalGet, Idx));
      LoopBody.push_back(WInst::i32c(1));
      LoopBody.push_back(WInst::mk(Op::I32Add));
      LoopBody.push_back(WInst::idx(Op::LocalSet, Idx));
      LoopBody.push_back(WInst::idx(Op::Br, 0));
      std::vector<WInst> LoopBlk;
      LoopBlk.push_back(WInst::loop({{}, {}}, std::move(LoopBody)));
      O.push_back(WInst::block({{}, {}}, std::move(LoopBlk)));
      release(ValType::I32, Idx);
      release(ValType::I32, Addr);
    }
    releaseAll(*IR, ILs);
    O.push_back(WInst::idx(Op::LocalGet, Base));
    release(ValType::I32, Base);
    release(ValType::I32, Len);
    return Status::success();
  }
  case InstKind::ArrayGet:
  case InstKind::ArraySet: {
    const typing::InstInfo *Inf = info(&I);
    if (!Inf)
      return Error("missing checker annotation at array access");
    bool IsSet = I.kind() == InstKind::ArraySet;
    const TypeRef &RefT = Inf->Operands[0];
    const auto *R = dyn_cast<RefPT>(RefT.P);
    const ArrayHT *H = R ? dyn_cast<ArrayHT>(R->heapType()) : nullptr;
    if (!H)
      return Error("array access without array reference");
    Expected<std::vector<ValType>> ER = rep(H->elem());
    Expected<uint32_t> EB = byteSizeOfType(H->elem(), Bounds);
    if (!ER || !EB)
      return Error("bad array element type");
    FuncLowering::Scratch VLs;
    if (IsSet)
      VLs = stash(*ER, O);
    uint32_t Idx = acquire(ValType::I32);
    O.push_back(WInst::idx(Op::LocalSet, Idx));
    uint32_t Base = acquire(ValType::I32);
    O.push_back(WInst::idx(Op::LocalTee, Base)); // ref stays
    // Bounds check: idx >= len → trap.
    O.push_back(WInst::idx(Op::LocalGet, Idx));
    O.push_back(WInst::idx(Op::LocalGet, Base));
    O.push_back(WInst::mem(Op::I32Load, 2, 0));
    O.push_back(WInst::mk(Op::I32GeU));
    O.push_back(WInst::ifElse({{}, {}}, {WInst::mk(Op::Unreachable)}, {}));
    // addr = base + idx * elemBytes
    uint32_t Addr = acquire(ValType::I32);
    O.push_back(WInst::idx(Op::LocalGet, Base));
    O.push_back(WInst::idx(Op::LocalGet, Idx));
    O.push_back(WInst::i32c(static_cast<int32_t>(*EB)));
    O.push_back(WInst::mk(Op::I32Mul));
    O.push_back(WInst::mk(Op::I32Add));
    O.push_back(WInst::idx(Op::LocalSet, Addr));
    if (IsSet) {
      storeComps(Addr, 4, *ER, VLs, O);
      releaseAll(*ER, VLs);
    } else {
      loadFromMem(Addr, 4, *ER, O);
    }
    release(ValType::I32, Addr);
    release(ValType::I32, Base);
    release(ValType::I32, Idx);
    return Status::success();
  }

  //===------------------------------------------------ existentials ------===//
  case InstKind::ExistPack: {
    const typing::InstInfo *Inf = info(&I);
    const auto *EP = cast<ExistPackInst>(&I);
    const auto *H = dyn_cast<ExHT>(EP->heapType());
    if (!H || !Inf)
      return Error("bad exist.pack");
    // The cell stores the *abstract-shape* body value: every α position
    // occupies its full bound in raw words, so unpack (which only knows
    // the abstract shape) reads it back consistently regardless of the
    // witness.
    TypeVarSizes BodyBounds;
    BodyBounds.push_back(H->sizeUpper());
    BodyBounds.insert(BodyBounds.end(), Bounds.begin(), Bounds.end());
    Expected<std::vector<ValType>> AR = repOfType(H->body(), BodyBounds);
    Expected<uint32_t> AB = byteSizeOfType(H->body(), BodyBounds);
    Expected<std::vector<bool>> AM = refMaskOfType(H->body(), BodyBounds);
    if (!AR || !AB || !AM)
      return Error("bad existential body shape");
    const TypeRef &PayloadT = Inf->Operands[0];
    // Coerce concrete payload → abstract shape on the stack.
    FuncLowering *Self = this;
    {
      // Build the abstract body type with the binder opened as a skolem of
      // the declared bound, so coerce() sees the word targets.
      Subst Sub = Subst::onePretype(
          skolemPT(0, H->qualLower(), H->sizeUpper(), true));
      Type AbstractBody = Sub.rewrite(H->body());
      if (Status S = Self->coerce(PayloadT, AbstractBody, Bounds, O); !S)
        return S;
    }
    FuncLowering::Scratch Ls = stash(*AR, O);
    O.push_back(WInst::i32c(static_cast<int32_t>(*AB)));
    O.push_back(WInst::i32c(EP->qual().isLinConst() ? static_cast<int32_t>(RtLinear) : 0));
    O.push_back(WInst::i32c(static_cast<int32_t>(packPtrMap(*AM))));
    O.push_back(WInst::idx(Op::Call, P.Out.Runtime.AllocFunc));
    uint32_t Base = acquire(ValType::I32);
    O.push_back(WInst::idx(Op::LocalSet, Base));
    storeComps(Base, 0, *AR, Ls, O);
    releaseAll(*AR, Ls);
    O.push_back(WInst::idx(Op::LocalGet, Base));
    release(ValType::I32, Base);
    return Status::success();
  }
  case InstKind::ExistUnpack: {
    const auto *EU = cast<ExistUnpackInst>(&I);
    const auto *H = dyn_cast<ExHT>(EU->heapType());
    if (!H)
      return Error("bad exist.unpack annotation");
    bool Lin = EU->qual().isLinConst();
    Expected<std::vector<ValType>> PR = repOfTypes(EU->arrow().Params, Bounds);
    Expected<std::vector<ValType>> RR =
        repOfTypes(EU->arrow().Results, Bounds);
    if (!PR || !RR)
      return Error("bad exist.unpack types");
    TypeVarSizes BodyBounds;
    BodyBounds.push_back(H->sizeUpper());
    BodyBounds.insert(BodyBounds.end(), Bounds.begin(), Bounds.end());
    Expected<std::vector<ValType>> AR = repOfType(H->body(), BodyBounds);
    if (!AR)
      return Error("bad existential body shape");

    FuncLowering::Scratch PLs = stash(*PR, O);
    uint32_t Base = acquire(ValType::I32);
    O.push_back(WInst::idx(Op::LocalSet, Base));

    std::vector<WInst> BodyPre;
    unstash(*PR, PLs, BodyPre, /*Release=*/false);
    loadFromMem(Base, 0, *AR, BodyPre);
    if (Lin) {
      BodyPre.push_back(WInst::idx(Op::LocalGet, Base));
      BodyPre.push_back(WInst::idx(Op::Call, P.Out.Runtime.FreeFunc));
    }
    ++Depth;
    RichLabels.push_back(Depth);
    Expected<std::vector<WInst>> B = lowerSeq(EU->body());
    RichLabels.pop_back();
    --Depth;
    if (!B)
      return B.error();
    BodyPre.insert(BodyPre.end(), std::make_move_iterator(B->begin()),
                   std::make_move_iterator(B->end()));
    O.push_back(WInst::block({{}, *RR}, std::move(BodyPre)));
    releaseAll(*PR, PLs);
    if (!Lin) {
      FuncLowering::Scratch RLs = stash(*RR, O);
      O.push_back(WInst::idx(Op::LocalGet, Base));
      unstash(*RR, RLs, O);
    }
    release(ValType::I32, Base);
    return Status::success();
  }
  }
  return Error("unhandled instruction in lowering");
}

//===----------------------------------------------------------------------===//
// ProgramLowering implementation
//===----------------------------------------------------------------------===//

Expected<LoweredProgram> ProgramLowering::run() {
  // Pass 1: map every import through the caller's batch resolution
  // (link/Resolve.h) — the same provider selection, shadowing, and
  // canonical-pointer type checks as link::instantiate. Function imports
  // without an in-set provider become Wasm imports (host-satisfiable).
  if (Infos->size() != Mods.size())
    return Error("InfoMap hand-off does not match the module list");
  if (Resolved->size() != Mods.size())
    return Error("import resolution does not match the module list");

  struct PendingImport {
    uint32_t Mod, Func;
    ImportName Name;
  };
  std::vector<PendingImport> WasmImports;
  std::map<std::pair<uint32_t, uint32_t>, std::pair<uint32_t, uint32_t>>
      ResolvedTo;
  for (uint32_t MI = 0; MI < Mods.size(); ++MI) {
    const Module &M = *Mods[MI];
    const link::ResolvedModule &R = (*Resolved)[MI];
    size_t NextImp = 0;
    for (uint32_t FI = 0; FI < M.Funcs.size(); ++FI) {
      const Function &F = M.Funcs[FI];
      if (!F.isImport())
        continue;
      if (NextImp >= R.FuncImports.size())
        return Error("import resolution does not match module '" + M.Name +
                     "'");
      const auto &P = R.FuncImports[NextImp++];
      if (P.first == link::ResolvedModule::Unresolved)
        WasmImports.push_back({MI, FI, *F.Import});
      else
        ResolvedTo[{MI, FI}] = P;
    }
  }

  // Emit Wasm imports first (they occupy the low function indices).
  for (const PendingImport &PI : WasmImports) {
    const Function &F = Mods[PI.Mod]->Funcs[PI.Func];
    TypeVarSizes B = typing::typeVarSizes(typing::buildKindCtx(F.Ty->quants()));
    Expected<std::vector<ValType>> PR = repOfTypes(F.Ty->arrow().Params, B);
    Expected<std::vector<ValType>> RR = repOfTypes(F.Ty->arrow().Results, B);
    if (!PR || !RR)
      return Error("cannot lower host import signature");
    uint32_t TI = Out.Module.addType({*PR, *RR});
    FuncMap[{PI.Mod, PI.Func}] =
        static_cast<uint32_t>(Out.Module.ImportFuncs.size());
    Out.Module.ImportFuncs.push_back({PI.Name.Module, PI.Name.Name, TI});
  }

  // Runtime (allocator) functions come right after the imports.
  Out.Runtime = emitRuntime(Out.Module);

  // Assign indices for every defined function, module by module.
  uint32_t NextIdx = Out.Module.numFuncs();
  for (uint32_t MI = 0; MI < Mods.size(); ++MI) {
    const Module &M = *Mods[MI];
    for (uint32_t FI = 0; FI < M.Funcs.size(); ++FI)
      if (!M.Funcs[FI].isImport())
        FuncMap[{MI, FI}] = NextIdx++;
  }
  // Resolve cross-module imports to their providers' indices.
  for (auto &[Key, Provider] : ResolvedTo) {
    auto It = FuncMap.find(Provider);
    if (It == FuncMap.end())
      return Error("import resolves to an unlowered function");
    FuncMap[Key] = It->second;
  }

  // Table: concatenate all module tables, recording each slot's lowered
  // shape for the abstract call_indirect dispatch.
  for (uint32_t MI = 0; MI < Mods.size(); ++MI) {
    TableBase[MI] = static_cast<uint32_t>(Out.Module.TableElems.size());
    for (uint32_t E : Mods[MI]->Tab.Entries) {
      Out.Module.TableElems.push_back(FuncMap.at({MI, E}));
      const Function &F = Mods[MI]->Funcs[E];
      TypeVarSizes B =
          typing::typeVarSizes(typing::buildKindCtx(F.Ty->quants()));
      SlotShape Sh;
      for (const Type &T : F.Ty->arrow().Params) {
        Expected<std::vector<ValType>> R = repOfType(T, B);
        if (!R)
          return R.error();
        Sh.Sig.Params.insert(Sh.Sig.Params.end(), R->begin(), R->end());
        Sh.ParamReps.push_back(*R);
      }
      for (const Type &T : F.Ty->arrow().Results) {
        Expected<std::vector<ValType>> R = repOfType(T, B);
        if (!R)
          return R.error();
        Sh.Sig.Results.insert(Sh.Sig.Results.end(), R->begin(), R->end());
        Sh.ResultReps.push_back(*R);
      }
      TableShapes.push_back(std::move(Sh));
    }
  }

  // Globals.
  for (uint32_t MI = 0; MI < Mods.size(); ++MI) {
    const Module &M = *Mods[MI];
    size_t NextImp = 0;
    for (uint32_t GI = 0; GI < M.Globals.size(); ++GI) {
      const Global &G = M.Globals[GI];
      if (G.isImport()) {
        // Providers are earlier modules (resolution invariant), so their
        // GlobalMap entries already exist.
        if (NextImp >= (*Resolved)[MI].GlobalImports.size())
          return Error("import resolution does not match module '" + M.Name +
                       "'");
        GlobalMap[{MI, GI}] =
            GlobalMap.at((*Resolved)[MI].GlobalImports[NextImp++]);
        continue;
      }
      Expected<std::vector<ValType>> R =
          repOfPretype(G.P, TypeVarSizes{});
      if (!R)
        return R.error();
      uint32_t Base = static_cast<uint32_t>(Out.Module.Globals.size());
      Expected<std::vector<bool>> Mask =
          refMaskOfType(Type(G.P, Qual::unr()), TypeVarSizes{});
      if (!Mask)
        return Mask.error();
      uint32_t W = 0;
      for (ValType V : *R) {
        std::vector<WInst> Init;
        switch (V) {
        case ValType::I32:
          Init = {WInst::i32c(0)};
          if (W < Mask->size() && (*Mask)[W])
            Out.RefGlobals.push_back(
                static_cast<uint32_t>(Out.Module.Globals.size()));
          break;
        case ValType::I64:
          Init = {WInst::i64c(0)};
          break;
        case ValType::F32: {
          WInst C(Op::F32Const);
          Init = {C};
          break;
        }
        case ValType::F64: {
          WInst C(Op::F64Const);
          Init = {C};
          break;
        }
        }
        Out.Module.Globals.push_back({V, true, std::move(Init)});
        W += valTypeBytes(V) / 4;
      }
      GlobalMap[{MI, GI}] = {Base, *R};
    }
  }

  // Lower every defined function body. Given the frozen program maps
  // built above (FuncMap, TableBase, GlobalMap, TableShapes, Runtime) and
  // the read-only InfoMaps, bodies are independent of each other — they
  // never touch the module type table (call_indirect type indices are
  // patched in a later pass precisely so body lowering stays pure) — so
  // they lower (module, function)-parallel over the pool when one is
  // provided. Per-function results are then assembled strictly in
  // (module, function) index order: the lowered module is byte-identical
  // for any pool size, and the reported error is the lowest-indexed
  // failure — exactly what the sequential loop would have reported.
  struct FnWork {
    uint32_t Mod, Func;
  };
  struct FnResult {
    std::vector<ValType> PR, RR;
    std::vector<ValType> Locals;
    std::vector<WInst> Code;
    bool HasCallIndirect = false;
    Status S = Status::success();
  };
  std::vector<FnWork> Work;
  for (uint32_t MI = 0; MI < Mods.size(); ++MI)
    for (uint32_t FI = 0; FI < Mods[MI]->Funcs.size(); ++FI)
      if (!Mods[MI]->Funcs[FI].isImport())
        Work.push_back({MI, FI});
  std::vector<FnResult> Results(Work.size());
  // Lowest-index failure seen so far: tasks *above* it skip (their result
  // can never be reported), tasks at or below always run, so the error
  // the assembly loop reports is exactly the sequential one regardless of
  // pool scheduling — cancellation without losing determinism.
  std::atomic<size_t> FirstFail{SIZE_MAX};

  auto lowerOne = [&](size_t W) {
    if (W > FirstFail.load(std::memory_order_relaxed))
      return; // A lower-indexed body already failed; this one is dead.
    static obs::Counter FunctionsLowered("lower.functions_lowered");
    FunctionsLowered.inc();
    OBS_SPAN("lower_fn", Work[W].Mod, Work[W].Func);
    const uint32_t MI = Work[W].Mod, FI = Work[W].Func;
    const Module &M = *Mods[MI];
    const Function &F = M.Funcs[FI];
    FnResult &R = Results[W];
    typing::KindCtx Kinds = typing::buildKindCtx(F.Ty->quants());
    TypeVarSizes Bounds = typing::typeVarSizes(Kinds);
    Expected<std::vector<ValType>> PR =
        repOfTypes(F.Ty->arrow().Params, Bounds);
    Expected<std::vector<ValType>> RR =
        repOfTypes(F.Ty->arrow().Results, Bounds);
    if (!PR || !RR) {
      R.S = Error("cannot lower signature of function " +
                  std::to_string(FI) + " in '" + M.Name + "'");
      return;
    }

    FuncLowering FL(*this, MI, Bounds, *PR);
    // Word locals for every RichWasm local (params first).
    std::vector<WInst> Prologue;
    uint32_t ParamComp = 0;
    for (const Type &PT : F.Ty->arrow().Params) {
      Expected<std::vector<ValType>> Rep = FL.rep(PT);
      if (!Rep) {
        R.S = Rep.error();
        return;
      }
      const ir::Size *Slot = typing::sizeOfType(PT, Kinds);
      NormalSize NS = Slot->norm();
      if (!NS.isConst()) {
        R.S = Error("size-polymorphic parameter slots are unsupported");
        return;
      }
      uint32_t Words = static_cast<uint32_t>((NS.Const + 31) / 32);
      uint32_t Base =
          FL.NumParams + static_cast<uint32_t>(FL.ExtraLocals.size());
      for (uint32_t WJ = 0; WJ < Words; ++WJ)
        FL.ExtraLocals.push_back(ValType::I32);
      FL.RwLocalBase.push_back(Base);
      FL.RwLocalWords.push_back(Words);
      // Prologue: copy the natural parameter components into the words.
      for (uint32_t CJ = 0; CJ < Rep->size(); ++CJ)
        Prologue.push_back(WInst::idx(Op::LocalGet, ParamComp + CJ));
      FL.spillToWords(Base, *Rep, Prologue);
      ParamComp += static_cast<uint32_t>(Rep->size());
    }
    for (const ir::SizeRef &Sz : F.Locals) {
      NormalSize NS = normalizeSize(Sz);
      if (!NS.isConst()) {
        R.S = Error("size-polymorphic local slots are unsupported");
        return;
      }
      uint32_t Words = static_cast<uint32_t>((NS.Const + 31) / 32);
      uint32_t Base =
          FL.NumParams + static_cast<uint32_t>(FL.ExtraLocals.size());
      for (uint32_t WJ = 0; WJ < Words; ++WJ)
        FL.ExtraLocals.push_back(ValType::I32);
      FL.RwLocalBase.push_back(Base);
      FL.RwLocalWords.push_back(Words);
    }

    Expected<std::vector<WInst>> Body = FL.lowerSeq(F.Body);
    if (!Body) {
      R.S = Error("in function " + std::to_string(FI) + " of '" + M.Name +
                  "': " + Body.error().message());
      return;
    }
    std::vector<WInst> Full = std::move(Prologue);
    Full.insert(Full.end(), std::make_move_iterator(Body->begin()),
                std::make_move_iterator(Body->end()));
    R.PR = std::move(*PR);
    R.RR = std::move(*RR);
    R.Locals = std::move(FL.ExtraLocals);
    R.Code = std::move(Full);
    R.HasCallIndirect = FL.HasCallIndirect;
  };

  auto recordFailure = [&](size_t W) {
    if (Results[W].S)
      return;
    size_t Cur = FirstFail.load(std::memory_order_relaxed);
    while (W < Cur && !FirstFail.compare_exchange_weak(
                          Cur, W, std::memory_order_relaxed)) {
    }
  };

  if (Pool && Work.size() > 1) {
    // Workers replicate the calling thread's ambient arena: body lowering
    // interns (sizes, substituted types) and every borrowed view must
    // name the active arena (the debug assertion behind ir::TypeRef).
    TypeArena &Ambient = TypeArena::current();
    Pool->parallelFor(Work.size(), [&](size_t W) {
      ArenaScope Scope(Ambient);
      lowerOne(W);
      recordFailure(W);
    });
  } else {
    for (size_t W = 0; W < Work.size(); ++W) {
      lowerOne(W);
      if (!Results[W].S)
        break; // Sequential early-exit; later slots report unlowered.
    }
  }

  std::vector<uint32_t> NeedsIndirectPatch;
  for (size_t W = 0; W < Work.size(); ++W) {
    FnResult &R = Results[W];
    if (!R.S)
      return R.S.error();
    uint32_t TI = Out.Module.addType({R.PR, R.RR});
    if (R.HasCallIndirect)
      NeedsIndirectPatch.push_back(
          static_cast<uint32_t>(Out.Module.Funcs.size()));
    Out.Module.Funcs.push_back(
        {TI, std::move(R.Locals), std::move(R.Code)});
    assert(Out.Module.numFuncs() - 1 ==
               FuncMap.at({Work[W].Mod, Work[W].Func}) &&
           "function index assignment drifted");
  }

  // Global initializers and start functions run from __rw_init.
  std::vector<WInst> InitBody;
  for (uint32_t MI = 0; MI < Mods.size(); ++MI) {
    const Module &M = *Mods[MI];
    for (uint32_t GI = 0; GI < M.Globals.size(); ++GI) {
      const Global &G = M.Globals[GI];
      if (G.isImport() || G.Init.empty())
        continue;
      FuncLowering FL(*this, MI, TypeVarSizes{}, {});
      Expected<std::vector<WInst>> Code = FL.lowerSeq(G.Init);
      if (!Code)
        return Error("in global initializer of '" + M.Name + "': " +
                     Code.error().message());
      // Wrap as its own function so locals are private.
      auto [Base, Reps] = GlobalMap.at({MI, GI});
      std::vector<WInst> Body = std::move(*Code);
      for (size_t J = Reps.size(); J > 0; --J)
        Body.push_back(
            WInst::idx(Op::GlobalSet, Base + static_cast<uint32_t>(J - 1)));
      uint32_t TI = Out.Module.addType({{}, {}});
      uint32_t Idx = Out.Module.numFuncs();
      if (FL.HasCallIndirect)
        NeedsIndirectPatch.push_back(
            static_cast<uint32_t>(Out.Module.Funcs.size()));
      Out.Module.Funcs.push_back({TI, FL.ExtraLocals, std::move(Body)});
      InitBody.push_back(WInst::idx(Op::Call, Idx));
    }
  }
  for (uint32_t MI = 0; MI < Mods.size(); ++MI)
    if (Mods[MI]->Start)
      InitBody.push_back(
          WInst::idx(Op::Call, FuncMap.at({MI, *Mods[MI]->Start})));

  // Patch call_indirect type indices (they need module-level type
  // interning, which body lowering must not touch — that is what keeps
  // bodies pure for the parallel loop). Runs after *all* bodies exist —
  // function bodies and global initializers alike (previously the pass
  // ran before the initializers were lowered, so a call_indirect inside
  // one kept its placeholder type index) — and walks only the bodies
  // that actually emitted a call_indirect (flagged during lowering).
  {
    std::function<void(std::vector<WInst> &)> Fix =
        [&](std::vector<WInst> &Body) {
          for (WInst &W : Body) {
            if (W.K == Op::CallIndirect)
              W.U32 = Out.Module.addType(W.BT);
            Fix(W.Body);
            Fix(W.Else);
          }
        };
    for (uint32_t FIdx : NeedsIndirectPatch)
      Fix(Out.Module.Funcs[FIdx].Body.mut());
  }
  if (!InitBody.empty()) {
    uint32_t TI = Out.Module.addType({{}, {}});
    uint32_t Idx = Out.Module.numFuncs();
    Out.Module.Funcs.push_back({TI, {}, std::move(InitBody)});
    Out.Module.Start = Idx;
  }

  // Exports.
  for (uint32_t MI = 0; MI < Mods.size(); ++MI) {
    const Module &M = *Mods[MI];
    for (uint32_t FI = 0; FI < M.Funcs.size(); ++FI)
      for (const std::string &E : M.Funcs[FI].Exports) {
        uint32_t Idx = FuncMap.at({MI, FI});
        std::string Full;
        Full.reserve(M.Name.size() + 1 + E.size());
        Full += M.Name;
        Full += '.';
        Full += E;
        Out.Module.Exports.push_back(
            {std::move(Full), wasm::ExportKind::Func, Idx});
      }
  }
  return std::move(Out);
}

} // namespace

Expected<LoweredProgram>
rw::lower::lowerProgram(const std::vector<const Module *> &Mods,
                        const LowerOptions &Opts) {
  // Lowering working-state allocation seam: surfaces as a clean Lower-stage
  // rejection of the admission.
  if (RW_FAULT_POINT(rw::support::fault::Seam::LowerAlloc))
    return Error("injected allocation failure in lowerProgram");
  if (!Opts.Resolved)
    return Error("lowerProgram needs the import resolution hand-off "
                 "(LowerOptions::Resolved)");
  if (!Opts.Infos)
    return Error("lowerProgram needs the checker's InfoMap hand-off "
                 "(LowerOptions::Infos)");
  OBS_SPAN("lower", Mods.size());
  // Lowering consumes InfoMaps recorded over canonical nodes and rewrites
  // their types, so all modules of one program must share one arena —
  // enforce it, then intern everything the lowering builds into that
  // shared arena.
  std::optional<ir::ArenaScope> Scope;
  if (!Mods.empty() && Mods.front()->Arena) {
    const std::shared_ptr<ir::TypeArena> &Shared = Mods.front()->Arena;
    for (const Module *M : Mods)
      if (M->Arena && M->Arena.get() != Shared.get())
        return Error("modules '" + Mods.front()->Name + "' and '" + M->Name +
                     "' use different type arenas; lowered programs must "
                     "intern their types into one shared arena");
    Scope.emplace(*Shared);
  }
  ProgramLowering PL(Mods, Opts);
  return PL.run();
}
