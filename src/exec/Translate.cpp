//===- exec/Translate.cpp - Wasm AST → flat bytecode ------------------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exec/Translate.h"

#include "obs/Obs.h"
#include "wasm/Validate.h"

using namespace rw;
using namespace rw::exec;
using namespace rw::wasm;

namespace {

/// Canonical type id: index of the first structurally equal entry in
/// M.Types. call_indirect's runtime check compares these, so every
/// producer of a canonical id must use this one definition.
uint32_t canonTypeId(const WModule &M, uint32_t TypeIdx) {
  for (uint32_t J = 0; J < TypeIdx; ++J)
    if (M.Types[J] == M.Types[TypeIdx])
      return J;
  return TypeIdx;
}

/// Translates one function body. Tracks the virtual operand height the
/// validator proved consistent, so every branch can be annotated with an
/// absolute target plus its stack fix-up.
class FuncTranslator {
public:
  /// \p ProfileIdx: function-space index to bump from the emitted
  /// FProfEnter/FProfLoop ops, or UINT32_MAX for no profiling.
  FuncTranslator(const WModule &M, const FlatModule &FM, FlatFunc &Out,
                 uint32_t ProfileIdx = UINT32_MAX)
      : M(M), FM(FM), Out(Out), Code(Out.Code), ProfileIdx(ProfileIdx) {}

  Status run(const WFunc &F) {
    const FuncType &FT = M.Types[F.TypeIdx];
    // The implicit function-body label: a block whose results are the
    // function results and whose branches land on the final FReturn.
    Ctrl.push_back({CtrlKind::Block, 0, 0,
                    static_cast<uint32_t>(FT.Results.size()), 0, {}, false});
    if (ProfileIdx != UINT32_MAX) {
      emit(FProfEnter);
      emit(ProfileIdx);
    }
    if (Status S = seq(F.Body); !S)
      return S;
    patchTo(Ctrl.back(), static_cast<uint32_t>(Code.size()));
    Ctrl.pop_back();
    emit(FReturn);
    Out.MaxDepth = MaxHeight;
    return Status::success();
  }

private:
  enum class CtrlKind : uint8_t { Block, Loop, If };

  struct CtrlFrame {
    CtrlKind K;
    uint32_t Base;    ///< Operand height just below the label's params.
    uint32_t Params;  ///< Label params (branch arity for loops).
    uint32_t Results; ///< Label results (branch arity for blocks/ifs).
    uint32_t LoopTarget = 0; ///< Loops: absolute pc of the body start.
    std::vector<uint32_t> Patches; ///< Target words to patch at `end`.
    bool HadBr = false; ///< A branch targeted this label.
  };

  const WModule &M;
  const FlatModule &FM;
  FlatFunc &Out;
  std::vector<uint32_t> &Code;
  std::vector<CtrlFrame> Ctrl;
  uint32_t Height = 0, MaxHeight = 0;
  uint32_t ProfileIdx = UINT32_MAX;
  bool Dead = false;

  /// Peephole state: what the previously emitted instruction was, for
  /// superinstruction fusion. Fusion is only legal within a basic
  /// block; fence() forgets the state at every point a label can bind.
  enum class Prev : uint8_t {
    None,
    Get,         ///< local.get a           (at PrevPos)
    Const,       ///< single-word const k
    GetGet,      ///< FGetGet a b
    GetConst,    ///< FGetConst a k
    GetGetAdd,   ///< FGetGetAdd a b
    GetConstAdd, ///< FGetConstAdd a k
  };
  Prev Last = Prev::None;
  size_t PrevPos = 0;

  void fence() { Last = Prev::None; }
  void setLast(Prev P, size_t Pos) {
    Last = P;
    PrevPos = Pos;
  }

  void emit(uint32_t W) { Code.push_back(W); }
  void push(uint32_t N) {
    Height += N;
    if (Height > MaxHeight)
      MaxHeight = Height;
  }
  Status pop(uint32_t N) {
    if (Height < N)
      return Error("flat translation: operand stack underflow");
    Height -= N;
    return Status::success();
  }

  void patchTo(CtrlFrame &F, uint32_t Target) {
    for (uint32_t Pos : F.Patches)
      Code[Pos] = Target;
    F.Patches.clear();
  }

  /// Label arity: what a branch to this frame keeps on the stack.
  static uint32_t arity(const CtrlFrame &F) {
    return F.K == CtrlKind::Loop ? F.Params : F.Results;
  }

  /// Emits the target word for a branch to \p F: the loop header, or a
  /// forward patch recorded on the frame.
  void emitTarget(CtrlFrame &F) {
    F.HadBr = true;
    if (F.K == CtrlKind::Loop) {
      emit(F.LoopTarget);
    } else {
      F.Patches.push_back(static_cast<uint32_t>(Code.size()));
      emit(0);
    }
  }

  /// Emits a branch to relative depth \p Depth. \p CondOp is FGotoIf /
  /// FBrIf for br_if, or 0 for an unconditional br. The virtual height
  /// must already account for a popped condition.
  Status emitBranch(uint32_t Depth, bool Conditional) {
    fence();
    if (Depth >= Ctrl.size())
      return Error("flat translation: branch depth out of range");
    CtrlFrame &F = Ctrl[Ctrl.size() - 1 - Depth];
    uint32_t Keep = arity(F);
    if (Height < F.Base + Keep)
      return Error("flat translation: branch below label height");
    if (Height == F.Base + Keep) {
      emit(Conditional ? FGotoIf : FGoto);
      emitTarget(F);
    } else {
      emit(Conditional ? FBrIf : FBr);
      emitTarget(F);
      emit(Keep);
      emit(F.Base);
    }
    return Status::success();
  }

  /// One br_table entry (always the full triple, for uniform decoding).
  Status emitTableEntry(uint32_t Depth) {
    fence();
    if (Depth >= Ctrl.size())
      return Error("flat translation: br_table depth out of range");
    CtrlFrame &F = Ctrl[Ctrl.size() - 1 - Depth];
    uint32_t Keep = arity(F);
    if (Height < F.Base + Keep)
      return Error("flat translation: br_table below label height");
    emitTarget(F);
    emit(Keep);
    emit(F.Base);
    return Status::success();
  }

  Status seq(const std::vector<WInst> &Body) {
    for (const WInst &I : Body) {
      if (Dead)
        return Status::success(); // Skip the unreachable tail.
      if (Status S = inst(I); !S)
        return S;
    }
    return Status::success();
  }

  Status inst(const WInst &I);
  Status control(const WInst &I);
  Status data(const WInst &I, const OpInfo &R);
};

Status FuncTranslator::inst(const WInst &I) {
  const OpInfo &R = opInfo(I.K);
  if (!R.Valid)
    return Error("flat translation: unhandled opcode");
  if (R.Pops == OpInfo::Dyn)
    return control(I);
  if (Status S = pop(R.Pops); !S)
    return S;
  if (Status S = data(I, R); !S)
    return S;
  push(R.Pushes);
  return Status::success();
}

/// Structured control, branches, return and calls: the Wasm rows whose
/// stack effect depends on a block type, a label or a function type.
Status FuncTranslator::control(const WInst &I) {
  switch (I.K) {
  case Op::Block: {
    fence();
    uint32_t P = static_cast<uint32_t>(I.BT.Params.size());
    uint32_t R = static_cast<uint32_t>(I.BT.Results.size());
    if (Status S = pop(P); !S)
      return S;
    Ctrl.push_back({CtrlKind::Block, Height, P, R, 0, {}, false});
    push(P);
    if (Status S = seq(I.Body); !S)
      return S;
    CtrlFrame F = std::move(Ctrl.back());
    Ctrl.pop_back();
    patchTo(F, static_cast<uint32_t>(Code.size()));
    fence();
    Dead = Dead && !F.HadBr;
    Height = F.Base + R;
    if (Height > MaxHeight)
      MaxHeight = Height;
    return Status::success();
  }
  case Op::Loop: {
    fence();
    uint32_t P = static_cast<uint32_t>(I.BT.Params.size());
    uint32_t R = static_cast<uint32_t>(I.BT.Results.size());
    if (Status S = pop(P); !S)
      return S;
    Ctrl.push_back({CtrlKind::Loop, Height, P, R,
                    static_cast<uint32_t>(Code.size()), {}, false});
    // The loop target recorded above points AT this bump, so it runs on
    // fall-in entry and on every back-branch — exactly the tree engine's
    // loop-header count.
    if (ProfileIdx != UINT32_MAX) {
      emit(FProfLoop);
      emit(ProfileIdx);
    }
    push(P);
    if (Status S = seq(I.Body); !S)
      return S;
    CtrlFrame F = std::move(Ctrl.back());
    Ctrl.pop_back();
    fence();
    // Back-branches never fall out downward, so reachability after the
    // loop is exactly the body's fall-through reachability.
    Height = F.Base + R;
    if (Height > MaxHeight)
      MaxHeight = Height;
    return Status::success();
  }
  case Op::If: {
    fence();
    if (Status S = pop(1); !S) // condition
      return S;
    uint32_t P = static_cast<uint32_t>(I.BT.Params.size());
    uint32_t R = static_cast<uint32_t>(I.BT.Results.size());
    if (Status S = pop(P); !S)
      return S;
    uint32_t Base = Height;
    emit(FGotoIfZ);
    uint32_t ElsePatch = static_cast<uint32_t>(Code.size());
    emit(0);
    Ctrl.push_back({CtrlKind::If, Base, P, R, 0, {}, false});
    push(P);
    if (Status S = seq(I.Body); !S)
      return S;
    bool ThenDead = Dead;
    Dead = false;
    CtrlFrame &F = Ctrl.back();
    bool ElseDead = true;
    if (!I.Else.empty()) {
      if (!ThenDead) {
        // Skip the else arm when the then arm falls through.
        emit(FGoto);
        F.Patches.push_back(static_cast<uint32_t>(Code.size()));
        emit(0);
      }
      Code[ElsePatch] = static_cast<uint32_t>(Code.size());
      fence();
      Height = Base;
      push(P);
      if (Status S = seq(I.Else); !S)
        return S;
      ElseDead = Dead;
      Dead = false;
    } else {
      // No else: the false path falls through to the end label.
      F.Patches.push_back(ElsePatch);
      ElseDead = false;
    }
    CtrlFrame Done = std::move(Ctrl.back());
    Ctrl.pop_back();
    patchTo(Done, static_cast<uint32_t>(Code.size()));
    fence();
    Dead = ThenDead && ElseDead && !Done.HadBr;
    Height = Base + R;
    if (Height > MaxHeight)
      MaxHeight = Height;
    return Status::success();
  }

  case Op::Br:
    if (Status S = emitBranch(I.U32, /*Conditional=*/false); !S)
      return S;
    Dead = true;
    return Status::success();
  case Op::BrIf:
    if (Status S = pop(1); !S)
      return S;
    return emitBranch(I.U32, /*Conditional=*/true);
  case Op::BrTable: {
    fence();
    if (Status S = pop(1); !S)
      return S;
    emit(FBrTable);
    emit(static_cast<uint32_t>(I.Table.size()));
    for (uint32_t Depth : I.Table)
      if (Status S = emitTableEntry(Depth); !S)
        return S;
    if (Status S = emitTableEntry(I.U32); !S) // default, last
      return S;
    Dead = true;
    return Status::success();
  }
  case Op::Return:
    fence();
    emit(FReturn);
    Dead = true;
    return Status::success();

  case Op::Call: {
    const FuncType &FT = M.funcType(I.U32);
    if (Status S = pop(static_cast<uint32_t>(FT.Params.size())); !S)
      return S;
    fence();
    if (I.U32 < FM.NumImports) {
      emit(FCallHost);
      emit(I.U32);
    } else {
      emit(FCall);
      emit(I.U32 - FM.NumImports);
    }
    push(static_cast<uint32_t>(FT.Results.size()));
    return Status::success();
  }
  case Op::CallIndirect: {
    if (I.U32 >= M.Types.size())
      return Error("flat translation: call_indirect type out of range");
    const FuncType &FT = M.Types[I.U32];
    if (Status S = pop(1 + static_cast<uint32_t>(FT.Params.size())); !S)
      return S;
    fence();
    emit(FCallIndirect);
    // Canonicalize so the runtime check is a single integer compare.
    emit(canonTypeId(M, I.U32));
    push(static_cast<uint32_t>(FT.Results.size()));
    return Status::success();
  }
  default:
    return Error("flat translation: unhandled opcode");
  }
}

/// An instruction with a fixed stack effect (the caller pops and pushes
/// its row's counts): fused into the previous instruction where a
/// superinstruction covers the pair, else emitted verbatim.
Status FuncTranslator::data(const WInst &I, const OpInfo &R) {
  if (R.Imm == ImmKind::Index) {
    uint32_t Limit = (I.K == Op::GlobalGet || I.K == Op::GlobalSet)
                         ? static_cast<uint32_t>(M.Globals.size())
                         : Out.NumRegs;
    if (I.U32 >= Limit)
      return Error("flat translation: local/global index out of range");
  }
  switch (I.K) {
  case Op::Nop:
    return Status::success(); // Erased: costs nothing at run time.
  case Op::Unreachable:
    fence();
    emit(static_cast<uint32_t>(Op::Unreachable));
    Dead = true;
    return Status::success();
  case Op::LocalGet:
    if (Last == Prev::Get) {
      // [get a][get b] → FGetGet a b
      Code[PrevPos] = FGetGet;
      emit(I.U32);
      setLast(Prev::GetGet, PrevPos);
    } else {
      size_t P = Code.size();
      emit(static_cast<uint32_t>(Op::LocalGet));
      emit(I.U32);
      setLast(Prev::Get, P);
    }
    return Status::success();
  case Op::LocalSet:
    if (Last == Prev::GetGetAdd)
      Code[PrevPos] = FGetGetAddSet; // a b d
    else if (Last == Prev::GetConstAdd)
      Code[PrevPos] = FGetConstAddSet; // a k d
    else if (Last == Prev::Get)
      Code[PrevPos] = FMove; // a d
    else if (Last == Prev::Const)
      Code[PrevPos] = FConstSet; // k d
    else
      break;
    emit(I.U32);
    fence();
    return Status::success();
  case Op::I32Const:
  case Op::F32Const:
    if (Last == Prev::Get) {
      // [get a][const k] → FGetConst a k
      Code[PrevPos] = FGetConst;
      emit(static_cast<uint32_t>(I.U64));
      setLast(Prev::GetConst, PrevPos);
    } else {
      size_t P = Code.size();
      emit(static_cast<uint32_t>(I.K));
      emit(static_cast<uint32_t>(I.U64));
      setLast(Prev::Const, P);
    }
    return Status::success();
  case Op::I32Add:
    if (Last == Prev::GetGet) {
      Code[PrevPos] = FGetGetAdd;
      setLast(Prev::GetGetAdd, PrevPos);
      return Status::success();
    }
    if (Last == Prev::GetConst) {
      Code[PrevPos] = FGetConstAdd;
      setLast(Prev::GetConstAdd, PrevPos);
      return Status::success();
    }
    break;
  case Op::I32Load:
    if (Last != Prev::Get)
      break;
    Code[PrevPos] = FGetLoadI32; // a off
    emit(I.Offset);
    fence();
    return Status::success();
  case Op::I32Store:
    if (Last == Prev::GetGet)
      Code[PrevPos] = FGetGetStoreI32; // a b off
    else if (Last == Prev::GetConst)
      Code[PrevPos] = FGetConstStoreI32; // a k off
    else
      break;
    emit(I.Offset);
    fence();
    return Status::success();
  default:
    break;
  }
  // Verbatim: the opcode, then its immediate as flat operand words (the
  // layout exec::flatOpInfo gives every Wasm row).
  emit(static_cast<uint32_t>(I.K));
  switch (R.Imm) {
  case ImmKind::Index:
    emit(I.U32);
    break;
  case ImmKind::Memarg:
    emit(I.Offset);
    break;
  case ImmKind::Const32:
    emit(static_cast<uint32_t>(I.U64));
    break;
  case ImmKind::Const64:
    emit(static_cast<uint32_t>(I.U64));
    emit(static_cast<uint32_t>(I.U64 >> 32));
    break;
  default:
    break;
  }
  fence();
  return Status::success();
}

/// A translated function's frame shape; the code comes after.
FlatFunc frame(const WModule &M, const WFunc &F) {
  const FuncType &FT = M.Types[F.TypeIdx];
  FlatFunc Out;
  Out.TypeIdx = F.TypeIdx;
  Out.NumParams = static_cast<uint32_t>(FT.Params.size());
  Out.NumRegs = Out.NumParams + static_cast<uint32_t>(F.Locals.size());
  Out.NumResults = static_cast<uint32_t>(FT.Results.size());
  return Out;
}

/// Whether \p F is a shared body whose flat code (pretranslateShared)
/// holds in \p M: same type and locals, and the globals it touches exist.
bool pretranslatedIn(const WModule &M, const WFunc &F) {
  const SharedFunc *S = F.Body.shared();
  return S && !S->FlatCode.empty() && M.Globals.size() >= S->NumGlobals &&
         M.Types[F.TypeIdx] == S->Type && F.Locals == S->Locals;
}

} // namespace

Expected<FlatModule> rw::exec::translate(const WModule &M) {
  return translate(M, TranslateOptions{});
}

Expected<FlatModule> rw::exec::translate(const WModule &M,
                                         const TranslateOptions &TO) {
  OBS_SPAN("translate", M.Funcs.size());
  static obs::Counter FuncsTranslated("exec.funcs_translated");

  FlatModule FM;
  FM.Source = &M;
  FM.NumImports = static_cast<uint32_t>(M.ImportFuncs.size());
  FM.Profiled = TO.Profile;

  // Canonical type id for every function-space index.
  for (const WImportFunc &Imp : M.ImportFuncs)
    FM.CanonType.push_back(canonTypeId(M, Imp.TypeIdx));
  for (const WFunc &F : M.Funcs)
    FM.CanonType.push_back(canonTypeId(M, F.TypeIdx));

  FM.Funcs.reserve(M.Funcs.size());
  for (uint32_t FI = 0; FI < M.Funcs.size(); ++FI) {
    const WFunc &F = M.Funcs[FI];
    if (F.TypeIdx >= M.Types.size())
      return Error("flat translation: function type out of range");
    FlatFunc Out = frame(M, F);
    if (!TO.Profile && pretranslatedIn(M, F)) {
      Out.Code = F.Body.shared()->FlatCode;
      Out.MaxDepth = F.Body.shared()->FlatMaxDepth;
    } else {
      FuncTranslator T(M, FM, Out,
                       TO.Profile ? FM.NumImports + FI : UINT32_MAX);
      if (Status S = T.run(F); !S)
        return S.error().addContext("function " + std::to_string(FI));
    }
    FM.Funcs.push_back(std::move(Out));
  }
  FuncsTranslated.add(M.Funcs.size());
  return FM;
}

Status rw::exec::pretranslateShared(wasm::SharedFunc &S) {
  // The flat code depends on the body's type (result count), its locals
  // (register count) and the globals it may touch. Shared bodies never
  // call, so no function or type index is baked in.
  WModule Env = wasm::sharedEnvironment(S);
  FlatModule FM;
  FM.Source = &Env;
  FlatFunc Out = frame(Env, Env.Funcs[0]);
  FuncTranslator T(Env, FM, Out);
  if (Status St = T.run(Env.Funcs[0]); !St)
    return St;
  S.FlatCode = std::move(Out.Code);
  S.FlatMaxDepth = Out.MaxDepth;
  return Status::success();
}
