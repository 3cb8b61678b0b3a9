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

/// The flat-code emitter: the sink the validator's walk (wasm::FuncWalk)
/// drives, appending one FlatFunc to the module per body. The walk owns
/// heights, label arities and frame bases; the emitter keeps what only
/// code needs: the fusion state, each frame's patch list, and whether the
/// code it hears can run at all (Dead). Code the walk type-checks but no
/// path reaches (after a block whose body never falls out and that no
/// branch targets) emits nothing, nor do blocks begun there.
class Emitter {
public:
  Emitter(const WModule &M, FlatModule &FM) : M(M), FM(FM) {}

  /// A proven shared body: copy its flat code, unless this translation is
  /// profiled (the copy carries no FProfEnter/FProfLoop bumps).
  bool adopt(uint32_t FI, const SharedFunc &S) {
    if (FM.Profiled)
      return false;
    FlatFunc &F = FM.Funcs.emplace_back(frame(M, M.Funcs[FI]));
    F.Code = S.FlatCode;
    F.MaxDepth = S.FlatMaxDepth;
    return true;
  }

  void begin(uint32_t FI, const WFunc &F) {
    Out = &FM.Funcs.emplace_back(frame(M, F));
    // The implicit function-body label: branches to it land on the final
    // FReturn.
    Ctrl.assign(1, CtrlFrame(Op::Block, true));
    MaxHeight = 0;
    Dead = false;
    fence();
    ProfileIdx = FM.Profiled ? FM.NumImports + FI : UINT32_MAX;
    if (ProfileIdx != UINT32_MAX) {
      emit(FProfEnter);
      emit(ProfileIdx);
    }
  }

  /// The final FReturn, where the body's end is reachable: a body ending
  /// in unreachable or return (and no branch to its label) stops there.
  void finish() {
    if (!Dead || Ctrl.back().HadBr) {
      patchTo(Ctrl.back(), pc());
      emit(FReturn);
    }
    Out->MaxDepth = MaxHeight;
  }

  void data(const WInst &I, const OpInfo &R, uint32_t H);

  void open(const WInst &I) {
    Ctrl.emplace_back(I.K, !Dead);
    if (Dead)
      return;
    fence();
    CtrlFrame &F = Ctrl.back();
    if (I.K == Op::Loop) {
      F.At = pc();
      // The loop target points AT this bump, so it runs on fall-in entry
      // and on every back-branch: exactly the tree engine's loop-header
      // count.
      if (ProfileIdx != UINT32_MAX) {
        emit(FProfLoop);
        emit(ProfileIdx);
      }
    } else if (I.K == Op::If) {
      emit(FGotoIfZ);
      F.At = pc();
      emit(0);
    }
  }

  void elseArm(const WInst &I) {
    CtrlFrame &F = Ctrl.back();
    if (!F.Live)
      return;
    F.ThenDead = Dead;
    Dead = false;
    if (I.Else.empty()) {
      // The false path falls through to the end label.
      F.Patches.push_back(F.At);
      return;
    }
    if (!F.ThenDead) {
      // Skip the else arm when the then arm falls through.
      emit(FGoto);
      F.Patches.push_back(pc());
      emit(0);
    }
    Out->Code[F.At] = pc();
    fence();
  }

  void close(uint32_t H) {
    CtrlFrame F = std::move(Ctrl.back());
    Ctrl.pop_back();
    if (!F.Live)
      return; // Begun dead: stays dead.
    patchTo(F, pc());
    fence();
    // Back-branches never fall out downward, so reachability after a
    // loop is exactly its body's fall-through reachability.
    if (F.K != Op::Loop)
      Dead = F.ThenDead && Dead && !F.HadBr;
    grow(H);
  }

  /// A br, or a br_if (\p Conditional) from after its condition: a bare
  /// jump when the stack is already in shape at height \p H, else with
  /// its fix-up.
  void br(Label L, uint32_t H, bool Conditional) {
    if (Dead)
      return;
    fence();
    CtrlFrame &F = Ctrl[L.Frame];
    if (H == L.Base + L.Arity) {
      emit(Conditional ? FGotoIf : FGoto);
      emitTarget(F);
    } else {
      emit(Conditional ? FBrIf : FBr);
      emitTarget(F);
      emit(L.Arity);
      emit(L.Base);
    }
    Dead = !Conditional;
  }

  /// Every entry, default last, is a full triple for uniform decoding.
  template <class LabelAt> void brTable(const WInst &I, LabelAt At) {
    if (Dead)
      return;
    fence();
    emit(FBrTable);
    emit(static_cast<uint32_t>(I.table().size()));
    auto Entry = [&](Label L) {
      emitTarget(Ctrl[L.Frame]);
      emit(L.Arity);
      emit(L.Base);
    };
    for (uint32_t D : I.table())
      Entry(At(D));
    Entry(At(I.U32));
    Dead = true;
  }

  void ret() {
    if (Dead)
      return;
    fence();
    emit(FReturn);
    Dead = true;
  }

  void call(const WInst &I, uint32_t H) {
    if (Dead)
      return;
    fence();
    if (I.K == Op::CallIndirect) {
      emit(FCallIndirect);
      // Canonicalize so the runtime check is a single integer compare.
      emit(canonTypeId(M, I.U32));
    } else if (I.U32 < FM.NumImports) {
      emit(FCallHost);
      emit(I.U32);
    } else {
      emit(FCall);
      emit(I.U32 - FM.NumImports);
    }
    grow(H);
  }

private:
  struct CtrlFrame {
    CtrlFrame(Op K, bool Live) : K(K), Live(Live) {}
    Op K;
    bool Live;            ///< Begun in code that can run.
    bool HadBr = false;   ///< A branch targeted this label.
    bool ThenDead = true; ///< Ifs: the then arm does not fall through.
    /// Loops: the pc of the body start. Ifs: FGotoIfZ's target word.
    uint32_t At = 0;
    std::vector<uint32_t> Patches; ///< Target words to patch at `end`.
  };

  const WModule &M;
  FlatModule &FM;
  FlatFunc *Out = nullptr;
  std::vector<CtrlFrame> Ctrl;
  uint32_t MaxHeight = 0;
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

  uint32_t pc() const { return static_cast<uint32_t>(Out->Code.size()); }
  void emit(uint32_t W) { Out->Code.push_back(W); }
  void grow(uint32_t H) {
    if (H > MaxHeight)
      MaxHeight = H;
  }

  void patchTo(CtrlFrame &F, uint32_t Target) {
    for (uint32_t Pos : F.Patches)
      Out->Code[Pos] = Target;
    F.Patches.clear();
  }

  /// Emits the target word for a branch to \p F: the loop header, or a
  /// forward patch recorded on the frame.
  void emitTarget(CtrlFrame &F) {
    F.HadBr = true;
    if (F.K == Op::Loop) {
      emit(F.At);
    } else {
      F.Patches.push_back(pc());
      emit(0);
    }
  }
};

/// An instruction with a fixed stack effect, leaving height \p H: fused
/// into the previous instruction where a superinstruction covers the pair,
/// else emitted verbatim.
void Emitter::data(const WInst &I, const OpInfo &R, uint32_t H) {
  if (Dead)
    return;
  grow(H);
  switch (I.K) {
  case Op::Nop:
    return; // Erased: costs nothing at run time.
  case Op::Unreachable:
    fence();
    emit(static_cast<uint32_t>(Op::Unreachable));
    Dead = true;
    return;
  case Op::LocalGet:
    if (Last == Prev::Get) {
      // [get a][get b] → FGetGet a b
      Out->Code[PrevPos] = FGetGet;
      emit(I.U32);
      setLast(Prev::GetGet, PrevPos);
    } else {
      size_t P = Out->Code.size();
      emit(static_cast<uint32_t>(Op::LocalGet));
      emit(I.U32);
      setLast(Prev::Get, P);
    }
    return;
  case Op::LocalSet:
    if (Last == Prev::GetGetAdd)
      Out->Code[PrevPos] = FGetGetAddSet; // a b d
    else if (Last == Prev::GetConstAdd)
      Out->Code[PrevPos] = FGetConstAddSet; // a k d
    else if (Last == Prev::Get)
      Out->Code[PrevPos] = FMove; // a d
    else if (Last == Prev::Const)
      Out->Code[PrevPos] = FConstSet; // k d
    else
      break;
    emit(I.U32);
    fence();
    return;
  case Op::I32Const:
  case Op::F32Const:
    if (Last == Prev::Get) {
      // [get a][const k] → FGetConst a k
      Out->Code[PrevPos] = FGetConst;
      emit(static_cast<uint32_t>(I.U64));
      setLast(Prev::GetConst, PrevPos);
    } else {
      size_t P = Out->Code.size();
      emit(static_cast<uint32_t>(I.K));
      emit(static_cast<uint32_t>(I.U64));
      setLast(Prev::Const, P);
    }
    return;
  case Op::I32Add:
    if (Last == Prev::GetGet) {
      Out->Code[PrevPos] = FGetGetAdd;
      setLast(Prev::GetGetAdd, PrevPos);
      return;
    }
    if (Last == Prev::GetConst) {
      Out->Code[PrevPos] = FGetConstAdd;
      setLast(Prev::GetConstAdd, PrevPos);
      return;
    }
    break;
  case Op::I32Load:
    if (Last != Prev::Get)
      break;
    Out->Code[PrevPos] = FGetLoadI32; // a off
    emit(I.offset());
    fence();
    return;
  case Op::I32Store:
    if (Last == Prev::GetGet)
      Out->Code[PrevPos] = FGetGetStoreI32; // a b off
    else if (Last == Prev::GetConst)
      Out->Code[PrevPos] = FGetConstStoreI32; // a k off
    else
      break;
    emit(I.offset());
    fence();
    return;
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
    emit(I.offset());
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
}

/// Whether \p Body contains a call: a function index (or, for
/// call_indirect, a type index) means different things in different
/// modules, so such a body cannot be proven once for all of them.
bool hasCall(const std::vector<WInst> &Body) {
  for (const WInst &I : Body)
    if (I.K == Op::Call || I.K == Op::CallIndirect || hasCall(I.Body) ||
        hasCall(I.Else))
      return true;
  return false;
}

Expected<FlatModule> translateWith(const WModule &M, uint32_t MaxOperandDepth,
                                   bool Profile) {
  OBS_SPAN("translate", M.Funcs.size());
  static obs::Counter FuncsTranslated("exec.funcs_translated");

  FlatModule FM;
  FM.Source = &M;
  FM.NumImports = static_cast<uint32_t>(M.ImportFuncs.size());
  FM.Profiled = Profile;
  FM.Funcs.reserve(M.Funcs.size());
  Emitter E(M, FM);
  if (Status S = wasm::walkModule(M, MaxOperandDepth, E); !S)
    return S.error();

  // Canonical type id for every function-space index.
  for (const WImportFunc &Imp : M.ImportFuncs)
    FM.CanonType.push_back(canonTypeId(M, Imp.TypeIdx));
  for (const WFunc &F : M.Funcs)
    FM.CanonType.push_back(canonTypeId(M, F.TypeIdx));
  FuncsTranslated.add(M.Funcs.size());
  return FM;
}

} // namespace

Expected<FlatModule> rw::exec::translate(const WModule &M,
                                         uint32_t MaxOperandDepth) {
  return translateWith(M, MaxOperandDepth, false);
}

Expected<FlatModule> rw::exec::translate(const WModule &M,
                                         const TranslateOptions &TO) {
  return translateWith(M, ~uint32_t(0), TO.Profile);
}

Status rw::exec::proveShared(wasm::SharedFunc &S) {
  if (hasCall(S.Body))
    return Error("shared function bodies cannot call");
  // The flat code depends on the body's type (result count), its locals
  // (register count) and the globals it may touch. Shared bodies never
  // call, so no function or type index is baked in.
  WModule Env = wasm::sharedEnvironment(S);
  FlatModule FM;
  FM.Source = &Env;
  Emitter E(Env, FM);
  wasm::FuncWalk<Emitter> W(Env, ~uint32_t(0), E);
  if (Status St = W.run(0, Env.Funcs[0]); !St)
    return St;
  S.ProvenDepth = W.maxDepth();
  S.FlatCode = std::move(FM.Funcs[0].Code);
  S.FlatMaxDepth = FM.Funcs[0].MaxDepth;
  return Status::success();
}
