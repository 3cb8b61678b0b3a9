//===- wasm/Validate.h - Wasm module validation -----------------*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The standard WebAssembly validation algorithm (type-checking of function
/// bodies with structured control flow and multi-value blocks). Lowered
/// RichWasm modules are validated before execution and before encoding —
/// a lowering bug cannot silently produce an ill-typed Wasm module.
///
/// Each function body is walked once, without recursion: one typed operand
/// stack, plus a control frame per open block that records the stack height
/// below the block's params. The walk reports every instruction it accepts
/// to a sink. validate() passes NoSink; exec::translate passes the flat-code
/// emitter, so a module is validated and translated in the same walk
/// (DESIGN.md §5), and the emitter reads heights, label arities and branch
/// targets from the walk instead of deriving them again.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_WASM_VALIDATE_H
#define RICHWASM_WASM_VALIDATE_H

#include "support/Error.h"
#include "wasm/WasmAst.h"

#include <string>

namespace rw::wasm {

/// Validates a whole module under an operand-stack depth cap per function
/// (ingest::Limits::MaxOperandDepth; by default effectively uncapped).
/// Returns the first error found.
Status validate(const WModule &M, uint32_t MaxOperandDepth = ~uint32_t(0));

/// The smallest module a shared body's one-time work assumes: S's type,
/// S.NumGlobals mutable i32 globals, a memory, and S as its only
/// function.
WModule sharedEnvironment(const SharedFunc &S);

/// Whether \p F is a proven shared body (exec::proveShared) that \p M
/// supplies the proof's environment for (sharedEnvironment: same type and
/// locals, globals [0, S.NumGlobals) mutable i32, a memory), under a cap
/// no lower than the proof's depth. Walking it again would succeed, so
/// the walk offers it to the sink instead (Sink::adopt).
bool provenIn(const WModule &M, const WFunc &F, uint32_t MaxOperandDepth);

namespace detail {
/// Everything validate() checks outside function bodies, before them:
/// import and function-table indices, exports, memory limits, global
/// initializers.
Status checkDeclarations(const WModule &M);
/// The start function's index and type, checked after the bodies.
Status checkStart(const WModule &M);
} // namespace detail

/// A branch target as the walk sees it: the control frame's index from
/// the bottom (0 is the function body), the operand height below the
/// label's params, and the number of values a branch to it carries.
struct Label {
  uint32_t Frame;
  uint32_t Base;
  uint32_t Arity;
};

/// The sink of plain validation. A sink hears, in order, each accepted
/// instruction of a walked body; a height is the operand-stack height
/// (from the function's base) right after the instruction. Its hooks:
///   adopt(FI, S)       a proven shared body (provenIn); true = not walked
///   begin(FI, F)       a body's walk starts
///   data(I, Row, H)    a fixed-effect instruction (the rows without Dyn)
///   open(I)            block, loop or if: its frame is now the innermost
///   elseArm(I)         the if's then arm ended; its else arm (maybe
///                      empty) follows
///   close(H)           the innermost block, loop or if ended
///   br(L, H, Cond)     br, or br_if when Cond; H: the height before the
///                      label's values pop (after br_if's condition)
///   brTable(I, At)     At(D) gives the Label at relative depth D
///   ret(), call(I, H)  return; call or call_indirect
///   finish()           the body ended and type-checked
struct NoSink {
  bool adopt(uint32_t, const SharedFunc &) { return true; }
  void begin(uint32_t, const WFunc &) {}
  void data(const WInst &, const OpInfo &, uint32_t) {}
  void open(const WInst &) {}
  void elseArm(const WInst &) {}
  void close(uint32_t) {}
  void br(Label, uint32_t, bool) {}
  template <class LabelAt> void brTable(const WInst &, LabelAt) {}
  void ret() {}
  void call(const WInst &, uint32_t) {}
  void finish() {}
};

/// The walk of one function body at a time, under an operand-depth cap.
/// The cap and maxDepth() are block-relative: they count the values a
/// block has pushed over its base, params included. Code after an
/// instruction that never falls through (unreachable, br, br_table,
/// return) is skipped to the end of its block, nested blocks included.
template <class Sink> class FuncWalk {
public:
  FuncWalk(const WModule &M, uint32_t MaxOperandDepth, Sink &S)
      : M(M), S(S), Cap(MaxOperandDepth) {}

  /// Walks defined function \p FI of the module; its type index must be
  /// in range.
  Status run(uint32_t FI, const WFunc &F) {
    const FuncType &FT = M.Types[F.TypeIdx];
    Locals.assign(FT.Params.begin(), FT.Params.end());
    Locals.insert(Locals.end(), F.Locals.begin(), F.Locals.end());
    Results = &FT.Results;
    const std::vector<WInst> &Body = F.Body;
    S.begin(FI, F);
    Vals.clear();
    Frames.assign(1, Frame{nullptr, &Body, 0, 0, false, false});
    MaxDepth = 0;
    while (!Frames.empty()) {
      Frame &Top = Frames.back();
      if (Top.Unreachable || Top.Next == Top.Insts->size()) {
        if (Status St = end(); !St)
          return St;
        continue;
      }
      const WInst &I = (*Top.Insts)[Top.Next++];
      if (Status St = inst(I); !St)
        return St;
      // A block's own depth is checked when it ends, in its parent.
      if (opInfo(I.K).Imm != ImmKind::Structured)
        if (Status St = checkDepth(); !St)
          return St;
    }
    S.finish();
    return Status::success();
  }

  /// The deepest block-relative operand stack the last run() reached.
  uint32_t maxDepth() const { return MaxDepth; }

private:
  struct Frame {
    const WInst *Block; ///< The block, loop or if; null for the body.
    const std::vector<WInst> *Insts;
    size_t Next;
    uint32_t Base; ///< Operand height below the label's params.
    bool Unreachable;
    bool InElse;
  };

  /// The types a branch to the label at relative depth \p D carries; the
  /// caller checked the range.
  const std::vector<ValType> &labelTypes(uint32_t D) const {
    const Frame &F = Frames[Frames.size() - 1 - D];
    if (!F.Block)
      return *Results;
    const FuncType &BT = F.Block->bt();
    return F.Block->K == Op::Loop ? BT.Params : BT.Results;
  }

  uint32_t height() const { return static_cast<uint32_t>(Vals.size()); }
  uint32_t base() const { return Frames.back().Base; }

  Status popExpect(ValType Want, const char *What) {
    if (height() == base())
      return Error(std::string("stack underflow at ") + What);
    ValType Got = Vals.back();
    Vals.pop_back();
    if (Got != Want)
      return Error(std::string("type mismatch at ") + What + ": expected " +
                   valTypeName(Want) + ", found " + valTypeName(Got));
    return Status::success();
  }

  Status popMany(const std::vector<ValType> &Ts, const char *What) {
    for (size_t I = Ts.size(); I > 0; --I)
      if (Status St = popExpect(Ts[I - 1], What); !St)
        return St;
    return Status::success();
  }

  void pushMany(const std::vector<ValType> &Ts) {
    Vals.insert(Vals.end(), Ts.begin(), Ts.end());
  }

  /// The label at relative depth \p D; the caller checked the range.
  Label label(uint32_t D) const {
    uint32_t F = static_cast<uint32_t>(Frames.size()) - 1 - D;
    return {F, Frames[F].Base, static_cast<uint32_t>(labelTypes(D).size())};
  }

  Status checkLabel(uint32_t D, const char *What) const {
    if (D >= Frames.size())
      return Error(std::string(What) + ": label depth out of range");
    return Status::success();
  }

  Status checkDepth() {
    uint32_t D = height() - base();
    if (D > MaxDepth)
      MaxDepth = D;
    if (D > Cap)
      return Error("operand stack depth exceeds limit of " +
                   std::to_string(Cap));
    return Status::success();
  }

  /// The innermost sequence ended (or became unreachable): type-check its
  /// results, then start an if's else arm or close the frame.
  Status end() {
    Frame &F = Frames.back();
    const std::vector<ValType> &Out =
        F.Block ? F.Block->bt().Results : *Results;
    if (!F.Unreachable) {
      if (height() - F.Base != Out.size())
        return Error("block leaves " + std::to_string(height() - F.Base) +
                     " values, expected " + std::to_string(Out.size()));
      for (size_t I = 0; I < Out.size(); ++I)
        if (Vals[F.Base + I] != Out[I])
          return Error("block result type mismatch");
    }
    Vals.resize(F.Base);
    if (F.Block && F.Block->K == Op::If && !F.InElse) {
      S.elseArm(*F.Block);
      pushMany(F.Block->bt().Params);
      F = {F.Block, &F.Block->Else.insts(), 0, F.Base, false, true};
      return Status::success();
    }
    pushMany(Out);
    bool Body = !F.Block;
    Frames.pop_back();
    if (Body)
      return Status::success();
    S.close(height());
    return checkDepth();
  }

  Status inst(const WInst &I);
  Status data(const WInst &I);

  const WModule &M;
  Sink &S;
  uint32_t Cap;
  uint32_t MaxDepth = 0;
  std::vector<ValType> Locals;
  const std::vector<ValType> *Results = nullptr;
  std::vector<ValType> Vals;
  std::vector<Frame> Frames;
};

template <class Sink> Status FuncWalk<Sink>::inst(const WInst &I) {
  switch (I.K) {
  case Op::Block:
  case Op::Loop:
  case Op::If: {
    if (I.K == Op::If)
      if (Status St = popExpect(ValType::I32, "if"); !St)
        return St;
    const FuncType &BT = I.bt();
    if (Status St = popMany(BT.Params, I.K == Op::If ? "if" : "block"); !St)
      return St;
    Frames.push_back({&I, &I.Body.insts(), 0, height(), false, false});
    pushMany(BT.Params);
    S.open(I);
    return Status::success();
  }
  case Op::Br: {
    if (Status St = checkLabel(I.U32, "br"); !St)
      return St;
    Label L = label(I.U32);
    uint32_t H = height();
    if (Status St = popMany(labelTypes(I.U32), "br"); !St)
      return St;
    S.br(L, H, /*Conditional=*/false);
    Frames.back().Unreachable = true;
    return Status::success();
  }
  case Op::BrIf: {
    if (Status St = popExpect(ValType::I32, "br_if"); !St)
      return St;
    if (Status St = checkLabel(I.U32, "br_if"); !St)
      return St;
    Label L = label(I.U32);
    uint32_t H = height();
    const std::vector<ValType> &T = labelTypes(I.U32);
    if (Status St = popMany(T, "br_if"); !St)
      return St;
    pushMany(T);
    S.br(L, H, /*Conditional=*/true);
    return Status::success();
  }
  case Op::BrTable: {
    if (Status St = popExpect(ValType::I32, "br_table"); !St)
      return St;
    if (Status St = checkLabel(I.U32, "br_table"); !St)
      return St;
    const std::vector<ValType> &T = labelTypes(I.U32);
    if (Status St = popMany(T, "br_table"); !St)
      return St;
    for (uint32_t D : I.table())
      if (Status St = checkLabel(D, "br_table"); !St)
        return St;
    // Every target takes the values the default does.
    for (uint32_t D : I.table())
      if (labelTypes(D) != T)
        return Error("br_table: label types disagree");
    S.brTable(I, [this](uint32_t D) { return label(D); });
    Frames.back().Unreachable = true;
    return Status::success();
  }
  case Op::Return:
    if (Status St = popMany(*Results, "return"); !St)
      return St;
    S.ret();
    Frames.back().Unreachable = true;
    return Status::success();
  case Op::Call:
  case Op::CallIndirect: {
    const FuncType *FT;
    if (I.K == Op::Call) {
      if (I.U32 >= M.numFuncs())
        return Error("call: function index out of range");
      FT = &M.funcType(I.U32);
    } else {
      if (I.U32 >= M.Types.size())
        return Error("call_indirect: type index out of range");
      if (Status St = popExpect(ValType::I32, "call_indirect"); !St)
        return St;
      FT = &M.Types[I.U32];
    }
    if (Status St = popMany(FT->Params,
                            I.K == Op::Call ? "call" : "call_indirect");
        !St)
      return St;
    pushMany(FT->Results);
    S.call(I, height());
    return Status::success();
  }
  default:
    if (Status St = data(I); !St)
      return St;
    S.data(I, opInfo(I.K), height());
    return Status::success();
  }
}

/// The rows with a fixed stack effect. Drop, select, locals and globals
/// take their types from the operands or the index; the rest from the row.
template <class Sink> Status FuncWalk<Sink>::data(const WInst &I) {
  switch (I.K) {
  case Op::Unreachable:
    Frames.back().Unreachable = true;
    return Status::success();
  case Op::Nop:
    return Status::success();
  case Op::Drop:
    if (height() == base())
      return Error("drop: stack underflow");
    Vals.pop_back();
    return Status::success();
  case Op::Select: {
    if (Status St = popExpect(ValType::I32, "select"); !St)
      return St;
    if (height() - base() < 2)
      return Error("select: stack underflow");
    ValType A = Vals.back();
    Vals.pop_back();
    if (A != Vals.back())
      return Error("select: operand types disagree");
    return Status::success();
  }
  case Op::LocalGet:
    if (I.U32 >= Locals.size())
      return Error("local.get: index out of range");
    Vals.push_back(Locals[I.U32]);
    return Status::success();
  case Op::LocalSet:
    if (I.U32 >= Locals.size())
      return Error("local.set: index out of range");
    return popExpect(Locals[I.U32], "local.set");
  case Op::LocalTee:
    if (I.U32 >= Locals.size())
      return Error("local.tee: index out of range");
    if (Status St = popExpect(Locals[I.U32], "local.tee"); !St)
      return St;
    Vals.push_back(Locals[I.U32]);
    return Status::success();
  case Op::GlobalGet:
    if (I.U32 >= M.Globals.size())
      return Error("global.get: index out of range");
    Vals.push_back(M.Globals[I.U32].T);
    return Status::success();
  case Op::GlobalSet:
    if (I.U32 >= M.Globals.size())
      return Error("global.set: index out of range");
    if (!M.Globals[I.U32].Mut)
      return Error("global.set of immutable global");
    return popExpect(M.Globals[I.U32].T, "global.set");
  default: {
    // Memory, constants and numerics: the row fixes every type.
    const OpInfo &R = opInfo(I.K);
    if (R.usesMemory() && !M.Memory)
      return Error("memory instruction without a memory");
    for (uint8_t K = R.Pops; K > 0; --K)
      if (Status St = popExpect(R.In[K - 1], "operator"); !St)
        return St;
    if (R.Pushes)
      Vals.push_back(R.Out);
    return Status::success();
  }
  }
}

/// Validates module \p M under the operand-depth cap, reporting each body
/// to \p S: the declarations, then every defined function in order (a
/// proven shared body is offered to S.adopt instead), then the start
/// function. Errors inside a body name its function-space index.
template <class Sink>
Status walkModule(const WModule &M, uint32_t MaxOperandDepth, Sink &S) {
  if (Status St = detail::checkDeclarations(M); !St)
    return St;
  FuncWalk<Sink> W(M, MaxOperandDepth, S);
  for (uint32_t FI = 0; FI < M.Funcs.size(); ++FI) {
    const WFunc &F = M.Funcs[FI];
    if (F.TypeIdx >= M.Types.size())
      return Error("function type index out of range");
    if (provenIn(M, F, MaxOperandDepth) && S.adopt(FI, *F.Body.shared()))
      continue;
    if (Status St = W.run(FI, F); !St)
      return Error("in function " +
                   std::to_string(FI + M.ImportFuncs.size()) + ": " +
                   St.error().message());
  }
  return detail::checkStart(M);
}

} // namespace rw::wasm

#endif // RICHWASM_WASM_VALIDATE_H
