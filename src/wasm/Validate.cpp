//===- wasm/Validate.cpp - Wasm module validation --------------------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "wasm/Validate.h"

#include "obs/Obs.h"

#include <cassert>

using namespace rw;
using namespace rw::wasm;

namespace {

constexpr ValType I32 = ValType::I32;

/// Per-function validation context, recursing over the structured tree.
class FuncValidator {
public:
  FuncValidator(const WModule &M, std::vector<ValType> Locals,
                std::vector<ValType> Results, uint32_t MaxOperandDepth)
      : M(M), Locals(std::move(Locals)), Results(std::move(Results)),
        MaxOperandDepth(MaxOperandDepth) {}

  Status run(const std::vector<WInst> &Body) {
    Labels.push_back(Results); // The implicit function label.
    Status S = seq(Body, {}, Results);
    Labels.pop_back();
    return S;
  }

  /// The deepest operand stack the depth cap was checked against.
  uint32_t maxDepth() const { return MaxDepth; }

private:
  struct Stack {
    std::vector<ValType> Vals;
    bool Unreachable = false;
  };

  Status popExpect(Stack &St, ValType Want, const char *What) {
    if (St.Vals.empty()) {
      if (St.Unreachable)
        return Status::success();
      return Error(std::string("stack underflow at ") + What);
    }
    ValType Got = St.Vals.back();
    St.Vals.pop_back();
    if (Got != Want)
      return Error(std::string("type mismatch at ") + What + ": expected " +
                   valTypeName(Want) + ", found " + valTypeName(Got));
    return Status::success();
  }

  Status popMany(Stack &St, const std::vector<ValType> &Ts,
                 const char *What) {
    for (size_t I = Ts.size(); I > 0; --I)
      if (Status S = popExpect(St, Ts[I - 1], What); !S)
        return S;
    return Status::success();
  }

  Status seq(const std::vector<WInst> &Body, std::vector<ValType> In,
             const std::vector<ValType> &Out) {
    Stack St;
    St.Vals = std::move(In);
    for (const WInst &I : Body) {
      if (St.Unreachable && isStackPolymorphicBarrier(I.K)) {
        // Keep scanning for structural validity but skip type checking of
        // dead code (sound: never executed).
        continue;
      }
      if (St.Unreachable)
        continue;
      if (Status S = inst(I, St); !S)
        return S;
      if (St.Vals.size() > MaxDepth)
        MaxDepth = static_cast<uint32_t>(St.Vals.size());
      if (St.Vals.size() > MaxOperandDepth)
        return Error("operand stack depth exceeds limit of " +
                     std::to_string(MaxOperandDepth));
    }
    if (St.Unreachable)
      return Status::success();
    if (St.Vals.size() != Out.size())
      return Error("block leaves " + std::to_string(St.Vals.size()) +
                   " values, expected " + std::to_string(Out.size()));
    for (size_t I = 0; I < Out.size(); ++I)
      if (St.Vals[I] != Out[I])
        return Error("block result type mismatch");
    return Status::success();
  }

  static bool isStackPolymorphicBarrier(Op K) {
    return K == Op::Block || K == Op::Loop || K == Op::If;
  }

  Status brTarget(uint32_t D, Stack &St, const char *What) {
    if (D >= Labels.size())
      return Error(std::string(What) + ": label depth out of range");
    const std::vector<ValType> &T = Labels[Labels.size() - 1 - D];
    return popMany(St, T, What);
  }

  Status inst(const WInst &I, Stack &St) {
    switch (I.K) {
    case Op::Unreachable:
      St.Unreachable = true;
      return Status::success();
    case Op::Nop:
      return Status::success();
    case Op::Block:
    case Op::Loop: {
      if (Status S = popMany(St, I.BT.Params, "block"); !S)
        return S;
      Labels.push_back(I.K == Op::Loop ? I.BT.Params : I.BT.Results);
      Status S = seq(I.Body, I.BT.Params, I.BT.Results);
      Labels.pop_back();
      if (!S)
        return S;
      for (ValType T : I.BT.Results)
        St.Vals.push_back(T);
      return Status::success();
    }
    case Op::If: {
      if (Status S = popExpect(St, I32, "if"); !S)
        return S;
      if (Status S = popMany(St, I.BT.Params, "if"); !S)
        return S;
      Labels.push_back(I.BT.Results);
      Status S1 = seq(I.Body, I.BT.Params, I.BT.Results);
      Status S2 = seq(I.Else, I.BT.Params, I.BT.Results);
      Labels.pop_back();
      if (!S1)
        return S1;
      if (!S2)
        return S2;
      for (ValType T : I.BT.Results)
        St.Vals.push_back(T);
      return Status::success();
    }
    case Op::Br: {
      if (Status S = brTarget(I.U32, St, "br"); !S)
        return S;
      St.Unreachable = true;
      return Status::success();
    }
    case Op::BrIf: {
      if (Status S = popExpect(St, I32, "br_if"); !S)
        return S;
      if (I.U32 >= Labels.size())
        return Error("br_if: label depth out of range");
      const std::vector<ValType> &T = Labels[Labels.size() - 1 - I.U32];
      if (Status S = popMany(St, T, "br_if"); !S)
        return S;
      for (ValType V : T)
        St.Vals.push_back(V);
      return Status::success();
    }
    case Op::BrTable: {
      if (Status S = popExpect(St, I32, "br_table"); !S)
        return S;
      if (Status S = brTarget(I.U32, St, "br_table"); !S)
        return S;
      for (uint32_t D : I.Table)
        if (D >= Labels.size())
          return Error("br_table: label depth out of range");
      St.Unreachable = true;
      return Status::success();
    }
    case Op::Return: {
      if (Status S = popMany(St, Results, "return"); !S)
        return S;
      St.Unreachable = true;
      return Status::success();
    }
    case Op::Call: {
      if (I.U32 >= M.numFuncs())
        return Error("call: function index out of range");
      const FuncType &FT = M.funcType(I.U32);
      if (Status S = popMany(St, FT.Params, "call"); !S)
        return S;
      for (ValType T : FT.Results)
        St.Vals.push_back(T);
      return Status::success();
    }
    case Op::CallIndirect: {
      if (I.U32 >= M.Types.size())
        return Error("call_indirect: type index out of range");
      if (Status S = popExpect(St, I32, "call_indirect"); !S)
        return S;
      const FuncType &FT = M.Types[I.U32];
      if (Status S = popMany(St, FT.Params, "call_indirect"); !S)
        return S;
      for (ValType T : FT.Results)
        St.Vals.push_back(T);
      return Status::success();
    }
    case Op::Drop: {
      if (St.Vals.empty())
        return Error("drop: stack underflow");
      St.Vals.pop_back();
      return Status::success();
    }
    case Op::Select: {
      if (Status S = popExpect(St, I32, "select"); !S)
        return S;
      if (St.Vals.size() < 2)
        return Error("select: stack underflow");
      ValType A = St.Vals.back();
      St.Vals.pop_back();
      ValType B = St.Vals.back();
      St.Vals.pop_back();
      if (A != B)
        return Error("select: operand types disagree");
      St.Vals.push_back(A);
      return Status::success();
    }
    case Op::LocalGet: {
      if (I.U32 >= Locals.size())
        return Error("local.get: index out of range");
      St.Vals.push_back(Locals[I.U32]);
      return Status::success();
    }
    case Op::LocalSet: {
      if (I.U32 >= Locals.size())
        return Error("local.set: index out of range");
      return popExpect(St, Locals[I.U32], "local.set");
    }
    case Op::LocalTee: {
      if (I.U32 >= Locals.size())
        return Error("local.tee: index out of range");
      if (Status S = popExpect(St, Locals[I.U32], "local.tee"); !S)
        return S;
      St.Vals.push_back(Locals[I.U32]);
      return Status::success();
    }
    case Op::GlobalGet: {
      if (I.U32 >= M.Globals.size())
        return Error("global.get: index out of range");
      St.Vals.push_back(M.Globals[I.U32].T);
      return Status::success();
    }
    case Op::GlobalSet: {
      if (I.U32 >= M.Globals.size())
        return Error("global.set: index out of range");
      if (!M.Globals[I.U32].Mut)
        return Error("global.set of immutable global");
      return popExpect(St, M.Globals[I.U32].T, "global.set");
    }
    default: {
      // Memory, constants and numerics: the row fixes every type.
      const OpInfo &R = opInfo(I.K);
      if (R.usesMemory() && !M.Memory)
        return Error("memory instruction without a memory");
      for (uint8_t K = R.Pops; K > 0; --K)
        if (Status S = popExpect(St, R.In[K - 1], "operator"); !S)
          return S;
      if (R.Pushes)
        St.Vals.push_back(R.Out);
      return Status::success();
    }
    }
  }

  const WModule &M;
  std::vector<ValType> Locals;
  std::vector<ValType> Results;
  std::vector<std::vector<ValType>> Labels;
  uint32_t MaxOperandDepth;
  uint32_t MaxDepth = 0;
};

/// Whether \p F is a proven shared body (wasm::proveShared) that \p M
/// supplies the proof's environment for, under an operand-depth cap of
/// \p MaxOperandDepth: validating it again would succeed, so it is skipped.
bool provenIn(const WModule &M, const WFunc &F, uint32_t MaxOperandDepth) {
  const SharedFunc *S = F.Body.shared();
  if (!S || !S->ProvenDepth || *S->ProvenDepth > MaxOperandDepth ||
      !M.Memory || M.Globals.size() < S->NumGlobals)
    return false;
  for (uint32_t G = 0; G < S->NumGlobals; ++G)
    if (M.Globals[G].T != ValType::I32 || !M.Globals[G].Mut)
      return false;
  return M.Types[F.TypeIdx] == S->Type && F.Locals == S->Locals;
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

/// Validates one global initializer: exactly one constant instruction —
/// a const of the global's type, or global.get of an earlier immutable
/// global of the same type. This is what Instance::initialize evaluates,
/// so anything else would be silently misinitialized.
Status validateGlobalInit(const WModule &M, size_t GI) {
  const WGlobal &G = M.Globals[GI];
  if (G.Init.size() != 1)
    return Error("global " + std::to_string(GI) +
                 ": initializer must be a single constant instruction");
  const WInst &I = G.Init[0];
  ValType T;
  switch (I.K) {
  case Op::I32Const:
  case Op::I64Const:
  case Op::F32Const:
  case Op::F64Const:
    T = opInfo(I.K).Out;
    break;
  case Op::GlobalGet:
    if (I.U32 >= GI)
      return Error("global " + std::to_string(GI) +
                   ": initializer references global " +
                   std::to_string(I.U32) + " not defined before it");
    if (M.Globals[I.U32].Mut)
      return Error("global " + std::to_string(GI) +
                   ": initializer references mutable global");
    T = M.Globals[I.U32].T;
    break;
  default:
    return Error("global " + std::to_string(GI) +
                 ": non-constant initializer");
  }
  if (T != G.T)
    return Error("global " + std::to_string(GI) +
                 ": initializer type mismatch");
  return Status::success();
}

} // namespace

Status rw::wasm::validate(const WModule &M) {
  // Effectively uncapped: any depth a real module reaches is fine; the
  // ingest front door passes its policy's cap explicitly.
  return validate(M, ~uint32_t(0));
}

Status rw::wasm::validate(const WModule &M, uint32_t MaxOperandDepth) {
  OBS_SPAN("validate", M.Funcs.size());
  for (const WImportFunc &I : M.ImportFuncs)
    if (I.TypeIdx >= M.Types.size())
      return Error("import type index out of range");
  for (uint32_t E : M.TableElems)
    if (E >= M.numFuncs())
      return Error("table element out of range");
  for (const WExport &E : M.Exports) {
    if (E.Kind == ExportKind::Func && E.Idx >= M.numFuncs())
      return Error("exported function index out of range");
    if (E.Kind == ExportKind::Global && E.Idx >= M.Globals.size())
      return Error("exported global index out of range");
  }
  if (M.Memory) {
    constexpr uint32_t SpecMaxPages = 1u << 16; // 4 GiB of 64 KiB pages.
    uint32_t Min = M.Memory->first;
    if (Min > SpecMaxPages)
      return Error("memory min exceeds 65536 pages");
    if (M.Memory->second) {
      if (*M.Memory->second > SpecMaxPages)
        return Error("memory max exceeds 65536 pages");
      if (*M.Memory->second < Min)
        return Error("memory min exceeds max");
    }
  }
  for (size_t GI = 0; GI < M.Globals.size(); ++GI)
    if (Status S = validateGlobalInit(M, GI); !S)
      return S;

  for (size_t FI = 0; FI < M.Funcs.size(); ++FI) {
    const WFunc &F = M.Funcs[FI];
    if (F.TypeIdx >= M.Types.size())
      return Error("function type index out of range");
    if (provenIn(M, F, MaxOperandDepth))
      continue;
    const FuncType &FT = M.Types[F.TypeIdx];
    std::vector<ValType> Locals = FT.Params;
    Locals.insert(Locals.end(), F.Locals.begin(), F.Locals.end());
    FuncValidator V(M, std::move(Locals), FT.Results, MaxOperandDepth);
    if (Status S = V.run(F.Body); !S)
      return Error("in function " +
                   std::to_string(FI + M.ImportFuncs.size()) + ": " +
                   S.error().message());
  }
  // Checked after function types so funcType() below indexes safely.
  if (M.Start) {
    if (*M.Start >= M.numFuncs())
      return Error("start function index out of range");
    const FuncType &FT = M.funcType(*M.Start);
    if (!FT.Params.empty() || !FT.Results.empty())
      return Error("start function must have type [] -> []");
  }
  return Status::success();
}

WModule rw::wasm::sharedEnvironment(const SharedFunc &S) {
  WModule Env;
  Env.Types.push_back(S.Type);
  for (uint32_t G = 0; G < S.NumGlobals; ++G)
    Env.Globals.push_back({ValType::I32, true, {WInst::i32c(0)}});
  Env.Memory = {{1, std::nullopt}};
  Env.Funcs.push_back({0, S.Locals, WBody(S)});
  return Env;
}

Status rw::wasm::proveShared(SharedFunc &S) {
  if (hasCall(S.Body))
    return Error("shared function bodies cannot call");
  WModule Env = sharedEnvironment(S);
  std::vector<ValType> Locals = S.Type.Params;
  Locals.insert(Locals.end(), S.Locals.begin(), S.Locals.end());
  FuncValidator V(Env, std::move(Locals), S.Type.Results, ~uint32_t(0));
  if (Status St = V.run(S.Body); !St)
    return St;
  S.ProvenDepth = V.maxDepth();
  return Status::success();
}
