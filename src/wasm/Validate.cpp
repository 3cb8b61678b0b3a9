//===- wasm/Validate.cpp - Wasm module validation --------------------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "wasm/Validate.h"

#include "obs/Obs.h"

using namespace rw;
using namespace rw::wasm;

namespace {

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

Status rw::wasm::validate(const WModule &M, uint32_t MaxOperandDepth) {
  OBS_SPAN("validate", M.Funcs.size());
  NoSink S;
  return walkModule(M, MaxOperandDepth, S);
}

Status rw::wasm::detail::checkDeclarations(const WModule &M) {
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
  return Status::success();
}

Status rw::wasm::detail::checkStart(const WModule &M) {
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

bool rw::wasm::provenIn(const WModule &M, const WFunc &F,
                        uint32_t MaxOperandDepth) {
  const SharedFunc *S = F.Body.shared();
  if (!S || !S->ProvenDepth || *S->ProvenDepth > MaxOperandDepth ||
      !M.Memory || M.Globals.size() < S->NumGlobals)
    return false;
  for (uint32_t G = 0; G < S->NumGlobals; ++G)
    if (M.Globals[G].T != ValType::I32 || !M.Globals[G].Mut)
      return false;
  return M.Types[F.TypeIdx] == S->Type && F.Locals == S->Locals;
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
