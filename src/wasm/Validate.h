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
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_WASM_VALIDATE_H
#define RICHWASM_WASM_VALIDATE_H

#include "support/Error.h"
#include "wasm/WasmAst.h"

namespace rw::wasm {

/// Validates a whole module. Returns the first error found.
Status validate(const WModule &M);

/// Validates a whole module with an operand-stack depth cap per function
/// (ingest::Limits::MaxOperandDepth). The uncapped overload delegates here
/// with an effectively unlimited depth.
Status validate(const WModule &M, uint32_t MaxOperandDepth);

/// Validates a shared body once, from scratch, in the environment it
/// names (sharedEnvironment: its own type and locals, globals
/// [0, S.NumGlobals) as mutable i32, and a memory), and records the
/// deepest operand stack it reaches in S.ProvenDepth. validate() then skips that
/// body (by identity, WBody::shared()) in any module that supplies the
/// same environment under a cap no lower than that depth, and validates
/// it normally anywhere else. Bodies that call are rejected: call indices
/// are not the same across modules.
Status proveShared(SharedFunc &S);

/// The smallest module a shared body's one-time work assumes: S's type,
/// S.NumGlobals mutable i32 globals, a memory, and S as its only
/// function.
WModule sharedEnvironment(const SharedFunc &S);

} // namespace rw::wasm

#endif // RICHWASM_WASM_VALIDATE_H
