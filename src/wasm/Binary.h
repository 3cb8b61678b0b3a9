//===- wasm/Binary.h - Wasm binary encoder and decoder ----------*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The WebAssembly 1.0 binary format (with multi-value block types).
/// encode() produces a .wasm byte vector runnable by any engine; decode()
/// parses one back, enabling round-trip testing of the whole pipeline.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_WASM_BINARY_H
#define RICHWASM_WASM_BINARY_H

#include "ingest/Limits.h"
#include "support/Error.h"
#include "wasm/WasmAst.h"

namespace rw::wasm {

/// Serializes \p M to the binary format. Multi-value block types are
/// emitted as type-section references, so \p M is taken by value and its
/// type section may be extended internally.
std::vector<uint8_t> encode(WModule M);

/// Parses a binary module under the default ingest::Limits policy. Total
/// on arbitrary bytes: every read is bounds-checked, counts are validated
/// against remaining input before allocation, and recursion is
/// depth-capped (DESIGN.md §12).
Expected<WModule> decode(const std::vector<uint8_t> &Bytes);

/// Parses a binary module under an explicit resource-limit policy. On
/// rejection, \p ErrOut (when non-null) receives the structured error —
/// category, byte offset, context — that the returned Error renders.
Expected<WModule> decode(const std::vector<uint8_t> &Bytes,
                         const ingest::Limits &L,
                         ingest::IngestError *ErrOut = nullptr);

} // namespace rw::wasm

#endif // RICHWASM_WASM_BINARY_H
