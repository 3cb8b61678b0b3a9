//===- serial/Serial.h - RichWasm binary module format ----------*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A binary wire format for RichWasm IR modules (DESIGN.md §8), the
/// persistence layer under the admission cache and any on-disk module
/// registry: write() flattens a module into bytes, read() rebuilds it by
/// interning every type directly into a target arena — so a round trip
/// restores *canonical* types (pointer-identical to the originals when the
/// same arena is used, structurally identical otherwise).
///
/// Layout:
///
///   header   — magic "RWBM", format version (u32 LE), payload length
///              (u64 LE), FNV-1a checksum of the payload (u64 LE);
///   payload  — a type table followed by one module record, everything
///              varint (LEB128) encoded.
///
/// The type table is arena-aware: each interned Size/Pretype/HeapType/
/// FunType node reachable from the module is emitted exactly once, in
/// child-before-parent order, and every later occurrence (in other nodes
/// or in instructions) is a table index. Sizes are stored as their
/// +-normal form, so the encoding — like the arena — has one
/// representation per structural identity; serializing the same module
/// from two different arenas yields identical bytes.
///
/// read() is total on untrusted input: truncated streams, corrupt
/// headers, bad checksums, out-of-range indices/enums, and oversized
/// length fields all produce an Error, never a crash or an allocation
/// explosion.
///
/// moduleHash() is the admission-cache key (src/cache/): a 128-bit
/// content hash folding the arena's per-node Merkle hashes (stable
/// across arenas) with an instruction-stream walk, without serializing.
/// Two modules share a hash iff — modulo 128-bit collisions — they
/// serialize to the same bytes.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_SERIAL_SERIAL_H
#define RICHWASM_SERIAL_SERIAL_H

#include "ingest/Limits.h"
#include "ir/Module.h"
#include "support/Error.h"
#include "support/Hashing.h"

#include <cstdint>
#include <vector>

namespace rw::serial {

/// Format version of write(); read() rejects other versions.
constexpr uint32_t FormatVersion = 1;

/// Fixed-size header: magic (4) + version (4) + payload length (8) +
/// payload checksum (8).
constexpr size_t HeaderSize = 24;

/// Serializes \p M (name, functions, globals, table, start, and every
/// reachable type) into the wire format.
std::vector<uint8_t> write(const ir::Module &M);

/// Parses \p Bytes, interning all types into \p Arena (which becomes the
/// module's owning arena). Fails with a diagnostic on any malformed,
/// truncated, or corrupt input. The payload is parsed into a scratch
/// arena first, so a rejected input leaves \p Arena untouched.
Expected<ir::Module>
read(const std::vector<uint8_t> &Bytes,
     std::shared_ptr<ir::TypeArena> Arena = ir::TypeArena::globalPtr());

/// read() into a fresh arena the returned module owns alone, in a single
/// parse: no other holder can observe the arena, so a rejected input dies
/// with it and the scratch-arena probe would buy nothing. Same
/// diagnostics as read(). The ingestion front door's reader: on
/// rejection, \p ErrOut (when non-null) receives the failure's category
/// (Truncated, BadMagic, Unsupported or Malformed), the byte offset it
/// was found at (the header field's, or HeaderSize plus the payload
/// position), and the returned message as its context.
Expected<ir::Module> readPrivate(const std::vector<uint8_t> &Bytes,
                                 ingest::IngestError *ErrOut = nullptr);

/// 128-bit module content hash (see file comment). Stable across arenas
/// and process runs; independent of the interning order.
using ModuleHash = support::Hash128;

ModuleHash moduleHash(const ir::Module &M);

} // namespace rw::serial

#endif // RICHWASM_SERIAL_SERIAL_H
