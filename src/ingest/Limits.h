//===- ingest/Limits.h - Resource limits + ingestion error taxonomy -*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resource-limit policy and structured error taxonomy for the
/// untrusted-ingestion front door (DESIGN.md §12). This header is a leaf —
/// it depends only on the standard library — so the layers the front door
/// wraps (wasm::decode in particular) can enforce the limits without a
/// dependency cycle back into ingest/.
///
/// Limits are enforced *during* decode, before the corresponding
/// allocation happens: a count read from the wire is checked against both
/// its per-kind cap and the bytes remaining in its section (an N-element
/// vector needs at least N wire bytes), and every vector reservation is
/// charged against a total allocation budget. A hostile 60-byte module
/// claiming 2^32 locals is rejected after reading the count, not after
/// 16 GiB of push_backs.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_INGEST_LIMITS_H
#define RICHWASM_INGEST_LIMITS_H

#include <cstdint>
#include <string>

namespace rw::ingest {

/// Resource caps applied to one admission. The defaults are generous for
/// real modules (every bench/example workload fits with 100x headroom)
/// while bounding hostile amplification: no single admission can make the
/// decoder allocate more than MaxTotalAlloc bytes or recurse deeper than
/// MaxNestingDepth frames, whatever the input bytes claim.
struct Limits {
  /// Whole-module byte-size cap, checked before decoding starts.
  uint64_t MaxModuleBytes = 64ull << 20;
  /// Cap on the number of sections (custom sections included).
  uint32_t MaxSections = 64;
  uint32_t MaxTypes = 1u << 16;
  uint32_t MaxImports = 1u << 16;
  uint32_t MaxFuncs = 1u << 16;
  uint32_t MaxGlobals = 1u << 16;
  uint32_t MaxExports = 1u << 16;
  uint32_t MaxElems = 1u << 20;
  /// Per-function body size in bytes.
  uint64_t MaxBodyBytes = 8ull << 20;
  /// Per-function local count after RLE expansion.
  uint32_t MaxLocals = 1u << 16;
  /// Structured-control nesting depth (blocks/loops/ifs); bounds decoder
  /// and validator recursion.
  uint32_t MaxNestingDepth = 256;
  /// Validator operand-stack depth cap per function.
  uint32_t MaxOperandDepth = 1u << 16;
  /// Linear-memory size cap in 64 KiB pages (min and max clauses).
  uint32_t MaxMemoryPages = 1u << 16;
  /// Total bytes the decoder may allocate for one module (vectors, names,
  /// bodies). Charged before each reservation.
  uint64_t MaxTotalAlloc = 256ull << 20;

  /// A policy that never trips — for trusted in-process round-trips.
  static Limits unlimited() {
    Limits L;
    L.MaxModuleBytes = ~0ull;
    L.MaxSections = ~0u;
    L.MaxTypes = L.MaxImports = L.MaxFuncs = ~0u;
    L.MaxGlobals = L.MaxExports = L.MaxElems = ~0u;
    L.MaxBodyBytes = ~0ull;
    L.MaxLocals = ~0u;
    L.MaxNestingDepth = 1u << 14;
    L.MaxOperandDepth = ~0u;
    L.MaxMemoryPages = 1u << 16; // spec ceiling, not a policy knob
    L.MaxTotalAlloc = ~0ull;
    return L;
  }
};

/// What stage/class of failure rejected an admission. Categories are the
/// unit of obs accounting (`ingest.rejected.<token>`) and of operator
/// triage: Malformed/Truncated/BadMagic are hostile-or-corrupt bytes,
/// LimitExceeded is policy, Validate/Check/Link are semantic rejections of
/// well-formed bytes, and Resource is an induced environment failure.
enum class Category : uint8_t {
  None,          ///< No error (sentinel).
  TooLarge,      ///< Module bytes exceed Limits::MaxModuleBytes.
  BadMagic,      ///< Unrecognized container magic/version.
  Truncated,     ///< Input ends mid-structure.
  Malformed,     ///< Structurally invalid bytes (bad LEB, enum, count...).
  LimitExceeded, ///< A Limits cap tripped.
  Unsupported,   ///< Well-formed but outside the supported feature set.
  Validate,      ///< Validation (wasm::validate, exec::translate) failed.
  Check,         ///< typing::checkModule rejected the RichWasm module.
  Link,          ///< Import resolution failed, or an import admit cannot bind.
  Lower,         ///< RichWasm→Wasm lowering failed.
  Engine,        ///< Instance creation/initialization failed.
  Resource,      ///< Environment failure (allocation, mmap, ...).
};

inline const char *categoryName(Category C) {
  switch (C) {
  case Category::None:
    return "None";
  case Category::TooLarge:
    return "TooLarge";
  case Category::BadMagic:
    return "BadMagic";
  case Category::Truncated:
    return "Truncated";
  case Category::Malformed:
    return "Malformed";
  case Category::LimitExceeded:
    return "LimitExceeded";
  case Category::Unsupported:
    return "Unsupported";
  case Category::Validate:
    return "Validate";
  case Category::Check:
    return "Check";
  case Category::Link:
    return "Link";
  case Category::Lower:
    return "Lower";
  case Category::Engine:
    return "Engine";
  case Category::Resource:
    return "Resource";
  }
  return "?";
}

/// Lowercase token for metric names (`ingest.rejected.<token>`).
inline const char *categoryToken(Category C) {
  switch (C) {
  case Category::None:
    return "none";
  case Category::TooLarge:
    return "too_large";
  case Category::BadMagic:
    return "bad_magic";
  case Category::Truncated:
    return "truncated";
  case Category::Malformed:
    return "malformed";
  case Category::LimitExceeded:
    return "limit_exceeded";
  case Category::Unsupported:
    return "unsupported";
  case Category::Validate:
    return "validate";
  case Category::Check:
    return "check";
  case Category::Link:
    return "link";
  case Category::Lower:
    return "lower";
  case Category::Engine:
    return "engine";
  case Category::Resource:
    return "resource";
  }
  return "?";
}

/// Structured rejection: what class of failure, where in the input, and a
/// human-readable context string. Offset is the byte position the decoder
/// was at when it rejected (0 for post-decode stages, where byte offsets
/// no longer mean anything).
struct IngestError {
  Category Cat = Category::None;
  uint64_t Offset = 0;
  std::string Context;

  /// Renders "category @offset: context" for embedding in support::Error
  /// messages and logs.
  std::string render() const {
    std::string S = categoryName(Cat);
    S += " @";
    S += std::to_string(Offset);
    S += ": ";
    S += Context;
    return S;
  }
};

/// How a stage past the decoder reports a failure: category \p C, offset
/// 0 (byte offsets no longer mean anything there), and its message as the
/// context. No-op when \p ErrOut is null.
inline void reportStage(IngestError *ErrOut, Category C,
                        std::string Context) {
  if (ErrOut)
    *ErrOut = IngestError{C, 0, std::move(Context)};
}

} // namespace rw::ingest

#endif // RICHWASM_INGEST_LIMITS_H
