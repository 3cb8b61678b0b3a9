//===- ingest/Ingest.h - Hardened untrusted-ingestion front door -*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single entry point an admission server feeds raw untrusted bytes.
/// ingest::admit() runs one staged pipeline under an explicit
/// ingest::Limits resource policy. It is **total on arbitrary bytes**:
/// any input either yields a runnable AdmittedModule or a structured
/// IngestError (category + byte offset + context) — never a crash,
/// unbounded allocation, or unbounded recursion (DESIGN.md §12). Each
/// stage reports the category of its own failures as data:
///
///   1. the MaxModuleBytes cap (TooLarge), then the container magic
///      (BadMagic): `\0asm` is a WebAssembly binary, `RWBM` a serialized
///      RichWasm module (serial/);
///   2. with LinkOptions::Cache set, probe the cache under the *byte key*
///      — a per-process seeded hash of the input bytes and every Limits
///      field — and on a hit skip to step 5;
///   3. the container's build stage:
///      * Wasm: wasm::decode under Limits (Truncated, Malformed,
///        LimitExceeded, Unsupported or Resource, at the byte offset),
///        then, under the operand-depth cap, exec::translate (Validate:
///        translation is validation's one walk). The artifact holds the
///        decoded module and no GC metadata.
///      * RWBM: serial::read into a fresh arena nobody else holds
///        (Truncated, BadMagic, Unsupported or Malformed; the one parse
///        may intern nodes before it fails, but they die with that arena,
///        so a rejected admission leaves no residue in the process-wide
///        arena), the
///        MaxFuncs/MaxGlobals/MaxElems limits (LimitExceeded),
///        typing::checkModule (Check), then link::buildArtifact: resolve
///        (Link), lower (Lower), validate and translate (Validate);
///   4. reject an artifact with an open function import (Link: admit
///      binds no host functions), else store it under the byte key when
///      a cache is set;
///   5. link::instantiateArtifact on the caller's engine (Engine).
///
/// Only bytes that passed steps 3 and 4 are ever stored, so a hit serves
/// a checked artifact that can be instantiated (DESIGN.md §8).
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_INGEST_INGEST_H
#define RICHWASM_INGEST_INGEST_H

#include "ingest/Limits.h"
#include "link/Link.h"
#include "support/Error.h"
#include "wasm/Instance.h"

#include <memory>

namespace rw::ingest {

/// Which container format an admission came in as.
enum class Route : uint8_t { Wasm, RichWasm };

inline const char *routeName(Route R) {
  return R == Route::Wasm ? "wasm" : "richwasm";
}

/// A fully admitted module: the artifact plus a ready instance. Owns
/// everything it hands out; safe to move across threads as a unit.
struct AdmittedModule {
  Route R = Route::Wasm;
  /// Low word of the unseeded support::hashBytes128 over the input bytes:
  /// a cheap identity for logs and the head-sampling key. The cache key
  /// is a separate, per-process seeded pass with the Limits folded in.
  uint64_t InputHash = 0;

  /// The artifact (on the Wasm route, the decoded module itself) and its
  /// instance. The parsed RichWasm module is not kept — a cache hit never
  /// parses, and the artifact borrows nothing from it.
  link::LoweredInstance Lowered;

  /// The live instance.
  wasm::Instance *instance() { return Lowered.Instance.get(); }

  /// Invokes an export by name. On the RichWasm route exports use the
  /// lowered "module.export" naming scheme.
  Expected<std::vector<wasm::WValue>>
  invoke(const std::string &Name, std::vector<wasm::WValue> Args,
         uint64_t MaxFuel = 1'000'000'000) {
    return instance()->invokeByName(Name, std::move(Args), MaxFuel);
  }
};

/// Admits \p Bytes under resource policy \p L and admission options
/// \p Opts. On rejection, \p ErrOut (when non-null) receives the
/// structured error the returned Error renders. Total on arbitrary bytes.
Expected<AdmittedModule> admit(const std::vector<uint8_t> &Bytes,
                               const Limits &L = Limits(),
                               const link::LinkOptions &Opts = {},
                               IngestError *ErrOut = nullptr);

} // namespace rw::ingest

#endif // RICHWASM_INGEST_INGEST_H
