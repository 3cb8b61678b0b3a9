//===- ingest/Ingest.h - Hardened untrusted-ingestion front door -*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single entry point an admission server feeds raw untrusted bytes:
/// ingest::admit() sniffs the container magic, then runs the full
/// decode → validate → resolve → lower → translate → instantiate pipeline
/// under an explicit ingest::Limits resource policy. It is **total on
/// arbitrary bytes**: any input either yields a runnable AdmittedModule or
/// a structured IngestError (category + byte offset + context) — never a
/// crash, unbounded allocation, or unbounded recursion (DESIGN.md §12).
///
/// Two admissible containers:
///   * `\0asm` — a WebAssembly binary: wasm::decode under Limits,
///     wasm::validate with the operand-depth cap, then instantiation on
///     LinkOptions::Engine (flat translation included for Flat/Jit).
///   * `RWBM`  — a serialized RichWasm module (serial/), in stages:
///       1. with LinkOptions::Cache set, probe the cache under the *byte
///          key* — a per-process seeded hash of the input bytes and the
///          Limits fields this route enforces — and on a hit skip to
///          step 5;
///       2. serial::readPrivate into a private arena (a rejected admission
///          leaves zero residue in the process-wide arena by
///          construction), then the MaxFuncs/MaxGlobals/MaxElems limits;
///       3. typing::checkModule;
///       4. link::buildArtifact (resolve, lower, validate, translate),
///          stored under the byte key when a cache is set;
///       5. link::instantiateArtifact on the caller's engine.
///     Only bytes that passed steps 2-4 are ever stored, so a hit serves
///     a checked artifact (DESIGN.md §8).
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

/// A fully admitted module: the decoded artifact plus a ready instance.
/// Owns everything it hands out; safe to move across threads as a unit.
struct AdmittedModule {
  Route R = Route::Wasm;
  /// Low word of the unseeded support::hashBytes128 over the input bytes
  /// (both routes): a cheap identity for logs and the head-sampling key.
  /// The RichWasm route's cache key is a separate, per-process seeded
  /// pass with the enforced Limits folded in.
  uint64_t InputHash = 0;

  /// Wasm route: the decoded module (the instance borrows it).
  std::unique_ptr<wasm::WModule> WasmMod;
  std::unique_ptr<wasm::Instance> WasmInst;

  /// RichWasm route: the lowered program + instance. The parsed module is
  /// not kept — a cache hit never parses, and the artifact borrows
  /// nothing from it.
  link::LoweredInstance Lowered;

  /// The live instance, whichever route produced it.
  wasm::Instance *instance() {
    return R == Route::Wasm ? WasmInst.get() : Lowered.Instance.get();
  }

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
