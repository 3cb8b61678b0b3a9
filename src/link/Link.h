//===- link/Link.h - Multi-module linking and instantiation -----*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Linking is where RichWasm's cross-language guarantees bite: modules
/// compiled separately (say, from ML and from L3) are combined into one
/// store, and every import is checked against the provider's declared
/// export type with full structural equality of RichWasm types. A module
/// pair whose interaction would break memory safety — the Fig 1 / Fig 3
/// stash example — fails either module type checking or this signature
/// check; nothing unsafe ever reaches execution.
///
/// Instantiation follows Wasm: modules are instantiated in order, imports
/// resolve against earlier instances, global initializers run, then start
/// functions. The shipping path (instantiateLowered) lowers the program to
/// one Wasm module instead; its build stage, buildArtifact, is the one
/// place a program is resolved and type-checked for lowering.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_LINK_LINK_H
#define RICHWASM_LINK_LINK_H

#include "ingest/Limits.h"
#include "ir/Module.h"
#include "link/Resolve.h"
#include "lower/Lower.h"
#include "sem/Machine.h"
#include "support/Error.h"
#include "typing/Checker.h"
#include "wasm/Instance.h"

#include <memory>
#include <vector>

namespace rw::cache {
class AdmissionCache;
struct LoweredArtifact;
} // namespace rw::cache

namespace rw::support {
class ThreadPool;
} // namespace rw::support

namespace rw::link {

struct LinkOptions {
  /// Type-check every module before instantiation (the RichWasm
  /// guarantee); disable only for measuring raw instantiation cost.
  bool TypeCheck = true;
  /// Run global initializers and start functions.
  bool RunStart = true;
  /// Execution engine for the lowered path (instantiateLowered): the
  /// flat-bytecode engine (the default), the flat engine with eager
  /// tier-3 native compilation (Jit), or, on request only, the
  /// tree-walking reference interpreter tests compare against.
  wasm::EngineKind Engine = wasm::EngineKind::Flat;
  /// Tier-up threshold override for Flat/Jit instances (see
  /// exec::FlatInstance::setTierPolicy): 0 compiles every function at
  /// prepare(), N >= 1 tiers a function once its profile mass reaches N,
  /// FlatInstance::NeverTier disables tiering. Unset keeps the engine
  /// default (Jit tiers eagerly; Flat honors RW_JIT_THRESHOLD).
  std::optional<uint64_t> JitThreshold;
  /// Optional content-addressed admission cache (src/cache/). When set,
  /// instantiateLowered keys the whole link set by module content hashes
  /// (and ingest::admit keys RichWasm input by its bytes): a warm
  /// resubmission skips type checking, lowering, validation, and flat
  /// translation entirely and goes straight to instantiation of the
  /// cached artifact. Not owned; must outlive the call.
  cache::AdmissionCache *Cache = nullptr;
  /// Optional thread pool for the *cold* lowered path: batch checking
  /// runs function-parallel (typing::checkModules) and body lowering
  /// (module, function)-parallel (lower::LowerOptions::Pool), both with
  /// deterministic, pool-size-independent output. Not owned.
  support::ThreadPool *Pool = nullptr;
  /// Per-module InfoMaps from a check the caller already ran
  /// (ingest::admit checks a parsed module before building): the cold
  /// lowered path then performs *zero* further checkModule calls. Size
  /// must match the module list; the modules' arena must stay alive for
  /// the call (see Checker.h's InfoMap contract). Not owned.
  const std::vector<typing::InfoMap> *Infos = nullptr;
};

/// Links and instantiates \p Mods in order. The returned machine owns the
/// store; instance i corresponds to Mods[i]. Module pointers must outlive
/// the machine.
Expected<std::unique_ptr<sem::Machine>>
instantiate(const std::vector<const ir::Module *> &Mods,
            const LinkOptions &Opts = LinkOptions());

/// Finds the index of the function exporting \p Name in \p M, if any.
std::optional<uint32_t> findExport(const ir::Module &M,
                                   const std::string &Name);

/// The shipping path: a whole program linked, lowered to one Wasm
/// module, and instantiated on the engine selected by
/// LinkOptions::Engine. Holds the lowered module (the instance borrows
/// it) and the GC metadata the embedder needs to run collections.
/// Ownership is shared so an admission cache can hand the same lowered
/// artifact to many instances (and evict it while instances still run).
struct LoweredInstance {
  std::shared_ptr<const lower::LoweredProgram> Program;
  std::unique_ptr<wasm::Instance> Instance;

  /// Invokes "module.export" (the lowered export naming scheme).
  Expected<std::vector<wasm::WValue>>
  invokeExport(const std::string &Name, std::vector<wasm::WValue> Args,
               uint64_t MaxFuel = 1'000'000'000) {
    return Instance->invokeByName(Name, std::move(Args), MaxFuel);
  }
};

/// Type-checks, links, and lowers \p Mods (modules in link order, like
/// instantiate), then instantiates the lowered Wasm module on the
/// engine chosen in \p Opts. The stages: probe Opts.Cache under
/// cache::programKey, buildArtifact on a miss and store it, then
/// instantiateArtifact. The result borrows nothing from \p Mods.
Expected<LoweredInstance>
instantiateLowered(const std::vector<const ir::Module *> &Mods,
                   const LinkOptions &Opts = LinkOptions());

/// The build stage shared by both admission front doors
/// (instantiateLowered and ingest::admit), and the one place a program
/// is resolved and type-checked for lowering: batch resolve → check
/// (only when Opts.Infos hands over no InfoMaps; on Opts.Pool when set,
/// else module by module) → lower → validate and translate, in one walk.
/// Every artifact has that one shape, whatever Opts.Engine and Opts.Cache
/// say. The artifact is pure Wasm: it holds nothing from \p Mods or
/// their arena. On failure, \p ErrOut (when non-null) names the stage
/// that failed — Link, Check, Lower or Validate — with the returned
/// message as its context; an ill-typed module is Check whichever
/// options are set.
Expected<std::shared_ptr<const cache::LoweredArtifact>>
buildArtifact(const std::vector<const ir::Module *> &Mods,
              const LinkOptions &Opts,
              ingest::IngestError *ErrOut = nullptr);

/// The instantiation stage shared by both front doors: a fresh instance
/// of \p Art on Opts.Engine (Flat and Jit borrow the artifact's flat
/// translation; Tree walks its module), with Opts.JitThreshold and
/// Opts.RunStart applied.
Expected<LoweredInstance>
instantiateArtifact(std::shared_ptr<const cache::LoweredArtifact> Art,
                    const LinkOptions &Opts);

} // namespace rw::link

#endif // RICHWASM_LINK_LINK_H
