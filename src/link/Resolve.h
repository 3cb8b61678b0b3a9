//===- link/Resolve.h - Batch import resolution ----------------*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine-independent import-resolution phase of linking, split out of
/// link/Link.h so the RichWasm→Wasm lowering can consume a precomputed
/// Resolution instead of re-resolving imports itself (DESIGN.md §7):
/// link::instantiate and link::buildArtifact (whose resolution
/// lower::lowerProgram consumes) run imports through this one phase, so
/// provider selection, shadowing, and the canonical-pointer import/export
/// type check cannot drift between the reference and shipping paths.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_LINK_RESOLVE_H
#define RICHWASM_LINK_RESOLVE_H

#include "ir/Module.h"
#include "support/Error.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace rw::link {

/// How resolveImports matches imports against providers.
enum class ResolveMode : uint8_t {
  /// Reference path: each import linearly scans the earlier modules'
  /// export lists (latest provider wins). O(modules x exports) per
  /// import — kept as the baseline the batch index is benchmarked
  /// against (bench/fig3, BENCH_link.json).
  Sequential,
  /// Batch path: one cross-module export index, hashed on
  /// (module, name) and carrying the export's canonical type pointer in
  /// the entry, built incrementally in link order. Resolving N modules'
  /// imports is O(total imports + total exports) hash operations, and
  /// one probe both resolves an import and decides the import/export
  /// type check — a pointer comparison of the stored canonical type
  /// against the importer's declared type (DESIGN.md §7).
  Batch,
};

/// Import resolution for one module: the providing (module index,
/// function/global index) of every *imported* function (resp. global),
/// in declaration order. Defined entries are omitted — they trivially
/// resolve to themselves, and materializing them would make resolution
/// cost proportional to module size instead of import count.
struct ResolvedModule {
  /// Sentinel provider index: a function import with no in-set provider
  /// (only produced under ResolveOptions::AllowUnresolvedFuncs; the
  /// lowering turns these into Wasm host imports).
  static constexpr uint32_t Unresolved = 0xffffffffu;

  std::vector<std::pair<uint32_t, uint32_t>> FuncImports;
  std::vector<std::pair<uint32_t, uint32_t>> GlobalImports;
};

struct ResolveOptions {
  ResolveMode Mode = ResolveMode::Batch;
  /// Shipping-path semantics (link::buildArtifact): a function import no
  /// earlier module provides is not an error — it resolves to
  /// ResolvedModule::Unresolved and becomes a Wasm import satisfiable by
  /// the host. A *named* provider with a mismatched type is still an
  /// error, and global imports must always resolve.
  bool AllowUnresolvedFuncs = false;
};

/// The batch resolution phase of linking, engine-independent: resolves
/// every import of every module against the exports of *earlier* modules
/// (Wasm instantiation order; latest provider wins for a duplicated
/// export name), checking import/export type equality on canonical
/// pointers. Does not type-check module bodies, run initializers, or
/// build instances — instantiate() layers those on top. Fails on the
/// first unresolved or type-mismatched import, in (module, import) order
/// regardless of mode.
Expected<std::vector<ResolvedModule>>
resolveImports(const std::vector<const ir::Module *> &Mods,
               const ResolveOptions &Opts);

inline Expected<std::vector<ResolvedModule>>
resolveImports(const std::vector<const ir::Module *> &Mods,
               ResolveMode Mode = ResolveMode::Batch) {
  return resolveImports(Mods, ResolveOptions{Mode, false});
}

} // namespace rw::link

#endif // RICHWASM_LINK_RESOLVE_H
