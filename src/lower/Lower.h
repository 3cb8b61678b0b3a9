//===- lower/Lower.h - RichWasm → Wasm compiler -----------------*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The type-directed compiler of §6. It consumes the type information the
/// checker annotates onto each instruction (InfoMap) and the import
/// resolution, both handed over by link::buildArtifact (the one stage
/// that checks and resolves a program for lowering), and produces one
/// Wasm module for a whole linked program:
///
///  * all type-level instructions (qualify, cap.*, ref.*, mem.pack,
///    rec.fold/unfold, seq.group/ungroup, inst) are erased;
///  * a RichWasm local of size s becomes ⌈s/32⌉ i32 locals, read/written
///    with type-directed splitting and recombination;
///  * both RichWasm memories share one flat Wasm memory managed by the
///    emitted free-list allocator; object headers carry pointer maps for
///    the host-assisted collector;
///  * polymorphic calls perform the paper's stack coercions between
///    concrete and bound-word representations;
///  * cross-module imports are resolved to direct calls (whole-program),
///    unresolved ones become Wasm imports satisfiable by the host.
///
/// Invariant: each Inst node must occur at most once per program (the
/// InfoMap is keyed by node identity); all in-tree frontends comply.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_LOWER_LOWER_H
#define RICHWASM_LOWER_LOWER_H

#include "ir/Module.h"
#include "link/Resolve.h"
#include "lower/Runtime.h"
#include "support/Error.h"
#include "typing/Checker.h"
#include "wasm/WasmAst.h"

namespace rw::support {
class ThreadPool;
} // namespace rw::support

namespace rw::lower {

struct LoweredProgram {
  wasm::WModule Module;
  RuntimeLayout Runtime;
  /// Wasm global indices that hold heap references (GC roots).
  std::vector<uint32_t> RefGlobals;
};

/// The hand-off lowerProgram consumes from link::buildArtifact, the one
/// stage that resolves and type-checks a program for lowering.
struct LowerOptions {
  /// Import resolution (link/Resolve.h) of the module list. Required.
  const std::vector<link::ResolvedModule> *Resolved = nullptr;
  /// Per-module checker InfoMaps (typing::checkModule(M, &IM) or
  /// typing::checkModules(…, &Infos)) — same process, same instruction
  /// pointers (the map key is node identity). Required; size must match
  /// Mods. The maps hold borrowed TypeRefs: the modules' arena must stay
  /// alive for the duration of the call.
  const std::vector<typing::InfoMap> *Infos = nullptr;
  /// When set, function bodies are lowered (module, function)-parallel
  /// over this pool with deterministic index-ordered assembly: the lowered
  /// module is byte-identical for any pool size, and a failure reports the
  /// lowest-indexed failing function — exactly the sequential error.
  support::ThreadPool *Pool = nullptr;
};

/// Lowers a whole checked and resolved program (modules in link order;
/// imports resolve against earlier modules, like link::instantiate). It
/// neither checks nor resolves: a null LowerOptions::Resolved or Infos is
/// an error naming the missing hand-off. Callers lowering straight from
/// IR go through link::buildArtifact.
///
/// Function imports the resolution left open (ResolveOptions::
/// AllowUnresolvedFuncs) become Wasm imports satisfiable by the host.
Expected<LoweredProgram>
lowerProgram(const std::vector<const ir::Module *> &Mods,
             const LowerOptions &Opts);

} // namespace rw::lower

#endif // RICHWASM_LOWER_LOWER_H
