//===- link/Link.cpp - Multi-module linking and instantiation ------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "link/Link.h"

#include "cache/AdmissionCache.h"
#include "exec/Engine.h"
#include "ir/Print.h"
#include "obs/Obs.h"
#include "ir/TypeOps.h"
#include "support/ThreadPool.h"
#include "typing/Checker.h"

#include "support/FlatMap.h"
#include "support/Hashing.h"

#include <cstring>
#include <optional>
#include <unordered_map>

using namespace rw;
using namespace rw::link;
using sem::Closure;
using sem::Instance;
using sem::Machine;
using sem::Store;

std::optional<uint32_t> rw::link::findExport(const ir::Module &M,
                                             const std::string &Name) {
  for (uint32_t I = 0; I < M.Funcs.size(); ++I)
    for (const std::string &E : M.Funcs[I].Exports)
      if (E == Name)
        return I;
  return std::nullopt;
}

namespace {

using Provider = std::pair<uint32_t, uint32_t>;

/// Hash key of one export: the exporting module's name and the export
/// name, both borrowed from the module structures (which outlive the
/// link).
struct ExportKey {
  const std::string *Mod;
  const std::string *Name;

  bool operator==(const ExportKey &O) const {
    return *Mod == *O.Mod && *Name == *O.Name;
  }
};

/// Sampled string hash: length mixed with the first and last eight bytes.
/// Import resolution hashes two strings per probe, so full-content
/// hashing is the dominant cost of the batch path; sampling keeps probes
/// O(1)-ish in name length. Colliding names (same length, same ends) are
/// disambiguated by the full equality compare — a pathological bucket
/// degrades toward the sequential scan, never to a wrong resolution.
/// support::mix64 (murmur3's finalizer): full avalanche, so sampled
/// inputs whose entropy sits in a few bytes (shared prefixes, trailing
/// digits) still spread over the low bits a power-of-two table masks
/// with.
using support::mix64;

static uint64_t sampledHash(const std::string &S) {
  size_t N = S.size();
  uint64_t A = 0, B = 0;
  if (N >= 8) {
    std::memcpy(&A, S.data(), 8);
    std::memcpy(&B, S.data() + N - 8, 8);
  } else if (N > 0) {
    std::memcpy(&A, S.data(), N);
    B = A;
  }
  return mix64(A ^ (B * 0x9e3779b97f4a7c15ull) ^
               (N * 0xff51afd7ed558ccdull));
}

struct ExportKeyHash {
  size_t operator()(const ExportKey &K) const {
    return static_cast<size_t>(
        mix64(sampledHash(*K.Mod) ^
              (sampledHash(*K.Name) * 0x9e3779b97f4a7c15ull)));
  }
};

/// The cross-module export index of the batch resolution phase: one map
/// per namespace from (module, name) to (provider, canonical type node).
/// A single probe resolves an import *and* decides the cross-module type
/// check — the stored type is a canonical pointer, so the check is one
/// pointer comparison against the importer's declared type. (Folding the
/// type into the hash key instead was measured slower: it doubles the
/// string hashing on every add and needs a second name-only index to tell
/// "unresolved" from "type mismatch".) Insertion overwrites, so the
/// newest provider of a re-exported name wins — the same shadowing rule
/// as newest-first sequential scanning.
class ExportIndex {
public:
  struct Entry {
    Provider P;
    const void *Ty; ///< Canonical FunType* / Pretype* of the export.
  };

  /// Pre-sizes the hash tables for the whole link set, so incremental
  /// add() never rehashes mid-link.
  void reserve(size_t FuncExports, size_t GlobalExports) {
    Funcs.reserve(FuncExports);
    Globals.reserve(GlobalExports);
  }

  void add(uint32_t InstIdx, const ir::Module &M) {
    for (uint32_t I = 0; I < M.Funcs.size(); ++I)
      for (const std::string &E : M.Funcs[I].Exports)
        Funcs.insert_or_assign({&M.Name, &E},
                               Entry{{InstIdx, I}, M.Funcs[I].Ty.get()});
    for (uint32_t I = 0; I < M.Globals.size(); ++I)
      for (const std::string &E : M.Globals[I].Exports)
        Globals.insert_or_assign({&M.Name, &E},
                                 Entry{{InstIdx, I}, M.Globals[I].P.get()});
  }

  const Entry *findFunc(const ir::ImportName &N) const {
    return Funcs.find({&N.Module, &N.Name});
  }
  const Entry *findGlobal(const ir::ImportName &N) const {
    return Globals.find({&N.Module, &N.Name});
  }

private:
  // Open-addressed: std::unordered_map pays one node allocation per
  // export, which dominated the batch path's profile.
  using Map = support::FlatMap<ExportKey, Entry, ExportKeyHash>;

  Map Funcs, Globals;
};

/// The reference resolution: scan earlier modules' export lists, newest
/// first (so a re-exported name shadows an older provider, matching the
/// index's overwrite-on-add semantics).
std::optional<Provider> scanFunc(const std::vector<const ir::Module *> &Mods,
                                 uint32_t Before, const ir::ImportName &N) {
  for (uint32_t MI = Before; MI > 0; --MI) {
    const ir::Module &P = *Mods[MI - 1];
    if (P.Name != N.Module)
      continue;
    for (uint32_t FI = static_cast<uint32_t>(P.Funcs.size()); FI > 0; --FI)
      for (const std::string &E : P.Funcs[FI - 1].Exports)
        if (E == N.Name)
          return Provider{MI - 1, FI - 1};
  }
  return std::nullopt;
}

std::optional<Provider> scanGlobal(const std::vector<const ir::Module *> &Mods,
                                   uint32_t Before, const ir::ImportName &N) {
  for (uint32_t MI = Before; MI > 0; --MI) {
    const ir::Module &P = *Mods[MI - 1];
    if (P.Name != N.Module)
      continue;
    for (uint32_t GI = static_cast<uint32_t>(P.Globals.size()); GI > 0; --GI)
      for (const std::string &E : P.Globals[GI - 1].Exports)
        if (E == N.Name)
          return Provider{MI - 1, GI - 1};
  }
  return std::nullopt;
}

/// Shared arena guard: canonical-pointer type equality is only meaningful
/// within one arena, so cross-arena links are rejected with a directed
/// diagnostic rather than a puzzling "type mismatch".
template <class Node>
Status checkSameArena(const Node &ImpTy, const Node &ProvTy,
                      const ir::Module &M, const ir::Module &PM) {
  if (ImpTy.arena() && ProvTy.arena() && ImpTy.arena() != ProvTy.arena())
    return Error("modules '" + M.Name + "' and '" + PM.Name +
                 "' use different type arenas; linked modules must "
                 "intern their types into one shared arena");
  return Status::success();
}

} // namespace

Expected<std::vector<ResolvedModule>>
rw::link::resolveImports(const std::vector<const ir::Module *> &Mods,
                         const ResolveOptions &Opts) {
  OBS_SPAN("resolve", Mods.size());
  std::vector<ResolvedModule> Out;
  Out.reserve(Mods.size());
  ExportIndex Index;
  bool Batch = Opts.Mode == ResolveMode::Batch;
  if (Batch) {
    size_t FuncExports = 0, GlobalExports = 0;
    for (const ir::Module *M : Mods) {
      for (const ir::Function &F : M->Funcs)
        FuncExports += F.Exports.size();
      for (const ir::Global &G : M->Globals)
        GlobalExports += G.Exports.size();
    }
    Index.reserve(FuncExports, GlobalExports);
  }

  for (uint32_t Idx = 0; Idx < Mods.size(); ++Idx) {
    const ir::Module &M = *Mods[Idx];
    ResolvedModule R;

    for (uint32_t FI = 0; FI < M.Funcs.size(); ++FI) {
      const ir::Function &F = M.Funcs[FI];
      if (!F.isImport())
        continue;
      std::optional<Provider> P;
      if (Batch) {
        // One probe resolves and type-checks: the stored canonical
        // FunType* pointer-compares against the importer's declared type.
        if (const ExportIndex::Entry *E = Index.findFunc(*F.Import)) {
          if (E->Ty == F.Ty.get()) {
            R.FuncImports.push_back(E->P);
            continue;
          }
          P = E->P; // Name resolves; fall through to diagnose the type.
        }
      } else {
        P = scanFunc(Mods, Idx, *F.Import);
      }
      if (!P) {
        if (Opts.AllowUnresolvedFuncs) {
          // Shipping-path semantics: no in-set provider means the import
          // stays open, to be satisfied by the host after lowering.
          R.FuncImports.push_back(
              {ResolvedModule::Unresolved, ResolvedModule::Unresolved});
          continue;
        }
        return Error("unresolved import " + F.Import->Module + "." +
                     F.Import->Name + " in module '" + M.Name + "'");
      }
      // The cross-module safety check: declared import type must equal the
      // provider's declared export type. Types are hash-consed, so this is
      // a pointer comparison — valid because all linked modules intern
      // into one shared arena (ir::Module::Arena defaults to the
      // process-wide one).
      const ir::Module &PM = *Mods[P->first];
      const ir::FunTypeRef &ProvTy = PM.Funcs[P->second].Ty;
      if (Status S = checkSameArena(*F.Ty, *ProvTy, M, PM); !S)
        return S.error();
      if (!ir::funTypeEquals(*F.Ty, *ProvTy))
        return Error("import type mismatch for " + F.Import->Module + "." +
                     F.Import->Name + ": importer expects " +
                     ir::printFunType(*F.Ty) + " but provider exports " +
                     ir::printFunType(*ProvTy));
      R.FuncImports.push_back(*P);
    }

    for (uint32_t GI = 0; GI < M.Globals.size(); ++GI) {
      const ir::Global &G = M.Globals[GI];
      if (!G.isImport())
        continue;
      std::optional<Provider> P;
      if (Batch) {
        if (const ExportIndex::Entry *E = Index.findGlobal(*G.Import)) {
          if (E->Ty == G.P.get()) {
            R.GlobalImports.push_back(E->P);
            continue;
          }
          P = E->P;
        }
      } else {
        P = scanGlobal(Mods, Idx, *G.Import);
      }
      if (!P)
        return Error("unresolved global import " + G.Import->Module + "." +
                     G.Import->Name + " in module '" + M.Name + "'");
      const ir::Module &PM = *Mods[P->first];
      const ir::Global &PG = PM.Globals[P->second];
      if (Status S = checkSameArena(*G.P, *PG.P, M, PM); !S)
        return S.error();
      if (!ir::pretypeEquals(*G.P, *PG.P))
        return Error("global import type mismatch for " + G.Import->Module +
                     "." + G.Import->Name);
      R.GlobalImports.push_back(*P);
    }

    if (Batch)
      Index.add(Idx, M);
    Out.push_back(std::move(R));
  }
  return Out;
}

Expected<std::unique_ptr<Machine>>
rw::link::instantiate(const std::vector<const ir::Module *> &Mods,
                      const LinkOptions &Opts) {
  // Phase 1: type-check every module in isolation (the paper's per-module
  // judgment; problematic interactions already fail here when a module's
  // declared imports are unsatisfiable).
  if (Opts.TypeCheck)
    for (const ir::Module *M : Mods)
      if (Status S = typing::checkModule(*M); !S)
        return Error("module '" + M->Name + "': " + S.error().message());

  // Phase 2a: the batch resolution phase — every import of every module
  // mapped to its provider (with the canonical-type equality check) before
  // any instance state exists.
  Expected<std::vector<ResolvedModule>> Resolved =
      resolveImports(Mods);
  if (!Resolved)
    return Resolved.error();

  auto Mach = std::make_unique<Machine>(Store{});
  Store &S = Mach->store();

  // Phase 2b: build instances from the resolution.
  for (uint32_t Idx = 0; Idx < Mods.size(); ++Idx) {
    const ir::Module &M = *Mods[Idx];
    const ResolvedModule &R = (*Resolved)[Idx];
    Instance Inst;
    Inst.Mod = &M;

    size_t NextF = 0, NextG = 0;
    for (uint32_t FI = 0; FI < M.Funcs.size(); ++FI)
      if (M.Funcs[FI].isImport()) {
        const auto &[PMod, PIdx] = R.FuncImports[NextF++];
        Inst.Funcs.push_back({PMod, PIdx});
      } else {
        Inst.Funcs.push_back({Idx, FI});
      }

    for (uint32_t GI = 0; GI < M.Globals.size(); ++GI)
      if (M.Globals[GI].isImport()) {
        const auto &[PMod, PIdx] = R.GlobalImports[NextG++];
        Inst.Globals.push_back(S.Insts[PMod].Globals[PIdx]);
      } else {
        Inst.Globals.push_back(sem::Value::unit());
      }

    for (uint32_t TE : M.Tab.Entries) {
      if (TE >= Inst.Funcs.size())
        return Error("table entry out of range in module '" + M.Name + "'");
      Inst.Table.push_back(Inst.Funcs[TE]);
    }

    S.Insts.push_back(std::move(Inst));
  }

  if (!Opts.RunStart)
    return Mach;

  // Phase 3: run global initializers, then start functions, in module
  // order.
  for (uint32_t Idx = 0; Idx < Mods.size(); ++Idx) {
    const ir::Module &M = *Mods[Idx];
    for (uint32_t GI = 0; GI < M.Globals.size(); ++GI) {
      const ir::Global &G = M.Globals[GI];
      if (G.isImport() || G.Init.empty())
        continue;
      Mach->setupProgram(Idx, G.Init);
      Expected<std::vector<sem::Value>> R = Mach->run();
      if (!R)
        return Error("global initializer failed in module '" + M.Name +
                     "': " + R.error().message());
      if (R->size() != 1)
        return Error("global initializer must produce exactly one value");
      S.Insts[Idx].Globals[GI] = (*R)[0];
    }
  }
  for (uint32_t Idx = 0; Idx < Mods.size(); ++Idx) {
    const ir::Module &M = *Mods[Idx];
    if (!M.Start)
      continue;
    Expected<std::vector<sem::Value>> R = Mach->invoke(Idx, *M.Start, {}, {});
    if (!R)
      return Error("start function failed in module '" + M.Name +
                   "': " + R.error().message());
  }
  return Mach;
}

Expected<LoweredInstance>
rw::link::instantiateLowered(const std::vector<const ir::Module *> &Mods,
                             const LinkOptions &Opts) {
  // Head sampling for direct callers: inside ingest::admit the thread
  // already carries the admission's sampling decision; a bare
  // instantiateLowered with a cache gets its own deterministic decision
  // from the program content key (same modules → same decision, any
  // thread or pool size). Declared before OBS_SPAN so the scope outlives
  // the span's destructor-time recording check; set once the key exists.
  std::optional<obs::TraceSampleScope> SampleScope;
  // Umbrella span for the whole admission, keying included (the
  // per-phase spans nest inside it in the trace).
  OBS_SPAN("admission", Mods.size());
  // Warm path: the whole link set is content-addressed; a hit skips
  // checking, resolution, lowering, validation, and flat translation.
  serial::ModuleHash Key;
  std::shared_ptr<const cache::LoweredArtifact> Art;
  if (Opts.Cache) {
    Key = cache::programKey(Mods);
    if (!obs::traceSampleActive())
      SampleScope.emplace(obs::traceSampleSelect(Key.Hi ^ Key.Lo));
    Art = Opts.Cache->lookupProgram(Key);
  }
  if (!Art) {
    Expected<std::shared_ptr<const cache::LoweredArtifact>> Built =
        buildArtifact(Mods, Opts);
    if (!Built)
      return Built.error();
    Art = Built.take();
    if (Opts.Cache)
      Opts.Cache->storeProgram(Key, Art);
  }
  return instantiateArtifact(std::move(Art), Opts);
}

Expected<std::shared_ptr<const cache::LoweredArtifact>>
rw::link::buildArtifact(const std::vector<const ir::Module *> &Mods,
                        const LinkOptions &Opts, ingest::IngestError *ErrOut) {
  using ingest::Category;
  auto Fail = [ErrOut](Category C, Error E) {
    ingest::reportStage(ErrOut, C, E.message());
    return E;
  };
  // The one stage that resolves and type-checks a program for lowering;
  // lowerProgram consumes both results and does neither itself. The
  // import-resolution phase is shared with instantiate()
  // (link/Resolve.h): the batch index decides providers, shadowing, and
  // the canonical-pointer import type checks. The check runs exactly
  // once — here, or in a caller that hands its InfoMaps over
  // (Opts.Infos) — and records the per-module InfoMaps (the type
  // information §6's compiler consumes). With a pool, checking is
  // function-parallel and body lowering (module, function)-parallel —
  // both deterministic for any pool size.
  Expected<std::vector<ResolvedModule>> Resolved =
      resolveImports(Mods, ResolveOptions{ResolveMode::Batch,
                                          /*AllowUnresolvedFuncs=*/true});
  if (!Resolved)
    return Fail(Category::Link, Resolved.error());
  std::vector<typing::InfoMap> OwnInfos;
  const std::vector<typing::InfoMap> *Infos = Opts.Infos;
  if (Infos) {
    if (Infos->size() != Mods.size())
      return Fail(Category::Check,
                  Error("InfoMap hand-off does not match the module list"));
  } else {
    // Without a pool, modules are checked in order and the first failure
    // stops the check; either way the lowest-indexed failure is reported.
    std::vector<Status> Batch;
    if (Opts.Pool)
      Batch = typing::checkModules(Mods, *Opts.Pool, &OwnInfos);
    else
      OwnInfos.resize(Mods.size());
    for (size_t I = 0; I < Mods.size(); ++I) {
      Status S = Opts.Pool ? std::move(Batch[I])
                           : typing::checkModule(*Mods[I], &OwnInfos[I]);
      if (!S)
        return Fail(Category::Check, Error("module '" + Mods[I]->Name +
                                           "': " + S.error().message()));
    }
    Infos = &OwnInfos;
  }
  lower::LowerOptions LO;
  LO.Resolved = &*Resolved;
  LO.Infos = Infos;
  LO.Pool = Opts.Pool;
  Expected<lower::LoweredProgram> LP = lower::lowerProgram(Mods, LO);
  if (!LP)
    return Fail(Category::Lower, LP.error());
  auto A = std::make_shared<cache::LoweredArtifact>();
  A->Program = LP.take();
  // Every lowered module is translated before it runs or is stored, and
  // translation validates in the same walk, so every artifact, cached or
  // not, is a validated module plus the code every engine but Tree runs.
  Expected<exec::FlatModule> FM = exec::translate(A->Program.Module);
  if (!FM)
    return Fail(Category::Validate,
                FM.error().addContext("lowered module validation"));
  A->Flat = FM.take();
  return std::shared_ptr<const cache::LoweredArtifact>(std::move(A));
}

Expected<LoweredInstance> rw::link::instantiateArtifact(
    std::shared_ptr<const cache::LoweredArtifact> Art,
    const LinkOptions &Opts) {
  OBS_SPAN("instantiate");
  std::unique_ptr<wasm::Instance> Inst;
  if (Opts.Engine != wasm::EngineKind::Tree) {
    auto FI = std::make_unique<exec::FlatInstance>(Art->Program.Module,
                                                   Opts.Engine);
    // Borrow the artifact's translation (zero-copy): the aliasing handle
    // keeps the artifact alive, and the translation is immutable — all
    // mutable execution state is per-instance (the tier-3 compiler only
    // reads it).
    FI->adoptPretranslated(
        std::shared_ptr<const exec::FlatModule>(Art, &Art->Flat));
    if (Opts.JitThreshold)
      FI->setTierPolicy(*Opts.JitThreshold);
    Inst = std::move(FI);
  } else {
    Inst = wasm::createInstance(Art->Program.Module, Opts.Engine);
  }
  // RunStart only gates the start function; instance state (memory,
  // globals, data, host/flat preparation) always exists.
  if (Status S = Inst->initialize(Opts.RunStart); !S)
    return S.error();
  // Alias the artifact's program so eviction cannot free it under us.
  const lower::LoweredProgram *Program = &Art->Program;
  return LoweredInstance{
      std::shared_ptr<const lower::LoweredProgram>(std::move(Art), Program),
      std::move(Inst)};
}
