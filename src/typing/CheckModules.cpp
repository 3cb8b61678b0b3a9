//===- typing/CheckModules.cpp - Parallel batch admission -----------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The batch entry point of the admission pipeline (DESIGN.md §7): a server
// ingesting modules re-checks every one at the link boundary, and function
// checks are embarrassingly parallel — each CheckerImpl is confined to one
// thread and all cross-check state lives in the thread-safe TypeArena
// (spinlocked intern tables, atomic per-node memos). The pipeline is
//
//   1. per module: build the ModuleEnv (sequential; a few pointer copies);
//   2. one flat work list of (module, function) pairs, checked over the
//      pool with range-stealing scheduling — function granularity keeps
//      the pool balanced even when one module dwarfs the rest;
//   3. deterministic assembly: per module, replay checkModule's exact
//      judgment order (table entries, then functions by index, then
//      globals and start) against the collected per-function statuses.
//
// Step 3 is what guarantees byte-identical diagnostics for any pool size:
// a module's reported error is always its lowest-indexed failure, exactly
// as the sequential checker would have reported it.
//
//===----------------------------------------------------------------------===//

#include "typing/Checker.h"

#include "ir/TypeArena.h"
#include "obs/Obs.h"
#include "support/ThreadPool.h"

using namespace rw;
using namespace rw::typing;
using namespace rw::ir;

std::vector<Status>
rw::typing::checkModules(std::span<const ir::Module *const> Mods,
                         support::ThreadPool &Pool,
                         std::vector<InfoMap> *Infos) {
  OBS_SPAN("check_batch", Mods.size());
  size_t NumMods = Mods.size();
  std::vector<ModuleEnv> Envs(NumMods);
  std::vector<Status> TableStatus(NumMods);
  std::vector<std::vector<Status>> FnStatus(NumMods);
  /// Per-function annotation maps when the caller asked for InfoMaps:
  /// each function check is confined to one pool task, so it records into
  /// its own map; the assembly phase below merges them per module in
  /// function index order (the recorded content is identical to a
  /// sequential checkModule(M, &IM) — skolem ids restart per function in
  /// both, and the map key is instruction identity).
  std::vector<std::vector<InfoMap>> FnInfos(Infos ? NumMods : 0);
  struct WorkItem {
    uint32_t Mod;
    uint32_t Func;
  };
  std::vector<WorkItem> Work;
  size_t TotalFuncs = 0;
  for (size_t MI = 0; MI < NumMods; ++MI)
    TotalFuncs += Mods[MI]->Funcs.size();
  Work.reserve(TotalFuncs);
  if (Infos) {
    Infos->clear();
    Infos->resize(NumMods);
  }
  for (size_t MI = 0; MI < NumMods; ++MI) {
    const Module &M = *Mods[MI];
    ArenaScope Scope(M.Arena ? *M.Arena : TypeArena::global());
    // Table bounds are checked up front, exactly like sequential
    // checkModule: a module already rejected here gets no function work
    // scheduled (its table error outranks any function diagnostic), so
    // adversarial cheap-to-reject modules cannot burn pool time.
    TableStatus[MI] = detail::checkTableEntries(M);
    if (!TableStatus[MI])
      continue;
    Envs[MI] = buildModuleEnv(M);
    FnStatus[MI].resize(M.Funcs.size());
    if (Infos)
      FnInfos[MI].resize(M.Funcs.size());
    for (size_t FI = 0; FI < M.Funcs.size(); ++FI)
      Work.push_back({static_cast<uint32_t>(MI), static_cast<uint32_t>(FI)});
  }

  Pool.parallelFor(Work.size(), [&](size_t I) {
    const WorkItem &W = Work[I];
    // Span args carry the (module, function) work-item coordinates, so a
    // trace shows which worker checked what.
    OBS_SPAN("check_fn", W.Mod, W.Func);
    const Module &M = *Mods[W.Mod];
    ArenaScope Scope(M.Arena ? *M.Arena : TypeArena::global());
    FnStatus[W.Mod][W.Func] = checkFunction(
        Envs[W.Mod], M.Funcs[W.Func],
        Infos ? &FnInfos[W.Mod][W.Func] : nullptr);
  });

  std::vector<Status> Out;
  Out.reserve(NumMods);
  for (size_t MI = 0; MI < NumMods; ++MI) {
    const Module &M = *Mods[MI];
    ArenaScope Scope(M.Arena ? *M.Arena : TypeArena::global());
    Out.push_back([&]() -> Status {
      if (Status &S = TableStatus[MI]; !S)
        return S;
      for (size_t FI = 0; FI < M.Funcs.size(); ++FI)
        if (Status &S = FnStatus[MI][FI]; !S)
          return Error("in function " + std::to_string(FI) + ": " +
                       S.error().message());
      InfoMap *IM = Infos ? &(*Infos)[MI] : nullptr;
      if (IM)
        // Merge the per-function maps in index order (node splice, no
        // copies); globals/start annotations are recorded below.
        for (InfoMap &FnIM : FnInfos[MI])
          IM->merge(FnIM);
      return detail::checkGlobalsAndStart(M, Envs[MI], IM);
    }());
    // A rejected module hands over no annotations.
    if (Infos && !Out.back())
      (*Infos)[MI].clear();
  }
  return Out;
}
