//===- cache/AdmissionCache.cpp - Content-addressed admission cache -------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Each shard is one mutex-guarded LRU over lowered artifacts with its
// slice of the byte budget: a recency list whose nodes own the values,
// plus a hash index pointing into it. Every operation is a hash probe
// and a list splice, so a lock is held for nanoseconds; the default
// single shard gives exact global recency, and a server constructs with
// more shards to spread client threads across independent locks (the
// shard is picked from the content key, so a given key always lands on
// the same shard).
//
//===----------------------------------------------------------------------===//

#include "cache/AdmissionCache.h"

#include "obs/Obs.h"
#include "support/FaultInject.h"
#include "support/Hashing.h"

#include <list>
#include <mutex>
#include <unordered_map>

using namespace rw;
using namespace rw::cache;

serial::ModuleHash
rw::cache::programKey(const std::vector<const ir::Module *> &Mods) {
  // Fold per-module hashes in link order (order decides shadowing). The
  // multiplier keeps [A, B] distinct from [B, A].
  using support::mix64;
  serial::ModuleHash K{0x9e3779b97f4a7c15ull, 0x2545f4914f6cdd1dull};
  for (const ir::Module *M : Mods) {
    serial::ModuleHash H = serial::moduleHash(*M);
    K.Hi = mix64(K.Hi * 0x100000001b3ull ^ H.Hi);
    K.Lo = mix64(K.Lo * 0x100000001b3ull ^ H.Lo);
  }
  return K;
}

namespace {

struct KeyHash {
  size_t operator()(const serial::ModuleHash &K) const {
    return static_cast<size_t>(K.Hi ^ (K.Lo * 0x9e3779b97f4a7c15ull));
  }
};

//===----------------------------------------------------------------------===//
// Byte accounting
//===----------------------------------------------------------------------===//

/// The nodes \p Seq allocated, used or not (lowering reserves ahead), and
/// what they own out of line: a structured or br_table instruction's
/// WNest (block type, targets, body) and an else arm's vector.
uint64_t seqBytes(const std::vector<wasm::WInst> &Seq) {
  uint64_t B = Seq.capacity() * sizeof(wasm::WInst);
  for (const wasm::WInst &I : Seq) {
    if (const wasm::WNest *N = I.Body.get())
      B += sizeof(*N) + N->Table.size() * sizeof(uint32_t) +
           N->BT.Params.size() + N->BT.Results.size() + seqBytes(N->Insts);
    if (const std::vector<wasm::WInst> *E = I.Else.get())
      B += sizeof(*E) + seqBytes(*E);
  }
  return B;
}

uint64_t artifactBytes(const LoweredArtifact &A) {
  uint64_t B = sizeof(LoweredArtifact);
  const wasm::WModule &M = A.Program.Module;
  for (const wasm::FuncType &T : M.Types)
    B += sizeof(wasm::FuncType) + T.Params.size() + T.Results.size();
  for (const wasm::WFunc &F : M.Funcs) {
    B += sizeof(wasm::WFunc) + F.Locals.size();
    if (F.Body.shared())
      continue; // The runtime prelude: one copy per process, not ours.
    B += seqBytes(F.Body);
  }
  for (const wasm::WGlobal &G : M.Globals) {
    B += sizeof(wasm::WGlobal) + seqBytes(G.Init);
  }
  B += M.TableElems.size() * sizeof(uint32_t);
  for (const wasm::WExport &E : M.Exports)
    B += sizeof(wasm::WExport) + E.Name.size();
  for (const wasm::WImportFunc &F : M.ImportFuncs)
    B += sizeof(wasm::WImportFunc) + F.Mod.size() + F.Name.size();
  for (const wasm::WData &D : M.Data)
    B += sizeof(wasm::WData) + D.Bytes.size();
  B += A.Program.RefGlobals.size() * sizeof(uint32_t);
  for (const exec::FlatFunc &F : A.Flat.Funcs)
    B += sizeof(exec::FlatFunc) + F.Code.size() * sizeof(uint32_t);
  B += A.Flat.CanonType.size() * sizeof(uint32_t);
  return B;
}

} // namespace

//===----------------------------------------------------------------------===//
// LRU store
//===----------------------------------------------------------------------===//

struct AdmissionCache::Impl {
  struct Entry {
    serial::ModuleHash Key;
    std::shared_ptr<const LoweredArtifact> Art;
    uint64_t Bytes = 0;
  };

  using Lru = std::list<Entry>;
  using Map = std::unordered_map<serial::ModuleHash, Lru::iterator, KeyHash>;

  mutable std::mutex M;
  Lru Recency; ///< Front = most recently used.
  Map Programs;
  CacheStats St;

  void touch(Lru::iterator It) { Recency.splice(Recency.begin(), Recency, It); }

  /// Artifacts evicted under the lock, handed out so the caller frees
  /// them after unlocking: the last reference to a lowered artifact frees
  /// a whole Wasm module, too long to keep the shard's probes waiting.
  using Evicted = std::vector<std::shared_ptr<const LoweredArtifact>>;

  /// Evicts from the LRU tail until the resident bytes fit the budget.
  /// (Entries larger than the whole budget never get in — see insert.)
  void evict(uint64_t Budget, Evicted &Dead) {
    while (St.Bytes > Budget && !Recency.empty()) {
      Entry &E = Recency.back();
      Dead.push_back(std::move(E.Art));
      Programs.erase(E.Key);
      St.Bytes -= E.Bytes;
      --St.Entries;
      ++St.Evictions;
      Recency.pop_back();
    }
  }

  void insert(Entry E, uint64_t Budget, Evicted &Dead) {
    // An entry the whole budget cannot hold is rejected up front: pushing
    // it through the LRU would evict every resident entry before the
    // oversized one itself went, flushing the warm set for nothing.
    if (E.Bytes > Budget)
      return;
    auto It = Programs.find(E.Key);
    if (It != Programs.end()) {
      // Content-addressed: a re-store carries the same value; refresh
      // recency and keep the resident entry.
      touch(It->second);
      return;
    }
    St.Bytes += E.Bytes;
    ++St.Entries;
    Recency.push_front(std::move(E));
    Programs.emplace(Recency.front().Key, Recency.begin());
    evict(Budget, Dead);
  }
};

AdmissionCache::AdmissionCache(uint64_t ByteBudget, unsigned Shards)
    : Budget(ByteBudget), NumShards(Shards == 0 ? 1 : Shards),
      ShardBudget(ByteBudget / (Shards == 0 ? 1 : Shards)) {
  Sh.reserve(NumShards);
  for (unsigned S = 0; S < NumShards; ++S)
    Sh.push_back(std::make_unique<Impl>());
  // Every cache joins obs::snapshot() for its lifetime (a second live
  // cache shows up as "cache#2.*"). stats() takes the shard mutexes,
  // which is why snapshot() samples sources outside the registry lock.
  // A sharded cache also emits per-shard keys ("shard0.hits", ...) so
  // partition skew and per-shard pressure are visible; renderPrometheus
  // lifts the "shard<i>" segment into a shard="<i>" label.
  ObsSourceId = obs::registerSource("cache", [this](const obs::EmitFn &E) {
    CacheStats S = stats();
    E("hits", S.ProgramHits);
    E("misses", S.ProgramMisses);
    E("program_hits", S.ProgramHits);
    E("program_misses", S.ProgramMisses);
    E("evictions", S.Evictions);
    E("bytes", S.Bytes);
    E("entries", S.Entries);
    E("shards", NumShards);
    if (NumShards > 1) {
      for (unsigned I = 0; I < NumShards; ++I) {
        CacheStats P = shardStats(I);
        std::string Prefix = "shard" + std::to_string(I) + ".";
        E((Prefix + "hits").c_str(), P.ProgramHits);
        E((Prefix + "misses").c_str(), P.ProgramMisses);
        E((Prefix + "evictions").c_str(), P.Evictions);
        E((Prefix + "bytes").c_str(), P.Bytes);
        E((Prefix + "entries").c_str(), P.Entries);
      }
    }
  });
}

AdmissionCache::~AdmissionCache() { obs::unregisterSource(ObsSourceId); }

AdmissionCache::Impl &AdmissionCache::shardFor(const serial::ModuleHash &Key) {
  if (NumShards == 1)
    return *Sh[0];
  // Mix the words through two rounds so the shard choice neither shares
  // bits with the per-shard map's KeyHash (which folds Lo into Hi) nor
  // collapses for correlated Hi/Lo pairs (Lo ^ (Hi << 1) is constant
  // along the line Lo = 2*Hi + c — cache_test pins this with synthetic
  // keys; real keys are Merkle hashes but cost here is two multiplies).
  return *Sh[support::mix64(Key.Lo ^ support::mix64(Key.Hi)) % NumShards];
}

std::shared_ptr<const LoweredArtifact>
AdmissionCache::lookupProgram(const serial::ModuleHash &Key) {
  OBS_SPAN("cache_probe");
  Impl &I = shardFor(Key);
  std::lock_guard<std::mutex> G(I.M);
  auto It = I.Programs.find(Key);
  if (It == I.Programs.end()) {
    ++I.St.ProgramMisses;
    return nullptr;
  }
  ++I.St.ProgramHits;
  I.touch(It->second);
  return It->second->Art;
}

void AdmissionCache::storeProgram(const serial::ModuleHash &Key,
                                  std::shared_ptr<const LoweredArtifact> Art) {
  OBS_SPAN("cache_store");
  // Store-failure seam: a dropped store degrades to uncached admission —
  // the artifact is simply rebuilt on the next submission.
  if (RW_FAULT_POINT(support::fault::Seam::CacheStore))
    return;
  if (!Art)
    return;
  Impl::Entry E;
  E.Key = Key;
  E.Bytes = artifactBytes(*Art);
  E.Art = std::move(Art);
  Impl &I = shardFor(Key);
  Impl::Evicted Dead; // Freed after the lock is released.
  std::lock_guard<std::mutex> G(I.M);
  I.insert(std::move(E), ShardBudget, Dead);
}

CacheStats AdmissionCache::stats() const {
  CacheStats Out;
  for (const std::unique_ptr<Impl> &I : Sh) {
    std::lock_guard<std::mutex> G(I->M);
    Out.ProgramHits += I->St.ProgramHits;
    Out.ProgramMisses += I->St.ProgramMisses;
    Out.Evictions += I->St.Evictions;
    Out.Bytes += I->St.Bytes;
    Out.Entries += I->St.Entries;
  }
  return Out;
}

CacheStats AdmissionCache::shardStats(unsigned Shard) const {
  if (Shard >= NumShards)
    return {};
  std::lock_guard<std::mutex> G(Sh[Shard]->M);
  return Sh[Shard]->St;
}

void AdmissionCache::clear() {
  for (const std::unique_ptr<Impl> &I : Sh) {
    std::lock_guard<std::mutex> G(I->M);
    I->Recency.clear();
    I->Programs.clear();
    I->St.Bytes = 0;
    I->St.Entries = 0;
  }
}
