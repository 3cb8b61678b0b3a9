//===- cache/AdmissionCache.h - Content-addressed admission cache -*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The admission-server memoization layer (DESIGN.md §8): real traffic is
/// heavily repetitive — the same library modules are submitted over and
/// over — yet every submission re-pays check + lower + translate. The
/// arena assigns every type a Merkle hash, so admission results are
/// naturally content-addressable; this cache keys whole programs (an
/// ordered link set) by their module hashes (cache::programKey), or by
/// the input bytes at ingest::admit, and memoizes the lowered artifact:
/// the Wasm module, runtime/GC metadata, and the flat bytecode from
/// exec::translate, so a warm resubmission through
/// link::instantiateLowered (LinkOptions::Cache) skips straight to
/// instantiation on either engine. Type checking is not memoized on its
/// own: link::buildArtifact checks each module once per cold build.
///
/// Entries hold no arena nodes (artifacts are pure Wasm), so cached
/// results outlive the arena they were checked in and need no
/// invalidation: the key *is* the content. Thread-safe (mutex per shard;
/// probes copy shared handles out); artifacts are handed out as
/// shared_ptr<const ...>, so eviction never invalidates a running
/// instance. Capacity is a byte budget with LRU eviction.
///
/// Sharding: the default single shard is one mutex + one global LRU —
/// exact global recency, the right trade for benches and small pools. A
/// server hammering one cache from many client threads constructs with
/// Shards > 1: keys hash-partition across independent shards (budget
/// split evenly), contention drops by the shard count, and recency
/// becomes per-shard (a hot key only competes with its shard's
/// residents). stats() aggregates; shardStats() exposes the partition,
/// and the obs source emits per-shard "shard<i>.*" keys when sharded.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_CACHE_ADMISSIONCACHE_H
#define RICHWASM_CACHE_ADMISSIONCACHE_H

#include "exec/Translate.h"
#include "lower/Lower.h"
#include "serial/Serial.h"

#include <memory>
#include <vector>

namespace rw::cache {

/// The whole-program artifact of the shipping path: one lowered Wasm
/// module plus its flat-bytecode translation. Flat.Source points at
/// Program.Module, so the pair must live (and be shared) together.
struct LoweredArtifact {
  lower::LoweredProgram Program;
  exec::FlatModule Flat;
};

/// Hit/miss/eviction counters and the current resident size. Bytes are
/// estimates (sizeof-based for artifacts), consistent with what eviction
/// accounts against the budget.
struct CacheStats {
  uint64_t ProgramHits = 0;
  uint64_t ProgramMisses = 0;
  uint64_t Evictions = 0;
  uint64_t Bytes = 0;   ///< Resident entry bytes.
  uint64_t Entries = 0; ///< Resident entry count.
};

/// The content key of an ordered link set: module hashes folded in link
/// order (order matters — it decides import shadowing).
serial::ModuleHash programKey(const std::vector<const ir::Module *> &Mods);

class AdmissionCache {
public:
  static constexpr uint64_t DefaultByteBudget = 64ull << 20;

  /// Shards = 1 (the default) is a single global LRU; Shards > 1
  /// hash-partitions keys across independent per-shard LRUs, each with
  /// ByteBudget / Shards of the budget (entries larger than a shard's
  /// budget are rejected, matching the single-shard oversize rule).
  explicit AdmissionCache(uint64_t ByteBudget = DefaultByteBudget,
                          unsigned Shards = 1);
  ~AdmissionCache();
  AdmissionCache(const AdmissionCache &) = delete;
  AdmissionCache &operator=(const AdmissionCache &) = delete;

  /// Lowered-program memoization. lookup refreshes LRU recency and counts
  /// a hit or miss; store inserts (or refreshes) and may evict. The
  /// returned artifact is immutable and stays alive independently of
  /// eviction.
  std::shared_ptr<const LoweredArtifact>
  lookupProgram(const serial::ModuleHash &Key);
  void storeProgram(const serial::ModuleHash &Key,
                    std::shared_ptr<const LoweredArtifact> Art);

  uint64_t byteBudget() const { return Budget; }
  unsigned shardCount() const { return NumShards; }
  /// Aggregate across all shards.
  CacheStats stats() const;
  /// One shard's counters (Shard < shardCount()).
  CacheStats shardStats(unsigned Shard) const;
  /// Drops every entry (stats counters are kept; Bytes/Entries reset).
  void clear();

private:
  struct Impl;
  Impl &shardFor(const serial::ModuleHash &Key);
  const uint64_t Budget;
  const unsigned NumShards;
  const uint64_t ShardBudget;
  std::vector<std::unique_ptr<Impl>> Sh;
  /// obs registry handle ("cache.*" snapshot source); 0 when compiled out.
  uint64_t ObsSourceId = 0;
};

} // namespace rw::cache

#endif // RICHWASM_CACHE_ADMISSIONCACHE_H
