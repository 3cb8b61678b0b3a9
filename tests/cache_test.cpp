//===- tests/cache_test.cpp - Admission cache tests -----------------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
// Pins the content-addressed admission cache contract (DESIGN.md §8):
//
//  * program memoization — a warm link::instantiateLowered resubmission
//    skips straight to instantiation (stats prove the hit) and produces
//    identical results on both engines, which share one artifact; cold
//    builds, warm hits and rejections are byte-identical for any
//    ThreadPool size (1/3/8);
//  * LRU byte budget — recency decides eviction, stats account bytes and
//    evictions exactly, and evicting an artifact never invalidates a
//    running instance;
//  * thread safety — concurrent probes/stores from a thread pool, and
//    concurrent JIT compiles over one shared cached translation (the
//    TSan job runs this binary);
//  * the ingestion byte key — a resubmission through ingest::admit is
//    served before any parsing or hashing, in a key domain of its own.
//
//===----------------------------------------------------------------------===//

#include "cache/AdmissionCache.h"

#include "bench/Common.h"
#include "bench/ServerMix.h"
#include "ingest/Ingest.h"
#include "obs/Obs.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>

using namespace rw;
using namespace rw::ir;
using rwbench::AdmissionSet;

namespace {

/// A small valid module with content parameterized by \p Tag.
ir::Module okModule(uint32_t Tag) {
  using namespace rw::ir::build;
  ir::Module M;
  M.Name = "ok" + std::to_string(Tag);
  InstVec Body = {getLocal(0, Qual::unr()),
                  iconst(static_cast<int32_t>(Tag)), addI32()};
  M.Funcs.push_back(function({"f"},
                             FunType::get({}, arrow({i32T()}, {i32T()})), {},
                             std::move(Body)));
  return M;
}

/// A module the checker rejects (drops a linear value).
ir::Module badModule(uint32_t Tag) {
  using namespace rw::ir::build;
  ir::Module M;
  M.Name = "bad" + std::to_string(Tag);
  InstVec Body = {iconst(static_cast<int32_t>(Tag)),
                  structMalloc({Size::constant(32)}, Qual::lin()),
                  drop(), // Leaks the linear reference.
                  iconst(0)};
  M.Funcs.push_back(function({"f"},
                             FunType::get({}, arrow({}, {i32T()})), {},
                             std::move(Body)));
  return M;
}

/// A stand-in artifact (no program) whose charge grows with \p DataBytes:
/// the cache charges a data segment byte for byte.
std::shared_ptr<const cache::LoweredArtifact> blob(size_t DataBytes = 0) {
  auto A = std::make_shared<cache::LoweredArtifact>();
  if (DataBytes)
    A->Program.Module.Data.push_back({0, std::vector<uint8_t>(DataBytes)});
  return A;
}

/// What the cache charges for \p A: stats().Bytes after one store.
uint64_t chargeOf(const std::shared_ptr<const cache::LoweredArtifact> &A) {
  cache::AdmissionCache Probe;
  Probe.storeProgram({1, 1}, A);
  return Probe.stats().Bytes;
}

/// lib exports `double`, client imports it and exports `main`.
std::pair<ir::Module, ir::Module> linkedPair() {
  using namespace rw::ir::build;
  FunTypeRef Fn = FunType::get({}, arrow({i32T()}, {i32T()}));
  ir::Module Lib;
  Lib.Name = "lib";
  Lib.Funcs.push_back(function({"double"}, Fn, {},
                               {getLocal(0, Qual::unr()),
                                getLocal(0, Qual::unr()), addI32()}));
  ir::Module Client;
  Client.Name = "client";
  Client.Funcs.push_back(importFunc({"lib", "double"}, Fn));
  Client.Funcs.push_back(function(
      {"main"}, FunType::get({}, arrow({}, {i32T()})), {},
      {iconst(21), call(0)}));
  return {std::move(Lib), std::move(Client)};
}

//===----------------------------------------------------------------------===//
// Program memoization (instantiateLowered warm path)
//===----------------------------------------------------------------------===//

TEST(Cache, WarmInstantiateLoweredSkipsToInstantiation) {
  auto [Lib, Client] = linkedPair();
  std::vector<const ir::Module *> Mods = {&Lib, &Client};

  cache::AdmissionCache C;
  link::LinkOptions Opts;
  Opts.Cache = &C;

  auto Cold = link::instantiateLowered(Mods, Opts);
  ASSERT_TRUE(bool(Cold)) << Cold.error().message();
  auto R1 = Cold->invokeExport("client.main", {});
  ASSERT_TRUE(bool(R1)) << R1.error().message();
  EXPECT_EQ((*R1)[0].Bits, 42u);
  EXPECT_EQ(C.stats().ProgramMisses, 1u);
  EXPECT_EQ(C.stats().ProgramHits, 0u);

  auto Warm = link::instantiateLowered(Mods, Opts);
  ASSERT_TRUE(bool(Warm)) << Warm.error().message();
  EXPECT_EQ(C.stats().ProgramHits, 1u);
  EXPECT_EQ(C.stats().ProgramMisses, 1u);
  // Both instances share one lowered artifact.
  EXPECT_EQ(Warm->Program.get(), Cold->Program.get());
  auto R2 = Warm->invokeExport("client.main", {});
  ASSERT_TRUE(bool(R2)) << R2.error().message();
  EXPECT_EQ((*R2)[0].Bits, 42u);

  // The flat engine hits the same artifact (the key is engine-
  // independent) and adopts the memoized translation.
  link::LinkOptions FlatOpts = Opts;
  FlatOpts.Engine = wasm::EngineKind::Flat;
  auto Flat = link::instantiateLowered(Mods, FlatOpts);
  ASSERT_TRUE(bool(Flat)) << Flat.error().message();
  EXPECT_EQ(C.stats().ProgramHits, 2u);
  EXPECT_EQ(Flat->Instance->engine(), wasm::EngineKind::Flat);
  auto R3 = Flat->invokeExport("client.main", {});
  ASSERT_TRUE(bool(R3)) << R3.error().message();
  EXPECT_EQ((*R3)[0].Bits, 42u);

  // Different link order = different program = different key.
  std::vector<const ir::Module *> Reordered = {&Client, &Lib};
  auto Miss = link::instantiateLowered(Reordered, Opts);
  EXPECT_EQ(C.stats().ProgramMisses, 2u);
  (void)Miss; // Client-before-lib leaves the import host-unbound; the
              // cold path may fail or succeed, the key just must differ.
}

// A hot resubmission through the front door is a byte-key hit: it neither
// reads nor content-hashes the module, and counts exactly one program
// hit. Under -DRW_OBS=OFF the counters are inert stubs pinned to zero,
// so the deltas are zero either way.
TEST(Cache, IngestResubmissionSkipsReadAndHash) {
  std::vector<uint8_t> B = serial::write(rwbench::serverModule(5));
  cache::AdmissionCache C;
  link::LinkOptions Opts;
  Opts.Cache = &C;
  Opts.Engine = wasm::EngineKind::Flat;
  auto First = ingest::admit(B, ingest::Limits(), Opts);
  ASSERT_TRUE(First) << First.error().message();

  obs::Counter BytesRead("serial.bytes_read");
  obs::Counter Hashed("serial.modules_hashed");
  uint64_t Read0 = BytesRead.value(), Hashed0 = Hashed.value();
  cache::CacheStats S0 = C.stats();
  auto Second = ingest::admit(B, ingest::Limits(), Opts);
  ASSERT_TRUE(Second) << Second.error().message();
  EXPECT_EQ(BytesRead.value(), Read0) << "a byte-key hit must not parse";
  EXPECT_EQ(Hashed.value(), Hashed0) << "a byte-key hit must not hash";
  EXPECT_EQ(C.stats().ProgramHits, S0.ProgramHits + 1);
  EXPECT_EQ(C.stats().ProgramMisses, S0.ProgramMisses);
  EXPECT_EQ(Second->Lowered.Program.get(), First->Lowered.Program.get());
  auto R = Second->invoke("srv_5.f0", {wasm::WValue::i32(1)});
  ASSERT_TRUE(R) << R.error().message();
  auto R0 = First->invoke("srv_5.f0", {wasm::WValue::i32(1)});
  ASSERT_TRUE(R0) << R0.error().message();
  EXPECT_EQ((*R)[0].Bits, (*R0)[0].Bits);
}

// The two front doors key one program in separate domains: the same
// module admitted through link::instantiateLowered (content key) and
// through ingest::admit (byte key) occupies two entries — the documented
// price of probing before parsing — and each door then hits its own.
TEST(Cache, FrontDoorsKeyTheSameProgramSeparately) {
  ir::Module M = rwbench::serverModule(6);
  std::vector<uint8_t> B = serial::write(M);
  cache::AdmissionCache C;
  link::LinkOptions Opts;
  Opts.Cache = &C;

  ASSERT_TRUE(link::instantiateLowered({&M}, Opts));
  ASSERT_TRUE(ingest::admit(B, ingest::Limits(), Opts));
  EXPECT_EQ(C.stats().Entries, 2u);
  EXPECT_EQ(C.stats().ProgramMisses, 2u);
  ASSERT_TRUE(link::instantiateLowered({&M}, Opts));
  ASSERT_TRUE(ingest::admit(B, ingest::Limits(), Opts));
  EXPECT_EQ(C.stats().ProgramHits, 2u);
  EXPECT_EQ(C.stats().Entries, 2u);
}

// An artifact is charged for what it owns. The runtime prelude's two
// allocator bodies are shared by every lowered module, so a cached
// ServerMix program costs its own code, not 157 more WInst nodes, and
// lowering's scratch maps (function and table indices) are not kept.
TEST(Cache, ServerMixArtifactBytesExcludeTheSharedPrelude) {
  rwbench::ServerMix Mix(/*HotN=*/1, /*ColdN=*/0, /*AdvN=*/0);
  cache::AdmissionCache C;
  link::LinkOptions Opts;
  Opts.Cache = &C;
  ASSERT_TRUE(ingest::admit(Mix.HotBytes[0], ingest::Limits(), Opts));
  EXPECT_EQ(C.stats().Entries, 1u);
  EXPECT_EQ(C.stats().Bytes, 7191u);
}

// Front-door admissions racing on one small sharded cache: byte-key hits,
// misses, stores and evictions (whose artifacts are freed after the shard
// lock is released) interleave on both container routes, and every
// admitted module still computes its own answer. The TSan job runs this
// binary.
TEST(Cache, ConcurrentIngestThroughAnEvictingCache) {
  // Eight pool threads admit and run hot payloads, each as RWBM bytes and
  // as its lowered Wasm encoding, through a cache small enough that most
  // stores evict. On EngineKind::Jit each thread also compiles and runs
  // its own ModuleJit over a cached FlatModule that all of them share —
  // the shape of serving JIT code from the cache, and the JIT's
  // concurrency target for the TSan job.
  rwbench::ServerMix Mix(/*HotN=*/16, /*ColdN=*/0, /*AdvN=*/0);
  std::vector<std::vector<uint8_t>> Payloads = Mix.HotBytes;
  for (unsigned Tag = 0; Tag < Mix.HotBytes.size(); ++Tag) {
    ir::Module M = rwbench::serverModule(Tag);
    auto Art = link::buildArtifact({&M}, {});
    ASSERT_TRUE(Art) << Art.error().message();
    const lower::LoweredProgram *LP = &(*Art)->Program;
    Payloads.push_back(wasm::encode(LP->Module));
  }
  for (wasm::EngineKind K : {wasm::EngineKind::Flat, wasm::EngineKind::Jit}) {
    SCOPED_TRACE(wasm::engineKindName(K));
    link::LinkOptions Opts;
    Opts.Engine = K;
    // The larger of the two routes' artifacts.
    uint64_t ArtBytes = 0;
    for (size_t I : {size_t(0), Mix.HotBytes.size()}) {
      cache::AdmissionCache Probe;
      Opts.Cache = &Probe;
      EXPECT_TRUE(ingest::admit(Payloads[I], ingest::Limits(), Opts));
      ArtBytes = std::max(ArtBytes, Probe.stats().Bytes);
    }
    ASSERT_GT(ArtBytes, 0u);
    // About two artifacts per shard, so most stores evict.
    constexpr unsigned Shards = 4;
    cache::AdmissionCache C(Shards * ArtBytes * 5 / 2, Shards);
    Opts.Cache = &C;
    std::atomic<unsigned> Wrong{0};
    support::ThreadPool Pool(8);
    Pool.parallelFor(512, [&](size_t I) {
      size_t P = I % Payloads.size();
      uint32_t Tag = static_cast<uint32_t>(P % Mix.HotBytes.size());
      auto A = ingest::admit(Payloads[P], ingest::Limits(), Opts);
      if (!A) {
        ++Wrong;
        return;
      }
      auto R = A->invoke("srv_" + std::to_string(Tag) + ".f0",
                         {wasm::WValue::i32(1)});
      // serverModule's f0 computes (x + 3 * Tag) * 3.
      if (!R || (*R)[0].Bits != (1 + 3 * Tag) * 3)
        ++Wrong;
    });
    EXPECT_EQ(Wrong.load(), 0u);
    EXPECT_GT(C.stats().Evictions, 0u);
    EXPECT_GT(C.stats().ProgramHits, 0u);
    EXPECT_LE(C.stats().Bytes, C.byteBudget());
  }
}

TEST(Cache, WarmHitDeterminismAcrossPoolSizes) {
  // Cold builds (check and lowering on the pool) and warm hits give
  // byte-identical lowered Wasm for every pool size, and a rejected set
  // gives byte-identical diagnostics and stores nothing.
  AdmissionSet Set(6);
  ir::Module Bad = badModule(1);
  std::vector<const ir::Module *> Rejected = Set.Ptrs;
  Rejected.insert(Rejected.begin() + 2, &Bad);

  std::vector<uint8_t> Reference;
  std::string RefDiag;
  for (unsigned Threads : {1u, 3u, 8u}) {
    support::ThreadPool Pool(Threads);
    cache::AdmissionCache C;
    link::LinkOptions Opts;
    Opts.Cache = &C;
    Opts.Pool = &Pool;
    auto Cold = link::instantiateLowered(Set.Ptrs, Opts);
    ASSERT_TRUE(bool(Cold)) << Cold.error().message();
    auto Warm = link::instantiateLowered(Set.Ptrs, Opts);
    ASSERT_TRUE(bool(Warm)) << Warm.error().message();
    EXPECT_EQ(C.stats().ProgramHits, 1u) << "pool size " << Threads;
    std::vector<uint8_t> Bytes = wasm::encode(Cold->Program->Module);
    EXPECT_EQ(Bytes, wasm::encode(Warm->Program->Module));
    if (Reference.empty())
      Reference = Bytes;
    EXPECT_EQ(Bytes, Reference) << "pool size " << Threads;

    auto No = link::instantiateLowered(Rejected, Opts);
    ASSERT_FALSE(bool(No));
    if (RefDiag.empty())
      RefDiag = No.error().message();
    EXPECT_EQ(No.error().message(), RefDiag) << "pool size " << Threads;
    EXPECT_EQ(C.stats().Entries, 1u) << "a rejected set must store nothing";
  }
  EXPECT_NE(RefDiag.find("module 'bad1'"), std::string::npos) << RefDiag;
}

TEST(Cache, ProgramOrderAndContentDecideTheKey) {
  auto [Lib, Client] = linkedPair();
  ir::Module Lib2 = Lib; // Same content, different object.
  std::vector<const ir::Module *> A = {&Lib, &Client};
  std::vector<const ir::Module *> B = {&Lib2, &Client};
  EXPECT_EQ(cache::programKey(A), cache::programKey(B));
  std::vector<const ir::Module *> Rev = {&Client, &Lib};
  EXPECT_NE(cache::programKey(A), cache::programKey(Rev));
}

//===----------------------------------------------------------------------===//
// LRU byte budget
//===----------------------------------------------------------------------===//

TEST(Cache, LruEvictsByRecencyWithinByteBudget) {
  // A budget of three and a half entries fits three.
  auto A = blob();
  const uint64_t Each = chargeOf(A);
  cache::AdmissionCache C(Each * 7 / 2);
  serial::ModuleHash KA{1, 1}, KB{2, 2}, KC{3, 3}, KD{4, 4};
  C.storeProgram(KA, A);
  C.storeProgram(KB, A);
  EXPECT_NE(C.lookupProgram(KA), nullptr); // A is now more recent than B.
  C.storeProgram(KC, A);
  EXPECT_EQ(C.stats().Entries, 3u);
  EXPECT_EQ(C.stats().Bytes, 3 * Each);
  EXPECT_EQ(C.stats().Evictions, 0u);

  C.storeProgram(KD, A); // A fourth entry exceeds the budget: evict B.
  EXPECT_EQ(C.stats().Evictions, 1u);
  EXPECT_EQ(C.stats().Entries, 3u);
  EXPECT_LE(C.stats().Bytes, C.byteBudget());
  EXPECT_EQ(C.lookupProgram(KB), nullptr);
  EXPECT_EQ(C.lookupProgram(KA), A);
  EXPECT_EQ(C.lookupProgram(KC), A);
  EXPECT_EQ(C.lookupProgram(KD), A);

  C.clear();
  EXPECT_EQ(C.stats().Entries, 0u);
  EXPECT_EQ(C.stats().Bytes, 0u);
  EXPECT_EQ(C.lookupProgram(KA), nullptr);
}

TEST(Cache, OversizedArtifactIsRejectedWithoutFlushingResidents) {
  // A budget that fits two stand-in artifacts but no lowered program: the
  // program's store is rejected up front — admitting it would evict the
  // whole warm set before the oversized entry itself went. Resident
  // entries survive and the returned instance still works (it owns the
  // artifact through its shared_ptr).
  auto [Lib, Client] = linkedPair();
  std::vector<const ir::Module *> Mods = {&Lib, &Client};
  auto Small = blob();
  cache::AdmissionCache C(2 * chargeOf(Small));
  serial::ModuleHash KA{1, 1}, KB{2, 2};
  C.storeProgram(KA, Small);
  C.storeProgram(KB, Small);

  link::LinkOptions Opts;
  Opts.Cache = &C;
  auto LI = link::instantiateLowered(Mods, Opts);
  ASSERT_TRUE(bool(LI)) << LI.error().message();
  // The warm resident set was not collateral damage.
  EXPECT_EQ(C.stats().Evictions, 0u);
  EXPECT_EQ(C.stats().Entries, 2u);
  EXPECT_EQ(C.lookupProgram(KA), Small);
  EXPECT_EQ(C.lookupProgram(KB), Small);

  auto R = LI->invokeExport("client.main", {});
  ASSERT_TRUE(bool(R)) << R.error().message();
  EXPECT_EQ((*R)[0].Bits, 42u);
  // And the next submission is a miss again (the artifact never cached).
  uint64_t HitsBefore = C.stats().ProgramHits;
  auto LI2 = link::instantiateLowered(Mods, Opts);
  ASSERT_TRUE(bool(LI2));
  EXPECT_EQ(C.stats().ProgramHits, HitsBefore);
}

//===----------------------------------------------------------------------===//
// Concurrency (TSan)
//===----------------------------------------------------------------------===//

TEST(Cache, ConcurrentProbesAndStoresAreSafe) {
  cache::AdmissionCache C;
  support::ThreadPool Pool(8);
  std::vector<ir::Module> Mods;
  for (uint32_t I = 0; I < 4; ++I)
    Mods.push_back(okModule(I));
  std::vector<serial::ModuleHash> Keys;
  for (const ir::Module &M : Mods)
    Keys.push_back(serial::moduleHash(M));

  auto A = blob();
  Pool.parallelFor(256, [&](size_t I) {
    const serial::ModuleHash &K = Keys[I % Keys.size()];
    if (I % 3 == 0)
      C.storeProgram(K, A);
    else
      (void)C.lookupProgram(K);
    if (I % 7 == 0)
      (void)C.stats();
  });
  EXPECT_LE(C.stats().Entries, 4u); // 4 unique contents.
  C.clear();

  // Concurrent admissions through the full cached pipeline, each thread
  // checking and lowering on a pool of its own: every module computes
  // its own answer, cold or warm.
  std::atomic<unsigned> Wrong{0};
  Pool.parallelFor(16, [&](size_t I) {
    support::ThreadPool Inner(1);
    uint32_t Tag = static_cast<uint32_t>(I % Mods.size());
    link::LinkOptions Opts;
    Opts.Cache = &C;
    Opts.Pool = &Inner;
    auto LI = link::instantiateLowered({&Mods[Tag]}, Opts);
    if (!LI) {
      ++Wrong;
      return;
    }
    auto R = LI->invokeExport("ok" + std::to_string(Tag) + ".f",
                              {wasm::WValue::i32(1)});
    if (!R || (*R)[0].Bits != 1 + Tag)
      ++Wrong;
  });
  EXPECT_EQ(Wrong.load(), 0u);
  EXPECT_EQ(C.stats().Entries, Mods.size());
}

//===----------------------------------------------------------------------===//
// Sharding (PR 9)
//===----------------------------------------------------------------------===//

TEST(Cache, ShardedRoundTripAndStatsAggregation) {
  cache::AdmissionCache C(1 << 20, 8);
  EXPECT_EQ(C.shardCount(), 8u);
  std::vector<std::shared_ptr<const cache::LoweredArtifact>> Arts;
  for (uint64_t I = 0; I < 256; ++I) {
    Arts.push_back(blob());
    C.storeProgram({I, I * 2 + 1}, Arts.back());
  }
  for (uint64_t I = 0; I < 256; ++I)
    EXPECT_EQ(C.lookupProgram({I, I * 2 + 1}), Arts[I]) << I;
  (void)C.lookupProgram({999, 999}); // One miss somewhere.

  cache::CacheStats Agg = C.stats();
  EXPECT_EQ(Agg.Entries, 256u);
  EXPECT_EQ(Agg.ProgramHits, 256u);
  EXPECT_EQ(Agg.ProgramMisses, 1u); // Stores do not probe; one cold lookup.
  cache::CacheStats Sum;
  unsigned NonEmpty = 0;
  for (unsigned S = 0; S < C.shardCount(); ++S) {
    cache::CacheStats SS = C.shardStats(S);
    Sum.ProgramHits += SS.ProgramHits;
    Sum.ProgramMisses += SS.ProgramMisses;
    Sum.Evictions += SS.Evictions;
    Sum.Bytes += SS.Bytes;
    Sum.Entries += SS.Entries;
    NonEmpty += SS.Entries > 0;
  }
  EXPECT_EQ(Sum.ProgramHits, Agg.ProgramHits);
  EXPECT_EQ(Sum.ProgramMisses, Agg.ProgramMisses);
  EXPECT_EQ(Sum.Bytes, Agg.Bytes);
  EXPECT_EQ(Sum.Entries, Agg.Entries);
  // mix64 actually partitions: 256 keys do not pile into one shard.
  EXPECT_GT(NonEmpty, 4u);
}

TEST(Cache, ShardedEvictionIsPerShardBudget) {
  // Eight shards of three and a half entries each: three residents per
  // shard, 24 in total at most.
  auto A = blob();
  const uint64_t Each = chargeOf(A);
  const uint64_t ShardBudget = Each * 7 / 2;
  cache::AdmissionCache C(8 * ShardBudget, 8);
  for (uint64_t I = 0; I < 64; ++I)
    C.storeProgram({I * 31 + 7, I}, A);
  cache::CacheStats Agg = C.stats();
  EXPECT_LE(Agg.Entries, 24u);
  EXPECT_GE(Agg.Evictions, 64u - 24u);
  for (unsigned S = 0; S < C.shardCount(); ++S) {
    cache::CacheStats SS = C.shardStats(S);
    EXPECT_LE(SS.Entries, 3u) << "shard " << S << " exceeded its budget";
    EXPECT_LE(SS.Bytes, ShardBudget) << "shard " << S;
  }

  // Oversize is judged against the *shard* budget: an entry one shard
  // cannot hold would fit the whole budget but is rejected per the
  // single-shard rule.
  auto Big = blob(ShardBudget);
  ASSERT_GT(chargeOf(Big), ShardBudget);
  ASSERT_LT(chargeOf(Big), C.byteBudget());
  uint64_t EvBefore = C.stats().Evictions;
  C.storeProgram({12345, 54321}, Big);
  EXPECT_EQ(C.lookupProgram({12345, 54321}), nullptr);
  EXPECT_EQ(C.stats().Evictions, EvBefore) << "oversize store flushed a shard";

  C.clear();
  EXPECT_EQ(C.stats().Entries, 0u);
  EXPECT_EQ(C.stats().Bytes, 0u);
}

TEST(Cache, ShardedWarmPipelineStillHits) {
  auto [Lib, Client] = linkedPair();
  std::vector<const ir::Module *> Mods = {&Lib, &Client};
  cache::AdmissionCache C(cache::AdmissionCache::DefaultByteBudget, 4);
  support::ThreadPool Pool(3);

  link::LinkOptions Opts;
  Opts.Cache = &C;
  Opts.Pool = &Pool;
  auto Cold = link::instantiateLowered(Mods, Opts);
  ASSERT_TRUE(bool(Cold)) << Cold.error().message();
  auto Warm = link::instantiateLowered(Mods, Opts);
  ASSERT_TRUE(bool(Warm)) << Warm.error().message();
  EXPECT_EQ(C.stats().ProgramHits, 1u);
  EXPECT_EQ(C.stats().ProgramMisses, 1u);
  auto R = Warm->invokeExport("client.main", {});
  ASSERT_TRUE(bool(R));
  EXPECT_EQ((*R)[0].Bits, 42u);
}

#if RW_OBS_ENABLED
TEST(Cache, ShardedObsSourceEmitsPerShardKeys) {
  cache::AdmissionCache C(1 << 16, 4);
  C.storeProgram({1, 2}, blob());
  (void)C.lookupProgram({1, 2});
  (void)C.lookupProgram({3, 4});
  obs::Snapshot S = obs::snapshot();
  // The source prefix may be uniquified ("cache#N") when other tests'
  // instances are alive; match on suffix within cache-prefixed names.
  bool SawShards = false, SawPerShard = false;
  uint64_t Hits = 0, ShardHits = 0;
  bool SawAggHits = false;
  for (const obs::Metric &M : S.Metrics) {
    if (M.Name.rfind("cache", 0) != 0)
      continue;
    std::string N = M.Name.substr(M.Name.find('.') + 1);
    if (N == "shards" && M.Value == 4)
      SawShards = true;
    if (N.rfind("shard", 0) == 0 && N.find(".hits") != std::string::npos)
      SawPerShard = true;
  }
  EXPECT_TRUE(SawShards);
  EXPECT_TRUE(SawPerShard);
  // Per-shard hit counters sum to the aggregate for *this* instance:
  // find the unique cache prefix whose "shards" value is 4 and fold it.
  std::string Prefix;
  for (const obs::Metric &M : S.Metrics)
    if (M.Name.rfind("cache", 0) == 0 && M.Value == 4 &&
        M.Name.substr(M.Name.find('.') + 1) == "shards")
      Prefix = M.Name.substr(0, M.Name.find('.'));
  ASSERT_FALSE(Prefix.empty());
  for (const obs::Metric &M : S.Metrics) {
    if (M.Name.rfind(Prefix + ".", 0) != 0)
      continue;
    std::string N = M.Name.substr(Prefix.size() + 1);
    if (N == "hits") {
      Hits = M.Value;
      SawAggHits = true;
    }
    if (N.rfind("shard", 0) == 0 &&
        N.substr(N.find('.') + 1) == "hits")
      ShardHits += M.Value;
  }
  EXPECT_TRUE(SawAggHits);
  EXPECT_EQ(ShardHits, Hits);
  EXPECT_EQ(Hits, 1u);
}
#endif // RW_OBS_ENABLED

TEST(Cache, ShardedConcurrentHammer) {
  // A budget of about four entries per shard, so stores evict.
  auto A = blob();
  cache::AdmissionCache C(8 * 4 * chargeOf(A), 8);
  support::ThreadPool Pool(8);
  Pool.parallelFor(2048, [&](size_t I) {
    serial::ModuleHash K{static_cast<uint64_t>(I % 97),
                         static_cast<uint64_t>(I % 89)};
    switch (I % 5) {
    case 0:
      C.storeProgram(K, A);
      break;
    case 1:
    case 2:
      (void)C.lookupProgram(K);
      break;
    case 3:
      (void)C.stats();
      break;
    default:
      (void)C.shardStats(static_cast<unsigned>(I) % C.shardCount());
    }
  });
  cache::CacheStats Agg = C.stats();
  EXPECT_LE(Agg.Bytes, C.byteBudget());
  EXPECT_GT(Agg.ProgramHits + Agg.ProgramMisses, 0u);
}

} // namespace
