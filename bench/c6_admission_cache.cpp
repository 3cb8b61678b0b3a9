//===- bench/c6_admission_cache.cpp - C6: content-addressed admission -----===//
// The admission-server repetition experiment (DESIGN.md §8): real traffic
// resubmits the same library modules over and over, so admission results
// are memoized content-addressed. Measures the full admission pipeline —
// link::instantiateLowered with a cache (check, lowering and flat
// translation memoized as one artifact) — cold (empty cache, every stage
// runs) versus warm (resident cache, the pipeline skips to
// instantiation), plus the serialization layer underneath the cache.
// run_bench.sh emits the cold/warm pairs into BENCH_cache.json; the
// 64-module warm speedup is the headline number (≥10x gates cache PRs).
#include "Common.h"

#include "cache/AdmissionCache.h"
#include "serial/Serial.h"
#include "support/ThreadPool.h"

#include <benchmark/benchmark.h>

using namespace rw;
using namespace rwbench;

namespace {

// bench/Common.h holds AdmissionSet (the N-module link-shaped workload
// with checker-relevant bodies, also fig3's cold-instantiate workload)
// and admitCached (one cached admission of it, also traced by the
// check-once test in tests/obs_test.cpp).

/// Cache and arena stats flow through the obs registry (the cache
/// registers a "cache.*" snapshot source for its lifetime, the global
/// arena an "arena.*" one), so the export is one shared call; the
/// '.'→'_' key mapping keeps the exact names run_bench.sh parses
/// (cache_hits, cache_misses, cache_evictions, cache_bytes).
void reportCache(benchmark::State &St, const cache::AdmissionCache &C) {
  (void)C; // Sampled via its registered obs source.
  exportObsCounters(St, {"cache", "arena"});
}

} // namespace

//===----------------------------------------------------------------------===//
// Full admission pipeline, cold vs warm
//===----------------------------------------------------------------------===//

static void C6_AdmissionCold(benchmark::State &St) {
  AdmissionSet Set(static_cast<unsigned>(St.range(0)));
  support::ThreadPool Pool;
  for (auto _ : St) {
    cache::AdmissionCache C; // Empty every submission: all misses.
    if (!admitCached(Set, Pool, C)) {
      St.SkipWithError("admission failed");
      return;
    }
  }
  St.counters["modules/s"] = benchmark::Counter(
      static_cast<double>(Set.Mods.size()) * St.iterations(),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(C6_AdmissionCold)->Arg(8)->Arg(64)->Unit(benchmark::kMicrosecond);

static void C6_AdmissionWarm(benchmark::State &St) {
  AdmissionSet Set(static_cast<unsigned>(St.range(0)));
  support::ThreadPool Pool;
  cache::AdmissionCache C;
  if (!admitCached(Set, Pool, C)) { // Prime.
    St.SkipWithError("admission failed");
    return;
  }
  for (auto _ : St)
    if (!admitCached(Set, Pool, C)) {
      St.SkipWithError("admission failed");
      return;
    }
  St.counters["modules/s"] = benchmark::Counter(
      static_cast<double>(Set.Mods.size()) * St.iterations(),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
  reportCache(St, C);
}
BENCHMARK(C6_AdmissionWarm)->Arg(8)->Arg(64)->Unit(benchmark::kMicrosecond);

//===----------------------------------------------------------------------===//
// The serialization layer
//===----------------------------------------------------------------------===//

static void C6_SerializeModule(benchmark::State &St) {
  AdmissionSet Set(static_cast<unsigned>(St.range(0)));
  uint64_t Bytes = 0;
  for (auto _ : St) {
    Bytes = 0;
    for (const rw::ir::Module *M : Set.Ptrs)
      Bytes += serial::write(*M).size();
    benchmark::DoNotOptimize(Bytes);
  }
  St.counters["bytes_per_module"] =
      static_cast<double>(Bytes) / static_cast<double>(Set.Mods.size());
}
BENCHMARK(C6_SerializeModule)->Arg(64)->Unit(benchmark::kMicrosecond);

static void C6_DeserializeModule(benchmark::State &St) {
  AdmissionSet Set(static_cast<unsigned>(St.range(0)));
  std::vector<std::vector<uint8_t>> Blobs;
  for (const rw::ir::Module *M : Set.Ptrs)
    Blobs.push_back(serial::write(*M));
  for (auto _ : St)
    for (const std::vector<uint8_t> &B : Blobs) {
      auto R = serial::read(B);
      if (!R) {
        St.SkipWithError("read failed");
        return;
      }
      benchmark::DoNotOptimize(R->Funcs.size());
    }
}
BENCHMARK(C6_DeserializeModule)->Arg(64)->Unit(benchmark::kMicrosecond);

static void C6_ModuleHash(benchmark::State &St) {
  AdmissionSet Set(static_cast<unsigned>(St.range(0)));
  for (auto _ : St) {
    uint64_t Acc = 0;
    for (const rw::ir::Module *M : Set.Ptrs)
      Acc ^= serial::moduleHash(*M).Hi;
    benchmark::DoNotOptimize(Acc);
  }
}
BENCHMARK(C6_ModuleHash)->Arg(64)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
