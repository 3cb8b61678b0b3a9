//===- tests/obs_test.cpp - Observability layer correctness ---------------===//
//
// Pins the obs subsystem (DESIGN.md §10) along four axes:
//
//   * sharded counter / histogram arithmetic stays exact under 8-thread
//     contention (the whole point of per-thread banks is that nothing is
//     lost to races);
//   * the span *set* a pooled checkModules emits is deterministic across
//     pool sizes 1/3/8, every span nests inside the batch umbrella, and
//     worker threads show up in the trace under their stable pool-N names;
//   * per-function execution profiles agree exactly between the tree and
//     flat engines and are visible through obs::snapshot();
//   * under -DRW_OBS=OFF every entry point collapses to a stub (the
//     compile-out half of this file replaces the contention suite), and
//     CI's nm check pins that Obs.cpp contributes zero code.
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"

#include "cache/AdmissionCache.h"
#include "obs/Obs.h"
#include "obs/Timeline.h"
#include "support/ThreadPool.h"
#include "typing/Checker.h"
#include "wasm/Interp.h"
#include "wasm/Validate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>
#include <vector>

using namespace rw;
using rwbench::AdmissionSet;

namespace {

/// Finds a metric by exact name in a snapshot; null when absent.
const obs::Metric *find(const obs::Snapshot &S, const std::string &Name) {
  for (const obs::Metric &M : S.Metrics)
    if (M.Name == Name)
      return &M;
  return nullptr;
}

} // namespace

//===----------------------------------------------------------------------===//
// Profile counters: saturation + reset. These pin the tier-up substrate
// regardless of RW_OBS — the JIT's hotness heuristic reads these words.
//===----------------------------------------------------------------------===//

TEST(ObsProfile, CounterSaturatesAtMaxInsteadOfWrapping) {
  wasm::ProfileCounter C;
  EXPECT_EQ(C.load(), 0u);
  ++C;
  EXPECT_EQ(C.load(), 1u);

  // One tick below the ceiling: a bump reaches exactly UINT64_MAX.
  C = UINT64_MAX - 1;
  ++C;
  EXPECT_EQ(C.load(), UINT64_MAX);

  // At the ceiling: further bumps pin, never wrap to 0. A wrapped
  // counter would drop a hot function back under the tier-up threshold.
  ++C;
  ++C;
  EXPECT_EQ(C.load(), UINT64_MAX);

  // Copy preserves the pinned value; assignment can bring it back down.
  wasm::ProfileCounter D(C);
  EXPECT_EQ(static_cast<uint64_t>(D), UINT64_MAX);
  D = 7;
  EXPECT_EQ(D.load(), 7u);
}

TEST(ObsProfile, ResetProfilesZeroesEveryRow) {
  using namespace rw::wasm;
  WModule M;
  uint32_t TV = M.addType({{}, {}});
  M.Funcs.push_back(
      {TV,
       {ValType::I32},
       {WInst::block({{}, {}},
                     {WInst::loop({{}, {}},
                                  {WInst::idx(Op::LocalGet, 0), WInst::i32c(1),
                                   WInst::mk(Op::I32Add),
                                   WInst::idx(Op::LocalTee, 0), WInst::i32c(3),
                                   WInst::mk(Op::I32LtS),
                                   WInst::idx(Op::BrIf, 0)})})}});
  M.Exports.push_back({"f", ExportKind::Func, 0});
  ASSERT_TRUE(validate(M).ok());

  auto I = createInstance(M, EngineKind::Flat);
  I->enableProfiling();
  ASSERT_TRUE(I->initialize().ok());
  ASSERT_TRUE(bool(I->invokeByName("f", {})));
  ASSERT_EQ(I->functionProfiles().size(), 1u);
  EXPECT_EQ(I->functionProfiles()[0].Invocations, 1u);
  EXPECT_EQ(I->functionProfiles()[0].LoopHeads, 3u);

  I->resetProfiles();
  EXPECT_EQ(I->functionProfiles()[0].Invocations, 0u);
  EXPECT_EQ(I->functionProfiles()[0].LoopHeads, 0u);

  // Counters keep working after a reset — the table is reused, not torn
  // down, so a workload shift can re-trigger tiering.
  ASSERT_TRUE(bool(I->invokeByName("f", {})));
  EXPECT_EQ(I->functionProfiles()[0].Invocations, 1u);
  EXPECT_EQ(I->functionProfiles()[0].LoopHeads, 3u);
}

#if RW_OBS_ENABLED

static_assert(obs::compiledIn(), "ON build must report compiledIn()");

namespace {

/// One parsed duration event from traceJson() output.
struct Ev {
  uint64_t Tid;
  std::string Name;
  double Ts, Dur; ///< Microseconds.
};

/// Minimal parser for the trace_event JSON this repo emits: every
/// duration event is written by one snprintf with a fixed field order
/// (ph,name,cat,pid,tid,ts,dur), so scanning for the prefix is exact.
std::vector<Ev> parseTrace(const std::string &J) {
  std::vector<Ev> Out;
  const std::string Prefix = "{\"ph\":\"X\",\"name\":\"";
  size_t At = 0;
  while ((At = J.find(Prefix, At)) != std::string::npos) {
    At += Prefix.size();
    size_t End = J.find('"', At);
    Ev E;
    E.Name = J.substr(At, End - At);
    size_t P = J.find("\"tid\":", End);
    E.Tid = std::strtoull(J.c_str() + P + 6, nullptr, 10);
    P = J.find("\"ts\":", End);
    E.Ts = std::strtod(J.c_str() + P + 5, nullptr);
    P = J.find("\"dur\":", End);
    E.Dur = std::strtod(J.c_str() + P + 6, nullptr);
    Out.push_back(std::move(E));
    At = End;
  }
  return Out;
}

/// RAII: turn span timing + tracing on for one test, restore off after.
struct TracingOn {
  TracingOn() {
    obs::setEnabled(true);
    obs::setTracing(true);
    obs::clearTrace();
  }
  ~TracingOn() {
    obs::setTracing(false);
    obs::setEnabled(false);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Sharded metric arithmetic under contention
//===----------------------------------------------------------------------===//

TEST(Obs, CounterExactUnder8ThreadContention) {
  static obs::Counter C("test.contended_counter");
  uint64_t Before = C.value();
  constexpr unsigned Threads = 8, PerThread = 50000;
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back([] {
      static obs::Counter Same("test.contended_counter"); // Shares the slot.
      for (unsigned I = 0; I < PerThread; ++I)
        Same.add(1 + (I & 3)); // Mixed increments: 1+2+3+4 per 4 adds.
    });
  for (std::thread &T : Ts)
    T.join();
  uint64_t Added = uint64_t(Threads) * (PerThread / 4) * 10;
  EXPECT_EQ(C.value(), Before + Added);

  obs::Snapshot S = obs::snapshot();
  const obs::Metric *M = find(S, "test.contended_counter");
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->Kind, obs::MetricKind::Counter);
  EXPECT_EQ(M->Value, Before + Added);
}

TEST(Obs, HistogramCountSumAndBucketsUnderContention) {
  static obs::Histogram H("test.contended_hist");
  // Samples chosen so each lands in a distinct sub-bucket (the first
  // three are exact single-value buckets below 16).
  static constexpr uint64_t Samples[] = {1, 2, 4, 1000000};
  constexpr unsigned Threads = 8, Rounds = 10000;
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back([] {
      for (unsigned I = 0; I < Rounds; ++I)
        for (uint64_t S : Samples)
          H.record(S);
    });
  for (std::thread &T : Ts)
    T.join();

  obs::Snapshot S = obs::snapshot();
  const obs::Metric *M = find(S, "test.contended_hist");
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->Kind, obs::MetricKind::Histogram);
  uint64_t N = uint64_t(Threads) * Rounds;
  EXPECT_EQ(M->Value, N * 4);
  EXPECT_EQ(M->Sum, N * (1 + 2 + 4 + 1000000));
  ASSERT_EQ(M->Buckets.size(), obs::HistBucketCount);
  EXPECT_EQ(M->Buckets[obs::histBucketIndex(1)], N);
  EXPECT_EQ(M->Buckets[obs::histBucketIndex(2)], N);
  EXPECT_EQ(M->Buckets[obs::histBucketIndex(4)], N);
  EXPECT_EQ(M->Buckets[obs::histBucketIndex(1000000)], N);
  // The exact buckets really are index == value below 16.
  EXPECT_EQ(obs::histBucketIndex(1), 1u);
  EXPECT_EQ(obs::histBucketIndex(2), 2u);
  EXPECT_EQ(obs::histBucketIndex(4), 4u);
}

TEST(Obs, GaugeKeepsLastValue) {
  static obs::Gauge G("test.gauge");
  G.set(42);
  EXPECT_EQ(G.value(), 42u);
  G.set(7);
  EXPECT_EQ(G.value(), 7u);
  obs::Snapshot S = obs::snapshot();
  const obs::Metric *M = find(S, "test.gauge");
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->Kind, obs::MetricKind::Gauge);
  EXPECT_EQ(M->Value, 7u);
}

TEST(Obs, HistBucketArithmetic) {
  // Every bucket's [lo, hi] range round-trips through histBucketIndex,
  // buckets tile the value space in order, and sub-bucket width is at
  // most 1/16 of the bucket's smallest value (the ~6% error bound).
  for (unsigned I = 0; I < obs::HistBucketCount; ++I) {
    uint64_t Lo = obs::histBucketLo(I), Hi = obs::histBucketHi(I);
    ASSERT_LE(Lo, Hi);
    EXPECT_EQ(obs::histBucketIndex(Lo), I);
    EXPECT_EQ(obs::histBucketIndex(Hi), I);
    if (I > 0)
      EXPECT_EQ(obs::histBucketHi(I - 1) + 1, Lo);
    if (Lo >= 16)
      EXPECT_LE(Hi - Lo + 1, Lo / 16);
  }
  EXPECT_EQ(obs::histBucketHi(obs::HistBucketCount - 1), ~0ull);
  // Spot checks: exact below 16, 16-wide linear sub-buckets after.
  EXPECT_EQ(obs::histBucketIndex(0), 0u);
  EXPECT_EQ(obs::histBucketIndex(15), 15u);
  EXPECT_EQ(obs::histBucketLo(obs::histBucketIndex(800)), 800u);
  EXPECT_EQ(obs::histBucketHi(obs::histBucketIndex(800)), 831u);
}

TEST(Obs, HistQuantileInterpolatesWithinBucket) {
  obs::Metric M;
  M.Kind = obs::MetricKind::Histogram;
  M.Buckets.assign(obs::HistBucketCount, 0);
  // 90 samples at value 5 (an exact bucket), 10 at value 800 (a 32-wide
  // sub-bucket, [800, 831]).
  M.Buckets[5] = 90;
  M.Buckets[obs::histBucketIndex(800)] = 10;
  M.Value = 100;
  // Exact-arithmetic pins: a quantile landing in a width-1 bucket is the
  // value itself, not a log2 bound (the old estimator returned 7 here).
  EXPECT_EQ(obs::histQuantile(M, 0.0), 5u);
  EXPECT_EQ(obs::histQuantile(M, 0.5), 5u);
  EXPECT_EQ(obs::histQuantile(M, 0.89), 5u);
  // Interpolated: p99 stays inside the 800-bucket's range instead of
  // snapping to the old log2 upper bound 1023 (~28% high).
  uint64_t P99 = obs::histQuantile(M, 0.99);
  EXPECT_GE(P99, 800u);
  EXPECT_LE(P99, 831u);
  EXPECT_EQ(obs::histQuantile(obs::Metric{}, 0.5), 0u);

  // Regression for the satellite bias case: a tight distribution near a
  // power-of-two's lower edge. All mass at 520: the old estimator said
  // p99 <= 1023 (+96%); sub-buckets bound it to [512, 543] (<= ~4.4%).
  obs::Metric T;
  T.Kind = obs::MetricKind::Histogram;
  T.Buckets.assign(obs::HistBucketCount, 0);
  T.Buckets[obs::histBucketIndex(520)] = 1000;
  T.Value = 1000;
  for (double Q : {0.5, 0.99, 0.999}) {
    uint64_t Est = obs::histQuantile(T, Q);
    EXPECT_GE(Est, 512u);
    EXPECT_LE(Est, 543u);
    // Within the documented ~6.25% relative error of the true 520.
    EXPECT_LE(Est > 520 ? Est - 520 : 520 - Est, 520 / 16 + 1);
  }
}

//===----------------------------------------------------------------------===//
// Pipeline tracing: deterministic span set, nesting, worker attribution
//===----------------------------------------------------------------------===//

TEST(Obs, SpanSetDeterministicAcrossPoolSizes) {
  AdmissionSet Set(8);
  size_t TotalFuncs = 0;
  for (const ir::Module *M : Set.Ptrs)
    TotalFuncs += M->Funcs.size();

  TracingOn Guard;
  std::map<std::string, unsigned> Counts[3];
  unsigned Sizes[3] = {1, 3, 8};
  for (unsigned I = 0; I < 3; ++I) {
    obs::clearTrace();
    support::ThreadPool Pool(Sizes[I]);
    std::vector<Status> Out = typing::checkModules(Set.Ptrs, Pool);
    for (const Status &S : Out)
      ASSERT_TRUE(S.ok()) << S.error().message();
    for (const Ev &E : parseTrace(obs::traceJson()))
      ++Counts[I][E.Name];
  }
  // One batch umbrella, one span per function work item — the same
  // multiset whether one worker ran everything or eight raced.
  EXPECT_EQ(Counts[0]["check_batch"], 1u);
  EXPECT_EQ(Counts[0]["check_fn"], TotalFuncs);
  EXPECT_EQ(Counts[0], Counts[1]);
  EXPECT_EQ(Counts[0], Counts[2]);
}

TEST(Obs, SpansNestInsideBatchUmbrella) {
  AdmissionSet Set(6);
  TracingOn Guard;
  support::ThreadPool Pool(3);
  (void)typing::checkModules(Set.Ptrs, Pool);

  std::vector<Ev> Evs = parseTrace(obs::traceJson());
  const Ev *Batch = nullptr;
  for (const Ev &E : Evs)
    if (E.Name == "check_batch")
      Batch = &E;
  ASSERT_NE(Batch, nullptr);
  // The steady clock is process-global, so containment holds across
  // threads: every function check ran inside the batch call. 0.002us
  // covers the %.3f rounding of the microsecond timestamps.
  for (const Ev &E : Evs) {
    if (E.Name != "check_fn")
      continue;
    EXPECT_GE(E.Ts + 0.002, Batch->Ts) << "check_fn started before batch";
    EXPECT_LE(E.Ts + E.Dur, Batch->Ts + Batch->Dur + 0.002)
        << "check_fn outlived batch";
  }
}

// A cold admission checks each module exactly once: one pooled batch
// (check_batch) or one check_module per module, never both — through
// instantiateLowered with and without a pool, and through the cached
// admitCached helper c6 measures.
TEST(Obs, ColdAdmissionChecksEachModuleOnce) {
  AdmissionSet Set(8);
  TracingOn Guard;
  auto checks = [] {
    std::map<std::string, unsigned> N;
    for (const Ev &E : parseTrace(obs::traceJson()))
      ++N[E.Name];
    return std::make_pair(N["check_batch"], N["check_module"]);
  };
  const std::pair<unsigned, unsigned> Batch{1, 0}, PerModule{0, 8};
  support::ThreadPool Pool(3);

  obs::clearTrace();
  link::LinkOptions Plain;
  ASSERT_TRUE(link::instantiateLowered(Set.Ptrs, Plain));
  EXPECT_EQ(checks(), PerModule);

  obs::clearTrace();
  link::LinkOptions Pooled;
  Pooled.Pool = &Pool;
  ASSERT_TRUE(link::instantiateLowered(Set.Ptrs, Pooled));
  EXPECT_EQ(checks(), Batch);

  obs::clearTrace();
  cache::AdmissionCache C;
  ASSERT_TRUE(rwbench::admitCached(Set, Pool, C));
  EXPECT_EQ(checks(), Batch);
  // A warm admission checks nothing.
  obs::clearTrace();
  ASSERT_TRUE(rwbench::admitCached(Set, Pool, C));
  EXPECT_EQ(checks(), std::make_pair(0u, 0u));
}

TEST(Obs, WorkerThreadsAppearUnderPoolNames) {
  TracingOn Guard;
  // Workers call setThreadName("pool-N") at startup (N is 1-based), which
  // registers their ring buffer — the names appear in the trace even
  // before any span lands on them.
  support::ThreadPool Pool(2);
  std::string J = obs::traceJson();
  EXPECT_NE(J.find("\"name\":\"pool-1\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"name\":\"pool-2\""), std::string::npos) << J;

  // And an explicitly named helper thread is attributed by name.
  std::thread T([] {
    obs::setThreadName("obs-helper");
    OBS_SPAN("helper_phase");
  });
  T.join();
  J = obs::traceJson();
  EXPECT_NE(J.find("\"name\":\"obs-helper\""), std::string::npos);
  bool Found = false;
  for (const Ev &E : parseTrace(J))
    if (E.Name == "helper_phase")
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(Obs, FirstSpanOnFreshThreadYieldsWellFormedTrace) {
  // A thread's ring is allocated, not zero-filled, by its first event:
  // the trace must hold exactly that event for the thread, and nothing
  // read from the unwritten slots.
  TracingOn Guard;
  std::thread T([] { OBS_SPAN("first_on_thread", 7); });
  T.join();
  std::string J = obs::traceJson();

  // Balanced braces and brackets outside strings, one top-level value.
  std::string Open;
  bool InStr = false;
  for (size_t I = 0; I < J.size(); ++I) {
    char C = J[I];
    if (InStr) {
      if (C == '\\')
        ++I;
      else if (C == '"')
        InStr = false;
    } else if (C == '"') {
      InStr = true;
    } else if (C == '{' || C == '[') {
      Open.push_back(C == '{' ? '}' : ']');
    } else if (C == '}' || C == ']') {
      ASSERT_FALSE(Open.empty()) << J;
      ASSERT_EQ(Open.back(), C) << J;
      Open.pop_back();
      ASSERT_TRUE(!Open.empty() || I + 1 == J.size()) << J;
    }
  }
  EXPECT_TRUE(Open.empty() && !InStr) << J;

  std::vector<Ev> Evs = parseTrace(J);
  auto It = std::find_if(Evs.begin(), Evs.end(), [](const Ev &E) {
    return E.Name == "first_on_thread";
  });
  ASSERT_NE(It, Evs.end()) << J;
  EXPECT_GT(It->Ts, 0.0);
  EXPECT_GE(It->Dur, 0.0);
  EXPECT_EQ(std::count_if(Evs.begin(), Evs.end(),
                          [&](const Ev &E) { return E.Tid == It->Tid; }),
            1);
  EXPECT_NE(J.find("\"args\":{\"a\":7,\"b\":0}"), std::string::npos) << J;
}

TEST(Obs, ClearTraceDropsEventsKeepsBuffers) {
  TracingOn Guard;
  { OBS_SPAN("transient_phase"); }
  EXPECT_GT(obs::traceEventCount(), 0u);
  obs::clearTrace();
  EXPECT_EQ(obs::traceEventCount(), 0u);
  { OBS_SPAN("transient_phase"); }
  EXPECT_EQ(obs::traceEventCount(), 1u);
}

TEST(Obs, DisabledSpansRecordNothing) {
  obs::setEnabled(false);
  obs::clearTrace();
  size_t Before = obs::traceEventCount();
  { OBS_SPAN("should_not_appear"); }
  EXPECT_EQ(obs::traceEventCount(), Before);
}

//===----------------------------------------------------------------------===//
// Snapshot sources: cache, arena, per-instance profiles
//===----------------------------------------------------------------------===//

TEST(Obs, SnapshotSamplesCacheAndArenaSources) {
  AdmissionSet Set(4);
  support::ThreadPool Pool(2);
  cache::AdmissionCache C;
  ASSERT_TRUE(rwbench::admitCached(Set, Pool, C)); // Cold: one miss.
  ASSERT_TRUE(rwbench::admitCached(Set, Pool, C)); // Warm: one hit.

  obs::Snapshot S = obs::snapshot();
  const obs::Metric *Hits = find(S, "cache.hits");
  const obs::Metric *Misses = find(S, "cache.misses");
  const obs::Metric *Bytes = find(S, "cache.bytes");
  ASSERT_NE(Hits, nullptr);
  ASSERT_NE(Misses, nullptr);
  ASSERT_NE(Bytes, nullptr);
  EXPECT_EQ(Hits->Value, 1u);
  EXPECT_EQ(Misses->Value, 1u);
  EXPECT_EQ(Bytes->Value, C.stats().Bytes);
  // The global arena registered its source on first use.
  bool Arena = false;
  for (const obs::Metric &M : S.Metrics)
    if (M.Name.rfind("arena.", 0) == 0)
      Arena = true;
  EXPECT_TRUE(Arena);

  // The cache unregisters on destruction: no dangling source afterwards.
  { cache::AdmissionCache Dying; }
  obs::Snapshot After = obs::snapshot();
  unsigned CacheSources = 0;
  for (const obs::Metric &M : After.Metrics)
    if (M.Name == "cache.hits" || M.Name.rfind("cache#", 0) == 0)
      ++CacheSources;
  EXPECT_EQ(CacheSources, 1u) << "only the live cache may be sampled";
}

TEST(Obs, RenderersCoverSnapshotMetrics) {
  static obs::Counter C("test.rendered_counter");
  C.add(5);
  obs::Snapshot S = obs::snapshot();
  std::string Text = obs::renderText(S);
  std::string Json = obs::renderJson(S);
  EXPECT_NE(Text.find("test.rendered_counter"), std::string::npos);
  EXPECT_NE(Json.find("\"test.rendered_counter\""), std::string::npos);
  EXPECT_NE(Json.find("\"metrics\""), std::string::npos);
  EXPECT_EQ(Json.front(), '{');
  EXPECT_EQ(Json.back(), '}');
}

//===----------------------------------------------------------------------===//
// Execution profiles: flat/tree parity + snapshot surfacing
//===----------------------------------------------------------------------===//

TEST(Obs, FunctionProfilesIdenticalAcrossEngines) {
  using namespace rw::wasm;
  // f0: a 5-iteration counting loop, then two calls of f1; f1: empty.
  WModule M;
  uint32_t TV = M.addType({{}, {}});
  M.Funcs.push_back(
      {TV,
       {ValType::I32},
       {WInst::block({{}, {}},
                     {WInst::loop({{}, {}},
                                  {WInst::idx(Op::LocalGet, 0), WInst::i32c(1),
                                   WInst::mk(Op::I32Add),
                                   WInst::idx(Op::LocalTee, 0), WInst::i32c(5),
                                   WInst::mk(Op::I32LtS),
                                   WInst::idx(Op::BrIf, 0)})}),
        WInst::idx(Op::Call, 1), WInst::idx(Op::Call, 1)}});
  M.Funcs.push_back({TV, {}, {WInst::mk(Op::Nop)}});
  M.Exports.push_back({"f", ExportKind::Func, 0});
  ASSERT_TRUE(validate(M).ok()) << validate(M).error().message();

  constexpr EngineKind Both[] = {EngineKind::Tree, EngineKind::Flat};
  std::vector<FunctionProfile> Seen[2];
  for (EngineKind K : Both) {
    auto I = createInstance(M, K);
    I->enableProfiling();
    ASSERT_TRUE(I->initialize().ok());
    ASSERT_TRUE(bool(I->invokeByName("f", {})));

    const std::vector<FunctionProfile> &P = I->functionProfiles();
    ASSERT_EQ(P.size(), 2u);
    EXPECT_EQ(P[0].Invocations, 1u);
    EXPECT_EQ(P[0].LoopHeads, 5u); // One fall-in + four back-edges.
    EXPECT_EQ(P[1].Invocations, 2u);
    EXPECT_EQ(P[1].LoopHeads, 0u);
    Seen[K == EngineKind::Flat] = P;

    // While the instance lives, its profile table is an obs source.
    obs::Snapshot S = obs::snapshot();
    const obs::Metric *Inv = find(S, "exec.profile.func1.inv");
    ASSERT_NE(Inv, nullptr);
    EXPECT_EQ(Inv->Value, 2u);
  }
  for (size_t F = 0; F < 2; ++F) {
    EXPECT_EQ(Seen[0][F].Invocations, Seen[1][F].Invocations);
    EXPECT_EQ(Seen[0][F].LoopHeads, Seen[1][F].LoopHeads);
  }
  // Both instances are gone: their sources must be too.
  EXPECT_EQ(find(obs::snapshot(), "exec.profile.func1.inv"), nullptr);
}

TEST(Obs, ProfileParityOnDifferentialWorkload) {
  using namespace rw::wasm;
  // The lowered bench loop: check → lower → run on both engines with
  // profiling; invocation/back-edge counts must agree function-for-
  // function even through the full pipeline's generated control flow.
  ir::Module Src = rwbench::loopModule(17);
  support::ThreadPool Pool(2);
  link::LinkOptions Opts;
  Opts.Pool = &Pool;
  auto Art = link::buildArtifact({&Src}, Opts);
  ASSERT_TRUE(bool(Art)) << Art.error().message();
  const lower::LoweredProgram *LP = &(*Art)->Program;
  ASSERT_TRUE(validate(LP->Module).ok());

  constexpr EngineKind Both[] = {EngineKind::Tree, EngineKind::Flat};
  std::vector<FunctionProfile> Seen[2];
  for (EngineKind K : Both) {
    auto I = createInstance(LP->Module, K);
    I->enableProfiling();
    ASSERT_TRUE(I->initialize().ok());
    auto R = I->invokeByName("loopmod.main", {});
    ASSERT_TRUE(bool(R)) << R.error().message();
    Seen[K == EngineKind::Flat] = I->functionProfiles();
  }
  ASSERT_EQ(Seen[0].size(), Seen[1].size());
  uint64_t TotalInv = 0, TotalLoops = 0;
  for (size_t F = 0; F < Seen[0].size(); ++F) {
    EXPECT_EQ(Seen[0][F].Invocations, Seen[1][F].Invocations) << "func " << F;
    EXPECT_EQ(Seen[0][F].LoopHeads, Seen[1][F].LoopHeads) << "func " << F;
    TotalInv += Seen[0][F].Invocations;
    TotalLoops += Seen[0][F].LoopHeads;
  }
  EXPECT_GE(TotalInv, 1u);
  EXPECT_GE(TotalLoops, 17u); // The source loop runs 17 iterations.
}

#else // !RW_OBS_ENABLED — the compile-out contract.

static_assert(!obs::compiledIn(), "OFF build must report !compiledIn()");

TEST(ObsOff, EverythingCollapsesToStubs) {
  // OBS_SPAN must compile to nothing in any statement position.
  OBS_SPAN("gone", 1, 2);
  static obs::Counter C("off.counter");
  C.add(99);
  EXPECT_EQ(C.value(), 0u);
  static obs::Gauge G("off.gauge");
  G.set(5);
  EXPECT_EQ(G.value(), 0u);
  obs::Histogram("off.hist").record(7);

  obs::setEnabled(true);
  EXPECT_FALSE(obs::enabled());
  obs::setTracing(true);
  EXPECT_FALSE(obs::tracing());

  EXPECT_EQ(obs::registerSource("x", [](const obs::EmitFn &) {}), 0u);
  obs::unregisterSource(0);
  EXPECT_TRUE(obs::snapshot().Metrics.empty());
  EXPECT_EQ(obs::traceJson(), "{\"traceEvents\":[]}");
  EXPECT_EQ(obs::traceEventCount(), 0u);
  obs::clearTrace();

  // PR 9 surface: sampling, drop counters, and the Prometheus renderer
  // collapse too (select() says "record" so call sites stay branchless).
  obs::setTraceSampling(8);
  EXPECT_EQ(obs::traceSampling(), 1u);
  EXPECT_TRUE(obs::traceSampleSelect(0x1234));
  EXPECT_FALSE(obs::traceSampleActive());
  {
    obs::TraceSampleScope Scope(false);
    EXPECT_FALSE(obs::traceSampleActive());
  }
  EXPECT_EQ(obs::traceDroppedCount(), 0u);
  EXPECT_EQ(obs::renderPrometheus(obs::Snapshot{}), "");
}

TEST(ObsOff, TimelineCollapsesToStub) {
  obs::Timeline T({/*IntervalMs=*/1, /*Capacity=*/4});
  T.start();
  T.sampleNow();
  T.stop();
  EXPECT_EQ(T.sampleCount(), 0u);
  EXPECT_EQ(T.dropped(), 0u);
  EXPECT_TRUE(T.deltas().empty());
  EXPECT_TRUE(T.base().empty());
  EXPECT_TRUE(T.latest().empty());
  EXPECT_EQ(T.exportJson(), "{\"timeline\":{}}");
}

TEST(ObsOff, PureHistogramHelpersStillWork) {
  // The bucket arithmetic and name/label escaping helpers are pure
  // header inlines, usable (e.g. by offline tooling) in either config.
  EXPECT_EQ(obs::histBucketIndex(5), 5u);
  EXPECT_EQ(obs::histBucketLo(obs::histBucketIndex(800)), 800u);
  EXPECT_EQ(obs::promSanitizeName("cache.shard0.hits"), "cache_shard0_hits");
  EXPECT_EQ(obs::promEscapeLabel("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(ObsOff, PipelineStillRunsWithoutRecording) {
  AdmissionSet Set(4);
  support::ThreadPool Pool(2);
  for (const Status &S : typing::checkModules(Set.Ptrs, Pool))
    ASSERT_TRUE(S.ok()) << S.error().message();
  EXPECT_TRUE(obs::snapshot().Metrics.empty());
}

#endif // RW_OBS_ENABLED
