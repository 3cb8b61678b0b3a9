//===- tests/obs_export_test.cpp - Exporters, timeline, sampling ----------===//
//
// Part of the RichWasm reproduction. MIT license.
//
// The server-grade half of the obs layer (PR 9, DESIGN.md §13):
//
//  * Prometheus text exposition — a golden-file test over a hand-built
//    snapshot (counter/gauge/cumulative-le histogram), label lifting for
//    uniquified sources ("cache#2" → instance) and shard segments
//    ("shard3" → shard label), label-value escaping, and a promtool-style
//    line lint over the live registry's exposition;
//  * obs::Timeline — delta correctness, ring wraparound folding evicted
//    deltas into base(), the reconciliation invariant
//    base() + Σdeltas() == latest() (mod 2^64) under 8-thread counter
//    contention, and the background sampler's start/stop lifetime;
//  * head-sampled tracing — traceSampleSelect is a pure function of the
//    content hash (deterministic, ~1/N rate), so the set of traced
//    admissions through ingest::admit is identical for pool sizes 1/3/8.
//
// Under -DRW_OBS=OFF only the stub-contract checks remain: every symbol
// this file exercises must still link and collapse to its inert form.
//
//===----------------------------------------------------------------------===//

#include "obs/Obs.h"
#include "obs/Timeline.h"

#include "bench/Common.h"
#include "ingest/Ingest.h"
#include "serial/Serial.h"
#include "support/Hashing.h"

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <thread>
#include <vector>

using namespace rw;

namespace {

/// base() + Σdeltas() == latest(), per key, mod 2^64. Keys absent from a
/// map contribute 0 (a metric born after construction has no base).
void expectReconciles(const obs::Timeline &T) {
  std::map<std::string, uint64_t> Acc = T.base();
  for (const obs::TimelineDelta &D : T.deltas())
    for (const auto &KV : D.Changes)
      Acc[KV.first] += KV.second; // Wrapping on purpose.
  std::map<std::string, uint64_t> Latest = T.latest();
  for (const auto &KV : Latest)
    EXPECT_EQ(Acc[KV.first], KV.second) << KV.first;
  for (const auto &KV : Acc)
    EXPECT_EQ(Latest.count(KV.first), 1u) << KV.first;
}

} // namespace

#if RW_OBS_ENABLED

namespace {

obs::Metric counterM(const char *Name, uint64_t V) {
  obs::Metric M;
  M.Name = Name;
  M.Kind = obs::MetricKind::Counter;
  M.Value = V;
  return M;
}

obs::Metric gaugeM(const char *Name, uint64_t V) {
  obs::Metric M = counterM(Name, V);
  M.Kind = obs::MetricKind::Gauge;
  return M;
}

/// A histogram metric with samples placed by value (bucketed exactly as
/// Histogram::record would).
obs::Metric histM(const char *Name,
                  const std::vector<std::pair<uint64_t, uint64_t>> &Samples) {
  obs::Metric M;
  M.Name = Name;
  M.Kind = obs::MetricKind::Histogram;
  M.Buckets.assign(obs::HistBucketCount, 0);
  for (const auto &VC : Samples) {
    M.Buckets[obs::histBucketIndex(VC.first)] += VC.second;
    M.Value += VC.second;
    M.Sum += VC.first * VC.second;
  }
  return M;
}

} // namespace

TEST(ObsExport, PrometheusGoldenExposition) {
  obs::Snapshot S;
  S.Metrics.push_back(counterM("ingest.admit.ok", 7));
  S.Metrics.push_back(gaugeM("arena.bytes", 4096));
  // 60 samples at 5 (exact bucket 5) and 40 at 650 (bucket [640, 671]).
  S.Metrics.push_back(histM("admission.ns", {{5, 60}, {650, 40}}));
  S.Metrics.push_back(counterM("cache#2.shard0.hits", 11));
  S.Metrics.push_back(counterM("cache#2.shard1.hits", 13));

  const char *Golden = "# TYPE rw_ingest_admit_ok counter\n"
                       "rw_ingest_admit_ok 7\n"
                       "# TYPE rw_arena_bytes gauge\n"
                       "rw_arena_bytes 4096\n"
                       "# TYPE rw_admission_ns histogram\n"
                       "rw_admission_ns_bucket{le=\"5\"} 60\n"
                       "rw_admission_ns_bucket{le=\"671\"} 100\n"
                       "rw_admission_ns_bucket{le=\"+Inf\"} 100\n"
                       "rw_admission_ns_sum 26300\n"
                       "rw_admission_ns_count 100\n"
                       "# TYPE rw_cache_hits counter\n"
                       "rw_cache_hits{instance=\"cache#2\",shard=\"0\"} 11\n"
                       "rw_cache_hits{instance=\"cache#2\",shard=\"1\"} 13\n";
  EXPECT_EQ(obs::renderPrometheus(S), Golden);
}

TEST(ObsExport, PrometheusHistogramLabelsMergeWithLe) {
  obs::Snapshot S;
  S.Metrics.push_back(histM("jit#4.compile.ns", {{3, 2}}));
  const char *Golden =
      "# TYPE rw_jit_compile_ns histogram\n"
      "rw_jit_compile_ns_bucket{instance=\"jit#4\",le=\"3\"} 2\n"
      "rw_jit_compile_ns_bucket{instance=\"jit#4\",le=\"+Inf\"} 2\n"
      "rw_jit_compile_ns_sum{instance=\"jit#4\"} 6\n"
      "rw_jit_compile_ns_count{instance=\"jit#4\"} 2\n";
  EXPECT_EQ(obs::renderPrometheus(S), Golden);
}

TEST(ObsExport, PrometheusLabelValuesAreEscaped) {
  obs::Snapshot S;
  S.Metrics.push_back(counterM("src\"x#1.hits", 3));
  std::string Out = obs::renderPrometheus(S);
  // The uniquified first segment is lifted verbatim into the instance
  // label (escaped); the base name is sanitized.
  EXPECT_NE(Out.find("rw_src_x_hits{instance=\"src\\\"x#1\"} 3\n"),
            std::string::npos)
      << Out;
}

TEST(ObsExport, PrometheusInfStaysMonotoneWhenCountLagsBuckets) {
  // A racing snapshot can see the count word behind the bucket sums; the
  // +Inf series must still be >= the last le series.
  obs::Metric M = histM("racy.ns", {{5, 10}});
  M.Value = 4; // Torn read: buckets say 10, count says 4.
  obs::Snapshot S;
  S.Metrics.push_back(M);
  std::string Out = obs::renderPrometheus(S);
  EXPECT_NE(Out.find("rw_racy_ns_bucket{le=\"+Inf\"} 10\n"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("rw_racy_ns_count 4\n"), std::string::npos) << Out;
}

namespace {

/// A promtool-style line lint: every line is either a # TYPE declaration
/// or `<name>[{label="value",...}] <uint64>`.
void lintExposition(const std::string &Text) {
  auto validName = [](const std::string &N) {
    if (N.empty() || std::isdigit(static_cast<unsigned char>(N[0])))
      return false;
    for (char C : N)
      if (!(std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
            C == ':'))
        return false;
    return true;
  };
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    ASSERT_FALSE(Line.empty());
    if (Line.rfind("# TYPE ", 0) == 0) {
      std::istringstream L(Line);
      std::string Hash, Type, Name, Kind, Extra;
      L >> Hash >> Type >> Name >> Kind;
      EXPECT_TRUE(validName(Name)) << Line;
      EXPECT_TRUE(Kind == "counter" || Kind == "gauge" || Kind == "histogram")
          << Line;
      EXPECT_FALSE(L >> Extra) << Line;
      continue;
    }
    size_t Sp = Line.rfind(' ');
    ASSERT_NE(Sp, std::string::npos) << Line;
    std::string Series = Line.substr(0, Sp);
    std::string Val = Line.substr(Sp + 1);
    EXPECT_FALSE(Val.empty()) << Line;
    EXPECT_EQ(Val.find_first_not_of("0123456789"), std::string::npos) << Line;
    size_t Brace = Series.find('{');
    std::string Name = Series.substr(0, Brace);
    EXPECT_TRUE(validName(Name)) << Line;
    if (Brace != std::string::npos) {
      ASSERT_EQ(Series.back(), '}') << Line;
      std::string Labels = Series.substr(Brace + 1, Series.size() - Brace - 2);
      // Each label is key="value"; values may contain escaped quotes.
      size_t Pos = 0;
      while (Pos < Labels.size()) {
        size_t Eq = Labels.find('=', Pos);
        ASSERT_NE(Eq, std::string::npos) << Line;
        ASSERT_LT(Eq + 1, Labels.size()) << Line;
        ASSERT_EQ(Labels[Eq + 1], '"') << Line;
        size_t End = Eq + 2;
        while (End < Labels.size() &&
               !(Labels[End] == '"' && Labels[End - 1] != '\\'))
          ++End;
        ASSERT_LT(End, Labels.size()) << Line;
        Pos = End + 1;
        if (Pos < Labels.size()) {
          ASSERT_EQ(Labels[Pos], ',') << Line;
          ++Pos;
        }
      }
    }
  }
}

} // namespace

TEST(ObsExport, PrometheusLiveRegistryPassesLint) {
  obs::setEnabled(true);
  static obs::Counter C("export_test.lint.hits");
  static obs::Histogram H("export_test.lint.ns");
  C.add(3);
  for (uint64_t V : {1ull, 70ull, 5000ull, 123456789ull})
    H.record(V);
  std::string Out = obs::renderPrometheus(obs::snapshot());
  ASSERT_FALSE(Out.empty());
  lintExposition(Out);
  EXPECT_NE(Out.find("# TYPE rw_export_test_lint_ns histogram\n"),
            std::string::npos);
  EXPECT_NE(Out.find("rw_export_test_lint_hits"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Timeline
//===----------------------------------------------------------------------===//

TEST(ObsTimeline, DeltasCaptureChangesAndReconcile) {
  obs::setEnabled(true);
  static obs::Counter C("export_test.tl.basic");
  C.add(1); // Ensure the slot exists before the baseline.
  obs::Timeline T({/*IntervalMs=*/60000, /*Capacity=*/16});
  C.add(5);
  T.sampleNow();
  ASSERT_EQ(T.sampleCount(), 1u);
  std::vector<obs::TimelineDelta> Ds = T.deltas();
  ASSERT_EQ(Ds.size(), 1u);
  EXPECT_EQ(Ds[0].Seq, 1u);
  EXPECT_GE(Ds[0].T1Ns, Ds[0].T0Ns);
  uint64_t Seen = 0;
  for (const auto &KV : Ds[0].Changes)
    if (KV.first == "export_test.tl.basic")
      Seen = KV.second;
  EXPECT_EQ(Seen, 5u);
  expectReconciles(T);
  // An idle interval still produces a (possibly empty for this key) delta
  // and keeps the invariant.
  T.sampleNow();
  EXPECT_EQ(T.sampleCount(), 2u);
  expectReconciles(T);
}

TEST(ObsTimeline, HistogramsReduceToScalarViews) {
  obs::setEnabled(true);
  static obs::Histogram H("export_test.tl.hist");
  H.record(1); // Materialize before baseline.
  obs::Timeline T({60000, 16});
  H.record(10);
  H.record(30);
  T.sampleNow();
  std::map<std::string, uint64_t> Latest = T.latest();
  ASSERT_TRUE(Latest.count("export_test.tl.hist.count"));
  ASSERT_TRUE(Latest.count("export_test.tl.hist.sum"));
  std::vector<obs::TimelineDelta> Ds = T.deltas();
  uint64_t DCount = 0, DSum = 0;
  for (const auto &KV : Ds[0].Changes) {
    if (KV.first == "export_test.tl.hist.count")
      DCount = KV.second;
    if (KV.first == "export_test.tl.hist.sum")
      DSum = KV.second;
  }
  EXPECT_EQ(DCount, 2u);
  EXPECT_EQ(DSum, 40u);
}

TEST(ObsTimeline, WraparoundFoldsEvictedDeltasIntoBase) {
  obs::setEnabled(true);
  static obs::Counter C("export_test.tl.wrap");
  C.add(1);
  obs::Timeline T({60000, /*Capacity=*/3});
  uint64_t BaseAtBirth = T.base()["export_test.tl.wrap"];
  for (unsigned I = 0; I < 8; ++I) {
    C.add(I + 1);
    T.sampleNow();
  }
  EXPECT_EQ(T.sampleCount(), 8u);
  EXPECT_EQ(T.deltas().size(), 3u);
  EXPECT_EQ(T.dropped(), 5u);
  // Evicted deltas (1+2+3+4+5 = 15) live on in base().
  EXPECT_EQ(T.base()["export_test.tl.wrap"], BaseAtBirth + 15);
  expectReconciles(T);
  std::string J = T.exportJson();
  EXPECT_NE(J.find("\"dropped\":5"), std::string::npos) << J;
  EXPECT_NE(J.find("\"samples\":8"), std::string::npos) << J;
}

TEST(ObsTimeline, ReconcilesUnderEightThreadContention) {
  obs::setEnabled(true);
  static obs::Counter C("export_test.tl.contend");
  static obs::Histogram H("export_test.tl.contend.ns");
  C.add(1);
  H.record(1);
  obs::Timeline T({60000, /*Capacity=*/4}); // Small ring: force eviction.
  std::vector<std::thread> Threads;
  for (unsigned W = 0; W < 8; ++W)
    Threads.emplace_back([W] {
      for (unsigned I = 0; I < 2000; ++I) {
        C.add(1);
        H.record(W * 100 + I % 37);
      }
    });
  for (unsigned I = 0; I < 12; ++I)
    T.sampleNow(); // Concurrent with the writers.
  for (std::thread &Th : Threads)
    Th.join();
  T.sampleNow(); // Quiescent final sample.
  expectReconciles(T);
  EXPECT_EQ(T.latest()["export_test.tl.contend"], 1u + 8u * 2000u);
  EXPECT_EQ(T.latest()["export_test.tl.contend.ns.count"], 1u + 8u * 2000u);
  EXPECT_GT(T.dropped(), 0u);
}

TEST(ObsTimeline, BackgroundSamplerStartStop) {
  obs::setEnabled(true);
  static obs::Counter C("export_test.tl.bg");
  C.add(1);
  obs::Timeline T({/*IntervalMs=*/2, /*Capacity=*/64});
  T.start();
  T.start(); // Idempotent.
  C.add(41);
  // The sampler fires every 2ms; wait for at least one tick.
  for (unsigned I = 0; I < 500 && T.sampleCount() == 0; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  T.stop();
  T.stop(); // Idempotent.
  EXPECT_GE(T.sampleCount(), 1u);
  expectReconciles(T);
  uint64_t Count = T.sampleCount();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(T.sampleCount(), Count) << "sampler kept running after stop()";
}

//===----------------------------------------------------------------------===//
// Head-sampled tracing
//===----------------------------------------------------------------------===//

TEST(ObsSampling, SelectIsDeterministicWithExpectedRate) {
  obs::setTraceSampling(4);
  ASSERT_EQ(obs::traceSampling(), 4u);
  unsigned Selected = 0;
  uint64_t H = 0x9e3779b97f4a7c15ull;
  for (unsigned I = 0; I < 100000; ++I) {
    H = support::mix64(H + I);
    bool S1 = obs::traceSampleSelect(H);
    EXPECT_EQ(S1, obs::traceSampleSelect(H)); // Pure function of the hash.
    Selected += S1;
  }
  // ~1/4 of 100k; a generous 20% relative band.
  EXPECT_GT(Selected, 20000u);
  EXPECT_LT(Selected, 30000u);
  // N <= 1 means "trace everything".
  obs::setTraceSampling(0);
  EXPECT_EQ(obs::traceSampling(), 1u);
  EXPECT_TRUE(obs::traceSampleSelect(12345));
  obs::setTraceSampling(1);
}

TEST(ObsSampling, SameAdmissionsTracedAcrossPoolSizes) {
  obs::setEnabled(true);
  obs::setTracing(true);
  obs::setTraceSampling(3);

  // Distinct inputs → distinct content hashes → a fixed selected subset.
  std::vector<std::vector<uint8_t>> Inputs;
  for (unsigned I = 0; I < 24; ++I)
    Inputs.push_back(serial::write(rwbench::loopModule(3 + I)));
  unsigned Expected = 0;
  for (const auto &B : Inputs)
    Expected += obs::traceSampleSelect(
        support::hashBytes128(B.data(), B.size()).Lo);
  ASSERT_GT(Expected, 0u) << "degenerate sample: bump the input count";
  ASSERT_LT(Expected, Inputs.size()) << "degenerate sample: nothing dropped";

  auto countTraced = [] {
    std::string J = obs::traceJson();
    size_t N = 0, Pos = 0;
    while ((Pos = J.find("\"ingest_admit\"", Pos)) != std::string::npos) {
      ++N;
      ++Pos;
    }
    return N;
  };

  for (unsigned Pool : {1u, 3u, 8u}) {
    obs::clearTrace();
    std::vector<std::thread> Threads;
    for (unsigned W = 0; W < Pool; ++W)
      Threads.emplace_back([&Inputs, W, Pool] {
        for (size_t I = W; I < Inputs.size(); I += Pool) {
          auto A = ingest::admit(Inputs[I]);
          ASSERT_TRUE(A) << A.error().message();
        }
      });
    for (std::thread &T : Threads)
      T.join();
    EXPECT_EQ(countTraced(), Expected) << "pool size " << Pool;
  }

  obs::setTraceSampling(1);
  obs::setTracing(false);
  obs::clearTrace();
}

TEST(ObsSampling, SuppressedSpansStillFeedHistograms) {
  obs::setEnabled(true);
  obs::setTracing(true);
  obs::setTraceSampling(1ull << 62); // Select (almost) nothing.
  obs::clearTrace();
  std::vector<uint8_t> B = serial::write(rwbench::loopModule(5));
  uint64_t CountBefore = 0, CountAfter = 0;
  for (const obs::Metric &M : obs::snapshot().Metrics)
    if (M.Name == "phase.ingest_admit.ns")
      CountBefore = M.Value;
  ASSERT_TRUE(ingest::admit(B));
  for (const obs::Metric &M : obs::snapshot().Metrics)
    if (M.Name == "phase.ingest_admit.ns")
      CountAfter = M.Value;
  // The span histogram records even for suppressed threads — metric
  // totals must reconcile with request counts regardless of sampling.
  EXPECT_EQ(CountAfter, CountBefore + 1);
  std::string J = obs::traceJson();
  EXPECT_EQ(J.find("\"ingest_admit\""), std::string::npos)
      << "suppressed admission leaked a ring event";
  obs::setTraceSampling(1);
  obs::setTracing(false);
  obs::clearTrace();
}

#else // !RW_OBS_ENABLED — stub contract for the exporter surface.

TEST(ObsExportOff, ExportersCollapse) {
  EXPECT_EQ(obs::renderPrometheus(obs::Snapshot{}), "");
  obs::Timeline T;
  T.start();
  T.sampleNow();
  T.stop();
  EXPECT_EQ(T.sampleCount(), 0u);
  EXPECT_EQ(T.dropped(), 0u);
  EXPECT_TRUE(T.deltas().empty());
  EXPECT_TRUE(T.base().empty());
  EXPECT_TRUE(T.latest().empty());
  EXPECT_EQ(T.exportJson(), "{\"timeline\":{}}");
  expectReconciles(T);
}

TEST(ObsExportOff, SamplingCollapses) {
  obs::setTraceSampling(16);
  EXPECT_EQ(obs::traceSampling(), 1u);
  EXPECT_TRUE(obs::traceSampleSelect(7));
  {
    obs::TraceSampleScope S(false);
    EXPECT_FALSE(obs::traceSampleActive());
  }
  EXPECT_EQ(obs::traceDroppedCount(), 0u);
  // Admissions still work with the whole layer compiled out.
  std::vector<uint8_t> B = serial::write(rwbench::loopModule(5));
  EXPECT_TRUE(ingest::admit(B));
}

#endif // RW_OBS_ENABLED
