//===- bench/c7_admission_server.cpp - C7: admission-server simulation ----===//
//
// Part of the RichWasm reproduction. MIT license.
//
// The obs layer's proving ground (DESIGN.md §13): N client threads drive
// a zipf-distributed request mix — hot re-admissions through the sharded
// AdmissionCache, cold novel modules, and adversarial rejects — through
// ingest::admit with the full server-grade observability stack live:
// head-sampled tracing, a running Timeline, and the HDR latency
// histogram. It reports p50/p99/p999 admission latency (exact, from
// per-thread samples, overall and per request class), the per-phase span
// ledger (calls, p50 and mean time of every "phase.*" histogram), arena
// footprint, and cache pressure into BENCH_server.json, and *fails*
// (nonzero exit) when the observability numbers don't reconcile with
// ground truth:
//
//   * the "server.admission.ns" histogram count must equal the request
//     count (sampling suppresses trace events, never metrics);
//   * the histogram p99 must be within 10% of the exact sorted-sample
//     p99 (the sub-bucket resolution gate);
//   * the timeline must reconcile: base() + sum(deltas()) == latest()
//     for every key, after wraparound.
//
// Usage: c7_admission_server [threads] [requests] [out.json]
//        defaults: 8 100000 BENCH_server.json
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "ServerMix.h"

#include "cache/AdmissionCache.h"
#include "ingest/Ingest.h"
#include "ir/TypeArena.h"
#include "obs/Obs.h"
#include "obs/Timeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace rw;
using namespace rwbench;

namespace {

uint64_t exactQuantile(const std::vector<uint64_t> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  size_t Rank = static_cast<size_t>(Q * static_cast<double>(Sorted.size()));
  if (Rank >= Sorted.size())
    Rank = Sorted.size() - 1;
  return Sorted[Rank];
}

struct WorkerResult {
  std::vector<uint64_t> LatNs;
  std::vector<uint64_t> ClassLatNs[3]; ///< Indexed by ServerMix::Kind.
  uint64_t Ok = 0;
  uint64_t Rejected = 0;
  uint64_t HotReqs = 0;
  uint64_t ColdReqs = 0;
  uint64_t AdvReqs = 0;
};

bool relWithin(double A, double B, double Tol) {
  if (B == 0)
    return A == 0;
  return std::abs(A - B) / B <= Tol;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Threads = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 8;
  uint64_t Requests = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 100000;
  std::string OutPath = argc > 3 ? argv[3] : "BENCH_server.json";
  if (Threads == 0)
    Threads = 1;

  // The full observability stack, as a server would run it: metrics on,
  // tracing always-on but head-sampled 1-in-64 (RW_OBS_TRACE_SAMPLE can
  // override), timeline sampling every 50ms.
  obs::setEnabled(true);
  obs::setTracing(true);
  if (obs::traceSampling() <= 1)
    obs::setTraceSampling(64);
  obs::Timeline Timeline({/*IntervalMs=*/50, /*Capacity=*/128});
  Timeline.start();

  // Sized so one-shot payload pools cover the cold/adversarial shares of
  // the request budget (wraparound would quietly turn colds into hots).
  unsigned OneShot = static_cast<unsigned>(Requests / 8 + Threads);
  ServerMix Mix(/*HotN=*/64, /*ColdN=*/OneShot, /*AdvN=*/OneShot);
  link::LinkOptions Opts;
  Opts.RunStart = false;
  ingest::Limits Lim;

  // Room for 512 artifacts per shard by the cache's own estimate of one
  // admitted ServerMix payload: the hot set stays resident while the
  // one-shot colds overflow the budget, so the run measures eviction.
  uint64_t ArtBytes = 0;
  {
    cache::AdmissionCache Probe;
    Opts.Cache = &Probe;
    if (!ingest::admit(Mix.HotBytes[0], Lim, Opts)) {
      std::fprintf(stderr, "c7: a hot payload was rejected\n");
      return 1;
    }
    ArtBytes = Probe.stats().Bytes;
  }
  constexpr unsigned Shards = 8;
  cache::AdmissionCache Cache(Shards * 512 * ArtBytes, Shards);
  Opts.Cache = &Cache;

  // Phase histograms before the run, so the span ledger below counts the
  // requests only (building the mix above serializes every payload).
  std::map<std::string, obs::Metric> PhasesBefore;
  for (obs::Metric &M : obs::snapshot().Metrics)
    PhasesBefore[M.Name] = std::move(M);

  std::vector<WorkerResult> Results(Threads);
  std::atomic<uint64_t> ColdCursor{0}, AdvCursor{0};
  uint64_t PerThread = Requests / Threads;
  auto WallStart = std::chrono::steady_clock::now();

  std::vector<std::thread> Pool;
  for (unsigned W = 0; W < Threads; ++W)
    Pool.emplace_back([&, W] {
      WorkerResult &R = Results[W];
      uint64_t N = PerThread + (W < Requests % Threads ? 1 : 0);
      R.LatNs.reserve(N);
      uint64_t Rng = 0xc7c7c7c7ull * (W + 1);
      static obs::Histogram ServerH("server.admission.ns");
      for (uint64_t I = 0; I < N; ++I) {
        const std::vector<uint8_t> *Bytes = nullptr;
        ServerMix::Kind K = Mix.kind(Rng);
        switch (K) {
        case ServerMix::Hot:
          Bytes = &Mix.HotBytes[Mix.zipfIndex(Rng)];
          ++R.HotReqs;
          break;
        case ServerMix::Cold: {
          uint64_t C = ColdCursor.fetch_add(1, std::memory_order_relaxed);
          Bytes = &Mix.ColdBytes[C % Mix.ColdBytes.size()];
          ++R.ColdReqs;
          break;
        }
        case ServerMix::Adversarial: {
          uint64_t A = AdvCursor.fetch_add(1, std::memory_order_relaxed);
          Bytes = &Mix.AdvBytes[A % Mix.AdvBytes.size()];
          ++R.AdvReqs;
          break;
        }
        }
        auto S = std::chrono::steady_clock::now();
        ingest::IngestError Err;
        auto A = ingest::admit(*Bytes, Lim, Opts, &Err);
        auto E = std::chrono::steady_clock::now();
        uint64_t Ns = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(E - S)
                .count());
        R.LatNs.push_back(Ns);
        R.ClassLatNs[K].push_back(Ns);
        ServerH.record(Ns);
        if (A)
          ++R.Ok;
        else
          ++R.Rejected;
      }
    });
  for (std::thread &T : Pool)
    T.join();
  double WallSec = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - WallStart)
                       .count();

  Timeline.stop();
  Timeline.sampleNow(); // Quiescent final sample: catches the tail.

  // Ground truth: merged exact latency samples.
  std::vector<uint64_t> All;
  std::vector<uint64_t> ByClass[3];
  WorkerResult Tot;
  for (const WorkerResult &R : Results) {
    All.insert(All.end(), R.LatNs.begin(), R.LatNs.end());
    for (unsigned K = 0; K < 3; ++K)
      ByClass[K].insert(ByClass[K].end(), R.ClassLatNs[K].begin(),
                        R.ClassLatNs[K].end());
    Tot.Ok += R.Ok;
    Tot.Rejected += R.Rejected;
    Tot.HotReqs += R.HotReqs;
    Tot.ColdReqs += R.ColdReqs;
    Tot.AdvReqs += R.AdvReqs;
  }
  std::sort(All.begin(), All.end());
  for (std::vector<uint64_t> &C : ByClass)
    std::sort(C.begin(), C.end());
  uint64_t ExactP50 = exactQuantile(All, 0.50);
  uint64_t ExactP99 = exactQuantile(All, 0.99);
  uint64_t ExactP999 = exactQuantile(All, 0.999);

  // The same quantiles through the obs histogram.
  obs::Snapshot Snap = obs::snapshot();
  const obs::Metric *ServerM = nullptr;
  for (const obs::Metric &M : Snap.Metrics)
    if (M.Name == "server.admission.ns")
      ServerM = &M;

  int Failures = 0;
  auto Fail = [&Failures](const char *Fmt, auto... Args) {
    std::fprintf(stderr, "c7 RECONCILIATION FAILURE: ");
    std::fprintf(stderr, Fmt, Args...);
    std::fprintf(stderr, "\n");
    ++Failures;
  };

  uint64_t HistP50 = 0, HistP99 = 0, HistP999 = 0;
  if (obs::compiledIn()) {
    if (!ServerM) {
      Fail("server.admission.ns histogram missing from snapshot");
    } else {
      HistP50 = obs::histQuantile(*ServerM, 0.50);
      HistP99 = obs::histQuantile(*ServerM, 0.99);
      HistP999 = obs::histQuantile(*ServerM, 0.999);
      // Totals reconcile: sampling drops ring events, never samples.
      if (ServerM->Value != Requests)
        Fail("histogram count %" PRIu64 " != request count %" PRIu64,
             ServerM->Value, Requests);
      // Sub-bucket resolution: within 10% of exact (the ISSUE gate; the
      // bucket bound itself is ~6.25%).
      if (!relWithin(static_cast<double>(HistP99),
                     static_cast<double>(ExactP99), 0.10))
        Fail("histogram p99 %" PRIu64 " not within 10%% of exact %" PRIu64,
             HistP99, ExactP99);
      if (!relWithin(static_cast<double>(HistP50),
                     static_cast<double>(ExactP50), 0.10))
        Fail("histogram p50 %" PRIu64 " not within 10%% of exact %" PRIu64,
             HistP50, ExactP50);
    }

    // Timeline deltas reconcile with the final snapshot.
    std::map<std::string, uint64_t> Acc = Timeline.base();
    for (const obs::TimelineDelta &D : Timeline.deltas())
      for (const auto &KV : D.Changes)
        Acc[KV.first] += KV.second;
    std::map<std::string, uint64_t> Latest = Timeline.latest();
    for (const auto &KV : Latest)
      if (Acc[KV.first] != KV.second)
        Fail("timeline key %s: base+deltas=%" PRIu64 " != latest=%" PRIu64,
             KV.first.c_str(), Acc[KV.first], KV.second);
    uint64_t TlCount = Latest["server.admission.ns.count"];
    if (TlCount != Requests)
      Fail("timeline latest count %" PRIu64 " != request count %" PRIu64,
           TlCount, Requests);
  }

  if (Tot.Ok + Tot.Rejected != Requests)
    Fail("ok %" PRIu64 " + rejected %" PRIu64 " != requests %" PRIu64,
         Tot.Ok, Tot.Rejected, Requests);
  // Adversarial payloads are the only expected rejections, and most of
  // them reject (a rare mutation survives admission).
  if (Tot.Rejected > Tot.AdvReqs)
    Fail("rejected %" PRIu64 " exceeds adversarial requests %" PRIu64,
         Tot.Rejected, Tot.AdvReqs);
  if (Tot.AdvReqs > 0 && Tot.Rejected == 0)
    Fail("adversarial payloads all admitted (mutator is a no-op?)");

  // Footprint + pressure.
  cache::CacheStats CS = Cache.stats();
  ir::TypeArena::Stats AS = ir::TypeArena::globalPtr()->stats();

  std::FILE *Out = std::fopen(OutPath.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cannot write %s\n", OutPath.c_str());
    return 1;
  }
  std::fprintf(Out, "{\n  \"benchmark\": \"c7_admission_server\",\n");
  std::fprintf(Out, "  \"host_fingerprint\": \"%s\",\n",
               hostFingerprint().c_str());
  std::fprintf(Out, "  \"threads\": %u,\n  \"requests\": %" PRIu64 ",\n",
               Threads, Requests);
  std::fprintf(Out, "  \"wall_sec\": %.3f,\n", WallSec);
  std::fprintf(Out, "  \"requests_per_sec\": %.0f,\n",
               WallSec > 0 ? static_cast<double>(Requests) / WallSec : 0.0);
  std::fprintf(Out,
               "  \"mix\": {\"hot\": %" PRIu64 ", \"cold\": %" PRIu64
               ", \"adversarial\": %" PRIu64 ", \"ok\": %" PRIu64
               ", \"rejected\": %" PRIu64 "},\n",
               Tot.HotReqs, Tot.ColdReqs, Tot.AdvReqs, Tot.Ok, Tot.Rejected);
  std::fprintf(Out,
               "  \"latency_ns\": {\"p50\": %" PRIu64 ", \"p99\": %" PRIu64
               ", \"p999\": %" PRIu64 ", \"max\": %" PRIu64 "},\n",
               ExactP50, ExactP99, ExactP999, All.empty() ? 0 : All.back());
  static const char *ClassNames[3] = {"hot", "cold", "adversarial"};
  std::fprintf(Out, "  \"latency_by_class_ns\": {");
  for (unsigned K = 0; K < 3; ++K)
    std::fprintf(Out,
                 "%s\"%s\": {\"p50\": %" PRIu64 ", \"p99\": %" PRIu64 "}",
                 K ? ", " : "", ClassNames[K],
                 exactQuantile(ByClass[K], 0.50),
                 exactQuantile(ByClass[K], 0.99));
  std::fprintf(Out, "},\n");
  // The span ledger: each phase histogram's calls per request and its
  // median and mean (inclusive) duration over the run — which stages an
  // average request runs, and what each costs.
  std::fprintf(Out, "  \"phases\": {");
  const char *Sep = "";
  for (const obs::Metric &M : Snap.Metrics) {
    const std::string &N = M.Name;
    if (M.Kind != obs::MetricKind::Histogram || N.rfind("phase.", 0) != 0 ||
        N.size() < 9 || N.compare(N.size() - 3, 3, ".ns") != 0)
      continue;
    obs::Metric Run = M;
    if (auto It = PhasesBefore.find(N); It != PhasesBefore.end()) {
      Run.Value -= It->second.Value;
      Run.Sum -= It->second.Sum;
      for (size_t I = 0; I < Run.Buckets.size(); ++I)
        Run.Buckets[I] -= It->second.Buckets[I];
    }
    if (Run.Value == 0)
      continue;
    std::fprintf(Out,
                 "%s\n    \"%s\": {\"calls\": %" PRIu64
                 ", \"calls_per_request\": %.4f, \"p50_ns\": %" PRIu64
                 ", \"mean_ns\": %.0f}",
                 Sep, N.substr(6, N.size() - 9).c_str(), Run.Value,
                 static_cast<double>(Run.Value) /
                     static_cast<double>(Requests),
                 obs::histQuantile(Run, 0.50),
                 static_cast<double>(Run.Sum) /
                     static_cast<double>(Run.Value));
    Sep = ",";
  }
  std::fprintf(Out, "\n  },\n");
  std::fprintf(Out,
               "  \"latency_hist_ns\": {\"p50\": %" PRIu64
               ", \"p99\": %" PRIu64 ", \"p999\": %" PRIu64 "},\n",
               HistP50, HistP99, HistP999);
  std::fprintf(Out,
               "  \"cache\": {\"shards\": %u, \"byte_budget\": %" PRIu64
               ", \"hits\": %" PRIu64
               ", \"misses\": %" PRIu64 ", \"evictions\": %" PRIu64
               ", \"bytes\": %" PRIu64 ", \"entries\": %" PRIu64 "},\n",
               Cache.shardCount(), Cache.byteBudget(), CS.ProgramHits,
               CS.ProgramMisses,
               CS.Evictions, CS.Bytes, CS.Entries);
  std::fprintf(Out,
               "  \"arena\": {\"nodes\": %" PRIu64 ", \"bytes\": %" PRIu64
               "},\n",
               AS.totalNodes(), AS.ApproxBytes);
  std::fprintf(Out,
               "  \"obs\": {\"trace_sample_n\": %" PRIu64
               ", \"trace_dropped\": %" PRIu64
               ", \"timeline_samples\": %" PRIu64
               ", \"timeline_dropped\": %" PRIu64 "},\n",
               obs::traceSampling(), obs::traceDroppedCount(),
               Timeline.sampleCount(), Timeline.dropped());
  std::fprintf(Out, "  \"reconciliation_failures\": %d\n}\n", Failures);
  std::fclose(Out);

  std::printf("c7: %u threads x %" PRIu64 " requests in %.2fs "
              "(%.0f req/s)\n",
              Threads, Requests, WallSec,
              WallSec > 0 ? static_cast<double>(Requests) / WallSec : 0.0);
  std::printf("c7: latency p50=%" PRIu64 "ns p99=%" PRIu64 "ns p999=%" PRIu64
              "ns (hist: %" PRIu64 "/%" PRIu64 "/%" PRIu64 ")\n",
              ExactP50, ExactP99, ExactP999, HistP50, HistP99, HistP999);
  std::printf("c7: mix hot=%" PRIu64 " cold=%" PRIu64 " adv=%" PRIu64
              " ok=%" PRIu64 " rejected=%" PRIu64 "\n",
              Tot.HotReqs, Tot.ColdReqs, Tot.AdvReqs, Tot.Ok, Tot.Rejected);
  std::printf("c7: cache hits=%" PRIu64 " misses=%" PRIu64 " evictions=%" PRIu64
              " bytes=%" PRIu64 "\n",
              CS.ProgramHits, CS.ProgramMisses, CS.Evictions, CS.Bytes);
  std::printf("c7: wrote %s (%d reconciliation failures)\n", OutPath.c_str(),
              Failures);
  return Failures == 0 ? 0 : 1;
}
