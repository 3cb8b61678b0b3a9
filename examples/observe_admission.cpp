//===- examples/observe_admission.cpp - Tracing one cold admission --------===//
//
// The "observing an admission" quickstart (README): run one cold
// N-module admission — link, batch check, lower, validate, flat
// translation, cache store — with the obs layer enabled, then export
//
//   * a Chrome trace_event JSON (open in Perfetto / chrome://tracing)
//     showing every pipeline phase attributed to the worker that ran it;
//   * the obs::snapshot() JSON: phase latency histograms, cache/arena
//     counters, and the per-function execution profiles of a short run;
//   * the same snapshot as Prometheus text exposition (metrics.prom) —
//     what a scraper would pull from a long-running admission server.
//
// Also computes what fraction of the admission's wall time is covered by
// the union of recorded spans (the acceptance bar is >= 95%: the trace
// must explain where the time went, not just sample it) and exits
// non-zero below that, or when the snapshot carries no exec.profile.
// row, so CI can run this as a smoke test. Exits 2 under -DRW_OBS=OFF.
//
// Usage: example_observe_admission [num_modules] [trace.json] [stats.json]
//                                  [metrics.prom]
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"

#include "cache/AdmissionCache.h"
#include "link/Link.h"
#include "obs/Obs.h"
#include "support/ThreadPool.h"
#include "wasm/Instance.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

using namespace rw;

namespace {

/// [start, end) of one recorded span, microseconds on the global steady
/// clock. Parsed back out of the trace JSON this process just produced —
/// the same bytes a human would load into Perfetto.
struct Interval {
  double Lo, Hi;
};

std::vector<Interval> parseIntervals(const std::string &J) {
  std::vector<Interval> Out;
  const std::string Prefix = "{\"ph\":\"X\",\"name\":\"";
  size_t At = 0;
  while ((At = J.find(Prefix, At)) != std::string::npos) {
    size_t End = J.find('"', At + Prefix.size());
    size_t P = J.find("\"ts\":", End);
    double Ts = std::strtod(J.c_str() + P + 5, nullptr);
    P = J.find("\"dur\":", End);
    double Dur = std::strtod(J.c_str() + P + 6, nullptr);
    Out.push_back({Ts, Ts + Dur});
    At = End;
  }
  return Out;
}

/// Length of the union of \p Ivs clipped to [Lo, Hi] (spans overlap both
/// across threads and by nesting, so summing durations would overcount).
double unionLength(std::vector<Interval> Ivs, double Lo, double Hi) {
  std::sort(Ivs.begin(), Ivs.end(),
            [](const Interval &A, const Interval &B) { return A.Lo < B.Lo; });
  double Covered = 0, At = Lo;
  for (const Interval &I : Ivs) {
    double S = std::max(I.Lo, At), E = std::min(I.Hi, Hi);
    if (E > S) {
      Covered += E - S;
      At = E;
    }
  }
  return Covered;
}

bool writeFile(const char *Path, const std::string &Bytes) {
  std::FILE *F = std::fopen(Path, "w");
  if (!F)
    return false;
  std::fwrite(Bytes.data(), 1, Bytes.size(), F);
  std::fclose(F);
  return true;
}

} // namespace

int main(int argc, char **argv) {
  unsigned N = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 64;
  const char *TracePath = argc > 2 ? argv[2] : "admission_trace.json";
  const char *StatsPath = argc > 3 ? argv[3] : "admission_snapshot.json";
  const char *PromPath = argc > 4 ? argv[4] : "metrics.prom";

  if (!obs::compiledIn()) {
    std::fprintf(stderr, "built with -DRW_OBS=OFF: nothing to observe\n");
    return 2;
  }
  // Equivalent of RW_OBS=1 RW_OBS_TRACE=1 in the environment, forced on
  // so the example is self-contained.
  obs::setEnabled(true);
  obs::setTracing(true);
  obs::clearTrace();
  obs::setThreadName("main");

  rwbench::AdmissionSet Set(N);
  support::ThreadPool Pool;
  cache::AdmissionCache Cache;

  uint64_t T0 = obs::nowNs();
  link::LinkOptions Opts;
  Opts.Cache = &Cache;
  Opts.Pool = &Pool;
  Opts.RunStart = false;
  auto LI = link::instantiateLowered(Set.Ptrs, Opts);
  if (!LI) {
    std::fprintf(stderr, "admission failed: %s\n",
                 LI.error().message().c_str());
    return 1;
  }
  uint64_t T1 = obs::nowNs();

  // A short profiled run so the snapshot carries a FunctionProfile table
  // (the hotness signal a tier-up JIT would consume). Profiling must be
  // on before initialize(): the admitted instance already adopted the
  // cache's unprofiled translation, so a fresh instance of the same
  // lowered module replaces it.
  LI->Instance.reset();
  std::unique_ptr<wasm::Instance> Profiled =
      wasm::createInstance(LI->Program->Module, wasm::EngineKind::Flat);
  Profiled->enableProfiling();
  if (Status S = Profiled->initialize(/*RunStart=*/false); !S) {
    std::fprintf(stderr, "profiled instance: %s\n",
                 S.error().message().c_str());
    return 1;
  }
  (void)Profiled->invokeByName("user_pkg_000000.f0_0", {wasm::WValue::i32(1)});

  std::string Trace = obs::traceJson();
  obs::Snapshot Snap = obs::snapshot();
  std::string Stats = obs::renderJson(Snap);
  std::string Prom = obs::renderPrometheus(Snap);
  if (!writeFile(TracePath, Trace) || !writeFile(StatsPath, Stats) ||
      !writeFile(PromPath, Prom)) {
    std::fprintf(stderr, "cannot write output files\n");
    return 1;
  }

  double WallUs = static_cast<double>(T1 - T0) / 1000.0;
  double LoUs = static_cast<double>(T0) / 1000.0;
  double CoveredUs =
      unionLength(parseIntervals(Trace), LoUs, LoUs + WallUs);
  double Pct = WallUs > 0 ? 100.0 * CoveredUs / WallUs : 0.0;

  std::printf("admitted %u modules cold in %.1f us\n", N, WallUs);
  std::printf("trace:    %s (%zu events)\n", TracePath,
              obs::traceEventCount());
  std::printf("snapshot: %s\n", StatsPath);
  std::printf("prom:     %s (scrape target format)\n", PromPath);
  std::printf("span coverage of admission wall time: %.1f%%\n", Pct);
  std::printf("\n%s", obs::renderText(Snap).c_str());

  if (Pct < 95.0) {
    std::fprintf(stderr, "FAIL: span coverage %.1f%% < 95%%\n", Pct);
    return 1;
  }
  if (std::none_of(Snap.Metrics.begin(), Snap.Metrics.end(),
                   [](const obs::Metric &M) {
                     return M.Name.rfind("exec.profile.", 0) == 0;
                   })) {
    std::fprintf(stderr, "FAIL: the snapshot has no exec.profile. row\n");
    return 1;
  }
  return 0;
}
