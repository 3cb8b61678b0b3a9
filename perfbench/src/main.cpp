//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload <serve_mix|cold_link|interop_exec> --seed <n>
//           --seconds <s> --trace <0|1>
//
// Runs one workload and prints, as its last line, one JSON object with
// `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
// with --trace 0, the per-layer metrics the workload exercises with
// --trace 1. Which metrics a mode must report, and in which units, is
// declared once, in BENCHMARK.json; perfbench/run.py holds the result to
// it.
// Exits 0 when the run completed (even with failed requests, which the
// JSON reports), nonzero when it could not produce a valid result.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Inputs.h"

#include "wasm/WasmAst.h"

#include <filesystem>
#include <fstream>

namespace pb {

double rssBaselineKiB(bool &Reset) {
  // Writing 5 to clear_refs resets the peak-RSS mark (VmHWM) to the
  // current resident set.
  std::ofstream Clear("/proc/self/clear_refs");
  Clear << "5";
  Clear.flush();
  Reset = static_cast<bool>(Clear);
  std::ifstream In("/proc/self/status");
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("VmRSS:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr);
  Reset = false;
  return 0;
}

double peakRssKiB() {
  std::ifstream In("/proc/self/status");
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr);
  return 0;
}

static uint64_t instCount(const std::vector<rw::wasm::WInst> &Body) {
  uint64_t N = 0;
  for (const rw::wasm::WInst &I : Body)
    N += 1 + instCount(I.Body) + instCount(I.Else);
  return N;
}

uint64_t wasmInstCount(const rw::wasm::WModule &M) {
  uint64_t N = 0;
  for (const rw::wasm::WFunc &F : M.Funcs)
    N += instCount(F.Body);
  return N;
}

LatencyDist::LatencyDist(const std::vector<Samples> &Clients, int Cls)
    : Counts(Samples::Buckets, 0) {
  for (const Samples &S : Clients)
    for (unsigned C = 0; C < Samples::Classes; ++C)
      if (Cls == Samples::AllClasses || static_cast<int>(C) == Cls)
        for (unsigned B = 0; B < Samples::Buckets; ++B) {
          Counts[B] += S.Counts[C * Samples::Buckets + B];
          N += S.Counts[C * Samples::Buckets + B];
        }
}

double LatencyDist::quantile(double Q) const {
  uint64_t Rank = rank(Q), Below = 0;
  for (unsigned B = 0; B < Counts.size(); ++B) {
    if (Below + Counts[B] > Rank) {
      auto [Lo, Width] = Samples::range(B);
      return Lo + Width * (static_cast<double>(Rank - Below) + 0.5) /
                      static_cast<double>(Counts[B]);
    }
    Below += Counts[B];
  }
  return 0;
}

void EpochLog::close(std::vector<Samples> &Clients, uint64_t Ns,
                     bool Last) {
  LatencyDist All(Clients, Samples::AllClasses);
  LatencyDist Hot(Clients, HotCls), Cold(Clients, ColdCls);
  Requests += All.size();
  for (Samples &S : Clients)
    S.clear();
  bool Enough = All.above(0.99) >= 10 && Hot.above(0.99) >= 10 &&
                Cold.above(0.5) >= 10;
  if (!Enough) {
    if (Last && !Epochs.empty())
      return;
    Short.push_back("epoch " + std::to_string(Epochs.size()) + " (" +
                    std::to_string(All.size()) + " requests)");
  }
  Epochs.push_back({perSecond("throughput_rps",
                              static_cast<double>(All.size()),
                              static_cast<double>(Ns)),
                    micros("latency_p50_us", All.quantile(0.5)),
                    micros("latency_p99_us", All.quantile(0.99)),
                    micros("hot_latency_p99_us", Hot.quantile(0.99)),
                    micros("cold_latency_p50_us", Cold.quantile(0.5))});
}

void EpochLog::report(Result &R, const std::vector<double> &SetupNs,
                      double PeakRssKiB) const {
  R.Attempted = Requests;
  for (const std::string &E : Short)
    R.fail(E + ": fewer than 10 samples above a reported quantile");
  R.Metrics.push_back(seconds("setup_s", median(SetupNs)));
  for (size_t M = 0; !Epochs.empty() && M < Epochs[0].size(); ++M) {
    std::vector<double> Values;
    for (const std::vector<Metric> &E : Epochs)
      Values.push_back(E[M].Value);
    Metric Med = Epochs[0][M];
    Med.Value = median(Values);
    R.Metrics.push_back(Med);
  }
  R.Metrics.push_back(megabytes("peak_rss_mb", PeakRssKiB));
}

std::vector<uint8_t> wasmModule(uint64_t Tag, unsigned Funcs) {
  auto Uleb = [](std::vector<uint8_t> &O, uint64_t V) {
    do {
      uint8_t B = V & 0x7f;
      V >>= 7;
      O.push_back(V ? B | 0x80 : B);
    } while (V);
  };
  auto Sleb = [](std::vector<uint8_t> &O, int64_t V) {
    for (;;) {
      uint8_t B = V & 0x7f;
      V >>= 7;
      bool Done = (V == 0 && !(B & 0x40)) || (V == -1 && (B & 0x40));
      O.push_back(Done ? B : B | 0x80);
      if (Done)
        return;
    }
  };
  std::vector<uint8_t> Out = {0x00, 'a', 's', 'm', 1, 0, 0, 0};
  auto Section = [&](uint8_t Id, const std::vector<uint8_t> &Body) {
    Out.push_back(Id);
    Uleb(Out, Body.size());
    Out.insert(Out.end(), Body.begin(), Body.end());
  };
  Section(1, {1, 0x60, 1, 0x7f, 1, 0x7f}); // One type: (i32) -> i32.
  std::vector<uint8_t> FuncSec, ExportSec, CodeSec;
  Uleb(FuncSec, Funcs);
  Uleb(ExportSec, Funcs);
  Uleb(CodeSec, Funcs);
  for (unsigned J = 0; J < Funcs; ++J) {
    FuncSec.push_back(0);
    std::string Name = "f" + std::to_string(J);
    Uleb(ExportSec, Name.size());
    ExportSec.insert(ExportSec.end(), Name.begin(), Name.end());
    ExportSec.push_back(0x00); // Function export.
    Uleb(ExportSec, J);
    // No locals; local.get 0; i32.const c; i32.add; i32.const 3;
    // i32.mul; end.
    std::vector<uint8_t> Body = {0, 0x20, 0, 0x41};
    Sleb(Body, tagConstant(Tag, Funcs, J));
    Body.insert(Body.end(), {0x6a, 0x41, 3, 0x6c, 0x0b});
    Uleb(CodeSec, Body.size());
    CodeSec.insert(CodeSec.end(), Body.begin(), Body.end());
  }
  Section(3, FuncSec);
  Section(7, ExportSec);
  Section(10, CodeSec);
  return Out;
}

void Ledger::add(const Tracer &T) {
  const std::vector<Tracer::Span> &S = T.spans();
  std::vector<uint64_t> ChildNs(S.size(), 0);
  for (const Tracer::Span &Sp : S)
    if (Sp.Parent != Tracer::NoParent)
      ChildNs[Sp.Parent] += Sp.End - Sp.Start;
  for (size_t I = 0; I < S.size(); ++I) {
    const Tracer::Span &Sp = S[I];
    uint64_t Dur = Sp.End - Sp.Start;
    TotalNs[Sp.Name] += Dur;
    ++Calls[Sp.Name];
    if (Sp.Name == std::string(RequestSpan)) {
      RootNs[Sp.Class] += Dur;
      ++Requests[Sp.Class];
      continue;
    }
    uint64_t Self = Dur - std::min(Dur, ChildNs[I]);
    SelfNs[Sp.Name] += Self;
    CoveredNs[Sp.Class] += Self;
  }
}

void reportTrace(Result &R, const Ledger &L, const Tracer &FirstPass,
                 const std::vector<std::string> &ClassNames,
                 const std::string &Path, double UntracedMeanNs) {
  double N = static_cast<double>(std::max<uint64_t>(L.requests(), 1));
  std::printf("%-24s %10s %14s %14s\n", "span", "calls", "self us/req",
              "incl us/call");
  for (const auto &KV : L.TotalNs) {
    const std::string &Name = KV.first;
    auto Self = L.SelfNs.find(Name);
    double SelfNs = Self == L.SelfNs.end() ? 0 : Self->second;
    std::printf("%-24s %10llu %14.3f %14.3f\n", Name.c_str(),
                static_cast<unsigned long long>(L.Calls.at(Name)),
                SelfNs / N / 1e3,
                KV.second / static_cast<double>(L.Calls.at(Name)) / 1e3);
  }
  uint64_t CoveredNs = 0;
  for (const auto &KV : L.RootNs) {
    double Covered = static_cast<double>(L.CoveredNs.count(KV.first)
                                             ? L.CoveredNs.at(KV.first)
                                             : 0);
    double Pct = KV.second ? 100.0 * Covered / KV.second : 0;
    CoveredNs += static_cast<uint64_t>(Covered);
    uint64_t Reqs = L.Requests.at(KV.first);
    std::printf("class %-12s %8llu requests, traced mean %9.3f us, layer "
                "coverage %6.2f%%%s\n",
                ClassNames.at(KV.first).c_str(),
                static_cast<unsigned long long>(Reqs),
                KV.second / static_cast<double>(Reqs) / 1e3, Pct,
                Pct < 95 ? "  (below 95%)" : "");
  }
  double TracedMeanNs = static_cast<double>(L.rootNs()) / N;
  std::printf("tracing overhead: traced %.3f us - untraced %.3f us = %.3f us "
              "per request\n",
              TracedMeanNs / 1e3, UntracedMeanNs / 1e3,
              (TracedMeanNs - UntracedMeanNs) / 1e3);
  std::printf("layer coverage of the workload's traced time: %.2f%%\n",
              100.0 * CoveredNs / std::max<uint64_t>(L.rootNs(), 1));
  R.Metrics.push_back(percent("trace.coverage_pct",
                              static_cast<double>(CoveredNs),
                              static_cast<double>(L.rootNs())));
  R.Metrics.push_back(
      micros("trace.overhead_us", TracedMeanNs - UntracedMeanNs));

  std::error_code EC;
  std::filesystem::create_directories(
      std::filesystem::path(Path).parent_path(), EC);
  std::ofstream Out(Path);
  if (!Out) {
    R.fail("cannot write the span file " + Path);
    return;
  }
  Out << "request\tclass\tspan\tparent\tstart_ns\tdur_ns\n";
  const std::vector<Tracer::Span> &S = FirstPass.spans();
  for (const Tracer::Span &Sp : S)
    Out << Sp.Request << '\t' << ClassNames.at(Sp.Class) << '\t' << Sp.Name
        << '\t'
        << (Sp.Parent == Tracer::NoParent ? "-" : S[Sp.Parent].Name) << '\t'
        << Sp.Start << '\t' << Sp.End - Sp.Start << '\n';
  std::printf("spans of the first traced pass: %s\n", Path.c_str());
}

int emit(const Result &R) {
  std::map<std::string, const Metric *> ByName;
  for (const Metric &M : R.Metrics) {
    if (unitForName(M.Name) != M.Unit) {
      std::fprintf(stderr, "perfbench: metric %s measured in %s, but its "
                           "name promises %s\n",
                   M.Name.c_str(), M.Unit.c_str(),
                   unitForName(M.Name).c_str());
      return 3;
    }
    if (!ByName.emplace(M.Name, &M).second) {
      std::fprintf(stderr, "perfbench: metric %s reported twice\n",
                   M.Name.c_str());
      return 3;
    }
  }
  for (const std::string &P : R.Problems)
    std::printf("CHECK FAILED: %s\n", P.c_str());
  if (R.Failed)
    std::printf("CHECK FAILED: %llu of %llu requests differ from their "
                "expected outcome\n",
                static_cast<unsigned long long>(R.Failed),
                static_cast<unsigned long long>(R.Attempted));
  for (const Metric &M : R.Metrics)
    std::printf("%-26s %18.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  bool Correct = R.Problems.empty() && R.Failed == 0 && R.Attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  for (size_t I = 0; I < R.Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", R.Metrics[I].Name.c_str(),
                R.Metrics[I].Value, R.Metrics[I].Unit.c_str());
  std::printf("}}\n");
  return R.Attempted > 0 ? 0 : 3;
}

} // namespace pb

int main(int argc, char **argv) {
  pb::Options O;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string K = argv[I], V = argv[I + 1];
    if (K == "--workload")
      O.Workload = V;
    else if (K == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      O.Seconds = std::strtod(V.c_str(), nullptr);
    else if (K == "--trace")
      O.Trace = V == "1";
    else if (K == "--trace-dir")
      O.TraceDir = V;
    else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", K.c_str());
      return 2;
    }
  }
  if (!(O.Seconds > 0)) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  pb::Result R;
  if (O.Workload == "serve_mix")
    R = pb::runServeMix(O);
  else if (O.Workload == "cold_link")
    R = pb::runColdLink(O);
  else if (O.Workload == "interop_exec")
    R = pb::runInteropExec(O);
  else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }
  return pb::emit(R);
}
