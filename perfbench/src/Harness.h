//===- perfbench/src/Harness.h - Benchmark plumbing ------------*- C++ -*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: command-line options, seeds, clocks,
/// latency histograms, the epochs of a measured phase, unit-carrying
/// metrics, the in-memory span tracer of the traced run, and the one-line
/// JSON result.
///
/// Units come from the measurement: a time is taken in steady_clock
/// nanoseconds and converted by the function that names the reported
/// unit, so a value and its unit cannot disagree. The emitter also
/// refuses a metric whose name suffix (`_us`, `_s`, `_rps`, `_mb`,
/// `_pct`, `_ratio`, `_rate`) contradicts its unit.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "bench/ServerMix.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace rw::wasm {
struct WModule;
} // namespace rw::wasm

namespace pb {

using Clock = std::chrono::steady_clock;
using Nanos = std::chrono::nanoseconds;

inline uint64_t nanosSince(Clock::time_point T0, Clock::time_point T1) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<Nanos>(T1 - T0).count());
}

using rwbench::splitmix64;

/// One derived seed per (run seed, purpose) pair.
inline uint64_t subSeed(uint64_t Seed, uint64_t Purpose) {
  uint64_t S = Seed * 0x100000001b3ull ^ (Purpose + 0x51ed27ull);
  return splitmix64(S);
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Where the traced run writes its span file.
  std::string TraceDir = ".bench_build/traces";
};

/// A reported value with the unit its measurement produced.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// Conversions from a measurement to a reported quantity. These are the
/// only way a metric gets a unit.
inline Metric micros(std::string Name, double Ns) {
  return {std::move(Name), Ns / 1e3, "us"};
}
inline Metric seconds(std::string Name, double Ns) {
  return {std::move(Name), Ns / 1e9, "s"};
}
inline Metric perSecond(std::string Name, double Events, double Ns) {
  return {std::move(Name), Ns > 0 ? Events / (Ns / 1e9) : 0, "1/s"};
}
inline Metric megabytes(std::string Name, double KiB) {
  return {std::move(Name), KiB / 1024.0, "MB"};
}
inline Metric count(std::string Name, double N) {
  return {std::move(Name), N, "count"};
}
inline Metric ratio(std::string Name, double Num, double Den) {
  return {std::move(Name), Den > 0 ? Num / Den : 0, "ratio"};
}
inline Metric percent(std::string Name, double Num, double Den) {
  return {std::move(Name), Den > 0 ? 100.0 * Num / Den : 0, "%"};
}

/// The unit a metric name's suffix promises (count when it has none).
inline std::string unitForName(const std::string &Name) {
  auto Ends = [&](const char *Suf) {
    size_t N = std::char_traits<char>::length(Suf);
    return Name.size() >= N && Name.compare(Name.size() - N, N, Suf) == 0;
  };
  if (Ends("_us"))
    return "us";
  if (Ends("_s"))
    return "s";
  if (Ends("_rps"))
    return "1/s";
  if (Ends("_mb"))
    return "MB";
  if (Ends("_pct"))
    return "%";
  if (Ends("_ratio") || Ends("_rate"))
    return "ratio";
  return "count";
}

inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Instructions in the function bodies of \p M, nested ones included.
uint64_t wasmInstCount(const rw::wasm::WModule &M);

/// Resident set of this process now, in KiB. Also resets the kernel's
/// peak-RSS mark to it, so peakRssKiB() measures from here; \p Reset
/// receives whether the reset succeeded.
double rssBaselineKiB(bool &Reset);

/// Peak resident set since the last rssBaselineKiB(), in KiB.
double peakRssKiB();

/// What a workload run produced: outcome accounting plus metrics.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// A check that is not a per-request outcome failed (count drift
  /// between passes, a quantile without enough samples...).
  std::vector<std::string> Problems;
  std::vector<Metric> Metrics;

  void fail(std::string Why) { Problems.push_back(std::move(Why)); }
};

/// One client's request latencies, per request class, in a log-linear
/// histogram: exact below 512 ns, then 512 buckets per power of two (0.2%
/// wide). Fixed size, so recording never allocates.
class Samples {
public:
  static constexpr unsigned Classes = 4;
  static constexpr int AllClasses = -1;

  Samples() : Counts(Classes * Buckets, 0) {}
  void add(uint8_t Class, uint64_t Ns) {
    ++Counts[Class * Buckets + bucket(Ns)];
    ++N;
  }
  uint64_t size() const { return N; }
  void clear() {
    std::fill(Counts.begin(), Counts.end(), 0);
    N = 0;
  }

private:
  friend class LatencyDist;
  static constexpr unsigned SubBits = 9, Sub = 1u << SubBits, Majors = 40;
  static constexpr unsigned Buckets = Sub * (Majors + 1);

  static unsigned bucket(uint64_t Ns) {
    if (Ns < Sub)
      return static_cast<unsigned>(Ns);
    unsigned Shift = std::min<unsigned>(63 - __builtin_clzll(Ns) - SubBits,
                                        Majors - 1);
    uint64_t Minor = std::min<uint64_t>((Ns >> Shift) - Sub, Sub - 1);
    return Sub + Shift * Sub + static_cast<unsigned>(Minor);
  }
  /// Lower bound and width, in ns, of bucket \p B.
  static std::pair<double, double> range(unsigned B) {
    if (B < Sub)
      return {static_cast<double>(B), 1};
    unsigned Shift = (B - Sub) / Sub, Minor = (B - Sub) % Sub;
    return {static_cast<double>(uint64_t(Sub + Minor) << Shift),
            static_cast<double>(uint64_t(1) << Shift)};
  }

  std::vector<uint64_t> Counts;
  uint64_t N = 0;
};

/// The latencies of one class (or of every class) merged across clients.
class LatencyDist {
public:
  LatencyDist(const std::vector<Samples> &Clients, int Cls);
  uint64_t size() const { return N; }
  /// Nearest-rank quantile in ns, interpolated inside its bucket.
  double quantile(double Q) const;
  /// Samples ranked above quantile(Q).
  uint64_t above(double Q) const { return N ? N - rank(Q) - 1 : 0; }

private:
  uint64_t rank(double Q) const {
    return std::min<uint64_t>(static_cast<uint64_t>(Q * static_cast<double>(N)),
                              N - 1);
  }
  std::vector<uint64_t> Counts;
  uint64_t N = 0;
};

/// The measured phase of a run, epoch by epoch. Each epoch's throughput
/// and latency quantiles come from that epoch's samples alone, and the run
/// reports the median of each figure over its epochs: a host stall that
/// slows a few seconds of a run moves the result much less than it moves a
/// whole-run tail. Every quantile of an epoch must have at least ten
/// samples above it.
class EpochLog {
public:
  /// Hot and cold latencies are taken over classes \p HotCls and
  /// \p ColdCls; a workload whose requests are all of one kind passes
  /// Samples::AllClasses.
  EpochLog(int HotCls, int ColdCls) : HotCls(HotCls), ColdCls(ColdCls) {}

  /// Closes an epoch of \p Ns holding \p Clients' samples and clears
  /// them. The run's last epoch, cut short by its deadline, is left out of
  /// the figures (its requests still count as attempted) when it is too
  /// small for its quantiles and an earlier epoch exists.
  void close(std::vector<Samples> &Clients, uint64_t Ns, bool Last);
  size_t epochs() const { return Epochs.size(); }

  /// Adds every end-to-end metric and sets R.Attempted: the epoch medians,
  /// the median of \p SetupNs, and \p PeakRssKiB.
  void report(Result &R, const std::vector<double> &SetupNs,
              double PeakRssKiB) const;

private:
  int HotCls, ColdCls;
  uint64_t Requests = 0;
  std::vector<std::vector<Metric>> Epochs;
  std::vector<std::string> Short; ///< Epochs lacking quantile samples.
};

/// An epoch of a single-client loop closes once it has lasted this long
/// and holds this many requests (enough for ten samples above p99).
inline constexpr uint64_t MinEpochNs = 1'000'000'000;
inline constexpr uint64_t MinEpochRequests = 1100;

/// Runs a single closed-loop client for \p Seconds in epochs, logging
/// them to \p Log. \p Serve(I, S) sends request I, records its latency
/// into \p S and returns whether its outcome was the expected one;
/// \p Between() runs after every epoch but the last, off the epoch clock.
/// \p Lat is the client's histogram (allocated by the caller, before its
/// RSS baseline). Returns the number of failed requests.
template <typename ServeFn, typename BetweenFn>
uint64_t singleClientEpochs(double Seconds, std::vector<Samples> &Lat,
                            EpochLog &Log, ServeFn Serve,
                            BetweenFn Between) {
  const uint64_t Budget = static_cast<uint64_t>(Seconds * 1e9);
  uint64_t Failed = 0;
  auto Start = Clock::now(), EpochStart = Start;
  for (uint64_t I = 0;; ++I) {
    Failed += !Serve(I, Lat[0]);
    auto Now = Clock::now();
    bool Last = nanosSince(Start, Now) >= Budget;
    if (Last || (Lat[0].size() >= MinEpochRequests &&
                 nanosSince(EpochStart, Now) >= MinEpochNs)) {
      Log.close(Lat, nanosSince(EpochStart, Now), Last);
      if (Last)
        return Failed;
      Between();
      EpochStart = Clock::now();
    }
  }
}

/// Prints \p R as the final JSON line; returns the process exit code.
int emit(const Result &R);

//===----------------------------------------------------------------------===//
// In-memory span tracer (traced runs only)
//===----------------------------------------------------------------------===//

/// Spans recorded by the benchmark around its calls into each layer.
/// Single-threaded: the traced passes run one client. Names are static
/// strings; a span's parent is the innermost span open when it started,
/// and every span carries the request it belongs to.
class Tracer {
public:
  struct Span {
    const char *Name;
    uint32_t Parent; ///< Index of the enclosing span, or NoParent.
    uint32_t Request;
    uint8_t Class;
    uint64_t Start, End; ///< ns since the tracer's epoch.
  };
  static constexpr uint32_t NoParent = 0xffffffffu;

  Tracer() : Epoch(Clock::now()) {}

  uint32_t open(const char *Name) {
    uint32_t Id = static_cast<uint32_t>(Spans.size());
    Spans.push_back({Name, Stack.empty() ? NoParent : Stack.back(), Request,
                     Class, nanosSince(Epoch, Clock::now()), 0});
    Stack.push_back(Id);
    return Id;
  }
  void close(uint32_t Id) {
    Spans[Id].End = nanosSince(Epoch, Clock::now());
    Stack.pop_back();
  }
  /// Names span \p Id after the fact (a cache probe decides hit or miss).
  void rename(uint32_t Id, const char *Name) { Spans[Id].Name = Name; }
  /// Starts request \p Req of class \p Cls (attributes later spans).
  void beginRequest(uint32_t Req, uint8_t Cls) {
    Request = Req;
    Class = Cls;
  }
  /// Empties the tracer, keeping room for \p N spans already touched, so
  /// recording never reallocates or faults inside a measured span.
  void reset(size_t N) {
    Spans.resize(std::max(N, Spans.size()));
    Spans.clear();
    Stack.clear();
  }
  const std::vector<Span> &spans() const { return Spans; }

private:
  Clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<uint32_t> Stack;
  uint32_t Request = 0;
  uint8_t Class = 0;
};

/// RAII span; a null tracer records nothing.
class Scope {
public:
  Scope(Tracer *T, const char *Name) : T(T), Id(T ? T->open(Name) : 0) {}
  ~Scope() {
    if (T)
      T->close(Id);
  }
  void rename(const char *Name) {
    if (T)
      T->rename(Id, Name);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer *T;
  uint32_t Id;
};

/// Per-pass totals computed from a tracer's spans: self time per span
/// name, and per request class the root ("request") time and how much of
/// it the layer spans cover.
struct Ledger {
  std::map<std::string, uint64_t> SelfNs;  ///< By span name.
  std::map<std::string, uint64_t> TotalNs; ///< Inclusive, by span name.
  std::map<std::string, uint64_t> Calls;
  std::map<uint8_t, uint64_t> RootNs;    ///< By class.
  std::map<uint8_t, uint64_t> CoveredNs; ///< Layer self time, by class.
  std::map<uint8_t, uint64_t> Requests;  ///< By class.
  uint64_t requests() const {
    uint64_t N = 0;
    for (const auto &KV : Requests)
      N += KV.second;
    return N;
  }
  uint64_t rootNs() const {
    uint64_t N = 0;
    for (const auto &KV : RootNs)
      N += KV.second;
    return N;
  }
  void add(const Tracer &T);
};

/// What the passes of a traced run produced.
template <typename CountsT> struct TracedPasses {
  CountsT First;    ///< Counts of the first traced pass.
  Ledger Led;       ///< Spans of every traced pass.
  Tracer FirstPass; ///< The first traced pass, for the span file.
  std::vector<double> UntracedMeanNs; ///< One per untraced pass.
};

/// Alternates an untraced pass over a fixed request list (\p Untraced
/// returns its mean request time in ns) and a traced pass over the same
/// list (\p Traced records into the tracer it is given and returns the
/// pass's counts) until \p Seconds have passed, at least once. Fails \p R
/// when a traced pass's counts differ from the first pass's. \p SpanRoom
/// bounds the spans of one pass.
template <typename CountsT, typename UntracedFn, typename TracedFn>
TracedPasses<CountsT> tracePasses(double Seconds, size_t SpanRoom, Result &R,
                                  UntracedFn Untraced, TracedFn Traced) {
  TracedPasses<CountsT> P;
  Tracer Later;
  auto Start = Clock::now();
  for (unsigned Pass = 0;; ++Pass) {
    P.UntracedMeanNs.push_back(Untraced());
    Tracer &Into = Pass == 0 ? P.FirstPass : Later;
    Into.reset(SpanRoom);
    CountsT C = Traced(Into);
    P.Led.add(Into);
    if (Pass == 0)
      P.First = C;
    else if (!(C == P.First))
      R.fail("traced pass " + std::to_string(Pass) +
             " counts differ from the first pass on the same requests");
    if (nanosSince(Start, Clock::now()) >= Seconds * 1e9)
      return P;
  }
}

/// Name of the root span of every traced request.
inline constexpr const char *RequestSpan = "request";

/// Prints the ledger (self time per span, coverage per request class),
/// writes every span of \p FirstPass to \p Path (one tab-separated line
/// per span), and adds trace.coverage_pct (the share of the workload's
/// traced request time that layer spans cover) and trace.overhead_us
/// (traced minus untraced mean request time).
void reportTrace(Result &R, const Ledger &L, const Tracer &FirstPass,
                 const std::vector<std::string> &ClassNames,
                 const std::string &Path, double UntracedMeanNs);

/// Self time of span \p Name per traced request, as a `<metric>_us`.
inline Metric selfPerRequest(const Ledger &L, const std::string &Metric_,
                             const std::string &Span) {
  auto It = L.SelfNs.find(Span);
  double Ns = It == L.SelfNs.end() ? 0 : static_cast<double>(It->second);
  double N = static_cast<double>(std::max<uint64_t>(L.requests(), 1));
  return micros(Metric_, Ns / N);
}

/// Mean inclusive time of span \p Name per occurrence.
inline Metric meanPerCall(const Ledger &L, const std::string &Metric_,
                          const std::string &Span) {
  auto T = L.TotalNs.find(Span);
  auto C = L.Calls.find(Span);
  if (T == L.TotalNs.end() || C == L.Calls.end() || C->second == 0)
    return micros(Metric_, 0);
  return micros(Metric_, static_cast<double>(T->second) /
                             static_cast<double>(C->second));
}

/// The workloads; each runs set-up, then measures for Options::Seconds.
Result runServeMix(const Options &O);
Result runColdLink(const Options &O);
Result runInteropExec(const Options &O);

/// Set-up runs this many times before the measured phase, and once more
/// after each epoch of it but the last (off the epoch clock), so its
/// samples span the run as the measured figures do. setup_s is the median
/// of all of them.
inline constexpr unsigned SetupReps = 9;

} // namespace pb

#endif // PERFBENCH_HARNESS_H
