//===- obs/Obs.cpp - Process-wide observability layer ----------------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Storage layout. All metric slots live in one static sharded bank:
// NumShards banks of MaxSlots atomic words. A thread writes only its own
// bank (thread id modulo NumShards), so concurrent hot-path increments
// from different pool workers land on different cache lines; snapshot()
// folds the banks. Counters and gauges take one slot; a histogram takes
// HistBucketCount + 2 consecutive slots (count, sum, sub-buckets — see
// Obs.h for the HDR layout). Slot allocation is name-deduplicated under
// the registry mutex, so function-local static Counter/Phase objects in
// different TUs share storage by name. The banks are BSS (zero pages
// until touched), so raising MaxSlots for the wider histograms costs
// address space, not resident memory, until a slot is written.
//
// Trace events go to a per-thread ring buffer owned by a thread_local
// handle and co-owned by the global registry, so a pool worker's spans
// survive the pool's destruction and are exported with the worker's
// stable name. The buffers are written lock-free by their owner thread;
// collection (traceJson/clearTrace) is specified quiescent-only, which
// every in-tree caller satisfies by collecting after parallelFor returns.
//
// The whole file compiles away under -DRW_OBS=OFF: tests assert this TU
// then contributes no symbols at all.
//
//===----------------------------------------------------------------------===//

#include "obs/Obs.h"

#if RW_OBS_ENABLED

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

#if defined(__linux__)
#include <pthread.h>
#endif

using namespace rw;
using namespace rw::obs;

namespace {

constexpr unsigned NumShards = 16;
constexpr unsigned MaxSlots = 64 * 1024; ///< ~64 histograms + counters.
constexpr unsigned HistWords = HistBucketCount + 2; ///< count, sum, buckets.
static_assert(HistWords < MaxSlots, "bank must fit at least one histogram");
constexpr size_t TraceCapacity = 1 << 14; ///< Events per thread buffer.

struct alignas(64) ShardBank {
  std::atomic<uint64_t> V[MaxSlots];
};

ShardBank Banks[NumShards];

struct TraceEvent {
  const char *Name;
  uint64_t StartNs;
  uint64_t DurNs;
  uint64_t A, B;
};

struct TraceBuf {
  /// Ring of capacity TraceCapacity, allocated on the thread's first
  /// event and left uninitialized: zero-filling its 640 KB there would
  /// take time no span accounts for. Only slots below N are read.
  std::unique_ptr<TraceEvent[]> Ev;
  size_t N = 0;       ///< Events pushed since the last clear.
  size_t Dropped = 0; ///< Overwritten by wraparound since clear.
  uint64_t Tid = 0;   ///< Stable small id (registration order).
  std::string Name;   ///< "main", "pool-3", ... ("t<id>" default).
};

struct SlotInfo {
  std::string Name;
  MetricKind Kind;
  unsigned Slot;
  unsigned Words;
};

struct Source {
  uint64_t Id;
  std::string Prefix;
  std::function<void(const EmitFn &)> Fn;
};

struct Registry {
  std::mutex M;
  std::vector<SlotInfo> Slots;
  std::map<std::string, unsigned> ByName; ///< Name → index into Slots.
  unsigned NextSlot = 0;
  std::vector<std::unique_ptr<Phase>> Phases;
  std::vector<std::shared_ptr<TraceBuf>> Threads;
  uint64_t NextTid = 0;
  std::vector<Source> Sources;
  uint64_t NextSourceId = 1;
};

Registry &reg() {
  static Registry R;
  return R;
}

uint32_t flagsFromEnv() {
  auto On = [](const char *V) { return V && V[0] && !(V[0] == '0' && !V[1]); };
  uint32_t F = 0;
  if (On(std::getenv("RW_OBS")))
    F |= 1u;
  if (On(std::getenv("RW_OBS_TRACE")))
    F |= 3u; // Tracing implies enabled.
  return F;
}

uint64_t sampleFromEnv() {
  const char *V = std::getenv("RW_OBS_TRACE_SAMPLE");
  if (!V || !V[0])
    return 1;
  char *End = nullptr;
  unsigned long long N = std::strtoull(V, &End, 10);
  return (End && *End == '\0' && N > 1) ? N : 1;
}

/// 1-in-N head-sampling rate; N <= 1 disables suppression.
std::atomic<uint64_t> SampleN{sampleFromEnv()};

/// Per-thread sampling state: 0 = no enclosing TraceSampleScope (spans
/// record whenever tracing() — the pre-sampling behavior), 1 = selected,
/// 2 = suppressed.
thread_local uint8_t SampleState = 0;

/// The calling thread's trace buffer, registering it (and a default name)
/// on first use. The thread_local shared_ptr keeps the buffer alive for
/// the thread; the registry's copy keeps the *data* alive after exit.
TraceBuf &myBuf() {
  thread_local std::shared_ptr<TraceBuf> B = [] {
    auto P = std::make_shared<TraceBuf>();
    Registry &R = reg();
    std::lock_guard<std::mutex> G(R.M);
    P->Tid = R.NextTid++;
    P->Name = "t" + std::to_string(P->Tid);
    if (P->Tid == 0)
      P->Name = "main";
    R.Threads.push_back(P);
    return P;
  }();
  return *B;
}

std::atomic<unsigned> ShardCounter{0};

unsigned myShard() {
  thread_local unsigned S =
      ShardCounter.fetch_add(1, std::memory_order_relaxed) % NumShards;
  return S;
}

void jsonEscape(std::string &Out, const std::string &S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

} // namespace

namespace rw::obs::detail {

std::atomic<uint32_t> Flags{flagsFromEnv()};

unsigned allocSlots(const char *Name, MetricKind K, unsigned Words) {
  Registry &R = reg();
  std::lock_guard<std::mutex> G(R.M);
  auto It = R.ByName.find(Name);
  if (It != R.ByName.end())
    return R.Slots[It->second].Slot; // Same-name re-registration shares.
  if (R.NextSlot + Words > MaxSlots)
    return MaxSlots - Words; // Overflow: alias the tail rather than UB.
  unsigned Slot = R.NextSlot;
  R.NextSlot += Words;
  R.ByName.emplace(Name, static_cast<unsigned>(R.Slots.size()));
  R.Slots.push_back({Name, K, Slot, Words});
  return Slot;
}

void counterAdd(unsigned Slot, uint64_t N) {
  Banks[myShard()].V[Slot].fetch_add(N, std::memory_order_relaxed);
}

void gaugeSet(unsigned Slot, uint64_t V) {
  // Gauges are last-value: a single bank so reads need no fold rule.
  Banks[0].V[Slot].store(V, std::memory_order_relaxed);
}

uint64_t slotValue(unsigned Slot) {
  uint64_t Sum = 0;
  for (ShardBank &B : Banks)
    Sum += B.V[Slot].load(std::memory_order_relaxed);
  return Sum;
}

void histRecord(unsigned Slot, uint64_t Sample) {
  unsigned Bucket = histBucketIndex(Sample);
  ShardBank &B = Banks[myShard()];
  B.V[Slot].fetch_add(1, std::memory_order_relaxed);
  B.V[Slot + 1].fetch_add(Sample, std::memory_order_relaxed);
  B.V[Slot + 2 + Bucket].fetch_add(1, std::memory_order_relaxed);
}

void spanEnd(const Phase &P, uint64_t StartNs, uint64_t A, uint64_t B) {
  uint64_t Dur = nowNs() - StartNs;
  P.Hist.record(Dur);
  if (!tracing())
    return;
  // Head sampling: when a rate is set and this thread is inside a
  // suppressed TraceSampleScope, keep the histogram record above but
  // skip the ring event. Threads with no scope record as before.
  if (SampleState == 2 && SampleN.load(std::memory_order_relaxed) > 1)
    return;
  TraceBuf &T = myBuf();
  if (!T.Ev)
    T.Ev = std::make_unique_for_overwrite<TraceEvent[]>(TraceCapacity);
  if (T.N >= TraceCapacity) {
    ++T.Dropped;
    static Counter DroppedC("obs.trace.dropped");
    DroppedC.inc();
  }
  T.Ev[T.N % TraceCapacity] = {P.Name, StartNs, Dur, A, B};
  ++T.N;
}

} // namespace rw::obs::detail

void rw::obs::setEnabled(bool On) {
  uint32_t F = detail::Flags.load(std::memory_order_relaxed);
  detail::Flags.store(On ? (F | 1u) : (F & ~3u), std::memory_order_relaxed);
}

void rw::obs::setTracing(bool On) {
  uint32_t F = detail::Flags.load(std::memory_order_relaxed);
  detail::Flags.store(On ? (F | 3u) : (F & ~2u), std::memory_order_relaxed);
}

void rw::obs::setTraceSampling(uint64_t N) {
  SampleN.store(N > 1 ? N : 1, std::memory_order_relaxed);
}

uint64_t rw::obs::traceSampling() {
  return SampleN.load(std::memory_order_relaxed);
}

bool rw::obs::traceSampleSelect(uint64_t ContentHash) {
  uint64_t N = SampleN.load(std::memory_order_relaxed);
  if (N <= 1)
    return true;
  // Finalizer-style mix so low-entropy hash bits still spread across the
  // modulus; pure function of (hash, N) — thread- and order-independent.
  uint64_t H = ContentHash;
  H ^= H >> 33;
  H *= 0xff51afd7ed558ccdull;
  H ^= H >> 33;
  H *= 0xc4ceb9fe1a85ec53ull;
  H ^= H >> 33;
  return H % N == 0;
}

rw::obs::TraceSampleScope::TraceSampleScope(bool Selected) : Prev(SampleState) {
  SampleState = Selected ? 1 : 2;
}

rw::obs::TraceSampleScope::~TraceSampleScope() { SampleState = Prev; }

bool rw::obs::traceSampleActive() { return SampleState != 0; }

uint64_t rw::obs::traceDroppedCount() {
  Registry &R = reg();
  std::lock_guard<std::mutex> G(R.M);
  uint64_t N = 0;
  for (const std::shared_ptr<TraceBuf> &T : R.Threads)
    N += T->Dropped;
  return N;
}

uint64_t rw::obs::nowNs() {
  timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(Ts.tv_nsec);
}

void rw::obs::setThreadName(const char *Name) {
  TraceBuf &T = myBuf();
  {
    Registry &R = reg();
    std::lock_guard<std::mutex> G(R.M);
    T.Name = Name;
  }
#if defined(__linux__)
  char Buf[16]; // pthread names cap at 15 chars + NUL.
  std::strncpy(Buf, Name, sizeof(Buf) - 1);
  Buf[sizeof(Buf) - 1] = '\0';
  pthread_setname_np(pthread_self(), Buf);
#endif
}

Phase &rw::obs::phase(const char *Name) {
  Registry &R = reg();
  {
    std::lock_guard<std::mutex> G(R.M);
    for (const std::unique_ptr<Phase> &P : R.Phases)
      if (std::strcmp(P->Name, Name) == 0)
        return *P;
  }
  // Construct OUTSIDE the registry lock: the Phase's Histogram
  // constructor takes it again via allocSlots (non-recursive mutex).
  // allocSlots copies the name into the registry, so the temporary
  // "phase.<name>.ns" is safe; same-name slot dedup makes a racing
  // duplicate construction harmless.
  std::string HistName = std::string("phase.") + Name + ".ns";
  auto P = std::make_unique<Phase>(Name, HistName.c_str());
  std::lock_guard<std::mutex> G(R.M);
  for (const std::unique_ptr<Phase> &Q : R.Phases)
    if (std::strcmp(Q->Name, Name) == 0)
      return *Q; // A racer interned it first; keep the canonical one.
  R.Phases.push_back(std::move(P));
  return *R.Phases.back();
}

uint64_t rw::obs::registerSource(const char *Prefix,
                                 std::function<void(const EmitFn &)> Fn) {
  Registry &R = reg();
  std::lock_guard<std::mutex> G(R.M);
  std::string P = Prefix;
  auto Taken = [&](const std::string &S) {
    return std::any_of(R.Sources.begin(), R.Sources.end(),
                       [&](const Source &Src) { return Src.Prefix == S; });
  };
  for (unsigned N = 2; Taken(P); ++N)
    P = std::string(Prefix) + "#" + std::to_string(N);
  uint64_t Id = R.NextSourceId++;
  R.Sources.push_back({Id, std::move(P), std::move(Fn)});
  return Id;
}

void rw::obs::unregisterSource(uint64_t Id) {
  if (!Id)
    return;
  Registry &R = reg();
  std::lock_guard<std::mutex> G(R.M);
  R.Sources.erase(std::remove_if(R.Sources.begin(), R.Sources.end(),
                                 [&](const Source &S) { return S.Id == Id; }),
                  R.Sources.end());
}

Snapshot rw::obs::snapshot() {
  Registry &R = reg();
  Snapshot Out;
  std::vector<Source> Sources;
  {
    std::lock_guard<std::mutex> G(R.M);
    Out.Metrics.reserve(R.Slots.size());
    for (const SlotInfo &S : R.Slots) {
      Metric M;
      M.Name = S.Name;
      M.Kind = S.Kind;
      if (S.Kind == MetricKind::Histogram) {
        M.Value = detail::slotValue(S.Slot);
        M.Sum = detail::slotValue(S.Slot + 1);
        M.Buckets.resize(HistBucketCount);
        for (unsigned B = 0; B < HistBucketCount; ++B)
          M.Buckets[B] = detail::slotValue(S.Slot + 2 + B);
      } else {
        M.Value = detail::slotValue(S.Slot);
      }
      Out.Metrics.push_back(std::move(M));
    }
    Sources = R.Sources; // Sampled outside the lock: a source may itself
                         // take locks (cache mutex, arena spinlock).
  }
  for (const Source &S : Sources) {
    EmitFn Emit = [&](const char *Name, uint64_t V) {
      Metric M;
      M.Name = S.Prefix + "." + Name;
      M.Kind = MetricKind::Counter;
      M.Value = V;
      Out.Metrics.push_back(std::move(M));
    };
    S.Fn(Emit);
  }
  return Out;
}

std::string rw::obs::renderText(const Snapshot &S) {
  std::string Out;
  char Buf[256];
  for (const Metric &M : S.Metrics) {
    if (M.Kind == MetricKind::Histogram) {
      double Mean =
          M.Value ? static_cast<double>(M.Sum) / static_cast<double>(M.Value)
                  : 0.0;
      std::snprintf(
          Buf, sizeof(Buf),
          "%-32s count=%llu mean=%.0f p50~%llu p99~%llu p999~%llu\n",
          M.Name.c_str(), static_cast<unsigned long long>(M.Value), Mean,
          static_cast<unsigned long long>(histQuantile(M, 0.50)),
          static_cast<unsigned long long>(histQuantile(M, 0.99)),
          static_cast<unsigned long long>(histQuantile(M, 0.999)));
    } else {
      std::snprintf(Buf, sizeof(Buf), "%-32s %llu\n", M.Name.c_str(),
                    static_cast<unsigned long long>(M.Value));
    }
    Out += Buf;
  }
  return Out;
}

std::string rw::obs::renderJson(const Snapshot &S) {
  std::string Out = "{\"metrics\":{";
  bool First = true;
  char Buf[256];
  for (const Metric &M : S.Metrics) {
    if (!First)
      Out += ",";
    First = false;
    Out += "\"";
    jsonEscape(Out, M.Name);
    Out += "\":";
    if (M.Kind == MetricKind::Histogram) {
      std::snprintf(Buf, sizeof(Buf),
                    "{\"count\":%llu,\"sum\":%llu,\"p50\":%llu,\"p99\":%llu,"
                    "\"p999\":%llu,\"buckets\":{",
                    static_cast<unsigned long long>(M.Value),
                    static_cast<unsigned long long>(M.Sum),
                    static_cast<unsigned long long>(histQuantile(M, 0.50)),
                    static_cast<unsigned long long>(histQuantile(M, 0.99)),
                    static_cast<unsigned long long>(histQuantile(M, 0.999)));
      Out += Buf;
      bool FirstB = true;
      for (size_t B = 0; B < M.Buckets.size(); ++B) {
        if (!M.Buckets[B])
          continue;
        if (!FirstB)
          Out += ",";
        FirstB = false;
        std::snprintf(Buf, sizeof(Buf), "\"%zu\":%llu", B,
                      static_cast<unsigned long long>(M.Buckets[B]));
        Out += Buf;
      }
      Out += "}}";
    } else {
      std::snprintf(Buf, sizeof(Buf), "%llu",
                    static_cast<unsigned long long>(M.Value));
      Out += Buf;
    }
  }
  Out += "}}";
  return Out;
}

namespace {

/// Splits a registry metric name into a Prometheus base name + labels.
/// "cache#2.hits" → base "cache_hits", instance="cache#2";
/// "cache.shard3.evictions" → base "cache_evictions", shard="3".
struct PromName {
  std::string Base;   ///< Sanitized, "rw_"-prefixed.
  std::string Labels; ///< Rendered {k="v",...} block, or empty.
};

PromName promSplit(const std::string &Name) {
  std::string Instance, Shard, Stripped;
  size_t Pos = 0;
  bool FirstSeg = true;
  while (Pos <= Name.size()) {
    size_t Dot = Name.find('.', Pos);
    if (Dot == std::string::npos)
      Dot = Name.size();
    std::string Seg = Name.substr(Pos, Dot - Pos);
    size_t Hash = Seg.find('#');
    if (FirstSeg && Hash != std::string::npos) {
      Instance = Seg;               // Uniquified source prefix.
      Seg = Seg.substr(0, Hash);    // Base name keeps the stem.
    } else if (Seg.size() > 5 && Seg.compare(0, 5, "shard") == 0 &&
               Seg.find_first_not_of("0123456789", 5) == std::string::npos) {
      Shard = Seg.substr(5);
      Seg.clear(); // Lifted into a label; drop from the name.
    }
    if (!Seg.empty()) {
      if (!Stripped.empty())
        Stripped += '.';
      Stripped += Seg;
    }
    FirstSeg = false;
    if (Dot == Name.size())
      break;
    Pos = Dot + 1;
  }
  PromName Out;
  Out.Base = "rw_" + promSanitizeName(Stripped);
  std::string L;
  if (!Instance.empty())
    L += "instance=\"" + promEscapeLabel(Instance) + "\"";
  if (!Shard.empty()) {
    if (!L.empty())
      L += ",";
    L += "shard=\"" + Shard + "\"";
  }
  if (!L.empty())
    Out.Labels = "{" + L + "}";
  return Out;
}

} // namespace

std::string rw::obs::renderPrometheus(const Snapshot &S) {
  std::string Out;
  char Buf[128];
  // One # TYPE line per base name, on first sight (labeled series of the
  // same base — shards, instances — share one TYPE declaration).
  std::map<std::string, MetricKind> Typed;
  for (const Metric &M : S.Metrics) {
    PromName P = promSplit(M.Name);
    auto It = Typed.find(P.Base);
    if (It == Typed.end()) {
      Out += "# TYPE " + P.Base + " ";
      Out += M.Kind == MetricKind::Histogram ? "histogram"
             : M.Kind == MetricKind::Gauge   ? "gauge"
                                             : "counter";
      Out += "\n";
      Typed.emplace(P.Base, M.Kind);
    }
    if (M.Kind != MetricKind::Histogram) {
      std::snprintf(Buf, sizeof(Buf), " %llu\n",
                    static_cast<unsigned long long>(M.Value));
      Out += P.Base + P.Labels + Buf;
      continue;
    }
    // Classic cumulative histogram: one le series per non-empty bucket
    // upper bound (a subset of thresholds is valid exposition), +Inf,
    // then _sum and _count. Labels merge with the le label.
    std::string Inner =
        P.Labels.empty() ? "" : P.Labels.substr(1, P.Labels.size() - 2) + ",";
    uint64_t Cum = 0;
    for (size_t B = 0; B < M.Buckets.size(); ++B) {
      if (!M.Buckets[B])
        continue;
      Cum += M.Buckets[B];
      std::snprintf(Buf, sizeof(Buf), "le=\"%llu\"} %llu\n",
                    static_cast<unsigned long long>(
                        histBucketHi(static_cast<unsigned>(B))),
                    static_cast<unsigned long long>(Cum));
      Out += P.Base + "_bucket{" + Inner + Buf;
    }
    // A snapshot taken while recorders run can see count ahead of the
    // buckets (or behind); keep the +Inf series monotone regardless.
    uint64_t Inf = Cum > M.Value ? Cum : M.Value;
    std::snprintf(Buf, sizeof(Buf), "le=\"+Inf\"} %llu\n",
                  static_cast<unsigned long long>(Inf));
    Out += P.Base + "_bucket{" + Inner + Buf;
    std::snprintf(Buf, sizeof(Buf), " %llu\n",
                  static_cast<unsigned long long>(M.Sum));
    Out += P.Base + "_sum" + P.Labels + Buf;
    std::snprintf(Buf, sizeof(Buf), " %llu\n",
                  static_cast<unsigned long long>(M.Value));
    Out += P.Base + "_count" + P.Labels + Buf;
  }
  return Out;
}

std::string rw::obs::traceJson() {
  Registry &R = reg();
  std::vector<std::shared_ptr<TraceBuf>> Bufs;
  {
    std::lock_guard<std::mutex> G(R.M);
    Bufs = R.Threads;
  }
  std::string Out = "{\"traceEvents\":[";
  char Buf[256];
  bool First = true;
  for (const std::shared_ptr<TraceBuf> &T : Bufs) {
    if (!First)
      Out += ",";
    First = false;
    Out += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":";
    Out += std::to_string(T->Tid);
    Out += ",\"args\":{\"name\":\"";
    jsonEscape(Out, T->Name);
    Out += "\"}}";
    size_t Count = std::min(T->N, TraceCapacity);
    size_t Begin = T->N - Count; // Oldest retained event index.
    for (size_t I = Begin; I < T->N; ++I) {
      const TraceEvent &E = T->Ev[I % TraceCapacity];
      std::snprintf(Buf, sizeof(Buf),
                    ",{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"rw\",\"pid\":1,"
                    "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"a\":%llu,\"b\":%llu}}",
                    E.Name, static_cast<unsigned long long>(T->Tid),
                    static_cast<double>(E.StartNs) / 1000.0,
                    static_cast<double>(E.DurNs) / 1000.0,
                    static_cast<unsigned long long>(E.A),
                    static_cast<unsigned long long>(E.B));
      Out += Buf;
    }
  }
  Out += "]}";
  return Out;
}

void rw::obs::clearTrace() {
  Registry &R = reg();
  std::lock_guard<std::mutex> G(R.M);
  for (const std::shared_ptr<TraceBuf> &T : R.Threads) {
    T->N = 0;
    T->Dropped = 0;
  }
}

size_t rw::obs::traceEventCount() {
  Registry &R = reg();
  std::lock_guard<std::mutex> G(R.M);
  size_t N = 0;
  for (const std::shared_ptr<TraceBuf> &T : R.Threads)
    N += std::min(T->N, TraceCapacity);
  return N;
}

#endif // RW_OBS_ENABLED
