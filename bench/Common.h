//===- bench/Common.h - Shared workloads for the benchmark suite -*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The workloads shared across the per-experiment benchmark binaries: the
/// Fig 1/Fig 3 interop sources, the Fig 9 counter/client pair, and
/// parameterized RichWasm module generators.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_BENCH_COMMON_H
#define RICHWASM_BENCH_COMMON_H

#include "cache/AdmissionCache.h"
#include "ir/Builder.h"
#include "l3/L3.h"
#include "link/Link.h"
#include "lower/Lower.h"
#include "ml/ML.h"
#include "obs/Obs.h"
#include "typing/Checker.h"
#include "wasm/Interp.h"
#include "wasm/Binary.h"
#include "wasm/Validate.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

namespace rwbench {

/// A short host fingerprint — CPU model, logical core count, cpufreq
/// scaling governor — for stamping into benchmark context and the
/// BENCH_*.json trajectory files. Perf numbers recorded by successive
/// PRs are only comparable when this string matches; run_bench.sh warns
/// when it overwrites a baseline recorded on a different host.
inline std::string hostFingerprint() {
  std::string Model = "unknown-cpu";
  std::ifstream Cpu("/proc/cpuinfo");
  for (std::string Line; std::getline(Cpu, Line);) {
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos) {
        Model = Line.substr(Colon + 1);
        // Trim and collapse runs of whitespace (cpuinfo pads with tabs).
        std::string Out;
        for (char C : Model) {
          if (C == ' ' || C == '\t') {
            if (!Out.empty() && Out.back() != ' ')
              Out.push_back(' ');
          } else {
            Out.push_back(C);
          }
        }
        while (!Out.empty() && Out.back() == ' ')
          Out.pop_back();
        Model = Out;
      }
      break;
    }
  }
  std::string Gov = "unknown-governor";
  std::ifstream G("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  if (G && !std::getline(G, Gov))
    Gov = "unknown-governor";
  return Model + " | cores=" +
         std::to_string(std::thread::hardware_concurrency()) +
         " | governor=" + Gov;
}

/// Copies every obs counter/gauge under one of \p Prefixes into a
/// benchmark's user counters, mapping "cache.hits" → "cache_hits" (the
/// key shape run_bench.sh parses). This is the one bench-side renderer
/// for registry-backed stats: benches no longer reach into
/// cache::CacheStats / ir::TypeArena::Stats by hand, so a counter added
/// to a snapshot source shows up in every bench that exports its prefix.
/// Templated on the state type only to keep benchmark.h out of this
/// header. Under RW_OBS=OFF the snapshot is empty and nothing is
/// exported.
template <typename BenchmarkState>
inline void exportObsCounters(BenchmarkState &St,
                              std::initializer_list<const char *> Prefixes) {
  rw::obs::Snapshot S = rw::obs::snapshot();
  for (const rw::obs::Metric &M : S.Metrics) {
    if (M.Kind == rw::obs::MetricKind::Histogram)
      continue; // Phase timings live in obs::renderText/Json, not here.
    for (const char *P : Prefixes) {
      std::string Pref = std::string(P) + ".";
      if (M.Name.compare(0, Pref.size(), Pref) != 0)
        continue;
      std::string Key = M.Name;
      std::replace(Key.begin(), Key.end(), '.', '_');
      St.counters[Key] = static_cast<double>(M.Value);
      break;
    }
  }
}

inline const char *MLStashUnsafe =
    "global c = linref [ref int] () ;;"
    "export fun stash (r : lin (ref int)) : lin (ref int) = c := r; r ;;"
    "export fun get_stashed (u : unit) : lin (ref int) = !c ;;";

inline const char *MLStashSafe =
    "global c = linref [ref int] () ;;"
    "export fun stash (r : lin (ref int)) : unit = c := r ;;"
    "export fun get_stashed (u : unit) : lin (ref int) = !c ;;";

inline const char *L3ClientUnsafe =
    "import ml.stash : Ref int -o Ref int ;;"
    "import ml.get_stashed : unit -o Ref int ;;"
    "export fun main (u : unit) : int = "
    "  free (split (stash (join (new 42)))) ; "
    "  free (split (get_stashed ())) ;;";

inline const char *L3ClientSafe =
    "import ml.stash : Ref int -o unit ;;"
    "import ml.get_stashed : unit -o Ref int ;;"
    "export fun main (u : unit) : int = "
    "  stash (join (new 42)) ; "
    "  free (split (get_stashed ())) ;;";

inline const char *CounterLibL3 =
    "export fun make (n : int) : Ref int = join (new n) ;;"
    "export fun bump (r : Ref int) : Ref int = "
    "  let (old, c) = swap (split r) 0 in "
    "  let (z, c2) = swap c (old + 1) in "
    "  join c2 ;;"
    "export fun finish (r : Ref int) : int = free (split r) ;;";

inline const char *CounterClientML =
    "import lib.make : int -> lin (ref int) ;;"
    "import lib.bump : lin (ref int) -> lin (ref int) ;;"
    "import lib.finish : lin (ref int) -> int ;;"
    "global cell = linref [ref int] () ;;"
    "global rate = ref 1 ;;"
    "export fun init (u : unit) : unit = cell := make 0 ;;"
    "fun ntimes (n : int) : unit = "
    "  if n = 0 then () else (cell := bump !cell; ntimes (n - 1)) ;;"
    "export fun tick (u : unit) : unit = ntimes !rate ;;"
    "export fun set_rate (n : int) : unit = rate := n ;;"
    "export fun total (u : unit) : int = finish !cell ;;";

/// A module whose exported `main` sums 1..N with a loop (pure numerics).
inline rw::ir::Module loopModule(int32_t N) {
  using namespace rw::ir;
  using namespace rw::ir::build;
  rw::ir::Module M;
  M.Name = "loopmod";
  InstVec Body = {
      iconst(0), setLocal(0), iconst(0), setLocal(1),
      block(arrow({}, {}), {},
            {loop(arrow({}, {}),
                  {getLocal(1, Qual::unr()), iconst(1), addI32(),
                   setLocal(1), getLocal(0, Qual::unr()),
                   getLocal(1, Qual::unr()), addI32(), setLocal(0),
                   getLocal(1, Qual::unr()), iconst(N),
                   relop(NumType::I32, RelopKind::Lt), brIf(0)})}),
      getLocal(0, Qual::unr()),
  };
  M.Funcs.push_back(function({"main"},
                             FunType::get({}, arrow({}, {i32T()})),
                             {Size::constant(32), Size::constant(32)},
                             std::move(Body)));
  return M;
}

/// A module whose `main` calls a one-add function N times in a loop:
/// the call-heavy kernel (call overhead dominates the work).
inline rw::ir::Module callsModule(int32_t N) {
  using namespace rw::ir;
  using namespace rw::ir::build;
  rw::ir::Module M;
  M.Name = "callmod";
  InstVec Body = {
      iconst(0), setLocal(0), iconst(0), setLocal(1),
      block(arrow({}, {}), {},
            {loop(arrow({}, {}),
                  {getLocal(0, Qual::unr()), call(1), setLocal(0),
                   getLocal(1, Qual::unr()), iconst(1), addI32(),
                   setLocal(1), getLocal(1, Qual::unr()), iconst(N),
                   relop(NumType::I32, RelopKind::Lt), brIf(0)})}),
      getLocal(0, Qual::unr()),
  };
  M.Funcs.push_back(function({"main"},
                             FunType::get({}, arrow({}, {i32T()})),
                             {Size::constant(32), Size::constant(32)},
                             std::move(Body)));
  M.Funcs.push_back(function({}, FunType::get({}, arrow({i32T()}, {i32T()})),
                             {}, {getLocal(0, Qual::unr()), iconst(1),
                                  addI32()}));
  return M;
}

/// A module whose `main` performs N linear alloc/swap/free round-trips.
inline rw::ir::Module allocModule(int32_t N, bool Linear) {
  using namespace rw::ir;
  using namespace rw::ir::build;
  rw::ir::Module M;
  M.Name = "allocmod";
  InstVec Loop = {
      iconst(7),
      structMalloc({Size::constant(32)},
                   Linear ? Qual::lin() : Qual::unr()),
  };
  if (Linear)
    Loop.push_back(memUnpack(arrow({}, {}), {}, {structFree()}));
  else
    Loop.push_back(memUnpack(arrow({}, {}), {}, {drop()}));
  InstVec Rest = {getLocal(1, Qual::unr()), iconst(1), addI32(),
                  setLocal(1), getLocal(1, Qual::unr()), iconst(N),
                  relop(NumType::I32, RelopKind::Lt), brIf(0)};
  Loop.insert(Loop.end(), Rest.begin(), Rest.end());
  InstVec Body = {
      iconst(0), setLocal(1),
      block(arrow({}, {}), {}, {loop(arrow({}, {}), std::move(Loop))}),
      iconst(0),
  };
  M.Funcs.push_back(function(
      {"main"}, FunType::get({}, arrow({}, {i32T()})),
      {Size::constant(64), Size::constant(32)}, std::move(Body)));
  return M;
}

/// A module `app` with one i32 global imported from (\p From, "g") and
/// nothing else: it type-checks, and no single-module link set resolves
/// it. \p From is the user-chosen name a rejection message quotes.
inline rw::ir::Module globalImportModule(const std::string &From) {
  rw::ir::Module M;
  M.Name = "app";
  rw::ir::Global G;
  G.P = rw::ir::numPT(rw::ir::NumType::I32);
  G.Import = rw::ir::ImportName{From, "g"};
  M.Globals.push_back(std::move(G));
  return M;
}

/// A module `app` whose one function, of type [] -> [], is imported from
/// ("host", "f"): it type-checks and lowers to a Wasm import, which only
/// an embedder that binds host functions can satisfy.
inline rw::ir::Module funcImportModule() {
  rw::ir::Module M;
  M.Name = "app";
  M.Funcs.push_back(rw::ir::build::importFunc(
      {"host", "f"}, rw::ir::FunType::get({}, rw::ir::build::arrow({}, {}))));
  return M;
}

/// A module with `Funcs` copies of an arithmetic/heap function — the
/// checker-throughput workload. Returns total instruction count too.
inline rw::ir::Module wideModule(unsigned Funcs) {
  using namespace rw::ir;
  using namespace rw::ir::build;
  rw::ir::Module M;
  M.Name = "wide";
  for (unsigned I = 0; I < Funcs; ++I) {
    InstVec Body = {
        getLocal(0, Qual::unr()),
        iconst(static_cast<int32_t>(I)),
        addI32(),
        structMalloc({Size::constant(32)}, Qual::lin()),
        memUnpack(arrow({}, {i32T()}), {{1, i32T()}},
                  {iconst(9), structSwap(0), setLocal(1), structFree(),
                   getLocal(1, Qual::unr())}),
        iconst(3),
        mulI32(),
    };
    M.Funcs.push_back(function(
        {}, FunType::get({}, arrow({i32T()}, {i32T()})),
        {Size::constant(32)}, std::move(Body)));
  }
  return M;
}

/// An N-module admission set in the fig3 link shape (everyone imports the
/// foundational modules) with checker-relevant bodies: each exported
/// function allocates, strongly updates, and frees a linear struct, so a
/// check (and a lowering) costs what real library code costs. Shared by
/// the c6 admission-cache benches and the fig3 cold-instantiate bench.
struct AdmissionSet {
  std::vector<rw::ir::Module> Mods;
  std::vector<const rw::ir::Module *> Ptrs;

  explicit AdmissionSet(unsigned N, unsigned Funcs = 4) {
    using namespace rw::ir;
    using namespace rw::ir::build;
    FunTypeRef Fn = FunType::get({}, arrow({i32T()}, {i32T()}));
    auto modName = [](unsigned I) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "user_pkg_%06u", I);
      return std::string(Buf);
    };
    Mods.reserve(N);
    for (unsigned I = 0; I < N; ++I) {
      rw::ir::Module M;
      M.Name = modName(I);
      for (unsigned J = 0; J < Funcs; ++J) {
        InstVec Body = {
            getLocal(0, Qual::unr()),
            iconst(static_cast<int32_t>(I * Funcs + J)),
            addI32(),
            structMalloc({Size::constant(32)}, Qual::lin()),
            memUnpack(arrow({}, {i32T()}), {{1, i32T()}},
                      {iconst(9), structSwap(0), setLocal(1), structFree(),
                       getLocal(1, Qual::unr())}),
            iconst(3),
            mulI32(),
        };
        M.Funcs.push_back(
            function({"f" + std::to_string(I) + "_" + std::to_string(J)}, Fn,
                     {Size::constant(32)}, std::move(Body)));
      }
      if (I > 0)
        for (unsigned J = 0; J < 2; ++J) {
          unsigned P = (I * 7 + J * 13) % std::min(I, 4u);
          unsigned E = (I + J) % Funcs;
          M.Funcs.push_back(importFunc(
              {modName(P), "f" + std::to_string(P) + "_" + std::to_string(E)},
              Fn));
        }
      Mods.push_back(std::move(M));
    }
    for (const rw::ir::Module &M : Mods)
      Ptrs.push_back(&M);
  }
};

/// One cached admission of \p Set (the c6 workload):
/// link::instantiateLowered on the flat engine, start functions skipped,
/// with \p Pool for the cold check and lowering. Each module is checked
/// once, inside buildArtifact, and only on a cache miss.
inline bool admitCached(const AdmissionSet &Set,
                        rw::support::ThreadPool &Pool,
                        rw::cache::AdmissionCache &C) {
  rw::link::LinkOptions Opts;
  Opts.Cache = &C;
  Opts.Pool = &Pool;
  Opts.RunStart = false;
  return bool(rw::link::instantiateLowered(Set.Ptrs, Opts));
}

} // namespace rwbench

#endif // RICHWASM_BENCH_COMMON_H
