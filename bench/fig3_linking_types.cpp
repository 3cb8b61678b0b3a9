//===- bench/fig3_linking_types.cpp - F3: full ML⊣L3 pipeline -------------===//
// Reproduces Fig 3: both source programs compile under their own checkers;
// the unsafe pair is rejected at link time (statically), the safe pair
// links and runs. Measures the full pipeline for both outcomes.
#include "Common.h"
#include "ingest/Ingest.h"
#include "serial/Serial.h"
#include "support/ThreadPool.h"
#include <algorithm>
#include <cstdio>
#include <benchmark/benchmark.h>
using namespace rw;
using namespace rwbench;

static void F3_UnsafePairRejectedAtLink(benchmark::State &St) {
  for (auto _ : St) {
    auto ML = ml::compileSource("ml", MLStashUnsafe);
    auto L3 = l3::compileSource("l3", L3ClientUnsafe);
    auto Mach = link::instantiate({&*ML, &*L3});
    if (bool(Mach)) { St.SkipWithError("unsafe program was accepted!"); return; }
    benchmark::DoNotOptimize(Mach.error().message().size());
  }
}
BENCHMARK(F3_UnsafePairRejectedAtLink);

static void F3_SafePairLinksAndRuns(benchmark::State &St) {
  for (auto _ : St) {
    auto ML = ml::compileSource("ml", MLStashSafe);
    auto L3 = l3::compileSource("l3", L3ClientSafe);
    auto Mach = link::instantiate({&*ML, &*L3});
    auto R = (*Mach)->invoke(1, *link::findExport(*L3, "main"), {},
                             {sem::Value::unit()});
    if (!R || (*R)[0].bits() != 42) { St.SkipWithError("bad result"); return; }
  }
}
BENCHMARK(F3_SafePairLinksAndRuns);

//===----------------------------------------------------------------------===//
// Batch import resolution (DESIGN.md §7): N modules, each exporting a few
// functions and importing from earlier modules — the admission-server
// linking shape. Measures resolveImports alone (no body checking, no
// instantiation) so the two strategies are compared on exactly the phase
// the export index changes: sequential = per-import linear scans over
// earlier modules' export lists; batch = the (name, canonical FunType*)
// hash index. run_bench.sh emits the pair into BENCH_link.json.
//===----------------------------------------------------------------------===//

namespace {

/// Builds an N-module link set: module i exports `f<i>_<j>` (j < Exports,
/// types alternating between two arrows so the index is not degenerate)
/// and imports Exports functions from the preceding modules. Imports
/// follow the real dependency shape: most reference the *foundational*
/// modules linked first (the libc/WASI pattern — everyone imports the
/// runtime), the rest scatter over later providers. Exports defaults to
/// 24 — the order of a real interface surface (WASI preview1 exports ~45
/// functions).
struct LinkSet {
  std::vector<rw::ir::Module> Mods;
  std::vector<const rw::ir::Module *> Ptrs;

  explicit LinkSet(unsigned N, unsigned Exports = 24) {
    using namespace rw::ir;
    using namespace rw::ir::build;
    FunTypeRef Tys[2] = {FunType::get({}, arrow({i32T()}, {i32T()})),
                         FunType::get({}, arrow({i64T()}, {i64T()}))};
    // Realistic module naming: a multi-tenant server addresses untrusted
    // modules by fixed-width identifier (content digest / tenant id), so
    // every name shares a long prefix and the same length — comparisons
    // discriminate late, never on length.
    auto modName = [](unsigned I) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "user_pkg_%06u", I);
      return std::string(Buf);
    };
    Mods.reserve(N);
    for (unsigned I = 0; I < N; ++I) {
      ir::Module M;
      M.Name = modName(I);
      for (unsigned J = 0; J < Exports; ++J)
        M.Funcs.push_back(function(
            {"f" + std::to_string(I) + "_" + std::to_string(J)},
            Tys[(I + J) % 2], {}, {getLocal(0, Qual::unr())}));
      if (I > 0)
        for (unsigned J = 0; J < Exports; ++J) {
          // 3 of 4 imports hit the foundational modules at the front of
          // the link order; the rest spread over all predecessors.
          unsigned P = (J % 4 != 3)
                           ? (I * 7 + J * 13) % std::min(I, 4u)
                           : (I * 7 + J * 13) % I;
          unsigned E = (I + J * 3) % Exports;
          M.Funcs.push_back(importFunc(
              {modName(P), "f" + std::to_string(P) + "_" + std::to_string(E)},
              Tys[(P + E) % 2]));
        }
      Mods.push_back(std::move(M));
    }
    for (const ir::Module &M : Mods)
      Ptrs.push_back(&M);
  }
};

void runResolve(benchmark::State &St, link::ResolveMode Mode) {
  LinkSet Set(static_cast<unsigned>(St.range(0)));
  uint64_t Imports = 0;
  for (const rw::ir::Module *M : Set.Ptrs)
    for (const rw::ir::Function &F : M->Funcs)
      Imports += F.isImport();
  for (auto _ : St) {
    auto R = link::resolveImports(Set.Ptrs, Mode);
    if (!R) { St.SkipWithError("resolution failed"); return; }
    benchmark::DoNotOptimize(R->size());
  }
  St.counters["imports/s"] = benchmark::Counter(
      static_cast<double>(Imports) * St.iterations(),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

} // namespace

static void F3_ResolveSequential(benchmark::State &St) {
  runResolve(St, link::ResolveMode::Sequential);
}
BENCHMARK(F3_ResolveSequential)->Arg(8)->Arg(64)->Arg(256);

static void F3_ResolveBatch(benchmark::State &St) {
  runResolve(St, link::ResolveMode::Batch);
}
BENCHMARK(F3_ResolveBatch)->Arg(8)->Arg(64)->Arg(256);

//===----------------------------------------------------------------------===//
// Cold admission: the full uncached shipping path (check → resolve →
// lower → validate → flat-translate → instantiate) on an N-module
// admission set with checker-relevant bodies. This is what a server pays
// on every first-seen link set — the cost the admission cache (c6) only
// hides on *re*-submission — so it gates the cold-pipeline refactors.
// run_bench.sh emits it into BENCH_link.json; the committed
// bench/BASELINE_cold_pr4.json snapshot is the pre-refactor reference.
//===----------------------------------------------------------------------===//

static void F3_ColdInstantiate(benchmark::State &St) {
  AdmissionSet Set(static_cast<unsigned>(St.range(0)));
  for (auto _ : St) {
    link::LinkOptions Opts;
    Opts.RunStart = false;
    auto LI = link::instantiateLowered(Set.Ptrs, Opts);
    if (!LI) { St.SkipWithError("cold instantiation failed"); return; }
    benchmark::DoNotOptimize(LI->Program.get());
  }
  St.counters["modules/s"] = benchmark::Counter(
      static_cast<double>(Set.Mods.size()) * St.iterations(),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(F3_ColdInstantiate)->Arg(8)->Arg(64)->Unit(benchmark::kMicrosecond);

// The full cold *admission* shape: a server batch-checks for per-module
// verdicts first (typing::checkModules), then ships the accepted set
// through instantiateLowered. Post-refactor these are one pipeline: the
// verdict check records the InfoMaps and hands them over
// (LinkOptions::Infos), so lowering performs zero further checkModule
// calls — pre-refactor the lowered path re-checked every module. The
// committed bench/BASELINE_cold_pr4.json holds this workload measured on
// the pre-refactor code (same modules, that version's canonical API).
static void F3_ColdAdmission(benchmark::State &St) {
  AdmissionSet Set(static_cast<unsigned>(St.range(0)));
  support::ThreadPool Pool;
  for (auto _ : St) {
    std::vector<typing::InfoMap> Infos;
    std::vector<Status> Verdicts = typing::checkModules(Set.Ptrs, Pool, &Infos);
    for (const Status &S : Verdicts)
      if (!S.ok()) { St.SkipWithError("check failed"); return; }
    link::LinkOptions Opts;
    Opts.RunStart = false;
    Opts.Infos = &Infos;
    auto LI = link::instantiateLowered(Set.Ptrs, Opts);
    if (!LI) { St.SkipWithError("cold admission failed"); return; }
    benchmark::DoNotOptimize(LI->Program.get());
  }
  St.counters["modules/s"] = benchmark::Counter(
      static_cast<double>(Set.Mods.size()) * St.iterations(),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(F3_ColdAdmission)->Arg(8)->Arg(64)->Unit(benchmark::kMicrosecond);

//===----------------------------------------------------------------------===//
// Ingest front-door smoke (DESIGN.md §12): cold admission of N standalone
// serialized modules through ingest::admit versus hand-running the same
// pipeline (serial::read into a fresh arena → checkModule →
// instantiateLowered). The front door adds magic sniffing, the input hash,
// limit pre-checks, structured error plumbing, and obs counters —
// run_bench.sh computes the overhead percentage into BENCH_link.json and
// RW_INGEST_GATE=1 fails the run above 5%.
//===----------------------------------------------------------------------===//

static std::vector<std::vector<uint8_t>> ingestBlobs(unsigned N) {
  std::vector<std::vector<uint8_t>> Blobs;
  Blobs.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Blobs.push_back(serial::write(wideModule(2 + I % 5)));
  return Blobs;
}

static void F3_IngestAdmit(benchmark::State &St) {
  auto Blobs = ingestBlobs(static_cast<unsigned>(St.range(0)));
  for (auto _ : St) {
    for (const auto &B : Blobs) {
      link::LinkOptions Opts;
      Opts.RunStart = false;
      auto A = ingest::admit(B, ingest::Limits(), Opts);
      if (!A) { St.SkipWithError("ingest admission failed"); return; }
      benchmark::DoNotOptimize(A->instance());
    }
  }
  St.counters["modules/s"] = benchmark::Counter(
      static_cast<double>(Blobs.size()) * St.iterations(),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(F3_IngestAdmit)->Arg(64)->Unit(benchmark::kMicrosecond);

static void F3_IngestPipeline(benchmark::State &St) {
  auto Blobs = ingestBlobs(static_cast<unsigned>(St.range(0)));
  for (auto _ : St) {
    for (const auto &B : Blobs) {
      ingest::IngestError E;
      auto M = serial::read(B, std::make_shared<ir::TypeArena>(), &E);
      if (!M) { St.SkipWithError("serial read failed"); return; }
      std::vector<typing::InfoMap> Infos(1);
      if (!typing::checkModule(*M, &Infos[0]).ok()) {
        St.SkipWithError("check failed");
        return;
      }
      link::LinkOptions Opts;
      Opts.RunStart = false;
      Opts.Infos = &Infos;
      auto LI = link::instantiateLowered({&*M}, Opts);
      if (!LI) { St.SkipWithError("instantiation failed"); return; }
      benchmark::DoNotOptimize(LI->Instance.get());
    }
  }
  St.counters["modules/s"] = benchmark::Counter(
      static_cast<double>(Blobs.size()) * St.iterations(),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(F3_IngestPipeline)->Arg(64)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
