//===- perfbench/src/InteropExec.cpp - ML/L3 execution workload -----------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// interop_exec: the paper's ML/L3 programs are compiled and admitted once,
// during set-up, on the JIT engine (eager tier-up). One closed-loop caller
// then sends requests of two kinds, half each (an even split chosen here:
// no source gives weights for this mix):
//
//   counter  the Counter protocol across the ML/L3 boundary:
//            init; set_rate k; tick x T; total, which must return k*T
//   churn    churn n on an ML program allocating n unrestricted ref
//            cells (returns n(n+1)/2), then one HostGc collection, which
//            must sweep exactly n cells
//
// Chosen because exec, jit and the collector do all the work and admission
// none: the bypass workload for every admission change, and the reverse.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Inputs.h"

#include "exec/Engine.h"
#include "l3/L3.h"
#include "link/Link.h"
#include "lower/Runtime.h"
#include "ml/ML.h"

#include <memory>

using namespace rw;

namespace pb {
namespace {

enum Kind : uint8_t { Counter, Churn };
const std::vector<std::string> ClassNames = {"counter", "churn"};
constexpr unsigned TraceRequests = 4000;

/// The admitted programs. Heap-allocated: the instances borrow the
/// modules, which must not move.
struct Programs {
  ir::Module Lib, App, ChurnMod;
  link::LoweredInstance CounterI, ChurnI;
  std::unique_ptr<lower::HostGc> Gc;
  double MlNs = 0, L3Ns = 0;

  uint64_t instrCount() const {
    return CounterI.Instance->instrCount() + ChurnI.Instance->instrCount();
  }
};

/// Compiles and admits both programs; null on any failure.
std::unique_ptr<Programs> setUp() {
  auto P = std::make_unique<Programs>();
  auto T0 = Clock::now();
  Expected<ir::Module> Lib = l3::compileSource("lib", rwbench::CounterLibL3);
  auto T1 = Clock::now();
  Expected<ir::Module> App = ml::compileSource("app", rwbench::CounterClientML);
  Expected<ir::Module> Churn = ml::compileSource("churn", ChurnML);
  auto T2 = Clock::now();
  if (!Lib || !App || !Churn)
    return nullptr;
  P->L3Ns = static_cast<double>(nanosSince(T0, T1));
  P->MlNs = static_cast<double>(nanosSince(T1, T2));
  P->Lib = Lib.take();
  P->App = App.take();
  P->ChurnMod = Churn.take();
  link::LinkOptions Opts;
  Opts.Engine = wasm::EngineKind::Jit;
  Expected<link::LoweredInstance> C =
      link::instantiateLowered({&P->Lib, &P->App}, Opts);
  Expected<link::LoweredInstance> H =
      link::instantiateLowered({&P->ChurnMod}, Opts);
  if (!C || !H)
    return nullptr;
  P->CounterI = C.take();
  P->ChurnI = H.take();
  P->Gc = std::make_unique<lower::HostGc>(*P->ChurnI.Instance,
                                          P->ChurnI.Program->Runtime,
                                          P->ChurnI.Program->RefGlobals);
  return P;
}

/// Native-code share of the admitted functions.
double compiledRatio(const Programs &P) {
  double Compiled = 0, Funcs = 0;
  for (const link::LoweredInstance *LI : {&P.CounterI, &P.ChurnI}) {
    if (auto *F = dynamic_cast<const exec::FlatInstance *>(LI->Instance.get()))
      Compiled += F->jitCompiledCount();
    Funcs += LI->Program->Module.Funcs.size();
  }
  return Funcs > 0 ? Compiled / Funcs : 0;
}

struct Request {
  Kind K;
  uint32_t A, B; ///< counter: rate k, ticks T; churn: n.
};

Request draw(uint64_t &Rng) {
  uint64_t X = splitmix64(Rng);
  if (X & 1)
    return {Counter, 1 + static_cast<uint32_t>((X >> 8) % 32),
            1 + static_cast<uint32_t>((X >> 16) % 16)};
  return {Churn, 64 + static_cast<uint32_t>((X >> 8) % 449), 0};
}

/// Runs one request and checks it against its closed form. \p Swept
/// receives the collection's sweep count.
bool serve(Programs &P, const Request &R, Tracer *T, uint64_t &Swept) {
  auto Call = [&](link::LoweredInstance &I, const char *Name,
                  std::vector<wasm::WValue> Args) {
    Scope S(T, "exec.invoke");
    return I.invokeExport(Name, std::move(Args));
  };
  if (R.K == Counter) {
    bool Ok = static_cast<bool>(Call(P.CounterI, "app.init", {}));
    Ok &= static_cast<bool>(
        Call(P.CounterI, "app.set_rate", {wasm::WValue::i32(R.A)}));
    for (uint32_t I = 0; I < R.B; ++I)
      Ok &= static_cast<bool>(Call(P.CounterI, "app.tick", {}));
    Expected<std::vector<wasm::WValue>> Total =
        Call(P.CounterI, "app.total", {});
    return Ok && Total && Total->size() == 1 &&
           (*Total)[0].asU32() == R.A * R.B;
  }
  Expected<std::vector<wasm::WValue>> Sum =
      Call(P.ChurnI, "churn.churn", {wasm::WValue::i32(R.A)});
  {
    Scope S(T, "lower.gc_collect");
    Swept = P.Gc->collect().Swept;
  }
  uint32_t N = R.A;
  return Sum && Sum->size() == 1 && (*Sum)[0].asU32() == N * (N + 1) / 2 &&
         Swept == N;
}

/// One traced pass's counts; identical across passes.
struct Counts {
  uint64_t Instrs = 0, Swept = 0, Collections = 0;
  bool operator==(const Counts &) const = default;
};

Result traced(const Options &O, Programs &P, double MlNs, double L3Ns,
              Result R) {
  auto Untraced = [&] {
    uint64_t Rng = subSeed(O.Seed, 21), Total = 0, Swept = 0;
    for (unsigned I = 0; I < TraceRequests; ++I) {
      Request Q = draw(Rng);
      auto T0 = Clock::now();
      R.Failed += !serve(P, Q, nullptr, Swept);
      Total += nanosSince(T0, Clock::now());
    }
    R.Attempted += TraceRequests;
    return static_cast<double>(Total) / TraceRequests;
  };
  auto Traced = [&](Tracer &T) {
    Counts C;
    uint64_t Rng = subSeed(O.Seed, 21), Swept = 0;
    for (unsigned I = 0; I < TraceRequests; ++I) {
      Request Q = draw(Rng);
      T.beginRequest(I, Q.K);
      uint64_t Before = P.instrCount();
      {
        Scope Req(&T, RequestSpan);
        R.Failed += !serve(P, Q, &T, Swept);
      }
      C.Instrs += P.instrCount() - Before;
      if (Q.K == Churn) {
        C.Swept += Swept;
        ++C.Collections;
      }
    }
    R.Attempted += TraceRequests;
    return C;
  };
  TracedPasses<Counts> Passes = tracePasses<Counts>(
      O.Seconds, TraceRequests * 21, R, Untraced, Traced);
  const Ledger &Led = Passes.Led;
  const Counts &First = Passes.First;
  std::printf("interop_exec trace: %u requests per pass, %zu passes, %llu "
              "collections\n",
              TraceRequests, Passes.UntracedMeanNs.size(),
              static_cast<unsigned long long>(First.Collections));
  R.Metrics.push_back(selfPerRequest(Led, "exec.invoke_us", "exec.invoke"));
  R.Metrics.push_back(count("exec.instr_per_req",
                            static_cast<double>(First.Instrs) /
                                TraceRequests));
  R.Metrics.push_back(ratio("jit.compiled_ratio", compiledRatio(P), 1));
  R.Metrics.push_back(
      selfPerRequest(Led, "lower.gc_collect_us", "lower.gc_collect"));
  R.Metrics.push_back(count(
      "lower.gc_swept", static_cast<double>(First.Swept) /
                            std::max<uint64_t>(First.Collections, 1)));
  R.Metrics.push_back(micros("ml.compile_us", MlNs));
  R.Metrics.push_back(micros("l3.compile_us", L3Ns));
  R.Metrics.push_back(ratio("error_rate", static_cast<double>(R.Failed),
                            static_cast<double>(R.Attempted)));
  reportTrace(R, Led, Passes.FirstPass, ClassNames,
              O.TraceDir + "/interop_exec-seed" + std::to_string(O.Seed) +
                  ".tsv",
              median(Passes.UntracedMeanNs));
  return R;
}

} // namespace

Result runInteropExec(const Options &O) {
  std::vector<Samples> Lat(1);
  Result R;
  bool Reset = false;
  double BaseKiB = rssBaselineKiB(Reset);
  if (!Reset)
    R.fail("cannot reset the peak-RSS mark (/proc/self/clear_refs)");
  std::unique_ptr<Programs> P;
  std::vector<double> SetupNs, MlNs, L3Ns;
  for (unsigned I = 0; I < SetupReps; ++I) {
    P.reset();
    auto T0 = Clock::now();
    P = setUp();
    SetupNs.push_back(static_cast<double>(nanosSince(T0, Clock::now())));
    if (!P) {
      R.fail("compiling or admitting the ML/L3 programs failed");
      return R;
    }
    MlNs.push_back(P->MlNs);
    L3Ns.push_back(P->L3Ns);
  }
  if (O.Trace)
    return traced(O, *P, median(MlNs), median(L3Ns), std::move(R));

  EpochLog Log(Samples::AllClasses, Samples::AllClasses);
  uint64_t Rng = subSeed(O.Seed, 22), Swept = 0;
  R.Failed += singleClientEpochs(
      O.Seconds, Lat, Log,
      [&](uint64_t, Samples &S) {
        Request Q = draw(Rng);
        auto T0 = Clock::now();
        bool Ok = serve(*P, Q, nullptr, Swept);
        S.add(Q.K, nanosSince(T0, Clock::now()));
        return Ok;
      },
      [&] {
        auto T0 = Clock::now();
        std::unique_ptr<Programs> Again = setUp();
        SetupNs.push_back(static_cast<double>(nanosSince(T0, Clock::now())));
        if (!Again)
          R.fail("compiling or admitting the ML/L3 programs failed");
      });
  double PeakKiB = peakRssKiB();
  std::printf("interop_exec: %zu epochs\n", Log.epochs());
  // Every request runs already-admitted code: all are warm and none cold,
  // so both class figures are taken over all requests.
  Log.report(R, SetupNs, PeakKiB - BaseKiB);
  return R;
}

} // namespace pb
