//===- perfbench/src/ServeMix.cpp - The admission-server workload ---------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// serve_mix: closed-loop client threads send admission-server traffic
// through ingest::admit with an 8-shard AdmissionCache, and invoke one
// export of every admitted module. One client per two cores (at most
// four): with one per core, a host that briefly took a core back stalled
// a client mid-request, and the tail followed the host (hot p99 from 59
// to 597 us across ten runs of identical code). The mix:
//
//   wasm         10%  raw `\0asm` modules (decode/validate/translate, no
//                     cache). The share is chosen here, equal to c7's
//                     smaller classes; no source gives one.
//   the other 90% follow the c7 admission server (bench/ServerMix.h)
//   exactly, 80/10/10 of it:
//   hot          72%  zipf(1.1) re-admissions of c7's 64-module universe
//   cold          9%  novel RWBM modules, each admitted exactly once
//   adversarial   9%  rwbench::serverMutate mutants of hot payloads
//
// Chosen because ingest, serial, typing and cache do most of the work here
// and lower little: a hot hit still reads into a private arena and
// re-checks (admission checks before the cache probe).
//
// The traced run replays a fixed, seed-derived request list on one client
// through the same stages ingest::admit runs, called one by one under
// spans, and admits every request through ingest::admit as well (against
// its own cache) to prove both give the same verdict.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Inputs.h"

#include "cache/AdmissionCache.h"
#include "exec/Engine.h"
#include "exec/Translate.h"
#include "ingest/Ingest.h"
#include "ir/TypeArena.h"
#include "link/Link.h"
#include "lower/Lower.h"
#include "serial/Serial.h"
#include "typing/Checker.h"
#include "wasm/Binary.h"
#include "wasm/Validate.h"

#include <atomic>
#include <barrier>
#include <cstring>
#include <cstdio>
#include <memory>
#include <thread>

using namespace rw;

namespace pb {
namespace {

/// The first three classes are rwbench::ServerMix's, with its numbering.
enum Kind : uint8_t {
  Hot = rwbench::ServerMix::Hot,
  Cold = rwbench::ServerMix::Cold,
  Adversarial = rwbench::ServerMix::Adversarial,
  Wasm,
  NumKinds
};
const std::vector<std::string> KindNames = {"hot", "cold", "adversarial",
                                            "wasm"};

constexpr unsigned HotN = 64, HotFuncs = 3, ColdFuncs = 2, WasmFuncs = 3;
constexpr unsigned AdvN = 4096, WasmN = 256;
/// One request in WasmEvery is raw Wasm; the rest draw c7's classes.
constexpr unsigned WasmEvery = 10;
/// Small enough that cold artifacts evict (a server's steady state), with
/// the hot universe still resident in the common case.
constexpr uint64_t CacheBudget = 16ull << 20;
constexpr unsigned CacheShards = 8;
/// Cold payloads are generated in chunks between measured epochs (off the
/// clock): an epoch ends when its chunk is used up, so no cold payload is
/// ever sent twice (which would turn it hot) and memory stays bounded.
constexpr size_t ColdChunk = 8192;
constexpr unsigned TraceRequests = 20000;
/// Fuel for invoking an admitted mutant: its code is arbitrary.
constexpr uint64_t MutantFuel = 100000;
const ingest::Limits Lim;

struct Payload {
  std::vector<uint8_t> Bytes;
  std::vector<std::string> Exports;
  std::vector<uint32_t> Consts; ///< c of each export (not for mutants).
};

/// rwbench::serverModule(Tag, Funcs), serialized as \p Bytes.
Payload richPayload(uint64_t Tag, unsigned Funcs,
                    std::vector<uint8_t> Bytes) {
  Payload P;
  P.Bytes = std::move(Bytes);
  for (unsigned J = 0; J < Funcs; ++J) {
    P.Exports.push_back("srv_" + std::to_string(Tag) + ".f" +
                        std::to_string(J));
    P.Consts.push_back(tagConstant(Tag, Funcs, J));
  }
  return P;
}

Payload richPayload(uint64_t Tag, unsigned Funcs) {
  return richPayload(Tag, Funcs,
                     serial::write(rwbench::serverModule(Tag, Funcs)));
}

Payload wasmPayload(uint64_t Tag) {
  Payload P;
  P.Bytes = wasmModule(Tag, WasmFuncs);
  for (unsigned J = 0; J < WasmFuncs; ++J) {
    P.Exports.push_back("f" + std::to_string(J));
    P.Consts.push_back(tagConstant(Tag, WasmFuncs, J));
  }
  return P;
}

/// Fills \p Out[I] = Make(I) on \p Threads threads.
template <typename Fn>
void parallelFill(std::vector<Payload> &Out, size_t N, unsigned Threads,
                  Fn Make) {
  Out.resize(N);
  std::vector<std::thread> Ts;
  for (unsigned W = 0; W < Threads; ++W)
    Ts.emplace_back([&, W] {
      for (size_t I = W; I < N; I += Threads)
        Out[I] = Make(I);
    });
  for (std::thread &T : Ts)
    T.join();
}

/// Every payload of one run, generated before set-up. The hot universe
/// and the class weights are c7's (rwbench::ServerMix, whose own cold and
/// adversarial pools are not used); cold tags, mutations, Wasm tags and
/// the request stream come from the seed.
struct Mix {
  rwbench::ServerMix Shape{HotN, /*ColdN=*/0, /*AdvN=*/0};
  std::vector<Payload> HotP, ColdP, AdvP, WasmP;

  uint64_t Base;

  Mix(uint64_t Seed, unsigned Threads)
      : Base(subSeed(Seed, 1) & 0xffffffffull) {
    for (unsigned I = 0; I < HotN; ++I)
      HotP.push_back(richPayload(I, HotFuncs, Shape.HotBytes[I]));
    parallelFill(WasmP, WasmN, Threads, [&](size_t I) {
      return wasmPayload(Base + 0x2000000ull + I);
    });
    uint64_t MutSeed = subSeed(Seed, 2);
    parallelFill(AdvP, AdvN, Threads, [&](size_t I) {
      const Payload &Src = HotP[I % HotN];
      Payload P;
      P.Bytes = rwbench::serverMutate(Src.Bytes, MutSeed + I);
      P.Exports = {Src.Exports[0]};
      return P;
    });
  }

  /// Novel module number \p I.
  Payload coldPayload(uint64_t I) const {
    return richPayload(Base + (1ull << 32) + I, ColdFuncs);
  }

  Kind kind(uint64_t &Rng) const {
    if (splitmix64(Rng) % WasmEvery == 0)
      return Wasm;
    return static_cast<Kind>(Shape.kind(Rng));
  }
};

/// One request: a payload, which export to call, and its argument.
struct Request {
  Kind K;
  const Payload *P;
  unsigned Export;
  uint32_t Arg;
};

/// Draws the next request; cold and adversarial payloads come from shared
/// cursors. Returns false once the cold pool is used up.
bool draw(const Mix &M, uint64_t &Rng, std::atomic<uint64_t> &ColdCur,
          std::atomic<uint64_t> &AdvCur, Request &R) {
  R.K = M.kind(Rng);
  switch (R.K) {
  case Hot:
    R.P = &M.HotP[M.Shape.zipfIndex(Rng)];
    break;
  case Cold: {
    uint64_t C = ColdCur.fetch_add(1, std::memory_order_relaxed);
    if (C >= M.ColdP.size())
      return false;
    R.P = &M.ColdP[C];
    break;
  }
  case Adversarial:
    R.P = &M.AdvP[AdvCur.fetch_add(1, std::memory_order_relaxed) % AdvN];
    break;
  default:
    R.P = &M.WasmP[splitmix64(Rng) % WasmN];
    break;
  }
  uint64_t X = splitmix64(Rng);
  R.Export = static_cast<unsigned>(X % R.P->Exports.size());
  R.Arg = static_cast<uint32_t>(X >> 32);
  return true;
}

/// The oracle: an admitted non-mutant returns (x + c) * 3; a mutant may be
/// admitted or rejected, but a rejection must carry a category.
bool expected(const Request &R, bool Admitted, ingest::Category Cat,
              const Expected<std::vector<wasm::WValue>> *Ret) {
  if (R.K == Adversarial)
    return Admitted || Cat != ingest::Category::None;
  if (!Admitted || !Ret || !*Ret || (*Ret)->size() != 1)
    return false;
  return (**Ret)[0].asU32() == expectedF(R.Arg, R.P->Consts[R.Export]);
}

link::LinkOptions admitOptions(cache::AdmissionCache &C) {
  link::LinkOptions Opts;
  Opts.Cache = &C;
  Opts.Engine = wasm::EngineKind::Flat;
  Opts.RunStart = false;
  return Opts;
}

/// Admits and invokes through the front door. The admitted module is
/// handed back so the caller releases it after stopping its clock.
bool serveOne(const Request &R, const link::LinkOptions &Opts,
              Expected<ingest::AdmittedModule> &A) {
  ingest::IngestError Err;
  A = ingest::admit(R.P->Bytes, Lim, Opts, &Err);
  if (!A)
    return expected(R, false, Err.Cat, nullptr);
  uint64_t Fuel = R.K == Adversarial ? MutantFuel : 1'000'000'000;
  Expected<std::vector<wasm::WValue>> Ret =
      A->invoke(R.P->Exports[R.Export], {wasm::WValue::i32(R.Arg)}, Fuel);
  return expected(R, true, Err.Cat, &Ret);
}

/// Fresh cache holding the admitted hot universe. Returns false if a hot
/// module failed its admission or its oracle.
bool warmCache(const Mix &M, std::unique_ptr<cache::AdmissionCache> &C) {
  C = std::make_unique<cache::AdmissionCache>(CacheBudget, CacheShards);
  link::LinkOptions Opts = admitOptions(*C);
  bool Ok = true;
  for (const Payload &P : M.HotP) {
    Request R{Hot, &P, 0, 7};
    Expected<ingest::AdmittedModule> A = Error("unset");
    Ok &= serveOne(R, Opts, A);
  }
  return Ok;
}

/// Deterministic counts of one traced pass: two passes over the same
/// request list must agree on every one of them.
struct Counts {
  uint64_t Requests = 0, Failed = 0, Rejected = 0, VerdictMismatch = 0;
  uint64_t PerKind[NumKinds] = {};
  uint64_t CheckedFuncs = 0, ArenaNodes = 0, RichReads = 0;
  uint64_t Lowerings = 0, WasmInsts = 0, Instrs = 0;
  uint64_t Hits = 0, Misses = 0, Evictions = 0;

  bool operator==(const Counts &) const = default;
};

bool hasMagic(const std::vector<uint8_t> &B, const char (&Magic)[5]) {
  return B.size() >= 4 && std::memcmp(B.data(), Magic, 4) == 0;
}

/// Everything one staged admission owns; released after the request's
/// clock stops, as the front door's AdmittedModule is.
struct Staged {
  std::unique_ptr<wasm::WModule> WMod;
  std::shared_ptr<ir::TypeArena> Arena;
  std::unique_ptr<ir::Module> RMod;
  std::vector<typing::InfoMap> Infos;
  std::shared_ptr<const cache::LoweredArtifact> Miss; ///< Lowered here.
  std::unique_ptr<exec::FlatInstance> Inst;
};

/// Instantiates a translated module on the flat engine, as the lowered
/// path does for cached artifacts.
std::unique_ptr<exec::FlatInstance>
instantiate(const wasm::WModule &M, std::shared_ptr<const exec::FlatModule> F,
            Tracer &T) {
  Scope S(&T, "exec.instantiate");
  auto I = std::make_unique<exec::FlatInstance>(M, wasm::EngineKind::Flat);
  I->adoptPretranslated(std::move(F));
  if (!I->initialize(false))
    return nullptr;
  return I;
}

/// The Wasm route of ingest::admit, stage by stage.
void stagedWasm(const std::vector<uint8_t> &B, Tracer &T, Staged &St) {
  Expected<wasm::WModule> M = Error("unset");
  {
    Scope S(&T, "wasm.decode");
    M = wasm::decode(B, Lim);
  }
  if (!M)
    return;
  {
    Scope S(&T, "wasm.validate");
    if (!wasm::validate(*M, Lim.MaxOperandDepth))
      return;
  }
  St.WMod = std::make_unique<wasm::WModule>(M.take());
  Expected<exec::FlatModule> FM = Error("unset");
  {
    Scope S(&T, "exec.translate");
    FM = exec::translate(*St.WMod);
  }
  if (FM)
    St.Inst = instantiate(
        *St.WMod, std::make_shared<const exec::FlatModule>(FM.take()), T);
}

/// The cold half of link::instantiateLowered: resolve, lower, validate,
/// translate, store.
std::shared_ptr<const cache::LoweredArtifact>
lowerCold(const std::vector<const ir::Module *> &Mods,
          const std::vector<typing::InfoMap> &Infos,
          const serial::ModuleHash &Key, cache::AdmissionCache &Cache,
          Tracer &T) {
  Expected<std::vector<link::ResolvedModule>> Res = Error("unset");
  {
    Scope S(&T, "link.resolve");
    Res = link::resolveImports(
        Mods, link::ResolveOptions{link::ResolveMode::Batch, true});
  }
  if (!Res)
    return nullptr;
  auto A = std::make_shared<cache::LoweredArtifact>();
  {
    Scope S(&T, "lower.lower");
    lower::LowerOptions LO;
    LO.Resolved = &*Res;
    LO.Infos = &Infos;
    Expected<lower::LoweredProgram> LP = lower::lowerProgram(Mods, LO);
    if (!LP)
      return nullptr;
    A->Program = LP.take();
  }
  {
    Scope S(&T, "wasm.validate");
    if (!wasm::validate(A->Program.Module))
      return nullptr;
  }
  {
    Scope S(&T, "exec.translate");
    Expected<exec::FlatModule> FM = exec::translate(A->Program.Module);
    if (!FM)
      return nullptr;
    A->Flat = FM.take();
  }
  Scope S(&T, "cache.store");
  Cache.storeProgram(Key, A);
  return A;
}

/// The RichWasm route of ingest::admit, stage by stage.
void stagedRich(const std::vector<uint8_t> &B, cache::AdmissionCache &Cache,
                Tracer &T, Staged &St) {
  Expected<ir::Module> M = Error("unset");
  {
    Scope S(&T, "serial.read");
    St.Arena = std::make_shared<ir::TypeArena>();
    M = serial::read(B, St.Arena);
  }
  if (!M || M->Funcs.size() > Lim.MaxFuncs ||
      M->Globals.size() > Lim.MaxGlobals ||
      M->Tab.Entries.size() > Lim.MaxElems)
    return;
  St.RMod = std::make_unique<ir::Module>(M.take());
  std::vector<const ir::Module *> Mods{St.RMod.get()};
  St.Infos.resize(1);
  {
    Scope S(&T, "typing.check");
    if (!typing::checkModule(*St.RMod, &St.Infos[0]))
      return;
  }
  Scope Link(&T, "link.instantiate_hit");
  serial::ModuleHash Key;
  std::shared_ptr<const cache::LoweredArtifact> Art;
  {
    Scope S(&T, "cache.probe");
    Key = cache::programKey(Mods);
    Art = Cache.lookupProgram(Key);
  }
  if (!Art) {
    Link.rename("link.instantiate_miss");
    Art = St.Miss = lowerCold(Mods, St.Infos, Key, Cache, T);
    if (!Art)
      return;
  }
  St.Inst = instantiate(
      Art->Program.Module,
      std::shared_ptr<const exec::FlatModule>(Art, &Art->Flat), T);
}

/// One traced request through the stages. Returns whether the module was
/// admitted; \p OutcomeOk receives the oracle's verdict on the result.
bool stagedRequest(const Request &R, cache::AdmissionCache &Cache,
                   Tracer &T, Counts &C, bool &OutcomeOk) {
  Staged St;
  Expected<std::vector<wasm::WValue>> Ret = Error("not invoked");
  {
    Scope Req(&T, RequestSpan);
    const std::vector<uint8_t> &B = R.P->Bytes;
    if (B.size() <= Lim.MaxModuleBytes && hasMagic(B, "\0asm"))
      stagedWasm(B, T, St);
    else if (B.size() <= Lim.MaxModuleBytes && hasMagic(B, "RWBM"))
      stagedRich(B, Cache, T, St);
    if (St.Inst) {
      Scope S(&T, "exec.invoke");
      uint64_t Fuel = R.K == Adversarial ? MutantFuel : 1'000'000'000;
      Ret = St.Inst->invokeByName(R.P->Exports[R.Export],
                                  {wasm::WValue::i32(R.Arg)}, Fuel);
    }
  }
  if (St.RMod) {
    C.ArenaNodes += St.Arena->stats().totalNodes();
    ++C.RichReads;
    C.CheckedFuncs += St.RMod->Funcs.size();
  }
  if (St.Miss) {
    ++C.Lowerings;
    C.WasmInsts += wasmInstCount(St.Miss->Program.Module);
  }
  bool Admitted = St.Inst != nullptr;
  if (Admitted)
    C.Instrs += St.Inst->instrCount();
  OutcomeOk = !Admitted || R.K == Adversarial ||
              expected(R, true, ingest::Category::None, &Ret);
  return Admitted;
}

/// The fixed request list of the traced run (one client, one stream).
std::vector<Request> traceList(const Mix &M, uint64_t Seed) {
  std::vector<Request> L(TraceRequests);
  uint64_t Rng = subSeed(Seed, 3);
  std::atomic<uint64_t> ColdCur{0}, AdvCur{0};
  for (Request &R : L)
    if (!draw(M, Rng, ColdCur, AdvCur, R))
      std::abort(); // The trace pool is sized to the list.
  return L;
}

/// One untraced single-client pass over \p L through ingest::admit, on a
/// freshly warmed cache. Returns the mean request time in ns.
double untracedPass(const Mix &M, const std::vector<Request> &L,
                    Result &Out) {
  std::unique_ptr<cache::AdmissionCache> Cache;
  if (!warmCache(M, Cache))
    Out.fail("hot universe failed its admission during warm-up");
  link::LinkOptions Opts = admitOptions(*Cache);
  uint64_t Total = 0;
  for (const Request &R : L) {
    Expected<ingest::AdmittedModule> A = Error("unset");
    auto T0 = Clock::now();
    bool Ok = serveOne(R, Opts, A);
    Total += nanosSince(T0, Clock::now());
    ++Out.Attempted;
    Out.Failed += !Ok;
  }
  return static_cast<double>(Total) / static_cast<double>(L.size());
}

/// One traced pass over \p L: staged admission under spans, then the same
/// bytes through ingest::admit (off the clock) for the verdict check.
Counts tracedPass(const Mix &M, const std::vector<Request> &L, Tracer &T,
                  Result &Out) {
  std::unique_ptr<cache::AdmissionCache> Cache, Verify;
  if (!warmCache(M, Cache) || !warmCache(M, Verify))
    Out.fail("hot universe failed its admission during warm-up");
  link::LinkOptions VerifyOpts = admitOptions(*Verify);
  cache::CacheStats Before = Cache->stats();
  Counts C;
  for (size_t I = 0; I < L.size(); ++I) {
    const Request &R = L[I];
    T.beginRequest(static_cast<uint32_t>(I), R.K);
    bool Ok = false;
    bool Admitted = stagedRequest(R, *Cache, T, C, Ok);
    ingest::IngestError Err;
    Expected<ingest::AdmittedModule> V =
        ingest::admit(R.P->Bytes, Lim, VerifyOpts, &Err);
    if (static_cast<bool>(V) != Admitted)
      ++C.VerdictMismatch;
    if (!Admitted && !expected(R, false, Err.Cat, nullptr))
      Ok = false;
    ++C.Requests;
    ++C.PerKind[R.K];
    C.Rejected += !Admitted;
    C.Failed += !Ok;
  }
  cache::CacheStats After = Cache->stats();
  C.Hits = After.ProgramHits - Before.ProgramHits;
  C.Misses = After.ProgramMisses - Before.ProgramMisses;
  C.Evictions = After.Evictions - Before.Evictions;
  return C;
}

Result traced(const Options &O, const Mix &M, Result R) {
  std::vector<Request> L = traceList(M, O.Seed);
  auto Untraced = [&] { return untracedPass(M, L, R); };
  auto Traced = [&](Tracer &T) {
    Counts C = tracedPass(M, L, T, R);
    if (C.VerdictMismatch)
      R.fail(std::to_string(C.VerdictMismatch) +
             " staged verdicts differ from ingest::admit");
    R.Attempted += C.Requests;
    R.Failed += C.Failed;
    return C;
  };
  TracedPasses<Counts> P =
      tracePasses<Counts>(O.Seconds, L.size() * 12, R, Untraced, Traced);
  const Ledger &Led = P.Led;
  const Counts &First = P.First;
  std::printf("serve_mix trace: %zu requests per pass, %zu passes; mix",
              L.size(), P.UntracedMeanNs.size());
  for (unsigned K = 0; K < NumKinds; ++K)
    std::printf(" %s=%llu", KindNames[K].c_str(),
                static_cast<unsigned long long>(First.PerKind[K]));
  std::printf("; rejected=%llu hits=%llu misses=%llu evictions=%llu\n",
              static_cast<unsigned long long>(First.Rejected),
              static_cast<unsigned long long>(First.Hits),
              static_cast<unsigned long long>(First.Misses),
              static_cast<unsigned long long>(First.Evictions));
  double N = static_cast<double>(First.Requests);
  R.Metrics.push_back(selfPerRequest(Led, "typing.check_us", "typing.check"));
  R.Metrics.push_back(count("typing.funcs", First.CheckedFuncs / N));
  R.Metrics.push_back(selfPerRequest(Led, "serial.read_us", "serial.read"));
  R.Metrics.push_back(
      count("ir.arena_nodes", static_cast<double>(First.ArenaNodes) /
                                  std::max<uint64_t>(First.RichReads, 1)));
  R.Metrics.push_back(ratio("cache.hit_ratio", First.Hits,
                            First.Hits + First.Misses));
  R.Metrics.push_back(count("cache.evictions", First.Evictions));
  R.Metrics.push_back(
      meanPerCall(Led, "link.instantiate_hit_us", "link.instantiate_hit"));
  R.Metrics.push_back(
      meanPerCall(Led, "link.instantiate_miss_us", "link.instantiate_miss"));
  R.Metrics.push_back(selfPerRequest(Led, "link.resolve_us", "link.resolve"));
  R.Metrics.push_back(selfPerRequest(Led, "lower.lower_us", "lower.lower"));
  R.Metrics.push_back(count("lower.wasm_insts",
                            First.Lowerings ? static_cast<double>(
                                                  First.WasmInsts) /
                                                  First.Lowerings
                                            : 0));
  R.Metrics.push_back(
      selfPerRequest(Led, "wasm.validate_us", "wasm.validate"));
  R.Metrics.push_back(
      selfPerRequest(Led, "exec.translate_us", "exec.translate"));
  R.Metrics.push_back(selfPerRequest(Led, "wasm.decode_us", "wasm.decode"));
  R.Metrics.push_back(
      selfPerRequest(Led, "exec.instantiate_us", "exec.instantiate"));
  R.Metrics.push_back(selfPerRequest(Led, "exec.invoke_us", "exec.invoke"));
  R.Metrics.push_back(count("exec.instr_per_req", First.Instrs / N));
  R.Metrics.push_back(ratio("ingest.reject_ratio", First.Rejected, N));
  R.Metrics.push_back(ratio("error_rate", static_cast<double>(R.Failed),
                            static_cast<double>(R.Attempted)));
  reportTrace(R, Led, P.FirstPass, KindNames,
              O.TraceDir + "/serve_mix-seed" + std::to_string(O.Seed) +
                  ".tsv",
              median(P.UntracedMeanNs));
  return R;
}

} // namespace

Result runServeMix(const Options &O) {
  unsigned Threads =
      std::clamp(std::thread::hardware_concurrency() / 2, 1u, 4u);
  Mix M(O.Seed, Threads);
  parallelFill(M.ColdP, ColdChunk, Threads,
               [&](size_t I) { return M.coldPayload(I); });
  std::vector<Samples> Lat(Threads);
  Result R;
  // The program's memory is measured from here: the payloads and the
  // histograms above are the benchmark's own. Later cold chunks replace
  // the first one element by element, at about the same size.
  bool Reset = false;
  double BaseKiB = rssBaselineKiB(Reset);
  if (!Reset)
    R.fail("cannot reset the peak-RSS mark (/proc/self/clear_refs)");

  // Set-up: a fresh 8-shard cache warmed with the hot universe (its first
  // admissions). The last cache set up before the measured phase serves it.
  std::unique_ptr<cache::AdmissionCache> Cache;
  std::vector<double> SetupNs;
  auto SetUp = [&](std::unique_ptr<cache::AdmissionCache> &Into) {
    auto T0 = Clock::now();
    if (!warmCache(M, Into))
      R.fail("hot universe failed its admission during set-up");
    SetupNs.push_back(static_cast<double>(nanosSince(T0, Clock::now())));
  };
  for (unsigned I = 0; I < SetupReps; ++I)
    SetUp(Cache);
  if (O.Trace)
    return traced(O, M, std::move(R));

  // The measured phase runs in epochs, one per chunk of novel modules.
  // Before each epoch after the first, every client generates its share
  // of the next chunk (off the clock, on the client threads, so payload
  // memory stays in their own allocator arenas); the epoch ends when its
  // chunk is used up.
  link::LinkOptions Opts = admitOptions(*Cache);
  const uint64_t Budget = static_cast<uint64_t>(O.Seconds * 1e9);
  std::vector<uint64_t> Failed(Threads);
  EpochLog Log(Hot, Cold);
  std::atomic<uint64_t> ColdCur{0}, AdvCur{0};
  std::atomic<bool> ChunkDone{false};
  Clock::time_point EpochStart, Deadline;
  uint64_t MeasuredNs = 0, Epochs = 0;
  bool Finished = false;
  std::barrier Ready(Threads, [&]() noexcept {
    ColdCur = 0;
    ChunkDone = false;
    EpochStart = Clock::now();
    Deadline = EpochStart + Nanos(Budget - MeasuredNs);
  });
  std::barrier Drained(Threads, [&]() noexcept {
    uint64_t Ns = nanosSince(EpochStart, Clock::now());
    MeasuredNs += Ns;
    Finished = MeasuredNs >= Budget;
    Log.close(Lat, Ns, Finished);
    ++Epochs;
    if (!Finished) {
      std::unique_ptr<cache::AdmissionCache> Spare;
      SetUp(Spare);
    }
  });
  std::vector<std::thread> Clients;
  for (unsigned W = 0; W < Threads; ++W)
    Clients.emplace_back([&, W] {
      uint64_t Rng = subSeed(O.Seed, 100 + W), Bad = 0;
      Request Req;
      while (!Finished) {
        if (Epochs > 0)
          for (size_t I = W; I < ColdChunk; I += Threads)
            M.ColdP[I] = M.coldPayload(Epochs * ColdChunk + I);
        // Thread-local while running: neighbouring elements of the
        // shared vector would bounce one cache line between clients.
        Samples Mine = std::move(Lat[W]);
        Ready.arrive_and_wait();
        while (!ChunkDone.load(std::memory_order_relaxed)) {
          if (!draw(M, Rng, ColdCur, AdvCur, Req)) {
            ChunkDone = true;
            break;
          }
          Expected<ingest::AdmittedModule> A = Error("unset");
          auto T0 = Clock::now();
          bool Ok = serveOne(Req, Opts, A);
          auto T1 = Clock::now();
          Mine.add(Req.K, nanosSince(T0, T1));
          Bad += !Ok;
          if (T1 >= Deadline)
            break;
        }
        Lat[W] = std::move(Mine);
        Drained.arrive_and_wait();
      }
      Failed[W] = Bad;
    });
  for (std::thread &T : Clients)
    T.join();
  double PeakKiB = peakRssKiB();

  for (uint64_t F : Failed)
    R.Failed += F;
  cache::CacheStats CS = Cache->stats();
  std::printf("serve_mix: %u clients, %llu epochs, %.2f s; cache hits=%llu "
              "misses=%llu evictions=%llu\n",
              Threads, static_cast<unsigned long long>(Epochs),
              MeasuredNs / 1e9,
              static_cast<unsigned long long>(CS.ProgramHits),
              static_cast<unsigned long long>(CS.ProgramMisses),
              static_cast<unsigned long long>(CS.Evictions));
  Log.report(R, SetupNs, PeakKiB - BaseKiB);
  return R;
}

} // namespace pb
