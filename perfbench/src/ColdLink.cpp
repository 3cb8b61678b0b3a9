//===- perfbench/src/ColdLink.cpp - Cold 64-module admission workload -----===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// cold_link: one closed-loop caller admits a whole 64-module link set per
// request, in the admission-set import shape: it reads the serialized
// modules into a fresh arena, checks them with typing::checkModules, and
// links, lowers and instantiates them with link::instantiateLowered (flat
// engine, no cache), through the batch path's support::ThreadPool; then it
// calls one export. The pool has a single participant, so the batch path
// runs inline: a parallel phase waits for its slowest participant, and on
// a shared 4-core host a descheduled worker set the time of whole requests
// (trial runs: p99 was 1.3-2.3x p50 with two participants, 1.05-1.13x with
// one, and run-to-run p99 spread exceeded a 25% bound).
//
// Chosen because typing, link, lower, wasm::validate and exec::translate
// do nearly all the work and cache and ingest none: it is the bypass
// workload for every cache or front-door change. The seed picks 16 link
// sets that requests cycle through; with no cache and a fresh arena per
// request, a repeated set repeats the whole cold pipeline.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Inputs.h"

#include "exec/Engine.h"
#include "exec/Translate.h"
#include "ir/TypeArena.h"
#include "link/Link.h"
#include "lower/Lower.h"
#include "serial/Serial.h"
#include "support/ThreadPool.h"
#include "typing/Checker.h"
#include "wasm/Validate.h"

#include <memory>

using namespace rw;

namespace pb {
namespace {

constexpr unsigned SetMods = 64, SetFuncs = 4, DistinctSets = 16;
constexpr unsigned TraceRequests = 256;
constexpr unsigned PoolParticipants = 1;
const std::vector<std::string> ClassNames = {"cold"};

struct LinkSet {
  uint64_t Id;
  std::vector<std::vector<uint8_t>> Bytes;
};

std::vector<LinkSet> makeSets(uint64_t Seed) {
  std::vector<LinkSet> Sets(DistinctSets);
  uint64_t Base = subSeed(Seed, 11) & 0xffffffull;
  for (unsigned S = 0; S < DistinctSets; ++S) {
    Sets[S].Id = Base + S;
    for (unsigned I = 0; I < SetMods; ++I)
      Sets[S].Bytes.push_back(
          serial::write(linkSetModule(Sets[S].Id, I, SetFuncs)));
  }
  return Sets;
}

/// Which set a request admits, and which export it calls with what.
struct Request {
  const LinkSet *Set;
  unsigned Mod, Func;
  uint32_t Arg;
};

Request draw(const std::vector<LinkSet> &Sets, uint64_t &Rng,
             uint64_t Index) {
  uint64_t X = splitmix64(Rng);
  return {&Sets[Index % Sets.size()], static_cast<unsigned>(X % SetMods),
          static_cast<unsigned>((X >> 8) % SetFuncs),
          static_cast<uint32_t>(X >> 32)};
}

/// Counts of one traced pass; identical across passes.
struct Counts {
  uint64_t ArenaNodes = 0, CheckedFuncs = 0, WasmInsts = 0, Instrs = 0;
  bool operator==(const Counts &) const = default;
};

/// What one admission owns; released after the request's clock stops.
struct Admitted {
  std::shared_ptr<ir::TypeArena> Arena;
  std::vector<ir::Module> Mods;
  std::vector<const ir::Module *> Ptrs;
  std::vector<typing::InfoMap> Infos;
  std::shared_ptr<const lower::LoweredProgram> Program;
  std::unique_ptr<wasm::Instance> Inst;
};

/// The lowering half of link::instantiateLowered (flat engine, no cache),
/// stage by stage under spans.
bool stagedInstantiate(Admitted &A, support::ThreadPool &Pool, Tracer &T) {
  Scope Link(&T, "link.instantiate_miss");
  Expected<std::vector<link::ResolvedModule>> Res = Error("unset");
  {
    Scope S(&T, "link.resolve");
    Res = link::resolveImports(
        A.Ptrs, link::ResolveOptions{link::ResolveMode::Batch, true});
  }
  if (!Res)
    return false;
  auto P = std::make_shared<lower::LoweredProgram>();
  {
    Scope S(&T, "lower.lower");
    lower::LowerOptions LO;
    LO.Resolved = &*Res;
    LO.Infos = &A.Infos;
    LO.Pool = &Pool;
    Expected<lower::LoweredProgram> LP = lower::lowerProgram(A.Ptrs, LO);
    if (!LP)
      return false;
    *P = LP.take();
  }
  {
    Scope S(&T, "wasm.validate");
    if (!wasm::validate(P->Module))
      return false;
  }
  Expected<exec::FlatModule> FM = Error("unset");
  {
    Scope S(&T, "exec.translate");
    FM = exec::translate(P->Module);
  }
  if (!FM)
    return false;
  Scope S(&T, "exec.instantiate");
  auto I = std::make_unique<exec::FlatInstance>(P->Module,
                                                wasm::EngineKind::Flat);
  I->adoptPretranslated(
      std::make_shared<const exec::FlatModule>(FM.take()));
  if (!I->initialize(false))
    return false;
  A.Program = std::move(P);
  A.Inst = std::move(I);
  return true;
}

/// One request. With a tracer, instantiateLowered runs stage by stage
/// under spans; without, it is called directly. Returns whether every
/// stage succeeded and the export returned its hand-derived value.
bool admitSet(const Request &R, support::ThreadPool &Pool, Tracer *T,
              Admitted &A) {
  {
    Scope S(T, "serial.read");
    A.Arena = std::make_shared<ir::TypeArena>();
    A.Mods.reserve(SetMods);
    for (const std::vector<uint8_t> &B : R.Set->Bytes) {
      Expected<ir::Module> M = serial::read(B, A.Arena);
      if (!M)
        return false;
      A.Mods.push_back(M.take());
    }
  }
  for (const ir::Module &M : A.Mods)
    A.Ptrs.push_back(&M);
  {
    Scope S(T, "typing.check");
    for (const Status &St : typing::checkModules(A.Ptrs, Pool, &A.Infos))
      if (!St)
        return false;
  }
  if (T) {
    if (!stagedInstantiate(A, Pool, *T))
      return false;
  } else {
    link::LinkOptions Opts;
    Opts.Engine = wasm::EngineKind::Flat;
    Opts.RunStart = false;
    Opts.Pool = &Pool;
    Opts.Infos = &A.Infos;
    Expected<link::LoweredInstance> LI = link::instantiateLowered(A.Ptrs, Opts);
    if (!LI)
      return false;
    A.Program = LI->Program;
    A.Inst = std::move(LI->Instance);
  }
  Expected<std::vector<wasm::WValue>> Ret = Error("unset");
  {
    Scope S(T, "exec.invoke");
    Ret = A.Inst->invokeByName(linkModuleName(R.Set->Id, R.Mod) + ".f" +
                                   std::to_string(R.Mod) + "_" +
                                   std::to_string(R.Func),
                               {wasm::WValue::i32(R.Arg)});
  }
  uint64_t Tag = R.Set->Id * 1000003ull + R.Mod;
  return Ret && Ret->size() == 1 &&
         (*Ret)[0].asU32() ==
             expectedF(R.Arg, tagConstant(Tag, SetFuncs, R.Func));
}

/// Times one request; counting and releasing the admission happen off
/// the clock.
bool timedRequest(const Request &R, support::ThreadPool &Pool, Tracer *T,
                  Counts *C, uint64_t &Ns) {
  Admitted A;
  auto T0 = Clock::now();
  bool Ok;
  {
    Scope Req(T, RequestSpan);
    Ok = admitSet(R, Pool, T, A);
  }
  Ns = nanosSince(T0, Clock::now());
  if (Ok && C) {
    C->ArenaNodes += A.Arena->stats().totalNodes();
    for (const ir::Module &M : A.Mods)
      C->CheckedFuncs += M.Funcs.size();
    C->WasmInsts += wasmInstCount(A.Program->Module);
    C->Instrs += A.Inst->instrCount();
  }
  return Ok;
}

Result traced(const Options &O, const std::vector<LinkSet> &Sets,
              support::ThreadPool &Pool, Result R) {
  auto Untraced = [&] {
    uint64_t Rng = subSeed(O.Seed, 12), Total = 0, Ns = 0;
    for (unsigned I = 0; I < TraceRequests; ++I) {
      R.Failed += !timedRequest(draw(Sets, Rng, I), Pool, nullptr, nullptr,
                                Ns);
      Total += Ns;
    }
    R.Attempted += TraceRequests;
    return static_cast<double>(Total) / TraceRequests;
  };
  auto Traced = [&](Tracer &T) {
    Counts C;
    uint64_t Rng = subSeed(O.Seed, 12), Ns = 0;
    for (unsigned I = 0; I < TraceRequests; ++I) {
      T.beginRequest(I, 0);
      R.Failed += !timedRequest(draw(Sets, Rng, I), Pool, &T, &C, Ns);
    }
    R.Attempted += TraceRequests;
    return C;
  };
  TracedPasses<Counts> P = tracePasses<Counts>(
      O.Seconds, TraceRequests * 12, R, Untraced, Traced);
  const Ledger &Led = P.Led;
  const Counts &First = P.First;
  std::printf("cold_link trace: %u requests per pass, %zu passes\n",
              TraceRequests, P.UntracedMeanNs.size());
  double N = TraceRequests;
  R.Metrics.push_back(selfPerRequest(Led, "typing.check_us", "typing.check"));
  R.Metrics.push_back(count("typing.funcs", First.CheckedFuncs / N));
  R.Metrics.push_back(selfPerRequest(Led, "serial.read_us", "serial.read"));
  R.Metrics.push_back(count("ir.arena_nodes", First.ArenaNodes / N));
  R.Metrics.push_back(
      meanPerCall(Led, "link.instantiate_miss_us", "link.instantiate_miss"));
  R.Metrics.push_back(selfPerRequest(Led, "link.resolve_us", "link.resolve"));
  R.Metrics.push_back(selfPerRequest(Led, "lower.lower_us", "lower.lower"));
  R.Metrics.push_back(count("lower.wasm_insts", First.WasmInsts / N));
  R.Metrics.push_back(
      selfPerRequest(Led, "wasm.validate_us", "wasm.validate"));
  R.Metrics.push_back(
      selfPerRequest(Led, "exec.translate_us", "exec.translate"));
  R.Metrics.push_back(
      selfPerRequest(Led, "exec.instantiate_us", "exec.instantiate"));
  R.Metrics.push_back(selfPerRequest(Led, "exec.invoke_us", "exec.invoke"));
  R.Metrics.push_back(count("exec.instr_per_req", First.Instrs / N));
  R.Metrics.push_back(ratio("error_rate", static_cast<double>(R.Failed),
                            static_cast<double>(R.Attempted)));
  reportTrace(R, Led, P.FirstPass, ClassNames,
              O.TraceDir + "/cold_link-seed" + std::to_string(O.Seed) +
                  ".tsv",
              median(P.UntracedMeanNs));
  return R;
}

} // namespace

Result runColdLink(const Options &O) {
  std::vector<LinkSet> Sets = makeSets(O.Seed);
  std::vector<Samples> Lat(1);
  Result R;
  bool Reset = false;
  double BaseKiB = rssBaselineKiB(Reset);
  if (!Reset)
    R.fail("cannot reset the peak-RSS mark (/proc/self/clear_refs)");

  // Set-up: spawn the pool and run the first admission. The last pool
  // set up before the measured phase serves it.
  std::unique_ptr<support::ThreadPool> Pool;
  std::vector<double> SetupNs;
  uint64_t SetupRng = subSeed(O.Seed, 13);
  auto SetUp = [&] {
    auto T0 = Clock::now();
    auto P = std::make_unique<support::ThreadPool>(PoolParticipants);
    Admitted A;
    if (!admitSet(draw(Sets, SetupRng, SetupNs.size()), *P, nullptr, A))
      R.fail("first admission failed during set-up");
    SetupNs.push_back(static_cast<double>(nanosSince(T0, Clock::now())));
    return P;
  };
  for (unsigned I = 0; I < SetupReps; ++I) {
    Pool.reset();
    Pool = SetUp();
  }
  if (O.Trace)
    return traced(O, Sets, *Pool, std::move(R));

  EpochLog Log(Samples::AllClasses, Samples::AllClasses);
  uint64_t Rng = subSeed(O.Seed, 14);
  R.Failed += singleClientEpochs(
      O.Seconds, Lat, Log,
      [&](uint64_t I, Samples &S) {
        uint64_t Ns = 0;
        bool Ok = timedRequest(draw(Sets, Rng, I), *Pool, nullptr, nullptr,
                               Ns);
        S.add(0, Ns);
        return Ok;
      },
      [&] { SetUp(); });
  double PeakKiB = peakRssKiB();
  std::printf("cold_link: %u participants, %zu epochs of admissions of %u "
              "modules\n",
              PoolParticipants, Log.epochs(), SetMods);
  // Every request is a cold admission and none is served warm, so both
  // class figures are taken over all requests.
  Log.report(R, SetupNs, PeakKiB - BaseKiB);
  return R;
}

} // namespace pb
