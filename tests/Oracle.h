//===- tests/Oracle.h - One differential oracle for every tier --*- C++ -*-===//
//
// Every suite that compares execution tiers goes through this header. It
// has two entry points:
//
//  * Wasm level (WasmOracle, everyTier): one module on the four tiers the
//    repository has, Tree (the reference interpreter), Flat (the flat
//    interpreter, never tiering), Jit-eager and Jit-threshold (tiering at
//    a profile mass of 1, the LinkOptions::JitThreshold route). Every run
//    must agree on results, trap bytes, final memory and globals; all
//    tiers but Tree must also agree on instrCount() (the tree engine
//    counts structured instructions, DESIGN.md §3).
//
//  * RichWasm level (Oracle, expectResult): one link set run on
//    sem::Machine (link::instantiate) and lowered once (link::buildArtifact).
//    The artifact goes through the Wasm-level check on all four tiers,
//    plus one wasm::encode -> decode round trip run on Flat. The machine
//    and every lowered route must agree on results and on whether the run
//    traps; trap text is compared among the Wasm routes only. collect()
//    runs lower::HostGc on every lowered route and requires the same
//    statistics and live count on each.
//
// Suites keep their own programs and their own per-step checks.
//
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_TESTS_ORACLE_H
#define RICHWASM_TESTS_ORACLE_H

#include "cache/AdmissionCache.h"
#include "exec/Engine.h"
#include "link/Link.h"
#include "lower/Runtime.h"
#include "sem/Machine.h"
#include "wasm/Binary.h"
#include "wasm/Validate.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace rwtest {

using rw::wasm::Instance;
using rw::wasm::WValue;

/// The four tiers, reference first; a lowered oracle adds the codec route
/// after them.
enum Tier : unsigned { Tree, Flat, JitEager, JitThreshold, NumTiers };

/// Binds host imports on an instance before it initializes.
using Bind = std::function<void(Instance &)>;

/// Everything observable about one run on one route.
struct TierRun {
  bool Ok = false;
  std::string Err;
  std::vector<WValue> Results;
  /// The route's instance, shared with its WasmOracle, for follow-up
  /// checks (memory, profiles, native code).
  std::shared_ptr<Instance> Inst;
};

/// Functions of a Flat or Jit instance backed by native code.
inline uint32_t jitCompiledCount(Instance &I) {
  return static_cast<rw::exec::FlatInstance &>(I).jitCompiledCount();
}

/// One instance per route, each run on the same calls in the same order.
class WasmOracle {
public:
  /// Fresh instances of \p M on the four tiers, bound by \p B and
  /// initialized (an initialization error becomes every run's outcome).
  explicit WasmOracle(const rw::wasm::WModule &M, const Bind &B = {}) {
    using rw::wasm::EngineKind;
    const EngineKind Kinds[NumTiers] = {EngineKind::Tree, EngineKind::Flat,
                                        EngineKind::Jit, EngineKind::Flat};
    for (unsigned T = 0; T < NumTiers; ++T) {
      std::shared_ptr<Instance> I = rw::wasm::createInstance(M, Kinds[T]);
      if (T == Flat || T == JitThreshold)
        static_cast<rw::exec::FlatInstance &>(*I).setTierPolicy(
            T == Flat ? rw::exec::FlatInstance::NeverTier : 1);
      if (B)
        B(*I);
      add(Names[T], std::move(I));
    }
  }

  /// Instances of a lowered artifact on the four tiers (through
  /// link::instantiateArtifact, as the shipping route builds them), then
  /// a Flat instance of its module after encode and decode.
  explicit WasmOracle(
      std::shared_ptr<const rw::cache::LoweredArtifact> A)
      : Art(std::move(A)) {
    using rw::wasm::EngineKind;
    for (unsigned T = 0; T < NumTiers; ++T) {
      rw::link::LinkOptions Opts;
      Opts.Engine = T == Tree ? EngineKind::Tree
                    : T == JitEager ? EngineKind::Jit
                                    : EngineKind::Flat;
      if (T == Flat)
        Opts.JitThreshold = rw::exec::FlatInstance::NeverTier;
      if (T == JitThreshold)
        Opts.JitThreshold = 1;
      auto LI = rw::link::instantiateArtifact(Art, Opts);
      if (!LI) {
        ADD_FAILURE() << Names[T] << ": " << LI.error().message();
        continue;
      }
      EXPECT_EQ(LI->Instance->engine(), Opts.Engine) << Names[T];
      Lanes.push_back({Names[T], std::move(LI->Instance), {}});
    }
    auto Decoded = rw::wasm::decode(rw::wasm::encode(Art->Program.Module));
    if (!Decoded) {
      ADD_FAILURE() << "codec: " << Decoded.error().message();
      return;
    }
    Codec = std::make_unique<rw::wasm::WModule>(Decoded.take());
    std::shared_ptr<Instance> I =
        rw::wasm::createInstance(*Codec, EngineKind::Flat);
    static_cast<rw::exec::FlatInstance &>(*I).setTierPolicy(
        rw::exec::FlatInstance::NeverTier);
    add("codec-flat", std::move(I));
  }

  bool ready() const {
    for (const Lane &L : Lanes)
      if (L.Init)
        return false;
    return Lanes.size() >= NumTiers;
  }

  Instance &instance(unsigned Route) { return *Lanes[Route].Inst; }
  size_t routes() const { return Lanes.size(); }
  const char *name(unsigned Route) const { return Lanes[Route].Name; }

  /// Runs \p Export on every route and expects agreement; returns the
  /// runs, reference first.
  std::vector<TierRun> run(const std::string &Export,
                           const std::vector<WValue> &Args = {}) {
    std::vector<TierRun> R;
    for (Lane &L : Lanes) {
      TierRun Run;
      Run.Inst = L.Inst;
      if (L.Init) {
        Run.Err = *L.Init;
      } else if (auto Out = L.Inst->invokeByName(Export, Args)) {
        Run.Ok = true;
        Run.Results = Out.take();
      } else {
        Run.Err = Out.error().message();
      }
      R.push_back(std::move(Run));
    }
    for (size_t I = 1; I < R.size(); ++I) {
      const char *Who = Lanes[I].Name;
      EXPECT_EQ(R[0].Ok, R[I].Ok) << Export << " on " << Who << " — tree: "
                                  << R[0].Err << " / " << R[I].Err;
      EXPECT_EQ(R[0].Err, R[I].Err) << Export << " on " << Who;
      EXPECT_TRUE(sameValues(R[0].Results, R[I].Results))
          << Export << " on " << Who << " returns other results";
    }
    expectSameState(Export);
    return R;
  }

  /// Memory and globals agree on every route, and instrCount() on every
  /// route but Tree.
  void expectSameState(const std::string &When) {
    for (size_t I = 1; I < Lanes.size(); ++I) {
      Instance &A = *Lanes[0].Inst, &B = *Lanes[I].Inst;
      const char *Who = Lanes[I].Name;
      if (Lanes[0].Init || Lanes[I].Init)
        continue;
      EXPECT_TRUE(A.memory() == B.memory())
          << When << ": final memory differs on " << Who;
      for (uint32_t G = 0; G < A.module().Globals.size(); ++G)
        EXPECT_EQ(A.global(G).Bits, B.global(G).Bits)
            << When << ": global " << G << " differs on " << Who;
      if (I > Flat)
        EXPECT_EQ(Lanes[Flat].Inst->instrCount(), B.instrCount())
            << When << ": " << Who << " consumed other fuel than flat";
    }
  }

  static bool sameValues(const std::vector<WValue> &A,
                         const std::vector<WValue> &B) {
    if (A.size() != B.size())
      return false;
    for (size_t I = 0; I < A.size(); ++I)
      if (A[I].T != B[I].T || A[I].Bits != B[I].Bits)
        return false;
    return true;
  }

private:
  static constexpr const char *Names[NumTiers] = {"tree", "flat", "jit-eager",
                                                  "jit-threshold"};
  struct Lane {
    const char *Name;
    std::shared_ptr<Instance> Inst;
    std::optional<std::string> Init; ///< Initialization error, if any.
  };

  void add(const char *Name, std::shared_ptr<Instance> I) {
    Lane L{Name, std::move(I), {}};
    if (rw::Status S = L.Inst->initialize(); !S)
      L.Init = S.error().message();
    Lanes.push_back(std::move(L));
  }

  std::vector<Lane> Lanes;
  /// The lowered artifact and the decoded module the instances borrow.
  std::shared_ptr<const rw::cache::LoweredArtifact> Art;
  std::unique_ptr<rw::wasm::WModule> Codec;
};

/// Validates \p M, runs \p Export once on fresh instances of every tier
/// and expects agreement. The runs keep their instances alive.
inline std::vector<TierRun> everyTier(const rw::wasm::WModule &M,
                                      const std::string &Export,
                                      const std::vector<WValue> &Args = {},
                                      const Bind &B = {}) {
  rw::Status V = rw::wasm::validate(M);
  EXPECT_TRUE(V.ok()) << V.error().message();
  return WasmOracle(M, B).run(Export, Args);
}

/// The agreed outcome of one export run by the RichWasm-level oracle.
struct Outcome {
  bool Ok = false;
  std::string Err; ///< The machine's error, else the first Wasm route's.
  /// The lowered results (which the machine's numeric results equal).
  std::vector<WValue> Results;

  uint64_t bits(size_t I = 0) const {
    return I < Results.size() ? Results[I].Bits : ~0ull;
  }
};

/// A link set on sem::Machine and on every lowered route, kept alive
/// across runs so a sequence of calls sees the same state everywhere.
class Oracle {
public:
  explicit Oracle(std::vector<const rw::ir::Module *> Mods)
      : Mods(std::move(Mods)) {
    auto M = rw::link::instantiate(this->Mods);
    if (!M) {
      ADD_FAILURE() << "machine: " << M.error().message();
      return;
    }
    Mach = M.take();
    auto A = rw::link::buildArtifact(this->Mods, {});
    if (!A) {
      ADD_FAILURE() << "lower: " << A.error().message();
      return;
    }
    Art = A.take();
    Lowered = std::make_unique<WasmOracle>(Art);
  }

  bool ready() const { return Mach && Lowered && Lowered->ready(); }
  rw::sem::Machine &machine() { return *Mach; }
  WasmOracle &lowered() { return *Lowered; }
  const rw::lower::LoweredProgram &program() const { return Art->Program; }

  /// Runs \p Export ("module.function"), which takes and returns numbers
  /// and unit, with machine arguments \p Args; the Wasm routes get the
  /// numbers (lowering erases unit).
  Outcome run(const std::string &Export,
              const std::vector<rw::sem::Value> &Args = {}) {
    Outcome O;
    if (!ready()) {
      O.Err = "oracle not ready";
      return O;
    }
    std::vector<WValue> WArgs;
    for (const rw::sem::Value &V : Args)
      if (V.isNum())
        WArgs.push_back({rw::wasm::valTypeOf(V.numType()), V.bits()});
    std::vector<TierRun> W = Lowered->run(Export, WArgs);

    auto MR = invokeMachine(Export, Args);
    EXPECT_EQ(bool(MR), W[0].Ok)
        << Export << ": machine "
        << (MR ? "returned" : "trapped: " + MR.error().message())
        << ", Wasm " << (W[0].Ok ? "returned" : "trapped: " + W[0].Err);
    if (MR && W[0].Ok) {
      std::vector<WValue> Nums;
      for (const rw::sem::Value &V : *MR)
        if (V.isNum())
          Nums.push_back({rw::wasm::valTypeOf(V.numType()), V.bits()});
      EXPECT_TRUE(WasmOracle::sameValues(Nums, W[0].Results))
          << Export << ": machine and Wasm return other results";
    }
    O.Ok = MR && W[0].Ok;
    O.Err = MR ? W[0].Err : MR.error().message();
    O.Results = W[0].Results;
    return O;
  }

  struct Gc {
    rw::lower::HostGc::Stats Stats;
    uint32_t Live = 0; ///< The runtime's live-allocation count after it.
  };

  /// One host collection on every lowered route; they must agree on the
  /// statistics, the live count and the state left behind.
  Gc collect() {
    Gc First;
    const rw::lower::LoweredProgram &P = Art->Program;
    for (unsigned R = 0; R < Lowered->routes(); ++R) {
      Instance &I = Lowered->instance(R);
      rw::lower::HostGc::Stats S =
          rw::lower::HostGc(I, P.Runtime, P.RefGlobals).collect();
      Gc G{S, I.global(P.Runtime.GLive).asU32()};
      if (R == 0) {
        First = G;
        continue;
      }
      const char *Who = Lowered->name(R);
      EXPECT_EQ(First.Stats.Marked, G.Stats.Marked) << "marked on " << Who;
      EXPECT_EQ(First.Stats.Swept, G.Stats.Swept) << "swept on " << Who;
      EXPECT_EQ(First.Stats.BytesReclaimed, G.Stats.BytesReclaimed)
          << "bytes reclaimed on " << Who;
      EXPECT_EQ(First.Live, G.Live) << "live count on " << Who;
    }
    Lowered->expectSameState("after collection");
    return First;
  }

private:
  rw::Expected<std::vector<rw::sem::Value>>
  invokeMachine(const std::string &Export,
                const std::vector<rw::sem::Value> &Args) {
    size_t Dot = Export.find('.');
    for (uint32_t I = 0; I < Mods.size(); ++I)
      if (Dot != std::string::npos && Mods[I]->Name == Export.substr(0, Dot))
        if (auto F = rw::link::findExport(*Mods[I], Export.substr(Dot + 1)))
          return Mach->invoke(I, *F, {}, Args);
    return rw::Error("no export " + Export);
  }

  std::vector<const rw::ir::Module *> Mods;
  std::unique_ptr<rw::sem::Machine> Mach;
  std::shared_ptr<const rw::cache::LoweredArtifact> Art;
  std::unique_ptr<WasmOracle> Lowered;
};

/// Runs \p Export once through a fresh Oracle over \p Mods and expects
/// it to return \p Want on the machine and on every lowered route.
inline void expectResult(const std::vector<const rw::ir::Module *> &Mods,
                         const std::string &Export, uint64_t Want,
                         const std::vector<rw::sem::Value> &Args = {}) {
  Oracle O(Mods);
  ASSERT_TRUE(O.ready());
  Outcome R = O.run(Export, Args);
  ASSERT_TRUE(R.Ok) << Export << ": " << R.Err;
  EXPECT_EQ(R.bits(), Want) << Export;
}

} // namespace rwtest

#endif // RICHWASM_TESTS_ORACLE_H
