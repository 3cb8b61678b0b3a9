//===- tests/ingest_test.cpp - Front-door admission contract --------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// End-to-end contract for ingest::admit: both container routes admit
// real modules and run them to the right answers; every rejection
// carries the right taxonomy category; admission is *total* under a 10k
// deterministic mutation battery (truncations, bit flips, section
// splices) with zero residue in the process-wide type arena; the obs
// counters account for every admission outcome; and admission through a
// warm cache (the RichWasm route's byte-key probe) is indistinguishable
// from admission with no cache.
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"
#include "bench/ServerMix.h"
#include "cache/AdmissionCache.h"
#include "ingest/Ingest.h"
#include "ir/TypeArena.h"
#include "lower/Lower.h"
#include "obs/Obs.h"
#include "serial/Serial.h"
#include "wasm/Binary.h"

#include <gtest/gtest.h>

#include <random>

using namespace rw;
using ingest::Category;
using ingest::IngestError;
using ingest::Limits;

namespace {

std::vector<uint8_t> wasmBytes(const ir::Module &M) {
  Expected<lower::LoweredProgram> LP = lower::lowerProgram({&M}, {});
  EXPECT_TRUE(LP) << (LP ? "" : LP.error().message());
  return wasm::encode(LP->Module);
}

uint64_t globalArenaNodes() {
  return ir::TypeArena::globalPtr()->stats().totalNodes();
}

TEST(Ingest, WasmRouteAdmitsAndRuns) {
  std::vector<uint8_t> B = wasmBytes(rwbench::loopModule(10));
  IngestError E;
  Expected<ingest::AdmittedModule> A = ingest::admit(B, Limits(), {}, &E);
  ASSERT_TRUE(A) << A.error().message();
  EXPECT_EQ(A->R, ingest::Route::Wasm);
  EXPECT_NE(A->InputHash, 0u);
  auto R = A->invoke("loopmod.main", {});
  ASSERT_TRUE(R) << R.error().message();
  EXPECT_EQ((*R)[0].Bits, 55u) << "sum 1..10";
}

TEST(Ingest, RichWasmRouteAdmitsAndRuns) {
  std::vector<uint8_t> B = serial::write(rwbench::loopModule(10));
  IngestError E;
  Expected<ingest::AdmittedModule> A = ingest::admit(B, Limits(), {}, &E);
  ASSERT_TRUE(A) << A.error().message();
  EXPECT_EQ(A->R, ingest::Route::RichWasm);
  auto R = A->invoke("loopmod.main", {});
  ASSERT_TRUE(R) << R.error().message();
  EXPECT_EQ((*R)[0].Bits, 55u);
}

TEST(Ingest, BothRoutesAgreeOnResults) {
  ir::Module Mods[] = {rwbench::loopModule(7), rwbench::allocModule(3, true)};
  for (const ir::Module &M : Mods) {
    auto W = ingest::admit(wasmBytes(M));
    auto S = ingest::admit(serial::write(M));
    ASSERT_TRUE(W) << W.error().message();
    ASSERT_TRUE(S) << S.error().message();
    std::string Export = M.Name + ".main";
    auto RW = W->invoke(Export, {});
    auto RS = S->invoke(Export, {});
    ASSERT_TRUE(RW) << RW.error().message();
    ASSERT_TRUE(RS) << RS.error().message();
    EXPECT_EQ((*RW)[0].Bits, (*RS)[0].Bits) << M.Name;
  }
}

TEST(Ingest, RejectsUnrecognizedMagic) {
  IngestError E;
  EXPECT_FALSE(ingest::admit({0xde, 0xad, 0xbe, 0xef, 0x00}, Limits(), {}, &E));
  EXPECT_EQ(E.Cat, Category::BadMagic);

  EXPECT_FALSE(ingest::admit({}, Limits(), {}, &E));
  EXPECT_EQ(E.Cat, Category::BadMagic);

  EXPECT_FALSE(ingest::admit({0x00, 0x61}, Limits(), {}, &E));
  EXPECT_EQ(E.Cat, Category::BadMagic);
}

TEST(Ingest, RejectsOversizedInputBeforeDecoding) {
  std::vector<uint8_t> B = wasmBytes(rwbench::loopModule(4));
  Limits L;
  L.MaxModuleBytes = B.size() - 1;
  IngestError E;
  EXPECT_FALSE(ingest::admit(B, L, {}, &E));
  EXPECT_EQ(E.Cat, Category::TooLarge);
  EXPECT_NE(E.Context.find(std::to_string(L.MaxModuleBytes)),
            std::string::npos);
}

TEST(Ingest, WasmVersionMismatchIsUnsupported) {
  std::vector<uint8_t> B = wasmBytes(rwbench::loopModule(4));
  B[4] = 0x02;
  IngestError E;
  EXPECT_FALSE(ingest::admit(B, Limits(), {}, &E));
  EXPECT_EQ(E.Cat, Category::Unsupported);
  EXPECT_EQ(E.Offset, 4u);
}

TEST(Ingest, WasmValidationFailureIsCategorized) {
  // Decodes fine (call indices are plain u32s on the wire) but calls a
  // function that does not exist — caught by wasm::validate.
  std::vector<uint8_t> B = {0x00, 0x61, 0x73, 0x6d, 0x01, 0x00, 0x00, 0x00};
  B.insert(B.end(), {0x01, 0x04, 0x01, 0x60, 0x00, 0x00}); // type [] -> []
  B.insert(B.end(), {0x03, 0x02, 0x01, 0x00});             // one func
  B.insert(B.end(), {0x0a, 0x06, 0x01, 0x04, 0x00,         // body:
                     0x10, 0x05,                           //   call 5
                     0x0b});                               //   end
  IngestError E;
  EXPECT_FALSE(ingest::admit(B, Limits(), {}, &E));
  EXPECT_EQ(E.Cat, Category::Validate);
}

TEST(Ingest, SerialTruncationIsCategorized) {
  std::vector<uint8_t> B = serial::write(rwbench::loopModule(4));
  std::vector<uint8_t> Cut(B.begin(), B.begin() + B.size() / 2);
  IngestError E;
  EXPECT_FALSE(ingest::admit(Cut, Limits(), {}, &E));
  EXPECT_TRUE(E.Cat == Category::Truncated || E.Cat == Category::Malformed)
      << ingest::categoryName(E.Cat);
}

TEST(Ingest, CountersAccountForEveryOutcome) {
  // Counter construction re-finds the named slot; deltas isolate this
  // test from whatever ran before it. Under -DRW_OBS=OFF the counters
  // are inert stubs pinned to zero, so each expected delta is zero too —
  // the admissions themselves still run either way.
  const uint64_t One = obs::compiledIn() ? 1 : 0;
  obs::Counter Accepted("ingest.accepted");
  obs::Counter Bytes("ingest.bytes");
  obs::Counter RejMagic("ingest.rejected.bad_magic");
  obs::Counter RejLarge("ingest.rejected.too_large");
  uint64_t A0 = Accepted.value(), B0 = Bytes.value(),
           M0 = RejMagic.value(), L0 = RejLarge.value();

  std::vector<uint8_t> Good = wasmBytes(rwbench::loopModule(4));
  ASSERT_TRUE(ingest::admit(Good));
  EXPECT_EQ(Accepted.value(), A0 + One);
  EXPECT_EQ(Bytes.value(), B0 + One * Good.size());

  ASSERT_FALSE(ingest::admit({1, 2, 3, 4}));
  EXPECT_EQ(RejMagic.value(), M0 + One);

  Limits Tiny;
  Tiny.MaxModuleBytes = 2;
  ASSERT_FALSE(ingest::admit(Good, Tiny));
  EXPECT_EQ(RejLarge.value(), L0 + One);
  EXPECT_EQ(Accepted.value(), A0 + One) << "rejections never count accepted";
}

TEST(Ingest, RejectedRichWasmAdmissionLeavesArenaClean) {
  std::vector<uint8_t> B = serial::write(rwbench::wideModule(4));
  uint64_t Before = globalArenaNodes();
  for (int I = 0; I < 50; ++I) {
    std::vector<uint8_t> Mut = B;
    Mut[20 + I] ^= 0xff; // corrupt past the header
    IngestError E;
    Expected<ingest::AdmittedModule> A = ingest::admit(Mut, Limits(), {}, &E);
    EXPECT_FALSE(A) << "checksummed payload accepted a corrupt byte";
  }
  EXPECT_EQ(globalArenaNodes(), Before)
      << "rejected admissions must leave zero residue in the global arena";
}

// The 10k-seed deterministic mutation battery the acceptance criteria
// names: truncations, bit flips, and section splices over real encodings
// of both containers. Totality means: never a crash, never unbounded
// allocation (tight Limits), zero global-arena residue; accepted mutants
// must still run under fuel.
TEST(Ingest, MutationBattery10k) {
  std::vector<std::vector<uint8_t>> Seeds = {
      wasmBytes(rwbench::loopModule(10)),
      wasmBytes(rwbench::wideModule(4)),
      serial::write(rwbench::loopModule(10)),
      serial::write(rwbench::wideModule(4)),
  };
  for (const auto &S : Seeds)
    ASSERT_GT(S.size(), 24u);

  Limits L;
  L.MaxModuleBytes = 1 << 20;
  L.MaxTotalAlloc = 16u << 20;
  link::LinkOptions Opts;
  Opts.RunStart = false;

  uint64_t ArenaBefore = globalArenaNodes();
  std::mt19937_64 Rng(0xbadc0ffee);
  size_t Accepted = 0, Rejected = 0;

  for (int I = 0; I < 10000; ++I) {
    std::vector<uint8_t> B = Seeds[Rng() % Seeds.size()];
    switch (Rng() % 3) {
    case 0: { // truncation
      B.resize(Rng() % (B.size() + 1));
      break;
    }
    case 1: { // 1..8 bit flips
      for (unsigned F = 1 + Rng() % 8; F && !B.empty(); --F)
        B[Rng() % B.size()] ^= uint8_t(1) << (Rng() % 8);
      break;
    }
    default: { // splice: copy a random slice over a random position
      if (B.size() > 8) {
        size_t From = Rng() % B.size();
        size_t Len = 1 + Rng() % std::min<size_t>(64, B.size() - From);
        size_t To = Rng() % (B.size() - Len + 1);
        std::vector<uint8_t> Slice(B.begin() + From, B.begin() + From + Len);
        std::copy(Slice.begin(), Slice.end(), B.begin() + To);
      }
      break;
    }
    }

    IngestError E;
    Expected<ingest::AdmittedModule> A = ingest::admit(B, L, Opts, &E);
    if (A) {
      ++Accepted;
    } else {
      ++Rejected;
      EXPECT_NE(E.Cat, Category::None)
          << "rejection without a category at iteration " << I;
    }
  }

  EXPECT_EQ(Accepted + Rejected, 10000u);
  EXPECT_GT(Rejected, 5000u) << "mutations should mostly break something";
  EXPECT_EQ(globalArenaNodes(), ArenaBefore)
      << "battery left residue in the global type arena";
}

/// Everything an admission exposes to its caller: the verdict, the
/// structured and rendered error, and — when admitted — every export's
/// result (value or trap bytes) plus the instance's instruction count.
struct Outcome {
  bool Admitted = false;
  Category Cat = Category::None;
  uint64_t Offset = 0;
  std::string Rendered, Message;
  std::vector<std::string> Results;
  uint64_t Instrs = 0;

  bool operator==(const Outcome &) const = default;
};

Outcome admitAndRun(const std::vector<uint8_t> &B, const Limits &L,
                    const link::LinkOptions &Opts) {
  Outcome O;
  IngestError E;
  Expected<ingest::AdmittedModule> A = ingest::admit(B, L, Opts, &E);
  O.Admitted = static_cast<bool>(A);
  O.Cat = E.Cat;
  O.Offset = E.Offset;
  O.Rendered = E.render();
  if (!A) {
    O.Message = A.error().message();
    return O;
  }
  // Mutants that still admit may loop: bounded fuel keeps them cheap, and
  // fuel exhaustion is itself an outcome both routes must agree on.
  for (const auto &[Name, Idx] : A->Lowered.Program->Exports) {
    auto R = A->invoke(Name, {wasm::WValue::i32(7)}, 100000);
    std::string Line = Name + " ->";
    if (R)
      for (const wasm::WValue &V : *R)
        Line += " " + std::to_string(V.Bits);
    else
      Line += " trap: " + R.error().message();
    O.Results.push_back(std::move(Line));
  }
  O.Instrs = A->instance()->instrCount();
  return O;
}

std::string describe(const Outcome &O) {
  std::string S = O.Admitted ? "admitted" : "rejected: " + O.Message;
  for (const std::string &R : O.Results)
    S += "\n  " + R;
  return S + "\n  instrs " + std::to_string(O.Instrs);
}

link::LinkOptions serverOptions(cache::AdmissionCache *C) {
  link::LinkOptions Opts;
  Opts.Cache = C;
  Opts.Engine = wasm::EngineKind::Flat;
  Opts.RunStart = false;
  return Opts;
}

// The byte-key probe serves an artifact without parsing or checking, so
// it must be invisible: over the c7 request mix's hot, cold and mutant
// payloads, a warm-cache admission reproduces the uncached one in
// verdict, category, error bytes, results and instruction count — and
// every admitted payload is a cache hit the second time round.
TEST(IngestCache, WarmAdmissionMatchesUncachedOnServerMix) {
  rwbench::ServerMix Mix;
  std::vector<const std::vector<uint8_t> *> Payloads;
  for (const auto *Pool : {&Mix.HotBytes, &Mix.ColdBytes, &Mix.AdvBytes})
    for (const std::vector<uint8_t> &B : *Pool)
      Payloads.push_back(&B);

  cache::AdmissionCache C(/*ByteBudget=*/1ull << 30);
  link::LinkOptions Warm = serverOptions(&C);
  link::LinkOptions Uncached = serverOptions(nullptr);
  for (const std::vector<uint8_t> *B : Payloads)
    admitAndRun(*B, Limits(), Warm);

  uint64_t Hits0 = C.stats().ProgramHits;
  uint64_t Admitted = 0, Rejected = 0;
  for (size_t I = 0; I < Payloads.size(); ++I) {
    Outcome Cached = admitAndRun(*Payloads[I], Limits(), Warm);
    Outcome Fresh = admitAndRun(*Payloads[I], Limits(), Uncached);
    EXPECT_EQ(Cached, Fresh) << "payload " << I << "\ncached: "
                             << describe(Cached)
                             << "\nuncached: " << describe(Fresh);
    Admitted += Fresh.Admitted;
    Rejected += !Fresh.Admitted;
  }
  EXPECT_EQ(C.stats().ProgramHits - Hits0, Admitted)
      << "every admitted payload must hit on its second admission";
  EXPECT_GE(Admitted, Mix.HotBytes.size() + Mix.ColdBytes.size());
  EXPECT_GT(Rejected, 0u) << "the mutants should exercise rejections";
}

// The byte key folds in the limits enforced after reading: bytes cached
// under the default policy are still rejected under a tighter one, with
// the uncached rejection's exact bytes, and the rejection stores nothing.
TEST(IngestCache, TighterLimitsAreNotServedALooserAdmission) {
  std::vector<uint8_t> B = serial::write(rwbench::serverModule(3));
  cache::AdmissionCache C;
  link::LinkOptions Warm = serverOptions(&C);
  ASSERT_TRUE(admitAndRun(B, Limits(), Warm).Admitted);
  ASSERT_TRUE(admitAndRun(B, Limits(), Warm).Admitted);
  ASSERT_EQ(C.stats().ProgramHits, 1u);

  Limits Tight;
  Tight.MaxFuncs = 1;
  uint64_t Entries = C.stats().Entries;
  Outcome Cached = admitAndRun(B, Tight, Warm);
  Outcome Fresh = admitAndRun(B, Tight, serverOptions(nullptr));
  EXPECT_FALSE(Cached.Admitted);
  EXPECT_EQ(Cached.Cat, Category::LimitExceeded) << Cached.Message;
  EXPECT_EQ(Cached, Fresh) << describe(Cached) << "\n" << describe(Fresh);
  EXPECT_EQ(C.stats().ProgramHits, 1u);
  EXPECT_EQ(C.stats().Entries, Entries);
}

} // namespace
