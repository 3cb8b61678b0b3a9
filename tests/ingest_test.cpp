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
// counters account for every admission outcome; the verdicts of the
// regression corpus are pinned byte for byte; and admission through a
// warm cache (the byte-key probe, on both routes) is indistinguishable
// from admission with no cache.
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"
#include "bench/ServerMix.h"
#include "cache/AdmissionCache.h"
#include "ingest/Ingest.h"
#include "ir/Builder.h"
#include "ir/TypeArena.h"
#include "lower/Lower.h"
#include "obs/Obs.h"
#include "serial/Serial.h"
#include "support/ThreadPool.h"
#include "wasm/Binary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>

using namespace rw;
using ingest::Category;
using ingest::IngestError;
using ingest::Limits;

namespace {

std::vector<uint8_t> wasmBytes(const ir::Module &M) {
  auto Art = link::buildArtifact({&M}, {});
  EXPECT_TRUE(Art) << (Art ? "" : Art.error().message());
  return Art ? wasm::encode((*Art)->Program.Module) : std::vector<uint8_t>{};
}

uint64_t globalArenaNodes() {
  return ir::TypeArena::globalPtr()->stats().totalNodes();
}

std::vector<uint8_t> readFile(const std::filesystem::path &P) {
  std::ifstream In(P, std::ios::binary);
  return {std::istreambuf_iterator<char>(In), {}};
}

/// Header + one function of type [] -> [], then \p Tail (the rest of the
/// sections, in order).
std::vector<uint8_t> oneFuncWasm(std::initializer_list<uint8_t> Tail) {
  std::vector<uint8_t> B = {0x00, 0x61, 0x73, 0x6d, 0x01, 0x00, 0x00, 0x00,
                            0x01, 0x04, 0x01, 0x60, 0x00, 0x00, // type
                            0x03, 0x02, 0x01, 0x00};            // func
  B.insert(B.end(), Tail);
  return B;
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

// A rejection's category names the stage that failed, never a guess from
// the message text: a global import from a module the user named
// "validation", "lower" or "flat translation" is a Link failure whose
// message quotes that name, and it is counted as one.
TEST(Ingest, UserChosenNamesDoNotSteerTheCategory) {
  const uint64_t One = obs::compiledIn() ? 1 : 0;
  obs::Counter Link("ingest.rejected.link");
  obs::Counter Validate("ingest.rejected.validate");
  obs::Counter Lower("ingest.rejected.lower");
  for (const char *From : {"validation", "lower", "flat translation"}) {
    SCOPED_TRACE(From);
    uint64_t L0 = Link.value(), V0 = Validate.value(), W0 = Lower.value();
    IngestError E;
    EXPECT_FALSE(ingest::admit(
        serial::write(rwbench::globalImportModule(From)), Limits(), {}, &E));
    EXPECT_EQ(E.Cat, Category::Link) << E.render();
    EXPECT_EQ(E.render(), std::string("Link @0: unresolved global import ") +
                              From + ".g in module 'app'");
    EXPECT_EQ(Link.value(), L0 + One);
    EXPECT_EQ(Validate.value() + Lower.value(), V0 + W0);
  }
}

// admit binds no host functions, so a function import no module in the
// link set provides is a Link rejection on both routes, and the artifact
// built for it is never stored: every resubmission is rejected the same
// way and the cache stays empty.
TEST(Ingest, OpenFunctionImportIsLinkAndNeverStored) {
  ir::Module M = rwbench::funcImportModule();
  for (const std::vector<uint8_t> &B : {serial::write(M), wasmBytes(M)}) {
    cache::AdmissionCache C;
    link::LinkOptions Opts;
    Opts.Cache = &C;
    for (int I = 0; I < 3; ++I) {
      IngestError E;
      EXPECT_FALSE(ingest::admit(B, Limits(), Opts, &E));
      EXPECT_EQ(E.Cat, Category::Link) << E.render();
      EXPECT_EQ(E.render(), "Link @0: unsatisfied import host.f");
    }
    EXPECT_EQ(C.stats().Entries, 0u);
    EXPECT_EQ(C.stats().Bytes, 0u);
    EXPECT_EQ(C.stats().ProgramHits, 0u);
  }
}

// buildArtifact is the one place a program is checked for lowering, so an
// ill-typed module is a Check failure with the same diagnostics whether
// the check runs module by module or as a pooled batch.
TEST(Ingest, BuildArtifactCheckCategoryDoesNotDependOnThePool) {
  ir::Module Mutant = rwbench::wideModule(3);
  Mutant.Funcs[0].Body.insert(
      Mutant.Funcs[0].Body.begin(),
      {ir::build::iconst(1),
       ir::build::structMalloc({ir::Size::constant(32)}, ir::Qual::lin()),
       ir::build::drop()});
  support::ThreadPool Pool(3);
  link::LinkOptions Plain, Pooled;
  Pooled.Pool = &Pool;
  std::string Diags[2];
  for (int I = 0; I < 2; ++I) {
    IngestError E;
    auto Art = link::buildArtifact({&Mutant}, I ? Pooled : Plain, &E);
    ASSERT_FALSE(Art);
    EXPECT_EQ(E.Cat, Category::Check) << (I ? "pool" : "no pool");
    EXPECT_EQ(E.Context, Art.error().message());
    Diags[I] = Art.error().message();
  }
  EXPECT_EQ(Diags[0], Diags[1]);
  EXPECT_EQ(Diags[0], "module 'wide': in function 0: drop of a linear value "
                      "of type (∃ρ. (ref rw ρ0 (struct (i32^unr, 32)))^lin)^lin");
}

struct Pin {
  const char *Name;
  Category Cat;
  uint64_t Offset;
  const char *Rendered;
};

/// Admits \p B and checks its verdict against \p P: the category, the
/// offset, the rendered structured error, and that the returned message
/// is that rendering under its stage's prefix.
void expectPinned(const Pin &P, const std::vector<uint8_t> &B,
                  const Limits &L = Limits(),
                  const link::LinkOptions &Opts = {}) {
  SCOPED_TRACE(P.Name);
  IngestError E;
  Expected<ingest::AdmittedModule> A = ingest::admit(B, L, Opts, &E);
  EXPECT_EQ(static_cast<bool>(A), P.Cat == Category::None);
  EXPECT_EQ(E.Cat, P.Cat) << E.render();
  EXPECT_EQ(E.Offset, P.Offset);
  EXPECT_EQ(E.render(), P.Rendered);
  if (!A) {
    const std::string &Msg = A.error().message();
    EXPECT_TRUE(Msg == "ingest: " + E.render() ||
                Msg == "wasm decode: " + E.render())
        << Msg;
  }
}

// Every fuzz/corpus/regression input keeps its verdict byte for byte, and
// the stages after parsing keep theirs on generated inputs. A new corpus
// file needs a pin here.
TEST(Ingest, RegressionCorpusVerdictsArePinned) {
  const Pin Corpus[] = {
      {"bad_version.bin", Category::Unsupported, 4,
       "Unsupported @4: unsupported wasm version"},
      {"deep_nesting.bin", Category::LimitExceeded, 539,
       "LimitExceeded @539: block nesting exceeds depth limit of 256"},
      {"empty_wasm.bin", Category::None, 0, "None @0: "},
      {"host_func_import.bin", Category::Link, 0,
       "Link @0: unsatisfied import host.f"},
      {"hostile_type_count.bin", Category::LimitExceeded, 10,
       "LimitExceeded @10: type count 4294967295 exceeds limit of 65536"},
      {"import_named_validation.bin", Category::Link, 0,
       "Link @0: unresolved global import validation.g in module 'app'"},
      {"locals_amplification.bin", Category::LimitExceeded, 23,
       "LimitExceeded @23: local count exceeds limit of 65536"},
      {"overlong_section_size.bin", Category::Malformed, 10,
       "Malformed @10: section size: overlong varint"},
      {"section_overrun.bin", Category::Truncated, 8,
       "Truncated @8: section extends past end of module"},
      {"serial_badsum.bin", Category::Malformed, 16,
       "Malformed @16: payload checksum mismatch"},
      // A null size (the writer's 0) where a node requires one: an
      // existential's bound, a type quantifier's bound, a struct slot.
      {"serial_null_ex_bound.bin", Category::Malformed, 30,
       "Malformed @30: malformed module: missing size"},
      {"serial_null_quant_bound.bin", Category::Malformed, 32,
       "Malformed @32: malformed module: missing size"},
      {"serial_null_struct_slot.bin", Category::Malformed, 32,
       "Malformed @32: malformed module: missing size"},
      {"serial_truncated.bin", Category::Truncated, 8,
       "Truncated @8: truncated header"},
      {"servermix_admitted_mutant.bin", Category::None, 0, "None @0: "},
      {"servermix_bad_magic.bin", Category::BadMagic, 0,
       "BadMagic @0: unrecognized container magic"},
      {"servermix_malformed.bin", Category::Malformed, 16,
       "Malformed @16: payload checksum mismatch"},
      {"servermix_one_byte_mutant.bin", Category::Malformed, 16,
       "Malformed @16: payload checksum mismatch"},
      {"servermix_truncated.bin", Category::Truncated, 8,
       "Truncated @8: payload length mismatch"},
      {"servermix_unsupported.bin", Category::Unsupported, 4,
       "Unsupported @4: unsupported format version 4278190081 (expected 1)"},
      {"truncated_magic.bin", Category::BadMagic, 0,
       "BadMagic @0: input too short for a container magic"},
      // A tuple component whose qualifier variable is out of scope is
      // checked for scope before its qualifier is compared.
      {"typing_prod_qual_out_of_scope.bin", Category::Check, 0,
       "Check @0: in function 0: qualifier variable δ5 out of scope (in "
       "parameter of [(unit^δ5)^unr] -> [])"},
  };
  const std::filesystem::path Dir =
      std::filesystem::path(RW_SOURCE_DIR) / "fuzz/corpus/regression";
  std::vector<std::string> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    Files.push_back(Entry.path().filename().string());
  std::sort(Files.begin(), Files.end());
  std::vector<std::string> Pinned;
  for (const Pin &P : Corpus)
    Pinned.push_back(P.Name);
  ASSERT_EQ(Files, Pinned) << "every regression input needs a pin";
  for (const Pin &P : Corpus)
    expectPinned(P, readFile(Dir / P.Name));

  // Check: a linearity mutant (a linear struct dropped, not freed).
  ir::Module Mutant = rwbench::wideModule(3);
  Mutant.Funcs[0].Body.insert(
      Mutant.Funcs[0].Body.begin(),
      {ir::build::iconst(1),
       ir::build::structMalloc({ir::Size::constant(32)}, ir::Qual::lin()),
       ir::build::drop()});
  expectPinned({"linearity mutant", Category::Check, 0,
                "Check @0: in function 0: drop of a linear value of type "
                "(∃ρ. (ref rw ρ0 (struct (i32^unr, 32)))^lin)^lin"},
               serial::write(Mutant));

  // Check: a tuple component's qualifier variable out of scope, with no
  // quantifiers to bind it (used to crash the qualifier search).
  {
    using namespace ir;
    Module M;
    M.Name = "m";
    M.Funcs.push_back(build::function(
        {}, FunType::get({}, build::arrow({Type(prodPT({unitT(Qual::var(5))}),
                                         Qual::unr())},
                                   {})),
        {}, {}));
    expectPinned({"tuple component qualifier out of scope", Category::Check,
                  0,
                  "Check @0: in function 0: qualifier variable δ5 out of "
                  "scope (in parameter of [(unit^δ5)^unr] -> [])"},
                 serial::write(M));
  }

  // LimitExceeded after parsing: three functions against MaxFuncs = 1.
  Limits OneFunc;
  OneFunc.MaxFuncs = 1;
  expectPinned({"MaxFuncs", Category::LimitExceeded, 0,
                "LimitExceeded @0: module has 3 functions, limit is 1"},
               serial::write(rwbench::serverModule(3)), OneFunc);

  // Validate: a [] -> [] body that leaves an i32 on the stack.
  expectPinned({"stack mismatch", Category::Validate, 0,
                "Validate @0: in function 0: block leaves 1 values, "
                "expected 0"},
               oneFuncWasm({0x0a, 0x06, 0x01, 0x04, 0x00, // code: 1 body
                            0x41, 0x01,                   //   i32.const 1
                            0x0b}));                      //   end

  // Engine: a start function that traps, on the tree and flat engines.
  std::vector<uint8_t> Trap =
      oneFuncWasm({0x08, 0x01, 0x00,                         // start 0
                   0x0a, 0x05, 0x01, 0x03, 0x00, 0x00, 0x0b}); // unreachable
  link::LinkOptions Tree;
  Tree.Engine = wasm::EngineKind::Tree;
  for (const link::LinkOptions &Opts : {Tree, link::LinkOptions()})
    expectPinned({"trapping start", Category::Engine, 0,
                  "Engine @0: trap: unreachable executed [func 0]"},
                 Trap, Limits(), Opts);
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
  // fuel exhaustion is itself an outcome both routes must agree on. The
  // exports are the Wasm module's own, so both containers are read alike.
  for (const wasm::WExport &X : A->Lowered.Program->Module.Exports) {
    if (X.Kind != wasm::ExportKind::Func)
      continue;
    const std::string &Name = X.Name;
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
  Opts.RunStart = false;
  return Opts;
}

// The byte-key probe serves an artifact without parsing or checking, so
// it must be invisible: over the c7 request mix's hot, cold and mutant
// payloads, in both containers, a warm-cache admission reproduces the
// uncached one in verdict, category, error bytes, results and
// instruction count — and every admitted payload is a cache hit the
// second time round.
TEST(IngestCache, WarmAdmissionMatchesUncachedOnServerMix) {
  rwbench::ServerMix Mix;
  // The Wasm container: every hot module and every 16th cold one, lowered
  // and encoded, plus two byte mutants of each.
  std::vector<std::vector<uint8_t>> Wasm;
  for (unsigned I = 0; I < Mix.HotBytes.size(); ++I)
    Wasm.push_back(wasmBytes(rwbench::serverModule(I)));
  for (unsigned I = 0; I < Mix.ColdBytes.size(); I += 16)
    Wasm.push_back(
        wasmBytes(rwbench::serverModule(0x10000000ull + I, /*Funcs=*/2)));
  for (size_t I = 0, N = Wasm.size(); I < 2 * N; ++I)
    Wasm.push_back(rwbench::serverMutate(Wasm[I % N], 0x3a5e5eedull + I));
  std::vector<const std::vector<uint8_t> *> Payloads;
  for (const auto *Pool :
       {&Mix.HotBytes, &Mix.ColdBytes, &Mix.AdvBytes, &Wasm})
    for (const std::vector<uint8_t> &B : *Pool)
      Payloads.push_back(&B);

  cache::AdmissionCache C(/*ByteBudget=*/1ull << 30);
  link::LinkOptions Warm = serverOptions(&C);
  link::LinkOptions Uncached = serverOptions(nullptr);
  for (const std::vector<uint8_t> *B : Payloads)
    admitAndRun(*B, Limits(), Warm);

  uint64_t Hits0 = C.stats().ProgramHits;
  uint64_t Admitted = 0, Rejected = 0, WasmAdmitted = 0, WasmRejected = 0;
  for (size_t I = 0; I < Payloads.size(); ++I) {
    uint64_t HitsBefore = C.stats().ProgramHits;
    Outcome Cached = admitAndRun(*Payloads[I], Limits(), Warm);
    Outcome Fresh = admitAndRun(*Payloads[I], Limits(), Uncached);
    EXPECT_EQ(Cached, Fresh) << "payload " << I << "\ncached: "
                             << describe(Cached)
                             << "\nuncached: " << describe(Fresh);
    EXPECT_EQ(C.stats().ProgramHits - HitsBefore, Fresh.Admitted ? 1u : 0u)
        << "payload " << I;
    Admitted += Fresh.Admitted;
    Rejected += !Fresh.Admitted;
    bool IsWasm = !Payloads[I]->empty() && (*Payloads[I])[0] == 0x00;
    WasmAdmitted += IsWasm && Fresh.Admitted;
    WasmRejected += IsWasm && !Fresh.Admitted;
  }
  EXPECT_EQ(C.stats().ProgramHits - Hits0, Admitted)
      << "every admitted payload must hit on its second admission";
  EXPECT_GE(Admitted, Mix.HotBytes.size() + Mix.ColdBytes.size());
  EXPECT_GT(Rejected, 0u) << "the mutants should exercise rejections";
  size_t WasmOriginals = Wasm.size() / 3;
  EXPECT_GT(WasmAdmitted, WasmOriginals) << "some Wasm mutants must admit";
  EXPECT_GT(WasmRejected, 0u) << "some Wasm mutants must be rejected";
}

/// A one-page Wasm module: "fill" stores 0xa5 over every byte of memory,
/// "orall" returns the OR of every 8-byte word of it.
wasm::WModule dirtyModule() {
  using wasm::Op;
  using wasm::ValType;
  using wasm::WInst;
  wasm::WModule M;
  M.Memory = {{1, std::nullopt}};
  // The loop over every word; \p Visit is the body at address local 0.
  auto Sweep = [](std::vector<WInst> Visit) {
    std::vector<WInst> Body = {
        WInst::idx(Op::LocalGet, 0), WInst::mk(Op::MemorySize),
        WInst::i32c(16), WInst::mk(Op::I32Shl), WInst::mk(Op::I32GeU),
        WInst::idx(Op::BrIf, 1)};
    Body.insert(Body.end(), Visit.begin(), Visit.end());
    Body.insert(Body.end(),
                {WInst::idx(Op::LocalGet, 0), WInst::i32c(8),
                 WInst::mk(Op::I32Add), WInst::idx(Op::LocalSet, 0),
                 WInst::idx(Op::Br, 0)});
    return WInst::block({{}, {}}, {WInst::loop({{}, {}}, std::move(Body))});
  };
  uint32_t Fill = M.addType({{}, {}});
  M.Funcs.push_back(
      {Fill,
       {ValType::I32},
       {Sweep({WInst::idx(Op::LocalGet, 0),
               WInst::i64c(static_cast<int64_t>(0xa5a5a5a5a5a5a5a5ull)),
               WInst::mem(Op::I64Store, 3, 0)})}});
  uint32_t OrAll = M.addType({{}, {ValType::I64}});
  M.Funcs.push_back(
      {OrAll,
       {ValType::I32, ValType::I64},
       {Sweep({WInst::idx(Op::LocalGet, 1), WInst::idx(Op::LocalGet, 0),
               WInst::mem(Op::I64Load, 3, 0), WInst::mk(Op::I64Or),
               WInst::idx(Op::LocalSet, 1)}),
        WInst::idx(Op::LocalGet, 1)}});
  M.Exports.push_back({"fill", wasm::ExportKind::Func, 0});
  M.Exports.push_back({"orall", wasm::ExportKind::Func, 1});
  return M;
}

// No instance ever reads another's bytes. On the serving route (a warm
// cache, the flat engine), an instance that wrote 0xa5 over all of its
// memory is released; then each of 1,000 fresh instances of the same
// artifact on the same thread reads every word of its memory, must see
// only zeros, and dirties its own memory before it is released in turn.
TEST(IngestCache, FreshInstancesNeverSeeAReleasedInstancesBytes) {
  std::vector<uint8_t> B = wasm::encode(dirtyModule());
  cache::AdmissionCache C;
  link::LinkOptions Opts = serverOptions(&C);
  {
    Expected<ingest::AdmittedModule> A = ingest::admit(B, Limits(), Opts);
    ASSERT_TRUE(A) << A.error().message();
    ASSERT_TRUE(A->invoke("fill", {}));
    Expected<std::vector<wasm::WValue>> R = A->invoke("orall", {});
    ASSERT_TRUE(R) << R.error().message();
    ASSERT_EQ((*R)[0].Bits, 0xa5a5a5a5a5a5a5a5ull);
  }
  uint64_t Hits0 = C.stats().ProgramHits;
  for (int I = 0; I < 1000; ++I) {
    Expected<ingest::AdmittedModule> A = ingest::admit(B, Limits(), Opts);
    ASSERT_TRUE(A) << A.error().message();
    Expected<std::vector<wasm::WValue>> R = A->invoke("orall", {});
    ASSERT_TRUE(R) << R.error().message();
    ASSERT_EQ((*R)[0].Bits, 0u)
        << "instance " << I << " read bytes a released instance wrote";
    ASSERT_TRUE(A->invoke("fill", {}));
  }
  EXPECT_EQ(C.stats().ProgramHits - Hits0, 1000u);
}

// The byte key folds in every limit: bytes cached under the default
// policy are still rejected under a tighter one, with the uncached
// rejection's exact bytes, and the rejection stores nothing.
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

  // The same on the Wasm container, for limits only the decoder and the
  // validator enforce.
  std::vector<uint8_t> W = wasmBytes(rwbench::serverModule(3));
  ASSERT_TRUE(admitAndRun(W, Limits(), Warm).Admitted);
  ASSERT_TRUE(admitAndRun(W, Limits(), Warm).Admitted);
  ASSERT_EQ(C.stats().ProgramHits, 2u);
  Limits FewLocals, ShallowStack;
  FewLocals.MaxLocals = 1;
  ShallowStack.MaxOperandDepth = 1;
  for (const Limits &L : {FewLocals, ShallowStack}) {
    Entries = C.stats().Entries;
    Outcome WCached = admitAndRun(W, L, Warm);
    Outcome WFresh = admitAndRun(W, L, serverOptions(nullptr));
    EXPECT_FALSE(WCached.Admitted);
    EXPECT_EQ(WCached.Cat, Category::LimitExceeded) << WCached.Message;
    EXPECT_EQ(WCached, WFresh)
        << describe(WCached) << "\n" << describe(WFresh);
    EXPECT_EQ(C.stats().ProgramHits, 2u);
    EXPECT_EQ(C.stats().Entries, Entries);
  }
}

} // namespace
