//===- tests/prelude_test.cpp - The shared runtime prelude ----------------===//
//
// Oracles for the runtime prelude (lower/Runtime.h) that every lowered
// module shares by reference:
//  * it is built once, race-free, however many threads lower first;
//  * lowered modules encode to exactly the bytes they did when each
//    lowering emitted its own copy of the allocator;
//  * the flat code translate() copies equals a translation of the tree,
//    and the validation validate() skips passes when redone from scratch;
//  * a module that references the prelude in an environment its proof
//    does not cover is validated normally, and rejected.
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"
#include "bench/ServerMix.h"
#include "exec/Translate.h"
#include "l3/L3.h"
#include "lower/Lower.h"
#include "ml/ML.h"
#include "wasm/Binary.h"
#include "wasm/Validate.h"

#include <gtest/gtest.h>

#include <latch>
#include <thread>

using namespace rw;

namespace {

/// FNV-1a over the encoded bytes: a stable digest the golden table pins.
uint64_t fnv1a(const std::vector<uint8_t> &Bytes,
               uint64_t H = 0xcbf29ce484222325ull) {
  for (uint8_t B : Bytes) {
    H ^= B;
    H *= 0x100000001b3ull;
  }
  return H;
}

/// Lowers \p Mods as one program and digests wasm::encode of the result.
uint64_t loweredDigest(const std::vector<const ir::Module *> &Mods) {
  auto Art = link::buildArtifact(Mods, {});
  EXPECT_TRUE(bool(Art)) << Art.error().message();
  if (!Art)
    return 0;
  return fnv1a(wasm::encode((*Art)->Program.Module));
}

ir::Module mustML(const std::string &Name, const std::string &Src) {
  Expected<ir::Module> M = ml::compileSource(Name, Src);
  EXPECT_TRUE(bool(M)) << M.error().message();
  return M ? M.take() : ir::Module{};
}

ir::Module mustL3(const std::string &Name, const std::string &Src) {
  Expected<ir::Module> M = l3::compileSource(Name, Src);
  EXPECT_TRUE(bool(M)) << M.error().message();
  return M ? M.take() : ir::Module{};
}

/// ML and L3 programs from the frontend suites and the interop benches.
const char *const MLPrograms[] = {
    "export fun main (u : unit) : int = 2 * 3 * 7 ;;",
    "fun fact (n : int) : int = "
    "  if n = 0 then 1 else n * fact (n - 1) ;;"
    "export fun main (u : unit) : int = fact 5 ;;",
    "export fun main (u : unit) : int = "
    "let p = (40, 2) in fst p + snd p ;;",
    "export fun main (u : unit) : int = "
    "let s = inl [unit] 21 in "
    "case s of inl x => x * 2 | inr y => 0 end ;;",
    "global counter = ref 0 ;;"
    "fun bump (u : unit) : unit = counter := !counter + 14 ;;"
    "export fun main (u : unit) : int = "
    "  bump (); bump (); bump (); !counter ;;",
    "fun twice (f : int -> int) : int -> int = "
    "  fn (x : int) => f (f x) ;;"
    "export fun main (u : unit) : int = "
    "  (twice (fn (x : int) => x + 20)) 2 ;;",
    "fun swap ['a 'b] (p : 'a * 'b) : 'b * 'a = (snd p, fst p) ;;"
    "export fun main (u : unit) : int = "
    "  let q = swap (2, 40) in fst q + snd q ;;",
    "export fun churn (n : int) : int = "
    "  if n = 0 then 0 else (let r = ref n in !r + churn (n - 1)) ;;",
};

const char *const L3Programs[] = {
    "export fun main (u : unit) : int = "
    "let (old, c) = swap (new 40) 2 in old + free c ;;",
    "fun mk (n : int) : Cell int = new n ;;"
    "fun consume (c : Cell int) : int = free c ;;"
    "export fun main (u : unit) : int = consume (mk 42) ;;",
};

/// One digest per program class. Each folds the per-module digests in
/// order, so any changed byte of any lowered module changes its class.
struct Golden {
  const char *Class;
  uint64_t Digest;
};

std::vector<Golden> computeGoldens() {
  std::vector<Golden> Out;
  auto fold = [](uint64_t Acc, uint64_t D) {
    std::vector<uint8_t> B(8);
    for (int I = 0; I < 8; ++I)
      B[I] = static_cast<uint8_t>(D >> (8 * I));
    return fnv1a(B, Acc);
  };

  uint64_t Acc = 0;
  for (const char *Src : MLPrograms) {
    ir::Module M = mustML("m", Src);
    Acc = fold(Acc, loweredDigest({&M}));
  }
  Out.push_back({"ml", Acc});

  Acc = 0;
  for (const char *Src : L3Programs) {
    ir::Module M = mustL3("l3", Src);
    Acc = fold(Acc, loweredDigest({&M}));
  }
  Out.push_back({"l3", Acc});

  {
    ir::Module Ml = mustML("ml", rwbench::MLStashSafe);
    ir::Module L3 = mustL3("l3", rwbench::L3ClientSafe);
    ir::Module Lib = mustL3("lib", rwbench::CounterLibL3);
    ir::Module Client = mustML("client", rwbench::CounterClientML);
    Acc = fold(0, loweredDigest({&Ml, &L3}));
    Acc = fold(Acc, loweredDigest({&Lib, &Client}));
    Out.push_back({"ml_l3_interop", Acc});
  }

  // Every ServerMix hot payload (3 functions, tags 0..63) and a run of
  // its cold payloads (2 functions, tags from 0x10000000).
  Acc = 0;
  for (uint64_t Tag = 0; Tag < 64; ++Tag) {
    ir::Module M = rwbench::serverModule(Tag);
    Acc = fold(Acc, loweredDigest({&M}));
  }
  Out.push_back({"servermix_hot", Acc});
  Acc = 0;
  for (uint64_t I = 0; I < 64; ++I) {
    ir::Module M = rwbench::serverModule(0x10000000ull + I, /*Funcs=*/2);
    Acc = fold(Acc, loweredDigest({&M}));
  }
  Out.push_back({"servermix_cold", Acc});

  // The 64-module admission-set link shape the cold-link workload lowers.
  rwbench::AdmissionSet Set(64);
  Out.push_back({"admission_set_64", loweredDigest(Set.Ptrs)});
  return Out;
}

/// A lowered ServerMix hot module: two host-free allocator functions
/// followed by the program's own.
lower::LoweredProgram lowered() {
  ir::Module M = rwbench::serverModule(7);
  auto Art = link::buildArtifact({&M}, {});
  EXPECT_TRUE(bool(Art)) << Art.error().message();
  return Art ? (*Art)->Program : lower::LoweredProgram{};
}

/// The module with every shared body replaced by an owned copy of it.
wasm::WModule detached(wasm::WModule M) {
  for (wasm::WFunc &F : M.Funcs)
    F.Body.mut();
  return M;
}

} // namespace

// Must stay the first test in this file: it is what makes the first
// lowering of the process, and so the prelude's one-time build, race
// between threads. The TSan job runs this binary.
TEST(PreludeBuild, ConcurrentFirstLoweringsAgree) {
  constexpr unsigned Threads = 8;
  std::vector<ir::Module> Mods;
  for (unsigned T = 0; T < Threads; ++T)
    Mods.push_back(rwbench::serverModule(3));
  std::vector<std::vector<uint8_t>> Bytes(Threads);
  std::latch Start(Threads);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      Start.arrive_and_wait();
      auto Art = link::buildArtifact({&Mods[T]}, {});
      if (Art)
        Bytes[T] = wasm::encode((*Art)->Program.Module);
    });
  for (std::thread &Th : Pool)
    Th.join();
  ASSERT_FALSE(Bytes[0].empty());
  for (unsigned T = 1; T < Threads; ++T)
    EXPECT_EQ(Bytes[T], Bytes[0]) << "thread " << T;
}

TEST(PreludeGolden, LoweredEncodingsAreByteIdentical) {
  // Generated from lowerings that emitted a private prelude per module.
  const Golden Want[] = {
      {"ml", 0x4e3a231632d253e8ull},
      {"l3", 0x8e73be2ad776f401ull},
      {"ml_l3_interop", 0x8ac635147b7aa9e9ull},
      {"servermix_hot", 0x5a38a7d824e89be0ull},
      {"servermix_cold", 0x34a65a4d1c5d449cull},
      {"admission_set_64", 0xc7b57ea504d17528ull},
  };
  std::vector<Golden> Got = computeGoldens();
  ASSERT_EQ(Got.size(), std::size(Want));
  for (size_t I = 0; I < Got.size(); ++I) {
    EXPECT_STREQ(Got[I].Class, Want[I].Class);
    EXPECT_EQ(Got[I].Digest, Want[I].Digest)
        << Got[I].Class << ": 0x" << std::hex << Got[I].Digest;
  }
}

TEST(Prelude, LoweredModulesReferenceOneProvenTranslatedCopy) {
  lower::LoweredProgram A = lowered(), B = lowered();
  for (uint32_t Fn : {A.Runtime.AllocFunc, A.Runtime.FreeFunc}) {
    const wasm::WFunc &FA = A.Module.Funcs[Fn - A.Module.ImportFuncs.size()];
    const wasm::WFunc &FB = B.Module.Funcs[Fn - B.Module.ImportFuncs.size()];
    const wasm::SharedFunc *S = FA.Body.shared();
    ASSERT_NE(S, nullptr);
    EXPECT_EQ(FB.Body.shared(), S);
    EXPECT_TRUE(S->ProvenDepth.has_value());
    EXPECT_FALSE(S->FlatCode.empty());
  }
  // The program's own functions own their bodies.
  for (size_t F = 2; F < A.Module.Funcs.size(); ++F)
    EXPECT_EQ(A.Module.Funcs[F].Body.shared(), nullptr);
}

TEST(Prelude, AdoptedFlatCodeEqualsATranslationOfTheTree) {
  lower::LoweredProgram LP = lowered();
  wasm::WModule Owned = detached(LP.Module);
  Expected<exec::FlatModule> Adopted = exec::translate(LP.Module);
  Expected<exec::FlatModule> Fresh = exec::translate(Owned);
  ASSERT_TRUE(bool(Adopted)) << Adopted.error().message();
  ASSERT_TRUE(bool(Fresh)) << Fresh.error().message();
  ASSERT_EQ(Adopted->Funcs.size(), Fresh->Funcs.size());
  for (size_t F = 0; F < Fresh->Funcs.size(); ++F) {
    SCOPED_TRACE("function " + std::to_string(F));
    const exec::FlatFunc &X = Adopted->Funcs[F], &Y = Fresh->Funcs[F];
    EXPECT_EQ(X.Code, Y.Code);
    EXPECT_EQ(X.MaxDepth, Y.MaxDepth);
    EXPECT_EQ(X.TypeIdx, Y.TypeIdx);
    EXPECT_EQ(X.NumRegs, Y.NumRegs);
    EXPECT_EQ(X.NumResults, Y.NumResults);
  }
  // A profiled translation translates the prelude from its tree too.
  Expected<exec::FlatModule> P1 =
      exec::translate(LP.Module, exec::TranslateOptions{true});
  Expected<exec::FlatModule> P2 =
      exec::translate(Owned, exec::TranslateOptions{true});
  ASSERT_TRUE(P1 && P2);
  for (size_t F = 0; F < P1->Funcs.size(); ++F)
    EXPECT_EQ(P1->Funcs[F].Code, P2->Funcs[F].Code) << "function " << F;
}

TEST(Prelude, ValidatesFromScratch) {
  lower::LoweredProgram LP = lowered();
  Status S = wasm::validate(detached(LP.Module));
  EXPECT_TRUE(S.ok()) << S.error().message();
  for (uint32_t Fn : {LP.Runtime.AllocFunc, LP.Runtime.FreeFunc}) {
    wasm::SharedFunc Copy =
        *LP.Module.Funcs[Fn - LP.Module.ImportFuncs.size()].Body.shared();
    std::optional<uint32_t> Depth = Copy.ProvenDepth;
    Copy.ProvenDepth.reset();
    Status P = exec::proveShared(Copy);
    ASSERT_TRUE(P.ok()) << P.error().message();
    EXPECT_EQ(Copy.ProvenDepth, Depth);
  }
}

TEST(Prelude, ReferencesOutsideTheProvenEnvironmentAreRejected) {
  lower::LoweredProgram LP = lowered();
  const wasm::SharedFunc &Alloc =
      *LP.Module.Funcs[LP.Runtime.AllocFunc - LP.Module.ImportFuncs.size()]
           .Body.shared();
  uint32_t Depth = *Alloc.ProvenDepth;
  ASSERT_TRUE(wasm::validate(wasm::sharedEnvironment(Alloc)).ok());
  ASSERT_TRUE(wasm::validate(wasm::sharedEnvironment(Alloc), Depth).ok());

  auto expectRejected = [](const wasm::WModule &M, const char *Why,
                           uint32_t Cap = ~uint32_t(0)) {
    EXPECT_FALSE(wasm::validate(M, Cap).ok()) << Why;
  };
  expectRejected(wasm::sharedEnvironment(Alloc),
                 "depth cap below the proof's", Depth - 1);
  {
    wasm::WModule M = wasm::sharedEnvironment(Alloc);
    M.Globals[0] = {wasm::ValType::I64, true, {wasm::WInst::i64c(0)}};
    expectRejected(M, "global 0 typed i64");
  }
  {
    wasm::WModule M = wasm::sharedEnvironment(Alloc);
    M.Globals[1].Mut = false;
    expectRejected(M, "bump global immutable");
  }
  {
    wasm::WModule M = wasm::sharedEnvironment(Alloc);
    M.Globals.resize(2); // rw_alloc counts into globals 2 and 3.
    expectRejected(M, "two globals");
  }
  {
    wasm::WModule M = wasm::sharedEnvironment(Alloc);
    M.Memory.reset();
    expectRejected(M, "no memory");
  }
  {
    wasm::WModule M = wasm::sharedEnvironment(Alloc);
    M.Types[0].Results.clear();
    expectRejected(M, "function type without the result");
  }
  {
    wasm::WModule M = wasm::sharedEnvironment(Alloc);
    M.Funcs[0].Locals.pop_back();
    expectRejected(M, "one local short");
  }
}

TEST(Prelude, BodiesThatCallCannotBeProven) {
  wasm::SharedFunc S;
  S.Body = {wasm::WInst::idx(wasm::Op::Call, 0)};
  EXPECT_FALSE(exec::proveShared(S).ok());
  EXPECT_FALSE(S.ProvenDepth.has_value());
}
