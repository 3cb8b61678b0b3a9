//===- tests/wasm_decode_test.cpp - Adversarial wasm::decode battery ------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Mirrors serial_test.cpp's adversarial posture for the wasm container
// route (PR 8): the decoder must be *total* on arbitrary bytes — every
// input either yields a module or a structured IngestError with a
// category and byte offset, never a crash, hang, or unbounded
// allocation. Well-formed encoder output must round-trip bit-identically
// (encode(decode(B)) == B), which the strict canonical LEB rules make
// possible.
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"
#include "ingest/Limits.h"
#include "lower/Lower.h"
#include "support/LEB128.h"
#include "wasm/Binary.h"
#include "wasm/Validate.h"

#include <gtest/gtest.h>

#include <random>

using namespace rw;
using ingest::Category;
using ingest::IngestError;
using ingest::Limits;

namespace {

std::vector<uint8_t> encodeBench(const ir::Module &M) {
  auto Art = link::buildArtifact({&M}, {});
  EXPECT_TRUE(Art) << (Art ? "" : Art.error().message());
  return Art ? wasm::encode((*Art)->Program.Module) : std::vector<uint8_t>{};
}

// Minimal valid module: just the 8-byte header.
std::vector<uint8_t> emptyModule() {
  return {0x00, 0x61, 0x73, 0x6d, 0x01, 0x00, 0x00, 0x00};
}

// A module of one () -> () function without locals whose code is \p Body
// (instruction bytes through the function's closing end).
std::vector<uint8_t> oneBodyModule(const std::vector<uint8_t> &Body) {
  std::vector<uint8_t> Code;
  Code.push_back(0x01); // one body
  encodeULEB128(Body.size() + 1, Code);
  Code.push_back(0x00); // no locals
  Code.insert(Code.end(), Body.begin(), Body.end());

  std::vector<uint8_t> B = emptyModule();
  B.insert(B.end(), {0x01, 0x04, 0x01, 0x60, 0x00, 0x00});
  B.insert(B.end(), {0x03, 0x02, 0x01, 0x00});
  B.push_back(0x0a);
  encodeULEB128(Code.size(), B);
  B.insert(B.end(), Code.begin(), Code.end());
  return B;
}

// The capacity, in nodes, of \p Insts and of every sequence nested in it.
uint64_t instCapacity(const std::vector<wasm::WInst> &Insts) {
  uint64_t N = Insts.capacity();
  for (const wasm::WInst &I : Insts) {
    if (const wasm::WNest *Nest = I.Body.get())
      N += instCapacity(Nest->Insts);
    if (const std::vector<wasm::WInst> *Else = I.Else.get())
      N += instCapacity(*Else);
  }
  return N;
}

TEST(WasmDecode, EmptyHeaderOnlyModule) {
  IngestError E;
  Expected<wasm::WModule> M = wasm::decode(emptyModule(), Limits(), &E);
  ASSERT_TRUE(M) << M.error().message();
  EXPECT_EQ(M->Funcs.size(), 0u);
  EXPECT_EQ(E.Cat, Category::None);
}

TEST(WasmDecode, CorruptMagic) {
  std::vector<uint8_t> B = emptyModule();
  B[1] = 0x62;
  IngestError E;
  Expected<wasm::WModule> M = wasm::decode(B, Limits(), &E);
  ASSERT_FALSE(M);
  EXPECT_EQ(E.Cat, Category::BadMagic);
  EXPECT_EQ(E.Offset, 0u);
}

TEST(WasmDecode, CorruptVersion) {
  std::vector<uint8_t> B = emptyModule();
  B[4] = 0x02;
  IngestError E;
  Expected<wasm::WModule> M = wasm::decode(B, Limits(), &E);
  ASSERT_FALSE(M);
  EXPECT_EQ(E.Cat, Category::Unsupported);
  EXPECT_EQ(E.Offset, 4u);
}

TEST(WasmDecode, RoundTripStabilityOnBenchModules) {
  ir::Module Mods[] = {rwbench::loopModule(10), rwbench::allocModule(4, true),
                       rwbench::allocModule(4, false), rwbench::wideModule(6)};
  for (const ir::Module &Src : Mods) {
    std::vector<uint8_t> B = encodeBench(Src);
    ASSERT_FALSE(B.empty());
    IngestError E;
    Expected<wasm::WModule> M = wasm::decode(B, Limits(), &E);
    ASSERT_TRUE(M) << Src.Name << ": " << M.error().message();
    EXPECT_TRUE(wasm::validate(*M).ok()) << Src.Name;
    // Canonical-LEB strictness is what makes this an equality, not just
    // a semantic equivalence.
    EXPECT_EQ(wasm::encode(*M), B) << Src.Name;
  }
}

TEST(WasmDecode, EveryPrefixTruncationRejectsCleanly) {
  std::vector<uint8_t> B = encodeBench(rwbench::loopModule(4));
  ASSERT_GT(B.size(), 8u);
  size_t Accepted = 0;
  for (size_t Len = 0; Len < B.size(); ++Len) {
    std::vector<uint8_t> P(B.begin(), B.begin() + Len);
    IngestError E;
    Expected<wasm::WModule> M = wasm::decode(P, Limits(), &E);
    if (M) {
      // A prefix ending exactly at a section boundary is itself a valid
      // (smaller) module — it must round-trip like any other.
      ++Accepted;
      EXPECT_EQ(wasm::encode(*M), P) << "accepted prefix at " << Len;
    } else {
      EXPECT_NE(E.Cat, Category::None) << Len;
      EXPECT_LE(E.Offset, Len) << "offset past available input at " << Len;
    }
  }
  // Only a handful of section boundaries exist; nearly every cut must be
  // a structured rejection.
  EXPECT_LT(Accepted, 8u);
}

TEST(WasmDecode, BitFlipSweepIsTotal) {
  std::vector<uint8_t> B = encodeBench(rwbench::wideModule(4));
  ASSERT_GT(B.size(), 8u);
  std::mt19937_64 Rng(0x5eed);
  size_t Accepted = 0, Rejected = 0;
  for (int I = 0; I < 600; ++I) {
    std::vector<uint8_t> Mut = B;
    size_t Byte = Rng() % Mut.size();
    Mut[Byte] ^= uint8_t(1) << (Rng() % 8);
    IngestError E;
    Expected<wasm::WModule> M = wasm::decode(Mut, Limits(), &E);
    if (M) {
      ++Accepted;
      // Whatever survives decoding must still encode without tripping
      // any internal invariant.
      (void)wasm::encode(*M);
    } else {
      ++Rejected;
      EXPECT_NE(E.Cat, Category::None);
    }
  }
  // Flips landing in const immediates stay well-formed, but flips in any
  // structural byte must be caught — a decoder that rejects almost
  // nothing is not actually checking.
  EXPECT_GT(Rejected, 100u);
  EXPECT_EQ(Accepted + Rejected, 600u);
}

TEST(WasmDecode, HostileTypeCountRejectedBeforeAllocation) {
  // Type section claiming 2^32-1 entries in a 5-byte section.
  std::vector<uint8_t> B = emptyModule();
  B.insert(B.end(), {0x01, 0x05, 0xff, 0xff, 0xff, 0xff, 0x0f});
  IngestError E;
  Expected<wasm::WModule> M = wasm::decode(B, Limits(), &E);
  ASSERT_FALSE(M);
  // Either the policy cap or the bytes-remaining plausibility check may
  // fire first; both are resource-safe structured rejections.
  EXPECT_TRUE(E.Cat == Category::LimitExceeded || E.Cat == Category::Malformed)
      << ingest::categoryName(E.Cat);
}

TEST(WasmDecode, LocalsAmplificationRejected) {
  // One empty-type function whose body declares 2^32-1 i32 locals in a
  // 4-byte RLE — the classic decompression bomb.
  std::vector<uint8_t> B = emptyModule();
  B.insert(B.end(), {0x01, 0x04, 0x01, 0x60, 0x00, 0x00}); // type [] -> []
  B.insert(B.end(), {0x03, 0x02, 0x01, 0x00});             // func section
  B.insert(B.end(), {0x0a, 0x0a, 0x01,                     // code section
                     0x08,                                 // body size
                     0x01,                                 // 1 locals run
                     0xff, 0xff, 0xff, 0xff, 0x0f,         // count 2^32-1
                     0x7f,                                 // i32
                     0x0b});                               // end
  IngestError E;
  Expected<wasm::WModule> M = wasm::decode(B, Limits(), &E);
  ASSERT_FALSE(M);
  EXPECT_EQ(E.Cat, Category::LimitExceeded);
}

TEST(WasmDecode, DeepNestingCapped) {
  // 600 nested void blocks exceeds MaxNestingDepth = 256.
  std::vector<uint8_t> Body;
  for (int I = 0; I < 600; ++I)
    Body.insert(Body.end(), {0x02, 0x40}); // block (result void)
  for (int I = 0; I < 600; ++I)
    Body.push_back(0x0b); // end
  Body.push_back(0x0b);   // function end
  std::vector<uint8_t> B = oneBodyModule(Body);

  IngestError E;
  Expected<wasm::WModule> M = wasm::decode(B, Limits(), &E);
  ASSERT_FALSE(M);
  EXPECT_EQ(E.Cat, Category::LimitExceeded);

  Limits Unl = Limits::unlimited();
  Expected<wasm::WModule> M2 = wasm::decode(B, Unl, nullptr);
  EXPECT_TRUE(M2) << "same bytes admissible when the policy allows depth";
}

TEST(WasmDecode, SectionOrderEnforced) {
  // Function section (3) before type section (1): non-custom section ids
  // must be strictly increasing.
  std::vector<uint8_t> B = emptyModule();
  B.insert(B.end(), {0x03, 0x01, 0x00});                   // empty func sec
  B.insert(B.end(), {0x01, 0x01, 0x00});                   // empty type sec
  IngestError E;
  Expected<wasm::WModule> M = wasm::decode(B, Limits(), &E);
  ASSERT_FALSE(M);
  EXPECT_EQ(E.Cat, Category::Malformed);
}

TEST(WasmDecode, SectionSizeOverrunRejected) {
  // Section claims 0x20 bytes but only 2 remain.
  std::vector<uint8_t> B = emptyModule();
  B.insert(B.end(), {0x01, 0x20, 0x00, 0x00});
  IngestError E;
  Expected<wasm::WModule> M = wasm::decode(B, Limits(), &E);
  ASSERT_FALSE(M);
  EXPECT_EQ(E.Cat, Category::Truncated);
}

TEST(WasmDecode, OverlongSectionSizeRejected) {
  // Zero-padded LEB for a section size: canonical-form violation.
  std::vector<uint8_t> B = emptyModule();
  B.insert(B.end(), {0x01, 0x80, 0x00});
  IngestError E;
  Expected<wasm::WModule> M = wasm::decode(B, Limits(), &E);
  ASSERT_FALSE(M);
  EXPECT_EQ(E.Cat, Category::Malformed);
  EXPECT_EQ(E.Offset, 10u) << "offset of the redundant terminal LEB byte";
}

TEST(WasmDecode, FuncCodeCountMismatchRejected) {
  // Function section declares one function, code section delivers none.
  std::vector<uint8_t> B = emptyModule();
  B.insert(B.end(), {0x01, 0x04, 0x01, 0x60, 0x00, 0x00});
  B.insert(B.end(), {0x03, 0x02, 0x01, 0x00});
  B.insert(B.end(), {0x0a, 0x01, 0x00});
  IngestError E;
  Expected<wasm::WModule> M = wasm::decode(B, Limits(), &E);
  ASSERT_FALSE(M);
  EXPECT_EQ(E.Cat, Category::Malformed);
}

TEST(WasmDecode, OpcodesPastTheEnumRejected) {
  // Every byte without an opcode-table row is malformed. Accepting
  // 0xc0..0xff as operand-free no-ops let a module validate that flat
  // translation then refused, so a cached admission (which always
  // translates) disagreed with an uncached tree-engine one. 0x05 (else)
  // and 0x0b (end) are block terminators, not instructions.
  unsigned Rejected = 0;
  for (unsigned C = 0; C < wasm::OpTable.size(); ++C) {
    if (wasm::OpTable[C].Valid || C == 0x05 || C == 0x0b)
      continue;
    std::vector<uint8_t> B = emptyModule();
    B.insert(B.end(), {0x01, 0x04, 0x01, 0x60, 0x00, 0x00}); // [] -> []
    B.insert(B.end(), {0x03, 0x02, 0x01, 0x00});             // one func
    B.insert(B.end(), {0x0a, 0x05, 0x01, 0x03, 0x00,         // one body:
                       static_cast<uint8_t>(C), 0x0b});      //   C, end
    IngestError E;
    Expected<wasm::WModule> M = wasm::decode(B, Limits(), &E);
    ASSERT_FALSE(M) << "opcode " << C;
    EXPECT_EQ(E.Cat, Category::Malformed);
    EXPECT_EQ(E.Offset, B.size() - 2);
    EXPECT_EQ(E.Context, "invalid opcode " + std::to_string(C));
    ++Rejected;
  }
  // 256 bytes: 170 opcodes, else, end, and the rest rejected.
  EXPECT_EQ(Rejected, 256u - 170u - 2u);
}

TEST(WasmDecode, ModuleBytesBudget) {
  std::vector<uint8_t> B = encodeBench(rwbench::loopModule(4));
  Limits L;
  L.MaxModuleBytes = B.size() - 1;
  IngestError E;
  Expected<wasm::WModule> M = wasm::decode(B, L, &E);
  ASSERT_FALSE(M);
  EXPECT_EQ(E.Cat, Category::TooLarge);

  L.MaxModuleBytes = B.size();
  EXPECT_TRUE(wasm::decode(B, L, nullptr));
}

TEST(WasmDecode, AllocationBudgetEnforced) {
  std::vector<uint8_t> B = encodeBench(rwbench::wideModule(8));
  Limits L;
  L.MaxTotalAlloc = 64; // absurdly small — decode must charge and stop
  IngestError E;
  Expected<wasm::WModule> M = wasm::decode(B, L, &E);
  ASSERT_FALSE(M);
  EXPECT_EQ(E.Cat, Category::LimitExceeded);
  EXPECT_NE(E.Context.find("allocation budget"), std::string::npos);
}

TEST(WasmDecode, AllocationBudgetBoundsVectorCapacity) {
  // Instruction vectors grow geometrically, so the budget must cover what
  // they hold, not just the nodes in use: on every accepted module the
  // summed capacity of its instruction vectors fits MaxTotalAlloc. Bodies
  // are N nops straight, or split between a block and both arms of an if;
  // budgets step by 3/2 from 256 bytes past what the longest body needs.
  size_t Accepted = 0, Rejected = 0;
  for (uint32_t N : {1u, 2u, 3u, 100u, 1000u, 4097u, 70000u})
    for (bool Nested : {false, true}) {
      std::vector<uint8_t> Body;
      auto Nops = [&](uint32_t K) { Body.insert(Body.end(), K, 0x01); };
      if (Nested) {
        Body.insert(Body.end(), {0x02, 0x40}); // block (result void)
        Nops(N / 2);
        Body.insert(Body.end(), {0x0b, 0x41, 0x00, 0x04, 0x40}); // end; if
        Nops(N / 4);
        Body.push_back(0x05); // else
        Nops(N - N / 2 - N / 4);
        Body.push_back(0x0b);
      } else {
        Nops(N);
      }
      Body.push_back(0x0b); // function end
      std::vector<uint8_t> B = oneBodyModule(Body);
      for (uint64_t Budget = 256; Budget < (16u << 20);
           Budget = Budget * 3 / 2) {
        Limits L;
        L.MaxTotalAlloc = Budget;
        IngestError E;
        Expected<wasm::WModule> M = wasm::decode(B, L, &E);
        if (!M) {
          EXPECT_EQ(E.Cat, Category::LimitExceeded) << E.render();
          ++Rejected;
          continue;
        }
        ++Accepted;
        ASSERT_EQ(M->Funcs.size(), 1u);
        EXPECT_LE(instCapacity(M->Funcs[0].Body) * sizeof(wasm::WInst),
                  Budget)
            << N << (Nested ? " nested" : " straight") << " nops";
      }
    }
  EXPECT_GT(Accepted, 0u);
  EXPECT_GT(Rejected, 0u);
}

TEST(WasmDecode, ValidatorCapsOperandDepth) {
  // A function pushing 40 constants overruns a 32-slot operand budget at
  // validation time (the decoder itself only bounds the *encoded* size).
  std::vector<uint8_t> Body;
  for (int I = 0; I < 40; ++I)
    Body.insert(Body.end(), {0x41, 0x00}); // i32.const 0
  for (int I = 0; I < 40; ++I)
    Body.push_back(0x1a); // drop
  Body.push_back(0x0b);

  Expected<wasm::WModule> M = wasm::decode(oneBodyModule(Body), Limits(),
                                           nullptr);
  ASSERT_TRUE(M) << M.error().message();
  EXPECT_TRUE(wasm::validate(*M, 64).ok());
  Status S = wasm::validate(*M, 32);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.error().message().find("operand stack depth"),
            std::string::npos);
}

TEST(WasmDecode, RejectionLeavesNoPartialState) {
  // Repeated rejection of a large-ish corrupt module must not accumulate
  // anything — decode owns all intermediate storage.
  std::vector<uint8_t> B = encodeBench(rwbench::wideModule(6));
  B[B.size() / 2] ^= 0xff;
  B.back() ^= 0xff;
  for (int I = 0; I < 100; ++I) {
    IngestError E;
    Expected<wasm::WModule> M = wasm::decode(B, Limits(), &E);
    if (M)
      break; // corruption happened to stay well-formed; fine
  }
  SUCCEED();
}

} // namespace
