//===- tests/serial_test.cpp - Binary module format tests -----------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
// Pins the wire-format contract of src/serial/:
//
//  * round trip — read(write(M)) reproduces M with *canonical* types:
//    pointer-identical to the originals when decoded into the same arena,
//    structurally identical (and re-encoding byte-identical) when decoded
//    into an independent arena;
//  * the round-tripped module checks, lowers, and executes identically
//    (differential against the original across the whole pipeline);
//  * seeded fuzz over randomly generated modules embedding every type
//    shape and instruction payload;
//  * robustness — corrupt headers, bad checksums, truncated streams, and
//    checksum-corrected payload flips are rejected or decoded, never UB;
//  * moduleHash — stable across arenas, discriminating across contents,
//    and consistent with byte-level equality of write().
//
//===----------------------------------------------------------------------===//

#include "serial/Serial.h"

#include "bench/Common.h"
#include "ir/Print.h"
#include "ir/Rewrite.h"
#include "ir/TypeOps.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>
#include <random>

using namespace rw;
using namespace rw::ir;

namespace {

uint64_t fnv1a(const uint8_t *D, size_t N) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (size_t I = 0; I < N; ++I)
    H = (H ^ D[I]) * 0x100000001b3ull;
  return H;
}

/// Rewrites the header checksum to match the (possibly corrupted)
/// payload, so tests can reach the structural validation layer below the
/// checksum.
void fixChecksum(std::vector<uint8_t> &B) {
  ASSERT_GE(B.size(), serial::HeaderSize);
  uint64_t Sum = fnv1a(B.data() + serial::HeaderSize,
                       B.size() - serial::HeaderSize);
  for (int I = 0; I < 8; ++I)
    B[16 + I] = static_cast<uint8_t>(Sum >> (8 * I));
}

/// Seeded random type/instruction generator (the interner_test generator
/// extended with instruction payloads): serialization does not require
/// modules to type-check, so bodies exercise every payload shape freely.
struct Gen {
  std::mt19937_64 Rng;
  explicit Gen(uint64_t Seed) : Rng(Seed) {}
  uint32_t pick(uint32_t N) { return static_cast<uint32_t>(Rng() % N); }

  Qual qual() {
    switch (pick(4)) {
    case 0:
      return Qual::lin();
    case 1:
      return Qual::var(pick(3));
    default:
      return Qual::unr();
    }
  }

  Loc loc() {
    switch (pick(3)) {
    case 0:
      return Loc::var(pick(3));
    case 1:
      return Loc::concrete(pick(2) ? MemKind::Lin : MemKind::Unr, pick(8));
    default:
      return Loc::skolem(pick(4));
    }
  }

  SizeRef size(unsigned D) {
    switch (D == 0 ? pick(2) : pick(4)) {
    case 0:
      return Size::constant(pick(5) * 32);
    case 1:
      return Size::var(pick(4));
    default:
      return Size::plus(size(D - 1), size(D - 1));
    }
  }

  Type type(unsigned D) { return Type(pretype(D), qual()); }

  PretypeRef pretype(unsigned D) {
    switch (D == 0 ? pick(6) : pick(12)) {
    case 0:
      return unitPT();
    case 1:
      return numPT(static_cast<NumType>(pick(6)));
    case 2:
      return varPT(pick(4));
    case 3:
      return ptrPT(loc());
    case 4:
      return ownPT(loc());
    case 5:
      return skolemPT(pick(3), pick(2) ? Qual::lin() : Qual::unr(),
                      Size::constant(32 + 32 * pick(3)), pick(2) == 0);
    case 6: {
      std::vector<Type> Es;
      for (unsigned I = 0, N = pick(3); I < N; ++I)
        Es.push_back(type(D - 1));
      return prodPT(std::move(Es));
    }
    case 7:
      return refPT(pick(2) ? Privilege::RW : Privilege::R, loc(), heap(D - 1));
    case 8:
      return capPT(pick(2) ? Privilege::RW : Privilege::R, loc(), heap(D - 1));
    case 9:
      return recPT(qual(), type(D - 1));
    case 10:
      return exLocPT(type(D - 1));
    default:
      return coderefPT(fun(D - 1));
    }
  }

  HeapTypeRef heap(unsigned D) {
    switch (pick(4)) {
    case 0: {
      std::vector<Type> Cs;
      for (unsigned I = 0, N = 1 + pick(2); I < N; ++I)
        Cs.push_back(type(D));
      return variantHT(std::move(Cs));
    }
    case 1: {
      std::vector<StructField> Fs;
      for (unsigned I = 0, N = pick(3); I < N; ++I)
        Fs.push_back({type(D), size(1)});
      return structHT(std::move(Fs));
    }
    case 2:
      return arrayHT(type(D));
    default:
      return exHT(qual(), size(1), type(D));
    }
  }

  FunTypeRef fun(unsigned D) {
    std::vector<Quant> Qs;
    for (unsigned I = 0, N = pick(3); I < N; ++I) {
      switch (pick(4)) {
      case 0:
        Qs.push_back(Quant::loc());
        break;
      case 1:
        Qs.push_back(Quant::size({size(0)}, {size(0)}));
        break;
      case 2:
        Qs.push_back(Quant::qual({qual()}, {}));
        break;
      default:
        Qs.push_back(Quant::type(qual(), size(1), pick(2) == 0));
        break;
      }
    }
    ArrowType A;
    for (unsigned I = 0, N = pick(3); I < N; ++I)
      A.Params.push_back(type(D));
    for (unsigned I = 0, N = pick(2); I < N; ++I)
      A.Results.push_back(type(D));
    return FunType::get(std::move(Qs), std::move(A));
  }

  ArrowType arrow(unsigned D) {
    ArrowType A;
    for (unsigned I = 0, N = pick(2); I < N; ++I)
      A.Params.push_back(type(D));
    for (unsigned I = 0, N = pick(2); I < N; ++I)
      A.Results.push_back(type(D));
    return A;
  }

  std::vector<LocalEffect> effects(unsigned D) {
    std::vector<LocalEffect> Fx;
    for (unsigned I = 0, N = pick(2); I < N; ++I)
      Fx.push_back({pick(4), type(D)});
    return Fx;
  }

  std::vector<Index> indices(unsigned D) {
    std::vector<Index> Is;
    for (unsigned I = 0, N = pick(3); I < N; ++I) {
      switch (pick(4)) {
      case 0:
        Is.push_back(Index::loc(loc()));
        break;
      case 1:
        Is.push_back(Index::size(size(1)));
        break;
      case 2:
        Is.push_back(Index::qual(qual()));
        break;
      default:
        Is.push_back(Index::pretype(pretype(D)));
        break;
      }
    }
    return Is;
  }

  InstVec insts(unsigned D) {
    using namespace rw::ir::build;
    InstVec Is;
    for (unsigned I = 0, N = 1 + pick(4); I < N; ++I) {
      switch (D == 0 ? pick(14) : pick(22)) {
      case 0:
        Is.push_back(numConst(static_cast<NumType>(pick(6)), Rng()));
        break;
      case 1:
        Is.push_back(binop(static_cast<NumType>(pick(6)),
                           static_cast<BinopKind>(pick(15))));
        break;
      case 2:
        Is.push_back(unop(static_cast<NumType>(pick(6)),
                          static_cast<UnopKind>(pick(10))));
        break;
      case 3:
        Is.push_back(relop(static_cast<NumType>(pick(6)),
                           static_cast<RelopKind>(pick(6))));
        break;
      case 4:
        Is.push_back(cvt(static_cast<NumType>(pick(6)),
                         static_cast<NumType>(pick(6)),
                         pick(2) ? CvtopKind::Reinterpret
                                 : CvtopKind::Convert));
        break;
      case 5:
        Is.push_back(pick(2) ? drop() : nop());
        break;
      case 6:
        Is.push_back(getLocal(pick(4), qual()));
        break;
      case 7:
        Is.push_back(pick(2) ? setLocal(pick(4)) : teeLocal(pick(4)));
        break;
      case 8:
        Is.push_back(qualify(qual()));
        break;
      case 9:
        Is.push_back(brTable({pick(3), pick(3)}, pick(3)));
        break;
      case 10:
        Is.push_back(call(pick(5), indices(D)));
        break;
      case 11:
        Is.push_back(recFold(pretype(D)));
        break;
      case 12:
        Is.push_back(memPack(loc()));
        break;
      case 13:
        Is.push_back(structMalloc({size(1), size(0)}, qual()));
        break;
      case 14:
        Is.push_back(block(arrow(D - 1), effects(D - 1), insts(D - 1)));
        break;
      case 15:
        Is.push_back(loop(arrow(D - 1), insts(D - 1)));
        break;
      case 16:
        Is.push_back(
            ifElse(arrow(D - 1), effects(D - 1), insts(D - 1), insts(D - 1)));
        break;
      case 17:
        Is.push_back(memUnpack(arrow(D - 1), effects(D - 1), insts(D - 1)));
        break;
      case 18: {
        std::vector<InstVec> Arms;
        for (unsigned A = 0, NA = 1 + pick(2); A < NA; ++A)
          Arms.push_back(insts(D - 1));
        Is.push_back(variantCase(qual(), heap(D - 1), arrow(D - 1),
                                 effects(D - 1), std::move(Arms)));
        break;
      }
      case 19:
        Is.push_back(existPack(pretype(D - 1), heap(D - 1), qual()));
        break;
      case 20:
        Is.push_back(existUnpack(qual(), heap(D - 1), arrow(D - 1),
                                 effects(D - 1), insts(D - 1)));
        break;
      default:
        Is.push_back(variantMalloc(pick(3), {type(D - 1)}, qual()));
        break;
      }
    }
    return Is;
  }

  ir::Module module() {
    using namespace rw::ir::build;
    ir::Module M;
    M.Name = "fuzz_" + std::to_string(pick(1000));
    for (unsigned I = 0, N = 1 + pick(3); I < N; ++I) {
      if (pick(4) == 0) {
        M.Funcs.push_back(importFunc({"dep", "f" + std::to_string(pick(4))},
                                     fun(2)));
      } else {
        std::vector<SizeRef> Locals;
        for (unsigned L = 0, NL = pick(3); L < NL; ++L)
          Locals.push_back(size(1));
        Function F = function({}, fun(2), std::move(Locals), insts(2));
        for (unsigned EI = 0, NE = pick(2); EI < NE; ++EI)
          F.Exports.push_back("e" + std::to_string(pick(8)));
        M.Funcs.push_back(std::move(F));
      }
    }
    for (unsigned I = 0, N = pick(2); I < N; ++I) {
      Global G;
      G.Mut = pick(2);
      G.P = pretype(2);
      if (pick(3) == 0)
        G.Import = ImportName{"dep", "g" + std::to_string(pick(4))};
      else
        G.Init = insts(1);
      if (pick(2))
        G.Exports.push_back("g" + std::to_string(pick(8)));
      M.Globals.push_back(std::move(G));
    }
    for (unsigned I = 0, N = pick(3); I < N; ++I)
      M.Tab.Entries.push_back(pick(4));
    if (pick(3) == 0)
      M.Start = pick(3);
    return M;
  }
};

/// Asserts the full round-trip contract for \p M within the current
/// (global) arena: canonical re-encode, pointer-identical types, and
/// identical check verdicts.
void expectRoundTrip(const ir::Module &M) {
  std::vector<uint8_t> Bytes = serial::write(M);
  Expected<ir::Module> R = serial::read(Bytes);
  ASSERT_TRUE(bool(R)) << R.error().message();

  // Canonical encoding: re-serializing reproduces the bytes.
  EXPECT_EQ(serial::write(*R), Bytes);
  EXPECT_EQ(serial::moduleHash(*R), serial::moduleHash(M));

  // Structure and canonical-pointer identity.
  EXPECT_EQ(R->Name, M.Name);
  ASSERT_EQ(R->Funcs.size(), M.Funcs.size());
  for (size_t I = 0; I < M.Funcs.size(); ++I) {
    EXPECT_EQ(R->Funcs[I].Ty.get(), M.Funcs[I].Ty.get()) << "func " << I;
    EXPECT_EQ(R->Funcs[I].Exports, M.Funcs[I].Exports);
    ASSERT_EQ(R->Funcs[I].Locals.size(), M.Funcs[I].Locals.size());
    for (size_t L = 0; L < M.Funcs[I].Locals.size(); ++L)
      EXPECT_EQ(R->Funcs[I].Locals[L].get(), M.Funcs[I].Locals[L].get());
    EXPECT_EQ(R->Funcs[I].isImport(), M.Funcs[I].isImport());
  }
  ASSERT_EQ(R->Globals.size(), M.Globals.size());
  for (size_t I = 0; I < M.Globals.size(); ++I)
    EXPECT_EQ(R->Globals[I].P.get(), M.Globals[I].P.get()) << "global " << I;
  EXPECT_EQ(R->Tab.Entries, M.Tab.Entries);
  EXPECT_EQ(R->Start, M.Start);

  // Identical admission verdict, byte for byte.
  Status SA = typing::checkModule(M);
  Status SB = typing::checkModule(*R);
  EXPECT_EQ(SA.ok(), SB.ok());
  if (!SA.ok() && !SB.ok())
    EXPECT_EQ(SA.error().message(), SB.error().message());
}

//===----------------------------------------------------------------------===//
// Round trips
//===----------------------------------------------------------------------===//

TEST(Serial, RoundTripWorkloads) {
  expectRoundTrip(rwbench::loopModule(100));
  expectRoundTrip(rwbench::allocModule(10, true));
  expectRoundTrip(rwbench::allocModule(10, false));
  expectRoundTrip(rwbench::wideModule(8));
}

TEST(Serial, RoundTripCompiledFrontends) {
  auto ML = ml::compileSource("ml", rwbench::MLStashSafe);
  ASSERT_TRUE(bool(ML)) << ML.error().message();
  expectRoundTrip(*ML);
  auto L3 = l3::compileSource("l3", rwbench::CounterLibL3);
  ASSERT_TRUE(bool(L3)) << L3.error().message();
  expectRoundTrip(*L3);
  auto Client = ml::compileSource("client", rwbench::CounterClientML);
  ASSERT_TRUE(bool(Client)) << Client.error().message();
  expectRoundTrip(*Client);
}

TEST(Serial, RoundTrippedProgramExecutesIdentically) {
  const char *Src = "fun fib (n : int) : int = "
                    "  if n < 2 then n else fib (n - 1) + fib (n - 2) ;;"
                    "export fun main (u : unit) : int = fib 10 ;;";
  auto M = ml::compileSource("m", Src);
  ASSERT_TRUE(bool(M)) << M.error().message();
  auto R = serial::read(serial::write(*M));
  ASSERT_TRUE(bool(R)) << R.error().message();

  for (wasm::EngineKind E : {wasm::EngineKind::Tree, wasm::EngineKind::Flat}) {
    link::LinkOptions Opts;
    Opts.Engine = E;
    auto LA = link::instantiateLowered({&*M}, Opts);
    auto LB = link::instantiateLowered({&*R}, Opts);
    ASSERT_TRUE(bool(LA)) << LA.error().message();
    ASSERT_TRUE(bool(LB)) << LB.error().message();
    auto RA = LA->invokeExport("m.main", {});
    auto RB = LB->invokeExport("m.main", {});
    ASSERT_TRUE(bool(RA)) << RA.error().message();
    ASSERT_TRUE(bool(RB)) << RB.error().message();
    EXPECT_EQ((*RA)[0].Bits, 55u);
    EXPECT_EQ((*RB)[0].Bits, 55u);
  }

  // The round-tripped module also links against peers (tree-machine path).
  auto Mach = link::instantiate({&*R});
  ASSERT_TRUE(bool(Mach)) << Mach.error().message();
}

TEST(Serial, RoundTripIntoIndependentArena) {
  ir::Module M = rwbench::wideModule(4);
  std::vector<uint8_t> Bytes = serial::write(M);

  auto Private = std::make_shared<TypeArena>();
  auto R = serial::read(Bytes, Private);
  ASSERT_TRUE(bool(R)) << R.error().message();
  EXPECT_EQ(R->Arena.get(), Private.get());

  // Pointer identity deliberately fails across arenas while structural
  // equality holds — and the re-encoding is byte-identical anyway,
  // because both the wire format and the hash are arena-independent.
  ASSERT_EQ(R->Funcs.size(), M.Funcs.size());
  for (size_t I = 0; I < M.Funcs.size(); ++I) {
    EXPECT_NE(R->Funcs[I].Ty.get(), M.Funcs[I].Ty.get());
    EXPECT_TRUE(structuralFunTypeEquals(*R->Funcs[I].Ty, *M.Funcs[I].Ty));
  }
  EXPECT_EQ(serial::write(*R), Bytes);
  EXPECT_EQ(serial::moduleHash(*R), serial::moduleHash(M));

  // Decoding into the private arena again dedups against the first read:
  // same canonical nodes.
  auto R2 = serial::read(Bytes, Private);
  ASSERT_TRUE(bool(R2));
  for (size_t I = 0; I < M.Funcs.size(); ++I)
    EXPECT_EQ(R2->Funcs[I].Ty.get(), R->Funcs[I].Ty.get());
}

TEST(SerialFuzz, SeededModulesRoundTrip) {
  for (uint64_t Seed = 0; Seed < 60; ++Seed) {
    ir::Module M = Gen(Seed).module();
    std::vector<uint8_t> Bytes = serial::write(M);
    auto R = serial::read(Bytes);
    ASSERT_TRUE(bool(R)) << "seed " << Seed << ": " << R.error().message();
    EXPECT_EQ(serial::write(*R), Bytes) << "seed " << Seed;
    for (size_t I = 0; I < M.Funcs.size(); ++I)
      EXPECT_EQ(R->Funcs[I].Ty.get(), M.Funcs[I].Ty.get())
          << "seed " << Seed << " func " << I;

    // Independent arena: decode and re-encode must agree byte-for-byte.
    auto Private = std::make_shared<TypeArena>();
    auto RP = serial::read(Bytes, Private);
    ASSERT_TRUE(bool(RP)) << "seed " << Seed;
    EXPECT_EQ(serial::write(*RP), Bytes) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Content hash
//===----------------------------------------------------------------------===//

TEST(Serial, ModuleHashDiscriminatesContent) {
  serial::ModuleHash A = serial::moduleHash(rwbench::loopModule(100));
  serial::ModuleHash B = serial::moduleHash(rwbench::loopModule(100));
  serial::ModuleHash C = serial::moduleHash(rwbench::loopModule(101));
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);

  // A renamed module is different content (names decide import routing).
  ir::Module M = rwbench::loopModule(100);
  M.Name = "renamed";
  EXPECT_NE(serial::moduleHash(M), A);

  // Hashes are arena-independent: the same structure interned into a
  // private arena hashes identically.
  TypeArena Private;
  serial::ModuleHash D;
  {
    ArenaScope Scope(Private);
    D = serial::moduleHash(rwbench::loopModule(100));
  }
  EXPECT_EQ(D, A);
}

//===----------------------------------------------------------------------===//
// Rejection of malformed input
//===----------------------------------------------------------------------===//

TEST(Serial, RejectsCorruptHeader) {
  std::vector<uint8_t> Bytes = serial::write(rwbench::loopModule(10));

  {
    auto B = Bytes;
    B[0] ^= 0xff; // Magic.
    auto R = serial::read(B);
    ASSERT_FALSE(bool(R));
    EXPECT_NE(R.error().message().find("bad magic"), std::string::npos);
  }
  {
    auto B = Bytes;
    B[4] += 1; // Version.
    auto R = serial::read(B);
    ASSERT_FALSE(bool(R));
    EXPECT_NE(R.error().message().find("format version"), std::string::npos);
  }
  {
    auto B = Bytes;
    B[8] ^= 0x01; // Payload length.
    auto R = serial::read(B);
    ASSERT_FALSE(bool(R));
    EXPECT_NE(R.error().message().find("length mismatch"), std::string::npos);
  }
  {
    auto B = Bytes;
    B[16] ^= 0x01; // Checksum field.
    auto R = serial::read(B);
    ASSERT_FALSE(bool(R));
    EXPECT_NE(R.error().message().find("checksum"), std::string::npos);
  }
  {
    auto B = Bytes;
    B[serial::HeaderSize] ^= 0x01; // Payload byte: checksum catches it.
    auto R = serial::read(B);
    ASSERT_FALSE(bool(R));
    EXPECT_NE(R.error().message().find("checksum"), std::string::npos);
  }
  {
    auto B = Bytes;
    B.push_back(0); // Trailing byte: length field no longer matches.
    auto R = serial::read(B);
    ASSERT_FALSE(bool(R));
  }
}

TEST(Serial, RejectsNonMinimalVarints) {
  // The writer emits minimal LEB128; a zero-padded re-encoding of the
  // same value is a *different byte string* for the same module, which
  // the reader rejects to keep accepted blobs writer-shaped.
  std::vector<uint8_t> Bytes = serial::write(rwbench::loopModule(5));
  uint8_t Count = Bytes[serial::HeaderSize]; // Leading type-table count.
  ASSERT_LT(Count, 0x80u);
  std::vector<uint8_t> B(Bytes.begin(), Bytes.begin() + serial::HeaderSize);
  B.push_back(0x80 | Count); // Same value, non-minimal: extra 0x00 byte.
  B.push_back(0x00);
  B.insert(B.end(), Bytes.begin() + serial::HeaderSize + 1, Bytes.end());
  uint64_t PLen = B.size() - serial::HeaderSize;
  for (int I = 0; I < 8; ++I)
    B[8 + I] = static_cast<uint8_t>(PLen >> (8 * I));
  fixChecksum(B);
  auto R = serial::read(B);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().message().find("non-minimal"), std::string::npos)
      << R.error().message();
}

TEST(Serial, RejectsEveryTruncation) {
  std::vector<uint8_t> Bytes = serial::write(rwbench::allocModule(4, true));
  // Every prefix must fail cleanly (truncations invalidate the length
  // field or cut the payload mid-record).
  size_t Step = Bytes.size() > 512 ? 7 : 1;
  for (size_t Len = 0; Len < Bytes.size(); Len += Step) {
    std::vector<uint8_t> B(Bytes.begin(), Bytes.begin() + Len);
    auto R = serial::read(B);
    EXPECT_FALSE(bool(R)) << "prefix length " << Len;
  }
  // Truncations with a *repaired* length+checksum reach the structural
  // layer: still a clean failure (mid-record cut), never UB.
  for (size_t Len = serial::HeaderSize + 1; Len < Bytes.size(); Len += Step) {
    std::vector<uint8_t> B(Bytes.begin(), Bytes.begin() + Len);
    uint64_t PLen = Len - serial::HeaderSize;
    for (int I = 0; I < 8; ++I)
      B[8 + I] = static_cast<uint8_t>(PLen >> (8 * I));
    fixChecksum(B);
    auto R = serial::read(B);
    EXPECT_FALSE(bool(R)) << "repaired prefix length " << Len;
  }
}

TEST(SerialFuzz, ChecksumRepairedByteFlipsNeverCrash) {
  // Single-byte payload corruptions with a recomputed checksum exercise
  // the structural validators (index/category/enum/length checks): each
  // must either decode to some module or fail with a diagnostic —
  // memory-safely either way (the ASan job runs this test).
  std::vector<uint8_t> Bytes = serial::write(rwbench::wideModule(2));
  std::mt19937_64 Rng(42);
  unsigned Rejected = 0, Accepted = 0;
  for (unsigned I = 0; I < 300; ++I) {
    auto B = Bytes;
    size_t Off = serial::HeaderSize + Rng() % (B.size() - serial::HeaderSize);
    B[Off] ^= 1u << (Rng() % 8);
    fixChecksum(B);
    auto R = serial::read(B);
    if (bool(R)) {
      ++Accepted;
      serial::write(*R); // A decoded module must re-encode safely.
    } else {
      ++Rejected;
      EXPECT_FALSE(R.error().message().empty());
    }
  }
  // The validators must actually bite on a meaningful share of flips
  // (flips inside scalar immediates legitimately decode to a different
  // module, so acceptance is not an error).
  EXPECT_GT(Rejected, 20u);
  (void)Accepted;
}

TEST(Serial, FailedReadLeavesTargetArenaUntouched) {
  // The checksum is not a MAC: an attacker can ship a structurally
  // invalid payload with a valid checksum. Such a read must not grow the
  // target arena (it has no eviction; interned garbage would be
  // permanent).
  std::vector<uint8_t> Bytes = serial::write(rwbench::wideModule(2));
  // Truncate mid-payload and repair length + checksum so the failure
  // happens in structural validation, after type-table parsing started.
  std::vector<uint8_t> B(Bytes.begin(), Bytes.begin() + Bytes.size() - 4);
  uint64_t PLen = B.size() - serial::HeaderSize;
  for (int I = 0; I < 8; ++I)
    B[8 + I] = static_cast<uint8_t>(PLen >> (8 * I));
  fixChecksum(B);

  auto Target = std::make_shared<TypeArena>();
  uint64_t Before = Target->stats().totalNodes();
  auto R = serial::read(B, Target);
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(Target->stats().totalNodes(), Before)
      << "rejected payload interned nodes into the target arena";

  // A successful read into the same arena interns exactly the module's
  // nodes — and a repeated read adds nothing new.
  auto Ok = serial::read(Bytes, Target);
  ASSERT_TRUE(bool(Ok));
  uint64_t After = Target->stats().totalNodes();
  EXPECT_GT(After, Before);
  auto Ok2 = serial::read(Bytes, Target);
  ASSERT_TRUE(bool(Ok2));
  EXPECT_EQ(Target->stats().totalNodes(), After);
}

TEST(Serial, PrivateReadAgreesWithTwoPhaseRead) {
  // readPrivate skips the scratch-arena probe because its arena is its
  // own. It must still accept exactly what read() accepts, with the same
  // diagnostics and the same decoded module, over intact, truncated and
  // checksum-repaired corrupt payloads.
  std::vector<uint8_t> Bytes = serial::write(rwbench::wideModule(2));
  std::vector<std::vector<uint8_t>> Inputs = {Bytes, {}, {'R', 'W'}};
  for (size_t Len = 0; Len < Bytes.size(); Len += 7)
    Inputs.emplace_back(Bytes.begin(), Bytes.begin() + Len);
  std::mt19937_64 Rng(7);
  for (unsigned I = 0; I < 200; ++I) {
    auto B = Bytes;
    size_t Off = serial::HeaderSize + Rng() % (B.size() - serial::HeaderSize);
    B[Off] ^= 1u << (Rng() % 8);
    fixChecksum(B);
    Inputs.push_back(std::move(B));
  }
  unsigned Accepted = 0;
  for (const std::vector<uint8_t> &B : Inputs) {
    auto Two = serial::read(B, std::make_shared<TypeArena>());
    auto One = serial::readPrivate(B);
    ASSERT_EQ(bool(One), bool(Two));
    if (!One) {
      EXPECT_EQ(One.error().message(), Two.error().message());
      continue;
    }
    ++Accepted;
    EXPECT_EQ(serial::write(*One), serial::write(*Two));
    EXPECT_NE(One->Arena, TypeArena::globalPtr());
    EXPECT_EQ(One->Arena.use_count(), 1) << "the arena must be private";
  }
  EXPECT_GT(Accepted, 1u);
}

TEST(Serial, PrivateReadReportsWhereItFailed) {
  // A header failure is reported at its field (magic @0, version @4,
  // payload length @8, checksum @16; a short header at the input's end),
  // and a payload failure at the header size plus the reader's position.
  std::vector<uint8_t> Bytes = serial::write(rwbench::wideModule(2));
  auto offsetOf = [](const std::vector<uint8_t> &B, ingest::Category Want) {
    ingest::IngestError E;
    EXPECT_FALSE(bool(serial::readPrivate(B, &E)));
    EXPECT_EQ(E.Cat, Want) << E.render();
    return E.Offset;
  };
  using ingest::Category;
  EXPECT_EQ(offsetOf({Bytes.begin(), Bytes.begin() + 10}, Category::Truncated),
            10u);
  std::vector<uint8_t> B = Bytes;
  B[0] ^= 1;
  EXPECT_EQ(offsetOf(B, Category::BadMagic), 0u);
  B = Bytes;
  B[4] ^= 1;
  EXPECT_EQ(offsetOf(B, Category::Unsupported), 4u);
  B = Bytes;
  B.pop_back();
  EXPECT_EQ(offsetOf(B, Category::Truncated), 8u);
  B = Bytes;
  B.back() ^= 1;
  EXPECT_EQ(offsetOf(B, Category::Malformed), 16u);
  // Payload edits with the length and checksum repaired: a cut payload
  // runs out at the end of the input, and a trailing byte is found where
  // the module record ends.
  auto reseal = [](std::vector<uint8_t> &B) {
    uint64_t Len = B.size() - serial::HeaderSize;
    for (int I = 0; I < 8; ++I)
      B[8 + I] = static_cast<uint8_t>(Len >> (8 * I));
    fixChecksum(B);
  };
  B.assign(Bytes.begin(), Bytes.end() - 1);
  reseal(B);
  EXPECT_EQ(offsetOf(B, Category::Truncated), B.size());
  B = Bytes;
  B.push_back(0);
  reseal(B);
  EXPECT_EQ(offsetOf(B, Category::Malformed), Bytes.size());
}

TEST(Serial, ConcurrentReadsInternSafely) {
  // Readers intern into the shared thread-safe arena while checks run —
  // the admission-server shape; the CI TSan job runs this test. All
  // decodes of one byte string must agree on canonical pointers.
  ir::Module M = rwbench::wideModule(6);
  std::vector<uint8_t> Bytes = serial::write(M);
  support::ThreadPool Pool(8);
  constexpr size_t N = 24;
  std::vector<ir::Module> Out(N);
  std::vector<Status> Checks(N);
  Pool.parallelFor(N, [&](size_t I) {
    auto R = serial::read(Bytes); // Global arena, racing other readers.
    ASSERT_TRUE(bool(R)) << R.error().message();
    Out[I] = R.take();
    if (I % 3 == 0) // And racing full checks over the same arena.
      Checks[I] = typing::checkModule(Out[I]);
  });
  for (size_t I = 0; I < N; ++I) {
    ASSERT_EQ(Out[I].Funcs.size(), M.Funcs.size());
    for (size_t F = 0; F < M.Funcs.size(); ++F)
      EXPECT_EQ(Out[I].Funcs[F].Ty.get(), M.Funcs[F].Ty.get());
    if (I % 3 == 0)
      EXPECT_TRUE(Checks[I].ok());
  }
}

//===----------------------------------------------------------------------===//
// Boolean fields
//===----------------------------------------------------------------------===//

/// The payload offset of the one byte at which two same-shaped encodings
/// differ (the flag the two modules disagree on).
size_t flagOffset(const std::vector<uint8_t> &A,
                  const std::vector<uint8_t> &B) {
  EXPECT_EQ(A.size(), B.size());
  size_t At = 0, Diffs = 0;
  for (size_t I = serial::HeaderSize; I < A.size() && I < B.size(); ++I)
    if (A[I] != B[I]) {
      At = I;
      ++Diffs;
    }
  EXPECT_EQ(Diffs, 1u);
  return At;
}

TEST(Serial, RejectsNonCanonicalBooleanFields) {
  // The writer emits booleans as 0 or 1; a reader that took any nonzero
  // value as true would decode distinct byte strings to one module.
  using namespace rw::ir::build;
  auto WithGlobal = [](bool Mut, PretypeRef P) {
    ir::Module M;
    M.Name = "flags";
    Global G;
    G.Mut = Mut;
    G.P = std::move(P);
    G.Import = ImportName{"dep", "g"};
    M.Globals.push_back(std::move(G));
    return serial::write(M);
  };
  auto WithQuant = [](bool NoCaps) {
    ir::Module M;
    M.Name = "flags";
    M.Funcs.push_back(importFunc(
        {"dep", "f"},
        FunType::get({Quant::type(Qual::unr(), Size::constant(32), NoCaps)},
                     arrow({}, {}))));
    return serial::write(M);
  };
  auto Skolem = [](bool NoCaps) {
    return skolemPT(3, Qual::unr(), Size::constant(32), NoCaps);
  };
  struct Case {
    const char *What;
    std::vector<uint8_t> False, True;
  } Cases[] = {
      {"mutability", WithGlobal(false, unitPT()), WithGlobal(true, unitPT())},
      {"no-caps", WithGlobal(false, Skolem(false)),
       WithGlobal(false, Skolem(true))},
      {"no-caps", WithQuant(false), WithQuant(true)},
  };
  for (const Case &C : Cases) {
    size_t At = flagOffset(C.False, C.True);
    ASSERT_EQ(C.True[At], 1u) << C.What;
    std::vector<uint8_t> B = C.True;
    B[At] = 2;
    fixChecksum(B);
    ingest::IngestError E;
    EXPECT_FALSE(bool(serial::readPrivate(B, &E))) << C.What;
    EXPECT_EQ(E.Cat, ingest::Category::Malformed) << C.What;
    EXPECT_EQ(E.Offset, At + 1) << C.What;
    EXPECT_EQ(E.Context, std::string("malformed module: bad ") + C.What +
                             " flag");
    EXPECT_FALSE(bool(serial::read(B, std::make_shared<TypeArena>())));
  }
}

//===----------------------------------------------------------------------===//
// Kind coverage: every instruction kind's field list
//===----------------------------------------------------------------------===//

/// Builds one instance of each instruction kind. Its type-level fields
/// mention free variables shifted by \p Shift — or, when \p Closed, only
/// closed types. Bodies under a binder also mention the bound variable 0,
/// which a shift leaves alone. Written against ir::build and printInst,
/// not against the field lists, so that it checks them.
struct KindInstances {
  bool Closed;
  uint32_t Shift;

  Qual q(uint32_t I) const {
    return Closed ? Qual::lin() : Qual::var(I + Shift);
  }
  Loc l(uint32_t I) const {
    return Closed ? Loc::concrete(MemKind::Lin, I) : Loc::var(I + Shift);
  }
  SizeRef sz(uint32_t I) const {
    return Closed ? Size::constant(32 * (I + 1)) : Size::var(I + Shift);
  }
  PretypeRef p(uint32_t I) const {
    return Closed ? numPT(NumType::I64) : varPT(I + Shift);
  }
  Type t(uint32_t I) const { return Type(p(I), q(I)); }
  HeapTypeRef ht(uint32_t I) const { return variantHT({t(I), t(I + 1)}); }
  ArrowType tf() const { return {{t(0)}, {t(1), t(2)}}; }
  std::vector<LocalEffect> fx() const { return {{2, t(3)}, {5, t(4)}}; }
  InstVec body(uint32_t I) const {
    using namespace rw::ir::build;
    return {getLocal(I, q(I)), qualify(q(I + 1))};
  }
  std::vector<Index> args() const {
    return {Index::loc(l(0)), Index::size(sz(1)), Index::qual(q(2)),
            Index::pretype(p(3))};
  }

  InstRef make(InstKind K) const {
    using namespace rw::ir::build;
    switch (K) {
    case InstKind::NumConst:
      return numConst(NumType::F32, 0x4049'0fdbull);
    case InstKind::NumUnop:
      return unop(NumType::F64, UnopKind::Nearest);
    case InstKind::NumBinop:
      return binop(NumType::U64, BinopKind::Copysign);
    case InstKind::NumTestop:
      return testop(NumType::I64);
    case InstKind::NumRelop:
      return relop(NumType::U32, RelopKind::Ge);
    case InstKind::NumCvt:
      return cvt(NumType::I64, NumType::F32, CvtopKind::Reinterpret);
    case InstKind::Block:
      return block(tf(), fx(), body(0));
    case InstKind::Loop:
      return loop(tf(), body(1));
    case InstKind::If:
      return ifElse(tf(), fx(), body(2), body(3));
    case InstKind::Br:
      return br(3);
    case InstKind::BrIf:
      return brIf(4);
    case InstKind::BrTable:
      return brTable({2, 0, 1}, 5);
    case InstKind::GetLocal:
      return getLocal(6, q(1));
    case InstKind::SetLocal:
      return setLocal(7);
    case InstKind::TeeLocal:
      return teeLocal(8);
    case InstKind::GetGlobal:
      return getGlobal(9);
    case InstKind::SetGlobal:
      return setGlobal(10);
    case InstKind::Qualify:
      return qualify(q(2));
    case InstKind::CoderefI:
      return coderef(11);
    case InstKind::InstIdx:
      return instIdx(args());
    case InstKind::Call:
      return call(12, args());
    case InstKind::RecFold:
      return recFold(recPT(q(1), t(2)));
    case InstKind::MemPack:
      return memPack(l(3));
    case InstKind::MemUnpack:
      return memUnpack(tf(), fx(),
                       {memPack(Loc::var(0)), memPack(inner().l(1))});
    case InstKind::Group:
      return group(13, q(4));
    case InstKind::StructMalloc:
      return structMalloc({sz(0), sz(2)}, q(1));
    case InstKind::StructGet:
      return structGet(14);
    case InstKind::StructSet:
      return structSet(15);
    case InstKind::StructSwap:
      return structSwap(16);
    case InstKind::VariantMalloc:
      return variantMalloc(17, {t(0), t(3)}, q(2));
    case InstKind::VariantCase:
      return variantCase(q(0), ht(1), tf(), fx(), {body(4), body(5)});
    case InstKind::ArrayMalloc:
      return arrayMalloc(q(3));
    case InstKind::ExistPack:
      return existPack(p(4), ht(0), q(5));
    case InstKind::ExistUnpack:
      return existUnpack(q(1), ht(2), tf(), fx(),
                         {recFold(varPT(0)), recFold(inner().p(1))});
    default:
      return std::make_shared<SimpleInst>(K);
    }
  }

private:
  /// The view from under one binder: outer variable I is variable I + 1.
  KindInstances inner() const { return {Closed, Shift + 1}; }
};

std::string render(const InstRef &I) {
  std::string S = printInst(*I);
  // printInst summarizes instantiation arguments; spell them out.
  const std::vector<Index> *Args = nullptr;
  if (const auto *C = dyn_cast<CallInst>(I.get()))
    Args = &C->args();
  else if (const auto *X = dyn_cast<InstIdxInst>(I.get()))
    Args = &X->args();
  for (size_t J = 0; Args && J < Args->size(); ++J) {
    const Index &A = (*Args)[J];
    S += " [" + std::to_string(static_cast<int>(A.K)) + ":";
    switch (A.K) {
    case QuantKind::Loc:
      S += A.L.str();
      break;
    case QuantKind::Size:
      S += A.Sz->str();
      break;
    case QuantKind::Qual:
      S += A.Q.str();
      break;
    case QuantKind::Type:
      S += printPretype(A.P);
      break;
    }
    S += "]";
  }
  return S;
}

TEST(Serial, EveryInstKindRoundTripsAndRewrites) {
  const KindInstances Open{false, 0}, Shifted{false, 1}, Closed{true, 0};
  for (unsigned KV = static_cast<unsigned>(InstKind::NumConst);
       KV <= static_cast<unsigned>(InstKind::ExistUnpack); ++KV) {
    InstKind K = static_cast<InstKind>(KV);
    SCOPED_TRACE("instruction kind " + std::to_string(KV));
    InstRef I = Open.make(K);
    ASSERT_EQ(I->kind(), K);

    // Round trip: identical bytes, hash and rendering.
    ir::Module M;
    M.Name = "kinds";
    M.Funcs.push_back(build::function(
        {}, FunType::get({}, build::arrow({}, {})), {}, {I}));
    std::vector<uint8_t> Bytes = serial::write(M);
    auto R = serial::read(Bytes);
    ASSERT_TRUE(bool(R)) << R.error().message();
    EXPECT_EQ(serial::write(*R), Bytes);
    EXPECT_EQ(serial::moduleHash(*R), serial::moduleHash(M));
    ASSERT_EQ(R->Funcs[0].Body.size(), 1u);
    EXPECT_EQ(render(R->Funcs[0].Body[0]), render(I));

    // A shift cannot reach closed fields: the node itself comes back.
    Shifter Sh(1, 1, 1, 1);
    InstRef C = Closed.make(K);
    EXPECT_EQ(rewriteInst(C, Sh).get(), C.get());

    // A shift reaches every open field, and leaves binders' variables.
    InstRef S = rewriteInst(I, Sh);
    EXPECT_EQ(render(S), render(Shifted.make(K)));
    EXPECT_EQ(S.get() == I.get(), render(S) == render(I));
  }
}

/// Builds one instance of each type-node kind, as KindInstances does for
/// instructions: free variables shifted by \p Shift, or only closed
/// fields when \p Closed; bodies under a binder also mention the bound
/// variable 0. Written against the factories, not the field lists.
struct TypeKindInstances {
  bool Closed;
  uint32_t Shift;

  Qual q(uint32_t I) const {
    return Closed ? Qual::lin() : Qual::var(I + Shift);
  }
  Loc l(uint32_t I) const {
    return Closed ? Loc::concrete(MemKind::Unr, I) : Loc::var(I + Shift);
  }
  SizeRef sz(uint32_t I) const {
    return Closed ? Size::constant(32 * (I + 1)) : Size::var(I + Shift);
  }
  PretypeRef p(uint32_t I) const {
    return Closed ? numPT(NumType::I64) : varPT(I + Shift);
  }
  Type t(uint32_t I) const { return Type(p(I), q(I)); }

  PretypeRef make(PretypeKind K) const {
    switch (K) {
    case PretypeKind::Unit:
      return unitPT();
    case PretypeKind::Num:
      return numPT(NumType::F32);
    case PretypeKind::Var:
      return p(2);
    case PretypeKind::Skolem:
      // Opaque to rewriting: its bounds stay as they are under a shift.
      return skolemPT(5, Qual::var(1), Size::var(2), false);
    case PretypeKind::Prod:
      return prodPT({t(0), t(1)});
    case PretypeKind::Ref:
      return refPT(Privilege::RW, l(0), make(HeapTypeKind::Variant));
    case PretypeKind::Ptr:
      return ptrPT(l(1));
    case PretypeKind::Cap:
      return capPT(Privilege::R, l(2), make(HeapTypeKind::Array));
    case PretypeKind::Own:
      return ownPT(l(3));
    case PretypeKind::Rec:
      return recPT(q(1), Type(prodPT({Type(varPT(0), Qual::unr()),
                                      Type(inner().p(1), q(2))}),
                              Qual::lin()));
    case PretypeKind::ExLoc:
      return exLocPT(Type(prodPT({Type(ptrPT(Loc::var(0)), q(0)),
                                  Type(ptrPT(inner().l(1)), q(1))}),
                          Qual::unr()));
    case PretypeKind::Coderef:
      return coderefPT(fun());
    }
    return nullptr;
  }
  HeapTypeRef make(HeapTypeKind K) const {
    switch (K) {
    case HeapTypeKind::Variant:
      return variantHT({t(0), t(3)});
    case HeapTypeKind::Struct:
      return structHT({{t(2), sz(0)}, {t(1), sz(3)}});
    case HeapTypeKind::Array:
      return arrayHT(t(4));
    case HeapTypeKind::Ex:
      return exHT(q(1), sz(2),
                  Type(prodPT({Type(varPT(0), Qual::unr()),
                               Type(inner().p(1), q(0))}),
                       Qual::unr()));
    }
    return nullptr;
  }
  /// One quantifier of each kind; each one's constraints sit under the
  /// binders before it, and the arrow under all four.
  FunTypeRef fun() const {
    return FunType::get(
        {Quant::loc(), Quant::size({sz(0)}, {sz(1)}),
         Quant::qual({q(0)}, {q(2)}),
         Quant::type(inner().q(0),
                     Size::plus(Size::var(0), inner().sz(1)))},
        ArrowType{{Type(varPT(0), Qual::var(0)),
                   Type(ptrPT(Loc::var(0)), inner().q(1))},
                  {Type(inner().p(1), Qual::unr()),
                   Type(ptrPT(inner().l(2)), Qual::unr())}});
  }

private:
  /// The view from under one binder: outer variable I is variable I + 1.
  TypeKindInstances inner() const { return {Closed, Shift + 1}; }
};

TEST(Serial, EveryTypeKindRoundTripsAndRewrites) {
  const TypeKindInstances Open{false, 0}, Shifted{false, 1},
      Closed{true, 0};
  // One value type per kind, each in its own function's parameter list.
  auto roundTrip = [](const Type &T) {
    ir::Module M;
    M.Name = "type kinds";
    M.Funcs.push_back(build::function(
        {}, FunType::get({}, build::arrow({T}, {})), {}, {}));
    std::vector<uint8_t> Bytes = serial::write(M);
    auto R = serial::read(Bytes);
    ASSERT_TRUE(bool(R)) << R.error().message();
    EXPECT_EQ(serial::write(*R), Bytes);
    EXPECT_EQ(serial::moduleHash(*R), serial::moduleHash(M));
  };
  auto rewrites = [](const auto &O, const auto &S, const auto &C) {
    // A shift cannot reach closed fields: the node itself comes back.
    Shifter Sh(1, 1, 1, 1);
    EXPECT_EQ(Sh.rewrite(C).get(), C.get());
    // A shift reaches every open field, and leaves binders' variables.
    EXPECT_EQ(Sh.rewrite(O).get(), S.get());
  };
  for (unsigned KV = 0; KV < NumPretypeKinds; ++KV) {
    PretypeKind K = static_cast<PretypeKind>(KV);
    SCOPED_TRACE("pretype kind " + std::to_string(KV));
    PretypeRef P = Open.make(K);
    ASSERT_EQ(P->kind(), K);
    roundTrip(Type(P, Qual::lin()));
    rewrites(P, Shifted.make(K), Closed.make(K));
  }
  for (unsigned KV = 0; KV < NumHeapTypeKinds; ++KV) {
    HeapTypeKind K = static_cast<HeapTypeKind>(KV);
    SCOPED_TRACE("heap type kind " + std::to_string(KV));
    HeapTypeRef H = Open.make(K);
    ASSERT_EQ(H->kind(), K);
    roundTrip(Type(refPT(Privilege::RW, Loc::var(0), H), Qual::lin()));
    rewrites(H, Shifted.make(K), Closed.make(K));
  }
  SCOPED_TRACE("function type");
  roundTrip(Type(coderefPT(Open.fun()), Qual::unr()));
  rewrites(Open.fun(), Shifted.fun(), Closed.fun());
}

} // namespace
