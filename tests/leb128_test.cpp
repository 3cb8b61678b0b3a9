//===- tests/leb128_test.cpp - Strict LEB128 decoder contract -------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Pins the hardened decoder contract of support/LEB128.h (PR 8): canonical
// encodings round-trip, overlong and out-of-range encodings are rejected
// with the precise offending offset, and truncation is distinguished from
// malformation. The old decoders accepted zero-padded ULEBs and silently
// dropped bits past 64 — both now structured rejections.
//
//===----------------------------------------------------------------------===//

#include "support/LEB128.h"

#include <gtest/gtest.h>

#include <limits>

using namespace rw;

namespace {

std::vector<uint8_t> encU(uint64_t V) {
  std::vector<uint8_t> B;
  encodeULEB128(V, B);
  return B;
}

std::vector<uint8_t> encS(int64_t V) {
  std::vector<uint8_t> B;
  encodeSLEB128(V, B);
  return B;
}

TEST(LEB128, UnsignedRoundTripCanonical) {
  for (uint64_t V : {uint64_t(0), uint64_t(1), uint64_t(127), uint64_t(128),
                     uint64_t(300), uint64_t(16383), uint64_t(16384),
                     uint64_t(0xffffffffull), uint64_t(1) << 56,
                     std::numeric_limits<uint64_t>::max()}) {
    std::vector<uint8_t> B = encU(V);
    size_t Pos = 0;
    uint64_t Out = 0;
    EXPECT_EQ(decodeULEB128Strict(B.data(), B.size(), Pos, Out), LEBError::Ok)
        << V;
    EXPECT_EQ(Out, V);
    EXPECT_EQ(Pos, B.size());
  }
}

TEST(LEB128, SignedRoundTripCanonical) {
  for (int64_t V : {int64_t(0), int64_t(1), int64_t(-1), int64_t(63),
                    int64_t(64), int64_t(-64), int64_t(-65), int64_t(127),
                    int64_t(-128), int64_t(8191), int64_t(-8192),
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    std::vector<uint8_t> B = encS(V);
    size_t Pos = 0;
    int64_t Out = 0;
    EXPECT_EQ(decodeSLEB128Strict(B.data(), B.size(), Pos, Out), LEBError::Ok)
        << V;
    EXPECT_EQ(Out, V);
    EXPECT_EQ(Pos, B.size());
  }
}

TEST(LEB128, RejectsOverlongUnsigned) {
  // 0 encoded in two bytes (zero-padded tail).
  std::vector<uint8_t> B = {0x80, 0x00};
  size_t Pos = 0;
  uint64_t V;
  EXPECT_EQ(decodeULEB128Strict(B.data(), B.size(), Pos, V),
            LEBError::Overlong);
  EXPECT_EQ(Pos, 1u) << "cursor points at the offending terminal byte";

  // 1 encoded in three bytes.
  B = {0x81, 0x80, 0x00};
  Pos = 0;
  EXPECT_EQ(decodeULEB128Strict(B.data(), B.size(), Pos, V),
            LEBError::Overlong);
  EXPECT_EQ(Pos, 2u);
}

TEST(LEB128, RejectsOverlongSignedSignExtension) {
  // -64 is one byte (0x40); [0xc0, 0x7f] is the redundant two-byte form.
  std::vector<uint8_t> B = {0xc0, 0x7f};
  size_t Pos = 0;
  int64_t V;
  EXPECT_EQ(decodeSLEB128Strict(B.data(), B.size(), Pos, V),
            LEBError::Overlong);
  EXPECT_EQ(Pos, 1u);

  // 63 is one byte (0x3f); [0xbf, 0x00] zero-pads it.
  B = {0xbf, 0x00};
  Pos = 0;
  EXPECT_EQ(decodeSLEB128Strict(B.data(), B.size(), Pos, V),
            LEBError::Overlong);
  EXPECT_EQ(Pos, 1u);
}

TEST(LEB128, AcceptsCanonicalMultibyteSigned) {
  // -128 and 127 genuinely need their second byte — not overlong.
  for (int64_t V : {int64_t(-128), int64_t(127)}) {
    std::vector<uint8_t> B = encS(V);
    ASSERT_EQ(B.size(), 2u);
    size_t Pos = 0;
    int64_t Out;
    EXPECT_EQ(decodeSLEB128Strict(B.data(), B.size(), Pos, Out),
              LEBError::Ok);
    EXPECT_EQ(Out, V);
  }
}

TEST(LEB128, RejectsTruncationAtEveryPrefix) {
  std::vector<uint8_t> B = encU(uint64_t(1) << 56);
  ASSERT_GT(B.size(), 2u);
  for (size_t Len = 0; Len < B.size(); ++Len) {
    size_t Pos = 0;
    uint64_t V;
    EXPECT_EQ(decodeULEB128Strict(B.data(), Len, Pos, V),
              LEBError::Truncated);
    EXPECT_EQ(Pos, Len) << "cursor at end of available input";
  }
}

TEST(LEB128, MaxBitsCapsUnsigned) {
  // 2^32 does not fit in 32 bits.
  std::vector<uint8_t> B = encU(uint64_t(1) << 32);
  size_t Pos = 0;
  uint64_t V;
  EXPECT_EQ(decodeULEB128Strict(B.data(), B.size(), Pos, V, 32),
            LEBError::OutOfRange);

  // 2^32 - 1 is exactly the 32-bit ceiling.
  B = encU(0xffffffffull);
  Pos = 0;
  EXPECT_EQ(decodeULEB128Strict(B.data(), B.size(), Pos, V, 32),
            LEBError::Ok);
  EXPECT_EQ(V, 0xffffffffull);

  // An 11th continuation byte overruns even 64 bits.
  B.assign(11, 0x80);
  B.push_back(0x00);
  Pos = 0;
  EXPECT_EQ(decodeULEB128Strict(B.data(), B.size(), Pos, V),
            LEBError::OutOfRange);
}

TEST(LEB128, MaxBitsCapsSigned) {
  // Wasm's s33 block types: type indices fit, huge values do not.
  int64_t V;
  std::vector<uint8_t> B = encS((int64_t(1) << 32) - 1);
  size_t Pos = 0;
  EXPECT_EQ(decodeSLEB128Strict(B.data(), B.size(), Pos, V, 33),
            LEBError::Ok);
  EXPECT_EQ(V, (int64_t(1) << 32) - 1);

  B = encS(int64_t(1) << 32);
  Pos = 0;
  EXPECT_EQ(decodeSLEB128Strict(B.data(), B.size(), Pos, V, 33),
            LEBError::OutOfRange);

  B = encS(-(int64_t(1) << 32));
  Pos = 0;
  EXPECT_EQ(decodeSLEB128Strict(B.data(), B.size(), Pos, V, 33),
            LEBError::Ok)
      << "-2^32 is representable in 33 bits";

  B = encS(-(int64_t(1) << 32) - 1);
  Pos = 0;
  EXPECT_EQ(decodeSLEB128Strict(B.data(), B.size(), Pos, V, 33),
            LEBError::OutOfRange);
}

TEST(LEB128, ExhaustiveTwoByteAgreement) {
  // Every 2-byte string either decodes canonically (and re-encodes to the
  // same bytes) or is rejected — and rejection reasons are stable.
  for (unsigned B0 = 0; B0 < 256; ++B0) {
    for (unsigned B1 = 0; B1 < 256; ++B1) {
      std::vector<uint8_t> B = {uint8_t(B0), uint8_t(B1)};
      size_t Pos = 0;
      uint64_t U;
      if (decodeULEB128Strict(B.data(), B.size(), Pos, U) == LEBError::Ok)
        EXPECT_EQ(std::vector<uint8_t>(B.begin(), B.begin() + Pos), encU(U));
      Pos = 0;
      int64_t S;
      if (decodeSLEB128Strict(B.data(), B.size(), Pos, S) == LEBError::Ok)
        EXPECT_EQ(std::vector<uint8_t>(B.begin(), B.begin() + Pos), encS(S));
    }
  }
}

} // namespace
