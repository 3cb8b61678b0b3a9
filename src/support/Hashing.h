//===- support/Hashing.h - Shared hash mixing primitives --------*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mixing primitives shared by the link-time export index, the
/// serialization layer, the admission cache, and the ingestion front
/// door. One definition, so the cache's program key can never silently
/// diverge from the per-module hashes it folds.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_SUPPORT_HASHING_H
#define RICHWASM_SUPPORT_HASHING_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace rw::support {

/// murmur3's 64-bit finalizer: full avalanche, so inputs whose entropy
/// sits in a few bits still spread over the low bits a power-of-two
/// table masks with.
inline uint64_t mix64(uint64_t X) {
  X ^= X >> 33;
  X *= 0xff51afd7ed558ccdull;
  X ^= X >> 33;
  X *= 0xc4ceb9fe1a85ec53ull;
  X ^= X >> 33;
  return X;
}

/// FNV-1a over a byte range (the serial payload checksum; not a MAC).
inline uint64_t fnv1a(const uint8_t *D, size_t N,
                      uint64_t H = 0xcbf29ce484222325ull) {
  for (size_t I = 0; I < N; ++I)
    H = (H ^ D[I]) * 0x100000001b3ull;
  return H;
}

/// A 128-bit hash: two 64-bit words. Also the admission cache's key type
/// (serial::ModuleHash).
struct Hash128 {
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  bool operator==(const Hash128 &O) const { return Hi == O.Hi && Lo == O.Lo; }
  bool operator!=(const Hash128 &O) const { return !(*this == O); }
};

/// 128-bit hash of a byte range in one word-at-a-time pass (the ingestion
/// front door keys its admission cache on it). Two lanes absorb every
/// 8-byte word, each with an xxh64-style round under its own constants;
/// a round is a bijection of the word for a fixed lane state, so a
/// one-word change always moves both lanes. The zero-padded tail word and
/// the length are absorbed last, then both lanes avalanche through mix64
/// with a cross-lane fold. \p Seed separates hash domains. Not a MAC:
/// unseeded, each lane can be steered to any value by one chosen word, so
/// keys over hostile input need a secret seed (see ingest's byte key).
inline Hash128 hashBytes128(const uint8_t *D, size_t N, uint64_t Seed = 0) {
  constexpr uint64_t P1 = 0x9e3779b185ebca87ull, P2 = 0xc2b2ae3d27d4eb4full;
  constexpr uint64_t P3 = 0x165667b19e3779f9ull, P4 = 0x85ebca77c2b2ae63ull;
  uint64_t A = Seed ^ P3, B = ~Seed ^ P4;
  auto Absorb = [&](uint64_t W) {
    A = std::rotl(A + W * P2, 31) * P1;
    B = std::rotl(B ^ (W * P4), 27) * P3;
  };
  size_t I = 0;
  for (; I + 8 <= N; I += 8) {
    uint64_t W = 0;
    std::memcpy(&W, D + I, 8);
    Absorb(W);
  }
  uint64_t Tail = 0;
  if (I < N)
    std::memcpy(&Tail, D + I, N - I);
  Absorb(Tail);
  Absorb(static_cast<uint64_t>(N));
  return {mix64(A ^ std::rotl(B, 32)), mix64(B + A)};
}

} // namespace rw::support

#endif // RICHWASM_SUPPORT_HASHING_H
