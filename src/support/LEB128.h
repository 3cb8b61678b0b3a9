//===- support/LEB128.h - LEB128 encoding utilities -------------*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unsigned and signed LEB128 encoding/decoding, as used throughout the
/// WebAssembly binary format.
///
/// The decoders are strict: they accept only the canonical (minimal-length)
/// encoding our own encoders produce, reject zero-padded ULEB tails and
/// redundant SLEB sign-extension bytes as Overlong, cap the payload at a
/// caller-chosen bit width (u32 indices, s33 block types, s64 constants),
/// and on failure leave the cursor at the exact offending byte so decode
/// errors can cite a precise byte offset. This is deliberately tighter
/// than the Wasm spec (which tolerates non-minimal encodings up to the
/// ceil(N/7) byte ceiling): canonical-only input is what makes
/// encode(decode(B)) == B stability checkable, and hostile producers get
/// a structured rejection instead of silent bit truncation.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_SUPPORT_LEB128_H
#define RICHWASM_SUPPORT_LEB128_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rw {

/// Appends the ULEB128 encoding of \p Value to \p Out.
inline void encodeULEB128(uint64_t Value, std::vector<uint8_t> &Out) {
  do {
    uint8_t Byte = Value & 0x7f;
    Value >>= 7;
    if (Value != 0)
      Byte |= 0x80;
    Out.push_back(Byte);
  } while (Value != 0);
}

/// Appends the SLEB128 encoding of \p Value to \p Out.
inline void encodeSLEB128(int64_t Value, std::vector<uint8_t> &Out) {
  bool More = true;
  while (More) {
    uint8_t Byte = Value & 0x7f;
    Value >>= 7;
    bool SignBit = (Byte & 0x40) != 0;
    if ((Value == 0 && !SignBit) || (Value == -1 && SignBit))
      More = false;
    else
      Byte |= 0x80;
    Out.push_back(Byte);
  }
}

/// Why a strict decode rejected its input.
enum class LEBError : uint8_t {
  Ok,
  Truncated,  ///< Ran off the end of the buffer mid-value.
  Overlong,   ///< Non-minimal encoding (zero-pad / redundant sign byte).
  OutOfRange, ///< Payload bits beyond the requested MaxBits width.
};

inline const char *lebErrorName(LEBError E) {
  switch (E) {
  case LEBError::Ok:
    return "ok";
  case LEBError::Truncated:
    return "truncated";
  case LEBError::Overlong:
    return "overlong";
  case LEBError::OutOfRange:
    return "out of range";
  }
  return "?";
}

/// Strictly decodes a canonical ULEB128 value of at most \p MaxBits payload
/// bits from D[Pos..Sz). On Ok, \p Pos is advanced past the value and \p V
/// holds it. On failure, \p V is unspecified and \p Pos points at the
/// offending byte (== Sz for truncation).
inline LEBError decodeULEB128Strict(const uint8_t *D, size_t Sz, size_t &Pos,
                                    uint64_t &V, unsigned MaxBits = 64) {
  V = 0;
  unsigned Shift = 0;
  for (;;) {
    if (Pos >= Sz)
      return LEBError::Truncated;
    uint8_t Byte = D[Pos];
    if (Shift >= MaxBits)
      return LEBError::OutOfRange;
    uint64_t Payload = Byte & 0x7f;
    unsigned Remain = MaxBits - Shift;
    if (Remain < 7 && (Payload >> Remain) != 0)
      return LEBError::OutOfRange;
    V |= Payload << Shift;
    ++Pos;
    if (!(Byte & 0x80)) {
      // A terminal zero byte after at least one continuation byte encodes
      // no payload — the canonical form would have stopped earlier.
      if (Shift > 0 && Byte == 0) {
        --Pos;
        return LEBError::Overlong;
      }
      return LEBError::Ok;
    }
    Shift += 7;
  }
}

/// Strictly decodes a canonical SLEB128 value of at most \p MaxBits payload
/// bits (including the sign bit; 33 for Wasm block types, 64 for i64
/// constants). Same cursor contract as decodeULEB128Strict.
inline LEBError decodeSLEB128Strict(const uint8_t *D, size_t Sz, size_t &Pos,
                                    int64_t &V, unsigned MaxBits = 64) {
  uint64_t Result = 0;
  unsigned Shift = 0;
  uint8_t Byte = 0, Prev = 0;
  for (;;) {
    if (Pos >= Sz)
      return LEBError::Truncated;
    Prev = Byte;
    Byte = D[Pos];
    if (Shift >= MaxBits)
      return LEBError::OutOfRange;
    uint64_t Payload = Byte & 0x7f;
    unsigned Remain = MaxBits - Shift;
    if (Remain < 7) {
      // Bits past MaxBits must all equal the value's sign bit (bit
      // Remain-1 of this byte's payload): all-zero for non-negative,
      // all-one for negative.
      uint64_t Top = Payload >> (Remain - 1);
      uint64_t Mask = (uint64_t(1) << (7 - Remain + 1)) - 1;
      if (Top != 0 && Top != Mask)
        return LEBError::OutOfRange;
    }
    Result |= Payload << Shift;
    ++Pos;
    if (!(Byte & 0x80)) {
      // Canonical SLEB: a terminal 0x00 is redundant unless the previous
      // byte's bit 6 would otherwise sign-extend to negative; a terminal
      // 0x7f is redundant unless it flips the sign the other way.
      if (Shift > 0 && ((Byte == 0x00 && !(Prev & 0x40)) ||
                        (Byte == 0x7f && (Prev & 0x40)))) {
        --Pos;
        return LEBError::Overlong;
      }
      break;
    }
    Shift += 7;
  }
  // Sign-extend from the final byte's sign bit; Shift + 7 is the total
  // payload width consumed.
  unsigned Total = Shift + 7;
  if (Total < 64 && (Byte & 0x40))
    Result |= ~uint64_t(0) << Total;
  V = static_cast<int64_t>(Result);
  return LEBError::Ok;
}

} // namespace rw

#endif // RICHWASM_SUPPORT_LEB128_H
