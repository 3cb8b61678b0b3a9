//===- support/NumericOps.h - Shared numeric evaluation ---------*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bit-exact evaluation of the numeric operators, spelled in RichWasm's
/// own vocabulary (ir/Num.h): the operator kind plus the numeric type that
/// carries width and signedness. The RichWasm small-step machine and the
/// flat Wasm tier evaluate every numeric instruction through evalUnop,
/// evalBinop, evalTestop, evalRelop and evalCvt; the tree interpreter
/// decodes opcodes itself and calls the per-class helpers. All integer
/// values travel as zero-extended uint64_t bit patterns; floats as their
/// IEEE-754 bit patterns. Operations that can trap (division by zero,
/// overflowing float-to-int truncation) return std::nullopt.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_SUPPORT_NUMERICOPS_H
#define RICHWASM_SUPPORT_NUMERICOPS_H

#include "ir/Num.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>

namespace rw::num {

using ir::BinopKind;
using ir::CvtopKind;
using ir::NumType;
using ir::RelopKind;
using ir::TestopKind;
using ir::UnopKind;

//===----------------------------------------------------------------------===//
// Bit-pattern plumbing
//===----------------------------------------------------------------------===//

inline uint64_t wrap(uint64_t Bits, bool Is64) {
  return Is64 ? Bits : (Bits & 0xffffffffull);
}

inline float bitsToF32(uint64_t Bits) {
  return std::bit_cast<float>(static_cast<uint32_t>(Bits));
}
inline double bitsToF64(uint64_t Bits) { return std::bit_cast<double>(Bits); }
inline uint64_t f32ToBits(float F) { return std::bit_cast<uint32_t>(F); }
inline uint64_t f64ToBits(double D) { return std::bit_cast<uint64_t>(D); }

inline int64_t toSigned(uint64_t Bits, bool Is64) {
  if (Is64)
    return static_cast<int64_t>(Bits);
  return static_cast<int64_t>(static_cast<int32_t>(Bits));
}

//===----------------------------------------------------------------------===//
// Integer operations
//===----------------------------------------------------------------------===//

inline uint64_t intClz(uint64_t V, bool Is64) {
  if (Is64)
    return V == 0 ? 64 : static_cast<uint64_t>(std::countl_zero(V));
  uint32_t X = static_cast<uint32_t>(V);
  return X == 0 ? 32 : static_cast<uint64_t>(std::countl_zero(X));
}

inline uint64_t intCtz(uint64_t V, bool Is64) {
  if (Is64)
    return V == 0 ? 64 : static_cast<uint64_t>(std::countr_zero(V));
  uint32_t X = static_cast<uint32_t>(V);
  return X == 0 ? 32 : static_cast<uint64_t>(std::countr_zero(X));
}

inline uint64_t intPopcnt(uint64_t V, bool Is64) {
  return static_cast<uint64_t>(std::popcount(wrap(V, Is64)));
}

/// Integer add/sub/mul/bitwise/shift/rotate; Div/Rem take signedness and
/// may trap. The float-only operators have no integer meaning (nullopt).
inline std::optional<uint64_t> evalIntBinop(BinopKind Op, uint64_t A,
                                            uint64_t B, bool Is64,
                                            bool Signed) {
  const uint64_t Width = Is64 ? 64 : 32;
  A = wrap(A, Is64);
  B = wrap(B, Is64);
  switch (Op) {
  case BinopKind::Add:
    return wrap(A + B, Is64);
  case BinopKind::Sub:
    return wrap(A - B, Is64);
  case BinopKind::Mul:
    return wrap(A * B, Is64);
  case BinopKind::Div: {
    if (B == 0)
      return std::nullopt;
    if (!Signed)
      return wrap(A / B, Is64);
    int64_t SA = toSigned(A, Is64), SB = toSigned(B, Is64);
    // INT_MIN / -1 overflows and traps, per the Wasm spec.
    int64_t Min = Is64 ? std::numeric_limits<int64_t>::min()
                       : static_cast<int64_t>(std::numeric_limits<int32_t>::min());
    if (SA == Min && SB == -1)
      return std::nullopt;
    return wrap(static_cast<uint64_t>(SA / SB), Is64);
  }
  case BinopKind::Rem: {
    if (B == 0)
      return std::nullopt;
    if (!Signed)
      return wrap(A % B, Is64);
    int64_t SA = toSigned(A, Is64), SB = toSigned(B, Is64);
    if (SB == -1)
      return 0; // INT_MIN % -1 == 0 without trapping.
    return wrap(static_cast<uint64_t>(SA % SB), Is64);
  }
  case BinopKind::And:
    return A & B;
  case BinopKind::Or:
    return A | B;
  case BinopKind::Xor:
    return A ^ B;
  case BinopKind::Shl:
    return wrap(A << (B % Width), Is64);
  case BinopKind::Shr: {
    uint64_t Sh = B % Width;
    if (!Signed)
      return wrap(A >> Sh, Is64);
    return wrap(static_cast<uint64_t>(toSigned(A, Is64) >> Sh), Is64);
  }
  case BinopKind::Rotl: {
    uint64_t Sh = B % Width;
    if (Sh == 0)
      return A;
    return wrap((A << Sh) | (A >> (Width - Sh)), Is64);
  }
  case BinopKind::Rotr: {
    uint64_t Sh = B % Width;
    if (Sh == 0)
      return A;
    return wrap((A >> Sh) | (A << (Width - Sh)), Is64);
  }
  case BinopKind::Min:
  case BinopKind::Max:
  case BinopKind::Copysign:
    break;
  }
  return std::nullopt;
}

template <typename T> bool evalRelopT(RelopKind Op, T A, T B) {
  switch (Op) {
  case RelopKind::Eq:
    return A == B;
  case RelopKind::Ne:
    return A != B;
  case RelopKind::Lt:
    return A < B;
  case RelopKind::Gt:
    return A > B;
  case RelopKind::Le:
    return A <= B;
  case RelopKind::Ge:
    return A >= B;
  }
  return false;
}

inline uint64_t evalIntRelop(RelopKind Op, uint64_t A, uint64_t B, bool Is64,
                             bool Signed) {
  A = wrap(A, Is64);
  B = wrap(B, Is64);
  bool R = Signed ? evalRelopT(Op, toSigned(A, Is64), toSigned(B, Is64))
                  : evalRelopT(Op, A, B);
  return R ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// Float operations
//===----------------------------------------------------------------------===//

/// The float unary operators; the integer ones leave \p A as it is.
template <typename F> F evalFloatUnopT(UnopKind Op, F A) {
  switch (Op) {
  case UnopKind::Abs:
    return std::fabs(A);
  case UnopKind::Neg:
    return -A;
  case UnopKind::Sqrt:
    return std::sqrt(A);
  case UnopKind::Ceil:
    return std::ceil(A);
  case UnopKind::Floor:
    return std::floor(A);
  case UnopKind::Trunc:
    return std::trunc(A);
  case UnopKind::Nearest:
    return std::nearbyint(A);
  case UnopKind::Clz:
  case UnopKind::Ctz:
  case UnopKind::Popcnt:
    break;
  }
  return A;
}

inline uint64_t evalFloatUnop(UnopKind Op, uint64_t Bits, bool Is64) {
  if (Is64)
    return f64ToBits(evalFloatUnopT(Op, bitsToF64(Bits)));
  return f32ToBits(evalFloatUnopT(Op, bitsToF32(Bits)));
}

/// The float binary operators; the integer-only ones return \p A.
template <typename F> F evalFloatBinopT(BinopKind Op, F A, F B) {
  switch (Op) {
  case BinopKind::Add:
    return A + B;
  case BinopKind::Sub:
    return A - B;
  case BinopKind::Mul:
    return A * B;
  case BinopKind::Div:
    return A / B;
  case BinopKind::Min:
    if (std::isnan(A) || std::isnan(B))
      return std::numeric_limits<F>::quiet_NaN();
    if (A == 0 && B == 0)
      return std::signbit(A) ? A : B;
    return A < B ? A : B;
  case BinopKind::Max:
    if (std::isnan(A) || std::isnan(B))
      return std::numeric_limits<F>::quiet_NaN();
    if (A == 0 && B == 0)
      return std::signbit(A) ? B : A;
    return A > B ? A : B;
  case BinopKind::Copysign:
    return std::copysign(A, B);
  default:
    return A;
  }
}

inline uint64_t evalFloatBinop(BinopKind Op, uint64_t ABits, uint64_t BBits,
                               bool Is64) {
  if (Is64)
    return f64ToBits(evalFloatBinopT(Op, bitsToF64(ABits), bitsToF64(BBits)));
  return f32ToBits(evalFloatBinopT(Op, bitsToF32(ABits), bitsToF32(BBits)));
}

inline uint64_t evalFloatRelop(RelopKind Op, uint64_t A, uint64_t B,
                               bool Is64) {
  bool R = Is64 ? evalRelopT(Op, bitsToF64(A), bitsToF64(B))
                : evalRelopT(Op, bitsToF32(A), bitsToF32(B));
  return R ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// Conversions
//===----------------------------------------------------------------------===//

/// Truncating float-to-int conversion with Wasm trap semantics.
template <typename F>
std::optional<uint64_t> truncToInt(F Val, bool DstIs64, bool DstSigned) {
  if (std::isnan(Val))
    return std::nullopt;
  F T = std::trunc(Val);
  if (DstSigned) {
    if (DstIs64) {
      if (T < -static_cast<F>(9223372036854775808.0) ||
          T >= static_cast<F>(9223372036854775808.0))
        return std::nullopt;
      return static_cast<uint64_t>(static_cast<int64_t>(T));
    }
    if (T < -static_cast<F>(2147483648.0) || T >= static_cast<F>(2147483648.0))
      return std::nullopt;
    return static_cast<uint64_t>(
        static_cast<uint32_t>(static_cast<int32_t>(T)));
  }
  if (DstIs64) {
    if (T <= -1 || T >= static_cast<F>(18446744073709551616.0))
      return std::nullopt;
    return static_cast<uint64_t>(T);
  }
  if (T <= -1 || T >= static_cast<F>(4294967296.0))
    return std::nullopt;
  return static_cast<uint64_t>(static_cast<uint32_t>(T));
}

/// An integer converted to float type \p F in one rounding step: the
/// integer is read at its own width and signedness, never through a wider
/// float (i64 → f64 → f32 would round twice).
template <typename F> F intToFloat(uint64_t Bits, bool Is64, bool Signed) {
  if (Signed)
    return static_cast<F>(toSigned(Bits, Is64));
  return static_cast<F>(wrap(Bits, Is64));
}

/// cvtop \p K from \p From to \p To, as Wasm's wrap, extend, trunc,
/// convert, demote, promote and reinterpret instructions compute it. A
/// conversion within one class and width is the identity. Returns
/// std::nullopt where a float-to-int truncation traps.
inline std::optional<uint64_t> evalCvt(CvtopKind K, NumType From, NumType To,
                                       uint64_t Bits) {
  const bool Src64 = numTypeBits(From) == 64, Dst64 = numTypeBits(To) == 64;
  if (K == CvtopKind::Reinterpret)
    return Bits; // Slots hold untyped bit patterns.
  if (isIntType(From) && isIntType(To)) {
    if (Dst64 && !Src64)
      return isSignedType(From)
                 ? static_cast<uint64_t>(toSigned(Bits, false))
                 : wrap(Bits, false);
    return wrap(Bits, Dst64);
  }
  if (isIntType(From))
    return Dst64 ? f64ToBits(intToFloat<double>(Bits, Src64,
                                                isSignedType(From)))
                 : f32ToBits(intToFloat<float>(Bits, Src64,
                                               isSignedType(From)));
  if (isIntType(To))
    return Src64 ? truncToInt(bitsToF64(Bits), Dst64, isSignedType(To))
                 : truncToInt(bitsToF32(Bits), Dst64, isSignedType(To));
  if (Src64 == Dst64)
    return Bits;
  return Dst64 ? f64ToBits(static_cast<double>(bitsToF32(Bits)))
               : f32ToBits(static_cast<float>(bitsToF64(Bits)));
}

//===----------------------------------------------------------------------===//
// RichWasm operations at a numeric type
//===----------------------------------------------------------------------===//

/// unop \p K at type \p T (ir::unopAt(K, T) holds).
inline uint64_t evalUnop(UnopKind K, NumType T, uint64_t A) {
  const bool Is64 = numTypeBits(T) == 64;
  switch (K) {
  case UnopKind::Clz:
    return intClz(A, Is64);
  case UnopKind::Ctz:
    return intCtz(A, Is64);
  case UnopKind::Popcnt:
    return intPopcnt(A, Is64);
  default:
    return evalFloatUnop(K, A, Is64);
  }
}

/// binop \p K at type \p T (ir::binopAt(K, T) holds); std::nullopt where
/// an integer division traps.
inline std::optional<uint64_t> evalBinop(BinopKind K, NumType T, uint64_t A,
                                         uint64_t B) {
  const bool Is64 = numTypeBits(T) == 64;
  if (isIntType(T))
    return evalIntBinop(K, A, B, Is64, isSignedType(T));
  return evalFloatBinop(K, A, B, Is64);
}

/// testop \p K at integer type \p T: an i32 boolean.
inline uint64_t evalTestop(TestopKind, NumType T, uint64_t A) {
  return wrap(A, numTypeBits(T) == 64) == 0 ? 1 : 0;
}

/// relop \p K at type \p T: an i32 boolean.
inline uint64_t evalRelop(RelopKind K, NumType T, uint64_t A, uint64_t B) {
  const bool Is64 = numTypeBits(T) == 64;
  if (isIntType(T))
    return evalIntRelop(K, A, B, Is64, isSignedType(T));
  return evalFloatRelop(K, A, B, Is64);
}

} // namespace rw::num

#endif // RICHWASM_SUPPORT_NUMERICOPS_H
