//===- ir/Num.h - Numeric pretypes and operators ----------------*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Numeric pretypes (`np ::= ui32 | ui64 | i32 | i64 | f32 | f64`) and the
/// operator alphabets of Fig 2. Signedness of division, remainder, shifts,
/// and comparisons is determined by the numeric type itself (ui32/ui64 vs
/// i32/i64), which is why the operator enums carry no `sx` suffix.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_IR_NUM_H
#define RICHWASM_IR_NUM_H

#include <cstdint>

namespace rw::ir {

/// The six numeric pretypes.
enum class NumType : uint8_t { I32, U32, I64, U64, F32, F64 };

inline bool isIntType(NumType T) {
  return T == NumType::I32 || T == NumType::U32 || T == NumType::I64 ||
         T == NumType::U64;
}
inline bool isSignedType(NumType T) {
  return T == NumType::I32 || T == NumType::I64;
}
/// The signed type of an unsigned one's width; other types themselves.
constexpr NumType signedType(NumType T) {
  return T == NumType::U32   ? NumType::I32
         : T == NumType::U64 ? NumType::I64
                             : T;
}
/// Bit width of the representation (32 or 64).
inline uint64_t numTypeBits(NumType T) {
  switch (T) {
  case NumType::I32:
  case NumType::U32:
  case NumType::F32:
    return 32;
  case NumType::I64:
  case NumType::U64:
  case NumType::F64:
    return 64;
  }
  return 0;
}

inline const char *numTypeName(NumType T) {
  switch (T) {
  case NumType::I32:
    return "i32";
  case NumType::U32:
    return "ui32";
  case NumType::I64:
    return "i64";
  case NumType::U64:
    return "ui64";
  case NumType::F32:
    return "f32";
  case NumType::F64:
    return "f64";
  }
  return "?";
}

/// Unary operators: integer ones first, float ones after.
enum class UnopKind : uint8_t {
  // Integer.
  Clz,
  Ctz,
  Popcnt,
  // Float.
  Abs,
  Neg,
  Sqrt,
  Ceil,
  Floor,
  Trunc,
  Nearest,
};

/// Binary operators: those of every type, the integer-only ones, then the
/// float-only ones. Div/Rem/Shr use the signedness of the operand type.
enum class BinopKind : uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  Rotl,
  Rotr,
  Min,
  Max,
  Copysign,
};

/// Whether the operator exists at the numeric type: Clz/Ctz/Popcnt at
/// integer types and the other unops at float types; Add/Sub/Mul/Div at
/// every type, Rem through Rotr at integer types and Min/Max/Copysign at
/// float types.
inline bool unopAt(UnopKind K, NumType T) {
  return isIntType(T) == (K <= UnopKind::Popcnt);
}
inline bool binopAt(BinopKind K, NumType T) {
  return K <= BinopKind::Div || isIntType(T) == (K <= BinopKind::Rotr);
}

/// Test operators (integer only): produce an i32 boolean.
enum class TestopKind : uint8_t { Eqz };

/// Comparison operators; Lt/Gt/Le/Ge use the type's signedness on integers.
enum class RelopKind : uint8_t { Eq, Ne, Lt, Gt, Le, Ge };

/// Conversion operators between numeric types.
enum class CvtopKind : uint8_t {
  /// Value-preserving conversion (wrap/extend/truncate/convert per the
  /// source and destination types, as in Wasm's `cvtop`).
  Convert,
  /// Bit-pattern reinterpretation between same-width int and float.
  Reinterpret,
};

/// A conversion between two types of one class and width (i32 and ui32,
/// say) changes no bits: it has no Wasm instruction.
inline bool isIdentityCvt(NumType From, NumType To) {
  return isIntType(From) == isIntType(To) &&
         numTypeBits(From) == numTypeBits(To);
}

const char *unopName(UnopKind K);
const char *binopName(BinopKind K);
const char *relopName(RelopKind K);

} // namespace rw::ir

#endif // RICHWASM_IR_NUM_H
