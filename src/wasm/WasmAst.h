//===- wasm/WasmAst.h - WebAssembly 1.0 (+multi-value) AST ------*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The WebAssembly substrate RichWasm compiles to (§6): an AST for Wasm 1.0
/// with the multi-value extension, shared by the validator, interpreter,
/// binary encoder/decoder, and the flat translator. Opcodes and their
/// shapes come from one row list, RW_WASM_OPS.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_WASM_WASMAST_H
#define RICHWASM_WASM_WASMAST_H

#include "ir/Num.h"

#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace rw::wasm {

enum class ValType : uint8_t { I32 = 0x7f, I64 = 0x7e, F32 = 0x7d, F64 = 0x7c };

inline const char *valTypeName(ValType T) {
  switch (T) {
  case ValType::I32:
    return "i32";
  case ValType::I64:
    return "i64";
  case ValType::F32:
    return "f32";
  case ValType::F64:
    return "f64";
  }
  return "?";
}

struct FuncType {
  std::vector<ValType> Params, Results;
  bool operator==(const FuncType &O) const {
    return Params == O.Params && Results == O.Results;
  }
};

/// How an instruction's immediate follows its opcode byte.
enum class ImmKind : uint8_t {
  None,
  Index,        ///< One u32: local, global, function or label index.
  Memarg,       ///< Alignment exponent, then static offset.
  Const32,      ///< 32 constant bits (i32: signed LEB, f32: raw).
  Const64,      ///< 64 constant bits (i64: signed LEB, f64: raw).
  Structured,   ///< Block type and nested bodies (block, loop, if).
  BrTable,      ///< Label vector, then the default label.
  CallIndirect, ///< Type index, then table index 0.
  MemIdx,       ///< Memory index 0 (memory.size, memory.grow).
};

/// The Wasm 1.0 opcodes, one row each: the one place an instruction's
/// encoding, stack effect and numeric meaning are written down. The codec,
/// the validator, the tree interpreter, the flat translator and the native
/// tier all read these rows (through opInfo) instead of testing opcode
/// ranges.
///
///   X(Name, Byte, Imm, Pops, Pushes, In0, In1, Out, Num)
///
/// Pops/Pushes count operand-stack slots; Dyn marks a count that depends
/// on a block type, a function type, a label or a local. In0/In1 are the
/// operand types (deepest first) and Out the result type where the opcode
/// fixes them, NoT where it does not or has no such slot.
///
/// Num is the RichWasm operation (ir/Num.h) a numeric row implements:
/// Un, Bin, Test or Rel with the operator kind and its operand type, or
/// Cvt with the conversion kind, From and To. The type carries width and
/// signedness, so i32.div_u is Bin(Div, U32). A sign-agnostic operator is
/// listed under the signed type and serves the unsigned one too: i32.add
/// is Bin(Add, I32), i64.extend_i32_u is Cvt(Convert, U32, I64). Lowering
/// picks opcodes from these rows (numericOp), and sem::Machine and the
/// flat tier evaluate them with support/NumericOps.h. Rows that are not
/// numeric have No.
#define RW_WASM_OPS(X)                                                         \
  X(Unreachable,       0x00, None,         0,   0,   NoT, NoT, NoT, No)                         \
  X(Nop,               0x01, None,         0,   0,   NoT, NoT, NoT, No)                         \
  X(Block,             0x02, Structured,   Dyn, Dyn, NoT, NoT, NoT, No)                         \
  X(Loop,              0x03, Structured,   Dyn, Dyn, NoT, NoT, NoT, No)                         \
  X(If,                0x04, Structured,   Dyn, Dyn, NoT, NoT, NoT, No)                         \
  X(Br,                0x0c, Index,        Dyn, Dyn, NoT, NoT, NoT, No)                         \
  X(BrIf,              0x0d, Index,        Dyn, Dyn, NoT, NoT, NoT, No)                         \
  X(BrTable,           0x0e, BrTable,      Dyn, Dyn, NoT, NoT, NoT, No)                         \
  X(Return,            0x0f, None,         Dyn, Dyn, NoT, NoT, NoT, No)                         \
  X(Call,              0x10, Index,        Dyn, Dyn, NoT, NoT, NoT, No)                         \
  X(CallIndirect,      0x11, CallIndirect, Dyn, Dyn, NoT, NoT, NoT, No)                         \
  X(Drop,              0x1a, None,         1,   0,   NoT, NoT, NoT, No)                         \
  X(Select,            0x1b, None,         3,   1,   NoT, NoT, NoT, No)                         \
  X(LocalGet,          0x20, Index,        0,   1,   NoT, NoT, NoT, No)                         \
  X(LocalSet,          0x21, Index,        1,   0,   NoT, NoT, NoT, No)                         \
  X(LocalTee,          0x22, Index,        1,   1,   NoT, NoT, NoT, No)                         \
  X(GlobalGet,         0x23, Index,        0,   1,   NoT, NoT, NoT, No)                         \
  X(GlobalSet,         0x24, Index,        1,   0,   NoT, NoT, NoT, No)                         \
  X(I32Load,           0x28, Memarg,       1,   1,   I32, NoT, I32, No)                         \
  X(I64Load,           0x29, Memarg,       1,   1,   I32, NoT, I64, No)                         \
  X(F32Load,           0x2a, Memarg,       1,   1,   I32, NoT, F32, No)                         \
  X(F64Load,           0x2b, Memarg,       1,   1,   I32, NoT, F64, No)                         \
  X(I32Load8S,         0x2c, Memarg,       1,   1,   I32, NoT, I32, No)                         \
  X(I32Load8U,         0x2d, Memarg,       1,   1,   I32, NoT, I32, No)                         \
  X(I32Load16S,        0x2e, Memarg,       1,   1,   I32, NoT, I32, No)                         \
  X(I32Load16U,        0x2f, Memarg,       1,   1,   I32, NoT, I32, No)                         \
  X(I64Load8S,         0x30, Memarg,       1,   1,   I32, NoT, I64, No)                         \
  X(I64Load8U,         0x31, Memarg,       1,   1,   I32, NoT, I64, No)                         \
  X(I64Load16S,        0x32, Memarg,       1,   1,   I32, NoT, I64, No)                         \
  X(I64Load16U,        0x33, Memarg,       1,   1,   I32, NoT, I64, No)                         \
  X(I64Load32S,        0x34, Memarg,       1,   1,   I32, NoT, I64, No)                         \
  X(I64Load32U,        0x35, Memarg,       1,   1,   I32, NoT, I64, No)                         \
  X(I32Store,          0x36, Memarg,       2,   0,   I32, I32, NoT, No)                         \
  X(I64Store,          0x37, Memarg,       2,   0,   I32, I64, NoT, No)                         \
  X(F32Store,          0x38, Memarg,       2,   0,   I32, F32, NoT, No)                         \
  X(F64Store,          0x39, Memarg,       2,   0,   I32, F64, NoT, No)                         \
  X(I32Store8,         0x3a, Memarg,       2,   0,   I32, I32, NoT, No)                         \
  X(I32Store16,        0x3b, Memarg,       2,   0,   I32, I32, NoT, No)                         \
  X(I64Store8,         0x3c, Memarg,       2,   0,   I32, I64, NoT, No)                         \
  X(I64Store16,        0x3d, Memarg,       2,   0,   I32, I64, NoT, No)                         \
  X(I64Store32,        0x3e, Memarg,       2,   0,   I32, I64, NoT, No)                         \
  X(MemorySize,        0x3f, MemIdx,       0,   1,   NoT, NoT, I32, No)                         \
  X(MemoryGrow,        0x40, MemIdx,       1,   1,   I32, NoT, I32, No)                         \
  X(I32Const,          0x41, Const32,      0,   1,   NoT, NoT, I32, No)                         \
  X(I64Const,          0x42, Const64,      0,   1,   NoT, NoT, I64, No)                         \
  X(F32Const,          0x43, Const32,      0,   1,   NoT, NoT, F32, No)                         \
  X(F64Const,          0x44, Const64,      0,   1,   NoT, NoT, F64, No)                         \
  X(I32Eqz,            0x45, None,         1,   1,   I32, NoT, I32, Test(Eqz, I32))             \
  X(I32Eq,             0x46, None,         2,   1,   I32, I32, I32, Rel(Eq, I32))               \
  X(I32Ne,             0x47, None,         2,   1,   I32, I32, I32, Rel(Ne, I32))               \
  X(I32LtS,            0x48, None,         2,   1,   I32, I32, I32, Rel(Lt, I32))               \
  X(I32LtU,            0x49, None,         2,   1,   I32, I32, I32, Rel(Lt, U32))               \
  X(I32GtS,            0x4a, None,         2,   1,   I32, I32, I32, Rel(Gt, I32))               \
  X(I32GtU,            0x4b, None,         2,   1,   I32, I32, I32, Rel(Gt, U32))               \
  X(I32LeS,            0x4c, None,         2,   1,   I32, I32, I32, Rel(Le, I32))               \
  X(I32LeU,            0x4d, None,         2,   1,   I32, I32, I32, Rel(Le, U32))               \
  X(I32GeS,            0x4e, None,         2,   1,   I32, I32, I32, Rel(Ge, I32))               \
  X(I32GeU,            0x4f, None,         2,   1,   I32, I32, I32, Rel(Ge, U32))               \
  X(I64Eqz,            0x50, None,         1,   1,   I64, NoT, I32, Test(Eqz, I64))             \
  X(I64Eq,             0x51, None,         2,   1,   I64, I64, I32, Rel(Eq, I64))               \
  X(I64Ne,             0x52, None,         2,   1,   I64, I64, I32, Rel(Ne, I64))               \
  X(I64LtS,            0x53, None,         2,   1,   I64, I64, I32, Rel(Lt, I64))               \
  X(I64LtU,            0x54, None,         2,   1,   I64, I64, I32, Rel(Lt, U64))               \
  X(I64GtS,            0x55, None,         2,   1,   I64, I64, I32, Rel(Gt, I64))               \
  X(I64GtU,            0x56, None,         2,   1,   I64, I64, I32, Rel(Gt, U64))               \
  X(I64LeS,            0x57, None,         2,   1,   I64, I64, I32, Rel(Le, I64))               \
  X(I64LeU,            0x58, None,         2,   1,   I64, I64, I32, Rel(Le, U64))               \
  X(I64GeS,            0x59, None,         2,   1,   I64, I64, I32, Rel(Ge, I64))               \
  X(I64GeU,            0x5a, None,         2,   1,   I64, I64, I32, Rel(Ge, U64))               \
  X(F32Eq,             0x5b, None,         2,   1,   F32, F32, I32, Rel(Eq, F32))               \
  X(F32Ne,             0x5c, None,         2,   1,   F32, F32, I32, Rel(Ne, F32))               \
  X(F32Lt,             0x5d, None,         2,   1,   F32, F32, I32, Rel(Lt, F32))               \
  X(F32Gt,             0x5e, None,         2,   1,   F32, F32, I32, Rel(Gt, F32))               \
  X(F32Le,             0x5f, None,         2,   1,   F32, F32, I32, Rel(Le, F32))               \
  X(F32Ge,             0x60, None,         2,   1,   F32, F32, I32, Rel(Ge, F32))               \
  X(F64Eq,             0x61, None,         2,   1,   F64, F64, I32, Rel(Eq, F64))               \
  X(F64Ne,             0x62, None,         2,   1,   F64, F64, I32, Rel(Ne, F64))               \
  X(F64Lt,             0x63, None,         2,   1,   F64, F64, I32, Rel(Lt, F64))               \
  X(F64Gt,             0x64, None,         2,   1,   F64, F64, I32, Rel(Gt, F64))               \
  X(F64Le,             0x65, None,         2,   1,   F64, F64, I32, Rel(Le, F64))               \
  X(F64Ge,             0x66, None,         2,   1,   F64, F64, I32, Rel(Ge, F64))               \
  X(I32Clz,            0x67, None,         1,   1,   I32, NoT, I32, Un(Clz, I32))               \
  X(I32Ctz,            0x68, None,         1,   1,   I32, NoT, I32, Un(Ctz, I32))               \
  X(I32Popcnt,         0x69, None,         1,   1,   I32, NoT, I32, Un(Popcnt, I32))            \
  X(I32Add,            0x6a, None,         2,   1,   I32, I32, I32, Bin(Add, I32))              \
  X(I32Sub,            0x6b, None,         2,   1,   I32, I32, I32, Bin(Sub, I32))              \
  X(I32Mul,            0x6c, None,         2,   1,   I32, I32, I32, Bin(Mul, I32))              \
  X(I32DivS,           0x6d, None,         2,   1,   I32, I32, I32, Bin(Div, I32))              \
  X(I32DivU,           0x6e, None,         2,   1,   I32, I32, I32, Bin(Div, U32))              \
  X(I32RemS,           0x6f, None,         2,   1,   I32, I32, I32, Bin(Rem, I32))              \
  X(I32RemU,           0x70, None,         2,   1,   I32, I32, I32, Bin(Rem, U32))              \
  X(I32And,            0x71, None,         2,   1,   I32, I32, I32, Bin(And, I32))              \
  X(I32Or,             0x72, None,         2,   1,   I32, I32, I32, Bin(Or, I32))               \
  X(I32Xor,            0x73, None,         2,   1,   I32, I32, I32, Bin(Xor, I32))              \
  X(I32Shl,            0x74, None,         2,   1,   I32, I32, I32, Bin(Shl, I32))              \
  X(I32ShrS,           0x75, None,         2,   1,   I32, I32, I32, Bin(Shr, I32))              \
  X(I32ShrU,           0x76, None,         2,   1,   I32, I32, I32, Bin(Shr, U32))              \
  X(I32Rotl,           0x77, None,         2,   1,   I32, I32, I32, Bin(Rotl, I32))             \
  X(I32Rotr,           0x78, None,         2,   1,   I32, I32, I32, Bin(Rotr, I32))             \
  X(I64Clz,            0x79, None,         1,   1,   I64, NoT, I64, Un(Clz, I64))               \
  X(I64Ctz,            0x7a, None,         1,   1,   I64, NoT, I64, Un(Ctz, I64))               \
  X(I64Popcnt,         0x7b, None,         1,   1,   I64, NoT, I64, Un(Popcnt, I64))            \
  X(I64Add,            0x7c, None,         2,   1,   I64, I64, I64, Bin(Add, I64))              \
  X(I64Sub,            0x7d, None,         2,   1,   I64, I64, I64, Bin(Sub, I64))              \
  X(I64Mul,            0x7e, None,         2,   1,   I64, I64, I64, Bin(Mul, I64))              \
  X(I64DivS,           0x7f, None,         2,   1,   I64, I64, I64, Bin(Div, I64))              \
  X(I64DivU,           0x80, None,         2,   1,   I64, I64, I64, Bin(Div, U64))              \
  X(I64RemS,           0x81, None,         2,   1,   I64, I64, I64, Bin(Rem, I64))              \
  X(I64RemU,           0x82, None,         2,   1,   I64, I64, I64, Bin(Rem, U64))              \
  X(I64And,            0x83, None,         2,   1,   I64, I64, I64, Bin(And, I64))              \
  X(I64Or,             0x84, None,         2,   1,   I64, I64, I64, Bin(Or, I64))               \
  X(I64Xor,            0x85, None,         2,   1,   I64, I64, I64, Bin(Xor, I64))              \
  X(I64Shl,            0x86, None,         2,   1,   I64, I64, I64, Bin(Shl, I64))              \
  X(I64ShrS,           0x87, None,         2,   1,   I64, I64, I64, Bin(Shr, I64))              \
  X(I64ShrU,           0x88, None,         2,   1,   I64, I64, I64, Bin(Shr, U64))              \
  X(I64Rotl,           0x89, None,         2,   1,   I64, I64, I64, Bin(Rotl, I64))             \
  X(I64Rotr,           0x8a, None,         2,   1,   I64, I64, I64, Bin(Rotr, I64))             \
  X(F32Abs,            0x8b, None,         1,   1,   F32, NoT, F32, Un(Abs, F32))               \
  X(F32Neg,            0x8c, None,         1,   1,   F32, NoT, F32, Un(Neg, F32))               \
  X(F32Ceil,           0x8d, None,         1,   1,   F32, NoT, F32, Un(Ceil, F32))              \
  X(F32Floor,          0x8e, None,         1,   1,   F32, NoT, F32, Un(Floor, F32))             \
  X(F32Trunc,          0x8f, None,         1,   1,   F32, NoT, F32, Un(Trunc, F32))             \
  X(F32Nearest,        0x90, None,         1,   1,   F32, NoT, F32, Un(Nearest, F32))           \
  X(F32Sqrt,           0x91, None,         1,   1,   F32, NoT, F32, Un(Sqrt, F32))              \
  X(F32Add,            0x92, None,         2,   1,   F32, F32, F32, Bin(Add, F32))              \
  X(F32Sub,            0x93, None,         2,   1,   F32, F32, F32, Bin(Sub, F32))              \
  X(F32Mul,            0x94, None,         2,   1,   F32, F32, F32, Bin(Mul, F32))              \
  X(F32Div,            0x95, None,         2,   1,   F32, F32, F32, Bin(Div, F32))              \
  X(F32Min,            0x96, None,         2,   1,   F32, F32, F32, Bin(Min, F32))              \
  X(F32Max,            0x97, None,         2,   1,   F32, F32, F32, Bin(Max, F32))              \
  X(F32Copysign,       0x98, None,         2,   1,   F32, F32, F32, Bin(Copysign, F32))         \
  X(F64Abs,            0x99, None,         1,   1,   F64, NoT, F64, Un(Abs, F64))               \
  X(F64Neg,            0x9a, None,         1,   1,   F64, NoT, F64, Un(Neg, F64))               \
  X(F64Ceil,           0x9b, None,         1,   1,   F64, NoT, F64, Un(Ceil, F64))              \
  X(F64Floor,          0x9c, None,         1,   1,   F64, NoT, F64, Un(Floor, F64))             \
  X(F64Trunc,          0x9d, None,         1,   1,   F64, NoT, F64, Un(Trunc, F64))             \
  X(F64Nearest,        0x9e, None,         1,   1,   F64, NoT, F64, Un(Nearest, F64))           \
  X(F64Sqrt,           0x9f, None,         1,   1,   F64, NoT, F64, Un(Sqrt, F64))              \
  X(F64Add,            0xa0, None,         2,   1,   F64, F64, F64, Bin(Add, F64))              \
  X(F64Sub,            0xa1, None,         2,   1,   F64, F64, F64, Bin(Sub, F64))              \
  X(F64Mul,            0xa2, None,         2,   1,   F64, F64, F64, Bin(Mul, F64))              \
  X(F64Div,            0xa3, None,         2,   1,   F64, F64, F64, Bin(Div, F64))              \
  X(F64Min,            0xa4, None,         2,   1,   F64, F64, F64, Bin(Min, F64))              \
  X(F64Max,            0xa5, None,         2,   1,   F64, F64, F64, Bin(Max, F64))              \
  X(F64Copysign,       0xa6, None,         2,   1,   F64, F64, F64, Bin(Copysign, F64))         \
  X(I32WrapI64,        0xa7, None,         1,   1,   I64, NoT, I32, Cvt(Convert, I64, I32))     \
  X(I32TruncF32S,      0xa8, None,         1,   1,   F32, NoT, I32, Cvt(Convert, F32, I32))     \
  X(I32TruncF32U,      0xa9, None,         1,   1,   F32, NoT, I32, Cvt(Convert, F32, U32))     \
  X(I32TruncF64S,      0xaa, None,         1,   1,   F64, NoT, I32, Cvt(Convert, F64, I32))     \
  X(I32TruncF64U,      0xab, None,         1,   1,   F64, NoT, I32, Cvt(Convert, F64, U32))     \
  X(I64ExtendI32S,     0xac, None,         1,   1,   I32, NoT, I64, Cvt(Convert, I32, I64))     \
  X(I64ExtendI32U,     0xad, None,         1,   1,   I32, NoT, I64, Cvt(Convert, U32, I64))     \
  X(I64TruncF32S,      0xae, None,         1,   1,   F32, NoT, I64, Cvt(Convert, F32, I64))     \
  X(I64TruncF32U,      0xaf, None,         1,   1,   F32, NoT, I64, Cvt(Convert, F32, U64))     \
  X(I64TruncF64S,      0xb0, None,         1,   1,   F64, NoT, I64, Cvt(Convert, F64, I64))     \
  X(I64TruncF64U,      0xb1, None,         1,   1,   F64, NoT, I64, Cvt(Convert, F64, U64))     \
  X(F32ConvertI32S,    0xb2, None,         1,   1,   I32, NoT, F32, Cvt(Convert, I32, F32))     \
  X(F32ConvertI32U,    0xb3, None,         1,   1,   I32, NoT, F32, Cvt(Convert, U32, F32))     \
  X(F32ConvertI64S,    0xb4, None,         1,   1,   I64, NoT, F32, Cvt(Convert, I64, F32))     \
  X(F32ConvertI64U,    0xb5, None,         1,   1,   I64, NoT, F32, Cvt(Convert, U64, F32))     \
  X(F32DemoteF64,      0xb6, None,         1,   1,   F64, NoT, F32, Cvt(Convert, F64, F32))     \
  X(F64ConvertI32S,    0xb7, None,         1,   1,   I32, NoT, F64, Cvt(Convert, I32, F64))     \
  X(F64ConvertI32U,    0xb8, None,         1,   1,   I32, NoT, F64, Cvt(Convert, U32, F64))     \
  X(F64ConvertI64S,    0xb9, None,         1,   1,   I64, NoT, F64, Cvt(Convert, I64, F64))     \
  X(F64ConvertI64U,    0xba, None,         1,   1,   I64, NoT, F64, Cvt(Convert, U64, F64))     \
  X(F64PromoteF32,     0xbb, None,         1,   1,   F32, NoT, F64, Cvt(Convert, F32, F64))     \
  X(I32ReinterpretF32, 0xbc, None,         1,   1,   F32, NoT, I32, Cvt(Reinterpret, F32, I32)) \
  X(I64ReinterpretF64, 0xbd, None,         1,   1,   F64, NoT, I64, Cvt(Reinterpret, F64, I64)) \
  X(F32ReinterpretI32, 0xbe, None,         1,   1,   I32, NoT, F32, Cvt(Reinterpret, I32, F32)) \
  X(F64ReinterpretI64, 0xbf, None,         1,   1,   I64, NoT, F64, Cvt(Reinterpret, I64, F64))

/// Opcodes, valued as their binary encodings.
enum class Op : uint8_t {
#define RW_OP_ENUM(Name, Byte, ...) Name = Byte,
  RW_WASM_OPS(RW_OP_ENUM)
#undef RW_OP_ENUM
};

/// The RichWasm operator classes of Fig 2's numeric instructions.
enum class NumClass : uint8_t { None, Unop, Binop, Testop, Relop, Cvt };

/// A numeric row's Num column: the RichWasm operation it implements.
struct NumOp {
  NumClass Class = NumClass::None;
  uint8_t Kind = 0; ///< The class's ir:: operator kind.
  /// The operand type, and the result type of a conversion (From
  /// elsewhere: Testop and Relop produce an i32 boolean).
  ir::NumType From = ir::NumType::I32, To = ir::NumType::I32;

  static constexpr NumOp un(ir::UnopKind K, ir::NumType T) {
    return {NumClass::Unop, static_cast<uint8_t>(K), T, T};
  }
  static constexpr NumOp bin(ir::BinopKind K, ir::NumType T) {
    return {NumClass::Binop, static_cast<uint8_t>(K), T, T};
  }
  static constexpr NumOp test(ir::TestopKind K, ir::NumType T) {
    return {NumClass::Testop, static_cast<uint8_t>(K), T, T};
  }
  static constexpr NumOp rel(ir::RelopKind K, ir::NumType T) {
    return {NumClass::Relop, static_cast<uint8_t>(K), T, T};
  }
  static constexpr NumOp cvt(ir::CvtopKind K, ir::NumType From,
                             ir::NumType To) {
    return {NumClass::Cvt, static_cast<uint8_t>(K), From, To};
  }

  ir::UnopKind unop() const { return static_cast<ir::UnopKind>(Kind); }
  ir::BinopKind binop() const { return static_cast<ir::BinopKind>(Kind); }
  ir::TestopKind testop() const { return static_cast<ir::TestopKind>(Kind); }
  ir::RelopKind relop() const { return static_cast<ir::RelopKind>(Kind); }
  ir::CvtopKind cvtop() const { return static_cast<ir::CvtopKind>(Kind); }
};

/// One row of RW_WASM_OPS, looked up by opcode byte.
struct OpInfo {
  static constexpr uint8_t Dyn = 0xff;
  static constexpr ValType NoT = ValType{0};

  bool Valid = false; ///< The byte is an opcode (else and end are not).
  ImmKind Imm = ImmKind::None;
  uint8_t Pops = 0, Pushes = 0;
  ValType In[2] = {NoT, NoT};
  ValType Out = NoT;
  NumOp Num;

  /// The numeric instructions (0x45..0xbf): the rows with a Num.
  constexpr bool numeric() const { return Num.Class != NumClass::None; }
  /// Instructions that need the module to have a memory.
  constexpr bool usesMemory() const {
    return Imm == ImmKind::Memarg || Imm == ImmKind::MemIdx;
  }
};

namespace detail {
constexpr std::array<OpInfo, 256> buildOpTable() {
  constexpr uint8_t Dyn = OpInfo::Dyn;
  constexpr ValType I32 = ValType::I32, I64 = ValType::I64, F32 = ValType::F32,
                    F64 = ValType::F64, NoT = OpInfo::NoT;
  std::array<OpInfo, 256> T{};
#define RW_NUM_No NumOp{}
#define RW_NUM_Un(K, Ty) NumOp::un(ir::UnopKind::K, ir::NumType::Ty)
#define RW_NUM_Bin(K, Ty) NumOp::bin(ir::BinopKind::K, ir::NumType::Ty)
#define RW_NUM_Test(K, Ty) NumOp::test(ir::TestopKind::K, ir::NumType::Ty)
#define RW_NUM_Rel(K, Ty) NumOp::rel(ir::RelopKind::K, ir::NumType::Ty)
#define RW_NUM_Cvt(K, F, Ty)                                                   \
  NumOp::cvt(ir::CvtopKind::K, ir::NumType::F, ir::NumType::Ty)
#define RW_OP_ROW(Name, Byte, Im, Po, Pu, A, B, R, N)                          \
  T[Byte] = {true, ImmKind::Im, Po, Pu, {A, B}, R, RW_NUM_##N};
  RW_WASM_OPS(RW_OP_ROW)
#undef RW_OP_ROW
#undef RW_NUM_Cvt
#undef RW_NUM_Rel
#undef RW_NUM_Test
#undef RW_NUM_Bin
#undef RW_NUM_Un
#undef RW_NUM_No
  return T;
}
} // namespace detail

/// RW_WASM_OPS indexed by opcode byte; bytes without a row are !Valid.
inline constexpr std::array<OpInfo, 256> OpTable = detail::buildOpTable();

constexpr const OpInfo &opInfo(Op K) {
  return OpTable[static_cast<uint8_t>(K)];
}

/// The Wasm type representing numeric type \p T.
constexpr ValType valTypeOf(ir::NumType T) {
  switch (T) {
  case ir::NumType::I32:
  case ir::NumType::U32:
    return ValType::I32;
  case ir::NumType::I64:
  case ir::NumType::U64:
    return ValType::I64;
  case ir::NumType::F32:
    return ValType::F32;
  case ir::NumType::F64:
    return ValType::F64;
  }
  return OpInfo::NoT;
}

namespace detail {
constexpr unsigned numKey(NumClass C, uint8_t K, ir::NumType F,
                          ir::NumType T) {
  unsigned Op = static_cast<unsigned>(C) * 16 + K;
  return (Op * 6 + static_cast<unsigned>(F)) * 6 + static_cast<unsigned>(T);
}

/// Opcode bytes by numKey, 0 (unreachable, never numeric) where no row
/// has that meaning.
using NumIndex = std::array<uint8_t, 6 * 16 * 6 * 6>;

constexpr NumIndex buildOpByNum() {
  NumIndex Inv{};
  for (unsigned B = 0; B < OpTable.size(); ++B)
    if (const NumOp &N = OpTable[B].Num; N.Class != NumClass::None)
      Inv[numKey(N.Class, N.Kind, N.From, N.To)] = static_cast<uint8_t>(B);
  return Inv;
}

/// Each numeric row's shape is the one its meaning implies, and no two
/// rows mean the same operation.
constexpr bool numRowsAgree() {
  NumIndex Seen{};
  for (unsigned B = 0; B < OpTable.size(); ++B) {
    const OpInfo &R = OpTable[B];
    const NumOp &N = R.Num;
    if (N.Class == NumClass::None)
      continue;
    const ValType In = valTypeOf(N.From);
    const bool Two = N.Class == NumClass::Binop || N.Class == NumClass::Relop;
    ValType Out = In;
    if (N.Class == NumClass::Testop || N.Class == NumClass::Relop)
      Out = ValType::I32;
    if (N.Class == NumClass::Cvt)
      Out = valTypeOf(N.To);
    else if (N.To != N.From)
      return false;
    if (R.Imm != ImmKind::None || R.Pops != (Two ? 2 : 1) || R.Pushes != 1 ||
        R.In[0] != In || R.In[1] != (Two ? In : OpInfo::NoT) || R.Out != Out)
      return false;
    if (Seen[numKey(N.Class, N.Kind, N.From, N.To)]++)
      return false;
  }
  return true;
}
static_assert(numRowsAgree(), "a numeric row's Num disagrees with its shape");
} // namespace detail

/// RichWasm operation → opcode: the inverse of the rows' Num column.
inline constexpr detail::NumIndex OpByNum = detail::buildOpByNum();

/// The opcode implementing \p N, or nullopt where Wasm has none: an
/// operator at a type it does not exist at, a reinterpret across widths,
/// or an identity conversion (ir::isIdentityCvt), which lowers to nothing.
/// A sign-agnostic operator has only its signed row, so an unsigned type
/// with no row of its own takes the signed one: the result's first, then
/// the operand's (ui64 → ui32 is i32.wrap_i64, ui32 → ui64 is
/// i64.extend_i32_u).
inline std::optional<Op> numericOp(NumOp N) {
  const ir::NumType Fs = ir::signedType(N.From), Ts = ir::signedType(N.To);
  const std::pair<ir::NumType, ir::NumType> Tries[] = {
      {N.From, N.To}, {N.From, Ts}, {Fs, N.To}, {Fs, Ts}};
  for (auto [F, T] : Tries)
    if (uint8_t B = OpByNum[detail::numKey(N.Class, N.Kind, F, T)])
      return static_cast<Op>(B);
  return std::nullopt;
}

struct WInst;

/// The out-of-line part of a structured or br_table instruction.
struct WNest {
  FuncType BT;                 ///< Block type (multi-value allowed).
  std::vector<uint32_t> Table; ///< br_table targets.
  std::vector<WInst> Insts;    ///< The body, or an if's then arm.
};

/// A nested instruction sequence as WInst stores it: an owning pointer to
/// an out-of-line record R that holds the sequence (R is a WNest, or the
/// sequence itself), null until first written. Reads see one
/// `const std::vector<WInst> &`, empty while nothing is allocated; copies
/// are deep.
template <class R> class WNested {
public:
  WNested() = default;
  WNested(const WNested &O) : P(O.P ? std::make_unique<R>(*O.P) : nullptr) {}
  WNested(WNested &&) noexcept = default;
  WNested &operator=(const WNested &O) {
    P = O.P ? std::make_unique<R>(*O.P) : nullptr;
    return *this;
  }
  WNested &operator=(WNested &&) noexcept = default;

  const std::vector<WInst> &insts() const;
  operator const std::vector<WInst> &() const { return insts(); }
  bool empty() const { return insts().empty(); }

  /// The record, or null while nothing is allocated.
  const R *get() const { return P.get(); }
  /// The record, allocated on first use.
  R &rec() {
    if (!P)
      P = std::make_unique<R>();
    return *P;
  }
  /// The sequence, for writing.
  std::vector<WInst> &mut() { return seq(rec()); }

private:
  template <class T> static auto &seq(T &Rec) {
    if constexpr (std::is_same_v<std::remove_const_t<T>, WNest>)
      return Rec.Insts;
    else
      return Rec;
  }

  std::unique_ptr<R> P;
};

/// One instruction: 32 bytes, with its opcode and immediates inline. What
/// only structured (block/loop/if) and br_table instructions need, the
/// block type, the br_table targets and the nested bodies, lives out of
/// line in a WNest that Body owns, and an if's else arm in a vector that
/// Else owns, so every other instruction allocates nothing. The codec
/// linearizes nested bodies with end/else markers.
struct WInst {
  Op K = Op::Nop;
  /// Index immediate (local/global/func/type/label), br_table default
  /// label, or memarg alignment exponent.
  uint32_t U32 = 0;
  uint64_t U64 = 0; ///< Constant bits, or memarg offset.
  /// Block type and body (then arm) of a structured instruction, targets
  /// of a br_table.
  WNested<WNest> Body;
  WNested<std::vector<WInst>> Else; ///< An if's else arm.

  WInst() = default;
  explicit WInst(Op K) : K(K) {}

  uint32_t align() const { return U32; }
  uint32_t offset() const { return static_cast<uint32_t>(U64); }
  const FuncType &bt() const;
  const std::vector<uint32_t> &table() const;

  static WInst mk(Op K) { return WInst(K); }
  static WInst idx(Op K, uint32_t I) {
    WInst W(K);
    W.U32 = I;
    return W;
  }
  static WInst i32c(int32_t V) {
    WInst W(Op::I32Const);
    W.U64 = static_cast<uint32_t>(V);
    return W;
  }
  static WInst i64c(int64_t V) {
    WInst W(Op::I64Const);
    W.U64 = static_cast<uint64_t>(V);
    return W;
  }
  static WInst mem(Op K, uint32_t Align, uint32_t Offset) {
    WInst W(K);
    W.U32 = Align;
    W.U64 = Offset;
    return W;
  }
  /// A block, loop or if with block type \p BT and the given body (then
  /// arm); more can be appended through Body.mut().
  static WInst structured(Op K, FuncType BT, std::vector<WInst> Body = {});
  static WInst block(FuncType BT, std::vector<WInst> Body) {
    return structured(Op::Block, std::move(BT), std::move(Body));
  }
  static WInst loop(FuncType BT, std::vector<WInst> Body) {
    return structured(Op::Loop, std::move(BT), std::move(Body));
  }
  static WInst ifElse(FuncType BT, std::vector<WInst> Then,
                      std::vector<WInst> Else) {
    WInst W = structured(Op::If, std::move(BT), std::move(Then));
    if (!Else.empty())
      W.Else.mut() = std::move(Else);
    return W;
  }
  static WInst brTable(std::vector<uint32_t> Targets, uint32_t Default);
};

static_assert(sizeof(WInst) <= 48, "WInst keeps its bulky parts out of line");

namespace detail {
inline const std::vector<WInst> NoInsts;
inline const FuncType NoBlockType;
inline const std::vector<uint32_t> NoTargets;
} // namespace detail

template <class R>
inline const std::vector<WInst> &WNested<R>::insts() const {
  return P ? seq(*P) : detail::NoInsts;
}

inline const FuncType &WInst::bt() const {
  return Body.get() ? Body.get()->BT : detail::NoBlockType;
}
inline const std::vector<uint32_t> &WInst::table() const {
  return Body.get() ? Body.get()->Table : detail::NoTargets;
}
inline WInst WInst::structured(Op K, FuncType BT, std::vector<WInst> Body) {
  WInst W(K);
  WNest &N = W.Body.rec();
  N.BT = std::move(BT);
  N.Insts = std::move(Body);
  return W;
}
inline WInst WInst::brTable(std::vector<uint32_t> Targets, uint32_t Default) {
  WInst W(Op::BrTable);
  W.Body.rec().Table = std::move(Targets);
  W.U32 = Default;
  return W;
}

enum class ExportKind : uint8_t { Func = 0, Table = 1, Memory = 2, Global = 3 };

struct WImportFunc {
  std::string Mod, Name;
  uint32_t TypeIdx = 0;
};

/// Function code built once per process and shared, immutable, by every
/// module that splices it in (the lowering runtime prelude,
/// lower/Runtime.h). Besides the code it records what validating and
/// translating it once established, so wasm::validate and exec::translate
/// reuse that work instead of redoing it per module.
struct SharedFunc {
  FuncType Type;
  std::vector<ValType> Locals; ///< Beyond the parameters.
  std::vector<WInst> Body;
  /// The environment the body is proven valid in (exec::proveShared): it
  /// touches only its locals, globals [0, NumGlobals) — all mutable i32 —
  /// and the memory, and calls nothing.
  uint32_t NumGlobals = 0;
  /// Set by exec::proveShared: the deepest per-block operand stack the
  /// validator saw, or nullopt while unproven.
  std::optional<uint32_t> ProvenDepth;
  /// Set by exec::proveShared too: the unprofiled flat code of the body
  /// and its operand-stack bound (exec::FlatFunc's Code and MaxDepth).
  /// Empty while untranslated; a translation always ends in a return.
  std::vector<uint32_t> FlatCode;
  uint32_t FlatMaxDepth = 0;
};

/// A function body: owned instructions, or a reference to a SharedFunc's
/// body (which must outlive every module that references it). Reads see
/// one `const std::vector<WInst> &` either way; writes go through mut(),
/// which first gives a shared body its own copy.
class WBody {
public:
  WBody() = default;
  WBody(std::vector<WInst> Insts) : Own(std::move(Insts)) {}
  WBody(std::initializer_list<WInst> Insts) : Own(Insts) {}
  explicit WBody(const SharedFunc &S) : Shared(&S) {}

  operator const std::vector<WInst> &() const { return insts(); }
  /// The shared code this body references, or null for an owned body.
  const SharedFunc *shared() const { return Shared; }
  std::vector<WInst> &mut() {
    if (Shared) {
      Own = Shared->Body;
      Shared = nullptr;
    }
    return Own;
  }

  std::vector<WInst>::const_iterator begin() const { return insts().begin(); }
  std::vector<WInst>::const_iterator end() const { return insts().end(); }

private:
  const std::vector<WInst> &insts() const {
    return Shared ? Shared->Body : Own;
  }

  std::vector<WInst> Own;
  const SharedFunc *Shared = nullptr;
};

struct WFunc {
  uint32_t TypeIdx = 0;
  std::vector<ValType> Locals; ///< Beyond the parameters.
  WBody Body;
};

struct WGlobal {
  ValType T = ValType::I32;
  bool Mut = false;
  std::vector<WInst> Init;
};

struct WExport {
  std::string Name;
  ExportKind Kind = ExportKind::Func;
  uint32_t Idx = 0;
};

struct WData {
  uint32_t Offset = 0;
  std::vector<uint8_t> Bytes;
};

/// A Wasm module. Function index space = imports then defined functions.
struct WModule {
  std::vector<FuncType> Types;
  std::vector<WImportFunc> ImportFuncs;
  std::vector<WFunc> Funcs;
  /// Memory limits in 64KiB pages (min, optional max); nullopt = no memory.
  std::optional<std::pair<uint32_t, std::optional<uint32_t>>> Memory;
  /// Function table (funcref), elements at offset 0.
  std::vector<uint32_t> TableElems;
  std::vector<WGlobal> Globals;
  std::vector<WExport> Exports;
  std::vector<WData> Data;
  std::optional<uint32_t> Start;

  uint32_t addType(FuncType FT) {
    for (uint32_t I = 0; I < Types.size(); ++I)
      if (Types[I] == FT)
        return I;
    Types.push_back(std::move(FT));
    return static_cast<uint32_t>(Types.size() - 1);
  }
  uint32_t numFuncs() const {
    return static_cast<uint32_t>(ImportFuncs.size() + Funcs.size());
  }
  /// The type of function index I (import space first).
  const FuncType &funcType(uint32_t I) const {
    if (I < ImportFuncs.size())
      return Types[ImportFuncs[I].TypeIdx];
    return Types[Funcs[I - ImportFuncs.size()].TypeIdx];
  }
};

} // namespace rw::wasm

#endif // RICHWASM_WASM_WASMAST_H
