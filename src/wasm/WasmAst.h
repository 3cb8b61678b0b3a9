//===- wasm/WasmAst.h - WebAssembly 1.0 (+multi-value) AST ------*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The WebAssembly substrate RichWasm compiles to (§6): an AST for Wasm 1.0
/// with the multi-value extension, shared by the validator, interpreter,
/// binary encoder/decoder, and text printer. Opcode enumerators carry their
/// binary encodings so the codec is table-free.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_WASM_WASMAST_H
#define RICHWASM_WASM_WASMAST_H

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
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

/// Opcodes, valued as their binary encodings (Wasm 1.0 MVP).
enum class Op : uint8_t {
  Unreachable = 0x00,
  Nop = 0x01,
  Block = 0x02,
  Loop = 0x03,
  If = 0x04,
  Br = 0x0c,
  BrIf = 0x0d,
  BrTable = 0x0e,
  Return = 0x0f,
  Call = 0x10,
  CallIndirect = 0x11,
  Drop = 0x1a,
  Select = 0x1b,
  LocalGet = 0x20,
  LocalSet = 0x21,
  LocalTee = 0x22,
  GlobalGet = 0x23,
  GlobalSet = 0x24,
  I32Load = 0x28,
  I64Load = 0x29,
  F32Load = 0x2a,
  F64Load = 0x2b,
  I32Load8S = 0x2c,
  I32Load8U = 0x2d,
  I32Load16S = 0x2e,
  I32Load16U = 0x2f,
  I64Load8S = 0x30,
  I64Load8U = 0x31,
  I64Load16S = 0x32,
  I64Load16U = 0x33,
  I64Load32S = 0x34,
  I64Load32U = 0x35,
  I32Store = 0x36,
  I64Store = 0x37,
  F32Store = 0x38,
  F64Store = 0x39,
  I32Store8 = 0x3a,
  I32Store16 = 0x3b,
  I64Store8 = 0x3c,
  I64Store16 = 0x3d,
  I64Store32 = 0x3e,
  MemorySize = 0x3f,
  MemoryGrow = 0x40,
  I32Const = 0x41,
  I64Const = 0x42,
  F32Const = 0x43,
  F64Const = 0x44,
  I32Eqz = 0x45,
  I32Eq = 0x46,
  I32Ne = 0x47,
  I32LtS = 0x48,
  I32LtU = 0x49,
  I32GtS = 0x4a,
  I32GtU = 0x4b,
  I32LeS = 0x4c,
  I32LeU = 0x4d,
  I32GeS = 0x4e,
  I32GeU = 0x4f,
  I64Eqz = 0x50,
  I64Eq = 0x51,
  I64Ne = 0x52,
  I64LtS = 0x53,
  I64LtU = 0x54,
  I64GtS = 0x55,
  I64GtU = 0x56,
  I64LeS = 0x57,
  I64LeU = 0x58,
  I64GeS = 0x59,
  I64GeU = 0x5a,
  F32Eq = 0x5b,
  F32Ne = 0x5c,
  F32Lt = 0x5d,
  F32Gt = 0x5e,
  F32Le = 0x5f,
  F32Ge = 0x60,
  F64Eq = 0x61,
  F64Ne = 0x62,
  F64Lt = 0x63,
  F64Gt = 0x64,
  F64Le = 0x65,
  F64Ge = 0x66,
  I32Clz = 0x67,
  I32Ctz = 0x68,
  I32Popcnt = 0x69,
  I32Add = 0x6a,
  I32Sub = 0x6b,
  I32Mul = 0x6c,
  I32DivS = 0x6d,
  I32DivU = 0x6e,
  I32RemS = 0x6f,
  I32RemU = 0x70,
  I32And = 0x71,
  I32Or = 0x72,
  I32Xor = 0x73,
  I32Shl = 0x74,
  I32ShrS = 0x75,
  I32ShrU = 0x76,
  I32Rotl = 0x77,
  I32Rotr = 0x78,
  I64Clz = 0x79,
  I64Ctz = 0x7a,
  I64Popcnt = 0x7b,
  I64Add = 0x7c,
  I64Sub = 0x7d,
  I64Mul = 0x7e,
  I64DivS = 0x7f,
  I64DivU = 0x80,
  I64RemS = 0x81,
  I64RemU = 0x82,
  I64And = 0x83,
  I64Or = 0x84,
  I64Xor = 0x85,
  I64Shl = 0x86,
  I64ShrS = 0x87,
  I64ShrU = 0x88,
  I64Rotl = 0x89,
  I64Rotr = 0x8a,
  F32Abs = 0x8b,
  F32Neg = 0x8c,
  F32Ceil = 0x8d,
  F32Floor = 0x8e,
  F32Trunc = 0x8f,
  F32Nearest = 0x90,
  F32Sqrt = 0x91,
  F32Add = 0x92,
  F32Sub = 0x93,
  F32Mul = 0x94,
  F32Div = 0x95,
  F32Min = 0x96,
  F32Max = 0x97,
  F32Copysign = 0x98,
  F64Abs = 0x99,
  F64Neg = 0x9a,
  F64Ceil = 0x9b,
  F64Floor = 0x9c,
  F64Trunc = 0x9d,
  F64Nearest = 0x9e,
  F64Sqrt = 0x9f,
  F64Add = 0xa0,
  F64Sub = 0xa1,
  F64Mul = 0xa2,
  F64Div = 0xa3,
  F64Min = 0xa4,
  F64Max = 0xa5,
  F64Copysign = 0xa6,
  I32WrapI64 = 0xa7,
  I32TruncF32S = 0xa8,
  I32TruncF32U = 0xa9,
  I32TruncF64S = 0xaa,
  I32TruncF64U = 0xab,
  I64ExtendI32S = 0xac,
  I64ExtendI32U = 0xad,
  I64TruncF32S = 0xae,
  I64TruncF32U = 0xaf,
  I64TruncF64S = 0xb0,
  I64TruncF64U = 0xb1,
  F32ConvertI32S = 0xb2,
  F32ConvertI32U = 0xb3,
  F32ConvertI64S = 0xb4,
  F32ConvertI64U = 0xb5,
  F32DemoteF64 = 0xb6,
  F64ConvertI32S = 0xb7,
  F64ConvertI32U = 0xb8,
  F64ConvertI64S = 0xb9,
  F64ConvertI64U = 0xba,
  F64PromoteF32 = 0xbb,
  I32ReinterpretF32 = 0xbc,
  I64ReinterpretF64 = 0xbd,
  F32ReinterpretI32 = 0xbe,
  F64ReinterpretI64 = 0xbf,
};

/// One instruction. Structured instructions (block/loop/if) carry nested
/// bodies; the codec linearizes them with end/else markers.
struct WInst {
  Op K = Op::Nop;
  uint32_t U32 = 0;    ///< Index immediate (local/global/func/type/label).
  uint64_t U64 = 0;    ///< Constant bits.
  uint32_t Align = 0;  ///< Memarg alignment exponent.
  uint32_t Offset = 0; ///< Memarg offset.
  FuncType BT;         ///< Block type (multi-value allowed).
  std::vector<uint32_t> Table; ///< br_table targets.
  std::vector<WInst> Body, Else;

  WInst() = default;
  explicit WInst(Op K) : K(K) {}
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
    W.Align = Align;
    W.Offset = Offset;
    return W;
  }
  static WInst block(FuncType BT, std::vector<WInst> Body) {
    WInst W(Op::Block);
    W.BT = std::move(BT);
    W.Body = std::move(Body);
    return W;
  }
  static WInst loop(FuncType BT, std::vector<WInst> Body) {
    WInst W(Op::Loop);
    W.BT = std::move(BT);
    W.Body = std::move(Body);
    return W;
  }
  static WInst ifElse(FuncType BT, std::vector<WInst> Then,
                      std::vector<WInst> Else) {
    WInst W(Op::If);
    W.BT = std::move(BT);
    W.Body = std::move(Then);
    W.Else = std::move(Else);
    return W;
  }
  static WInst brTable(std::vector<uint32_t> Targets, uint32_t Default) {
    WInst W(Op::BrTable);
    W.Table = std::move(Targets);
    W.U32 = Default;
    return W;
  }
};

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
  /// The environment the body is proven valid in (wasm::proveShared): it
  /// touches only its locals, globals [0, NumGlobals) — all mutable i32 —
  /// and the memory, and calls nothing.
  uint32_t NumGlobals = 0;
  /// Set by wasm::proveShared: the deepest per-block operand stack the
  /// validator saw, or nullopt while unproven.
  std::optional<uint32_t> ProvenDepth;
  /// Set by exec::pretranslateShared: the unprofiled flat code of the body
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
