//===- wasm/Interp.h - Tree-walking Wasm engine -----------------*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tree-walking WebAssembly engine (EngineKind::Tree): a direct
/// interpreter over the structured WInst AST. It implements the shared
/// embedder surface in wasm/Instance.h — host functions satisfy imports,
/// and the host can read/write the instance's flat memory, which is how
/// the RichWasm runtime's host-assisted garbage collector works
/// (DESIGN.md §3). The interpreter counts executed instructions, which
/// the C1 capability-erasure benchmark uses to show that capability
/// bookkeeping compiles to *zero* instructions.
///
/// This engine is the semantic reference; the flat-bytecode engine in
/// exec/Engine.h is differentially tested against it (DESIGN.md §5).
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_WASM_INTERP_H
#define RICHWASM_WASM_INTERP_H

#include "support/Error.h"
#include "wasm/Instance.h"
#include "wasm/WasmAst.h"

#include <optional>

namespace rw::wasm {

/// An instantiated Wasm module executed by walking the instruction tree.
class WasmInstance : public Instance {
public:
  explicit WasmInstance(const WModule &M) : Instance(M) {}

  Expected<std::vector<WValue>>
  invoke(uint32_t FuncIdx, std::vector<WValue> Args,
         uint64_t MaxFuel = 1'000'000'000) override;

  EngineKind engine() const override { return EngineKind::Tree; }

protected:
  /// The reference engine runs on a plain zeroed memory: it commits all
  /// of it up front (memoryGrow keeps it whole), so its bounds checks and
  /// memory.size read Mem.size() and the differential suites test the
  /// lazily committing engines against it.
  Status prepare() override {
    commitMemory(MemBytes);
    return Status::success();
  }

private:
  enum class Exec : uint8_t { Normal, Branch, Ret, Trap };

  struct Frame {
    std::vector<WValue> Locals;
    uint32_t FuncIdx = 0; ///< Function-space index, for profile bumps.
  };

  Exec execSeq(const std::vector<WInst> &Body, Frame &F, uint32_t &BrDepth);
  Exec execInst(const WInst &I, Frame &F, uint32_t &BrDepth);
  Exec execNumeric(const WInst &I);
  Exec execMemory(const WInst &I);
  /// callFunctionImpl plus trap attribution: the innermost function that
  /// originated a trap claims it (TrapFunc is set once, on the way out).
  Exec callFunction(uint32_t FuncIdx);
  Exec callFunctionImpl(uint32_t FuncIdx);
  Exec trap(const char *Msg) {
    TrapMsg = Msg;
    return Exec::Trap;
  }

  std::vector<WValue> Stack;
  uint64_t Fuel = 0;
  std::string TrapMsg;
  std::optional<uint32_t> TrapFunc;
  unsigned CallDepth = 0;
};

} // namespace rw::wasm

#endif // RICHWASM_WASM_INTERP_H
