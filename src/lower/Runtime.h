//===- lower/Runtime.h - Emitted allocator + host-assisted GC ---*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime substrate §6 requires: a first-fit free-list allocator over
/// the single flat Wasm memory, present *as Wasm functions* in every
/// lowered module, and a precise mark-sweep collector for the unrestricted
/// portion of the heap, run by the host embedder (DESIGN.md §3 records the
/// substitution for the paper's in-runtime GC). The allocator's two
/// functions are the runtime prelude: built once per process and shared
/// by reference between all lowered modules (DESIGN.md §4).
///
/// Heap object layout (all offsets in bytes):
///
///   block:   [ size:u32 ][ flags:u32 ][ ptrmap:u32 ][ payload ... ]
///   free:    [ size:u32 ][ 0         ][ next:u32   ]
///
/// flags: bit0 = allocated, bit1 = linear memory, bit2 = GC mark,
/// bit3 = array (payload = [len:u32][elems...], ptrmap applies per element
/// with stride flags>>8 bytes).
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_LOWER_RUNTIME_H
#define RICHWASM_LOWER_RUNTIME_H

#include "wasm/Instance.h"
#include "wasm/WasmAst.h"

namespace rw::lower {

/// Header flag bits.
enum RtFlags : uint32_t {
  RtAllocated = 1u << 0,
  RtLinear = 1u << 1,
  RtMark = 1u << 2,
  RtArray = 1u << 3,
  RtElemShift = 8, ///< Array element stride lives in bits 8..31.
};

/// Indices of the runtime pieces inside a lowered module. The globals are
/// always the module's first five (the shared allocator bodies name them
/// by these indices); the functions follow the host imports.
struct RuntimeLayout {
  uint32_t AllocFunc = 0; ///< (payloadBytes, flags, ptrmap) -> ptr
  uint32_t FreeFunc = 0;  ///< (ptr) -> ()
  uint32_t GFree = 0;     ///< Free-list head global.
  uint32_t GBump = 1;     ///< Bump frontier global.
  uint32_t GLive = 2;     ///< Live allocation count.
  uint32_t GAllocs = 3;   ///< Cumulative allocation count.
  uint32_t GFrees = 4;    ///< Cumulative free count.

  static constexpr uint32_t NumGlobals = 5;
  static constexpr uint32_t HeaderBytes = 12;
  static constexpr uint32_t HeapBase = 16;
};

/// Appends the runtime globals and the allocator functions to \p M, which
/// must have no globals yet and must not have had the runtime appended.
/// The function bodies are not rebuilt: they reference the prelude, built,
/// validated and translated once per process (wasm::SharedFunc,
/// exec::proveShared), so wasm::validate and exec::translate skip their
/// per-module work too.
/// Call it before emitting code that references the runtime.
RuntimeLayout emitRuntime(wasm::WModule &M);

/// Precise mark-sweep over a lowered module's heap, driven by the host.
/// Roots are the lowered globals that hold references (known statically
/// from lowering) plus any extra roots the embedder supplies. Works
/// against any execution engine through the shared wasm::Instance
/// surface (memory and global access are all it needs).
class HostGc {
public:
  HostGc(wasm::Instance &Inst, RuntimeLayout L,
         std::vector<uint32_t> RefGlobals)
      : Inst(Inst), L(L), RefGlobals(std::move(RefGlobals)) {}

  struct Stats {
    uint64_t Marked = 0;
    uint64_t Swept = 0;
    uint64_t BytesReclaimed = 0;
  };

  /// Runs one collection at a quiescent point (no live references on the
  /// Wasm operand stack). Returns collection statistics.
  Stats collect(const std::vector<uint32_t> &ExtraRoots = {});

private:
  wasm::Instance &Inst;
  RuntimeLayout L;
  std::vector<uint32_t> RefGlobals;
};

} // namespace rw::lower

#endif // RICHWASM_LOWER_RUNTIME_H
