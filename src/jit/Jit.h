//===- jit/Jit.h - Tier-3 native backend over flat bytecode -----*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tier-3 copy-and-patch JIT (DESIGN.md §11): per-opcode machine-code
/// templates for the flat bytecode of exec::Translate.h, stitched per
/// function with patched immediates and jump offsets into W^X-transitioned
/// executable pages. The generated code is *state-compatible* with the
/// flat interpreter at every instruction boundary — operand slots and
/// locals live in the same OpStack/Regs arrays at the same indices, with
/// the operand height tracked statically at compile time — so any trap or
/// rare path simply exits ("deopts") to the flat engine, which resumes
/// mid-function from the recorded pc and produces byte-identical trap
/// notes. A call between two compiled functions stays native: the call
/// template pushes the interpreter's frame record itself. Other calls,
/// host calls, call_indirect resolution, memory.grow and the numerics
/// without an inline template run through C++ helpers that *are* the
/// interpreter's slow paths (exec::FlatInstance members and
/// exec::evalNumeric), so the tiers share one copy of each.
///
/// Fuel is charged in per-segment batches (a segment is a basic block cut
/// at call sites) with an exact-refund deopt when the batch would
/// overdraw, so jitted execution traps "fuel exhausted" at exactly the
/// same instruction as the interpreter and instrCount() stays identical.
///
/// Everything here compiles away under -DRW_JIT=OFF (RW_JIT_ENABLED=0):
/// Jit.cpp contributes zero symbols and exec::FlatInstance keeps its
/// flat-only behavior.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_JIT_JIT_H
#define RICHWASM_JIT_JIT_H

#include "exec/Translate.h"

#if defined(RW_JIT_ENABLED) && RW_JIT_ENABLED

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

namespace rw::jit {

/// Exit status of one native activation (one compiled function frame).
/// The values are fixed — generated code materializes them as immediates.
enum JitStatus : uint32_t {
  /// The function ran to FReturn: its results sit at the frame's operand
  /// base and the caller (helper or orchestrator) pops the frame.
  JOk = 0,
  /// This frame exits before executing the instruction at
  /// JitContext::DeoptPc (operand height DeoptSp, fuel refunded): the
  /// flat interpreter resumes there and re-executes it — traps are
  /// reproduced by the interpreter's own trap machinery, byte for byte.
  JDeoptHere = 1,
  /// A deeper frame deopted (or entered a function with no native code);
  /// Frames already describes the resume point. Propagate outward.
  JUnwind = 2,
  /// A trap that cannot be re-executed (a host function trapped) was
  /// fully recorded on the instance; unwind straight out of run().
  JTrapFinal = 3,
};

/// The mutable state shared between generated code and the engine for
/// one top-level native entry (nested native calls reuse it). Generated
/// code addresses fields by fixed offsets; keep the layout in sync with
/// the static_asserts in Jit.cpp.
struct JitContext {
  void *Inst = nullptr;        ///< The owning exec::FlatInstance.
  uint64_t *Ops = nullptr;     ///< OpStack.data(); helpers refresh on resize.
  uint64_t *Regs = nullptr;    ///< Regs.data(); helpers refresh on resize.
  uint8_t *MemP = nullptr;     ///< Mem.data(); refreshed after grow/host.
  uint64_t MemSz = 0;          ///< Mem.size().
  uint64_t Fuel = 0;           ///< Remaining fuel (shared across frames).
  void *GlobalsP = nullptr;    ///< Globals.data() (WValue stride).
  void *ProfP = nullptr;       ///< Prof.data() or null (FunctionProfile).
  uint32_t DeoptPc = 0;        ///< Word pc of the deopting instruction.
  uint32_t DeoptSp = 0;        ///< Operand height (frame-relative) there.
  uint32_t GenTrap = 0;        ///< Out-flag of the generic-op helper.
  uint32_t Pad = 0;
  /// Fuel returned by exact-refund deopt stubs during this activation
  /// (generated code accumulates; the engine drains it into the
  /// "exec.tier.fuel_refunded" counter after each native exit).
  uint64_t FuelRefunded = 0;
  /// The instance's exec::FrameStack: the call stencil compares its Top
  /// with its Limit (room in the block, and the depth limit) and pushes
  /// and pops records at Top.
  void *Frames = nullptr;
  uint64_t *OpsEnd = nullptr;  ///< Ops + OpStack.size(); refreshed with Ops.
  uint64_t *RegsEnd = nullptr; ///< Regs + Regs.size(); refreshed with Regs.
};

/// Outer entry point of one compiled function, for C++ callers: it saves
/// the callee-saved registers, loads the context registers and enters
/// the function's inner entry, which native callers enter directly
/// (DESIGN.md §11). Bases are *byte* offsets into Ops/Regs (slot index
/// * 8) so generated code adds them directly.
using NativeFn = uint32_t (*)(JitContext *, uint64_t OpBase8,
                              uint64_t RegBase8);

/// Per-module native code: one compiled-code handle per defined function,
/// filled in on demand by tier-up (or eagerly). Compilation is
/// thread-safe and idempotent; entry() is wait-free and safe to call
/// concurrently with compile() from another thread (the entry pointer is
/// published with release/acquire ordering only after the page is RX).
/// Code pages are owned here and unmapped on destruction — the engine
/// guarantees no native frame is live by then.
class ModuleJit {
public:
  explicit ModuleJit(const exec::FlatModule &FM);
  ~ModuleJit();
  ModuleJit(const ModuleJit &) = delete;
  ModuleJit &operator=(const ModuleJit &) = delete;

  /// Compiles defined function \p DefIdx if supported (idempotent).
  /// Returns true when native code exists afterwards. Unsupported or
  /// failed functions are remembered and never retried.
  bool compile(uint32_t DefIdx);

  /// Compiles every defined function (eager whole-module tiering).
  void compileAll();

  /// The native entry for \p DefIdx, or null while it only runs flat.
  NativeFn entry(uint32_t DefIdx) const {
    return Entries[DefIdx].load(std::memory_order_acquire);
  }

  /// Number of functions with native code (for tests/obs).
  uint32_t compiledCount() const {
    return Compiled.load(std::memory_order_relaxed);
  }

  /// Functions refused by the template compiler (or failed page maps).
  uint32_t unsupportedCount() const {
    return Unsupported.load(std::memory_order_relaxed);
  }

  /// Resident executable-page bytes (the module's code-cache footprint).
  uint64_t codeBytes() const {
    return CodeBytes.load(std::memory_order_relaxed);
  }

  /// Tier state of one defined function: 0 = untried (runs flat),
  /// 1 = compiling, 2 = native, 3 = unsupported/failed (flat forever).
  uint8_t tierState(uint32_t DefIdx) const {
    return State[DefIdx].load(std::memory_order_acquire);
  }

  /// Whether a compile of \p DefIdx was ever started (done, in flight,
  /// or failed) — the tier-up controller skips attempted functions.
  bool attempted(uint32_t DefIdx) const {
    return State[DefIdx].load(std::memory_order_acquire) != 0;
  }

private:
  struct Page {
    uint8_t *P = nullptr;
    size_t Sz = 0;
  };

  const exec::FlatModule &FM;
  std::vector<std::atomic<NativeFn>> Entries;
  /// 0 = untried, 1 = compiling, 2 = done, 3 = unsupported/failed.
  std::vector<std::atomic<uint8_t>> State;
  std::atomic<uint32_t> Compiled{0};
  std::atomic<uint32_t> Unsupported{0};
  std::atomic<uint64_t> CodeBytes{0};
  std::mutex PagesMu;
  std::vector<Page> Pages; ///< W^X code pages, RX once published.
  /// obs registry handle ("jit.*" snapshot source: tier counts, code
  /// bytes, per-function tier state); 0 when obs is compiled out.
  uint64_t ObsSourceId = 0;
};

} // namespace rw::jit

#endif // RW_JIT_ENABLED
#endif // RICHWASM_JIT_JIT_H
