//===- exec/Engine.h - Flat-bytecode Wasm engine ----------------*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flat-bytecode execution engine (EngineKind::Flat, DESIGN.md §5):
/// a drop-in replacement for the tree-walking wasm::WasmInstance that
/// first translates the module with exec::translate and then runs the
/// resulting linear code with a tight dispatch loop —
///
///   * one switch-dispatched loop over pre-decoded uint32_t words; no
///     per-step label resolution, block re-scanning, or recursion;
///   * an operand stack of raw 64-bit slots (no type tags on the hot
///     path; types were pinned by validation);
///   * a register file holding all frames' locals contiguously, and an
///     explicit call-frame stack, so calls and returns are index
///     arithmetic instead of C++ recursion;
///   * host calls resolved once at initialize() into a direct table.
///
/// Semantics (results, traps, memory effects, GC-visible globals) match
/// the tree engine exactly; tests/exec_test.cpp holds the differential
/// suite. Instances are not re-entrant — the operand stack, register
/// file, and frame stack are instance state — but unlike the tree engine
/// this is *enforced*: a host function that calls invoke() back into the
/// instance that invoked it gets a proper trap ("re-entrant invoke"),
/// never corrupted state.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_EXEC_ENGINE_H
#define RICHWASM_EXEC_ENGINE_H

#include "exec/Translate.h"
#include "wasm/Instance.h"

#include <algorithm>

#ifndef RW_JIT_ENABLED
#define RW_JIT_ENABLED 0
#endif

namespace rw::jit {
class ModuleJit;
struct JitContext;
} // namespace rw::jit

namespace rw::exec {

/// Why evalNumeric produced no result.
enum class NumTrap : uint32_t {
  None = 0,
  IntDivide,         ///< "integer divide error"
  InvalidConversion, ///< "invalid conversion to integer"
  Unhandled,         ///< Not a numeric opcode: "unhandled opcode".
};

/// The flat tier's numeric evaluator over raw 64-bit slots, for every
/// numeric opcode (wasm::OpInfo::numeric): ops that pop two read (A, B),
/// the others read A and ignore B. It evaluates the RichWasm operation the
/// opcode's row names (OpInfo::Num) with support/NumericOps.h, bit-exact
/// with the tree engine's own decoding. On a trap returns 0 and sets
/// \p Trap. The interpreter calls it for the opcodes without a dedicated
/// handler, and the JIT's generic-op template calls it through an
/// extern "C" shim.
uint64_t evalNumeric(uint32_t OpC, uint64_t A, uint64_t B, NumTrap &Trap);

/// One activation record of the flat engine's call stack.
struct CallFrame {
  const FlatFunc *F;
  uint32_t Pc;      ///< Saved while a callee runs.
  uint32_t RegBase; ///< This frame's slice of the register file.
  uint32_t OpBase;  ///< Absolute operand-stack base of this frame.
};

/// The call stack: one block of records that doubles when a push finds
/// it full, up to wasm::MaxCallDepth records (pushFrame refuses deeper
/// calls). Native code pushes and pops records in place through Top and
/// Limit, and calls pushFrame when a push would need a bigger block
/// (DESIGN.md §11); Jit.cpp pins their offsets.
struct FrameStack {
  CallFrame *Top = nullptr;   ///< One past the innermost frame.
  CallFrame *Limit = nullptr; ///< End of the block.
  CallFrame *Base = nullptr;

  FrameStack() = default;
  FrameStack(const FrameStack &) = delete;
  FrameStack &operator=(const FrameStack &) = delete;
  ~FrameStack() { delete[] Base; }

  size_t size() const { return static_cast<size_t>(Top - Base); }
  bool empty() const { return Top == Base; }
  CallFrame &back() { return Top[-1]; }
  void push_back(const CallFrame &Fr) {
    if (Top == Limit)
      grow();
    *Top++ = Fr;
  }
  void pop_back() { --Top; }
  void clear() { Top = Base; }

private:
  void grow() {
    size_t N = size();
    size_t Cap = std::min<size_t>(
        std::max<size_t>(16, 2 * static_cast<size_t>(Limit - Base)),
        wasm::MaxCallDepth);
    CallFrame *B = new CallFrame[Cap];
    std::copy(Base, Top, B);
    delete[] Base;
    Base = B;
    Top = B + N;
    Limit = B + Cap;
  }
};

/// An instantiated Wasm module executed as flat bytecode, optionally
/// tiered up to native code (src/jit/) per function.
class FlatInstance : public wasm::Instance {
public:
  /// Sentinel tier-up threshold meaning "never compile".
  static constexpr uint64_t NeverTier = UINT64_MAX;

  explicit FlatInstance(const wasm::WModule &M,
                        wasm::EngineKind K = wasm::EngineKind::Flat);
  ~FlatInstance() override;

  Expected<std::vector<wasm::WValue>>
  invoke(uint32_t FuncIdx, std::vector<wasm::WValue> Args,
         uint64_t MaxFuel = 1'000'000'000) override;

  wasm::EngineKind engine() const override { return Kind; }

  /// Tier-up policy; call before initialize(). \p Threshold: 0 compiles
  /// every function eagerly at prepare(); N >= 1 compiles a function
  /// once its profile mass (Invocations + LoopHeads) reaches N (this
  /// turns profiling on); NeverTier disables tiering. Threshold compiles
  /// run synchronously at the start of the invoke that finds the mass
  /// crossed. Defaults: EngineKind::Jit instances tier eagerly; Flat
  /// instances honor the RW_JIT_THRESHOLD environment variable (same
  /// meaning; unset = never). Ignored under -DRW_JIT=OFF.
  void setTierPolicy(uint64_t Threshold) {
    TierThreshold = Threshold;
    TierPolicySet = true;
  }

  /// Functions currently backed by native code (0 under -DRW_JIT=OFF).
  uint32_t jitCompiledCount() const;

  /// The translated module (valid after initialize()).
  const FlatModule &flat() const { return Active ? *Active : FM; }

  /// Installs a shared pre-translated module (e.g. the memoized
  /// translation from the admission cache) so prepare() skips
  /// exec::translate. Borrowed, not copied — the shared handle keeps the
  /// translation alive for the instance's lifetime; many instances may
  /// execute one translation concurrently (it is immutable; all mutable
  /// state lives in the instance). \p Pre must describe exactly this
  /// instance's module (Pre->Source == &module()); call before
  /// initialize().
  void adoptPretranslated(std::shared_ptr<const FlatModule> Pre) {
    PreFM = std::move(Pre);
  }

protected:
  Status prepare() override;

private:
  /// Runs until the root frame returns, resuming Frames.back() at its
  /// saved Pc (0 for a fresh invoke; a deopt point after a native exit)
  /// with operand height ResumeSp. Consumes from \p Fuel (written back
  /// at every exit; the caller owns the Executed accounting). On a trap,
  /// fills \p TrapMsg and returns false.
  bool run(uint64_t &Fuel, std::string &TrapMsg);

  // Slow paths shared by run() and the JIT's native helpers (Jit.cpp):
  // each exists once, and each caller turns its outcome into a trap
  // (run()) or a deopt/unwind (the native tier).

  /// Pushes the frame of defined function \p CalleeIdx, whose arguments
  /// are the top of the operand stack at absolute height \p Sp; the
  /// calling frame (Frames.back()) resumes at \p RetPc. Returns false,
  /// changing nothing, at the call-depth limit.
  bool pushFrame(uint32_t CalleeIdx, uint32_t Sp, uint32_t RetPc);

  enum class HostCall {
    Ok,
    /// Results pushed, but not as many as the import's type declares.
    Drift,
    /// Unbound import or a host error; the message is in TrapMsg.
    Trap,
  };
  /// Calls import \p HostIdx on the arguments below absolute operand
  /// height \p Sp and pushes its results, advancing Sp.
  HostCall hostCall(uint32_t HostIdx, uint32_t &Sp, std::string &TrapMsg);

  /// Resolves call_indirect through table slot \p TblIdx against
  /// canonical type \p Expect into function-space index \p Func.
  /// Returns the trap message on failure, else null.
  const char *resolveIndirect(uint32_t TblIdx, uint32_t Expect,
                              uint32_t &Func) const;

  FlatModule FM; ///< Owned translation (self-translated instances).
  /// Adopted pre-translation (shared, immutable) — see adoptPretranslated.
  std::shared_ptr<const FlatModule> PreFM;
  /// The translation executed: &FM or PreFM.get(); set by prepare().
  const FlatModule *Active = nullptr;
  std::vector<uint64_t> OpStack; ///< Raw 64-bit operand slots.
  std::vector<uint64_t> Regs;    ///< All frames' locals, contiguous.
  FrameStack Frames;
  /// Re-entrancy guard: set while run() executes. A host function called
  /// from this instance re-entering invoke() would clobber OpStack/Regs/
  /// Frames mid-run (undefined behavior before this guard); now it traps.
  bool Running = false;
  /// Function-space index the last run() trap was attributed to, for the
  /// " [func N]" suffix invoke() appends (see Instance::trapNote).
  uint32_t LastTrapFunc = 0;

  wasm::EngineKind Kind;

  // Tier-up state (src/jit/). Inert under -DRW_JIT=OFF: prepare() never
  // creates a ModuleJit, so every hook below stays on its null fast path.
  uint64_t TierThreshold = NeverTier;
  bool TierPolicySet = false;
  /// Operand height (frame-relative) at which run() resumes Frames.back()
  /// after a native deopt; 0 for fresh invokes.
  uint32_t ResumeSp = 0;

#if RW_JIT_ENABLED
  /// Outcome of one native attempt on Frames.back(), normalized for the
  /// interpreter: Done (frame popped, results at its operand base),
  /// Resume (interpret Frames.back() from its Pc at height ResumeSp), or
  /// Trapped (trap fully recorded; TrapMsg in JitTrapMsg).
  enum class JitRun { Done, Resume, Trapped };

  /// Executes the native code of Frames.back() (which must have an
  /// entry), consuming from \p Fuel.
  JitRun jitExecuteBack(uint64_t &Fuel);

  /// Threshold policy: compiles functions whose profile mass crossed
  /// TierThreshold, synchronously.
  void maybeTierUp();

  /// Points \p Ctx at OpStack's and Regs' current storage and ends.
  void jitRefreshArrays(jit::JitContext &Ctx);

public:
  // Helper entry points the generated code calls back into (defined in
  // Jit.cpp, reached via extern "C" trampolines): each runs the shared
  // slow path above and maps its outcome to a jit::JitStatus. Public
  // only for those trampolines — not part of the embedder API.
  uint32_t jitDirectCall(jit::JitContext &Ctx, uint32_t CalleeIdx,
                         uint32_t SpRel, uint32_t RetPc);
  uint32_t jitHostCall(jit::JitContext &Ctx, uint32_t HostIdx, uint32_t SpRel,
                       uint32_t RetPc);
  uint32_t jitIndirectCall(jit::JitContext &Ctx, uint32_t Expect,
                           uint32_t SpRel, uint32_t RetPc);
  uint32_t jitMemoryGrow(jit::JitContext &Ctx, uint32_t SpRel);

private:

  std::unique_ptr<jit::ModuleJit> Jit;
  std::string JitTrapMsg; ///< Final-trap message from helpers.
#endif
};

// Inline so that both run() and the native tier's call helper (a
// separate translation unit, on every native-to-native call) inline it.
inline bool FlatInstance::pushFrame(uint32_t CalleeIdx, uint32_t Sp,
                                    uint32_t RetPc) {
  if (Frames.size() >= wasm::MaxCallDepth)
    return false;
  const FlatFunc *Callee = &Active->Funcs[CalleeIdx];
  uint32_t NewRegBase = Frames.back().RegBase + Frames.back().F->NumRegs;
  if (Regs.size() < NewRegBase + Callee->NumRegs)
    Regs.resize(
        std::max<size_t>(NewRegBase + Callee->NumRegs, Regs.size() * 2));
  uint32_t NP = Callee->NumParams;
  Sp -= NP;
  uint64_t *NR = Regs.data() + NewRegBase;
  for (uint32_t I = 0; I < NP; ++I)
    NR[I] = OpStack[Sp + I];
  for (uint32_t I = NP; I < Callee->NumRegs; ++I)
    NR[I] = 0;
  if (OpStack.size() < Sp + Callee->MaxDepth)
    OpStack.resize(std::max<size_t>(Sp + Callee->MaxDepth, OpStack.size() * 2));
  Frames.back().Pc = RetPc;
  Frames.push_back({Callee, 0, NewRegBase, Sp});
  return true;
}

} // namespace rw::exec

#endif // RICHWASM_EXEC_ENGINE_H
