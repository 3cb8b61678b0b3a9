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

#ifndef RW_JIT_ENABLED
#define RW_JIT_ENABLED 0
#endif

namespace rw::jit {
class ModuleJit;
struct JitContext;
} // namespace rw::jit

namespace rw::exec {

/// Resets the per-function execution profile of \p I (all counters to
/// zero, relaxed stores). Long-lived server instances call this so the
/// counters describe recent behavior and tiering can re-trigger after a
/// workload shift; compiled tiers are unaffected.
inline void resetProfiles(wasm::Instance &I) { I.resetProfiles(); }

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
  struct CallFrame {
    const FlatFunc *F;
    uint32_t Pc;      ///< Saved while a callee runs.
    uint32_t RegBase; ///< This frame's slice of the register file.
    uint32_t OpBase;  ///< Absolute operand-stack base of this frame.
  };

  /// Runs until the root frame returns, resuming Frames.back() at its
  /// saved Pc (0 for a fresh invoke; a deopt point after a native exit)
  /// with operand height ResumeSp. Consumes from \p Fuel (written back
  /// at every exit; the caller owns the Executed accounting). On a trap,
  /// fills \p TrapMsg and returns false.
  bool run(uint64_t &Fuel, std::string &TrapMsg);

  FlatModule FM; ///< Owned translation (self-translated instances).
  /// Adopted pre-translation (shared, immutable) — see adoptPretranslated.
  std::shared_ptr<const FlatModule> PreFM;
  /// The translation executed: &FM or PreFM.get(); set by prepare().
  const FlatModule *Active = nullptr;
  std::vector<uint64_t> OpStack; ///< Raw 64-bit operand slots.
  std::vector<uint64_t> Regs;    ///< All frames' locals, contiguous.
  std::vector<CallFrame> Frames;
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

public:
  // Helper entry points the generated code calls back into (defined in
  // Jit.cpp, reached via extern "C" trampolines); they mirror the
  // interpreter's direct_call / host_call / memory.grow blocks exactly.
  // Public only for those trampolines — not part of the embedder API.
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

} // namespace rw::exec

#endif // RICHWASM_EXEC_ENGINE_H
