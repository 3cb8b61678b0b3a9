//===- wasm/Instance.h - Shared embedder surface for Wasm engines -*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine-independent embedder (host) API for instantiated Wasm
/// modules (DESIGN.md §5). Two execution engines implement it:
///
///   * EngineKind::Tree — wasm::WasmInstance (wasm/Interp.h), a direct
///     tree-walking interpreter over the structured WInst AST;
///   * EngineKind::Flat — exec::FlatInstance (exec/Engine.h), which
///     translates the module once into a flat pre-resolved bytecode and
///     runs it with a tight dispatch loop.
///
/// Everything the RichWasm runtime needs from an instance lives here:
/// host functions satisfy imports, the host can read and write the flat
/// memory and the globals (which is how the host-assisted mark-sweep GC
/// in lower/Runtime.h works against either engine), and an
/// executed-instruction counter backs the C1 capability-erasure
/// measurement.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_WASM_INSTANCE_H
#define RICHWASM_WASM_INSTANCE_H

#include "support/Error.h"
#include "wasm/WasmAst.h"

#include <atomic>
#include <functional>
#include <map>
#include <memory>

namespace rw::wasm {

constexpr uint64_t PageSize = 65536;

/// The smallest step by which an instance commits (zero-fills) linear
/// memory: the first touch commits one chunk, and later touches past the
/// committed prefix at least double it (Instance::commitMemory).
constexpr uint64_t MemChunk = 4096;

/// Call-frame limit shared by both engines, so the "call stack
/// exhausted" trap fires at the same recursion depth everywhere.
constexpr unsigned MaxCallDepth = 2000;

/// A runtime value: a type tag plus raw bits.
struct WValue {
  ValType T = ValType::I32;
  uint64_t Bits = 0;

  static WValue i32(uint32_t V) { return {ValType::I32, V}; }
  static WValue i64(uint64_t V) { return {ValType::I64, V}; }
  uint32_t asU32() const { return static_cast<uint32_t>(Bits); }
};

class Instance;

/// A host function: receives the instance (for memory access) and the
/// arguments; returns results or a trap.
using HostFn = std::function<Expected<std::vector<WValue>>(
    Instance &, const std::vector<WValue> &)>;

/// Which execution engine backs an instance.
enum class EngineKind : uint8_t {
  Tree, ///< Tree-walking interpreter over the structured AST.
  Flat, ///< Flat-bytecode engine with pre-resolved control flow.
  Jit,  ///< Flat engine with the tier-3 native backend (eager tiering).
};

inline const char *engineKindName(EngineKind K) {
  return K == EngineKind::Tree   ? "tree"
         : K == EngineKind::Flat ? "flat"
                                 : "jit";
}

/// One saturating execution-profile counter. Only the executing thread
/// writes (the engines bump from their single run loop); the
/// "exec.profile" obs source may read concurrently from a snapshot
/// thread, so reads and writes are relaxed atomics — a reader sees some
/// recent value, which is all a hotness heuristic needs. Bumps saturate at
/// UINT64_MAX instead of wrapping, so a long-lived server instance can
/// never wrap a counter back under a tier-up threshold.
class ProfileCounter {
public:
  ProfileCounter() = default;
  ProfileCounter(const ProfileCounter &O)
      : V(O.V.load(std::memory_order_relaxed)) {}
  ProfileCounter &operator=(const ProfileCounter &O) {
    V.store(O.V.load(std::memory_order_relaxed), std::memory_order_relaxed);
    return *this;
  }
  ProfileCounter &operator=(uint64_t N) {
    V.store(N, std::memory_order_relaxed);
    return *this;
  }

  uint64_t load() const { return V.load(std::memory_order_relaxed); }
  operator uint64_t() const { return load(); }

  /// Saturating bump: a plain load/add/store pair (no RMW) — the single
  /// writer makes it race-free, and the hot interpreter path stays one
  /// unlocked add.
  void operator++() {
    uint64_t C = V.load(std::memory_order_relaxed);
    if (C != UINT64_MAX)
      V.store(C + 1, std::memory_order_relaxed);
  }

private:
  friend class Instance;
  std::atomic<uint64_t> V{0};
};

/// Execution-profile row for one function in function space (imports
/// first, then defined functions). This is the hotness signal the
/// tier-3 JIT consumes: Invocations ranks call-dominated functions,
/// LoopHeads ranks loop-dominated ones (it counts loop-header
/// executions, i.e. loop entries plus back-edges, identically in all
/// engines).
struct FunctionProfile {
  ProfileCounter Invocations;
  ProfileCounter LoopHeads;
};

// The JIT emits counter bumps as raw 8-byte loads/stores against this
// layout; keep it two plain words.
static_assert(sizeof(FunctionProfile) == 16 &&
                  sizeof(ProfileCounter) == 8 &&
                  std::atomic<uint64_t>::is_always_lock_free,
              "FunctionProfile must stay two lock-free 64-bit words");

/// An instantiated Wasm module, independent of the engine executing it.
/// Owns the instance state (memory, globals, table, host bindings); the
/// derived engine owns only its execution machinery.
class Instance {
public:
  explicit Instance(const WModule &M) : M(&M) {}
  virtual ~Instance();

  /// Registers a host function for import Mod.Name. Must be called for
  /// every import before initialize().
  void registerHost(const std::string &Mod, const std::string &Name,
                    HostFn Fn) {
    Hosts[{Mod, Name}] = std::move(Fn);
  }

  /// Sizes memory, evaluates global initializers, fills the table,
  /// copies data segments, prepares the engine, and (unless \p RunStart
  /// is false) runs the start function. Sizing memory allocates nothing:
  /// a data segment commits only the bytes up to its end, and the engine
  /// commits the rest on first touch (see memory()).
  Status initialize(bool RunStart = true);

  virtual Expected<std::vector<WValue>>
  invoke(uint32_t FuncIdx, std::vector<WValue> Args,
         uint64_t MaxFuel = 1'000'000'000) = 0;
  Expected<std::vector<WValue>> invokeByName(const std::string &Name,
                                             std::vector<WValue> Args,
                                             uint64_t MaxFuel = 1'000'000'000);

  /// The engine executing this instance.
  virtual EngineKind engine() const = 0;

  /// The whole linear memory, exactly the bytes the program sees: what
  /// it and the host wrote, zero everywhere else. The instance keeps
  /// only a committed, zeroed prefix of its memory (committedBytes()) and
  /// the logical size beside it; this call first commits the rest. The
  /// host may write through the vector but must not resize it
  /// (memory.grow is the program's). load32/store32 commit up to the word
  /// they touch.
  std::vector<uint8_t> &memory() {
    commitMemory(MemBytes);
    return Mem;
  }
  uint32_t load32(uint32_t Addr);
  void store32(uint32_t Addr, uint32_t V);

  /// Bytes of linear memory committed so far, a prefix of its logical
  /// size (pages * PageSize).
  uint64_t committedBytes() const { return Mem.size(); }

  WValue global(uint32_t I) const { return Globals[I]; }
  void setGlobal(uint32_t I, WValue V) { Globals[I] = V; }
  const WModule &module() const { return *M; }

  /// Executed-instruction counter (all functions, cumulative).
  uint64_t instrCount() const { return Executed; }
  void resetInstrCount() { Executed = 0; }

  std::optional<uint32_t> findExport(const std::string &Name,
                                     ExportKind Kind) const;

  /// Turns on per-function execution profiling (invocation + loop-head
  /// counters). Call before initialize(); the flat engine re-translates
  /// with profile bumps fused into the bytecode, so enabling later would
  /// miss an already-adopted translation. Registers the table as an obs
  /// snapshot source while the instance lives.
  void enableProfiling();
  bool profilingEnabled() const { return ProfileOn; }

  /// One row per function in function space (imports then defined);
  /// empty unless enableProfiling() was called.
  const std::vector<FunctionProfile> &functionProfiles() const {
    return Prof;
  }

  /// Zeroes every profile counter (relaxed stores; call when no invoke
  /// is running). Long-lived server instances reset periodically so the
  /// counters describe recent behavior and can re-trigger tiering after
  /// a workload shift. Already-compiled functions stay compiled.
  void resetProfiles() {
    for (FunctionProfile &P : Prof) {
      P.Invocations = 0;
      P.LoopHeads = 0;
    }
  }

protected:
  /// Engine hook run by initialize() after instance state exists but
  /// before the start function: translate code, resolve host bindings.
  virtual Status prepare() { return Status::success(); }

  /// The resolved host function for import index \p I (valid after
  /// initialize()), or null when unbound.
  const HostFn *hostFor(uint32_t I) const {
    return I < HostTable.size() ? HostTable[I] : nullptr;
  }

  /// Zero-extends the committed prefix of memory to cover [0, \p End):
  /// at least one MemChunk, at least double the old prefix, never past
  /// the logical size MemBytes. Returns false, changing nothing, when
  /// \p End is past it. Mem.data() may move.
  bool commitMemory(uint64_t End) {
    return End <= Mem.size() || commitSlow(End);
  }

  /// memory.grow by \p Delta pages: the old page count, or 0xffffffff
  /// (memory unchanged) past the module's maximum. A fully committed
  /// memory stays fully committed, so an engine that commits everything
  /// up front (the tree engine, native code) may keep bounding accesses
  /// by Mem.size().
  uint64_t memoryGrow(uint32_t Delta);

  /// Sizes Prof to cover function space (idempotent).
  void ensureProfileTable();

  /// Renders the trap-attribution suffix every engine appends to trap
  /// messages: " [func N]". It never carries profile counts (read those
  /// from functionProfiles()), so trap bytes are identical across engines
  /// and tier policies and the differential suite can compare them
  /// byte-for-byte.
  static std::string trapNote(uint32_t FuncIdx);

  const WModule *M;
  /// The committed prefix of linear memory; bytes past it read as zero.
  std::vector<uint8_t> Mem;
  /// Logical size of linear memory in bytes.
  uint64_t MemBytes = 0;
  std::vector<WValue> Globals;
  std::vector<uint32_t> Table;
  std::map<std::pair<std::string, std::string>, HostFn> Hosts;
  /// Import index → resolved host function (avoids the map on calls).
  std::vector<const HostFn *> HostTable;
  uint64_t Executed = 0;
  bool ProfileOn = false;
  std::vector<FunctionProfile> Prof;

private:
  bool commitSlow(uint64_t End);

  uint64_t ObsSourceId = 0;
};

/// Creates an uninitialized instance of \p M backed by engine \p K.
/// (Defined in exec/Engine.cpp, where both engines are visible.)
std::unique_ptr<Instance> createInstance(const WModule &M, EngineKind K);

} // namespace rw::wasm

#endif // RICHWASM_WASM_INSTANCE_H
