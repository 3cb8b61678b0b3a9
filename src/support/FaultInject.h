//===- support/FaultInject.h - Compile-time-gated fault injection -*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Induced-failure testing for the admission pipeline (DESIGN.md §12): a
/// set of named *seams* — points where production code can genuinely fail
/// (allocation limits, mmap, JIT compilation, cache stores, worker
/// spawn) — each of which a test can arm to fail on the Nth occurrence,
/// every Nth occurrence, or probabilistically. The degradation suite
/// (tests/fault_test.cpp) proves the graceful-degradation contracts the
/// rest of the codebase claims: a JIT compile failure falls back to the
/// flat interpreter with identical results and trap bytes, a cache-store
/// failure degrades to uncached (still correct) admission, a mid-decode
/// failure rejects cleanly with zero arena residue.
///
/// Compile-time gating: the layer only exists under -DRW_FAULT=ON
/// (RW_FAULT_ENABLED=1, test builds). In the default build every
/// RW_FAULT_POINT collapses to a constant `false` that the optimizer
/// deletes, and FaultInject.cpp contributes zero symbols to the archive
/// (CI asserts this with nm) — production binaries carry no injection
/// machinery at all.
///
/// Thread-safety: seams are armed/disarmed from a quiescent test thread;
/// occurrence counting in shouldFail() is a relaxed atomic, so seams may
/// fire from pool workers.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_SUPPORT_FAULTINJECT_H
#define RICHWASM_SUPPORT_FAULTINJECT_H

#include <cstdint>

#ifndef RW_FAULT_ENABLED
#define RW_FAULT_ENABLED 0
#endif

namespace rw::support::fault {

/// The injection seams. Each names one failure mode of the pipeline and
/// the degradation contract its failure must honor.
enum class Seam : uint8_t {
  DecodeAlloc,  ///< Allocation budget charge in wasm::decode / ingest.
  CheckAlloc,   ///< Checker working-state allocation (typing::checkModule).
  LowerAlloc,   ///< Lowering working-state allocation (lower::lowerProgram).
  JitMap,       ///< JIT code-page mmap/mprotect (jit::ModuleJit).
  JitCompile,   ///< JIT function compilation (template emit).
  CacheStore,   ///< cache::AdmissionCache store (a lowered artifact).
  PoolSpawn,    ///< support::ThreadPool worker thread spawn.
};
constexpr unsigned NumSeams = 7;

/// Stable lowercase token for obs counters and test diagnostics.
inline const char *seamName(Seam S) {
  switch (S) {
  case Seam::DecodeAlloc:
    return "decode_alloc";
  case Seam::CheckAlloc:
    return "check_alloc";
  case Seam::LowerAlloc:
    return "lower_alloc";
  case Seam::JitMap:
    return "jit_map";
  case Seam::JitCompile:
    return "jit_compile";
  case Seam::CacheStore:
    return "cache_store";
  case Seam::PoolSpawn:
    return "pool_spawn";
  }
  return "?";
}

#if RW_FAULT_ENABLED

/// True when the injection layer is compiled in (-DRW_FAULT=ON).
constexpr bool compiledIn() { return true; }

/// Counts one occurrence of seam \p S and decides whether to inject a
/// failure there, per the seam's armed policy. Disarmed seams always
/// return false (but still count occurrences).
bool shouldFail(Seam S);

/// Arms \p S to fail exactly once, on the \p Nth occurrence from now
/// (1-based: armNth(S, 1) fails the next occurrence). Resets the seam's
/// occurrence counter.
void armNth(Seam S, uint64_t Nth);

/// Arms \p S to fail every \p Period-th occurrence from now (1 = every
/// occurrence). Resets the seam's occurrence counter.
void armEvery(Seam S, uint64_t Period);

/// Arms \p S to fail each occurrence independently with probability
/// \p PerMille / 1000, from a deterministic per-seam RNG seeded with
/// \p Seed (same seed → same failure sequence).
void armProbability(Seam S, uint32_t PerMille, uint64_t Seed);

void disarm(Seam S);
void disarmAll();

/// Occurrences observed / failures injected since the seam was last
/// armed (or since process start when never armed).
uint64_t occurrences(Seam S);
uint64_t injected(Seam S);

#else // !RW_FAULT_ENABLED — every entry point collapses to nothing.

constexpr bool compiledIn() { return false; }
constexpr bool shouldFail(Seam) { return false; }
inline void armNth(Seam, uint64_t) {}
inline void armEvery(Seam, uint64_t) {}
inline void armProbability(Seam, uint32_t, uint64_t) {}
inline void disarm(Seam) {}
inline void disarmAll() {}
inline uint64_t occurrences(Seam) { return 0; }
inline uint64_t injected(Seam) { return 0; }

#endif // RW_FAULT_ENABLED

} // namespace rw::support::fault

/// The seam probe production code branches on:
///   if (RW_FAULT_POINT(rw::support::fault::Seam::CacheStore)) return;
/// Compiled out, this is a constant false and the branch is deleted.
#define RW_FAULT_POINT(S) (::rw::support::fault::shouldFail(S))

#endif // RICHWASM_SUPPORT_FAULTINJECT_H
