//===- exec/Translate.h - Wasm AST → flat bytecode --------------*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-time translation of a validated wasm::WModule into the flat
/// bytecode executed by exec::FlatInstance (DESIGN.md §5). Each function
/// body becomes a single linear uint32_t stream:
///
///   * structured control flow (block/loop/if/br/br_if/br_table) is
///     resolved to absolute jump targets, computed here once instead of
///     being re-discovered on every branch;
///   * every branch carries its stack fix-up as immediates — how many
///     result slots to keep and the operand height to reset to — so the
///     engine performs a bounded copy instead of re-deriving label
///     arities;
///   * calls are pre-split into direct calls (operand = defined-function
///     index), host calls (operand = import index), and indirect calls
///     (operand = canonical type id for the signature check);
///   * per-function operand-stack bounds (MaxDepth) and register counts
///     are precomputed so the engine reserves space once per call and
///     runs the body without per-push bounds checks.
///
/// Translation assumes a validated module (wasm::validate); on malformed
/// input it fails with an Error rather than crashing, but the produced
/// bytecode is only meaningful for valid input.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_EXEC_TRANSLATE_H
#define RICHWASM_EXEC_TRANSLATE_H

#include "support/Error.h"
#include "wasm/WasmAst.h"

#include <vector>

namespace rw::exec {

/// Flat opcodes. Values 0x00..0xbf are the Wasm binary opcode bytes,
/// reused verbatim for the one-to-one data/numeric instructions; the
/// re-encoded control-flow opcodes live at 0x100+ (they can never
/// collide with a Wasm byte).
///
/// Operand layout (words following the opcode):
///   FGoto / FGotoIf / FGotoIfZ     target
///   FBr / FBrIf                    target, keep, reset
///   FBrTable                       count, then (count+1) × (target, keep,
///                                  reset); the default entry is last
///   FCall                          defined-function index
///   FCallHost                      import index
///   FCallIndirect                  canonical type id
///   local/global ops               index
///   memory ops                     static offset
///   i32/f32 const                  1 value word;  i64/f64 const: lo, hi
enum FOp : uint32_t {
  FGoto = 0x100, ///< Unconditional jump, stack already in shape.
  FBr,           ///< Jump with stack fix-up (keep top slots, reset).
  FGotoIf,       ///< Pop cond; jump if non-zero (no fix-up needed).
  FBrIf,         ///< Pop cond; jump with fix-up if non-zero.
  FGotoIfZ,      ///< Pop cond; jump if zero (lowered `if`).
  FBrTable,      ///< Pop index; select among pre-resolved triples.
  FReturn,       ///< Move results to the frame base; pop the frame.
  FCall,         ///< Direct call of a defined function.
  FCallHost,     ///< Call of an imported host function.
  FCallIndirect, ///< Table dispatch with canonical-type check.

  // Superinstructions: peephole fusions of adjacent data ops formed at
  // translation time (never across a branch target — the translator
  // fences fusion at every label point). Lowered RichWasm code is pure
  // i32 register traffic, so these cover its hottest patterns.
  FGetGet,           ///< a b: push R[a]; push R[b].
  FGetConst,         ///< a k: push R[a]; push k.
  FGetGetAdd,        ///< a b: push u32(R[a] + R[b]).
  FGetConstAdd,      ///< a k: push u32(R[a] + k).
  FGetGetAddSet,     ///< a b d: R[d] = u32(R[a] + R[b]).
  FGetConstAddSet,   ///< a k d: R[d] = u32(R[a] + k).
  FMove,             ///< a d: R[d] = R[a]  (local.get; local.set).
  FConstSet,         ///< k d: R[d] = k     (i32/f32 const; local.set).
  FGetLoadI32,       ///< a off: push u32 memory[R[a] + off].
  FGetGetStoreI32,   ///< a b off: memory[R[a] + off] = u32(R[b]).
  FGetConstStoreI32, ///< a k off: memory[R[a] + off] = k.

  // Execution-profile bumps, emitted only by profiled translations
  // (TranslateOptions::Profile): the steady-state dispatch loop of an
  // unprofiled module never sees them. Both are fuel-neutral so a
  // profiled run traps/halts at exactly the same instruction count as an
  // unprofiled one. Operand: function-space index.
  FProfEnter, ///< f: first body instruction; count one invocation.
  FProfLoop,  ///< f: loop header (branch target); count one execution.
};

/// One translated function: a linear code stream plus the frame shape.
struct FlatFunc {
  uint32_t TypeIdx = 0;
  uint32_t NumParams = 0;
  uint32_t NumRegs = 0; ///< Parameters + declared locals.
  uint32_t NumResults = 0;
  uint32_t MaxDepth = 0; ///< Max operand-stack height inside the body.
  std::vector<uint32_t> Code;
};

/// A whole translated module.
struct FlatModule {
  const wasm::WModule *Source = nullptr;
  uint32_t NumImports = 0;
  std::vector<FlatFunc> Funcs; ///< Defined functions only.
  /// Function-space index → canonical type id (index of the first
  /// structurally equal entry in Source->Types); call_indirect compares
  /// these instead of re-comparing FuncTypes at run time.
  std::vector<uint32_t> CanonType;
  /// Whether the code streams contain FProfEnter/FProfLoop bumps. An
  /// instance with profiling on cannot adopt an unprofiled translation
  /// (it re-translates locally); one adopting a profiled translation
  /// allocates its profile table so the bumps always have a target.
  bool Profiled = false;
};

struct TranslateOptions {
  bool Profile = false; ///< Fuse FProfEnter/FProfLoop into the code.
};

/// Translates every function of \p M. The module must outlive the result.
/// An unprofiled translation copies the flat code of a pretranslated
/// shared body (pretranslateShared) instead of translating it again.
Expected<FlatModule> translate(const wasm::WModule &M);
Expected<FlatModule> translate(const wasm::WModule &M,
                               const TranslateOptions &TO);

/// Translates a shared body once, unprofiled, and stores the code in
/// S.FlatCode / S.FlatMaxDepth. The body must be valid in the environment
/// S names and must not call (wasm::proveShared checks both).
Status pretranslateShared(wasm::SharedFunc &S);

} // namespace rw::exec

#endif // RICHWASM_EXEC_TRANSLATE_H
