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

#include <array>
#include <vector>

namespace rw::exec {

/// How a flat instruction moves control.
enum class FClass : uint8_t {
  Plain,    ///< Falls through.
  Jump,     ///< Always branches.
  Cond,     ///< Pops a condition, then branches or falls through.
  Terminal, ///< Leaves the function (return, or a trap).
  Call,     ///< Calls; the callee's type gives the rest of its stack effect.
  Profile,  ///< Fuel-neutral profile bump with no stack effect.
};

/// The flat-only opcodes, one row each, numbered from 0x100 so they never
/// collide with a Wasm byte. Wasm opcodes with a fixed stack effect
/// (wasm::RW_WASM_OPS rows without Dyn) are emitted verbatim, their
/// immediate as operand words: an index, a memarg's static offset, or a
/// constant's bits (i64/f64: lo, hi); nop is erased, and the rest are
/// re-encoded as rows here.
///
///   X(Name, Words, Pops, Pushes, Class) /* operand words */
///
/// Words counts the operand words after the opcode (Var: FBrTable's count
/// n decides). A branch operand is a bare target, when the stack is
/// already in shape, or a (target, keep, reset) triple: move the top
/// `keep` slots to height `reset`, then jump. Pops and Pushes are the
/// effect on the fall-through path; FReturn and the calls also move the
/// values their function type names.
///
/// Superinstructions (FGetGet..FGetConstStoreI32) are peephole fusions of
/// adjacent i32 data ops (adds wrap to 32 bits) formed at translation
/// time, never across a branch target: the translator fences fusion at
/// every label point. Lowered RichWasm code is pure i32 register traffic,
/// so they cover its hottest patterns. FProfEnter/FProfLoop are emitted
/// only by profiled translations (TranslateOptions::Profile), so the
/// steady-state dispatch loop of an unprofiled module never sees them;
/// both are fuel-neutral, so a profiled run traps and halts at exactly the
/// same instruction count as an unprofiled one.
#define RW_FLAT_OPS(X)                                                         \
  X(FGoto,             1,   0, 0, Jump)      /* target */                      \
  X(FBr,               3,   0, 0, Jump)      /* target keep reset */           \
  X(FGotoIf,           1,   1, 0, Cond)      /* target */                      \
  X(FBrIf,             3,   1, 0, Cond)      /* target keep reset */           \
  X(FGotoIfZ,          1,   1, 0, Cond)      /* target; jumps on zero */       \
  X(FBrTable,          Var, 1, 0, Jump)      /* n, then n+1 triples */         \
  X(FReturn,           0,   0, 0, Terminal)                                    \
  X(FCall,             1,   0, 0, Call)      /* defined-function index */      \
  X(FCallHost,         1,   0, 0, Call)      /* import index */                \
  X(FCallIndirect,     1,   1, 0, Call)      /* canonical type id */           \
  X(FGetGet,           2,   0, 2, Plain)     /* a b: push R[a]; push R[b] */   \
  X(FGetConst,         2,   0, 2, Plain)     /* a k: push R[a]; push k */      \
  X(FGetGetAdd,        2,   0, 1, Plain)     /* a b: push R[a] + R[b] */       \
  X(FGetConstAdd,      2,   0, 1, Plain)     /* a k: push R[a] + k */          \
  X(FGetGetAddSet,     3,   0, 0, Plain)     /* a b d: R[d] = R[a] + R[b] */   \
  X(FGetConstAddSet,   3,   0, 0, Plain)     /* a k d: R[d] = R[a] + k */      \
  X(FMove,             2,   0, 0, Plain)     /* a d: R[d] = R[a] */            \
  X(FConstSet,         2,   0, 0, Plain)     /* k d: R[d] = k */               \
  X(FGetLoadI32,       2,   0, 1, Plain)     /* a off: push mem[R[a] + off] */ \
  X(FGetGetStoreI32,   3,   0, 0, Plain)     /* a b off: mem[R[a]+off]=R[b] */ \
  X(FGetConstStoreI32, 3,   0, 0, Plain)     /* a k off: mem[R[a]+off]=k */    \
  X(FProfEnter,        1,   0, 0, Profile)   /* f: count one invocation */     \
  X(FProfLoop,         1,   0, 0, Profile)   /* f: count one loop head */

enum FOp : uint32_t {
  FOpBase = 0xff, ///< The rows start at 0x100.
#define RW_FOP_ENUM(Name, ...) Name,
  RW_FLAT_OPS(RW_FOP_ENUM)
#undef RW_FOP_ENUM
  FOpEnd
};

/// The shape of one flat opcode word.
struct FlatOpInfo {
  static constexpr uint8_t Var = 0xff;
  bool Valid = false; ///< The word can start a flat instruction.
  uint8_t Words = 0, Pops = 0, Pushes = 0;
  FClass Class = FClass::Plain;
};

namespace detail {
constexpr std::array<FlatOpInfo, FOpEnd> buildFlatOpTable() {
  using wasm::ImmKind;
  std::array<FlatOpInfo, FOpEnd> T{};
  for (unsigned B = 0; B < wasm::OpTable.size(); ++B) {
    const wasm::OpInfo &R = wasm::OpTable[B];
    if (!R.Valid || R.Pops == wasm::OpInfo::Dyn)
      continue;
    uint8_t Words = R.Imm == ImmKind::Const64 ? 2
                    : R.Imm == ImmKind::Index || R.Imm == ImmKind::Memarg ||
                            R.Imm == ImmKind::Const32
                        ? 1
                        : 0;
    T[B] = {true, Words, R.Pops, R.Pushes,
            B == static_cast<unsigned>(wasm::Op::Unreachable)
                ? FClass::Terminal
                : FClass::Plain};
  }
  constexpr uint8_t Var = FlatOpInfo::Var;
#define RW_FOP_ROW(Name, Wd, Po, Pu, Cl)                                       \
  T[Name] = {true, Wd, Po, Pu, FClass::Cl};
  RW_FLAT_OPS(RW_FOP_ROW)
#undef RW_FOP_ROW
  return T;
}
inline constexpr std::array<FlatOpInfo, FOpEnd> FlatOpTable =
    buildFlatOpTable();
} // namespace detail

/// The shape of flat word \p W: its RW_FLAT_OPS row, or the Wasm row it
/// reuses verbatim; !Valid for any other word.
constexpr FlatOpInfo flatOpInfo(uint32_t W) {
  return W < FOpEnd ? detail::FlatOpTable[W] : FlatOpInfo{};
}

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
