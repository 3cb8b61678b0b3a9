//===- exec/Translate.h - Wasm AST → flat bytecode --------------*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-time validation and translation of a wasm::WModule into the flat
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
/// Translation is validation: the emitter here is the sink of the
/// validator's one walk over each body (wasm/Validate.h), so translate()
/// rejects exactly what wasm::validate rejects, with its message, and
/// emits code only for what the walk has already type-checked. The walk
/// supplies every operand height and label arity; the emitter adds the
/// jump targets, superinstruction fusion and profile bumps.
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

/// Validates \p M and translates every function in the same walk
/// (wasm::walkModule driving the flat-code emitter): on failure the error
/// is wasm::validate's, byte for byte, under the same operand-depth cap
/// (uncapped where none is given). The module must outlive the result.
/// An unprofiled translation copies the flat code of a proven shared body
/// (proveShared) instead of walking it again.
Expected<FlatModule> translate(const wasm::WModule &M,
                               uint32_t MaxOperandDepth = ~uint32_t(0));
Expected<FlatModule> translate(const wasm::WModule &M,
                               const TranslateOptions &TO);

/// Validates a shared body once, from scratch, in the environment it
/// names (wasm::sharedEnvironment), and translates it, unprofiled, in the
/// same walk. Sets S.ProvenDepth (the deepest block-relative operand
/// stack the walk saw) and S.FlatCode / S.FlatMaxDepth; wasm::validate
/// and translate then reuse that work in every module wasm::provenIn
/// accepts. Bodies that call are rejected: call indices are not the same
/// across modules.
Status proveShared(wasm::SharedFunc &S);

} // namespace rw::exec

#endif // RICHWASM_EXEC_TRANSLATE_H
