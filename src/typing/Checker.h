//===- typing/Checker.h - RichWasm type checker -----------------*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instruction, function, and module typing judgments of Fig 7. The
/// checker is a deterministic stack simulation: it threads an abstract
/// operand stack (exact types) and the local environment L through each
/// instruction, enforcing the paper's qualifier (linearity), size (strong
/// update), capability, and scoping premises. Cross-module memory safety is
/// exactly this judgment applied at link boundaries — a module pair whose
/// interaction would violate ownership fails here (the Fig 1/Fig 3 story).
///
/// When given an InfoMap, the checker records each instruction's consumed
/// and produced operand types — the "type information that is implicit in
/// RichWasm instructions which is provided by the type checker" that §6
/// says the Wasm compiler consumes.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_TYPING_CHECKER_H
#define RICHWASM_TYPING_CHECKER_H

#include "support/Error.h"
#include "typing/Context.h"

#include <span>
#include <unordered_map>
#include <vector>

namespace rw::support {
class ThreadPool;
} // namespace rw::support

namespace rw::typing {

/// Operand/result types the checker observed at one instruction, consumed
/// by the RichWasm→Wasm lowering. Recorded only for the instruction kinds
/// the lowering actually consults (see infoConsumedByLowering below) —
/// numerics, control flow, and the erased type-level forms lower without
/// annotations, and recording them was a third of the annotated-check
/// cost. Types are *borrowed* views
/// (ir::TypeRef): every node is interned in the module's TypeArena, whose
/// lifetime spans the check→lower hand-off, so the map never refcounts.
/// Lifetime contract (DESIGN.md §9): an InfoMap is valid while the
/// module's arena is alive; it must not be serialized or cached
/// (ownership boundaries re-own via TypeRef::own()).
struct InstInfo {
  std::vector<ir::TypeRef> Operands; ///< Consumed, bottom of stack first.
  std::vector<ir::TypeRef> Results;  ///< Produced, bottom of stack first.
};

using InfoMap = std::unordered_map<const ir::Inst *, InstInfo>;

/// The instruction kinds whose lowering consults the InfoMap; note() skips
/// every other kind (their annotations were write-only).
constexpr bool infoConsumedByLowering(ir::InstKind K) {
  switch (K) {
  case ir::InstKind::Drop:
  case ir::InstKind::Select:
  case ir::InstKind::GetLocal:
  case ir::InstKind::SetLocal:
  case ir::InstKind::TeeLocal:
  case ir::InstKind::Call:
  case ir::InstKind::CallIndirect:
  case ir::InstKind::MemUnpack:
  case ir::InstKind::StructMalloc:
  case ir::InstKind::StructGet:
  case ir::InstKind::StructSet:
  case ir::InstKind::StructSwap:
  case ir::InstKind::ArrayMalloc:
  case ir::InstKind::ArrayGet:
  case ir::InstKind::ArraySet:
  case ir::InstKind::ExistPack:
    return true;
  default:
    return false;
  }
}

/// Checks a whole module: every function body, global initializer, table
/// entry, and the start function's signature.
Status checkModule(const ir::Module &M, InfoMap *IM = nullptr);

/// Batch admission (DESIGN.md §7): checks every module in \p Mods with the
/// function checks distributed over \p Pool (plus the calling thread),
/// work-stealing balanced. Returns one Status per module, in input order.
///
/// Deterministic diagnostics: per-function results are collected and
/// assembled in (module, function) index order, so the returned statuses —
/// including every error message — are byte-identical to running
/// checkModule(*Mods[i]) sequentially, for any pool size.
///
/// Thread-safety: modules may share a TypeArena (the default, the
/// process-wide one) — the arena is thread-safe and checks intern
/// concurrently into it. The same module must not appear twice in one
/// batch.
///
/// When \p Infos is set it also returns the per-module InfoMaps (resized
/// to one map per module; maps of rejected modules are left empty) so a
/// cold admission pipeline checks exactly once: link::buildArtifact hands
/// these maps to lower::lowerProgram, which never checks on its own (same
/// process, same instruction pointers — the map key is node identity).
/// Function InfoMaps are recorded per function on the pool and merged in
/// (module, function) index order, so the recorded types are identical to
/// a sequential checkModule(M, &IM).
std::vector<Status> checkModules(std::span<const ir::Module *const> Mods,
                                 support::ThreadPool &Pool,
                                 std::vector<InfoMap> *Infos = nullptr);

/// Checks one function against its declared type (module environment
/// required for calls/globals).
Status checkFunction(const ModuleEnv &Env, const ir::Function &F,
                     InfoMap *IM = nullptr);

/// Checks an instruction sequence as the paper's ⊢ e* : τ1* → τ2* with
/// explicit contexts; used heavily by the rule-level unit tests. On
/// success returns the final stack and local environment.
struct SeqResult {
  std::vector<ir::Type> Stack;
  LocalCtx Locals;
};
Expected<SeqResult> checkSeq(const ModuleEnv &Env, const KindCtx &Kinds,
                             const std::optional<std::vector<ir::Type>> &Ret,
                             LocalCtx Locals, std::vector<ir::Type> StackIn,
                             const ir::InstVec &Insts, InfoMap *IM = nullptr);

/// Validates an instantiation-argument prefix against a function type's
/// quantifier list (used by call, inst, and the linker).
Status checkInstantiation(const KindCtx &Kinds, const ir::FunType &FT,
                          const std::vector<ir::Index> &Args, size_t Count);

namespace detail {
/// The non-function module judgments, shared between checkModule and the
/// parallel checkModules so both assemble identical diagnostics. Callers
/// must have the module's arena installed (ArenaScope).
Status checkTableEntries(const ir::Module &M);
Status checkGlobalsAndStart(const ir::Module &M, const ModuleEnv &Env,
                            InfoMap *IM);
} // namespace detail

} // namespace rw::typing

#endif // RICHWASM_TYPING_CHECKER_H
