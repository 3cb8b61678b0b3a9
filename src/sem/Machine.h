//===- sem/Machine.h - RichWasm small-step reduction machine ----*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The small-step machine implementing the reduction relation of Fig 4,
/// s; v*; sz*; e* ↪_j s'; v'*; e'*. Code sequences mix source instructions,
/// fully-reduced values, and the administrative instructions trap,
/// label{...}, local{...} (frames), malloc, free, and call cl z*. One
/// `step()` performs exactly one reduction, locating the innermost redex by
/// walking nested labels and frames — this is what the preservation
/// property tests re-typecheck around. `run()` iterates to completion.
///
/// Garbage collection of the unrestricted memory is the paper's collect
/// rule, exposed as collect(): roots are the locations appearing in the
/// configuration's values, locals, and instance globals; unreachable
/// unrestricted cells are collected, and unreachable linear cells (owned
/// via collected unrestricted data) are finalized.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_SEM_MACHINE_H
#define RICHWASM_SEM_MACHINE_H

#include "ir/Rewrite.h"
#include "ir/TypeArena.h"
#include "sem/Store.h"
#include "sem/Value.h"
#include "support/Error.h"

#include <memory>
#include <vector>

namespace rw::sem {

struct Code;
using CodeSeq = std::vector<Code>;

enum class CodeKind : uint8_t {
  Inst,    ///< A source instruction (possibly a substituted clone).
  Val,     ///< A fully reduced value.
  Trap,    ///< The trap administrative instruction.
  Label,   ///< label_n {cont} body end
  Frame,   ///< local_n {j; (v, sz)*} body end
  Malloc,  ///< malloc sz hv q
  FreeAdm, ///< free (consumes a linear reference)
  CallAdm, ///< call cl z*
};

struct LabelData {
  uint32_t Arity = 0;     ///< Values delivered by a br to this label.
  ir::InstRef LoopCont;   ///< Loop labels re-execute this; null for blocks.
  CodeSeq Body;
};

struct FrameData {
  uint32_t Arity = 0; ///< Result count of the call.
  uint32_t InstIdx = 0;
  std::vector<Value> Locals;
  std::vector<uint64_t> SlotBits;
  CodeSeq Body;
};

struct MallocData {
  uint64_t SizeBits = 0;
  HeapValue HV;
  ir::MemKind M = ir::MemKind::Unr;
};

struct CallData {
  Closure Cl;
  std::vector<ir::Index> TypeArgs;
};

/// One element of an evaluation sequence.
struct Code {
  CodeKind K = CodeKind::Trap;
  ir::InstRef I;
  Value V;
  std::shared_ptr<LabelData> Lbl;
  std::shared_ptr<FrameData> Frm;
  std::shared_ptr<MallocData> Mal;
  std::shared_ptr<CallData> Call;

  static Code inst(ir::InstRef In) {
    Code C;
    C.K = CodeKind::Inst;
    C.I = std::move(In);
    return C;
  }
  static Code val(Value X) {
    Code C;
    C.K = CodeKind::Val;
    C.V = std::move(X);
    return C;
  }
  static Code trap() { return Code(); }
  static Code label(uint32_t Arity, ir::InstRef LoopCont, CodeSeq Body) {
    Code C;
    C.K = CodeKind::Label;
    C.Lbl = std::make_shared<LabelData>();
    C.Lbl->Arity = Arity;
    C.Lbl->LoopCont = std::move(LoopCont);
    C.Lbl->Body = std::move(Body);
    return C;
  }
  static Code frame(uint32_t Arity, uint32_t InstIdx,
                    std::vector<Value> Locals, std::vector<uint64_t> Slots,
                    CodeSeq Body) {
    Code C;
    C.K = CodeKind::Frame;
    C.Frm = std::make_shared<FrameData>();
    C.Frm->Arity = Arity;
    C.Frm->InstIdx = InstIdx;
    C.Frm->Locals = std::move(Locals);
    C.Frm->SlotBits = std::move(Slots);
    C.Frm->Body = std::move(Body);
    return C;
  }
  static Code malloc(uint64_t SizeBits, HeapValue HV, ir::MemKind M) {
    Code C;
    C.K = CodeKind::Malloc;
    C.Mal = std::make_shared<MallocData>();
    C.Mal->SizeBits = SizeBits;
    C.Mal->HV = std::move(HV);
    C.Mal->M = M;
    return C;
  }
  static Code freeAdm() {
    Code C;
    C.K = CodeKind::FreeAdm;
    return C;
  }
  static Code callAdm(Closure Cl, std::vector<ir::Index> TypeArgs) {
    Code C;
    C.K = CodeKind::CallAdm;
    C.Call = std::make_shared<CallData>();
    C.Call->Cl = Cl;
    C.Call->TypeArgs = std::move(TypeArgs);
    return C;
  }
};

/// Converts an instruction vector into a code sequence.
CodeSeq toCode(const ir::InstVec &Insts);

/// A program configuration: the store lives in the Machine; this is the
/// v*; sz*; e* part plus the executing module index.
struct Config {
  CodeSeq Program;
  std::vector<Value> Locals;
  std::vector<uint64_t> SlotBits;
  uint32_t InstIdx = 0;
};

/// The observable status after one step.
enum class StepStatus : uint8_t {
  Stepped, ///< One reduction applied.
  Done,    ///< The program is a (possibly empty) sequence of values.
  Trapped, ///< The program is a single trap.
  Stuck,   ///< No rule applies — a soundness violation for checked code.
};

/// The RichWasm abstract machine.
class Machine {
public:
  explicit Machine(Store S) : S(std::move(S)) {}

  Store &store() { return S; }
  const Store &store() const { return S; }
  Config &config() { return C; }
  const Config &config() const { return C; }

  /// Prepares a call of function \p FuncIdx of instance \p InstIdx with
  /// quantifier instantiation \p TypeArgs and arguments \p Args.
  void setupInvoke(uint32_t InstIdx, uint32_t FuncIdx,
                   std::vector<ir::Index> TypeArgs, std::vector<Value> Args);

  /// Prepares a bare instruction sequence (used for global initializers).
  void setupProgram(uint32_t InstIdx, const ir::InstVec &Body) {
    C = Config();
    C.InstIdx = InstIdx;
    C.Program = toCode(Body);
  }

  /// Performs one reduction step.
  StepStatus step();

  /// Steps until completion, trap, or \p MaxSteps. On success returns the
  /// final value stack.
  Expected<std::vector<Value>> run(uint64_t MaxSteps = 100'000'000);

  /// setupInvoke followed by run.
  Expected<std::vector<Value>> invoke(uint32_t InstIdx, uint32_t FuncIdx,
                                      std::vector<ir::Index> TypeArgs,
                                      std::vector<Value> Args,
                                      uint64_t MaxSteps = 100'000'000);

  /// Runs the collect rule: garbage-collects unreachable unrestricted
  /// cells and finalizes unreachable linear cells. Returns the number of
  /// cells reclaimed.
  uint64_t collect();

  uint64_t stepCount() const { return Steps; }

private:
  struct LocalEnv {
    std::vector<Value> *Locals;
    std::vector<uint64_t> *Slots;
    uint32_t InstIdx;
  };

  enum class SeqResult : uint8_t {
    Stepped,
    AllValues,
    Trapped,
    Breaking,
    Returning,
    Stuck,
  };
  struct StepOut {
    SeqResult R;
    uint32_t BreakDepth = 0;
    std::vector<Value> Vals;
  };

  StepOut stepSeq(CodeSeq &Seq, const LocalEnv &Env);
  StepOut execInst(CodeSeq &Seq, size_t K, const LocalEnv &Env);
  StepOut execNumeric(CodeSeq &Seq, size_t K, const ir::Inst &I);

  /// Replaces Seq[K-NPop .. K] with Repl. Returns Stepped.
  StepOut reduceAt(CodeSeq &Seq, size_t K, size_t NPop,
                   std::vector<Code> Repl);

  Store S;
  Config C;
  uint64_t Steps = 0;

  /// Arena for types the *runtime* creates while stepping — call-site
  /// instantiations, mem.unpack bodies specialized to concrete addresses,
  /// existential witnesses. These are never compared, only sized, and a
  /// long run mints one per fresh address; giving them a machine-owned
  /// arena (instead of the immortal process-wide one) lets them die with
  /// the machine. Module types remain canonical in the module's arena and
  /// are shared as children untouched.
  std::shared_ptr<ir::TypeArena> RuntimeTypes =
      std::make_shared<ir::TypeArena>();
};

} // namespace rw::sem

#endif // RICHWASM_SEM_MACHINE_H
