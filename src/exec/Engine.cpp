//===- exec/Engine.cpp - Flat-bytecode Wasm engine --------------------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exec/Engine.h"

#include "jit/Jit.h"
#include "obs/Obs.h"
#include "support/NumericOps.h"
#include "wasm/Interp.h"

#include <cstdlib>
#include <cstring>

using namespace rw;
using namespace rw::exec;
using namespace rw::wasm;

FlatInstance::FlatInstance(const wasm::WModule &M, wasm::EngineKind K)
    : Instance(M), Kind(K) {}

FlatInstance::~FlatInstance() = default;

#if RW_JIT_ENABLED
/// RW_JIT_THRESHOLD (same meaning as setTierPolicy; unset = never), read
/// once per process: instances are created on every admission.
static uint64_t envTierThreshold() {
  static const uint64_t T = [] {
    const char *E = std::getenv("RW_JIT_THRESHOLD");
    return E ? std::strtoull(E, nullptr, 10) : FlatInstance::NeverTier;
  }();
  return T;
}
#endif

uint32_t FlatInstance::jitCompiledCount() const {
#if RW_JIT_ENABLED
  return Jit ? Jit->compiledCount() : 0;
#else
  return 0;
#endif
}

Status FlatInstance::prepare() {
  if (PreFM && PreFM->Source != M)
    return Error("flat engine: adopted translation describes a different "
                 "module");
#if RW_JIT_ENABLED
  // Resolve the tier-up policy before the translation decision: a
  // threshold >= 1 needs the profile counters, so profiling must be on
  // before we pick (or produce) a translation. EngineKind::Jit defaults
  // to eager whole-module compilation; plain Flat instances honor
  // RW_JIT_THRESHOLD so the whole test suite can be run fully jitted.
  if (!TierPolicySet)
    TierThreshold = Kind == wasm::EngineKind::Jit ? 0 : envTierThreshold();
  if (TierThreshold != NeverTier && TierThreshold > 0 && !ProfileOn)
    enableProfiling();
#endif
  // A profiling instance needs FProfEnter/FProfLoop in the code; an
  // adopted unprofiled translation (the cache keeps the canonical,
  // unprofiled artifact) cannot serve it, so re-translate locally.
  if (PreFM && (!ProfileOn || PreFM->Profiled)) {
    Active = PreFM.get();
  } else {
    Expected<FlatModule> R = translate(*M, TranslateOptions{ProfileOn});
    if (!R)
      return R.error();
    FM = R.take();
    Active = &FM;
  }
  if (Active->Profiled) {
    // Profiled code bumps through the profile table unconditionally;
    // make sure it exists even if profiling was turned on via adoption.
    ProfileOn = true;
    ensureProfileTable();
  }
#if RW_JIT_ENABLED
  if (TierThreshold != NeverTier) {
    Jit = std::make_unique<jit::ModuleJit>(*Active);
    if (TierThreshold == 0)
      Jit->compileAll();
    // Native code bounds accesses by Mem.size() and reads memory.size
    // from it, so a jitting instance commits all its memory now;
    // memoryGrow keeps it that way.
    commitMemory(MemBytes);
  }
#endif
  return Status::success();
}

Expected<std::vector<WValue>> FlatInstance::invoke(uint32_t FuncIdx,
                                                   std::vector<WValue> Args,
                                                   uint64_t MaxFuel) {
  if (!Active || !Active->Source)
    return Error("flat engine: instance not initialized");
  const FlatModule &FM = *Active;
  const FuncType &FT = M->funcType(FuncIdx);

#if RW_JIT_ENABLED
  // Threshold tiering: compile functions whose profile mass crossed the
  // threshold before entering (counters from earlier invokes; this
  // invoke then starts native). Never runs for eager or disabled tiers.
  if (Jit && TierThreshold != NeverTier && TierThreshold > 0 && !Running)
    maybeTierUp();
#endif

  // Invoking an import dispatches straight to the host, like the tree
  // engine's callFunction — including its result handling: keep the
  // last |results| values, error when the host returns too few.
  if (FuncIdx < FM.NumImports) {
    const HostFn *H = hostFor(FuncIdx);
    if (!H)
      return Error("trap: unsatisfied import" + trapNote(FuncIdx));
    if (ProfileOn)
      ++Prof[FuncIdx].Invocations;
    Expected<std::vector<WValue>> R = (*H)(*this, Args);
    if (!R)
      return Error("trap: " + R.error().message() + trapNote(FuncIdx));
    if (R->size() < FT.Results.size())
      return Error("function left too few results");
    return std::vector<WValue>(R->end() - FT.Results.size(), R->end());
  }

  // Host functions receive a reference to their calling instance; calling
  // invoke() on it while run() is live below would scribble over the
  // operand stack, register file, and frame stack of the suspended
  // execution. Detect the re-entry and trap instead.
  if (Running)
    return Error("trap: re-entrant invoke on a running instance (a host "
                 "function called back into its caller)" +
                 trapNote(FuncIdx));

  const FlatFunc &F = FM.Funcs[FuncIdx - FM.NumImports];
  if (Args.size() < F.NumParams)
    return Error("trap: call stack underflow" + trapNote(FuncIdx));

  Frames.clear();
  if (Regs.size() < F.NumRegs)
    Regs.resize(F.NumRegs);
  for (uint32_t I = 0; I < F.NumRegs; ++I)
    Regs[I] = I < F.NumParams ? Args[I].Bits : 0;
  if (OpStack.size() < F.MaxDepth)
    OpStack.resize(F.MaxDepth);
  Frames.push_back({&F, 0, 0, 0});

  std::string TrapMsg;
  uint64_t Fuel = MaxFuel;
  ResumeSp = 0;
  Running = true;
  bool Ok = false;
#if RW_JIT_ENABLED
  if (Jit && Jit->entry(FuncIdx - FM.NumImports)) {
    // Root frame is compiled: run it natively; on a deopt the flat
    // interpreter resumes from the recorded frame state below.
    switch (jitExecuteBack(Fuel)) {
    case JitRun::Done:
      Ok = true;
      break;
    case JitRun::Trapped:
      TrapMsg = JitTrapMsg;
      Ok = false;
      break;
    case JitRun::Resume:
      Ok = run(Fuel, TrapMsg);
      break;
    }
  } else {
    Ok = run(Fuel, TrapMsg);
  }
#else
  Ok = run(Fuel, TrapMsg);
#endif
  Running = false;
  Executed += MaxFuel - Fuel;
  if (!Ok)
    return Error("trap: " + TrapMsg + trapNote(LastTrapFunc));

  std::vector<WValue> Out;
  Out.reserve(FT.Results.size());
  for (uint32_t I = 0; I < FT.Results.size(); ++I)
    Out.push_back({FT.Results[I], OpStack[I]});
  return Out;
}

/// The trap message bytes of \p T (the tree engine's, byte for byte).
static const char *numTrapMessage(NumTrap T) {
  switch (T) {
  case NumTrap::IntDivide:
    return "integer divide error";
  case NumTrap::InvalidConversion:
    return "invalid conversion to integer";
  default:
    return "unhandled opcode";
  }
}

//===----------------------------------------------------------------------===//
// Dispatch plumbing: one switch over the opcode word (DESIGN.md §5). One
// fuel decrement per dispatched instruction doubles as the
// executed-instruction counter (Executed = MaxFuel - Fuel at exit).
//===----------------------------------------------------------------------===//

#define RW_OPW(NAME) case static_cast<uint32_t>(Op::NAME):
#define RW_OPF(NAME) case NAME:
#define RW_DEFAULT() default:
#define RW_NEXT() continue
#define RW_LOOP_BEGIN()                                                        \
  for (;;) {                                                                   \
    if (Fuel == 0)                                                             \
      return trapOut("fuel exhausted");                                        \
    --Fuel;                                                                    \
    OpC = *Pc++;                                                               \
    switch (OpC) {
#define RW_LOOP_END()                                                          \
  }                                                                            \
  }

bool FlatInstance::run(uint64_t &FuelRef, std::string &TrapMsg) {
  const FlatModule &FM = *Active;
  uint64_t Fuel = FuelRef; // Local for the hot loop; written back on exit.

  CallFrame *Fr = &Frames.back();
  const uint32_t *C = Fr->F->Code.data();
  // Fresh invokes enter at Pc 0 / height 0; after a native deopt this
  // resumes mid-function at the frame's recorded pc and operand height.
  const uint32_t *Pc = C + Fr->Pc;
  uint64_t *Ops = OpStack.data();
  uint64_t *R = Regs.data() + Fr->RegBase;
  uint32_t Base = Fr->OpBase;
  uint32_t Sp = Base + ResumeSp; // Absolute operand-stack index.
  ResumeSp = 0;
  uint8_t *MemP = Mem.data();
  size_t MemSz = Mem.size();
  uint32_t OpC = 0;

  // Call-transfer scratch shared by FCall / FCallIndirect.
  uint32_t CalleeIdx = 0;
  uint32_t HostIdx = 0;

  // Profile table base; non-null whenever Active->Profiled (prepare()
  // guarantees the table), which is the only way FProf ops get executed.
  FunctionProfile *PT = Prof.empty() ? nullptr : Prof.data();

  auto trapOutAt = [&](std::string Msg, uint32_t Func) {
    TrapMsg = std::move(Msg);
    LastTrapFunc = Func;
    FuelRef = Fuel;
    Frames.clear();
    return false;
  };
  // Default attribution: the function executing when the trap fired
  // (matches the tree engine's innermost-frame rule; call_indirect
  // table/signature traps land on the caller in both).
  auto trapOut = [&](std::string Msg) {
    return trapOutAt(std::move(Msg),
                     static_cast<uint32_t>(Fr->F - FM.Funcs.data()) +
                         FM.NumImports);
  };
// The slow half of every memory access's bounds check: the access ends
// past the committed prefix. Commit up to END and reload the cached
// memory, or trap when END is past the logical size.
#define RW_COMMIT(END)                                                         \
  do {                                                                         \
    if (!commitMemory(END))                                                    \
      return trapOut("out-of-bounds memory access");                           \
    MemP = Mem.data();                                                         \
    MemSz = Mem.size();                                                        \
  } while (0)

  RW_LOOP_BEGIN()

  //===--------------------------------------------------------------===//
  // Control
  //===--------------------------------------------------------------===//
  RW_OPW(Unreachable)
  return trapOut("unreachable executed");

  RW_OPF(FGoto)
  Pc = C + *Pc;
  RW_NEXT();

  RW_OPF(FGotoIf) {
    uint32_t Cond = static_cast<uint32_t>(Ops[--Sp]);
    Pc = Cond ? C + *Pc : Pc + 1;
    RW_NEXT();
  }

  RW_OPF(FGotoIfZ) {
    uint32_t Cond = static_cast<uint32_t>(Ops[--Sp]);
    Pc = Cond ? Pc + 1 : C + *Pc;
    RW_NEXT();
  }

  RW_OPF(FBr) {
    uint32_t Target = Pc[0], Keep = Pc[1], Reset = Pc[2];
    uint64_t *Dst = Ops + Base + Reset, *Src = Ops + Sp - Keep;
    for (uint32_t K = 0; K < Keep; ++K)
      Dst[K] = Src[K];
    Sp = Base + Reset + Keep;
    Pc = C + Target;
    RW_NEXT();
  }

  RW_OPF(FBrIf) {
    uint32_t Cond = static_cast<uint32_t>(Ops[--Sp]);
    if (!Cond) {
      Pc += 3;
      RW_NEXT();
    }
    uint32_t Target = Pc[0], Keep = Pc[1], Reset = Pc[2];
    uint64_t *Dst = Ops + Base + Reset, *Src = Ops + Sp - Keep;
    for (uint32_t K = 0; K < Keep; ++K)
      Dst[K] = Src[K];
    Sp = Base + Reset + Keep;
    Pc = C + Target;
    RW_NEXT();
  }

  RW_OPF(FBrTable) {
    uint32_t N = *Pc++;
    uint32_t Idx = static_cast<uint32_t>(Ops[--Sp]);
    const uint32_t *Entry = Pc + 3 * (Idx < N ? Idx : N);
    uint32_t Target = Entry[0], Keep = Entry[1], Reset = Entry[2];
    uint64_t *Dst = Ops + Base + Reset, *Src = Ops + Sp - Keep;
    for (uint32_t K = 0; K < Keep; ++K)
      Dst[K] = Src[K];
    Sp = Base + Reset + Keep;
    Pc = C + Target;
    RW_NEXT();
  }

  RW_OPF(FReturn) {
    uint32_t NRes = Fr->F->NumResults;
    uint64_t *Dst = Ops + Base, *Src = Ops + Sp - NRes;
    if (Dst != Src)
      for (uint32_t K = 0; K < NRes; ++K)
        Dst[K] = Src[K];
    Sp = Base + NRes;
    Frames.pop_back();
    if (Frames.empty()) {
      FuelRef = Fuel;
      return true;
    }
    Fr = &Frames.back();
    C = Fr->F->Code.data();
    Pc = C + Fr->Pc;
    R = Regs.data() + Fr->RegBase;
    Base = Fr->OpBase;
    RW_NEXT();
  }

  //===--------------------------------------------------------------===//
  // Calls
  //===--------------------------------------------------------------===//
  RW_OPF(FCall)
  CalleeIdx = *Pc++;
  goto direct_call;

  RW_OPF(FCallHost)
  HostIdx = *Pc++;
  goto host_call;

  RW_OPF(FCallIndirect) {
    uint32_t Expect = *Pc++;
    uint32_t Func = 0;
    if (const char *Msg =
            resolveIndirect(static_cast<uint32_t>(Ops[--Sp]), Expect, Func))
      return trapOut(Msg);
    if (Func < FM.NumImports) {
      HostIdx = Func;
      goto host_call;
    }
    CalleeIdx = Func - FM.NumImports;
    goto direct_call;
  }

direct_call: {
  if (!pushFrame(CalleeIdx, Sp, static_cast<uint32_t>(Pc - C)))
    // Attributed to the callee that failed to get a frame (the tree
    // engine's innermost attempted call claims this trap too).
    return trapOutAt("call stack exhausted", CalleeIdx + FM.NumImports);
  Fr = &Frames.back();
  const FlatFunc *Callee = Fr->F;
  Sp = Fr->OpBase;
#if RW_JIT_ENABLED
  if (Jit && Jit->entry(CalleeIdx)) {
    // Tiered-up callee: run it natively. Done pops the frame with the
    // results at its base; Resume re-enters this loop at the deopt point
    // (possibly in a deeper frame); Trapped is fully recorded.
    switch (jitExecuteBack(Fuel)) {
    case JitRun::Done:
      Sp += Callee->NumResults;
      break;
    case JitRun::Trapped:
      TrapMsg = JitTrapMsg;
      FuelRef = Fuel;
      return false;
    case JitRun::Resume:
      Sp = Frames.back().OpBase + ResumeSp;
      ResumeSp = 0;
      break;
    }
    Fr = &Frames.back();
    C = Fr->F->Code.data();
    Pc = C + Fr->Pc;
    Ops = OpStack.data();
    R = Regs.data() + Fr->RegBase;
    Base = Fr->OpBase;
    MemP = Mem.data();
    MemSz = Mem.size();
    RW_NEXT();
  }
#endif
  C = Callee->Code.data();
  Pc = C;
  Ops = OpStack.data();
  R = Regs.data() + Fr->RegBase;
  Base = Sp;
  RW_NEXT();
}

host_call: {
  // A result-count drift is tolerated: the operand height just follows.
  std::string Msg;
  if (hostCall(HostIdx, Sp, Msg) == HostCall::Trap)
    return trapOutAt(std::move(Msg), HostIdx);
  Ops = OpStack.data();
  // The host may have touched (or grown) the instance memory.
  MemP = Mem.data();
  MemSz = Mem.size();
  RW_NEXT();
}

  //===--------------------------------------------------------------===//
  // Superinstructions (translator peephole fusions; see Translate.h)
  //===--------------------------------------------------------------===//
  RW_OPF(FGetGet) {
    Ops[Sp] = R[Pc[0]];
    Ops[Sp + 1] = R[Pc[1]];
    Sp += 2;
    Pc += 2;
    RW_NEXT();
  }

  RW_OPF(FGetConst) {
    Ops[Sp] = R[Pc[0]];
    Ops[Sp + 1] = Pc[1];
    Sp += 2;
    Pc += 2;
    RW_NEXT();
  }

  RW_OPF(FGetGetAdd) {
    Ops[Sp++] = static_cast<uint32_t>(R[Pc[0]] + R[Pc[1]]);
    Pc += 2;
    RW_NEXT();
  }

  RW_OPF(FGetConstAdd) {
    Ops[Sp++] = static_cast<uint32_t>(R[Pc[0]] + Pc[1]);
    Pc += 2;
    RW_NEXT();
  }

  RW_OPF(FGetGetAddSet) {
    R[Pc[2]] = static_cast<uint32_t>(R[Pc[0]] + R[Pc[1]]);
    Pc += 3;
    RW_NEXT();
  }

  RW_OPF(FGetConstAddSet) {
    R[Pc[2]] = static_cast<uint32_t>(R[Pc[0]] + Pc[1]);
    Pc += 3;
    RW_NEXT();
  }

  RW_OPF(FMove) {
    R[Pc[1]] = R[Pc[0]];
    Pc += 2;
    RW_NEXT();
  }

  RW_OPF(FConstSet) {
    R[Pc[1]] = Pc[0];
    Pc += 2;
    RW_NEXT();
  }

  RW_OPF(FGetLoadI32) {
    uint64_t Addr =
        static_cast<uint32_t>(R[Pc[0]]) + static_cast<uint64_t>(Pc[1]);
    Pc += 2;
    if (Addr + 4 > MemSz)
      RW_COMMIT(Addr + 4);
    uint32_t V;
    std::memcpy(&V, MemP + Addr, 4);
    Ops[Sp++] = V;
    RW_NEXT();
  }

  RW_OPF(FGetGetStoreI32) {
    uint64_t Addr =
        static_cast<uint32_t>(R[Pc[0]]) + static_cast<uint64_t>(Pc[2]);
    uint32_t V = static_cast<uint32_t>(R[Pc[1]]);
    Pc += 3;
    if (Addr + 4 > MemSz)
      RW_COMMIT(Addr + 4);
    std::memcpy(MemP + Addr, &V, 4);
    RW_NEXT();
  }

  RW_OPF(FGetConstStoreI32) {
    uint64_t Addr =
        static_cast<uint32_t>(R[Pc[0]]) + static_cast<uint64_t>(Pc[2]);
    uint32_t V = Pc[1];
    Pc += 3;
    if (Addr + 4 > MemSz)
      RW_COMMIT(Addr + 4);
    std::memcpy(MemP + Addr, &V, 4);
    RW_NEXT();
  }

  //===--------------------------------------------------------------===//
  // Execution profiling (present only in profiled translations). The
  // ++Fuel refunds the dispatch decrement: profiled and unprofiled runs
  // agree on fuel, trap points, and Executed exactly.
  //===--------------------------------------------------------------===//
  RW_OPF(FProfEnter) {
    ++Fuel;
    ++PT[*Pc++].Invocations;
    RW_NEXT();
  }

  RW_OPF(FProfLoop) {
    ++Fuel;
    ++PT[*Pc++].LoopHeads;
    RW_NEXT();
  }

  //===--------------------------------------------------------------===//
  // Parametric / variables
  //===--------------------------------------------------------------===//
  RW_OPW(Drop)
  --Sp;
  RW_NEXT();

  RW_OPW(Select) {
    uint32_t Cond = static_cast<uint32_t>(Ops[Sp - 1]);
    Sp -= 2;
    Ops[Sp - 1] = Cond ? Ops[Sp - 1] : Ops[Sp];
    RW_NEXT();
  }

  RW_OPW(LocalGet)
  Ops[Sp++] = R[*Pc++];
  RW_NEXT();

  RW_OPW(LocalSet)
  R[*Pc++] = Ops[--Sp];
  RW_NEXT();

  RW_OPW(LocalTee)
  R[*Pc++] = Ops[Sp - 1];
  RW_NEXT();

  RW_OPW(GlobalGet)
  Ops[Sp++] = Globals[*Pc++].Bits;
  RW_NEXT();

  RW_OPW(GlobalSet)
  Globals[*Pc++].Bits = Ops[--Sp];
  RW_NEXT();

  //===--------------------------------------------------------------===//
  // Memory
  //===--------------------------------------------------------------===//
  RW_OPW(MemorySize)
  Ops[Sp++] = MemBytes / PageSize;
  RW_NEXT();

  RW_OPW(MemoryGrow)
  Ops[Sp - 1] = memoryGrow(static_cast<uint32_t>(Ops[Sp - 1]));
  MemP = Mem.data();
  MemSz = Mem.size();
  RW_NEXT();

#define RW_LOAD(NBYTES, EXPR)                                                  \
  {                                                                            \
    uint64_t Addr =                                                            \
        static_cast<uint32_t>(Ops[Sp - 1]) + static_cast<uint64_t>(*Pc++);     \
    if (Addr + (NBYTES) > MemSz)                                               \
      RW_COMMIT(Addr + (NBYTES));                                              \
    uint64_t V = 0;                                                            \
    std::memcpy(&V, MemP + Addr, (NBYTES));                                    \
    Ops[Sp - 1] = (EXPR);                                                      \
    RW_NEXT();                                                                 \
  }
#define RW_STORE(NBYTES)                                                       \
  {                                                                            \
    uint64_t Val = Ops[Sp - 1];                                                \
    uint64_t Addr =                                                            \
        static_cast<uint32_t>(Ops[Sp - 2]) + static_cast<uint64_t>(*Pc++);     \
    Sp -= 2;                                                                   \
    if (Addr + (NBYTES) > MemSz)                                               \
      RW_COMMIT(Addr + (NBYTES));                                              \
    std::memcpy(MemP + Addr, &Val, (NBYTES));                                  \
    RW_NEXT();                                                                 \
  }

  RW_OPW(I32Load) RW_OPW(F32Load) RW_LOAD(4, V)
  RW_OPW(I64Load) RW_OPW(F64Load) RW_LOAD(8, V)
  RW_OPW(I32Load8S)
  RW_LOAD(1, static_cast<uint64_t>(
                 static_cast<int64_t>(static_cast<int8_t>(V))) &
                 0xffffffffu)
  RW_OPW(I32Load8U) RW_LOAD(1, V)
  RW_OPW(I32Load16S)
  RW_LOAD(2, static_cast<uint64_t>(
                 static_cast<int64_t>(static_cast<int16_t>(V))) &
                 0xffffffffu)
  RW_OPW(I32Load16U) RW_LOAD(2, V)
  RW_OPW(I64Load8S)
  RW_LOAD(1,
          static_cast<uint64_t>(static_cast<int64_t>(static_cast<int8_t>(V))))
  RW_OPW(I64Load8U) RW_LOAD(1, V)
  RW_OPW(I64Load16S)
  RW_LOAD(2,
          static_cast<uint64_t>(static_cast<int64_t>(static_cast<int16_t>(V))))
  RW_OPW(I64Load16U) RW_LOAD(2, V)
  RW_OPW(I64Load32S)
  RW_LOAD(4,
          static_cast<uint64_t>(static_cast<int64_t>(static_cast<int32_t>(V))))
  RW_OPW(I64Load32U) RW_LOAD(4, V)

  RW_OPW(I32Store) RW_OPW(F32Store) RW_OPW(I64Store32) RW_STORE(4)
  RW_OPW(I64Store) RW_OPW(F64Store) RW_STORE(8)
  RW_OPW(I32Store8) RW_OPW(I64Store8) RW_STORE(1)
  RW_OPW(I32Store16) RW_OPW(I64Store16) RW_STORE(2)

#undef RW_LOAD
#undef RW_STORE
#undef RW_COMMIT

  //===--------------------------------------------------------------===//
  // Constants
  //===--------------------------------------------------------------===//
  RW_OPW(I32Const) RW_OPW(F32Const)
  Ops[Sp++] = *Pc++;
  RW_NEXT();

  RW_OPW(I64Const) RW_OPW(F64Const) {
    uint64_t Lo = Pc[0], Hi = Pc[1];
    Pc += 2;
    Ops[Sp++] = Lo | (Hi << 32);
    RW_NEXT();
  }

  //===--------------------------------------------------------------===//
  // Hot ALU ops: dedicated handlers so the common path is one indirect
  // jump instead of the range chain in the generic tail.
  //===--------------------------------------------------------------===//
#define RW_BIN32(OPNAME, EXPR)                                                 \
  RW_OPW(OPNAME) {                                                             \
    uint32_t B = static_cast<uint32_t>(Ops[--Sp]);                             \
    uint32_t A = static_cast<uint32_t>(Ops[Sp - 1]);                           \
    Ops[Sp - 1] = static_cast<uint32_t>(EXPR);                                 \
    (void)A;                                                                   \
    (void)B;                                                                   \
    RW_NEXT();                                                                 \
  }
#define RW_BIN64(OPNAME, EXPR)                                                 \
  RW_OPW(OPNAME) {                                                             \
    uint64_t B = Ops[--Sp];                                                    \
    uint64_t A = Ops[Sp - 1];                                                  \
    Ops[Sp - 1] = (EXPR);                                                      \
    (void)A;                                                                   \
    (void)B;                                                                   \
    RW_NEXT();                                                                 \
  }

  RW_BIN32(I32Add, A + B)
  RW_BIN32(I32Sub, A - B)
  RW_BIN32(I32Mul, A * B)
  RW_BIN32(I32And, A & B)
  RW_BIN32(I32Or, A | B)
  RW_BIN32(I32Xor, A ^ B)
  RW_BIN32(I32Shl, A << (B & 31))
  RW_BIN32(I32ShrU, A >> (B & 31))
  RW_BIN32(I32ShrS, static_cast<uint32_t>(static_cast<int32_t>(A) >> (B & 31)))
  RW_BIN32(I32Eq, A == B ? 1 : 0)
  RW_BIN32(I32Ne, A != B ? 1 : 0)
  RW_BIN32(I32LtU, A < B ? 1 : 0)
  RW_BIN32(I32GtU, A > B ? 1 : 0)
  RW_BIN32(I32LeU, A <= B ? 1 : 0)
  RW_BIN32(I32GeU, A >= B ? 1 : 0)
  RW_BIN32(I32LtS, static_cast<int32_t>(A) < static_cast<int32_t>(B) ? 1 : 0)
  RW_BIN32(I32GtS, static_cast<int32_t>(A) > static_cast<int32_t>(B) ? 1 : 0)
  RW_BIN32(I32LeS, static_cast<int32_t>(A) <= static_cast<int32_t>(B) ? 1 : 0)
  RW_BIN32(I32GeS, static_cast<int32_t>(A) >= static_cast<int32_t>(B) ? 1 : 0)
  RW_BIN64(I64Add, A + B)
  RW_BIN64(I64Sub, A - B)
  RW_BIN64(I64Mul, A * B)
  RW_BIN64(I64And, A & B)
  RW_BIN64(I64Or, A | B)
  RW_BIN64(I64Xor, A ^ B)
  RW_BIN64(I64Shl, A << (B & 63))
  RW_BIN64(I64ShrU, A >> (B & 63))
  RW_BIN64(I64Eq, A == B ? 1 : 0)
  RW_BIN64(I64Ne, A != B ? 1 : 0)
  RW_BIN64(I64LtU, A < B ? 1 : 0)
  RW_BIN64(I64GtU, A > B ? 1 : 0)
  RW_BIN64(I64LtS, static_cast<int64_t>(A) < static_cast<int64_t>(B) ? 1 : 0)
  RW_BIN64(I64GtS, static_cast<int64_t>(A) > static_cast<int64_t>(B) ? 1 : 0)

#undef RW_BIN32
#undef RW_BIN64

  RW_OPW(I32Eqz)
  Ops[Sp - 1] = static_cast<uint32_t>(Ops[Sp - 1]) == 0 ? 1 : 0;
  RW_NEXT();

  RW_OPW(I64Eqz)
  Ops[Sp - 1] = Ops[Sp - 1] == 0 ? 1 : 0;
  RW_NEXT();

  RW_OPW(I32DivS) {
    uint32_t B = static_cast<uint32_t>(Ops[--Sp]);
    uint32_t A = static_cast<uint32_t>(Ops[Sp - 1]);
    if (B == 0 || (A == 0x80000000u && B == 0xffffffffu))
      return trapOut("integer divide error");
    Ops[Sp - 1] =
        static_cast<uint32_t>(static_cast<int32_t>(A) / static_cast<int32_t>(B));
    RW_NEXT();
  }

  RW_OPW(I32DivU) {
    uint32_t B = static_cast<uint32_t>(Ops[--Sp]);
    if (B == 0)
      return trapOut("integer divide error");
    Ops[Sp - 1] = static_cast<uint32_t>(Ops[Sp - 1]) / B;
    RW_NEXT();
  }

  RW_OPW(I32RemS) {
    uint32_t B = static_cast<uint32_t>(Ops[--Sp]);
    uint32_t A = static_cast<uint32_t>(Ops[Sp - 1]);
    if (B == 0)
      return trapOut("integer divide error");
    Ops[Sp - 1] = B == 0xffffffffu
                      ? 0
                      : static_cast<uint32_t>(static_cast<int32_t>(A) %
                                              static_cast<int32_t>(B));
    RW_NEXT();
  }

  RW_OPW(I32RemU) {
    uint32_t B = static_cast<uint32_t>(Ops[--Sp]);
    if (B == 0)
      return trapOut("integer divide error");
    Ops[Sp - 1] = static_cast<uint32_t>(Ops[Sp - 1]) % B;
    RW_NEXT();
  }

  //===--------------------------------------------------------------===//
  // Generic tail: the remaining numerics and conversions, through the
  // evaluator the native tier shares. Opcodes with dedicated handlers
  // above never land here.
  //===--------------------------------------------------------------===//
  RW_DEFAULT() {
    if (OpC >= OpTable.size() || !OpTable[OpC].numeric())
      return trapOut("unhandled opcode");
    uint64_t B = OpTable[OpC].Pops == 2 ? Ops[--Sp] : 0;
    NumTrap T = NumTrap::None;
    uint64_t V = evalNumeric(OpC, Ops[Sp - 1], B, T);
    if (T != NumTrap::None)
      return trapOut(numTrapMessage(T));
    Ops[Sp - 1] = V;
    RW_NEXT();
  }

  RW_LOOP_END()
}

//===----------------------------------------------------------------------===//
// Slow paths shared by run() and the native tier's helpers (Jit.cpp);
// pushFrame is inline in Engine.h.
//===----------------------------------------------------------------------===//

FlatInstance::HostCall FlatInstance::hostCall(uint32_t HostIdx, uint32_t &Sp,
                                              std::string &TrapMsg) {
  const HostFn *H = hostFor(HostIdx);
  if (!H) {
    TrapMsg = "unsatisfied import";
    return HostCall::Trap;
  }
  const FuncType &HT = M->Types[M->ImportFuncs[HostIdx].TypeIdx];
  uint32_t NP = static_cast<uint32_t>(HT.Params.size());
  std::vector<WValue> HArgs(NP);
  Sp -= NP;
  for (uint32_t I = 0; I < NP; ++I)
    HArgs[I] = {HT.Params[I], OpStack[Sp + I]};
  if (!Prof.empty())
    ++Prof[HostIdx].Invocations;
  Expected<std::vector<WValue>> HR = (*H)(*this, HArgs);
  if (!HR) {
    TrapMsg = HR.error().message();
    return HostCall::Trap;
  }
  if (OpStack.size() < Sp + HR->size())
    OpStack.resize(Sp + HR->size());
  for (const WValue &V : *HR)
    OpStack[Sp++] = V.Bits;
  return HR->size() == HT.Results.size() ? HostCall::Ok : HostCall::Drift;
}

const char *FlatInstance::resolveIndirect(uint32_t TblIdx, uint32_t Expect,
                                          uint32_t &Func) const {
  if (TblIdx >= Table.size())
    return "call_indirect: table index out of bounds";
  Func = Table[TblIdx];
  if (Active->CanonType[Func] != Expect)
    return "call_indirect: signature mismatch";
  return nullptr;
}

uint64_t rw::exec::evalNumeric(uint32_t OpC, uint64_t A, uint64_t B,
                               NumTrap &Trap) {
  Trap = NumTrap::None;
  const NumOp N = OpC < OpTable.size() ? OpTable[OpC].Num : NumOp{};
  switch (N.Class) {
  case NumClass::Unop:
    return num::evalUnop(N.unop(), N.From, A);
  case NumClass::Binop: {
    std::optional<uint64_t> V = num::evalBinop(N.binop(), N.From, A, B);
    if (!V)
      Trap = NumTrap::IntDivide;
    return V.value_or(0);
  }
  case NumClass::Testop:
    return num::evalTestop(N.testop(), N.From, A);
  case NumClass::Relop:
    return num::evalRelop(N.relop(), N.From, A, B);
  case NumClass::Cvt: {
    std::optional<uint64_t> V = num::evalCvt(N.cvtop(), N.From, N.To, A);
    if (!V)
      Trap = NumTrap::InvalidConversion;
    return V.value_or(0);
  }
  case NumClass::None:
    break;
  }
  Trap = NumTrap::Unhandled;
  return 0;
}

//===----------------------------------------------------------------------===//
// Engine factory (declared in wasm/Instance.h; defined here where both
// engines are visible)
//===----------------------------------------------------------------------===//

std::unique_ptr<Instance> rw::wasm::createInstance(const WModule &M,
                                                   EngineKind K) {
  // EngineKind::Jit is the flat engine with eager tier-up; under
  // -DRW_JIT=OFF it still instantiates (reporting engine() == Jit) but
  // every function runs flat — semantics are engine-identical anyway.
  if (K == EngineKind::Flat || K == EngineKind::Jit)
    return std::make_unique<FlatInstance>(M, K);
  return std::make_unique<WasmInstance>(M);
}
