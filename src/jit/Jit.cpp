//===- jit/Jit.cpp - Tier-3 copy-and-patch native backend -------------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// x86-64 only. Each flat-bytecode instruction is emitted from a fixed
// template with its immediates patched in; the operand stack height is a
// compile-time constant per pc, so operand slots become fixed [r12+8k]
// addresses and no register allocation is needed. Anything the templates
// cannot express exits to the interpreter (see Jit.h for the contract).
// A call between two compiled functions stays in native code: the call
// stencil pushes the callee's frame record and enters the callee's inner
// entry. The slow paths the templates call (calls that fail the
// stencil's checks, host calls, call_indirect resolution, memory.grow,
// generic numerics) are the interpreter's own: FlatInstance members and
// exec::evalNumeric, reached through the extern "C" trampolines below.
//
// Register convention inside generated code:
//   rbx = JitContext*            r12 = Ops + OpBase   (byte address)
//   r13 = Regs + RegBase         r14 = Mem.data()     r15 = Mem.size()
//   rbp = &exec::FrameStack (Top, Limit)
//   rax/rcx/rdx/rsi/rdi/r8-r11 scratch.
// Native frames keep nothing on the machine stack but the return
// address (its low address bits vary per process, and a load that
// matches a recent store in those bits stalls). After a helper call,
// r12/r13 are reloaded from the frame's own record (Frames.back():
// OpBase, RegBase) and r14/r15 from the context; after a native callee
// returns JOk, they are the callee's (current) values less the callee's
// base offsets.
// Each function has two entries. The outer entry (offset 0, the NativeFn
// C++ calls) saves rbp/rbx/r12-r15, loads all six from its arguments and
// calls the inner entry. The inner entry (offset InnerOfs, the same in
// every function) expects all six loaded, keeps rbx/rbp and returns
// with r12-r15 holding its own bases and the current memory.
//
//===----------------------------------------------------------------------===//

#include "jit/Jit.h"

#if defined(RW_JIT_ENABLED) && RW_JIT_ENABLED

#include "exec/Engine.h"
#include "support/FaultInject.h"
#include "obs/Obs.h"

#include <cstddef>
#include <cstring>
#include <map>
#include <sys/mman.h>
#include <unistd.h>

#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || __has_feature(address_sanitizer)
#include <sanitizer/asan_interface.h>
#define RW_JIT_ASAN 1
#else
#define RW_JIT_ASAN 0
#endif

using namespace rw;
using namespace rw::jit;
using namespace rw::exec;
using namespace rw::wasm;

// Generated code addresses JitContext, WValue, and FunctionProfile fields
// by the fixed byte offsets below; fail the build if the layouts drift.
static_assert(offsetof(JitContext, Ops) == 8 &&
                  offsetof(JitContext, Regs) == 16 &&
                  offsetof(JitContext, MemP) == 24 &&
                  offsetof(JitContext, MemSz) == 32 &&
                  offsetof(JitContext, Fuel) == 40 &&
                  offsetof(JitContext, GlobalsP) == 48 &&
                  offsetof(JitContext, ProfP) == 56 &&
                  offsetof(JitContext, DeoptPc) == 64 &&
                  offsetof(JitContext, DeoptSp) == 68 &&
                  offsetof(JitContext, GenTrap) == 72 &&
                  offsetof(JitContext, FuelRefunded) == 80 &&
                  offsetof(JitContext, Frames) == 88 &&
                  offsetof(JitContext, OpsEnd) == 96 &&
                  offsetof(JitContext, RegsEnd) == 104,
              "JitContext layout is baked into generated code");
static_assert(offsetof(FrameStack, Top) == 0 &&
                  offsetof(FrameStack, Limit) == 8 &&
                  offsetof(CallFrame, F) == 0 && offsetof(CallFrame, Pc) == 8 &&
                  offsetof(CallFrame, RegBase) == 12 &&
                  offsetof(CallFrame, OpBase) == 16 && sizeof(CallFrame) == 24,
              "the call stencil writes frame records in place");
static_assert(sizeof(std::atomic<NativeFn>) == sizeof(NativeFn),
              "the call stencil loads entries as plain pointers");
static_assert(sizeof(WValue) == 16 && offsetof(WValue, Bits) == 8,
              "global templates assume WValue {tag, bits} stride 16");

namespace {

constexpr int32_t OffOps = 8, OffRegs = 16, OffMemP = 24, OffMemSz = 32,
                  OffFuel = 40, OffGlobals = 48, OffProf = 56, OffDeoptPc = 64,
                  OffDeoptSp = 68, OffGenTrap = 72, OffFuelRefund = 80,
                  OffFrames = 88, OffOpsEnd = 96, OffRegsEnd = 104;
constexpr int32_t FrameBytes = sizeof(CallFrame);

enum R : uint8_t {
  RAX = 0, RCX = 1, RDX = 2, RBX = 3, RSP = 4, RBP = 5, RSI = 6, RDI = 7,
  R8 = 8, R9 = 9, R10 = 10, R11 = 11, R12 = 12, R13 = 13, R14 = 14, R15 = 15,
};

// Condition-code nibbles (jcc 0F 8x / setcc 0F 9x).
enum CC : uint8_t {
  CB = 2, CAE = 3, CE = 4, CNE = 5, CBE = 6, CA = 7,
  CL_ = 0xc, CGE = 0xd, CLE = 0xe, CG = 0xf,
};

/// Minimal x86-64 emitter: only the fixed addressing shapes the templates
/// need (reg-reg, [base+disp32], [base+index]), REX computed per call.
struct Asm {
  std::vector<uint8_t> B;

  size_t size() const { return B.size(); }
  void u8(uint8_t V) { B.push_back(V); }
  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      B.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      B.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void patch32(size_t At, uint32_t V) {
    for (int I = 0; I < 4; ++I)
      B[At + I] = static_cast<uint8_t>(V >> (8 * I));
  }

  void rex(bool W, uint8_t Reg, uint8_t Idx, uint8_t Base) {
    uint8_t V = 0x40 | (W ? 8 : 0) | ((Reg >> 3) << 2) | ((Idx >> 3) << 1) |
                (Base >> 3);
    if (V != 0x40 || W)
      u8(V);
  }

  /// ModRM+SIB+disp32 for [Base + Disp] (always mod=2; SIB when rm=100b).
  void mem(uint8_t Reg, uint8_t Base, int32_t Disp) {
    if ((Base & 7) == 4) { // rsp/r12 need a SIB byte.
      u8(0x84 | ((Reg & 7) << 3));
      u8(0x20 | (Base & 7)); // scale=0, index=none(100b), base.
    } else {
      u8(0x80 | ((Reg & 7) << 3) | (Base & 7));
    }
    u32(static_cast<uint32_t>(Disp));
  }

  /// ModRM+SIB for [Base + Index] (mod=0; Base must not be rbp/r13).
  void memBI(uint8_t Reg, uint8_t Base, uint8_t Idx) {
    u8(0x04 | ((Reg & 7) << 3));
    u8(((Idx & 7) << 3) | (Base & 7));
  }

  // mov loads/stores with [base+disp32].
  void movRM64(uint8_t D, uint8_t Base, int32_t Disp) {
    rex(true, D, 0, Base); u8(0x8b); mem(D, Base, Disp);
  }
  void movRM32(uint8_t D, uint8_t Base, int32_t Disp) {
    rex(false, D, 0, Base); u8(0x8b); mem(D, Base, Disp);
  }
  void movMR64(uint8_t Base, int32_t Disp, uint8_t S) {
    rex(true, S, 0, Base); u8(0x89); mem(S, Base, Disp);
  }
  void movMR32(uint8_t Base, int32_t Disp, uint8_t S) {
    rex(false, S, 0, Base); u8(0x89); mem(S, Base, Disp);
  }
  /// mov dword [Base+Disp], imm32 (upper half of a qword slot untouched).
  void movMI32(uint8_t Base, int32_t Disp, uint32_t Imm) {
    rex(false, 0, 0, Base); u8(0xc7); mem(0, Base, Disp); u32(Imm);
  }
  void movRI32(uint8_t D, uint32_t Imm) { // zero-extends to 64.
    rex(false, 0, 0, D); u8(0xb8 | (D & 7)); u32(Imm);
  }
  void movRI64(uint8_t D, uint64_t Imm) {
    rex(true, 0, 0, D); u8(0xb8 | (D & 7)); u64(Imm);
  }
  void movRR64(uint8_t D, uint8_t S) {
    rex(true, D, 0, S); u8(0x8b); u8(0xc0 | ((D & 7) << 3) | (S & 7));
  }

  // ALU r, r (one-byte opcodes: add 03, sub 2b, and 23, or 0b, xor 33,
  // cmp 3b, test 85; imul is 0f af).
  void aluRR(uint8_t Opc, bool W, uint8_t D, uint8_t S) {
    rex(W, D, 0, S); u8(Opc); u8(0xc0 | ((D & 7) << 3) | (S & 7));
  }
  void imulRR(bool W, uint8_t D, uint8_t S) {
    rex(W, D, 0, S); u8(0x0f); u8(0xaf); u8(0xc0 | ((D & 7) << 3) | (S & 7));
  }
  // ALU r, [base+disp32].
  void aluRM(uint8_t Opc, bool W, uint8_t D, uint8_t Base, int32_t Disp) {
    rex(W, D, 0, Base); u8(Opc); mem(D, Base, Disp);
  }
  void imulRM(bool W, uint8_t D, uint8_t Base, int32_t Disp) {
    rex(W, D, 0, Base); u8(0x0f); u8(0xaf); mem(D, Base, Disp);
  }
  // ALU r, imm32 (81 /ext: add 0, or 1, and 4, sub 5, xor 6, cmp 7).
  void aluRI(uint8_t Ext, bool W, uint8_t D, uint32_t Imm) {
    rex(W, 0, 0, D); u8(0x81); u8(0xc0 | (Ext << 3) | (D & 7)); u32(Imm);
  }
  /// ALU qword [Base+Disp], imm32 (sign-extended).
  void aluMI64(uint8_t Ext, uint8_t Base, int32_t Disp, uint32_t Imm) {
    rex(true, 0, 0, Base); u8(0x81); mem(Ext, Base, Disp); u32(Imm);
  }
  /// cmp dword [Base+Disp], imm8.
  void cmpMI8(uint8_t Base, int32_t Disp, uint8_t Imm) {
    rex(false, 0, 0, Base); u8(0x83); mem(7, Base, Disp); u8(Imm);
  }
  /// cmp r64, imm8 (sign-extended; -1 compares against UINT64_MAX).
  void cmpRI8_64(uint8_t D, uint8_t Imm) {
    rex(true, 0, 0, D); u8(0x83); u8(0xf8 | (D & 7)); u8(Imm);
  }
  // Shift by cl (d3 /ext: shl 4, shr 5, sar 7).
  void shiftCL(uint8_t Ext, bool W, uint8_t D) {
    rex(W, 0, 0, D); u8(0xd3); u8(0xc0 | (Ext << 3) | (D & 7));
  }
  void shrRI64(uint8_t D, uint8_t Imm) {
    rex(true, 0, 0, D); u8(0xc1); u8(0xe8 | (D & 7)); u8(Imm);
  }
  void shlRI64(uint8_t D, uint8_t Imm) {
    rex(true, 0, 0, D); u8(0xc1); u8(0xe0 | (D & 7)); u8(Imm);
  }
  void setccAL(uint8_t Cc) { u8(0x0f); u8(0x90 | Cc); u8(0xc0); }
  void movzxEaxAl() { u8(0x0f); u8(0xb6); u8(0xc0); }
  void cmovRR64(uint8_t Cc, uint8_t D, uint8_t S) {
    rex(true, D, 0, S); u8(0x0f); u8(0x40 | Cc);
    u8(0xc0 | ((D & 7) << 3) | (S & 7));
  }
  void lea64(uint8_t D, uint8_t Base, int32_t Disp) {
    rex(true, D, 0, Base); u8(0x8d); mem(D, Base, Disp);
  }

  // Sized loads from [Base+Index] into D.
  void loadBI(uint8_t D, uint8_t Base, uint8_t Idx, unsigned Kind) {
    // Kind: 0=u8,1=s8->32,2=s8->64,3=u16,4=s16->32,5=s16->64,
    //       6=u32,7=s32->64,8=u64.
    switch (Kind) {
    case 0: rex(false, D, Idx, Base); u8(0x0f); u8(0xb6); break;
    case 1: rex(false, D, Idx, Base); u8(0x0f); u8(0xbe); break;
    case 2: rex(true, D, Idx, Base); u8(0x0f); u8(0xbe); break;
    case 3: rex(false, D, Idx, Base); u8(0x0f); u8(0xb7); break;
    case 4: rex(false, D, Idx, Base); u8(0x0f); u8(0xbf); break;
    case 5: rex(true, D, Idx, Base); u8(0x0f); u8(0xbf); break;
    case 6: rex(false, D, Idx, Base); u8(0x8b); break;
    case 7: rex(true, D, Idx, Base); u8(0x63); break; // movsxd
    case 8: rex(true, D, Idx, Base); u8(0x8b); break;
    }
    memBI(D, Base, Idx);
  }
  // Sized stores of S (8/16/32/64 bits) to [Base+Index].
  void storeBI(uint8_t Base, uint8_t Idx, uint8_t S, unsigned Bytes) {
    if (Bytes == 2)
      u8(0x66);
    rex(Bytes == 8, S, Idx, Base);
    u8(Bytes == 1 ? 0x88 : 0x89);
    memBI(S, Base, Idx);
  }

  /// jcc rel32; returns the patch position of the rel32.
  size_t jcc(uint8_t Cc) { u8(0x0f); u8(0x80 | Cc); size_t P = size(); u32(0); return P; }
  /// jmp rel32; returns the patch position.
  size_t jmp() { u8(0xe9); size_t P = size(); u32(0); return P; }
  void bind(size_t PatchPos) { patch32(PatchPos, static_cast<uint32_t>(size() - (PatchPos + 4))); }

  void callR(uint8_t Rg) {
    rex(false, 0, 0, Rg); u8(0xff); u8(0xd0 | (Rg & 7));
  }
  /// call rel32; returns the patch position.
  size_t call() { u8(0xe8); size_t P = size(); u32(0); return P; }
  void push(uint8_t Rg) { if (Rg >= 8) u8(0x41); u8(0x50 | (Rg & 7)); }
  void pop(uint8_t Rg) { if (Rg >= 8) u8(0x41); u8(0x58 | (Rg & 7)); }
  void ret() { u8(0xc3); }
};

} // namespace

//===----------------------------------------------------------------------===//
// Helper entry points generated code calls (System V: args in
// rdi/rsi/rdx/rcx, result in eax/rax). Each trampolines into the flat
// interpreter's own slow path: a FlatInstance member or evalNumeric.
//===----------------------------------------------------------------------===//

extern "C" {
uint32_t rwJitCall(JitContext *Ctx, uint32_t CalleeIdx, uint32_t SpRel,
                   uint32_t RetPc);
uint32_t rwJitHost(JitContext *Ctx, uint32_t HostIdx, uint32_t SpRel,
                   uint32_t RetPc);
uint32_t rwJitIndirect(JitContext *Ctx, uint32_t Expect, uint32_t SpRel,
                       uint32_t RetPc);
uint32_t rwJitGrow(JitContext *Ctx, uint32_t SpRel);
uint64_t rwJitNumeric(uint32_t OpC, uint64_t A, uint64_t B, uint32_t *Trap);
}

namespace {

/// Compiles one FlatFunc to position-independent machine code. All
/// operand heights are static; any analysis surprise refuses the
/// compile (the function then stays on the flat tier forever).
struct FuncCompiler {
  const exec::FlatModule &FM;
  const exec::FlatFunc &F;
  /// The module's entry table: the call stencil reads a callee's entry
  /// from it at run time, so callees compiled later are entered natively.
  const std::atomic<NativeFn> *EntryTable;
  const uint32_t *C;
  uint32_t Len;
  Asm A;

  std::vector<int32_t> H;        ///< Operand height before each pc; -1 unknown.
  std::vector<uint8_t> IsStart;  ///< pc is an instruction start.
  std::vector<uint8_t> ChargePt; ///< pc starts a fuel segment.
  std::vector<size_t> NativeOfs; ///< pc word → native code offset.

  struct Jump {
    size_t Pos;      ///< rel32 patch position.
    uint32_t Target; ///< Target pc word.
  };
  std::vector<Jump> Jumps;
  struct DeoptSite {
    size_t Pos; ///< rel32 patch position of the jump into the stub.
    uint32_t Refund, Pc, Sp;
    bool CheckOne; ///< Call slow path: JDeoptHere(1) deopts, else propagate.
  };
  std::vector<DeoptSite> Deopts;
  std::vector<size_t> OkPatches;       ///< Jumps to "return JOk".
  std::vector<size_t> EpiloguePatches; ///< Jumps to the propagate epilogue.
  std::vector<size_t> CallStatusPatches; ///< Native callee returned non-JOk.
  size_t EpilogueOfs = 0;
  size_t InnerOfs = 0; ///< Inner entry offset (same in every function).

  FuncCompiler(const exec::FlatModule &FM, const exec::FlatFunc &F,
               const std::atomic<NativeFn> *EntryTable)
      : FM(FM), F(F), EntryTable(EntryTable), C(F.Code.data()),
        Len(static_cast<uint32_t>(F.Code.size())) {}

  /// Operand words of the instruction at \p Pc (exec::flatOpInfo), or -1
  /// when C[Pc] starts no flat instruction or its operands overrun the
  /// code.
  int64_t words(uint32_t Pc) const {
    FlatOpInfo I = flatOpInfo(C[Pc]);
    if (!I.Valid)
      return -1;
    uint64_t W = I.Words;
    if (W == FlatOpInfo::Var) { // FBrTable: n, then n + 1 triples.
      if (Pc + 1 >= Len)
        return -1;
      W = 1 + 3 * (uint64_t(C[Pc + 1]) + 1);
    }
    return Pc + 1 + W > Len ? -1 : static_cast<int64_t>(W);
  }

  /// Calls \p Fn(target, height there) for each branch of the jump at
  /// \p Pc, which leaves height \p Cur on its fall-through path; stops
  /// and returns false when \p Fn does.
  template <typename FnT>
  bool eachTarget(uint32_t Pc, int32_t Cur, FnT Fn) const {
    const uint32_t *Im = C + Pc + 1;
    auto Triple = [&](const uint32_t *E) {
      return Fn(E[0], static_cast<int32_t>(E[2] + E[1]));
    };
    switch (flatOpInfo(C[Pc]).Words) {
    case 1:
      return Fn(Im[0], Cur);
    case FlatOpInfo::Var:
      for (uint32_t I = 0; I <= Im[0]; ++I)
        if (!Triple(Im + 1 + 3 * I))
          return false;
      return true;
    default:
      return Triple(Im);
    }
  }

  /// Operand-height change of the call at \p Pc beyond its row's pops:
  /// results minus params of the type its operand names. False when the
  /// operand is out of range.
  bool callDelta(uint32_t Pc, int32_t &D) const {
    uint32_t Idx = C[Pc + 1];
    const wasm::WModule &M = *FM.Source;
    const FuncType *T = nullptr;
    switch (C[Pc]) {
    case FCall:
      if (Idx < FM.Funcs.size())
        T = &M.Types[FM.Funcs[Idx].TypeIdx];
      break;
    case FCallHost:
      if (Idx < M.ImportFuncs.size())
        T = &M.Types[M.ImportFuncs[Idx].TypeIdx];
      break;
    default: // FCallIndirect: a canonical type id.
      if (Idx < M.Types.size())
        T = &M.Types[Idx];
      break;
    }
    if (!T)
      return false;
    D = static_cast<int32_t>(T->Results.size()) -
        static_cast<int32_t>(T->Params.size());
    return true;
  }

  /// Reads every word's row (exec::flatOpInfo) for the instruction
  /// starts, branch targets, fuel charge points and the static operand
  /// height before every pc. Any mismatch refuses the compile.
  bool analyze() {
    H.assign(Len + 1, -1);
    IsStart.assign(Len + 1, 0);
    ChargePt.assign(Len + 1, 0);
    if (Len == 0)
      return false;

    // Pass 1: instruction starts, branch targets, charge points (a fuel
    // segment ends after every control transfer and call).
    std::vector<uint32_t> Targets;
    bool PrevBreak = true;
    for (uint32_t Pc = 0; Pc < Len;) {
      IsStart[Pc] = 1;
      if (PrevBreak)
        ChargePt[Pc] = 1;
      int64_t W = words(Pc);
      if (W < 0)
        return false;
      FClass K = flatOpInfo(C[Pc]).Class;
      if (K == FClass::Jump || K == FClass::Cond)
        eachTarget(Pc, 0, [&](uint32_t T, int32_t) {
          Targets.push_back(T);
          return true;
        });
      PrevBreak = K != FClass::Plain && K != FClass::Profile;
      Pc += 1 + static_cast<uint32_t>(W);
    }
    for (uint32_t T : Targets) {
      if (T >= Len || !IsStart[T])
        return false;
      ChargePt[T] = 1;
    }

    // Pass 2: static operand heights (forward scan; branch targets get
    // their height from the branch's fix-up immediates).
    auto SetT = [&](uint32_t T, int32_t Ht) {
      if (H[T] >= 0)
        return H[T] == Ht;
      H[T] = Ht;
      return true;
    };
    int32_t Cur = 0;
    bool Reach = true;
    for (uint32_t Pc = 0; Pc < Len;
         Pc += 1 + static_cast<uint32_t>(words(Pc))) {
      FlatOpInfo I = flatOpInfo(C[Pc]);
      if (H[Pc] >= 0) {
        if (Reach && H[Pc] != Cur)
          return false;
        Cur = H[Pc];
      } else {
        if (!Reach)
          return false; // Dead code: the translator elides it; refuse.
        H[Pc] = Cur;
      }
      Reach = I.Class != FClass::Jump && I.Class != FClass::Terminal;
      Cur -= I.Pops;
      if (Cur < 0)
        return false;
      switch (I.Class) {
      case FClass::Jump:
      case FClass::Cond:
        if (!eachTarget(Pc, Cur, SetT))
          return false;
        break;
      case FClass::Terminal:
        if (C[Pc] == FReturn && Cur < static_cast<int32_t>(F.NumResults))
          return false;
        break;
      case FClass::Call: {
        int32_t D = 0;
        if (!callDelta(Pc, D))
          return false;
        Cur += D;
        break;
      }
      default:
        Cur += I.Pushes;
        break;
      }
      if (Cur < 0 || Cur > static_cast<int32_t>(F.MaxDepth))
        return false;
    }
    return !Reach; // The body must end in a terminal instruction.
  }

  /// Fuel instructions from segment start \p Pc to the end of its
  /// segment (the next charge point). FProf ops are fuel-neutral.
  uint32_t fuelCount(uint32_t Pc) const {
    uint32_t K = 0;
    for (uint32_t Q = Pc; Q < Len;) {
      if (flatOpInfo(C[Q]).Class != FClass::Profile)
        ++K;
      Q += 1 + static_cast<uint32_t>(words(Q));
      if (Q >= Len || ChargePt[Q])
        break;
    }
    return K;
  }

  static constexpr int32_t slot(int32_t K) { return 8 * K; }

  void deoptJcc(uint8_t Cc, uint32_t Refund, uint32_t Pc, uint32_t Sp) {
    Deopts.push_back({A.jcc(Cc), Refund, Pc, Sp, false});
  }

  /// Reloads the pointer registers after a call, which may have resized
  /// instance vectors or grown memory. After any call that returns JOk
  /// this frame's record is Frames.back() again, and it holds the bases.
  void reloadBases(bool OpsRegs, bool Memory) {
    if (OpsRegs) {
      A.movRM64(RAX, RBP, 0);                  // Top
      A.movRM32(RCX, RAX, 16 - FrameBytes);    // back().OpBase
      A.shlRI64(RCX, 3);
      A.movRM64(R12, RBX, OffOps);
      A.aluRR(0x03, true, R12, RCX);
      A.movRM32(RCX, RAX, 12 - FrameBytes);    // back().RegBase
      A.shlRI64(RCX, 3);
      A.movRM64(R13, RBX, OffRegs);
      A.aluRR(0x03, true, R13, RCX);
    }
    if (Memory) {
      A.movRM64(R14, RBX, OffMemP);
      A.movRM64(R15, RBX, OffMemSz);
    }
  }

  void callHelper(const void *Fn) {
    A.movRI64(RAX, reinterpret_cast<uint64_t>(Fn));
    A.callR(RAX);
  }

  /// addr = u32(rax) + Off; bounds-check Nbytes against Mem.size().
  /// Leaves the checked address in rcx; deopts (refund \p SegLeft) on an
  /// out-of-bounds access so the interpreter re-executes and traps.
  void emitMemCheck(uint32_t Off, uint32_t Nbytes, uint32_t SegLeft,
                    uint32_t Pc, int32_t Hh) {
    A.movRI32(RCX, Off);
    A.aluRR(0x03, true, RCX, RAX); // add rcx, rax (u32 addr + u32 off)
    A.lea64(RDX, RCX, static_cast<int32_t>(Nbytes));
    A.aluRR(0x3b, true, RDX, R15); // cmp rdx, r15
    deoptJcc(CA, SegLeft, Pc, static_cast<uint32_t>(Hh));
  }

  /// Copies Keep slots from \p SrcSlot to \p DstSlot (ascending; the
  /// branch fix-up always has Dst <= Src, same as the interpreter loop).
  void emitStackCopy(int32_t DstSlot, int32_t SrcSlot, uint32_t Keep) {
    if (DstSlot == SrcSlot)
      return;
    for (uint32_t K = 0; K < Keep; ++K) {
      A.movRM64(RAX, R12, slot(SrcSlot + K));
      A.movMR64(R12, slot(DstSlot + K), RAX);
    }
  }

  /// Calls helper \p Fn (rwJitCall or rwJitIndirect) for the call at
  /// \p Pc. Its JDeoptHere re-executes the call in the interpreter; any
  /// other non-JOk status propagates.
  void emitCallHelper(const void *Fn, uint32_t Pc, uint32_t Idx, int32_t Hh) {
    A.movRR64(RDI, RBX);
    A.movRI32(RSI, Idx);
    A.movRI32(RDX, static_cast<uint32_t>(Hh));
    A.movRI32(RCX, Pc + 2);
    callHelper(Fn);
    A.aluRR(0x85, false, RAX, RAX); // test eax, eax
    // Calls end their fuel segment, so a re-execute deopt refunds 1.
    Deopts.push_back({A.jcc(CNE), 1, Pc, static_cast<uint32_t>(Hh), true});
  }

  void emitDirectCall(uint32_t Pc, uint32_t CalleeIdx, int32_t Hh);
  bool emit();
  bool emitInst(uint32_t Pc, uint32_t Op, int32_t Hh, uint32_t SegLeft);
  void finish();
};

/// The call stencil of a direct call to defined function \p CalleeIdx:
/// when the depth, register-file and operand-stack checks pass and the
/// callee has an entry, it does pushFrame's work in place (copy the
/// arguments, zero the other locals, record the return pc, push the
/// callee's record), calls the callee's inner entry and pops the record
/// on JOk. Anything else calls rwJitCall (pushFrame, then the callee's
/// outer entry). A callee's non-JOk status goes to the shared CallStatus
/// stub (see finish()).
void FuncCompiler::emitDirectCall(uint32_t Pc, uint32_t CalleeIdx,
                                  int32_t Hh) {
  const exec::FlatFunc &Callee = FM.Funcs[CalleeIdx];
  const void *Helper = reinterpret_cast<const void *>(&rwJitCall);
  // Frame-relative slots: the callee's operand base, and the ends of its
  // registers and of its deepest operand.
  const int64_t ArgBase = Hh - static_cast<int64_t>(Callee.NumParams);
  const int64_t RegsEnd = int64_t(F.NumRegs) + Callee.NumRegs;
  const int64_t OpsEnd = ArgBase + Callee.MaxDepth;
  if (std::max(RegsEnd, OpsEnd) > (INT32_MAX >> 4)) {
    emitCallHelper(Helper, Pc, CalleeIdx, Hh); // Displacements overflow.
    reloadBases(true, true);
    return;
  }
  const int32_t Arg = static_cast<int32_t>(ArgBase);
  const int32_t Reg = static_cast<int32_t>(F.NumRegs);

  std::vector<size_t> Slow;
  A.movRM64(RAX, RBP, 0);            // rax = Top
  A.aluRM(0x3b, true, RAX, RBP, 8);  // cmp rax, Limit
  Slow.push_back(A.jcc(CAE));        // Block full (or MaxCallDepth).
  A.lea64(RCX, R13, slot(static_cast<int32_t>(RegsEnd)));
  A.aluRM(0x3b, true, RCX, RBX, OffRegsEnd);
  Slow.push_back(A.jcc(CA));         // Register file must grow.
  A.lea64(RCX, R12, slot(static_cast<int32_t>(OpsEnd)));
  A.aluRM(0x3b, true, RCX, RBX, OffOpsEnd);
  Slow.push_back(A.jcc(CA));         // Operand stack must grow.
  A.movRI64(RCX, reinterpret_cast<uint64_t>(EntryTable + CalleeIdx));
  A.movRM64(RCX, RCX, 0);            // rcx = entry (acquire on x86)
  A.aluRR(0x85, true, RCX, RCX);
  Slow.push_back(A.jcc(CE));         // Not compiled (yet, or ever).

  // Arguments into the callee's first registers, zeroes after them.
  for (uint32_t I = 0; I < Callee.NumParams; ++I) {
    A.movRM64(R8, R12, slot(Arg + I));
    A.movMR64(R13, slot(Reg + I), R8);
  }
  uint32_t Zeroes = Callee.NumRegs - Callee.NumParams;
  if (Zeroes) {
    A.aluRR(0x33, false, R8, R8); // xor r8d, r8d
    if (Zeroes <= 8) {
      for (uint32_t I = Callee.NumParams; I < Callee.NumRegs; ++I)
        A.movMR64(R13, slot(Reg + I), R8);
    } else {
      A.lea64(R9, R13, slot(Reg + Callee.NumParams));
      A.movRI32(R10, Zeroes);
      size_t Loop = A.size();
      A.movMR64(R9, 0, R8);
      A.aluRI(0, true, R9, 8);   // add r9, 8
      A.aluRI(5, true, R10, 1);  // sub r10, 1
      size_t Back = A.jcc(CNE);
      A.patch32(Back, static_cast<uint32_t>(Loop - (Back + 4)));
    }
  }

  // The caller resumes after the call; the callee's record goes at Top,
  // its bases offset from the caller's (Top[-1]).
  A.movMI32(RAX, 8 - FrameBytes, Pc + 2);           // back().Pc = RetPc
  A.movRI64(R8, reinterpret_cast<uint64_t>(&Callee));
  A.movMR64(RAX, 0, R8);                            // F
  A.movMI32(RAX, 8, 0);                             // Pc
  A.movRM32(R8, RAX, 12 - FrameBytes);
  A.aluRI(0, false, R8, static_cast<uint32_t>(Reg));
  A.movMR32(RAX, 12, R8);                           // RegBase
  A.movRM32(R8, RAX, 16 - FrameBytes);
  A.aluRI(0, false, R8, static_cast<uint32_t>(Arg));
  A.movMR32(RAX, 16, R8);                           // OpBase
  A.aluRI(0, true, RAX, FrameBytes);
  A.movMR64(RBP, 0, RAX);                           // ++Top
  A.lea64(R12, R12, slot(Arg));                     // The callee's bases.
  A.lea64(R13, R13, slot(Reg));
  A.aluRI(0, true, RCX, static_cast<uint32_t>(InnerOfs));
  A.callR(RCX);
  A.aluRR(0x85, false, RAX, RAX);
  CallStatusPatches.push_back(A.jcc(CNE));
  A.aluMI64(5, RBP, 0, FrameBytes);                 // pop_back()
  // A callee returns JOk with its own bases in r12/r13, current even if
  // a deeper call moved the arrays, and r14/r15 current.
  A.lea64(R12, R12, -slot(Arg));
  A.lea64(R13, R13, -slot(Reg));
  size_t Done = A.jmp();

  for (size_t P : Slow)
    A.bind(P);
  emitCallHelper(Helper, Pc, CalleeIdx, Hh);
  reloadBases(true, true);
  A.bind(Done);
}

bool FuncCompiler::emit() {
  NativeOfs.assign(Len + 1, 0);

  // Outer entry: save callee-saved registers, load the registers every
  // native frame shares and this frame's bases, enter the inner entry.
  A.push(RBP); A.push(RBX); A.push(R12); A.push(R13); A.push(R14);
  A.push(R15);
  A.aluRI(5, true, RSP, 8);
  A.movRR64(RBX, RDI);
  A.movRM64(RBP, RBX, OffFrames);
  A.movRM64(R12, RBX, OffOps);
  A.aluRR(0x03, true, R12, RSI);
  A.movRM64(R13, RBX, OffRegs);
  A.aluRR(0x03, true, R13, RDX);
  A.movRM64(R14, RBX, OffMemP);
  A.movRM64(R15, RBX, OffMemSz);
  size_t Inner = A.call();
  A.aluRI(0, true, RSP, 8);
  A.pop(R15); A.pop(R14); A.pop(R13); A.pop(R12); A.pop(RBX); A.pop(RBP);
  A.ret();

  // Inner entry: every register is set; keep rsp 16-aligned for helpers.
  InnerOfs = A.size();
  A.bind(Inner);
  A.aluRI(5, true, RSP, 8);

  uint32_t SegLeft = 0;
  for (uint32_t Pc = 0; Pc < Len;) {
    uint32_t Op = C[Pc];
    NativeOfs[Pc] = A.size(); // Jumps land on the segment's fuel charge.
    if (ChargePt[Pc]) {
      SegLeft = fuelCount(Pc);
      if (SegLeft) {
        A.aluMI64(5, RBX, OffFuel, SegLeft); // sub qword [ctx.Fuel], K
        deoptJcc(CB, SegLeft, Pc, static_cast<uint32_t>(H[Pc]));
      }
    }
    if (!emitInst(Pc, Op, H[Pc], SegLeft))
      return false;
    if (flatOpInfo(Op).Class != FClass::Profile)
      --SegLeft;
    Pc += 1 + static_cast<uint32_t>(words(Pc));
  }
  finish();
  return true;
}

bool FuncCompiler::emitInst(uint32_t Pc, uint32_t Op, int32_t Hh,
                            uint32_t SegLeft) {
  const uint32_t *Im = C + Pc + 1;
  switch (Op) {
  case 0x00: // Unreachable: deopt; the interpreter re-executes and traps.
    A.u8(0xe9); // Unconditional jmp into the stub (patched like a jcc).
    Deopts.push_back(
        {(A.u32(0), A.size() - 4), SegLeft, Pc, static_cast<uint32_t>(Hh),
         false});
    return true;

  case FGoto:
    Jumps.push_back({A.jmp(), Im[0]});
    return true;

  case FGotoIf: case FGotoIfZ:
    A.movRM32(RAX, R12, slot(Hh - 1));
    A.aluRR(0x85, false, RAX, RAX); // test eax, eax
    Jumps.push_back({A.jcc(Op == FGotoIf ? CNE : CE), Im[0]});
    return true;

  case FBr:
    emitStackCopy(static_cast<int32_t>(Im[2]),
                  Hh - static_cast<int32_t>(Im[1]), Im[1]);
    Jumps.push_back({A.jmp(), Im[0]});
    return true;

  case FBrIf: {
    A.movRM32(RAX, R12, slot(Hh - 1));
    A.aluRR(0x85, false, RAX, RAX);
    size_t Skip = A.jcc(CE);
    emitStackCopy(static_cast<int32_t>(Im[2]),
                  (Hh - 1) - static_cast<int32_t>(Im[1]), Im[1]);
    Jumps.push_back({A.jmp(), Im[0]});
    A.bind(Skip);
    return true;
  }

  case FBrTable: {
    uint32_t N = Im[0];
    A.movRM32(RAX, R12, slot(Hh - 1));
    std::vector<size_t> Cases(N);
    for (uint32_t I = 0; I < N; ++I) {
      A.aluRI(7, false, RAX, I); // cmp eax, I
      Cases[I] = A.jcc(CE);
    }
    size_t Dflt = A.jmp();
    for (uint32_t I = 0; I <= N; ++I) {
      if (I < N)
        A.bind(Cases[I]);
      else
        A.bind(Dflt);
      const uint32_t *E = Im + 1 + 3 * I;
      emitStackCopy(static_cast<int32_t>(E[2]),
                    (Hh - 1) - static_cast<int32_t>(E[1]), E[1]);
      Jumps.push_back({A.jmp(), E[0]});
    }
    return true;
  }

  case FReturn: {
    uint32_t NRes = F.NumResults;
    emitStackCopy(0, Hh - static_cast<int32_t>(NRes), NRes);
    OkPatches.push_back(A.jmp());
    return true;
  }

  case FCall:
    emitDirectCall(Pc, Im[0], Hh);
    return true;

  case FCallIndirect:
    emitCallHelper(reinterpret_cast<const void *>(&rwJitIndirect), Pc, Im[0],
                   Hh);
    reloadBases(true, true);
    return true;

  case FCallHost:
    A.movRR64(RDI, RBX);
    A.movRI32(RSI, Im[0]);
    A.movRI32(RDX, static_cast<uint32_t>(Hh));
    A.movRI32(RCX, Pc + 2);
    callHelper(reinterpret_cast<const void *>(&rwJitHost));
    A.aluRR(0x85, false, RAX, RAX);
    EpiloguePatches.push_back(A.jcc(CNE)); // JTrapFinal/JUnwind: propagate.
    reloadBases(true, true);
    return true;

  case FGetGet:
    A.movRM64(RAX, R13, slot(Im[0]));
    A.movMR64(R12, slot(Hh), RAX);
    A.movRM64(RAX, R13, slot(Im[1]));
    A.movMR64(R12, slot(Hh + 1), RAX);
    return true;

  case FGetConst:
    A.movRM64(RAX, R13, slot(Im[0]));
    A.movMR64(R12, slot(Hh), RAX);
    A.movRI32(RAX, Im[1]);
    A.movMR64(R12, slot(Hh + 1), RAX);
    return true;

  case FGetGetAdd:
    A.movRM32(RAX, R13, slot(Im[0]));
    A.aluRM(0x03, false, RAX, R13, slot(Im[1]));
    A.movMR64(R12, slot(Hh), RAX);
    return true;

  case FGetConstAdd:
    A.movRM32(RAX, R13, slot(Im[0]));
    A.aluRI(0, false, RAX, Im[1]);
    A.movMR64(R12, slot(Hh), RAX);
    return true;

  case FGetGetAddSet:
    A.movRM32(RAX, R13, slot(Im[0]));
    A.aluRM(0x03, false, RAX, R13, slot(Im[1]));
    A.movMR64(R13, slot(Im[2]), RAX);
    return true;

  case FGetConstAddSet:
    A.movRM32(RAX, R13, slot(Im[0]));
    A.aluRI(0, false, RAX, Im[1]);
    A.movMR64(R13, slot(Im[2]), RAX);
    return true;

  case FMove:
    A.movRM64(RAX, R13, slot(Im[0]));
    A.movMR64(R13, slot(Im[1]), RAX);
    return true;

  case FConstSet:
    A.movRI32(RAX, Im[0]);
    A.movMR64(R13, slot(Im[1]), RAX);
    return true;

  case FGetLoadI32:
    A.movRM32(RAX, R13, slot(Im[0]));
    emitMemCheck(Im[1], 4, SegLeft, Pc, Hh);
    A.loadBI(RAX, R14, RCX, 6);
    A.movMR64(R12, slot(Hh), RAX);
    return true;

  case FGetGetStoreI32:
    A.movRM32(RAX, R13, slot(Im[0]));
    emitMemCheck(Im[2], 4, SegLeft, Pc, Hh);
    A.movRM32(RAX, R13, slot(Im[1]));
    A.storeBI(R14, RCX, RAX, 4);
    return true;

  case FGetConstStoreI32:
    A.movRM32(RAX, R13, slot(Im[0]));
    emitMemCheck(Im[2], 4, SegLeft, Pc, Hh);
    A.movRI32(RAX, Im[1]);
    A.storeBI(R14, RCX, RAX, 4);
    return true;

  case FProfEnter: case FProfLoop: {
    int32_t Off = static_cast<int32_t>(16 * Im[0]) +
                  (Op == FProfLoop ? 8 : 0);
    A.movRM64(RAX, RBX, OffProf);
    A.movRM64(RCX, RAX, Off);
    A.cmpRI8_64(RCX, 0xff); // cmp rcx, -1: saturated?
    size_t Skip = A.jcc(CE);
    A.aluRI(0, true, RCX, 1);
    A.movMR64(RAX, Off, RCX);
    A.bind(Skip);
    return true;
  }

  case 0x1a: // Drop
    return true;

  case 0x1b: // Select
    A.movRM32(RAX, R12, slot(Hh - 1));
    A.movRM64(RCX, R12, slot(Hh - 3));
    A.movRM64(RDX, R12, slot(Hh - 2));
    A.aluRR(0x85, false, RAX, RAX);
    A.cmovRR64(CE, RCX, RDX); // cond == 0 picks the second value.
    A.movMR64(R12, slot(Hh - 3), RCX);
    return true;

  case 0x20: // LocalGet
    A.movRM64(RAX, R13, slot(Im[0]));
    A.movMR64(R12, slot(Hh), RAX);
    return true;

  case 0x21: case 0x22: // LocalSet / LocalTee
    A.movRM64(RAX, R12, slot(Hh - 1));
    A.movMR64(R13, slot(Im[0]), RAX);
    return true;

  case 0x23: // GlobalGet
    A.movRM64(RAX, RBX, OffGlobals);
    A.movRM64(RCX, RAX, static_cast<int32_t>(16 * Im[0] + 8));
    A.movMR64(R12, slot(Hh), RCX);
    return true;

  case 0x24: // GlobalSet
    A.movRM64(RAX, RBX, OffGlobals);
    A.movRM64(RCX, R12, slot(Hh - 1));
    A.movMR64(RAX, static_cast<int32_t>(16 * Im[0] + 8), RCX);
    return true;

  case 0x3f: // MemorySize
    A.movRR64(RAX, R15);
    A.shrRI64(RAX, 16);
    A.movMR64(R12, slot(Hh), RAX);
    return true;

  case 0x40: // MemoryGrow
    A.movRR64(RDI, RBX);
    A.movRI32(RSI, static_cast<uint32_t>(Hh));
    callHelper(reinterpret_cast<const void *>(&rwJitGrow));
    reloadBases(false, true);
    return true;

  case 0x41: case 0x43: // I32Const / F32Const
    A.movRI32(RAX, Im[0]);
    A.movMR64(R12, slot(Hh), RAX);
    return true;

  case 0x42: case 0x44: { // I64Const / F64Const
    uint64_t V = Im[0] | (static_cast<uint64_t>(Im[1]) << 32);
    A.movRI64(RAX, V);
    A.movMR64(R12, slot(Hh), RAX);
    return true;
  }

  case 0x45: case 0x50: // I32Eqz / I64Eqz
    if (Op == 0x45)
      A.movRM32(RAX, R12, slot(Hh - 1));
    else
      A.movRM64(RAX, R12, slot(Hh - 1));
    A.aluRR(0x85, Op == 0x50, RAX, RAX);
    A.setccAL(CE);
    A.movzxEaxAl();
    A.movMR64(R12, slot(Hh - 1), RAX);
    return true;
  }

  // Loads 0x28..0x35: kind = loadBI encoding (see Asm::loadBI).
  if (Op >= 0x28 && Op <= 0x35) {
    static const struct { uint8_t Bytes, Kind; } LK[] = {
        {4, 6}, {8, 8}, {4, 6}, {8, 8}, // i32/i64/f32/f64
        {1, 1}, {1, 0}, {2, 4}, {2, 3}, // i32 8s/8u/16s/16u
        {1, 2}, {1, 0}, {2, 5}, {2, 3}, // i64 8s/8u/16s/16u
        {4, 7}, {4, 6},                 // i64 32s/32u
    };
    const auto &L = LK[Op - 0x28];
    A.movRM32(RAX, R12, slot(Hh - 1));
    emitMemCheck(Im[0], L.Bytes, SegLeft, Pc, Hh);
    A.loadBI(RAX, R14, RCX, L.Kind);
    A.movMR64(R12, slot(Hh - 1), RAX);
    return true;
  }

  // Stores 0x36..0x3e: value at Hh-1, address at Hh-2.
  if (Op >= 0x36 && Op <= 0x3e) {
    static const uint8_t SB[] = {4, 8, 4, 8, 1, 2, 1, 2, 4};
    uint8_t Bytes = SB[Op - 0x36];
    A.movRM32(RAX, R12, slot(Hh - 2));
    emitMemCheck(Im[0], Bytes, SegLeft, Pc, Hh);
    A.movRM64(RAX, R12, slot(Hh - 1));
    A.storeBI(R14, RCX, RAX, Bytes);
    return true;
  }

  // Inline i32/i64 ALU and relops (same set the interpreter fast-paths,
  // plus the sar variants). Everything else goes through the generic
  // helpers below.
  {
    bool W64 = false;
    uint8_t Alu = 0;
    switch (Op) {
    case 0x6a: Alu = 0x03; break; case 0x6b: Alu = 0x2b; break; // add/sub
    case 0x71: Alu = 0x23; break; case 0x72: Alu = 0x0b; break; // and/or
    case 0x73: Alu = 0x33; break;                               // xor
    case 0x7c: Alu = 0x03; W64 = true; break;
    case 0x7d: Alu = 0x2b; W64 = true; break;
    case 0x83: Alu = 0x23; W64 = true; break;
    case 0x84: Alu = 0x0b; W64 = true; break;
    case 0x85: Alu = 0x33; W64 = true; break;
    default: break;
    }
    if (Alu) {
      if (W64)
        A.movRM64(RAX, R12, slot(Hh - 2));
      else
        A.movRM32(RAX, R12, slot(Hh - 2));
      A.aluRM(Alu, W64, RAX, R12, slot(Hh - 1));
      A.movMR64(R12, slot(Hh - 2), RAX);
      return true;
    }
    if (Op == 0x6c || Op == 0x7e) { // I32Mul / I64Mul
      W64 = Op == 0x7e;
      if (W64)
        A.movRM64(RAX, R12, slot(Hh - 2));
      else
        A.movRM32(RAX, R12, slot(Hh - 2));
      A.imulRM(W64, RAX, R12, slot(Hh - 1));
      A.movMR64(R12, slot(Hh - 2), RAX);
      return true;
    }
    uint8_t Sh = 0;
    switch (Op) {
    case 0x74: Sh = 4; break; case 0x75: Sh = 7; break; // i32 shl/sar
    case 0x76: Sh = 5; break;                           // i32 shr
    case 0x86: Sh = 4; W64 = true; break;
    case 0x87: Sh = 7; W64 = true; break;
    case 0x88: Sh = 5; W64 = true; break;
    default: break;
    }
    if (Sh) {
      A.movRM32(RCX, R12, slot(Hh - 1)); // cl; hardware masks the count.
      if (W64)
        A.movRM64(RAX, R12, slot(Hh - 2));
      else
        A.movRM32(RAX, R12, slot(Hh - 2));
      A.shiftCL(Sh, W64, RAX);
      A.movMR64(R12, slot(Hh - 2), RAX);
      return true;
    }
    const NumOp N = Op < OpTable.size() ? OpTable[Op].Num : NumOp{};
    if (N.Class == NumClass::Relop && ir::isIntType(N.From)) {
      // By ir::RelopKind: eq ne lt gt le ge.
      static const uint8_t SignedCc[] = {CE, CNE, CL_, CG, CLE, CGE};
      static const uint8_t UnsignedCc[] = {CE, CNE, CB, CA, CBE, CAE};
      W64 = ir::numTypeBits(N.From) == 64;
      uint8_t Cc = (ir::isSignedType(N.From) ? SignedCc : UnsignedCc)[N.Kind];
      if (W64)
        A.movRM64(RAX, R12, slot(Hh - 2));
      else
        A.movRM32(RAX, R12, slot(Hh - 2));
      A.aluRM(0x3b, W64, RAX, R12, slot(Hh - 1));
      A.setccAL(Cc);
      A.movzxEaxAl();
      A.movMR64(R12, slot(Hh - 2), RAX);
      return true;
    }
  }

  // Generic tail: the interpreter's own numeric evaluator (bit-exact,
  // including div/trunc traps, which deopt so the interpreter
  // re-executes and traps). For unary ops rdx is ignored.
  if (Op < OpTable.size() && OpTable[Op].numeric()) {
    int32_t In = Hh - OpTable[Op].Pops; // First operand's slot.
    A.movRI32(RDI, Op);
    A.movRM64(RSI, R12, slot(In));
    A.movRM64(RDX, R12, slot(Hh - 1));
    A.lea64(RCX, RBX, OffGenTrap);
    callHelper(reinterpret_cast<const void *>(&rwJitNumeric));
    A.cmpMI8(RBX, OffGenTrap, 0);
    deoptJcc(CNE, SegLeft, Pc, static_cast<uint32_t>(Hh));
    A.movMR64(R12, slot(In), RAX);
    return true;
  }
  return false;
}

void FuncCompiler::finish() {
  // Shared exits: JOk falls through into the epilogue; everything else
  // jumps into the epilogue with its status already in eax.
  size_t OkOfs = A.size();
  A.aluRR(0x33, false, RAX, RAX); // xor eax, eax == JOk
  EpilogueOfs = A.size();
  A.aluRI(0, true, RSP, 8);
  A.ret();
  auto ToEpilogue = [&](size_t P) {
    A.patch32(P, static_cast<uint32_t>(EpilogueOfs - (P + 4)));
  };

  // A native callee returned non-JOk, as jitDirectCall's switch maps it:
  // JDeoptHere resumes the callee (still Frames.back()) at its recorded
  // pc and is an unwind outward; JUnwind and JTrapFinal pass through.
  if (!CallStatusPatches.empty()) {
    for (size_t P : CallStatusPatches)
      A.bind(P);
    A.aluRI(7, false, RAX, JDeoptHere);
    ToEpilogue(A.jcc(CNE));
    A.movRM32(RCX, RBX, OffDeoptPc);
    A.movRM64(RDX, RBP, 0);
    A.movMR32(RDX, 8 - FrameBytes, RCX); // back().Pc = DeoptPc
    A.movRI32(RAX, JUnwind);
    ToEpilogue(A.jmp());
  }

  // Deopt stubs: refund the unexecuted remainder of the fuel segment,
  // record the resume point, and return JDeoptHere. Call slow paths
  // first split JDeoptHere (re-execute the call) from propagation.
  for (const DeoptSite &S : Deopts) {
    A.bind(S.Pos);
    if (S.CheckOne) {
      A.aluRI(7, false, RAX, JDeoptHere);
      ToEpilogue(A.jcc(CNE));
    }
    if (S.Refund) {
      A.aluMI64(0, RBX, OffFuel, S.Refund);
      // Mirror the refund into the observability accumulator so the
      // engine can count refunded fuel without diffing fuel itself.
      A.aluMI64(0, RBX, OffFuelRefund, S.Refund);
    }
    A.movMI32(RBX, OffDeoptPc, S.Pc);
    A.movMI32(RBX, OffDeoptSp, S.Sp);
    A.movRI32(RAX, JDeoptHere);
    ToEpilogue(A.jmp());
  }

  for (size_t P : OkPatches)
    A.patch32(P, static_cast<uint32_t>(OkOfs - (P + 4)));
  for (size_t P : EpiloguePatches)
    ToEpilogue(P);
  for (const Jump &J : Jumps)
    A.patch32(J.Pos, static_cast<uint32_t>(NativeOfs[J.Target] - (J.Pos + 4)));
}

} // namespace

//===----------------------------------------------------------------------===//
// ModuleJit: thread-safe compile/publish with W^X page lifecycle.
//===----------------------------------------------------------------------===//

namespace {

/// Maps a fresh RW page set, copies the code in, then flips to RX before
/// the entry is published (W^X: pages are never writable and executable
/// at the same time).
uint8_t *allocExec(const std::vector<uint8_t> &Buf, size_t &SzOut) {
  // Page-map seam: a failed mmap/mprotect refuses the function, which
  // then stays on the flat interpreter forever (state 3 below).
  if (RW_FAULT_POINT(support::fault::Seam::JitMap))
    return nullptr;
  size_t PageSz = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  size_t Sz = (Buf.size() + PageSz - 1) & ~(PageSz - 1);
  void *P = mmap(nullptr, Sz, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (P == MAP_FAILED)
    return nullptr;
#if RW_JIT_ASAN
  ASAN_UNPOISON_MEMORY_REGION(P, Sz);
#endif
  std::memcpy(P, Buf.data(), Buf.size());
  if (mprotect(P, Sz, PROT_READ | PROT_EXEC) != 0) {
    munmap(P, Sz);
    return nullptr;
  }
  SzOut = Sz;
  return static_cast<uint8_t *>(P);
}

} // namespace

ModuleJit::ModuleJit(const exec::FlatModule &FM)
    : FM(FM), Entries(FM.Funcs.size()), State(FM.Funcs.size()) {
  // Tier/code-cache observability: every live ModuleJit is an obs source
  // ("jit.*"; a second live module shows up as "jit#2.*") emitting its
  // aggregate tier counts, resident code bytes, and the per-function
  // tier state (funcN.tier: 0 untried, 1 compiling, 2 native, 3 refused).
  ObsSourceId = obs::registerSource("jit", [this](const obs::EmitFn &E) {
    uint32_t Done = compiledCount(), Refused = unsupportedCount();
    uint32_t Total = static_cast<uint32_t>(this->FM.Funcs.size());
    E("funcs", Total);
    E("compiled", Done);
    E("unsupported", Refused);
    E("pending", Total - Done - Refused);
    E("code_bytes", codeBytes());
    for (uint32_t I = 0; I < Total; ++I)
      E(("func" + std::to_string(I) + ".tier").c_str(), tierState(I));
  });
}

ModuleJit::~ModuleJit() {
  obs::unregisterSource(ObsSourceId);
  for (const Page &P : Pages)
    munmap(P.P, P.Sz);
}

bool ModuleJit::compile(uint32_t DefIdx) {
  uint8_t Untried = 0;
  if (!State[DefIdx].compare_exchange_strong(Untried, 1,
                                             std::memory_order_acq_rel))
    return State[DefIdx].load(std::memory_order_acquire) == 2;

  static obs::Counter CompiledC("exec.tier.compiled");
  static obs::Counter UnsupportedC("exec.tier.unsupported");
  static obs::Histogram CompileNs("jit.compile.ns");
  OBS_SPAN("translate_jit", DefIdx);
  uint64_t T0 = obs::enabled() ? obs::nowNs() : 0;

  FuncCompiler FC(FM, FM.Funcs[DefIdx], Entries.data());
  uint8_t *Code = nullptr;
  size_t Sz = 0;
  if (!RW_FAULT_POINT(support::fault::Seam::JitCompile) && FC.analyze() &&
      FC.emit())
    Code = allocExec(FC.A.B, Sz);
  if (T0)
    CompileNs.record(obs::nowNs() - T0);
  if (!Code) {
    UnsupportedC.inc();
    Unsupported.fetch_add(1, std::memory_order_relaxed);
    State[DefIdx].store(3, std::memory_order_release);
    return false;
  }
  {
    std::lock_guard<std::mutex> Lock(PagesMu);
    Pages.push_back({Code, Sz});
  }
  CodeBytes.fetch_add(Sz, std::memory_order_relaxed);
  Entries[DefIdx].store(reinterpret_cast<NativeFn>(Code),
                        std::memory_order_release);
  Compiled.fetch_add(1, std::memory_order_relaxed);
  State[DefIdx].store(2, std::memory_order_release);
  CompiledC.inc();
  return true;
}

void ModuleJit::compileAll() {
  for (uint32_t I = 0; I < FM.Funcs.size(); ++I)
    compile(I);
}

//===----------------------------------------------------------------------===//
// Trampolines and FlatInstance glue: each helper runs the interpreter's
// own slow path and maps its outcome onto a JitStatus (a would-trap
// deopts so the interpreter re-executes and traps itself);
// jitExecuteBack normalizes one native activation's exit for the
// interpreter (see Engine.h JitRun).
//===----------------------------------------------------------------------===//

extern "C" uint64_t rwJitNumeric(uint32_t OpC, uint64_t A, uint64_t B,
                                 uint32_t *Trap) {
  NumTrap T = NumTrap::None;
  uint64_t V = evalNumeric(OpC, A, B, T);
  *Trap = T != NumTrap::None;
  return V;
}

extern "C" uint32_t rwJitCall(JitContext *Ctx, uint32_t CalleeIdx,
                              uint32_t SpRel, uint32_t RetPc) {
  return static_cast<FlatInstance *>(Ctx->Inst)
      ->jitDirectCall(*Ctx, CalleeIdx, SpRel, RetPc);
}
extern "C" uint32_t rwJitHost(JitContext *Ctx, uint32_t HostIdx,
                              uint32_t SpRel, uint32_t RetPc) {
  return static_cast<FlatInstance *>(Ctx->Inst)
      ->jitHostCall(*Ctx, HostIdx, SpRel, RetPc);
}
extern "C" uint32_t rwJitIndirect(JitContext *Ctx, uint32_t Expect,
                                  uint32_t SpRel, uint32_t RetPc) {
  return static_cast<FlatInstance *>(Ctx->Inst)
      ->jitIndirectCall(*Ctx, Expect, SpRel, RetPc);
}
extern "C" uint32_t rwJitGrow(JitContext *Ctx, uint32_t SpRel) {
  return static_cast<FlatInstance *>(Ctx->Inst)->jitMemoryGrow(*Ctx, SpRel);
}

void FlatInstance::jitRefreshArrays(JitContext &Ctx) {
  Ctx.Ops = OpStack.data();
  Ctx.OpsEnd = Ctx.Ops + OpStack.size();
  Ctx.Regs = Regs.data();
  Ctx.RegsEnd = Ctx.Regs + Regs.size();
}

uint32_t FlatInstance::jitDirectCall(JitContext &Ctx, uint32_t CalleeIdx,
                                     uint32_t SpRel, uint32_t RetPc) {
  if (!pushFrame(CalleeIdx, Frames.back().OpBase + SpRel, RetPc))
    // Nothing changed: the interpreter re-executes the call instruction
    // and traps "call stack exhausted" itself, with the same callee
    // attribution as a flat-only run.
    return JDeoptHere;
  uint64_t OpBase8 = static_cast<uint64_t>(Frames.back().OpBase) * 8;
  uint64_t RegBase8 = static_cast<uint64_t>(Frames.back().RegBase) * 8;
  jitRefreshArrays(Ctx);

  NativeFn Fn = Jit->entry(CalleeIdx);
  if (!Fn) {
    // Callee only runs flat: hand the pushed frame to the interpreter.
    Ctx.DeoptSp = 0;
    return JUnwind;
  }
  uint32_t St = Fn(&Ctx, OpBase8, RegBase8);
  switch (St) {
  case JOk:
    Frames.pop_back(); // Results sit at the callee's operand base.
    return JOk;
  case JDeoptHere:
    // The callee (still Frames.back()) resumes at its recorded pc;
    // outward this is an unwind, not a re-execute of the call.
    Frames.back().Pc = Ctx.DeoptPc;
    return JUnwind;
  default:
    return St; // JUnwind / JTrapFinal propagate unchanged.
  }
}

uint32_t FlatInstance::jitHostCall(JitContext &Ctx, uint32_t HostIdx,
                                   uint32_t SpRel, uint32_t RetPc) {
  uint32_t Sp = Frames.back().OpBase + SpRel;
  HostCall HC = hostCall(HostIdx, Sp, JitTrapMsg);
  if (HC == HostCall::Trap) {
    // Cannot be re-executed (the host already ran): a final trap.
    LastTrapFunc = HostIdx;
    Frames.clear();
    return JTrapFinal;
  }
  jitRefreshArrays(Ctx);
  Ctx.MemP = Mem.data(); // The host may have touched or grown memory.
  Ctx.MemSz = Mem.size();
  if (HC == HostCall::Drift) {
    // The interpreter lets the operand height follow a host's wrong
    // result count; static heights cannot, so resume interpretation
    // right after the call instruction.
    Frames.back().Pc = RetPc;
    Ctx.DeoptSp = Sp - Frames.back().OpBase;
    return JUnwind;
  }
  return JOk;
}

uint32_t FlatInstance::jitIndirectCall(JitContext &Ctx, uint32_t Expect,
                                       uint32_t SpRel, uint32_t RetPc) {
  uint32_t Func = 0;
  if (resolveIndirect(
          static_cast<uint32_t>(OpStack[Frames.back().OpBase + SpRel - 1]),
          Expect, Func))
    return JDeoptHere; // The interpreter re-executes and traps.
  if (Func < Active->NumImports)
    return jitHostCall(Ctx, Func, SpRel - 1, RetPc);
  return jitDirectCall(Ctx, Func - Active->NumImports, SpRel - 1, RetPc);
}

uint32_t FlatInstance::jitMemoryGrow(JitContext &Ctx, uint32_t SpRel) {
  uint64_t &Top = OpStack[Frames.back().OpBase + SpRel - 1];
  Top = memoryGrow(static_cast<uint32_t>(Top));
  Ctx.MemP = Mem.data();
  Ctx.MemSz = Mem.size();
  return JOk;
}

FlatInstance::JitRun FlatInstance::jitExecuteBack(uint64_t &Fuel) {
  // Deopts (this frame re-executes one instruction in the interpreter)
  // and side exits (a deeper frame unwound through this one) are counted
  // separately: a server tuning tier-up policy needs to know whether
  // native code is bailing itself or propagating callees' bails.
  static obs::Counter DeoptC("exec.tier.deopts");
  static obs::Counter SideExitC("exec.tier.side_exits");
  static obs::Counter RefundC("exec.tier.fuel_refunded");
  JitContext Ctx;
  Ctx.Inst = this;
  Ctx.Frames = &Frames;
  jitRefreshArrays(Ctx);
  Ctx.MemP = Mem.data();
  Ctx.MemSz = Mem.size();
  Ctx.Fuel = Fuel;
  Ctx.GlobalsP = Globals.data();
  Ctx.ProfP = Prof.empty() ? nullptr : Prof.data();

  const CallFrame &Fr = Frames.back();
  uint32_t DefIdx = static_cast<uint32_t>(Fr.F - Active->Funcs.data());
  NativeFn Fn = Jit->entry(DefIdx);
  uint32_t St = Fn(&Ctx, static_cast<uint64_t>(Fr.OpBase) * 8,
                   static_cast<uint64_t>(Fr.RegBase) * 8);
  Fuel = Ctx.Fuel;
  if (Ctx.FuelRefunded)
    RefundC.add(Ctx.FuelRefunded);
  switch (St) {
  case JOk:
    Frames.pop_back();
    return JitRun::Done;
  case JDeoptHere:
    Frames.back().Pc = Ctx.DeoptPc;
    ResumeSp = Ctx.DeoptSp;
    DeoptC.inc();
    return JitRun::Resume;
  case JUnwind:
    ResumeSp = Ctx.DeoptSp;
    SideExitC.inc();
    return JitRun::Resume;
  default:
    return JitRun::Trapped;
  }
}

void FlatInstance::maybeTierUp() {
  if (Prof.empty())
    return;
  const FlatModule &FMod = *Active;
  uint32_t ND = static_cast<uint32_t>(FMod.Funcs.size());
  for (uint32_t D = 0; D < ND; ++D) {
    if (Jit->attempted(D))
      continue;
    const FunctionProfile &P = Prof[D + FMod.NumImports];
    uint64_t Inv = P.Invocations.load(), Lp = P.LoopHeads.load();
    uint64_t Mass = Inv + Lp < Inv ? UINT64_MAX : Inv + Lp;
    if (Mass < TierThreshold)
      continue;
    OBS_SPAN("tier_up", D);
    Jit->compile(D);
  }
}

#endif // RW_JIT_ENABLED
