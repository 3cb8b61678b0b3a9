//===- wasm/Interp.cpp - Wasm interpreter ----------------------------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "wasm/Interp.h"

#include "support/NumericOps.h"

#include <cassert>
#include <cstring>

using namespace rw;
using namespace rw::wasm;

Expected<std::vector<WValue>> WasmInstance::invoke(uint32_t FuncIdx,
                                                   std::vector<WValue> Args,
                                                   uint64_t MaxFuel) {
  Fuel = MaxFuel;
  Stack.clear();
  CallDepth = 0;
  TrapFunc.reset();
  for (const WValue &A : Args)
    Stack.push_back(A);
  Exec R = callFunction(FuncIdx);
  if (R == Exec::Trap)
    return Error("trap: " + TrapMsg +
                 trapNote(TrapFunc ? *TrapFunc : FuncIdx));
  const FuncType &FT = M->funcType(FuncIdx);
  if (Stack.size() < FT.Results.size())
    return Error("function left too few results");
  std::vector<WValue> Out(Stack.end() - FT.Results.size(), Stack.end());
  Stack.clear();
  return Out;
}

WasmInstance::Exec WasmInstance::callFunction(uint32_t FuncIdx) {
  Exec R = callFunctionImpl(FuncIdx);
  // Innermost frame wins: a trap that bubbled through outer frames keeps
  // its original attribution. "call stack exhausted" lands here too, on
  // the callee that failed to get a frame — same as the flat engine.
  if (R == Exec::Trap && !TrapFunc)
    TrapFunc = FuncIdx;
  return R;
}

WasmInstance::Exec WasmInstance::callFunctionImpl(uint32_t FuncIdx) {
  if (++CallDepth > MaxCallDepth) {
    --CallDepth;
    return trap("call stack exhausted");
  }
  const FuncType &FT = M->funcType(FuncIdx);
  if (FuncIdx < M->ImportFuncs.size()) {
    const HostFn *H = hostFor(FuncIdx);
    if (!H) {
      --CallDepth;
      return trap("unsatisfied import");
    }
    if (Stack.size() < FT.Params.size()) {
      --CallDepth;
      return trap("host call stack underflow");
    }
    std::vector<WValue> Args(Stack.end() - FT.Params.size(), Stack.end());
    Stack.resize(Stack.size() - FT.Params.size());
    // Bump only once the call will actually enter the host — after the
    // import resolved and the arguments were available (the flat engine
    // counts at the same point).
    if (ProfileOn)
      ++Prof[FuncIdx].Invocations;
    Expected<std::vector<WValue>> R = (*H)(*this, Args);
    --CallDepth;
    if (!R) {
      TrapMsg = R.error().message();
      return Exec::Trap;
    }
    for (const WValue &V : *R)
      Stack.push_back(V);
    return Exec::Normal;
  }

  const WFunc &F = M->Funcs[FuncIdx - M->ImportFuncs.size()];
  Frame Fr;
  if (Stack.size() < FT.Params.size()) {
    --CallDepth;
    return trap("call stack underflow");
  }
  Fr.Locals.assign(Stack.end() - FT.Params.size(), Stack.end());
  Stack.resize(Stack.size() - FT.Params.size());
  size_t Base = Stack.size();
  for (ValType T : F.Locals)
    Fr.Locals.push_back({T, 0});
  Fr.FuncIdx = FuncIdx;
  if (ProfileOn)
    ++Prof[FuncIdx].Invocations;

  uint32_t BrDepth = 0;
  Exec R = execSeq(F.Body, Fr, BrDepth);
  --CallDepth;
  if (R == Exec::Trap)
    return R;
  if (R == Exec::Branch)
    return trap("branch escaped function body");
  // Keep exactly the results above the caller's stack base.
  if (Stack.size() < Base + FT.Results.size())
    return trap("function body left too few results");
  std::vector<WValue> Res(Stack.end() - FT.Results.size(), Stack.end());
  Stack.resize(Base);
  for (const WValue &V : Res)
    Stack.push_back(V);
  return Exec::Normal;
}

WasmInstance::Exec WasmInstance::execSeq(const std::vector<WInst> &Body,
                                         Frame &F, uint32_t &BrDepth) {
  for (const WInst &I : Body) {
    if (Fuel == 0)
      return trap("fuel exhausted");
    --Fuel;
    ++Executed;
    Exec R = execInst(I, F, BrDepth);
    if (R != Exec::Normal)
      return R;
  }
  return Exec::Normal;
}

WasmInstance::Exec WasmInstance::execInst(const WInst &I, Frame &F,
                                          uint32_t &BrDepth) {
  switch (I.K) {
  case Op::Unreachable:
    return trap("unreachable executed");
  case Op::Nop:
    return Exec::Normal;

  case Op::Block: {
    size_t Base = Stack.size() - I.bt().Params.size();
    Exec R = execSeq(I.Body, F, BrDepth);
    if (R == Exec::Branch) {
      if (BrDepth > 0) {
        --BrDepth;
        return Exec::Branch;
      }
      // Branch to this block: keep the top |results| values above Base.
      std::vector<WValue> Keep(Stack.end() - I.bt().Results.size(),
                               Stack.end());
      Stack.resize(Base);
      for (const WValue &V : Keep)
        Stack.push_back(V);
      return Exec::Normal;
    }
    return R;
  }
  case Op::Loop: {
    for (;;) {
      // Loop-header execution: counts the fall-in entry plus every
      // back-branch, matching the flat engine's FProfLoop at the branch
      // target.
      if (ProfileOn)
        ++Prof[F.FuncIdx].LoopHeads;
      size_t Base = Stack.size() - I.bt().Params.size();
      Exec R = execSeq(I.Body, F, BrDepth);
      if (R == Exec::Branch) {
        if (BrDepth > 0) {
          --BrDepth;
          return Exec::Branch;
        }
        // Branch to the loop: keep |params| values and iterate again.
        std::vector<WValue> Keep(Stack.end() - I.bt().Params.size(),
                                 Stack.end());
        Stack.resize(Base);
        for (const WValue &V : Keep)
          Stack.push_back(V);
        continue;
      }
      return R;
    }
  }
  case Op::If: {
    if (Stack.empty())
      return trap("if: stack underflow");
    uint32_t Cond = Stack.back().asU32();
    Stack.pop_back();
    size_t Base = Stack.size() - I.bt().Params.size();
    Exec R = execSeq(Cond ? I.Body.insts() : I.Else.insts(), F, BrDepth);
    if (R == Exec::Branch) {
      if (BrDepth > 0) {
        --BrDepth;
        return Exec::Branch;
      }
      std::vector<WValue> Keep(Stack.end() - I.bt().Results.size(),
                               Stack.end());
      Stack.resize(Base);
      for (const WValue &V : Keep)
        Stack.push_back(V);
      return Exec::Normal;
    }
    return R;
  }
  case Op::Br:
    BrDepth = I.U32;
    return Exec::Branch;
  case Op::BrIf: {
    if (Stack.empty())
      return trap("br_if: stack underflow");
    uint32_t Cond = Stack.back().asU32();
    Stack.pop_back();
    if (!Cond)
      return Exec::Normal;
    BrDepth = I.U32;
    return Exec::Branch;
  }
  case Op::BrTable: {
    if (Stack.empty())
      return trap("br_table: stack underflow");
    uint32_t Idx = Stack.back().asU32();
    Stack.pop_back();
    const std::vector<uint32_t> &Targets = I.table();
    BrDepth = Idx < Targets.size() ? Targets[Idx] : I.U32;
    return Exec::Branch;
  }
  case Op::Return:
    return Exec::Ret;
  case Op::Call:
    return callFunction(I.U32);
  case Op::CallIndirect: {
    if (Stack.empty())
      return trap("call_indirect: stack underflow");
    uint32_t Idx = Stack.back().asU32();
    Stack.pop_back();
    if (Idx >= Table.size())
      return trap("call_indirect: table index out of bounds");
    uint32_t FuncIdx = Table[Idx];
    if (!(M->funcType(FuncIdx) == M->Types[I.U32]))
      return trap("call_indirect: signature mismatch");
    return callFunction(FuncIdx);
  }

  case Op::Drop:
    if (Stack.empty())
      return trap("drop: stack underflow");
    Stack.pop_back();
    return Exec::Normal;
  case Op::Select: {
    if (Stack.size() < 3)
      return trap("select: stack underflow");
    uint32_t Cond = Stack.back().asU32();
    Stack.pop_back();
    WValue B = Stack.back();
    Stack.pop_back();
    WValue A = Stack.back();
    Stack.pop_back();
    Stack.push_back(Cond ? A : B);
    return Exec::Normal;
  }

  case Op::LocalGet:
    Stack.push_back(F.Locals[I.U32]);
    return Exec::Normal;
  case Op::LocalSet:
    F.Locals[I.U32] = Stack.back();
    Stack.pop_back();
    return Exec::Normal;
  case Op::LocalTee:
    F.Locals[I.U32] = Stack.back();
    return Exec::Normal;
  case Op::GlobalGet:
    Stack.push_back(Globals[I.U32]);
    return Exec::Normal;
  case Op::GlobalSet:
    Globals[I.U32] = Stack.back();
    Stack.pop_back();
    return Exec::Normal;

  case Op::MemorySize:
    Stack.push_back(WValue::i32(static_cast<uint32_t>(Mem.size() / PageSize)));
    return Exec::Normal;
  case Op::MemoryGrow:
    Stack.back() =
        WValue::i32(static_cast<uint32_t>(memoryGrow(Stack.back().asU32())));
    return Exec::Normal;

  case Op::I32Const:
    Stack.push_back({ValType::I32, I.U64 & 0xffffffffu});
    return Exec::Normal;
  case Op::I64Const:
    Stack.push_back({ValType::I64, I.U64});
    return Exec::Normal;
  case Op::F32Const:
    Stack.push_back({ValType::F32, I.U64 & 0xffffffffu});
    return Exec::Normal;
  case Op::F64Const:
    Stack.push_back({ValType::F64, I.U64});
    return Exec::Normal;

  default:
    if (opInfo(I.K).Imm == ImmKind::Memarg)
      return execMemory(I);
    return execNumeric(I);
  }
}

//===----------------------------------------------------------------------===//
// Memory access
//===----------------------------------------------------------------------===//

WasmInstance::Exec WasmInstance::execMemory(const WInst &I) {
  bool IsStore = opInfo(I.K).Pushes == 0;
  WValue StoreVal{};
  if (IsStore) {
    StoreVal = Stack.back();
    Stack.pop_back();
  }
  uint64_t Addr = Stack.back().asU32() + static_cast<uint64_t>(I.offset());
  Stack.pop_back();

  auto InBounds = [&](unsigned N) { return Addr + N <= Mem.size(); };
  auto LoadN = [&](unsigned N) {
    uint64_t V = 0;
    std::memcpy(&V, Mem.data() + Addr, N);
    return V;
  };
  auto StoreN = [&](unsigned N, uint64_t V) {
    std::memcpy(Mem.data() + Addr, &V, N);
  };
  auto SignExtend = [](uint64_t V, unsigned Bits) {
    uint64_t Mask = 1ull << (Bits - 1);
    return (V ^ Mask) - Mask;
  };

  switch (I.K) {
  case Op::I32Load:
    if (!InBounds(4))
      return trap("out-of-bounds memory access");
    Stack.push_back({ValType::I32, LoadN(4)});
    return Exec::Normal;
  case Op::I64Load:
    if (!InBounds(8))
      return trap("out-of-bounds memory access");
    Stack.push_back({ValType::I64, LoadN(8)});
    return Exec::Normal;
  case Op::F32Load:
    if (!InBounds(4))
      return trap("out-of-bounds memory access");
    Stack.push_back({ValType::F32, LoadN(4)});
    return Exec::Normal;
  case Op::F64Load:
    if (!InBounds(8))
      return trap("out-of-bounds memory access");
    Stack.push_back({ValType::F64, LoadN(8)});
    return Exec::Normal;
  case Op::I32Load8S:
    if (!InBounds(1))
      return trap("out-of-bounds memory access");
    Stack.push_back({ValType::I32, SignExtend(LoadN(1), 8) & 0xffffffffu});
    return Exec::Normal;
  case Op::I32Load8U:
    if (!InBounds(1))
      return trap("out-of-bounds memory access");
    Stack.push_back({ValType::I32, LoadN(1)});
    return Exec::Normal;
  case Op::I32Load16S:
    if (!InBounds(2))
      return trap("out-of-bounds memory access");
    Stack.push_back({ValType::I32, SignExtend(LoadN(2), 16) & 0xffffffffu});
    return Exec::Normal;
  case Op::I32Load16U:
    if (!InBounds(2))
      return trap("out-of-bounds memory access");
    Stack.push_back({ValType::I32, LoadN(2)});
    return Exec::Normal;
  case Op::I64Load8S:
    if (!InBounds(1))
      return trap("out-of-bounds memory access");
    Stack.push_back({ValType::I64, SignExtend(LoadN(1), 8)});
    return Exec::Normal;
  case Op::I64Load8U:
    if (!InBounds(1))
      return trap("out-of-bounds memory access");
    Stack.push_back({ValType::I64, LoadN(1)});
    return Exec::Normal;
  case Op::I64Load16S:
    if (!InBounds(2))
      return trap("out-of-bounds memory access");
    Stack.push_back({ValType::I64, SignExtend(LoadN(2), 16)});
    return Exec::Normal;
  case Op::I64Load16U:
    if (!InBounds(2))
      return trap("out-of-bounds memory access");
    Stack.push_back({ValType::I64, LoadN(2)});
    return Exec::Normal;
  case Op::I64Load32S:
    if (!InBounds(4))
      return trap("out-of-bounds memory access");
    Stack.push_back({ValType::I64, SignExtend(LoadN(4), 32)});
    return Exec::Normal;
  case Op::I64Load32U:
    if (!InBounds(4))
      return trap("out-of-bounds memory access");
    Stack.push_back({ValType::I64, LoadN(4)});
    return Exec::Normal;
  case Op::I32Store:
  case Op::F32Store:
    if (!InBounds(4))
      return trap("out-of-bounds memory access");
    StoreN(4, StoreVal.Bits);
    return Exec::Normal;
  case Op::I64Store:
  case Op::F64Store:
    if (!InBounds(8))
      return trap("out-of-bounds memory access");
    StoreN(8, StoreVal.Bits);
    return Exec::Normal;
  case Op::I32Store8:
  case Op::I64Store8:
    if (!InBounds(1))
      return trap("out-of-bounds memory access");
    StoreN(1, StoreVal.Bits);
    return Exec::Normal;
  case Op::I32Store16:
  case Op::I64Store16:
    if (!InBounds(2))
      return trap("out-of-bounds memory access");
    StoreN(2, StoreVal.Bits);
    return Exec::Normal;
  case Op::I64Store32:
    if (!InBounds(4))
      return trap("out-of-bounds memory access");
    StoreN(4, StoreVal.Bits);
    return Exec::Normal;
  default:
    return trap("bad memory opcode");
  }
}

//===----------------------------------------------------------------------===//
// Numerics
//===----------------------------------------------------------------------===//

// The tree engine decodes numeric opcodes by hand, by byte range, and does
// its own conversions, instead of reading the rows' Num column the way
// lowering, the flat tier and sem::Machine do. That keeps it an
// independent reference: the exec_test oracles check the rows against it.
WasmInstance::Exec WasmInstance::execNumeric(const WInst &I) {
  using namespace rw::num;
  uint8_t C = static_cast<uint8_t>(I.K);

  auto Pop = [&]() {
    WValue V = Stack.back();
    Stack.pop_back();
    return V;
  };
  auto PushI32 = [&](uint64_t V) {
    Stack.push_back({ValType::I32, V & 0xffffffffu});
  };

  // Test / comparison operators.
  if (C == 0x45) { // i32.eqz
    PushI32(Pop().asU32() == 0 ? 1 : 0);
    return Exec::Normal;
  }
  if (C == 0x50) { // i64.eqz
    PushI32(Pop().Bits == 0 ? 1 : 0);
    return Exec::Normal;
  }
  if (C >= 0x46 && C <= 0x4f) { // i32 relops
    WValue B = Pop(), A = Pop();
    static const RelopKind Map[] = {RelopKind::Eq, RelopKind::Ne,
                                    RelopKind::Lt, RelopKind::Lt,
                                    RelopKind::Gt, RelopKind::Gt,
                                    RelopKind::Le, RelopKind::Le,
                                    RelopKind::Ge, RelopKind::Ge};
    static const bool Signed[] = {false, false, true, false, true,
                                  false, true,  false, true, false};
    unsigned Idx = C - 0x46;
    PushI32(evalIntRelop(Map[Idx], A.Bits, B.Bits, false, Signed[Idx]));
    return Exec::Normal;
  }
  if (C >= 0x51 && C <= 0x5a) { // i64 relops
    WValue B = Pop(), A = Pop();
    static const RelopKind Map[] = {RelopKind::Eq, RelopKind::Ne,
                                    RelopKind::Lt, RelopKind::Lt,
                                    RelopKind::Gt, RelopKind::Gt,
                                    RelopKind::Le, RelopKind::Le,
                                    RelopKind::Ge, RelopKind::Ge};
    static const bool Signed[] = {false, false, true, false, true,
                                  false, true,  false, true, false};
    unsigned Idx = C - 0x51;
    PushI32(evalIntRelop(Map[Idx], A.Bits, B.Bits, true, Signed[Idx]));
    return Exec::Normal;
  }
  if (C >= 0x5b && C <= 0x66) { // float relops
    WValue B = Pop(), A = Pop();
    bool Is64 = C >= 0x61;
    unsigned Idx = Is64 ? C - 0x61 : C - 0x5b;
    static const RelopKind Map[] = {RelopKind::Eq, RelopKind::Ne,
                                    RelopKind::Lt, RelopKind::Gt,
                                    RelopKind::Le, RelopKind::Ge};
    PushI32(evalFloatRelop(Map[Idx], A.Bits, B.Bits, Is64));
    return Exec::Normal;
  }

  // Integer unary.
  if (C >= 0x67 && C <= 0x69) {
    WValue A = Pop();
    uint64_t R = C == 0x67   ? intClz(A.Bits, false)
                 : C == 0x68 ? intCtz(A.Bits, false)
                             : intPopcnt(A.Bits, false);
    PushI32(R);
    return Exec::Normal;
  }
  if (C >= 0x79 && C <= 0x7b) {
    WValue A = Pop();
    uint64_t R = C == 0x79   ? intClz(A.Bits, true)
                 : C == 0x7a ? intCtz(A.Bits, true)
                             : intPopcnt(A.Bits, true);
    Stack.push_back({ValType::I64, R});
    return Exec::Normal;
  }

  // Integer binary.
  if ((C >= 0x6a && C <= 0x78) || (C >= 0x7c && C <= 0x8a)) {
    bool Is64 = C >= 0x7c;
    unsigned Idx = Is64 ? C - 0x7c : C - 0x6a;
    static const BinopKind Map[] = {
        BinopKind::Add, BinopKind::Sub, BinopKind::Mul, BinopKind::Div,
        BinopKind::Div, BinopKind::Rem, BinopKind::Rem, BinopKind::And,
        BinopKind::Or,  BinopKind::Xor, BinopKind::Shl, BinopKind::Shr,
        BinopKind::Shr, BinopKind::Rotl, BinopKind::Rotr};
    static const bool Signed[] = {false, false, false, true,  false,
                                  true,  false, false, false, false,
                                  false, true,  false, false, false};
    WValue B = Pop(), A = Pop();
    std::optional<uint64_t> R =
        evalIntBinop(Map[Idx], A.Bits, B.Bits, Is64, Signed[Idx]);
    if (!R)
      return trap("integer divide error");
    Stack.push_back({Is64 ? ValType::I64 : ValType::I32,
                     Is64 ? *R : (*R & 0xffffffffu)});
    return Exec::Normal;
  }

  // Float unary.
  if ((C >= 0x8b && C <= 0x91) || (C >= 0x99 && C <= 0x9f)) {
    bool Is64 = C >= 0x99;
    unsigned Idx = Is64 ? C - 0x99 : C - 0x8b;
    static const UnopKind Map[] = {UnopKind::Abs,   UnopKind::Neg,
                                   UnopKind::Ceil,  UnopKind::Floor,
                                   UnopKind::Trunc, UnopKind::Nearest,
                                   UnopKind::Sqrt};
    WValue A = Pop();
    Stack.push_back({Is64 ? ValType::F64 : ValType::F32,
                     evalFloatUnop(Map[Idx], A.Bits, Is64)});
    return Exec::Normal;
  }

  // Float binary.
  if ((C >= 0x92 && C <= 0x98) || (C >= 0xa0 && C <= 0xa6)) {
    bool Is64 = C >= 0xa0;
    unsigned Idx = Is64 ? C - 0xa0 : C - 0x92;
    static const BinopKind Map[] = {BinopKind::Add, BinopKind::Sub,
                                    BinopKind::Mul, BinopKind::Div,
                                    BinopKind::Min, BinopKind::Max,
                                    BinopKind::Copysign};
    WValue B = Pop(), A = Pop();
    Stack.push_back({Is64 ? ValType::F64 : ValType::F32,
                     evalFloatBinop(Map[Idx], A.Bits, B.Bits, Is64)});
    return Exec::Normal;
  }

  // Conversions.
  switch (I.K) {
  case Op::I32WrapI64:
    PushI32(Pop().Bits);
    return Exec::Normal;
  case Op::I64ExtendI32S: {
    WValue A = Pop();
    Stack.push_back(
        {ValType::I64,
         static_cast<uint64_t>(
             static_cast<int64_t>(static_cast<int32_t>(A.asU32())))});
    return Exec::Normal;
  }
  case Op::I64ExtendI32U:
    Stack.push_back({ValType::I64, Pop().asU32()});
    return Exec::Normal;
  case Op::I32TruncF32S:
  case Op::I32TruncF32U:
  case Op::I64TruncF32S:
  case Op::I64TruncF32U: {
    bool Dst64 = I.K == Op::I64TruncF32S || I.K == Op::I64TruncF32U;
    bool Sgn = I.K == Op::I32TruncF32S || I.K == Op::I64TruncF32S;
    std::optional<uint64_t> R = truncToInt(bitsToF32(Pop().Bits), Dst64, Sgn);
    if (!R)
      return trap("invalid conversion to integer");
    Stack.push_back({Dst64 ? ValType::I64 : ValType::I32, *R});
    return Exec::Normal;
  }
  case Op::I32TruncF64S:
  case Op::I32TruncF64U:
  case Op::I64TruncF64S:
  case Op::I64TruncF64U: {
    bool Dst64 = I.K == Op::I64TruncF64S || I.K == Op::I64TruncF64U;
    bool Sgn = I.K == Op::I32TruncF64S || I.K == Op::I64TruncF64S;
    std::optional<uint64_t> R = truncToInt(bitsToF64(Pop().Bits), Dst64, Sgn);
    if (!R)
      return trap("invalid conversion to integer");
    Stack.push_back({Dst64 ? ValType::I64 : ValType::I32, *R});
    return Exec::Normal;
  }
  case Op::F32ConvertI32S:
    Stack.push_back({ValType::F32, f32ToBits(static_cast<float>(
                                       static_cast<int32_t>(Pop().asU32())))});
    return Exec::Normal;
  case Op::F32ConvertI32U:
    Stack.push_back(
        {ValType::F32, f32ToBits(static_cast<float>(Pop().asU32()))});
    return Exec::Normal;
  case Op::F32ConvertI64S:
    Stack.push_back({ValType::F32, f32ToBits(static_cast<float>(
                                       static_cast<int64_t>(Pop().Bits)))});
    return Exec::Normal;
  case Op::F32ConvertI64U:
    Stack.push_back(
        {ValType::F32, f32ToBits(static_cast<float>(Pop().Bits))});
    return Exec::Normal;
  case Op::F64ConvertI32S:
    Stack.push_back({ValType::F64, f64ToBits(static_cast<double>(
                                       static_cast<int32_t>(Pop().asU32())))});
    return Exec::Normal;
  case Op::F64ConvertI32U:
    Stack.push_back(
        {ValType::F64, f64ToBits(static_cast<double>(Pop().asU32()))});
    return Exec::Normal;
  case Op::F64ConvertI64S:
    Stack.push_back({ValType::F64, f64ToBits(static_cast<double>(
                                       static_cast<int64_t>(Pop().Bits)))});
    return Exec::Normal;
  case Op::F64ConvertI64U:
    Stack.push_back(
        {ValType::F64, f64ToBits(static_cast<double>(Pop().Bits))});
    return Exec::Normal;
  case Op::F32DemoteF64:
    Stack.push_back({ValType::F32, f32ToBits(static_cast<float>(
                                       bitsToF64(Pop().Bits)))});
    return Exec::Normal;
  case Op::F64PromoteF32:
    Stack.push_back({ValType::F64, f64ToBits(static_cast<double>(
                                       bitsToF32(Pop().Bits)))});
    return Exec::Normal;
  case Op::I32ReinterpretF32:
    Stack.push_back({ValType::I32, Pop().Bits});
    return Exec::Normal;
  case Op::I64ReinterpretF64:
    Stack.push_back({ValType::I64, Pop().Bits});
    return Exec::Normal;
  case Op::F32ReinterpretI32:
    Stack.push_back({ValType::F32, Pop().Bits});
    return Exec::Normal;
  case Op::F64ReinterpretI64:
    Stack.push_back({ValType::F64, Pop().Bits});
    return Exec::Normal;
  default:
    return trap("unhandled opcode");
  }
}
