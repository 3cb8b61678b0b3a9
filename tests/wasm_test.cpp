//===- tests/wasm_test.cpp - Wasm substrate: validate/run/encode/decode ---===//
//
// Exercises the WebAssembly substrate that §6 lowers into: validation
// (positive and negative), the interpreter (numerics, control flow,
// memory, calls, host functions), and binary round-tripping.
//
//===----------------------------------------------------------------------===//

#include "wasm/Binary.h"
#include "wasm/Interp.h"
#include "wasm/Validate.h"

#include <gtest/gtest.h>

using namespace rw;
using namespace rw::wasm;

namespace {

/// A module with one exported function "f" of the given signature.
WModule oneFunc(FuncType FT, std::vector<ValType> Locals,
                std::vector<WInst> Body) {
  WModule M;
  uint32_t TI = M.addType(std::move(FT));
  M.Funcs.push_back({TI, std::move(Locals), std::move(Body)});
  M.Exports.push_back({"f", ExportKind::Func, 0});
  return M;
}

Expected<std::vector<WValue>> runF(const WModule &M,
                                   std::vector<WValue> Args) {
  WasmInstance Inst(M);
  Status S = Inst.initialize();
  if (!S)
    return S.error();
  return Inst.invokeByName("f", std::move(Args));
}

} // namespace

//===----------------------------------------------------------------------===//
// Validation
//===----------------------------------------------------------------------===//

TEST(WasmValidate, SimpleAddOk) {
  WModule M = oneFunc({{ValType::I32, ValType::I32}, {ValType::I32}}, {},
                      {WInst::idx(Op::LocalGet, 0), WInst::idx(Op::LocalGet, 1),
                       WInst::mk(Op::I32Add)});
  EXPECT_TRUE(validate(M).ok());
}

TEST(WasmValidate, TypeErrorRejected) {
  WModule M = oneFunc({{}, {ValType::I32}}, {},
                      {WInst::i64c(1), WInst::i64c(2), WInst::mk(Op::I32Add)});
  EXPECT_FALSE(validate(M).ok());
}

TEST(WasmValidate, StackUnderflowRejected) {
  WModule M = oneFunc({{}, {ValType::I32}}, {}, {WInst::mk(Op::I32Add)});
  EXPECT_FALSE(validate(M).ok());
}

TEST(WasmValidate, ResultCountRejected) {
  WModule M = oneFunc({{}, {ValType::I32}}, {},
                      {WInst::i32c(1), WInst::i32c(2)});
  EXPECT_FALSE(validate(M).ok());
}

TEST(WasmValidate, BrDepthChecked) {
  WModule M = oneFunc({{}, {}}, {}, {WInst::idx(Op::Br, 5)});
  EXPECT_FALSE(validate(M).ok());
}

TEST(WasmValidate, MemoryOpsNeedMemory) {
  WModule M = oneFunc({{}, {ValType::I32}}, {},
                      {WInst::i32c(0), WInst::mem(Op::I32Load, 2, 0)});
  EXPECT_FALSE(validate(M).ok());
  M.Memory = {{1, std::nullopt}};
  EXPECT_TRUE(validate(M).ok());
}

TEST(WasmValidate, MultiValueBlock) {
  // A block producing two results (multi-value extension).
  FuncType BT{{}, {ValType::I32, ValType::I32}};
  WModule M = oneFunc({{}, {ValType::I32}}, {},
                      {WInst::block(BT, {WInst::i32c(1), WInst::i32c(2)}),
                       WInst::mk(Op::I32Add)});
  EXPECT_TRUE(validate(M).ok()) << validate(M).error().message();
}

TEST(WasmValidate, LocalIndexChecked) {
  WModule M = oneFunc({{}, {ValType::I32}}, {}, {WInst::idx(Op::LocalGet, 3)});
  EXPECT_FALSE(validate(M).ok());
}

TEST(WasmValidate, ImmutableGlobalSetRejected) {
  WModule M = oneFunc({{}, {}}, {},
                      {WInst::i32c(1), WInst::idx(Op::GlobalSet, 0)});
  M.Globals.push_back({ValType::I32, false, {WInst::i32c(0)}});
  EXPECT_FALSE(validate(M).ok());
}

//===----------------------------------------------------------------------===//
// Interpreter
//===----------------------------------------------------------------------===//

TEST(WasmInterp, AddAndCall) {
  WModule M = oneFunc({{ValType::I32, ValType::I32}, {ValType::I32}}, {},
                      {WInst::idx(Op::LocalGet, 0), WInst::idx(Op::LocalGet, 1),
                       WInst::mk(Op::I32Add)});
  auto R = runF(M, {WValue::i32(30), WValue::i32(12)});
  ASSERT_TRUE(bool(R)) << R.error().message();
  EXPECT_EQ((*R)[0].asU32(), 42u);
}

TEST(WasmInterp, FactorialLoop) {
  // Iterative factorial using a loop with a local accumulator.
  WModule M = oneFunc(
      {{ValType::I32}, {ValType::I32}}, {ValType::I32},
      {WInst::i32c(1), WInst::idx(Op::LocalSet, 1),
       WInst::block(
           {{}, {}},
           {WInst::loop(
               {{}, {}},
               {// if local0 == 0 break
                WInst::idx(Op::LocalGet, 0), WInst::mk(Op::I32Eqz),
                WInst::idx(Op::BrIf, 1),
                // acc *= n; n -= 1
                WInst::idx(Op::LocalGet, 1), WInst::idx(Op::LocalGet, 0),
                WInst::mk(Op::I32Mul), WInst::idx(Op::LocalSet, 1),
                WInst::idx(Op::LocalGet, 0), WInst::i32c(1),
                WInst::mk(Op::I32Sub), WInst::idx(Op::LocalSet, 0),
                WInst::idx(Op::Br, 0)})}),
       WInst::idx(Op::LocalGet, 1)});
  ASSERT_TRUE(validate(M).ok()) << validate(M).error().message();
  auto R = runF(M, {WValue::i32(6)});
  ASSERT_TRUE(bool(R)) << R.error().message();
  EXPECT_EQ((*R)[0].asU32(), 720u);
}

TEST(WasmInterp, MemoryLoadStore) {
  WModule M = oneFunc({{}, {ValType::I32}}, {},
                      {WInst::i32c(16), WInst::i32c(0xabcd),
                       WInst::mem(Op::I32Store, 2, 0), WInst::i32c(16),
                       WInst::mem(Op::I32Load, 2, 0)});
  M.Memory = {{1, std::nullopt}};
  auto R = runF(M, {});
  ASSERT_TRUE(bool(R)) << R.error().message();
  EXPECT_EQ((*R)[0].asU32(), 0xabcdu);
}

TEST(WasmInterp, OutOfBoundsTraps) {
  WModule M = oneFunc({{}, {ValType::I32}}, {},
                      {WInst::i32c(0x7fffffff), WInst::mem(Op::I32Load, 2, 0)});
  M.Memory = {{1, std::nullopt}};
  auto R = runF(M, {});
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().message().find("bounds"), std::string::npos);
}

TEST(WasmInterp, MemoryGrow) {
  WModule M = oneFunc({{}, {ValType::I32}}, {},
                      {WInst::i32c(2), WInst::mk(Op::MemoryGrow), WInst::mk(Op::Drop),
                       WInst::mk(Op::MemorySize)});
  M.Memory = {{1, std::nullopt}};
  auto R = runF(M, {});
  ASSERT_TRUE(bool(R));
  EXPECT_EQ((*R)[0].asU32(), 3u);
}

TEST(WasmInterp, CallIndirectSignatureCheck) {
  WModule M;
  uint32_t TAdd = M.addType({{ValType::I32, ValType::I32}, {ValType::I32}});
  uint32_t TNul = M.addType({{}, {ValType::I32}});
  M.Funcs.push_back({TAdd,
                     {},
                     {WInst::idx(Op::LocalGet, 0), WInst::idx(Op::LocalGet, 1),
                      WInst::mk(Op::I32Add)}});
  M.TableElems = {0};
  // Call through the table with the wrong signature: must trap.
  WInst CI = WInst::idx(Op::CallIndirect, TNul);
  M.Funcs.push_back({TNul, {}, {WInst::i32c(0), CI}});
  M.Exports.push_back({"f", ExportKind::Func, 1});
  auto R = runF(M, {});
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().message().find("signature"), std::string::npos);
}

TEST(WasmInterp, HostFunctionImport) {
  WModule M;
  uint32_t T1 = M.addType({{ValType::I32}, {ValType::I32}});
  M.ImportFuncs.push_back({"env", "double", T1});
  M.Funcs.push_back({T1, {}, {WInst::idx(Op::LocalGet, 0),
                              WInst::idx(Op::Call, 0)}});
  M.Exports.push_back({"f", ExportKind::Func, 1});
  WasmInstance Inst(M);
  Inst.registerHost("env", "double",
                    [](Instance &, const std::vector<WValue> &Args)
                        -> Expected<std::vector<WValue>> {
                      return std::vector<WValue>{
                          WValue::i32(Args[0].asU32() * 2)};
                    });
  ASSERT_TRUE(Inst.initialize().ok());
  auto R = Inst.invokeByName("f", {WValue::i32(21)});
  ASSERT_TRUE(bool(R)) << R.error().message();
  EXPECT_EQ((*R)[0].asU32(), 42u);
}

TEST(WasmInterp, DivideByZeroTraps) {
  WModule M = oneFunc({{}, {ValType::I32}}, {},
                      {WInst::i32c(1), WInst::i32c(0), WInst::mk(Op::I32DivS)});
  auto R = runF(M, {});
  ASSERT_FALSE(bool(R));
}

TEST(WasmInterp, GlobalsAndStart) {
  WModule M;
  uint32_t T0 = M.addType({{}, {}});
  uint32_t T1 = M.addType({{}, {ValType::I32}});
  M.Globals.push_back({ValType::I32, true, {WInst::i32c(5)}});
  M.Funcs.push_back({T0,
                     {},
                     {WInst::idx(Op::GlobalGet, 0), WInst::i32c(2),
                      WInst::mk(Op::I32Mul), WInst::idx(Op::GlobalSet, 0)}});
  M.Funcs.push_back({T1, {}, {WInst::idx(Op::GlobalGet, 0)}});
  M.Start = 0;
  M.Exports.push_back({"f", ExportKind::Func, 1});
  auto R = runF(M, {});
  ASSERT_TRUE(bool(R)) << R.error().message();
  EXPECT_EQ((*R)[0].asU32(), 10u);
}

TEST(WasmInterp, InstrCountIsMeasured) {
  WModule M = oneFunc({{}, {ValType::I32}}, {},
                      {WInst::i32c(1), WInst::i32c(2), WInst::mk(Op::I32Add)});
  WasmInstance Inst(M);
  ASSERT_TRUE(Inst.initialize().ok());
  ASSERT_TRUE(bool(Inst.invokeByName("f", {})));
  EXPECT_EQ(Inst.instrCount(), 3u);
}

//===----------------------------------------------------------------------===//
// Binary round-trip
//===----------------------------------------------------------------------===//

TEST(WasmBinary, RoundTripPreservesBehaviour) {
  WModule M = oneFunc(
      {{ValType::I32}, {ValType::I32}}, {ValType::I64},
      {WInst::idx(Op::LocalGet, 0), WInst::i32c(3), WInst::mk(Op::I32Add),
       WInst::block({{}, {ValType::I32}},
                    {WInst::i32c(10), WInst::idx(Op::Br, 0)}),
       WInst::mk(Op::I32Mul)});
  M.Memory = {{1, {2}}};
  M.Data.push_back({8, {1, 2, 3, 4}});
  std::vector<uint8_t> Bytes = encode(M);
  ASSERT_FALSE(Bytes.empty());
  EXPECT_EQ(Bytes[0], 0u);
  EXPECT_EQ(Bytes[1], 'a');

  Expected<WModule> M2 = decode(Bytes);
  ASSERT_TRUE(bool(M2)) << M2.error().message();
  EXPECT_TRUE(validate(*M2).ok()) << validate(*M2).error().message();

  auto R1 = runF(M, {WValue::i32(4)});
  auto R2 = runF(*M2, {WValue::i32(4)});
  ASSERT_TRUE(bool(R1));
  ASSERT_TRUE(bool(R2));
  EXPECT_EQ((*R1)[0].Bits, (*R2)[0].Bits);
  EXPECT_EQ((*R1)[0].asU32(), 70u);
}

TEST(WasmBinary, RoundTripImportsExportsTable) {
  WModule M;
  uint32_t T1 = M.addType({{ValType::I32}, {ValType::I32}});
  M.ImportFuncs.push_back({"env", "h", T1});
  M.Funcs.push_back({T1, {}, {WInst::idx(Op::LocalGet, 0)}});
  M.TableElems = {1};
  M.Exports.push_back({"f", ExportKind::Func, 1});
  M.Globals.push_back({ValType::I64, true, {WInst::i64c(7)}});

  Expected<WModule> M2 = decode(encode(M));
  ASSERT_TRUE(bool(M2)) << M2.error().message();
  EXPECT_EQ(M2->ImportFuncs.size(), 1u);
  EXPECT_EQ(M2->ImportFuncs[0].Mod, "env");
  EXPECT_EQ(M2->Funcs.size(), 1u);
  EXPECT_EQ(M2->TableElems.size(), 1u);
  EXPECT_EQ(M2->Exports.size(), 1u);
  EXPECT_EQ(M2->Globals.size(), 1u);
  EXPECT_EQ(M2->Globals[0].Init[0].U64, 7u);
}

TEST(WasmBinary, MultiValueBlockTypeRoundTrips) {
  FuncType BT{{ValType::I32}, {ValType::I32, ValType::I32}};
  WModule M = oneFunc({{}, {ValType::I32}}, {},
                      {WInst::i32c(5),
                       WInst::block(BT, {WInst::i32c(1)}),
                       WInst::mk(Op::I32Add)});
  Expected<WModule> M2 = decode(encode(M));
  ASSERT_TRUE(bool(M2)) << M2.error().message();
  auto R = runF(*M2, {});
  ASSERT_TRUE(bool(R)) << R.error().message();
  EXPECT_EQ((*R)[0].asU32(), 6u);
}

TEST(WasmBinary, DecodeRejectsGarbage) {
  EXPECT_FALSE(bool(decode({0x01, 0x02, 0x03})));
  EXPECT_FALSE(bool(decode({0x00, 0x61, 0x73, 0x6d, 0x01, 0x00, 0x00, 0x00,
                            0x01, 0xff})));
}

