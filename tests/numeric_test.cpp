//===- tests/numeric_test.cpp - One numeric table, every consumer ---------===//
//
// Each numeric row of RW_WASM_OPS names the RichWasm operation it
// implements (wasm::OpInfo::Num). Lowering picks opcodes from the rows'
// inverse (wasm::numericOp), and sem::Machine and the flat tier evaluate
// them with support/NumericOps.h. These oracles enumerate every numeric
// shape RichWasm can write, each unop, binop, testop and relop kind at
// each numeric type and each cvtop kind from each type to each type, and
// check that:
//  * the checker accepts a shape exactly when lowering finds it an opcode
//    or it is an identity conversion;
//  * every accepted shape computes the same results, and traps on the same
//    operands, in the reference semantics and on every lowered route of
//    tests/Oracle.h, over an edge set of operands;
//  * i64 and ui64 convert to f32 with one rounding everywhere.
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "link/Link.h"
#include "sem/Machine.h"
#include "support/NumericOps.h"
#include "tests/Oracle.h"
#include "typing/Checker.h"
#include "wasm/WasmAst.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

using namespace rw;
using namespace rw::ir;
using namespace rw::ir::build;
using wasm::NumOp;

namespace {

const NumType AllTypes[] = {NumType::I32, NumType::U32, NumType::I64,
                            NumType::U64, NumType::F32, NumType::F64};

/// One numeric instruction applied to its operands: f(x[, y]) = op x [y].
struct Shape {
  std::string Name;
  InstRef I;
  std::vector<NumType> Params;
  NumType Result;
  NumOp Op;
  bool Identity = false; ///< A conversion that changes no bits.
};

std::vector<Shape> allShapes() {
  std::vector<Shape> Out;
  auto Add = [&](std::string Name, InstRef I, std::vector<NumType> Params,
                 NumType Result, NumOp Op) {
    Out.push_back({std::move(Name), std::move(I), std::move(Params), Result,
                   Op});
  };
  for (NumType T : AllTypes) {
    const std::string At = std::string(".") + numTypeName(T);
    for (unsigned K = 0; K <= unsigned(UnopKind::Nearest); ++K) {
      auto Op = static_cast<UnopKind>(K);
      Add(unopName(Op) + At, unop(T, Op), {T}, T, NumOp::un(Op, T));
    }
    for (unsigned K = 0; K <= unsigned(BinopKind::Copysign); ++K) {
      auto Op = static_cast<BinopKind>(K);
      Add(binopName(Op) + At, binop(T, Op), {T, T}, T, NumOp::bin(Op, T));
    }
    Add("eqz" + At, testop(T), {T}, NumType::I32,
        NumOp::test(TestopKind::Eqz, T));
    for (unsigned K = 0; K <= unsigned(RelopKind::Ge); ++K) {
      auto Op = static_cast<RelopKind>(K);
      Add(relopName(Op) + At, relop(T, Op), {T, T}, NumType::I32,
          NumOp::rel(Op, T));
    }
  }
  for (CvtopKind K : {CvtopKind::Convert, CvtopKind::Reinterpret})
    for (NumType From : AllTypes)
      for (NumType To : AllTypes) {
        Add(std::string(K == CvtopKind::Convert ? "convert." : "reinterpret.") +
                numTypeName(From) + "." + numTypeName(To),
            cvt(From, To, K), {From}, To, NumOp::cvt(K, From, To));
        Out.back().Identity = isIdentityCvt(From, To);
      }
  return Out;
}

/// Module "m" exporting f(x[, y]) = op x [y] for shape \p S.
ir::Module shapeModule(const Shape &S) {
  ir::Module M;
  M.Name = "m";
  std::vector<Type> Params;
  InstVec Body;
  for (uint32_t I = 0; I < S.Params.size(); ++I) {
    Params.push_back(numT(S.Params[I]));
    Body.push_back(getLocal(I, Qual::unr()));
  }
  Body.push_back(S.I);
  M.Funcs.push_back(function(
      {"f"}, FunType::get({}, arrow(std::move(Params), {numT(S.Result)})), {},
      std::move(Body)));
  return M;
}

/// The operand edge set of type \p T: zero, +-1, the width's extremes,
/// 2^31, 2^63 and 0x20000020000001 (at the type's width), signed zeros,
/// infinities, NaN, and floats past each truncation limit.
std::vector<uint64_t> edges(NumType T) {
  auto F32 = [](float V) { return num::f32ToBits(V); };
  auto F64 = [](double V) { return num::f64ToBits(V); };
  constexpr uint64_t Odd = 0x20000020000001ull;
  switch (T) {
  case NumType::I32:
  case NumType::U32:
    return {0, 1, 0xffffffffu, 0x80000000u, 0x7fffffffu, Odd & 0xffffffffu,
            31, 32};
  case NumType::I64:
  case NumType::U64:
    return {0,          1,          ~0ull, 1ull << 63, (1ull << 63) - 1,
            1ull << 31, 0xffffffffu, Odd,  63,         64};
  case NumType::F32: {
    using L = std::numeric_limits<float>;
    return {F32(0.0f),           F32(-0.0f),
            F32(1.0f),           F32(-1.0f),
            F32(L::infinity()),  F32(-L::infinity()),
            F32(L::quiet_NaN()), F32(L::max()),
            F32(L::lowest()),    F32(L::denorm_min()),
            F32(-0.75f),         F32(2147483648.0f),
            F32(-2147483904.0f), F32(4294967296.0f),
            F32(9223372036854775808.0f),
            F32(18446744073709551616.0f),
            F32(static_cast<float>(Odd))};
  }
  case NumType::F64: {
    using L = std::numeric_limits<double>;
    return {F64(0.0),           F64(-0.0),
            F64(1.0),           F64(-1.0),
            F64(L::infinity()), F64(-L::infinity()),
            F64(L::quiet_NaN()), F64(L::max()),
            F64(L::lowest()),   F64(L::denorm_min()),
            F64(-0.75),         F64(2147483648.0),
            F64(-2147483649.0), F64(4294967296.0),
            F64(9223372036854775808.0),
            F64(-9223372036854777856.0),
            F64(18446744073709551616.0),
            F64(static_cast<double>(Odd))};
  }
  }
  return {};
}

/// Every operand tuple of \p S drawn from the edge sets.
std::vector<std::vector<uint64_t>> operandTuples(const Shape &S) {
  std::vector<std::vector<uint64_t>> Out;
  for (uint64_t A : edges(S.Params[0])) {
    if (S.Params.size() == 1) {
      Out.push_back({A});
      continue;
    }
    for (uint64_t B : edges(S.Params[1]))
      Out.push_back({A, B});
  }
  return Out;
}

std::string describe(const Shape &S, const std::vector<uint64_t> &Args) {
  std::ostringstream Out;
  Out << S.Name << std::hex;
  for (size_t I = 0; I < Args.size(); ++I)
    Out << (I ? ", 0x" : "(0x") << Args[I];
  Out << ")";
  return Out.str();
}

/// The machine arguments of f(Args...) for shape \p S.
std::vector<sem::Value> semArgs(const Shape &S,
                                const std::vector<uint64_t> &Args) {
  std::vector<sem::Value> Out;
  for (size_t I = 0; I < Args.size(); ++I)
    Out.push_back(sem::Value::num(S.Params[I], Args[I]));
  return Out;
}

} // namespace

TEST(NumericTable, CheckerAcceptsExactlyWhatLoweringFinds) {
  unsigned Accepted = 0, Identities = 0;
  for (const Shape &S : allShapes()) {
    ir::Module M = shapeModule(S);
    const bool Checked = typing::checkModule(M).ok();
    const bool Lowers = S.Identity || wasm::numericOp(S.Op).has_value();
    EXPECT_EQ(Checked, Lowers) << S.Name;
    Accepted += Checked;
    Identities += Checked && S.Identity;
  }
  // 26 unops, 62 binops, 4 testops, 36 relops, 36 converts and 18
  // same-width reinterprets. Of the conversions, 20 stay within one class
  // and width and change no bits.
  EXPECT_EQ(Accepted, 26u + 62u + 4u + 36u + 36u + 18u);
  EXPECT_EQ(Identities, 20u);
}

TEST(NumericTable, EveryAcceptedShapeAgreesOnSemTreeFlatJit) {
  unsigned Shapes = 0, Runs = 0, Traps = 0;
  for (const Shape &S : allShapes()) {
    ir::Module M = shapeModule(S);
    if (!typing::checkModule(M).ok())
      continue;
    rwtest::Oracle O({&M});
    ASSERT_TRUE(O.ready()) << S.Name;
    ++Shapes;
    for (const std::vector<uint64_t> &Args : operandTuples(S)) {
      SCOPED_TRACE(describe(S, Args));
      rwtest::Outcome R = O.run("m.f", semArgs(S, Args));
      ASSERT_FALSE(HasFailure());
      ++Runs;
      Traps += !R.Ok;
    }
  }
  EXPECT_EQ(Shapes, 182u);
  EXPECT_GT(Runs, 10000u);
  EXPECT_GT(Traps, 0u);
}

TEST(NumericTable, I64ToF32RoundsOnce) {
  // 0x20000020000001 = 2^53 + 2^29 + 1 lies just above the midpoint of two
  // f32 values; through f64 it first rounds down to that midpoint, and the
  // tie then rounds to even, below the correctly rounded 0x5a000001.
  constexpr uint64_t X = 0x20000020000001ull;
  for (NumType From : {NumType::I64, NumType::U64}) {
    const Shape S{std::string("convert.") + numTypeName(From) + ".f32",
                  cvt(From, NumType::F32),
                  {From},
                  NumType::F32,
                  NumOp::cvt(CvtopKind::Convert, From, NumType::F32)};
    ir::Module M = shapeModule(S);
    rwtest::Oracle O({&M});
    ASSERT_TRUE(O.ready()) << S.Name;
    rwtest::Outcome R = O.run("m.f", semArgs(S, {X}));
    ASSERT_TRUE(R.Ok) << S.Name << ": " << R.Err;
    EXPECT_EQ(R.bits(), 0x5a000001u) << S.Name;
  }
}
