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
//    operands, in the reference semantics and lowered on Tree, Flat and
//    Jit, over an edge set of operands;
//  * i64 and ui64 convert to f32 with one rounding everywhere.
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "link/Link.h"
#include "sem/Machine.h"
#include "support/NumericOps.h"
#include "typing/Checker.h"
#include "wasm/WasmAst.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

using namespace rw;
using namespace rw::ir;
using namespace rw::ir::build;
using wasm::EngineKind;
using wasm::NumOp;
using wasm::WValue;

namespace {

const NumType AllTypes[] = {NumType::I32, NumType::U32, NumType::I64,
                            NumType::U64, NumType::F32, NumType::F64};
const EngineKind Engines[] = {EngineKind::Tree, EngineKind::Flat,
                              EngineKind::Jit};

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

/// One run's outcome: the result bits, or the trap message.
struct Outcome {
  bool Ok = false;
  uint64_t Bits = 0;
  std::string Trap;
};

std::string describe(const Shape &S, const std::vector<uint64_t> &Args) {
  std::ostringstream Out;
  Out << S.Name << std::hex;
  for (size_t I = 0; I < Args.size(); ++I)
    Out << (I ? ", 0x" : "(0x") << Args[I];
  Out << ")";
  return Out.str();
}

/// The reference semantics and the three lowered engines, instantiated
/// once for \p M (which the machine borrows).
struct FourWay {
  std::unique_ptr<sem::Machine> Sem;
  link::LoweredInstance Lowered[3];

  explicit FourWay(const ir::Module &M) {
    auto Mach = link::instantiate({&M});
    EXPECT_TRUE(bool(Mach)) << Mach.error().message();
    if (Mach)
      Sem = std::move(*Mach);
    for (int E = 0; E < 3; ++E) {
      link::LinkOptions Opts;
      Opts.Engine = Engines[E];
      auto L = link::instantiateLowered({&M}, Opts);
      EXPECT_TRUE(bool(L)) << L.error().message();
      if (L)
        Lowered[E] = std::move(*L);
    }
  }

  bool ready() const {
    if (!Sem)
      return false;
    for (const link::LoweredInstance &L : Lowered)
      if (!L.Instance)
        return false;
    return true;
  }

  /// Outcomes of f(Args...) on sem, Tree, Flat and Jit, in that order.
  std::array<Outcome, 4> run(const std::vector<NumType> &Params,
                             const std::vector<uint64_t> &Args) {
    std::array<Outcome, 4> Out;
    std::vector<sem::Value> SemArgs;
    std::vector<WValue> WArgs;
    for (size_t I = 0; I < Args.size(); ++I) {
      SemArgs.push_back(sem::Value::num(Params[I], Args[I]));
      WArgs.push_back({wasm::valTypeOf(Params[I]), Args[I]});
    }
    auto R = Sem->invoke(0, 0, {}, std::move(SemArgs));
    if (R && R->size() == 1 && (*R)[0].isNum())
      Out[0] = {true, (*R)[0].bits(), ""};
    else
      Out[0].Trap = R ? "bad result" : R.error().message();
    for (int E = 0; E < 3; ++E) {
      auto W = Lowered[E].invokeExport("m.f", WArgs);
      if (W && W->size() == 1)
        Out[E + 1] = {true, (*W)[0].Bits, ""};
      else
        Out[E + 1].Trap = W ? "bad result" : W.error().message();
    }
    return Out;
  }
};

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
    FourWay W(M);
    ASSERT_TRUE(W.ready()) << S.Name;
    ++Shapes;
    for (const std::vector<uint64_t> &Args : operandTuples(S)) {
      std::array<Outcome, 4> O = W.run(S.Params, Args);
      ++Runs;
      Traps += !O[0].Ok;
      for (int E = 1; E < 4; ++E) {
        const char *Who = engineKindName(Engines[E - 1]);
        ASSERT_EQ(O[0].Ok, O[E].Ok)
            << describe(S, Args) << " sem vs " << Who << ": "
            << O[0].Trap << " | " << O[E].Trap;
        if (O[0].Ok)
          ASSERT_EQ(O[0].Bits, O[E].Bits)
              << describe(S, Args) << " sem vs " << Who;
        else
          ASSERT_EQ(O[1].Trap, O[E].Trap) << describe(S, Args) << " " << Who;
      }
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
    FourWay W(M);
    ASSERT_TRUE(W.ready()) << S.Name;
    std::array<Outcome, 4> O = W.run(S.Params, {X});
    const char *Who[] = {"sem", "tree", "flat", "jit"};
    for (int E = 0; E < 4; ++E) {
      ASSERT_TRUE(O[E].Ok) << S.Name << " on " << Who[E] << ": " << O[E].Trap;
      EXPECT_EQ(O[E].Bits, 0x5a000001u) << S.Name << " on " << Who[E];
    }
  }
}
