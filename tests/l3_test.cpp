//===- tests/l3_test.cpp - L3 frontend and the ML⊣L3 FFI (§5, Figs 1/3) ---===//
//
// L3 pipeline tests (linearity enforcement, new/free/swap/join/split) and
// the paper's central demonstration: the Fig 3 interop program in which
// ML's `stash` duplicates a linear reference from L3. The unsafe version
// is rejected *statically* by the RichWasm checker; the corrected version
// links, runs, and frees exactly once. Programs run on the machine and on
// every lowered tier (tests/Oracle.h).
//
//===----------------------------------------------------------------------===//

#include "l3/L3.h"
#include "ml/ML.h"
#include "tests/Oracle.h"
#include "typing/Checker.h"

#include <gtest/gtest.h>

using namespace rw;

namespace {

/// Compiles \p Src as module "l3" and expects `main ()` to return \p Want
/// on the machine and on every lowered route (tests/Oracle.h).
void expectL3(const std::string &Src, uint64_t Want) {
  Expected<ir::Module> M = l3::compileSource("l3", Src);
  ASSERT_TRUE(bool(M)) << M.error().message();
  rwtest::expectResult({&*M}, "l3.main", Want, {sem::Value::unit()});
}

} // namespace

//===----------------------------------------------------------------------===//
// Basics and the linear discipline
//===----------------------------------------------------------------------===//

TEST(L3, Arithmetic) {
  expectL3("export fun main (u : unit) : int = 6 * 7 ;;", 42);
}

TEST(L3, NewFreeRoundTrip) {
  expectL3("export fun main (u : unit) : int = free (new 42) ;;", 42);
}

TEST(L3, SwapStrongUpdate) {
  // swap returns (old value, cell holding the new one).
  expectL3("export fun main (u : unit) : int = "
           "let (old, c) = swap (new 40) 2 in old + free c ;;",
           42);
}

TEST(L3, JoinSplitRoundTrip) {
  expectL3("export fun main (u : unit) : int = "
           "free (split (join (new 42))) ;;",
           42);
}

TEST(L3, CellsThroughFunctions) {
  expectL3("fun mk (n : int) : Cell int = new n ;;"
           "fun consume (c : Cell int) : int = free c ;;"
           "export fun main (u : unit) : int = consume (mk 42) ;;",
           42);
}

TEST(L3, LinearVarMustBeUsedOnce) {
  // Dropping a cell is rejected by the L3 checker itself.
  auto R = l3::compileSource(
      "l3", "export fun main (u : unit) : int = let c = new 1 in 0 ;;");
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().message().find("exactly once"), std::string::npos);
  // Duplicating one, too.
  auto R2 = l3::compileSource(
      "l3", "export fun main (u : unit) : int = "
            "let c = new 1 in free c + free c ;;");
  ASSERT_FALSE(bool(R2));
}

TEST(L3, SeqDiscardsOnlyUnrestricted) {
  auto R = l3::compileSource(
      "l3", "export fun main (u : unit) : int = new 1 ; 0 ;;");
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().message().find("linear"), std::string::npos);
}

TEST(L3, OversizedIntegerLiteralIsALexError) {
  // int is i32: a literal outside it is a diagnostic naming its line, not
  // a value wrapped to 32 bits. L3 has no negative literals; its largest
  // literal compiles and returns itself.
  for (const char *Lit : {"4294967338", "2147483648", "9223372036854775807",
                          "99999999999999999999"}) {
    auto R = l3::compileSource(
        "l3", std::string("export fun main (u : unit) : int =\n ") + Lit +
                  " ;;");
    ASSERT_FALSE(bool(R)) << Lit;
    EXPECT_EQ(R.error().message(),
              "lex error at line 2: integer literal out of range")
        << Lit;
  }
  expectL3("export fun main (u : unit) : int = 2147483647 ;;", 0x7fffffffu);
  expectL3("export fun main (u : unit) : int = 0 ;;", 0u);
}

TEST(L3, UnexpectedCharacterIsNamed) {
  auto R = l3::compileSource(
      "l3", "export fun main (u : unit) : int = 1 ;;\n'");
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.error().message(),
            "lex error at line 2: unexpected character '''");
}

TEST(L3, CompiledModulesPassRichWasmChecking) {
  Expected<ir::Module> M = l3::compileSource(
      "l3", "export fun main (u : unit) : int = "
            "let (old, c) = swap (new 40) 2 in old + free c ;;");
  ASSERT_TRUE(bool(M)) << M.error().message();
  Status S = typing::checkModule(*M);
  EXPECT_TRUE(S.ok()) << S.error().message();
}

TEST(L3, LowersAndRunsOnWasm) {
  Expected<ir::Module> M = l3::compileSource(
      "l3", "export fun main (u : unit) : int = "
            "free (split (join (new 42))) ;;");
  ASSERT_TRUE(bool(M)) << M.error().message();
  rwtest::Oracle O({&*M});
  ASSERT_TRUE(O.ready());
  EXPECT_EQ(O.run("l3.main", {sem::Value::unit()}).bits(), 42u);
  // Everything manually freed: no live allocations remain, on any route.
  EXPECT_EQ(O.lowered()
                .instance(rwtest::Tree)
                .global(O.program().Runtime.GLive)
                .asU32(),
            0u);
}

//===----------------------------------------------------------------------===//
// Fig 3: the ML ⊣ L3 FFI
//===----------------------------------------------------------------------===//

namespace {

const char *MLStashUnsafe =
    "global c = linref [ref int] () ;;"
    "export fun stash (r : lin (ref int)) : lin (ref int) = c := r; r ;;"
    "export fun get_stashed (u : unit) : lin (ref int) = !c ;;";

const char *MLStashSafe =
    "global c = linref [ref int] () ;;"
    "export fun stash (r : lin (ref int)) : unit = c := r ;;"
    "export fun get_stashed (u : unit) : lin (ref int) = !c ;;";

const char *L3ClientUnsafe =
    "import ml.stash : Ref int -o Ref int ;;"
    "import ml.get_stashed : unit -o Ref int ;;"
    "export fun main (u : unit) : int = "
    "  free (split (stash (join (new 42)))) ; "
    "  free (split (get_stashed ())) ;;"; // the would-be double free

const char *L3ClientSafe =
    "import ml.stash : Ref int -o unit ;;"
    "import ml.get_stashed : unit -o Ref int ;;"
    "export fun main (u : unit) : int = "
    "  stash (join (new 42)) ; "
    "  free (split (get_stashed ())) ;;";

} // namespace

TEST(Interop, Fig3UnsafeStashRejectedStatically) {
  // ML side: compiles (ML does not check linearity) but fails RichWasm
  // checking — the compiled `stash` duplicates its linear argument.
  Expected<ir::Module> ML = ml::compileSource("ml", MLStashUnsafe);
  ASSERT_TRUE(bool(ML)) << ML.error().message();
  Expected<ir::Module> L3 = l3::compileSource("l3", L3ClientUnsafe);
  ASSERT_TRUE(bool(L3)) << L3.error().message();

  auto Mach = link::instantiate({&*ML, &*L3});
  ASSERT_FALSE(bool(Mach));
  // The rejection happens in module 'ml', before anything executes.
  EXPECT_NE(Mach.error().message().find("ml"), std::string::npos);
}

TEST(Interop, Fig3SafeVariantLinksRunsAndFreesOnce) {
  // The corrected program: stash keeps the reference, L3 frees the one it
  // later retrieves — exactly one allocation, exactly one free.
  Expected<ir::Module> ML = ml::compileSource("ml", MLStashSafe);
  ASSERT_TRUE(bool(ML)) << ML.error().message();
  Expected<ir::Module> L3 = l3::compileSource("l3", L3ClientSafe);
  ASSERT_TRUE(bool(L3)) << L3.error().message();

  // The whole interop program runs on the machine and, lowered to one
  // Wasm module, on every tier.
  rwtest::Oracle O({&*ML, &*L3});
  ASSERT_TRUE(O.ready());
  rwtest::Outcome R = O.run("l3.main", {sem::Value::unit()});
  ASSERT_TRUE(R.Ok) << R.Err;
  EXPECT_EQ(R.bits(), 42u);
  // The linear cell crossed the boundary, was stashed, retrieved, and
  // freed exactly once. The ref_to_lin protocol itself allocates/frees
  // linear option cells as it swaps (2 extra frees); what remains live is
  // exactly the linref's current (empty) option cell.
  const sem::Memory &Mem = O.machine().store().Mem;
  EXPECT_EQ(Mem.FreeCountLin, 3u);
  EXPECT_EQ(Mem.Lin.size(), 1u);
}

TEST(Interop, Fig3BoundaryTypeAgreement) {
  // The two compilers must produce identical RichWasm types for the
  // boundary type: ML `lin (ref int)` == L3 `Ref int`.
  auto MLT = ml::lowerMLType(
      ml::MLType::mk(ml::TyKind::Lin,
                     ml::MLType::mk(ml::TyKind::Ref,
                                    ml::MLType::mk(ml::TyKind::Int))),
      {});
  auto L3T = l3::lowerL3Type(
      l3::L3Type::mk(l3::TyKind::MLRef, l3::L3Type::mk(l3::TyKind::Int)));
  EXPECT_TRUE(ir::typeEquals(MLT, L3T));
}

TEST(Interop, ImportTypeLieRejectedAtLink) {
  // An L3 client that declares a *different* boundary type (plain int
  // instead of Ref int) is caught by the import signature check.
  Expected<ir::Module> ML = ml::compileSource("ml", MLStashSafe);
  ASSERT_TRUE(bool(ML)) << ML.error().message();
  Expected<ir::Module> L3 = l3::compileSource(
      "l3", "import ml.stash : int -o unit ;;"
            "export fun main (u : unit) : int = stash 1 ; 0 ;;");
  ASSERT_TRUE(bool(L3)) << L3.error().message();
  auto Mach = link::instantiate({&*ML, &*L3});
  ASSERT_FALSE(bool(Mach));
  EXPECT_NE(Mach.error().message().find("mismatch"), std::string::npos);
}
