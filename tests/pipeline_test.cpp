//===- tests/pipeline_test.cpp - Corpus-driven end-to-end sweeps ----------===//
//
// A parameterized corpus of ML programs, each pushed through the entire
// stack: parse → ML check → compile → RichWasm check, then the machine
// and every lowered route of tests/Oracle.h (four tiers, and encode →
// decode → Flat) must agree (google-test TEST_P over the corpus).
//
//===----------------------------------------------------------------------===//

#include "ml/ML.h"
#include "tests/Oracle.h"
#include "typing/Checker.h"

#include <gtest/gtest.h>

using namespace rw;

namespace {

struct Program {
  const char *Name;
  const char *Src;
  uint64_t Expected;
  /// False when the program mutates persistent globals (a second run
  /// continues from the mutated state).
  bool Rerunnable = true;
};

const Program Corpus[] = {
    {"ackermann_small",
     "fun ack (p : int * int) : int = "
     "  let m = fst p in let n = snd p in "
     "  if m = 0 then n + 1 "
     "  else if n = 0 then ack (m - 1, 1) "
     "  else ack (m - 1, ack (m, n - 1)) ;;"
     "export fun main (u : unit) : int = ack (2, 3) ;;",
     9},
    {"fib_recursive",
     "fun fib (n : int) : int = "
     "  if n < 2 then n else fib (n - 1) + fib (n - 2) ;;"
     "export fun main (u : unit) : int = fib 10 ;;",
     55},
    {"church_like_composition",
     "fun compose (f : int -> int) : (int -> int) -> int -> int = "
     "  fn (g : int -> int) => fn (x : int) => f (g x) ;;"
     "export fun main (u : unit) : int = "
     "  let add3 = fn (x : int) => x + 3 in "
     "  let dbl = fn (x : int) => x * 2 in "
     "  ((compose add3) dbl) 6 ;;", // 6*2+3
     15},
    {"sum_tree_of_options",
     "fun getOr (s : int + unit) : int = "
     "  case s of inl x => x | inr y => 0 end ;;"
     "export fun main (u : unit) : int = "
     "  getOr (inl [unit] 40) + getOr (inr [int] ()) + 2 ;;",
     42},
    {"mutable_accumulator_closure",
     "export fun main (u : unit) : int = "
     "  let acc = ref 0 in "
     "  let add = fn (n : int) => (acc := !acc + n) in "
     "  let a = add 10 in let b = add 30 in let c = add 2 in !acc ;;",
     42},
    {"global_counter_chain",
     "global g = ref 5 ;;"
     "fun touch (n : int) : int = (g := !g + n); !g ;;"
     "export fun main (u : unit) : int = touch 7 + touch 0 * 0 ;;",
     12, /*Rerunnable=*/false},
    {"polymorphic_pipeline",
     "fun id ['a] (x : 'a) : 'a = x ;;"
     "fun dup ['a] (x : 'a) : 'a * 'a = (x, x) ;;"
     "export fun main (u : unit) : int = "
     "  let p = dup (id 21) in fst p + snd p ;;",
     42},
    {"nested_pairs",
     "export fun main (u : unit) : int = "
     "  let p = ((1, 2), (3, (4, 5))) in "
     "  fst (fst p) + snd (fst p) + fst (snd p) + fst (snd (snd p)) "
     "  + snd (snd (snd p)) ;;",
     15},
    {"higher_order_fold_unrolled",
     "fun apply3 (f : int -> int) : int -> int = "
     "  fn (x : int) => f (f (f x)) ;;"
     "export fun main (u : unit) : int = "
     "  (apply3 (fn (x : int) => x * 2)) 5 ;;",
     40},
    {"ref_of_pair_updates",
     "export fun main (u : unit) : int = "
     "  let r = ref (1, 2) in "
     "  r := (20, 22); fst !r + snd !r ;;",
     42},
};

class Pipeline : public testing::TestWithParam<Program> {};

} // namespace

TEST_P(Pipeline, MachineAndWasmAgree) {
  const Program &P = GetParam();
  Expected<ir::Module> M = ml::compileSource("m", P.Src);
  ASSERT_TRUE(bool(M)) << M.error().message();

  // The compiled module satisfies the RichWasm judgment.
  Status Check = typing::checkModule(*M);
  ASSERT_TRUE(Check.ok()) << Check.error().message();

  // The machine and every lowered route, the binary codec included.
  rwtest::Oracle O({&*M});
  ASSERT_TRUE(O.ready());
  const sem::Value Unit = sem::Value::unit();
  rwtest::Outcome R = O.run("m.main", {Unit});
  ASSERT_TRUE(R.Ok) << R.Err;
  EXPECT_EQ(R.bits(), P.Expected);
  // No linear leaks (these programs use only unrestricted data).
  EXPECT_TRUE(O.machine().store().Mem.Lin.empty());

  // After a host collection, closure/pair garbage is reclaimed and only
  // globally-reachable cells survive; pure programs recompute the same
  // answer on the collected heap.
  O.collect();
  if (P.Rerunnable)
    EXPECT_EQ(O.run("m.main", {Unit}).bits(), P.Expected)
        << "run-after-GC disagrees";
}

INSTANTIATE_TEST_SUITE_P(Corpus, Pipeline, testing::ValuesIn(Corpus),
                         [](const testing::TestParamInfo<Program> &I) {
                           return std::string(I.param.Name);
                         });
