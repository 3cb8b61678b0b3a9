//===- tests/arena_churn_test.cpp - Bounded arena growth under churn ------===//
//
// A long-lived admission server re-checks untrusted modules forever; the
// checker mints skolem-tainted types into the arena on every exist.unpack
// and mem.unpack, and adversarial module streams mint *fresh* ones each
// time. Production bounds that growth with private arenas: every
// ingest::admit reads its module into an arena that dies with the
// admission (DESIGN.md §7). These tests pin:
//
//   * 200 distinct skolem-minting payloads admitted through ingest::admit,
//     uncached and through a shared cache, leave the process-wide arena's
//     node count exactly where it started;
//   * the control: the same stream checked in one shared arena grows it;
//   * stats() exposes the node counts / bytes a server monitors.
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"
#include "cache/AdmissionCache.h"
#include "ingest/Ingest.h"
#include "ir/Builder.h"
#include "ir/TypeArena.h"
#include "serial/Serial.h"
#include "typing/Checker.h"

#include <gtest/gtest.h>

using namespace rw;
using namespace rw::ir;
using namespace rw::ir::build;

namespace {

/// A module whose check opens a heap existential (exist.unpack mints a
/// skolem pretype and substitutes it through the body — skolem-tainted
/// intermediates that only the check creates). \p Salt varies the
/// existential's size bound, so every salt mints *different* tainted
/// nodes: the adversarial stream.
ir::Module skolemModule(uint64_t Salt) {
  ir::Module M;
  M.Name = "adv";
  HeapTypeRef Ex = exHT(Qual::unr(), Size::constant(32 + Salt), i32T());
  InstVec Body = {
      iconst(7),
      existPack(numPT(NumType::I32), Ex, Qual::lin()),
      memUnpack(arrow({}, {i32T()}), {{0, i32T()}},
                {existUnpack(Qual::lin(), Ex, arrow({}, {i32T()}), {},
                             {drop(), iconst(3)}),
                 setLocal(0), getLocal(0, Qual::unr())}),
  };
  M.Funcs.push_back(function({"main"},
                             FunType::get({}, arrow({}, {i32T()})),
                             {Size::constant(32)}, std::move(Body)));
  return M;
}

} // namespace

TEST(ArenaChurn, StatsAccessorReportsPopulation) {
  auto Arena = std::make_shared<TypeArena>();
  ArenaScope Scope(*Arena);
  ir::Module M = rwbench::wideModule(4);
  M.Arena = Arena;
  ASSERT_TRUE(typing::checkModule(M).ok());

  TypeArena::Stats St = Arena->stats();
  EXPECT_GT(St.PretypeNodes, 0u);
  EXPECT_GT(St.HeapTypeNodes, 0u);
  EXPECT_GT(St.FunTypeNodes, 0u);
  EXPECT_GT(St.SizeNodes, 0u);
  EXPECT_GT(St.ApproxBytes, 0u);
  EXPECT_EQ(St.totalNodes(), St.PretypeNodes + St.HeapTypeNodes +
                                 St.FunTypeNodes + St.SizeNodes);
}

TEST(ArenaChurn, SkolemChurnThroughIngestLeavesGlobalArenaFlat) {
  // The bound production relies on: every ingest::admit reads into a
  // private arena that dies with the admission, so 200 payloads that
  // each mint *different* skolem-tainted types leave the process-wide
  // arena exactly where it started — with no cache, and through a shared
  // cache whose artifacts outlive the admissions.
  std::vector<std::vector<uint8_t>> Payloads;
  {
    auto Scratch = std::make_shared<TypeArena>();
    ArenaScope Scope(*Scratch);
    for (uint64_t Salt = 1; Salt <= 200; ++Salt) {
      ir::Module M = skolemModule(Salt);
      M.Arena = Scratch;
      Payloads.push_back(serial::write(M));
    }
  }
  uint64_t Baseline = TypeArena::global().stats().totalNodes();

  cache::AdmissionCache Shared;
  cache::AdmissionCache *Caches[] = {nullptr, &Shared};
  for (cache::AdmissionCache *C : Caches) {
    link::LinkOptions Opts;
    Opts.Cache = C;
    for (size_t I = 0; I < Payloads.size(); ++I) {
      Expected<ingest::AdmittedModule> A =
          ingest::admit(Payloads[I], ingest::Limits(), Opts);
      ASSERT_TRUE(A) << "payload " << I << ": " << A.error().message();
      auto R = A->invoke("adv.main", {});
      ASSERT_TRUE(R) << R.error().message();
      EXPECT_EQ((*R)[0].Bits, 3u);
      ASSERT_EQ(TypeArena::global().stats().totalNodes(), Baseline)
          << (C ? "cached" : "uncached") << " payload " << I;
    }
  }
  EXPECT_EQ(Shared.stats().Entries, Payloads.size());
}

TEST(ArenaChurn, GrowthWithoutRollbackIsMonotone) {
  // The control experiment: the same adversarial stream checked in one
  // *shared* arena grows it every iteration — why admissions check in
  // private arenas (and proof the flat test above has teeth).
  auto Arena = std::make_shared<TypeArena>();
  ArenaScope Scope(*Arena);
  {
    ir::Module Warm = skolemModule(0);
    Warm.Arena = Arena;
    ASSERT_TRUE(typing::checkModule(Warm).ok());
  }
  uint64_t Baseline = Arena->stats().totalNodes();
  for (uint64_t It = 1; It <= 50; ++It) {
    ir::Module M = skolemModule(It);
    M.Arena = Arena;
    ASSERT_TRUE(typing::checkModule(M).ok());
  }
  EXPECT_GT(Arena->stats().totalNodes(), Baseline + 50);
}
