//===- tests/parallel_lower_test.cpp - Parallel lowering determinism ------===//
//
// The (module, function)-parallel body lowering of lower::lowerProgram
// (LowerOptions::Pool) promises byte-identical output for any pool size —
// the same guarantee the parallel checker gives for diagnostics. These
// tests pin it: lowered Wasm bytes and flat-translated bytecode are
// compared across pool sizes 1/3/8 and against the sequential loop,
// including the error ordering when a middle module fails to lower, and
// the InfoMap hand-off path (typing::checkModules → link::buildArtifact /
// link::instantiateLowered) is pinned byte-identical to buildArtifact's
// own check.
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"

#include "exec/Translate.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

using namespace rw;
using namespace rw::ir;
using namespace rw::ir::build;
using rwbench::AdmissionSet;

namespace {

/// Builds \p Mods with the given pool (null = the sequential loop) and
/// InfoMap hand-off (null = buildArtifact checks itself), returning the
/// encoded Wasm bytes.
Expected<std::vector<uint8_t>>
lowerBytes(const std::vector<const ir::Module *> &Mods,
           support::ThreadPool *Pool,
           const std::vector<typing::InfoMap> *Infos) {
  link::LinkOptions Opts;
  Opts.Infos = Infos;
  Opts.Pool = Pool;
  auto Art = link::buildArtifact(Mods, Opts);
  if (!Art)
    return Art.error();
  return wasm::encode((*Art)->Program.Module);
}

} // namespace

TEST(ParallelLower, BytesIdenticalAcrossPoolSizes) {
  AdmissionSet Set(10);
  support::ThreadPool Pool1(1), Pool3(3), Pool8(8);

  std::vector<typing::InfoMap> Infos;
  std::vector<Status> Checks = typing::checkModules(Set.Ptrs, Pool3, &Infos);
  for (const Status &S : Checks)
    ASSERT_TRUE(S.ok()) << S.error().message();

  Expected<std::vector<uint8_t>> Seq = lowerBytes(Set.Ptrs, nullptr, &Infos);
  ASSERT_TRUE(bool(Seq)) << Seq.error().message();
  for (support::ThreadPool *P : {&Pool1, &Pool3, &Pool8}) {
    Expected<std::vector<uint8_t>> Par = lowerBytes(Set.Ptrs, P, &Infos);
    ASSERT_TRUE(bool(Par)) << Par.error().message();
    EXPECT_EQ(*Seq, *Par) << "lowered bytes differ at pool size "
                          << P->size();
  }
}

TEST(ParallelLower, FlatBytecodeIdenticalAcrossPoolSizes) {
  AdmissionSet Set(8);
  support::ThreadPool Pool1(1), Pool3(3), Pool8(8);

  std::vector<typing::InfoMap> Infos;
  std::vector<Status> Checks = typing::checkModules(Set.Ptrs, Pool3, &Infos);
  for (const Status &S : Checks)
    ASSERT_TRUE(S.ok()) << S.error().message();

  link::LinkOptions SeqOpts;
  SeqOpts.Infos = &Infos;
  auto Ref = link::buildArtifact(Set.Ptrs, SeqOpts);
  ASSERT_TRUE(bool(Ref)) << Ref.error().message();
  const exec::FlatModule *RefFlat = &(*Ref)->Flat;

  for (support::ThreadPool *P : {&Pool1, &Pool3, &Pool8}) {
    link::LinkOptions Opts = SeqOpts;
    Opts.Pool = P;
    auto Art = link::buildArtifact(Set.Ptrs, Opts);
    ASSERT_TRUE(bool(Art)) << Art.error().message();
    const exec::FlatModule *Flat = &(*Art)->Flat;
    ASSERT_EQ(RefFlat->Funcs.size(), Flat->Funcs.size());
    for (size_t I = 0; I < RefFlat->Funcs.size(); ++I) {
      EXPECT_EQ(RefFlat->Funcs[I].Code, Flat->Funcs[I].Code)
          << "flat code differs for function " << I << " at pool size "
          << P->size();
      EXPECT_EQ(RefFlat->Funcs[I].NumRegs, Flat->Funcs[I].NumRegs);
      EXPECT_EQ(RefFlat->Funcs[I].MaxDepth, Flat->Funcs[I].MaxDepth);
    }
    EXPECT_EQ(RefFlat->CanonType, Flat->CanonType);
  }
}

TEST(ParallelLower, InfoMapHandoffMatchesSelfCheck) {
  // The hand-off path (checkModules → buildArtifact with Infos) must
  // produce exactly the bytes of buildArtifact's own sequential check.
  AdmissionSet Set(6);
  support::ThreadPool Pool(3);

  Expected<std::vector<uint8_t>> SelfCheck =
      lowerBytes(Set.Ptrs, nullptr, nullptr);
  ASSERT_TRUE(bool(SelfCheck)) << SelfCheck.error().message();

  std::vector<typing::InfoMap> Infos;
  std::vector<Status> Checks = typing::checkModules(Set.Ptrs, Pool, &Infos);
  for (const Status &S : Checks)
    ASSERT_TRUE(S.ok()) << S.error().message();
  EXPECT_EQ(Infos.size(), Set.Ptrs.size());
  for (const typing::InfoMap &IM : Infos)
    EXPECT_FALSE(IM.empty());

  Expected<std::vector<uint8_t>> HandOff =
      lowerBytes(Set.Ptrs, &Pool, &Infos);
  ASSERT_TRUE(bool(HandOff)) << HandOff.error().message();
  EXPECT_EQ(*SelfCheck, *HandOff);
}

TEST(ParallelLower, InstantiateLoweredWithPoolAndInfos) {
  // The link-layer cold path: verdict check with InfoMap recording, then
  // instantiateLowered with the hand-off and a pool — the instance must
  // behave exactly like the plain path.
  AdmissionSet Set(4);
  support::ThreadPool Pool(3);

  link::LinkOptions Plain;
  Plain.RunStart = false;
  Expected<link::LoweredInstance> Ref = link::instantiateLowered(Set.Ptrs,
                                                                 Plain);
  ASSERT_TRUE(bool(Ref)) << Ref.error().message();

  std::vector<typing::InfoMap> Infos;
  std::vector<Status> Checks = typing::checkModules(Set.Ptrs, Pool, &Infos);
  for (const Status &S : Checks)
    ASSERT_TRUE(S.ok()) << S.error().message();
  link::LinkOptions Opts = Plain;
  Opts.Pool = &Pool;
  Opts.Infos = &Infos;
  Expected<link::LoweredInstance> LI = link::instantiateLowered(Set.Ptrs,
                                                                Opts);
  ASSERT_TRUE(bool(LI)) << LI.error().message();

  // Same lowered module bytes, same observable behavior.
  EXPECT_EQ(wasm::encode(Ref->Program->Module),
            wasm::encode(LI->Program->Module));
  auto RRef = Ref->invokeExport("user_pkg_000002.f2_1",
                                {wasm::WValue::i32(5)});
  auto RNew = LI->invokeExport("user_pkg_000002.f2_1",
                               {wasm::WValue::i32(5)});
  ASSERT_TRUE(bool(RRef)) << RRef.error().message();
  ASSERT_TRUE(bool(RNew)) << RNew.error().message();
  ASSERT_EQ(RRef->size(), 1u);
  ASSERT_EQ(RNew->size(), 1u);
  EXPECT_EQ((*RRef)[0].Bits, (*RNew)[0].Bits);
}

TEST(ParallelLower, ErrorOrderingDeterministic) {
  // Middle module fails to lower (size-polymorphic local slot — checks
  // fine, unsupported by the flat-layout lowering), and a later module
  // fails too: every pool size must report the *first* failure with the
  // sequential loop's exact message.
  AdmissionSet Set(6);
  auto polyLocalModule = [](const std::string &Name) {
    ir::Module M;
    M.Name = Name;
    FunTypeRef Ty = FunType::get({Quant::size()}, arrow({}, {}));
    M.Funcs.push_back(function({"poly"}, Ty, {Size::var(0)}, {}));
    return M;
  };
  ir::Module Bad1 = polyLocalModule("bad_one");
  ir::Module Bad2 = polyLocalModule("bad_two");
  std::vector<const ir::Module *> Mods(Set.Ptrs.begin(), Set.Ptrs.end());
  Mods.insert(Mods.begin() + 3, &Bad1); // Middle.
  Mods.push_back(&Bad2);                // Tail.

  support::ThreadPool Pool1(1), Pool3(3), Pool8(8);
  std::vector<typing::InfoMap> Infos;
  std::vector<Status> Checks = typing::checkModules(Mods, Pool3, &Infos);
  for (const Status &S : Checks)
    ASSERT_TRUE(S.ok()) << S.error().message();

  Expected<std::vector<uint8_t>> Seq = lowerBytes(Mods, nullptr, &Infos);
  ASSERT_FALSE(bool(Seq));
  const std::string Want = Seq.error().message();
  EXPECT_NE(Want.find("size-polymorphic local slots"), std::string::npos);
  for (support::ThreadPool *P : {&Pool1, &Pool3, &Pool8}) {
    Expected<std::vector<uint8_t>> Par = lowerBytes(Mods, P, &Infos);
    ASSERT_FALSE(bool(Par));
    EXPECT_EQ(Want, Par.error().message())
        << "error differs at pool size " << P->size();
  }
}

TEST(ParallelLower, InfoMapsOfRejectedModulesAreEmpty) {
  // checkModules(…, &Infos) hands over no annotations for a rejected
  // module, and its diagnostics stay byte-identical to the sequential
  // checker for every pool size.
  AdmissionSet Set(3);
  ir::Module Bad;
  Bad.Name = "bad";
  Bad.Funcs.push_back(function(
      {"f"}, FunType::get({}, arrow({}, {i32T()})), {}, {})); // Leaves 0.
  std::vector<const ir::Module *> Mods(Set.Ptrs.begin(), Set.Ptrs.end());
  Mods.insert(Mods.begin() + 1, &Bad);

  Status Ref = typing::checkModule(Bad);
  ASSERT_FALSE(Ref.ok());

  for (unsigned N : {1u, 3u, 8u}) {
    support::ThreadPool Pool(N);
    std::vector<typing::InfoMap> Infos;
    std::vector<Status> Out = typing::checkModules(Mods, Pool, &Infos);
    ASSERT_EQ(Out.size(), Mods.size());
    ASSERT_FALSE(Out[1].ok());
    EXPECT_EQ(Out[1].error().message(), Ref.error().message());
    EXPECT_TRUE(Infos[1].empty());
    EXPECT_FALSE(Infos[0].empty());
  }
}
