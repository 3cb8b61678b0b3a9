//===- tests/link_batch_test.cpp - Batch import resolution ----------------===//
//
// The linker's batch resolution phase (DESIGN.md §7) must be observably
// identical to the reference sequential scan: same providers, same
// errors, same Wasm ordering semantics (imports see earlier modules only;
// the newest provider of a re-exported name wins). The batch index keys
// on (module, name, canonical type), so a primary hit doubles as the
// cross-module type check — and the shadowing rule is the subtle part
// these tests pin: a newer same-name/different-type export must eclipse
// an older provider even for importers expecting the older type.
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "link/Link.h"

#include <gtest/gtest.h>

using namespace rw;
using namespace rw::ir;
using namespace rw::ir::build;

namespace {

FunTypeRef i32Fun() { return FunType::get({}, arrow({i32T()}, {i32T()})); }
FunTypeRef i64Fun() { return FunType::get({}, arrow({i64T()}, {i64T()})); }

/// A provider exporting \p Names, all at type \p FT.
ir::Module provider(const std::string &Name,
                    const std::vector<std::string> &Names, FunTypeRef FT) {
  ir::Module M;
  M.Name = Name;
  for (const std::string &E : Names)
    M.Funcs.push_back(function({E}, FT, {},
                               {getLocal(0, Qual::unr())}));
  return M;
}

/// A consumer importing (\p From, \p What) at type \p FT.
ir::Module consumer(const std::string &Name, const std::string &From,
                    const std::vector<std::string> &What, FunTypeRef FT) {
  ir::Module M;
  M.Name = Name;
  for (const std::string &I : What)
    M.Funcs.push_back(importFunc({From, I}, FT));
  return M;
}

void expectSameResolution(const std::vector<const ir::Module *> &Mods) {
  auto Seq = link::resolveImports(Mods, link::ResolveMode::Sequential);
  auto Bat = link::resolveImports(Mods, link::ResolveMode::Batch);
  ASSERT_EQ(bool(Seq), bool(Bat))
      << (Seq ? Bat.error().message() : Seq.error().message());
  if (!Seq) {
    EXPECT_EQ(Seq.error().message(), Bat.error().message());
    return;
  }
  ASSERT_EQ(Seq->size(), Bat->size());
  for (size_t M = 0; M < Seq->size(); ++M) {
    EXPECT_EQ((*Seq)[M].FuncImports, (*Bat)[M].FuncImports)
        << "module " << M;
    EXPECT_EQ((*Seq)[M].GlobalImports, (*Bat)[M].GlobalImports)
        << "module " << M;
  }
}

} // namespace

TEST(BatchLink, ResolvesChainIdenticallyToSequential) {
  ir::Module P0 = provider("lib0", {"a", "b"}, i32Fun());
  ir::Module P1 = provider("lib1", {"c"}, i32Fun());
  ir::Module C0 = consumer("app0", "lib0", {"a"}, i32Fun());
  ir::Module C1 = consumer("app1", "lib1", {"c"}, i32Fun());
  ir::Module C2 = consumer("app2", "lib0", {"b", "a"}, i32Fun());
  expectSameResolution({&P0, &P1, &C0, &C1, &C2});
}

TEST(BatchLink, UnresolvedImportSameDiagnostic) {
  ir::Module P = provider("lib", {"f"}, i32Fun());
  ir::Module C = consumer("app", "lib", {"missing"}, i32Fun());
  expectSameResolution({&P, &C});
  auto R = link::resolveImports({&P, &C});
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().message().find("unresolved import lib.missing"),
            std::string::npos);
}

TEST(BatchLink, TypeMismatchSameDiagnostic) {
  ir::Module P = provider("lib", {"f"}, i32Fun());
  ir::Module C = consumer("app", "lib", {"f"}, i64Fun());
  expectSameResolution({&P, &C});
  auto R = link::resolveImports({&P, &C});
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().message().find("import type mismatch"),
            std::string::npos);
}

TEST(BatchLink, ImportsNeverResolveForward) {
  // Wasm instantiation order: a module cannot import from a later one.
  ir::Module C = consumer("app", "lib", {"f"}, i32Fun());
  ir::Module P = provider("lib", {"f"}, i32Fun());
  expectSameResolution({&C, &P});
  EXPECT_FALSE(bool(link::resolveImports({&C, &P})));
  EXPECT_TRUE(bool(link::resolveImports({&P, &C})));
}

TEST(BatchLink, NewestProviderShadowsEvenAtDifferentType) {
  // Two modules both named "lib" export "f" — first at i32, then at i64.
  // An importer expecting the *old* type must NOT silently resolve to the
  // shadowed provider: sequential scanning finds the newest and fails the
  // type check, and the batch index must agree.
  ir::Module Old = provider("lib", {"f"}, i32Fun());
  ir::Module New = provider("lib", {"f"}, i64Fun());
  ir::Module C = consumer("app", "lib", {"f"}, i32Fun());
  expectSameResolution({&Old, &New, &C});
  auto R = link::resolveImports({&Old, &New, &C});
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().message().find("import type mismatch"),
            std::string::npos);

  // And an importer expecting the new type resolves to the new provider.
  ir::Module C2 = consumer("app2", "lib", {"f"}, i64Fun());
  auto R2 = link::resolveImports({&Old, &New, &C2});
  ASSERT_TRUE(bool(R2)) << R2.error().message();
  EXPECT_EQ((*R2)[2].FuncImports[0], (std::pair<uint32_t, uint32_t>{1, 0}));
}

TEST(BatchLink, GlobalImportsResolveAndTypeCheck) {
  ir::Module P;
  P.Name = "lib";
  Global G;
  G.Exports = {"g"};
  G.P = numPT(NumType::I32);
  G.Init = {iconst(5)};
  P.Globals.push_back(std::move(G));

  ir::Module C;
  C.Name = "app";
  Global GI;
  GI.P = numPT(NumType::I32);
  GI.Import = ImportName{"lib", "g"};
  C.Globals.push_back(std::move(GI));

  expectSameResolution({&P, &C});
  auto R = link::resolveImports({&P, &C});
  ASSERT_TRUE(bool(R)) << R.error().message();
  EXPECT_EQ((*R)[1].GlobalImports[0], (std::pair<uint32_t, uint32_t>{0, 0}));

  // Mismatched global type: same failure on both paths.
  ir::Module CBad;
  CBad.Name = "bad";
  Global GB;
  GB.P = numPT(NumType::I64);
  GB.Import = ImportName{"lib", "g"};
  CBad.Globals.push_back(std::move(GB));
  expectSameResolution({&P, &CBad});
  EXPECT_FALSE(bool(link::resolveImports({&P, &CBad})));
}

TEST(BatchLink, InstantiateUsesBatchResolutionEndToEnd) {
  // The full instantiate path (typecheck + batch resolve + run) produces
  // a working instance; Sequential ≡ Batch is pinned through
  // resolveImports by expectSameResolution above.
  ir::Module P = provider("lib", {"id"}, i32Fun());
  ir::Module C = consumer("app", "lib", {"id"}, i32Fun());
  auto Mach = link::instantiate({&P, &C});
  ASSERT_TRUE(bool(Mach)) << Mach.error().message();
  auto R = (*Mach)->invoke(1, 0, {}, {sem::Value::num(NumType::I32, 41)});
  ASSERT_TRUE(bool(R)) << R.error().message();
  EXPECT_EQ((*R)[0].bits(), 41u);
}
