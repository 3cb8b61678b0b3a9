//===- examples/quickstart.cpp - RichWasm in five minutes ------------------===//
//
// Builds a RichWasm module with the C++ builder API, type-checks it, runs
// it on the small-step machine, then compiles it to WebAssembly and runs
// the binary on both execution engines (the tree-walking reference
// interpreter and the flat-bytecode engine).
//
//   cmake --build build && ./build/example_quickstart
//
//===----------------------------------------------------------------------===//

#include "cache/AdmissionCache.h"
#include "ir/Builder.h"
#include "ir/Print.h"
#include "link/Link.h"
#include "lower/Lower.h"
#include "typing/Checker.h"
#include "wasm/Binary.h"
#include "wasm/Validate.h"

#include <cstdio>

using namespace rw;
using namespace rw::ir;
using namespace rw::ir::build;

/// Prints the failed step and its error; the exit status is 1.
static int fail(const char *Step, const Error &E) {
  printf("%s error: %s\n", Step, E.message().c_str());
  return 1;
}

int main() {
  // A module with one exported function:
  //   triple_plus(x) = let cell = new lin cell holding x in
  //                    3*x read back from the cell, freed manually.
  ir::Module M;
  M.Name = "quickstart";
  M.Funcs.push_back(function(
      {"triple"}, FunType::get({}, arrow({i32T()}, {i32T()})),
      {Size::constant(32)},
      {
          getLocal(0, Qual::unr()),
          structMalloc({Size::constant(32)}, Qual::lin()), // a linear cell
          memUnpack(arrow({}, {i32T()}), {{1, i32T()}},
                    {
                        structGet(0),  // read it back
                        setLocal(1),   // stash
                        structFree(),  // manual free — checked statically!
                        getLocal(1, Qual::unr()),
                        iconst(3),
                        mulI32(),
                    }),
      }));

  printf("== RichWasm module ==\n%s\n", printModule(M).c_str());

  // 1. The type checker guarantees memory safety before anything runs.
  Status Check = typing::checkModule(M);
  printf("type check: %s\n", Check.ok() ? "OK" : Check.error().message().c_str());
  if (!Check.ok())
    return 1;

  // 2. Run on the RichWasm small-step machine.
  auto Mach = link::instantiate({&M});
  if (!Mach)
    return fail("link", Mach.error());
  auto R = (*Mach)->invoke(0, 0, {}, {sem::Value::i32(14)});
  if (!R)
    return fail("machine", R.error());
  printf("machine: triple(14) = %llu  (steps: %llu, lin cells live: %zu)\n",
         (unsigned long long)(*R)[0].bits(),
         (unsigned long long)(*Mach)->stepCount(),
         (*Mach)->store().Mem.Lin.size());

  // 3. Compile to WebAssembly, validate, encode to binary, decode.
  auto Art = link::buildArtifact({&M}, {});
  if (!Art)
    return fail("lowering", Art.error());
  const lower::LoweredProgram *LP = &(*Art)->Program;
  Status V = wasm::validate(LP->Module);
  printf("wasm validate: %s\n", V.ok() ? "OK" : V.error().message().c_str());
  std::vector<uint8_t> Bytes = wasm::encode(LP->Module);
  printf("wasm binary: %zu bytes\n", Bytes.size());
  auto M2 = wasm::decode(Bytes);
  if (!M2)
    return fail("decode", M2.error());

  // 4. Run the binary on both execution engines behind one embedder
  //    surface, selected by EngineKind (or LinkOptions::Engine when going
  //    through link::instantiateLowered, which defaults to Flat).
  for (wasm::EngineKind K : {wasm::EngineKind::Tree, wasm::EngineKind::Flat}) {
    auto Inst = wasm::createInstance(*M2, K);
    if (Status S = Inst->initialize(); !S)
      return fail("instantiate", S.error());
    auto W = Inst->invokeByName("quickstart.triple", {wasm::WValue::i32(14)});
    if (!W)
      return fail("wasm run", W.error());
    printf("wasm (%s): triple(14) = %u  (instructions executed: %llu)\n",
           wasm::engineKindName(K), (*W)[0].asU32(),
           (unsigned long long)Inst->instrCount());
  }
  return 0;
}
