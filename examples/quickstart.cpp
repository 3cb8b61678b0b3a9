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
#include "wasm/Interp.h"
#include "wasm/Validate.h"

#include <cstdio>

using namespace rw;
using namespace rw::ir;
using namespace rw::ir::build;

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
  if (!Mach) {
    printf("link error: %s\n", Mach.error().message().c_str());
    return 1;
  }
  auto R = (*Mach)->invoke(0, 0, {}, {sem::Value::i32(14)});
  printf("machine: triple(14) = %llu  (steps: %llu, lin cells live: %zu)\n",
         (unsigned long long)(*R)[0].bits(),
         (unsigned long long)(*Mach)->stepCount(),
         (*Mach)->store().Mem.Lin.size());

  // 3. Compile to WebAssembly, validate, encode to binary, run.
  auto Art = link::buildArtifact({&M}, {});
  if (!Art) {
    printf("lowering error: %s\n", Art.error().message().c_str());
    return 1;
  }
  const lower::LoweredProgram *LP = &(*Art)->Program;
  Status V = wasm::validate(LP->Module);
  printf("wasm validate: %s\n", V.ok() ? "OK" : V.error().message().c_str());
  std::vector<uint8_t> Bytes = wasm::encode(LP->Module);
  printf("wasm binary: %zu bytes\n", Bytes.size());

  auto M2 = wasm::decode(Bytes);
  wasm::WasmInstance Inst(*M2);
  (void)Inst.initialize();
  auto W = Inst.invokeByName("quickstart.triple", {wasm::WValue::i32(14)});
  printf("wasm (tree): triple(14) = %u  (instructions executed: %llu)\n",
         (*W)[0].asU32(), (unsigned long long)Inst.instrCount());

  // 4. The same module on the flat-bytecode engine: identical embedder
  //    surface, selected by EngineKind (or LinkOptions::Engine when
  //    going through link::instantiateLowered).
  auto Flat = wasm::createInstance(*M2, wasm::EngineKind::Flat);
  (void)Flat->initialize();
  auto WF = Flat->invokeByName("quickstart.triple", {wasm::WValue::i32(14)});
  printf("wasm (%s): triple(14) = %u  (instructions executed: %llu)\n",
         wasm::engineKindName(Flat->engine()), (*WF)[0].asU32(),
         (unsigned long long)Flat->instrCount());
  return 0;
}
