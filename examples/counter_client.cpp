//===- examples/counter_client.cpp - Fig 9: the Counter/Client layout ------===//
//
// The paper's §4.2 example: a performance-critical library written in the
// manually-managed language (L3) — here, a mutable counter — used by
// higher-level logic written in the GC'd language (ML), which hides the
// linearity behind an interface. GC'd code references linear values, which
// in turn live alongside shared mutable configuration state.
//
//===----------------------------------------------------------------------===//

#include "cache/AdmissionCache.h"
#include "l3/L3.h"
#include "link/Link.h"
#include "lower/Lower.h"
#include "ml/ML.h"
#include "wasm/Interp.h"
#include "wasm/Validate.h"

#include <cstdio>

using namespace rw;

// The linear counter library (L3): allocation, increment, and destruction
// of a manually-managed cell.
static const char *CounterLib =
    "export fun make (n : int) : Ref int = join (new n) ;;"
    "export fun bump (r : Ref int) : Ref int = "
    "  let (old, c) = swap (split r) 0 in "
    "  let (z, c2) = swap c (old + 1) in "
    "  join c2 ;;"
    "export fun finish (r : Ref int) : int = free (split r) ;;";

// The GC'd client (ML): stores the linear counter in a ref_to_lin cell and
// exposes a linearity-free interface driven by shared mutable config.
static const char *Client =
    "import lib.make : int -> lin (ref int) ;;"
    "import lib.bump : lin (ref int) -> lin (ref int) ;;"
    "import lib.finish : lin (ref int) -> int ;;"
    "global cell = linref [ref int] () ;;"
    "global rate = ref 1 ;;"
    "export fun init (u : unit) : unit = cell := make 0 ;;"
    "fun ntimes (n : int) : unit = "
    "  if n = 0 then () else (cell := bump !cell; ntimes (n - 1)) ;;"
    "export fun tick (u : unit) : unit = ntimes !rate ;;"
    "export fun set_rate (n : int) : unit = rate := n ;;"
    "export fun total (u : unit) : int = finish !cell ;;";

int main() {
  Expected<ir::Module> Lib = l3::compileSource("lib", CounterLib);
  if (!Lib) {
    printf("L3 error: %s\n", Lib.error().message().c_str());
    return 1;
  }
  Expected<ir::Module> App = ml::compileSource("app", Client);
  if (!App) {
    printf("ML error: %s\n", App.error().message().c_str());
    return 1;
  }

  // Link: the RichWasm checker validates each module and every boundary.
  auto Mach = link::instantiate({&*Lib, &*App});
  if (!Mach) {
    printf("link error: %s\n", Mach.error().message().c_str());
    return 1;
  }
  auto Call = [&](const char *Name,
                  sem::Value Arg) -> Expected<std::vector<sem::Value>> {
    return (*Mach)->invoke(1, *link::findExport(*App, Name), {}, {Arg});
  };

  printf("== Fig 9 counter/client on the RichWasm machine ==\n");
  (void)Call("init", sem::Value::unit());
  (void)Call("tick", sem::Value::unit()); // +1
  (void)Call("set_rate", sem::Value::i32(5));
  (void)Call("tick", sem::Value::unit()); // +5
  (void)Call("tick", sem::Value::unit()); // +5
  auto Total = Call("total", sem::Value::unit());
  printf("total after ticks at rates [1,5,5]: %llu (expected 11)\n",
         (unsigned long long)(*Total)[0].bits());
  printf("linear cells remaining: %zu (the emptied linref option)\n",
         (*Mach)->store().Mem.Lin.size());
  printf("linear frees performed: %llu\n",
         (unsigned long long)(*Mach)->store().Mem.FreeCountLin);

  // The same program compiled to one Wasm module.
  printf("\n== Same program lowered to WebAssembly ==\n");
  auto Art = link::buildArtifact({&*Lib, &*App}, {});
  if (!Art) {
    printf("lowering error: %s\n", Art.error().message().c_str());
    return 1;
  }
  const lower::LoweredProgram *LP = &(*Art)->Program;
  Status V = wasm::validate(LP->Module);
  printf("wasm validate: %s\n", V.ok() ? "OK" : V.error().message().c_str());
  wasm::WasmInstance Inst(LP->Module);
  (void)Inst.initialize();
  (void)Inst.invokeByName("app.init", {});
  (void)Inst.invokeByName("app.tick", {});
  (void)Inst.invokeByName("app.set_rate", {wasm::WValue::i32(5)});
  (void)Inst.invokeByName("app.tick", {});
  (void)Inst.invokeByName("app.tick", {});
  auto W = Inst.invokeByName("app.total", {});
  printf("total: %u (expected 11); live heap cells: %u\n", (*W)[0].asU32(),
         Inst.global(LP->Runtime.GLive).asU32());
  return 0;
}
