//===- examples/counter_client.cpp - Fig 9: the Counter/Client layout ------===//
//
// The paper's §4.2 example: a performance-critical library written in the
// manually-managed language (L3) — here, a mutable counter — used by
// higher-level logic written in the GC'd language (ML), which hides the
// linearity behind an interface. GC'd code references linear values, which
// in turn live alongside shared mutable configuration state.
//
//===----------------------------------------------------------------------===//

#include "l3/L3.h"
#include "link/Link.h"
#include "ml/ML.h"

#include <cstdio>
#include <optional>
#include <utility>

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

/// Prints the failed step and its error; the exit status is 1.
static int fail(const std::string &Step, const Error &E) {
  printf("%s error: %s\n", Step.c_str(), E.message().c_str());
  return 1;
}

// The protocol the client runs: init, a tick at rate 1, then two ticks at
// rate 5 (an argument-less export takes unit).
static const std::pair<const char *, std::optional<uint32_t>> Protocol[] = {
    {"init", {}}, {"tick", {}}, {"set_rate", 5}, {"tick", {}}, {"tick", {}}};

int main() {
  Expected<ir::Module> Lib = l3::compileSource("lib", CounterLib);
  if (!Lib)
    return fail("L3", Lib.error());
  Expected<ir::Module> App = ml::compileSource("app", Client);
  if (!App)
    return fail("ML", App.error());

  // Link: the RichWasm checker validates each module and every boundary.
  auto Mach = link::instantiate({&*Lib, &*App});
  if (!Mach)
    return fail("link", Mach.error());
  auto Call = [&](const char *Name, std::optional<uint32_t> Arg)
      -> Expected<std::vector<sem::Value>> {
    std::optional<uint32_t> F = link::findExport(*App, Name);
    if (!F)
      return Error(std::string("no export ") + Name);
    return (*Mach)->invoke(1, *F, {},
                           {Arg ? sem::Value::i32(*Arg) : sem::Value::unit()});
  };

  printf("== Fig 9 counter/client on the RichWasm machine ==\n");
  for (const auto &[Name, Arg] : Protocol)
    if (auto R = Call(Name, Arg); !R)
      return fail(Name, R.error());
  auto Total = Call("total", {});
  if (!Total)
    return fail("total", Total.error());
  printf("total after ticks at rates [1,5,5]: %llu (expected 11)\n",
         (unsigned long long)(*Total)[0].bits());
  printf("linear cells remaining: %zu (the emptied linref option)\n",
         (*Mach)->store().Mem.Lin.size());
  printf("linear frees performed: %llu\n",
         (unsigned long long)(*Mach)->store().Mem.FreeCountLin);

  // The same program compiled to one Wasm module and instantiated on the
  // default engine, as a server would.
  printf("\n== Same program lowered to WebAssembly ==\n");
  auto LI = link::instantiateLowered({&*Lib, &*App});
  if (!LI)
    return fail("lowering", LI.error());
  printf("engine: %s\n", wasm::engineKindName(LI->Instance->engine()));
  for (const auto &[Name, Arg] : Protocol) {
    std::vector<wasm::WValue> Args;
    if (Arg)
      Args.push_back(wasm::WValue::i32(*Arg));
    if (auto R = LI->invokeExport(std::string("app.") + Name, Args); !R)
      return fail(Name, R.error());
  }
  auto W = LI->invokeExport("app.total", {});
  if (!W)
    return fail("total", W.error());
  printf("total: %u (expected 11); live heap cells: %u\n", (*W)[0].asU32(),
         LI->Instance->global(LI->Program->Runtime.GLive).asU32());
  return 0;
}
