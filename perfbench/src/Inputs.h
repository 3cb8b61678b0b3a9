//===- perfbench/src/Inputs.h - Seeded workload inputs ---------*- C++ -*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Input generators. Every payload is a pure function of the run seed, and
/// every function the payloads define has a result derived here by hand
/// from its shape — never by running the code under test. The module
/// shapes, the mutator and the Counter sources are the c7 admission-server
/// ones (bench/ServerMix.h, bench/Common.h); what is new here is the
/// seeded link-set naming and the Wasm encoder.
///
///   * rwbench::serverModule(Tag, Funcs) and linkSetModule bodies compute
///       f(x) = (x + c) * 3  (mod 2^32)
///     with c = tagConstant(Tag, Funcs, J): the body adds c, moves the sum
///     through a linear struct (swap out, free), and multiplies by 3.
///   * wasmModule: hand-encoded WebAssembly binaries whose exports fN
///     compute the same (x + c) * 3 directly.
///   * The Counter protocol init; set_rate k; tick x T; total returns k*T.
///   * churn n returns n(n+1)/2 and leaves exactly n unreachable ML ref
///     cells, so the next collection sweeps n.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include "Harness.h"

#include "bench/Common.h"
#include "bench/ServerMix.h"
#include "ir/Builder.h"

#include <string>
#include <vector>

namespace pb {

/// The constant function J of a module tagged \p Tag adds (as
/// rwbench::serverModule builds it).
inline uint32_t tagConstant(uint64_t Tag, unsigned Funcs, unsigned J) {
  return static_cast<uint32_t>((Tag * Funcs + J) & 0x7fffffff);
}

/// The hand-derived result of every generated function.
inline uint32_t expectedF(uint32_t X, uint32_t C) { return (X + C) * 3u; }

/// Module name I of link set \p Set.
inline std::string linkModuleName(uint64_t Set, unsigned I) {
  return "set" + std::to_string(Set) + "_pkg" + std::to_string(I);
}

/// Module I of an N-module link set in the AdmissionSet import shape
/// (bench/Common.h): rwbench::serverModule's \p Funcs functions, exported
/// as "f<I>_<J>", and (for I > 0) two imports of functions exported by one
/// of the (at most four) preceding modules.
inline rw::ir::Module linkSetModule(uint64_t Set, unsigned I,
                                    unsigned Funcs) {
  using namespace rw::ir;
  using namespace rw::ir::build;
  rw::ir::Module M = rwbench::serverModule(Set * 1000003ull + I, Funcs);
  M.Name = linkModuleName(Set, I);
  for (unsigned J = 0; J < Funcs; ++J)
    M.Funcs[J].Exports = {"f" + std::to_string(I) + "_" + std::to_string(J)};
  FunTypeRef Fn = FunType::get({}, arrow({i32T()}, {i32T()}));
  if (I > 0)
    for (unsigned J = 0; J < 2; ++J) {
      unsigned P = (I * 7 + J * 13) % std::min(I, 4u);
      unsigned E = (I + J) % Funcs;
      M.Funcs.push_back(importFunc(
          {linkModuleName(Set, P),
           "f" + std::to_string(P) + "_" + std::to_string(E)},
          Fn));
    }
  return M;
}

/// A hand-encoded WebAssembly binary: one (i32)->i32 type and \p Funcs
/// functions, exported as "f0".., each computing (x + c_J) * 3 with
/// c_J = tagConstant(Tag, Funcs, J).
std::vector<uint8_t> wasmModule(uint64_t Tag, unsigned Funcs);

/// Unrestricted heap churn in ML: one `ref` cell per step, each dropped.
inline const char *ChurnML =
    "export fun churn (n : int) : int = "
    "  if n = 0 then 0 else (let r = ref n in !r + churn (n - 1)) ;;";

} // namespace pb

#endif // PERFBENCH_INPUTS_H
