//===- ingest/Ingest.cpp - Hardened untrusted-ingestion front door --------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ingest/Ingest.h"

#include "cache/AdmissionCache.h"
#include "obs/Obs.h"
#include "serial/Serial.h"
#include "support/Hashing.h"
#include "typing/Checker.h"
#include "wasm/Binary.h"

#include <random>

using namespace rw;
using namespace rw::ingest;

namespace {

/// The cache key of both routes: a hash of the input bytes plus every
/// Limits field, folded under a seed of its own so byte keys and
/// cache::programKey keys form separate domains in the one cache. Folding
/// the limits in keeps a tighter policy from being served an artifact
/// admitted under a looser one. The byte pass is seeded with a value
/// drawn once per process: hashBytes128's lanes are each invertible word
/// by word, so without a secret seed colliding inputs could be built
/// offline, and whoever later submitted one of them would be served the
/// other's artifact.
serial::ModuleHash byteKey(const std::vector<uint8_t> &Bytes,
                           const Limits &L) {
  static const uint64_t ProcessSeed = [] {
    std::random_device RD;
    return (uint64_t(RD()) << 32) ^ RD();
  }();
  constexpr uint64_t ByteKeyDomain = 0x5257424d62797465ull; // "RWBMbyte"
  support::Hash128 Input =
      support::hashBytes128(Bytes.data(), Bytes.size(), ProcessSeed);
  static_assert(sizeof(Limits) == 72, "fold a new Limits field in here");
  const uint64_t Words[] = {
      Input.Hi,          Input.Lo,         L.MaxModuleBytes, L.MaxSections,
      L.MaxTypes,        L.MaxImports,     L.MaxFuncs,       L.MaxGlobals,
      L.MaxExports,      L.MaxElems,       L.MaxBodyBytes,   L.MaxLocals,
      L.MaxNestingDepth, L.MaxOperandDepth, L.MaxMemoryPages,
      L.MaxTotalAlloc};
  return support::hashBytes128(reinterpret_cast<const uint8_t *>(Words),
                               sizeof(Words), ByteKeyDomain);
}

/// The `ingest.rejected.<token>` counter of \p C. All of them (None
/// through Resource, the last category) are registered on the first
/// rejection, so the reject path never looks a name up and every
/// category exports a series once any has.
const obs::Counter &rejectedCounter(Category C) {
  static const std::vector<obs::Counter> ByCategory = [] {
    std::vector<obs::Counter> V;
    for (unsigned I = 0; I <= unsigned(Category::Resource); ++I)
      V.emplace_back((std::string("ingest.rejected.") +
                      categoryToken(Category(I)))
                         .c_str());
    return V;
  }();
  return ByCategory[unsigned(C)];
}

/// Records a stage failure in \p E and returns the Error it renders.
Error fail(IngestError &E, Category C, std::string Ctx) {
  ingest::reportStage(&E, C, std::move(Ctx));
  return Error("ingest: " + E.render());
}

using Artifact = std::shared_ptr<const cache::LoweredArtifact>;

/// The Wasm container's build stage: decode under L (which reports its own
/// category and offset), then translate under the operand-depth cap,
/// which validates in the same walk, as link::buildArtifact does. The
/// artifact holds the decoded module and no GC metadata.
Expected<Artifact> buildWasm(const std::vector<uint8_t> &Bytes,
                             const Limits &L, IngestError &E) {
  Expected<wasm::WModule> M = wasm::decode(Bytes, L, &E);
  if (!M)
    return M.error();
  auto A = std::make_shared<cache::LoweredArtifact>();
  A->Program.Module = M.take();
  Expected<exec::FlatModule> FM =
      exec::translate(A->Program.Module, L.MaxOperandDepth);
  if (!FM)
    return fail(E, Category::Validate, FM.error().message());
  A->Flat = FM.take();
  return Artifact(std::move(A));
}

/// The RWBM container's build stage: read into a fresh arena, the count
/// limits, check, then link::buildArtifact. The parsed module and its arena die
/// on return: the artifact is pure Wasm and borrows nothing from them.
Expected<Artifact> buildRichWasm(const std::vector<uint8_t> &Bytes,
                                 const Limits &L,
                                 const link::LinkOptions &Opts,
                                 IngestError &E) {
  // A fresh arena per admission, held by nobody else: a rejected module's
  // types die with it, so hostile bytes cannot grow the process-wide arena
  // (which has no eviction).
  Expected<ir::Module> M =
      serial::read(Bytes, std::make_shared<ir::TypeArena>(), &E);
  if (!M)
    return Error("ingest: " + E.render());

  if (M->Funcs.size() > L.MaxFuncs)
    return fail(E, Category::LimitExceeded,
                "module has " + std::to_string(M->Funcs.size()) +
                    " functions, limit is " + std::to_string(L.MaxFuncs));
  if (M->Globals.size() > L.MaxGlobals)
    return fail(E, Category::LimitExceeded,
                "module has " + std::to_string(M->Globals.size()) +
                    " globals, limit is " + std::to_string(L.MaxGlobals));
  if (M->Tab.Entries.size() > L.MaxElems)
    return fail(E, Category::LimitExceeded,
                "module has " + std::to_string(M->Tab.Entries.size()) +
                    " table entries, limit is " +
                    std::to_string(L.MaxElems));

  // Check here, then hand the InfoMap to the build stage so it runs zero
  // further checks.
  std::vector<typing::InfoMap> Infos(1);
  if (Status S = typing::checkModule(*M, &Infos[0]); !S)
    return fail(E, Category::Check, S.error().message());

  link::LinkOptions LO = Opts;
  LO.Infos = &Infos;
  Expected<Artifact> Art = link::buildArtifact({&*M}, LO, &E);
  if (!Art)
    return fail(E, E.Cat, Art.error().message());
  return Art;
}

/// The pipeline both containers share: sniff the magic, probe the byte
/// key, on a miss run the container's build stage, reject open function
/// imports (Link) and store its artifact, then instantiate. Only bytes
/// that passed every stage of their build are ever stored, so a hit
/// serves a checked artifact that can be instantiated. A failure leaves
/// the failing stage's category and context in \p E.
Expected<AdmittedModule> admitStaged(const std::vector<uint8_t> &Bytes,
                                     const Limits &L,
                                     const link::LinkOptions &Opts,
                                     IngestError &E) {
  if (Bytes.size() > L.MaxModuleBytes)
    return fail(E, Category::TooLarge,
                "module of " + std::to_string(Bytes.size()) +
                    " bytes exceeds limit of " +
                    std::to_string(L.MaxModuleBytes));
  if (Bytes.size() < 4)
    return fail(E, Category::BadMagic,
                "input too short for a container magic");
  AdmittedModule A;
  if (Bytes[0] == 0x00 && Bytes[1] == 'a' && Bytes[2] == 's' &&
      Bytes[3] == 'm')
    A.R = Route::Wasm;
  else if (Bytes[0] == 'R' && Bytes[1] == 'W' && Bytes[2] == 'B' &&
           Bytes[3] == 'M')
    A.R = Route::RichWasm;
  else
    return fail(E, Category::BadMagic, "unrecognized container magic");

  serial::ModuleHash Key;
  Artifact Art;
  if (Opts.Cache) {
    Key = byteKey(Bytes, L);
    Art = Opts.Cache->lookupProgram(Key);
  }
  if (!Art) {
    Expected<Artifact> Built = A.R == Route::Wasm
                                   ? buildWasm(Bytes, L, E)
                                   : buildRichWasm(Bytes, L, Opts, E);
    if (!Built)
      return Built.error();
    Art = Built.take();
    // admit binds no host functions, so an import left open after the
    // build can never be satisfied: reject it before it is stored.
    const std::vector<wasm::WImportFunc> &Open =
        Art->Program.Module.ImportFuncs;
    if (!Open.empty())
      return fail(E, Category::Link,
                  "unsatisfied import " + Open[0].Mod + "." + Open[0].Name);
    if (Opts.Cache)
      Opts.Cache->storeProgram(Key, Art);
  }
  Expected<link::LoweredInstance> LI =
      link::instantiateArtifact(std::move(Art), Opts);
  if (!LI)
    return fail(E, Category::Engine, LI.error().message());
  A.Lowered = LI.take();
  return A;
}

} // namespace

Expected<AdmittedModule> rw::ingest::admit(const std::vector<uint8_t> &Bytes,
                                           const Limits &L,
                                           const link::LinkOptions &Opts,
                                           IngestError *ErrOut) {
  // The content hash doubles as the head-sampling key: the same input
  // bytes trace (or not) identically regardless of thread, pool size, or
  // arrival order, so an always-on server traces a stable deterministic
  // 1-in-N slice of its admissions (RW_OBS_TRACE_SAMPLE=N). Unseeded,
  // unlike the cache key, so the slice is also the same across runs.
  uint64_t InputHash = support::hashBytes128(Bytes.data(), Bytes.size()).Lo;
  obs::TraceSampleScope SampleScope(obs::traceSampleSelect(InputHash));
  OBS_SPAN("ingest_admit", Bytes.size());
  static obs::Counter Accepted("ingest.accepted");
  static obs::Counter BytesIn("ingest.bytes");
  BytesIn.add(Bytes.size());

  IngestError E;
  Expected<AdmittedModule> A = admitStaged(Bytes, L, Opts, E);
  if (ErrOut)
    *ErrOut = E;
  if (!A) {
    rejectedCounter(E.Cat).inc();
    return A;
  }
  A->InputHash = InputHash;
  Accepted.inc();
  return A;
}
