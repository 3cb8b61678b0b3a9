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
#include "wasm/Validate.h"

#include <random>

using namespace rw;
using namespace rw::ingest;

namespace {

/// The RichWasm route's cache key: a hash of the input bytes plus every
/// Limits field the route enforces after reading, folded under a seed of
/// its own so byte keys and cache::programKey keys form separate domains
/// in the one cache. Folding the limits in keeps a tighter policy from
/// being served an artifact admitted under a looser one. The byte pass is
/// seeded with a value drawn once per process: hashBytes128's lanes are
/// each invertible word by word, so without a secret seed colliding
/// inputs could be built offline, and whoever later submitted one of them
/// would be served the other's artifact.
serial::ModuleHash byteKey(const std::vector<uint8_t> &Bytes,
                           const Limits &L) {
  static const uint64_t ProcessSeed = [] {
    std::random_device RD;
    return (uint64_t(RD()) << 32) ^ RD();
  }();
  constexpr uint64_t ByteKeyDomain = 0x5257424d62797465ull; // "RWBMbyte"
  support::Hash128 Input =
      support::hashBytes128(Bytes.data(), Bytes.size(), ProcessSeed);
  const uint64_t Words[] = {Input.Hi, Input.Lo, L.MaxFuncs, L.MaxGlobals,
                            L.MaxElems};
  return support::hashBytes128(reinterpret_cast<const uint8_t *>(Words),
                               sizeof(Words), ByteKeyDomain);
}

obs::Counter &rejectedCounter(Category C) {
  // One static counter per category so snapshots break rejects down by
  // cause without a registry lookup on the reject path.
  switch (C) {
  case Category::TooLarge: {
    static obs::Counter X("ingest.rejected.too_large");
    return X;
  }
  case Category::BadMagic: {
    static obs::Counter X("ingest.rejected.bad_magic");
    return X;
  }
  case Category::Truncated: {
    static obs::Counter X("ingest.rejected.truncated");
    return X;
  }
  case Category::Malformed: {
    static obs::Counter X("ingest.rejected.malformed");
    return X;
  }
  case Category::LimitExceeded: {
    static obs::Counter X("ingest.rejected.limit_exceeded");
    return X;
  }
  case Category::Unsupported: {
    static obs::Counter X("ingest.rejected.unsupported");
    return X;
  }
  case Category::Validate: {
    static obs::Counter X("ingest.rejected.validate");
    return X;
  }
  case Category::Check: {
    static obs::Counter X("ingest.rejected.check");
    return X;
  }
  case Category::Link: {
    static obs::Counter X("ingest.rejected.link");
    return X;
  }
  case Category::Lower: {
    static obs::Counter X("ingest.rejected.lower");
    return X;
  }
  case Category::Translate: {
    static obs::Counter X("ingest.rejected.translate");
    return X;
  }
  case Category::Engine: {
    static obs::Counter X("ingest.rejected.engine");
    return X;
  }
  case Category::Resource: {
    static obs::Counter X("ingest.rejected.resource");
    return X;
  }
  case Category::None:
    break;
  }
  static obs::Counter X("ingest.rejected.none");
  return X;
}

/// Builds the rejection both callers see: the structured error in ErrOut
/// and the rendered string Error, with the per-category counter bumped.
Error reject(IngestError *ErrOut, Category C, uint64_t Off,
             std::string Ctx) {
  IngestError E;
  E.Cat = C;
  E.Offset = Off;
  E.Context = std::move(Ctx);
  rejectedCounter(C).inc();
  std::string Msg = "ingest: " + E.render();
  if (ErrOut)
    *ErrOut = std::move(E);
  return Error(std::move(Msg));
}

/// Classifies a serial::read failure message. The reader predates the
/// taxonomy and reports strings; map the stable prefixes it emits.
Category classifySerial(const std::string &Msg) {
  if (Msg.find("magic") != std::string::npos)
    return Category::BadMagic;
  if (Msg.find("version") != std::string::npos)
    return Category::Unsupported;
  if (Msg.find("truncated") != std::string::npos ||
      Msg.find("length mismatch") != std::string::npos)
    return Category::Truncated;
  return Category::Malformed;
}

/// Classifies a link::instantiateLowered failure by the stage contexts the
/// admission pipeline attaches to its errors.
Category classifyAdmission(const std::string &Msg) {
  if (Msg.find("validation") != std::string::npos)
    return Category::Validate;
  if (Msg.find("flat translation") != std::string::npos)
    return Category::Translate;
  if (Msg.find("lower") != std::string::npos)
    return Category::Lower;
  if (Msg.find("import") != std::string::npos ||
      Msg.find("resolve") != std::string::npos ||
      Msg.find("export") != std::string::npos)
    return Category::Link;
  if (Msg.find("injected") != std::string::npos)
    return Category::Resource;
  return Category::Engine;
}

Expected<AdmittedModule> admitWasm(const std::vector<uint8_t> &Bytes,
                                   const Limits &L,
                                   const link::LinkOptions &Opts,
                                   IngestError *ErrOut) {
  IngestError DecErr;
  Expected<wasm::WModule> M = wasm::decode(Bytes, L, &DecErr);
  if (!M) {
    rejectedCounter(DecErr.Cat).inc();
    if (ErrOut)
      *ErrOut = DecErr;
    return M.error();
  }
  if (Status S = wasm::validate(*M, L.MaxOperandDepth); !S)
    return reject(ErrOut, Category::Validate, 0, S.error().message());

  AdmittedModule A;
  A.R = Route::Wasm;
  A.WasmMod = std::make_unique<wasm::WModule>(M.take());
  // createInstance covers all engines; for Flat/Jit it performs the flat
  // translation during initialize(), whose failure surfaces here.
  A.WasmInst = wasm::createInstance(*A.WasmMod, Opts.Engine);
  if (Status S = A.WasmInst->initialize(Opts.RunStart); !S) {
    const std::string &Msg = S.error().message();
    Category C = Msg.find("translat") != std::string::npos
                     ? Category::Translate
                     : Category::Engine;
    return reject(ErrOut, C, 0, Msg);
  }
  return A;
}

/// Reads, limit-checks and type-checks a RichWasm payload, then builds
/// its lowered artifact. The parsed module and its private arena die on
/// return: the artifact is pure Wasm and borrows nothing from them.
Expected<std::shared_ptr<const cache::LoweredArtifact>>
buildRichWasm(const std::vector<uint8_t> &Bytes, const Limits &L,
              const link::LinkOptions &Opts, IngestError *ErrOut) {
  // A private arena per admission: a rejected module's types die with it,
  // so hostile bytes cannot grow the process-wide arena (which has no
  // eviction). Nobody else holds the arena, so one parse suffices.
  Expected<ir::Module> M = serial::readPrivate(Bytes);
  if (!M)
    return reject(ErrOut, classifySerial(M.error().message()), 0,
                  M.error().message());

  if (M->Funcs.size() > L.MaxFuncs)
    return reject(ErrOut, Category::LimitExceeded, 0,
                  "module has " + std::to_string(M->Funcs.size()) +
                      " functions, limit is " + std::to_string(L.MaxFuncs));
  if (M->Globals.size() > L.MaxGlobals)
    return reject(ErrOut, Category::LimitExceeded, 0,
                  "module has " + std::to_string(M->Globals.size()) +
                      " globals, limit is " + std::to_string(L.MaxGlobals));
  if (M->Tab.Entries.size() > L.MaxElems)
    return reject(ErrOut, Category::LimitExceeded, 0,
                  "module has " + std::to_string(M->Tab.Entries.size()) +
                      " table entries, limit is " +
                      std::to_string(L.MaxElems));

  // Check explicitly (precise Category::Check attribution), then hand the
  // InfoMap to the build stage so it runs zero further checks.
  std::vector<typing::InfoMap> Infos(1);
  if (Status S = typing::checkModule(*M, &Infos[0]); !S)
    return reject(ErrOut, Category::Check, 0, S.error().message());

  link::LinkOptions LO = Opts;
  LO.Infos = &Infos;
  Expected<std::shared_ptr<const cache::LoweredArtifact>> Art =
      link::buildArtifact({&*M}, LO);
  if (!Art)
    return reject(ErrOut, classifyAdmission(Art.error().message()), 0,
                  Art.error().message());
  return Art;
}

/// The RichWasm route. With a cache, the byte key is probed before any
/// parsing: a hit goes straight to instantiation. A miss runs the whole
/// checked pipeline and stores its artifact under the byte key, so only
/// bytes that passed read, limits, check, lower, validate and translate
/// are ever served from it.
Expected<AdmittedModule> admitRichWasm(const std::vector<uint8_t> &Bytes,
                                       const Limits &L,
                                       const link::LinkOptions &Opts,
                                       IngestError *ErrOut) {
  serial::ModuleHash Key;
  std::shared_ptr<const cache::LoweredArtifact> Art;
  if (Opts.Cache) {
    Key = byteKey(Bytes, L);
    Art = Opts.Cache->lookupProgram(Key);
  }
  if (!Art) {
    Expected<std::shared_ptr<const cache::LoweredArtifact>> Built =
        buildRichWasm(Bytes, L, Opts, ErrOut);
    if (!Built)
      return Built.error();
    Art = Built.take();
    if (Opts.Cache)
      Opts.Cache->storeProgram(Key, Art);
  }

  Expected<link::LoweredInstance> LI =
      link::instantiateArtifact(std::move(Art), Opts);
  if (!LI)
    return reject(ErrOut, classifyAdmission(LI.error().message()), 0,
                  LI.error().message());
  AdmittedModule A;
  A.R = Route::RichWasm;
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
  if (ErrOut)
    *ErrOut = IngestError();

  if (Bytes.size() > L.MaxModuleBytes)
    return reject(ErrOut, Category::TooLarge, 0,
                  "module of " + std::to_string(Bytes.size()) +
                      " bytes exceeds limit of " +
                      std::to_string(L.MaxModuleBytes));
  if (Bytes.size() < 4)
    return reject(ErrOut, Category::BadMagic, 0,
                  "input too short for a container magic");

  Expected<AdmittedModule> A = Error("unreachable");
  if (Bytes[0] == 0x00 && Bytes[1] == 'a' && Bytes[2] == 's' &&
      Bytes[3] == 'm')
    A = admitWasm(Bytes, L, Opts, ErrOut);
  else if (Bytes[0] == 'R' && Bytes[1] == 'W' && Bytes[2] == 'B' &&
           Bytes[3] == 'M')
    A = admitRichWasm(Bytes, L, Opts, ErrOut);
  else
    return reject(ErrOut, Category::BadMagic, 0,
                  "unrecognized container magic");

  if (!A)
    return A;
  A->InputHash = InputHash;
  Accepted.inc();
  return A;
}
