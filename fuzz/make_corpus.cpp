//===- fuzz/make_corpus.cpp - Seed-corpus generator for the fuzz targets --===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Writes the seed corpus into the directory given as argv[1]: real
// admissible inputs for both container routes — wasm::encode of lowered
// bench/example workloads and serial::write of the RichWasm modules —
// plus a handful of small adversarial shapes (truncations, overlong LEBs,
// hostile counts) mirroring fuzz/corpus/regression/. Seeding with valid
// modules is what lets the fuzzer mutate *deep* structure instead of
// spending its budget rediscovering the header.
//
// Usage: make_corpus <output-dir>
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"
#include "bench/ServerMix.h"
#include "lower/Lower.h"
#include "serial/Serial.h"
#include "wasm/Binary.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace rw;

namespace {

bool writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  if (!Bytes.empty())
    std::fwrite(Bytes.data(), 1, Bytes.size(), F);
  std::fclose(F);
  return true;
}

std::vector<uint8_t> lowerAndEncode(const ir::Module &M) {
  auto Art = link::buildArtifact({&M}, {});
  if (!Art) {
    std::fprintf(stderr, "lowering failed: %s\n",
                 Art.error().message().c_str());
    return {};
  }
  const lower::LoweredProgram *LP = &(*Art)->Program;
  return wasm::encode(LP->Module);
}

} // namespace

int main(int argc, char **argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 2;
  }
  std::string Dir = argv[1];
  int Failures = 0;
  auto Emit = [&](const char *Name, const std::vector<uint8_t> &Bytes) {
    if (Bytes.empty() || !writeFile(Dir + "/" + Name, Bytes)) {
      std::fprintf(stderr, "failed to write %s\n", Name);
      ++Failures;
    }
  };

  // Wasm-route seeds: lowered bench workloads (loops, linear allocation,
  // wide multi-function modules) cover blocks, calls, memory, globals,
  // exports, and data in real proportions.
  Emit("wasm_loop.bin", lowerAndEncode(rwbench::loopModule(10)));
  Emit("wasm_alloc_lin.bin", lowerAndEncode(rwbench::allocModule(4, true)));
  Emit("wasm_alloc_unr.bin", lowerAndEncode(rwbench::allocModule(4, false)));
  Emit("wasm_wide.bin", lowerAndEncode(rwbench::wideModule(6)));

  // RichWasm-route seeds: the same modules on the wire format.
  Emit("serial_loop.bin", serial::write(rwbench::loopModule(10)));
  Emit("serial_alloc.bin", serial::write(rwbench::allocModule(4, true)));
  Emit("serial_wide.bin", serial::write(rwbench::wideModule(6)));

  // Adversarial shapes (kept in sync with fuzz/corpus/regression/).
  Emit("adv_empty_wasm.bin",
       {0x00, 0x61, 0x73, 0x6d, 0x01, 0x00, 0x00, 0x00});
  // Truncated header.
  Emit("adv_truncated_magic.bin", {0x00, 0x61, 0x73});
  // Type section claiming 2^32-1 entries in 5 bytes.
  Emit("adv_hostile_count.bin",
       {0x00, 0x61, 0x73, 0x6d, 0x01, 0x00, 0x00, 0x00, 0x01, 0x05, 0xff,
        0xff, 0xff, 0xff, 0x0f});
  // Overlong (zero-padded) LEB section size.
  Emit("adv_overlong_leb.bin",
       {0x00, 0x61, 0x73, 0x6d, 0x01, 0x00, 0x00, 0x00, 0x01, 0x80, 0x00});
  // Serial header with a corrupt checksum.
  Emit("adv_serial_badsum.bin",
       {'R', 'W', 'B', 'M', 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x00, 0x00, 0x00,
        0x00});

  // A well-formed module whose global import names module "validation":
  // its rejection message quotes that name, and the rejection must still
  // be a Link failure.
  Emit("import_named_validation.bin",
       serial::write(rwbench::globalImportModule("validation")));
  // A well-typed module whose one function is imported from host.f:
  // ingest::admit binds no host functions, so it is a Link rejection and
  // is never stored.
  Emit("host_func_import.bin", serial::write(rwbench::funcImportModule()));

  // c7 server-mix seeds: the admission-server simulation's hot universe
  // and its deterministic adversarial mutator (bench/ServerMix.h) feed
  // the same front door the fuzzer attacks, so its payloads are ideal
  // deep-structure seeds. Two hot payloads plus one mutant per mutation
  // class (truncate / bitflip / magic / zero-run / splice).
  std::vector<uint8_t> Hot0 = serial::write(rwbench::serverModule(0));
  Emit("serial_server_hot0.bin", Hot0);
  Emit("serial_server_hot1.bin", serial::write(rwbench::serverModule(1)));
  for (uint64_t Class = 0; Class < 5; ++Class) {
    // Scan seeds until the mutator's class draw lands on each class, so
    // the emitted set covers the whole battery deterministically.
    for (uint64_t Seed = 0;; ++Seed) {
      uint64_t S = 0xadee5eedull + Seed;
      uint64_t Probe = S;
      if (rwbench::splitmix64(Probe) % 5 != Class)
        continue;
      Emit(("adv_servermix_" + std::to_string(Class) + ".bin").c_str(),
           rwbench::serverMutate(Hot0, S));
      break;
    }
  }

  // A one-byte mutant of an admitted module: the last payload byte of hot
  // payload 0 flipped (the checksum then rejects it). Admitted right
  // after its original through fuzz_ingest_admit's shared cache, it pins
  // that a near-duplicate of a cached input never hits its entry.
  std::vector<uint8_t> OneByte = Hot0;
  OneByte.back() ^= 0x01;
  Emit("adv_servermix_one_byte.bin", OneByte);

  if (Failures) {
    std::fprintf(stderr, "%d corpus seeds failed\n", Failures);
    return 1;
  }
  std::printf("seed corpus written to %s\n", Dir.c_str());
  return 0;
}
