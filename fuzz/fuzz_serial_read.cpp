//===- fuzz/fuzz_serial_read.cpp - libFuzzer target for serial::read ------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Totality and round-trip harness for the RichWasm wire-format reader. A
// private arena per input keeps rejected payloads from growing any shared
// state. A payload that reads back must re-serialize, and the reader must
// be the writer's inverse on what it wrote: read(write(M)) succeeds,
// re-encodes to the same bytes and hashes the same. Anything else traps.
//
//===----------------------------------------------------------------------===//

#include "ir/TypeArena.h"
#include "serial/Serial.h"

#include <cstddef>
#include <cstdint>
#include <memory>

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  std::vector<uint8_t> Bytes(Data, Data + Size);
  auto Arena = std::make_shared<rw::ir::TypeArena>();
  rw::Expected<rw::ir::Module> M = rw::serial::read(Bytes, Arena);
  if (!M)
    return 0;
  std::vector<uint8_t> Written = rw::serial::write(*M);
  rw::Expected<rw::ir::Module> Again =
      rw::serial::read(Written, std::make_shared<rw::ir::TypeArena>());
  if (!Again || rw::serial::write(*Again) != Written ||
      !(rw::serial::moduleHash(*Again) == rw::serial::moduleHash(*M)))
    __builtin_trap();
  return 0;
}
