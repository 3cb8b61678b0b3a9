//===- fuzz/fuzz_wasm_decode.cpp - libFuzzer target for wasm::decode ------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Totality harness for the hardened binary decoder: any byte string must
// either decode (in which case it must also re-encode, validate and
// translate without UB, translation agreeing with validation) or produce
// a structured rejection — never crash, never allocate past
// the Limits budget. Build with -DRW_FUZZ=ON under Clang; seed with
// `make_corpus <dir>` plus fuzz/corpus/regression/.
//
//===----------------------------------------------------------------------===//

#include "exec/Translate.h"
#include "wasm/Binary.h"
#include "wasm/Validate.h"

#include <cstddef>
#include <cstdint>

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  std::vector<uint8_t> Bytes(Data, Data + Size);
  rw::ingest::Limits L;
  // Keep single-input cost small so the fuzzer explores structure instead
  // of grinding big allocations.
  L.MaxModuleBytes = 1 << 20;
  L.MaxTotalAlloc = 16u << 20;
  rw::ingest::IngestError E;
  rw::Expected<rw::wasm::WModule> M = rw::wasm::decode(Bytes, L, &E);
  if (M) {
    // Anything that decodes must survive the rest of the trusted-side
    // contract: re-encoding, validation and translation are total on
    // decoder output. Translation validates in the walk that emits the
    // code, so its verdict and message must be validation's: a
    // difference means the emitter saw (or skipped) what the validator
    // did not.
    (void)rw::wasm::encode(*M);
    rw::Status V = rw::wasm::validate(*M, L.MaxOperandDepth);
    rw::Expected<rw::exec::FlatModule> T =
        rw::exec::translate(*M, L.MaxOperandDepth);
    if (V.ok() != bool(T) ||
        (!V && V.error().message() != T.error().message()))
      __builtin_trap();
  }
  return 0;
}
