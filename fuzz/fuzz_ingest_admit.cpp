//===- fuzz/fuzz_ingest_admit.cpp - libFuzzer target for ingest::admit ----===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// End-to-end totality harness for the whole front door: decode → validate
// → check → link → lower → translate → instantiate on arbitrary bytes,
// both container routes. RunStart is off so hostile start functions cost
// no fuel; everything up to and including instance initialization runs.
//
// It is also a differential harness for the admission cache: each input
// is admitted twice through one cache shared by the whole run (a miss,
// then a byte-key hit if it was admitted) and once with no cache, and the
// three verdicts, categories and messages must agree. Because the cache
// outlives single inputs, a byte-key collision between two inputs, or a
// hit served to bytes that should be rejected, aborts the run.
//
//===----------------------------------------------------------------------===//

#include "cache/AdmissionCache.h"
#include "ingest/Ingest.h"

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

struct Verdict {
  bool Admitted;
  rw::ingest::Category Cat;
  std::string Message;

  bool operator==(const Verdict &) const = default;
};

Verdict admit(const std::vector<uint8_t> &Bytes,
              const rw::link::LinkOptions &Opts) {
  rw::ingest::Limits L;
  L.MaxModuleBytes = 1 << 20;
  L.MaxTotalAlloc = 16u << 20;
  rw::ingest::IngestError E;
  rw::Expected<rw::ingest::AdmittedModule> A =
      rw::ingest::admit(Bytes, L, Opts, &E);
  return {static_cast<bool>(A), E.Cat, A ? "" : A.error().message()};
}

void expectSame(const Verdict &Got, const Verdict &Want, const char *What) {
  if (Got == Want)
    return;
  std::fprintf(stderr,
               "%s differs from the uncached admission:\n"
               "  got:  admitted=%d category=%s message=%s\n"
               "  want: admitted=%d category=%s message=%s\n",
               What, Got.Admitted, rw::ingest::categoryName(Got.Cat),
               Got.Message.c_str(), Want.Admitted,
               rw::ingest::categoryName(Want.Cat), Want.Message.c_str());
  std::abort();
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  static rw::cache::AdmissionCache Cache(64ull << 20, /*Shards=*/4);
  std::vector<uint8_t> Bytes(Data, Data + Size);
  rw::link::LinkOptions Opts;
  Opts.RunStart = false;
  rw::link::LinkOptions Cached = Opts;
  Cached.Cache = &Cache;

  Verdict First = admit(Bytes, Cached);
  Verdict Second = admit(Bytes, Cached);
  Verdict Uncached = admit(Bytes, Opts);
  expectSame(First, Uncached, "first cached admission");
  expectSame(Second, Uncached, "second cached admission");
  return 0;
}
