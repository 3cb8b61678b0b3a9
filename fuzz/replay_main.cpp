//===- fuzz/replay_main.cpp - Replay inputs through a fuzz harness --------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// A `main` for the libFuzzer harnesses in fuzz/ that needs no libFuzzer:
// every argument is a file, or a directory whose regular files are taken
// in name order, and each input is fed once to LLVMFuzzerTestOneInput.
// A harness reports a failed check by trapping or aborting, which fails
// the run. Linked with each harness in the default build, so ctest replays
// the seed corpus (fuzz/make_corpus) and fuzz/corpus/regression/ on every
// build:
//
//   replay_fuzz_serial_read <dir-or-file>...
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size);

int main(int argc, char **argv) {
  namespace fs = std::filesystem;
  std::vector<fs::path> Inputs;
  for (int I = 1; I < argc; ++I) {
    fs::path P(argv[I]);
    if (!fs::is_directory(P)) {
      Inputs.push_back(P);
      continue;
    }
    std::vector<fs::path> Files;
    for (const fs::directory_entry &E : fs::directory_iterator(P))
      if (E.is_regular_file())
        Files.push_back(E.path());
    std::sort(Files.begin(), Files.end());
    Inputs.insert(Inputs.end(), Files.begin(), Files.end());
  }
  if (Inputs.empty()) {
    std::fprintf(stderr, "usage: %s <file-or-directory>...\n", argv[0]);
    return 2;
  }
  for (const fs::path &P : Inputs) {
    std::ifstream In(P, std::ios::binary);
    if (!In) {
      std::fprintf(stderr, "cannot read %s\n", P.c_str());
      return 1;
    }
    std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),
                               std::istreambuf_iterator<char>());
    LLVMFuzzerTestOneInput(Bytes.data(), Bytes.size());
  }
  std::printf("replayed %zu inputs\n", Inputs.size());
  return 0;
}
