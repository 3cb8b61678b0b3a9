//===- wasm/Instance.cpp - Engine-independent instance state ---------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "wasm/Instance.h"

#include "obs/Obs.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace rw;
using namespace rw::wasm;

Instance::~Instance() { obs::unregisterSource(ObsSourceId); }

void Instance::ensureProfileTable() {
  size_t N = M->ImportFuncs.size() + M->Funcs.size();
  if (Prof.size() < N)
    Prof.resize(N);
}

void Instance::enableProfiling() {
  if (ProfileOn)
    return;
  ProfileOn = true;
  ensureProfileTable();
  // The source reads Prof by reference; ~Instance unregisters before the
  // table dies. Only non-zero rows are emitted to keep snapshots small.
  ObsSourceId = obs::registerSource("exec.profile", [this](
                                                       const obs::EmitFn &E) {
    for (size_t I = 0; I < Prof.size(); ++I) {
      if (!Prof[I].Invocations && !Prof[I].LoopHeads)
        continue;
      std::string Base = "func" + std::to_string(I);
      E((Base + ".inv").c_str(), Prof[I].Invocations);
      E((Base + ".loops").c_str(), Prof[I].LoopHeads);
    }
  });
}

std::string Instance::trapNote(uint32_t FuncIdx) {
  return " [func " + std::to_string(FuncIdx) + "]";
}

uint32_t Instance::load32(uint32_t Addr) {
  [[maybe_unused]] bool In = commitMemory(uint64_t(Addr) + 4);
  assert(In && "host load out of bounds");
  uint32_t V;
  std::memcpy(&V, Mem.data() + Addr, 4);
  return V;
}

void Instance::store32(uint32_t Addr, uint32_t V) {
  [[maybe_unused]] bool In = commitMemory(uint64_t(Addr) + 4);
  assert(In && "host store out of bounds");
  std::memcpy(Mem.data() + Addr, &V, 4);
}

bool Instance::commitSlow(uint64_t End) {
  static obs::Counter Committed("exec.mem.committed_bytes");
  if (End > MemBytes)
    return false;
  uint64_t Chunked = (End + MemChunk - 1) / MemChunk * MemChunk;
  uint64_t New = std::min(MemBytes, std::max(Chunked, 2 * Mem.size()));
  Committed.add(New - Mem.size());
  Mem.resize(New);
  return true;
}

uint64_t Instance::memoryGrow(uint32_t Delta) {
  uint64_t OldPages = MemBytes / PageSize;
  uint64_t NewPages = OldPages + Delta;
  uint64_t MaxPages =
      M->Memory && M->Memory->second ? *M->Memory->second : 65536;
  if (NewPages > MaxPages)
    return 0xffffffffu;
  bool Full = Mem.size() == MemBytes;
  MemBytes = NewPages * PageSize;
  if (Full)
    commitMemory(MemBytes);
  return OldPages;
}

std::optional<uint32_t> Instance::findExport(const std::string &Name,
                                             ExportKind Kind) const {
  for (const WExport &E : M->Exports)
    if (E.Kind == Kind && E.Name == Name)
      return E.Idx;
  return std::nullopt;
}

Status Instance::initialize(bool RunStart) {
  HostTable.clear();
  HostTable.reserve(M->ImportFuncs.size());
  for (const WImportFunc &I : M->ImportFuncs) {
    auto It = Hosts.find({I.Mod, I.Name});
    if (It == Hosts.end())
      return Error("unsatisfied import " + I.Mod + "." + I.Name);
    HostTable.push_back(&It->second);
  }
  Mem.clear();
  MemBytes = M->Memory ? uint64_t(M->Memory->first) * PageSize : 0;
  Globals.clear();
  for (const WGlobal &G : M->Globals) {
    // Initializer must be a single const (or global.get) expression.
    WValue V{G.T, 0};
    if (!G.Init.empty()) {
      const WInst &I = G.Init[0];
      switch (I.K) {
      case Op::I32Const:
      case Op::I64Const:
      case Op::F32Const:
      case Op::F64Const:
        V.Bits = I.U64;
        break;
      case Op::GlobalGet:
        // Validation guarantees the reference is to an earlier global;
        // re-check here so a hostile module that skipped validation still
        // cannot read out of bounds.
        if (I.U32 >= Globals.size())
          return Error("global initializer references undefined global");
        V = Globals[I.U32];
        break;
      default:
        return Error("unsupported global initializer");
      }
    }
    Globals.push_back(V);
  }
  Table = M->TableElems;
  for (const WData &D : M->Data) {
    uint64_t End = uint64_t(D.Offset) + D.Bytes.size();
    if (End > MemBytes)
      return Error("data segment out of bounds");
    if (D.Bytes.empty())
      continue;
    commitMemory(End);
    std::memcpy(Mem.data() + D.Offset, D.Bytes.data(), D.Bytes.size());
  }
  if (Status S = prepare(); !S)
    return S;
  if (RunStart && M->Start) {
    Expected<std::vector<WValue>> R = invoke(*M->Start, {});
    if (!R)
      return R.error();
  }
  return Status::success();
}

Expected<std::vector<WValue>> Instance::invokeByName(const std::string &Name,
                                                     std::vector<WValue> Args,
                                                     uint64_t MaxFuel) {
  std::optional<uint32_t> Idx = findExport(Name, ExportKind::Func);
  if (!Idx)
    return Error("no exported function named '" + Name + "'");
  return invoke(*Idx, std::move(Args), MaxFuel);
}
