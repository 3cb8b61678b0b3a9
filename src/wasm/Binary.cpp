//===- wasm/Binary.cpp - Wasm binary encoder and decoder -------------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "wasm/Binary.h"

#include "ingest/Limits.h"
#include "obs/Obs.h"
#include "support/FaultInject.h"
#include "support/LEB128.h"

#include <cassert>
#include <cstring>

using namespace rw;
using namespace rw::wasm;

//===----------------------------------------------------------------------===//
// Encoder
//===----------------------------------------------------------------------===//

namespace {

class Encoder {
public:
  explicit Encoder(WModule M) : M(std::move(M)) {}

  std::vector<uint8_t> run() {
    // Pre-register all multi-value block types so the type section is
    // complete before it is emitted.
    for (const WFunc &F : M.Funcs)
      registerBlockTypes(F.Body);
    for (const WGlobal &G : M.Globals)
      registerBlockTypes(G.Init);

    Out = {0x00, 0x61, 0x73, 0x6d, 0x01, 0x00, 0x00, 0x00};
    emitTypeSection();
    emitImportSection();
    emitFunctionSection();
    emitTableSection();
    emitMemorySection();
    emitGlobalSection();
    emitExportSection();
    emitStartSection();
    emitElemSection();
    emitCodeSection();
    emitDataSection();
    return std::move(Out);
  }

private:
  void registerBlockTypes(const std::vector<WInst> &Body) {
    for (const WInst &I : Body) {
      if (I.K == Op::Block || I.K == Op::Loop || I.K == Op::If) {
        const FuncType &BT = I.bt();
        if (!(BT.Params.empty() && BT.Results.size() <= 1))
          M.addType(BT);
        registerBlockTypes(I.Body);
        registerBlockTypes(I.Else);
      }
    }
  }

  void u8(uint8_t B) { Out.push_back(B); }
  void u32(uint64_t V) { encodeULEB128(V, Out); }
  void s64(int64_t V) { encodeSLEB128(V, Out); }
  void raw32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Out.push_back((V >> (8 * I)) & 0xff);
  }
  void raw64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Out.push_back((V >> (8 * I)) & 0xff);
  }
  void name(const std::string &S) {
    u32(S.size());
    Out.insert(Out.end(), S.begin(), S.end());
  }
  void valType(ValType T) { u8(static_cast<uint8_t>(T)); }

  /// Emits a section: id, size, payload.
  template <typename F> void section(uint8_t Id, F Payload) {
    std::vector<uint8_t> Saved = std::move(Out);
    Out.clear();
    Payload();
    std::vector<uint8_t> Body = std::move(Out);
    Out = std::move(Saved);
    if (Body.empty())
      return;
    u8(Id);
    u32(Body.size());
    Out.insert(Out.end(), Body.begin(), Body.end());
  }

  void emitTypeSection() {
    if (M.Types.empty())
      return;
    section(1, [&] {
      u32(M.Types.size());
      for (const FuncType &T : M.Types) {
        u8(0x60);
        u32(T.Params.size());
        for (ValType V : T.Params)
          valType(V);
        u32(T.Results.size());
        for (ValType V : T.Results)
          valType(V);
      }
    });
  }

  void emitImportSection() {
    if (M.ImportFuncs.empty())
      return;
    section(2, [&] {
      u32(M.ImportFuncs.size());
      for (const WImportFunc &I : M.ImportFuncs) {
        name(I.Mod);
        name(I.Name);
        u8(0x00);
        u32(I.TypeIdx);
      }
    });
  }

  void emitFunctionSection() {
    if (M.Funcs.empty())
      return;
    section(3, [&] {
      u32(M.Funcs.size());
      for (const WFunc &F : M.Funcs)
        u32(F.TypeIdx);
    });
  }

  void emitTableSection() {
    if (M.TableElems.empty())
      return;
    section(4, [&] {
      u32(1);
      u8(0x70); // funcref
      u8(0x00); // min only
      u32(M.TableElems.size());
    });
  }

  void emitMemorySection() {
    if (!M.Memory)
      return;
    section(5, [&] {
      u32(1);
      if (M.Memory->second) {
        u8(0x01);
        u32(M.Memory->first);
        u32(*M.Memory->second);
      } else {
        u8(0x00);
        u32(M.Memory->first);
      }
    });
  }

  void emitGlobalSection() {
    if (M.Globals.empty())
      return;
    section(6, [&] {
      u32(M.Globals.size());
      for (const WGlobal &G : M.Globals) {
        valType(G.T);
        u8(G.Mut ? 0x01 : 0x00);
        expr(G.Init);
      }
    });
  }

  void emitExportSection() {
    if (M.Exports.empty())
      return;
    section(7, [&] {
      u32(M.Exports.size());
      for (const WExport &E : M.Exports) {
        name(E.Name);
        u8(static_cast<uint8_t>(E.Kind));
        u32(E.Idx);
      }
    });
  }

  void emitStartSection() {
    if (!M.Start)
      return;
    section(8, [&] { u32(*M.Start); });
  }

  void emitElemSection() {
    if (M.TableElems.empty())
      return;
    section(9, [&] {
      u32(1);
      u8(0x00);
      // Offset expression: i32.const 0, end.
      u8(0x41);
      s64(0);
      u8(0x0b);
      u32(M.TableElems.size());
      for (uint32_t E : M.TableElems)
        u32(E);
    });
  }

  void emitCodeSection() {
    if (M.Funcs.empty())
      return;
    section(10, [&] {
      u32(M.Funcs.size());
      for (const WFunc &F : M.Funcs) {
        std::vector<uint8_t> Saved = std::move(Out);
        Out.clear();
        // Locals, run-length encoded by type.
        std::vector<std::pair<uint32_t, ValType>> Runs;
        for (ValType T : F.Locals) {
          if (!Runs.empty() && Runs.back().second == T)
            ++Runs.back().first;
          else
            Runs.push_back({1, T});
        }
        u32(Runs.size());
        for (auto &R : Runs) {
          u32(R.first);
          valType(R.second);
        }
        expr(F.Body);
        std::vector<uint8_t> Body = std::move(Out);
        Out = std::move(Saved);
        u32(Body.size());
        Out.insert(Out.end(), Body.begin(), Body.end());
      }
    });
  }

  void emitDataSection() {
    if (M.Data.empty())
      return;
    section(11, [&] {
      u32(M.Data.size());
      for (const WData &D : M.Data) {
        u8(0x00);
        u8(0x41);
        s64(static_cast<int32_t>(D.Offset));
        u8(0x0b);
        u32(D.Bytes.size());
        Out.insert(Out.end(), D.Bytes.begin(), D.Bytes.end());
      }
    });
  }

  void blockType(const FuncType &BT) {
    if (BT.Params.empty() && BT.Results.empty()) {
      u8(0x40);
      return;
    }
    if (BT.Params.empty() && BT.Results.size() == 1) {
      valType(BT.Results[0]);
      return;
    }
    // Multi-value: s33 type index (registered beforehand).
    int64_t Idx = -1;
    for (uint32_t I = 0; I < M.Types.size(); ++I)
      if (M.Types[I] == BT) {
        Idx = I;
        break;
      }
    assert(Idx >= 0 && "block type not registered");
    s64(Idx);
  }

  void expr(const std::vector<WInst> &Body) {
    insts(Body);
    u8(0x0b); // end
  }

  void insts(const std::vector<WInst> &Body) {
    for (const WInst &I : Body)
      inst(I);
  }

  void inst(const WInst &I) {
    u8(static_cast<uint8_t>(I.K));
    switch (opInfo(I.K).Imm) {
    case ImmKind::None:
      break;
    case ImmKind::Index:
      u32(I.U32);
      break;
    case ImmKind::Memarg:
      u32(I.align());
      u32(I.offset());
      break;
    case ImmKind::Const32:
      if (I.K == Op::I32Const)
        s64(static_cast<int32_t>(I.U64));
      else
        raw32(static_cast<uint32_t>(I.U64));
      break;
    case ImmKind::Const64:
      if (I.K == Op::I64Const)
        s64(static_cast<int64_t>(I.U64));
      else
        raw64(I.U64);
      break;
    case ImmKind::Structured:
      blockType(I.bt());
      insts(I.Body);
      if (I.K == Op::If && !I.Else.empty()) {
        u8(0x05); // else
        insts(I.Else);
      }
      u8(0x0b);
      break;
    case ImmKind::BrTable:
      u32(I.table().size());
      for (uint32_t T : I.table())
        u32(T);
      u32(I.U32);
      break;
    case ImmKind::CallIndirect:
      u32(I.U32);
      u8(0x00); // table index
      break;
    case ImmKind::MemIdx:
      u8(0x00);
      break;
    }
  }

  WModule M;
  std::vector<uint8_t> Out;
};

} // namespace

std::vector<uint8_t> rw::wasm::encode(WModule M) {
  Encoder E(std::move(M));
  return E.run();
}

//===----------------------------------------------------------------------===//
// Decoder
//===----------------------------------------------------------------------===//
//
// Hardened against untrusted bytes to the serial::read standard (DESIGN.md
// §12): every read is bounds-checked against the enclosing section fence,
// every wire count is checked against both its ingest::Limits cap and the
// bytes remaining (an N-element vector needs at least N wire bytes), every
// vector reservation is charged to a total allocation budget before it
// happens, structured-control recursion is depth-capped, and every
// rejection is reported as a structured ingest::IngestError carrying the
// exact byte offset.

namespace {

using ingest::Category;
using ingest::IngestError;
using ingest::Limits;
namespace fault = rw::support::fault;

class Decoder {
public:
  Decoder(const std::vector<uint8_t> &Bytes, const Limits &L,
          IngestError *ErrOut)
      : B(Bytes), L(L), ErrOut(ErrOut) {}

  Expected<WModule> run() {
    if (B.size() > L.MaxModuleBytes)
      return fail(Category::TooLarge, 0,
                  "module of " + std::to_string(B.size()) +
                      " bytes exceeds limit of " +
                      std::to_string(L.MaxModuleBytes));
    if (B.size() < 8 || B[0] != 0 || B[1] != 'a' || B[2] != 's' ||
        B[3] != 'm')
      return fail(Category::BadMagic, 0, "bad wasm magic");
    if (B[4] != 1 || B[5] != 0 || B[6] != 0 || B[7] != 0)
      return fail(Category::Unsupported, 4, "unsupported wasm version");
    Pos = 8;
    uint32_t NSections = 0;
    unsigned LastId = 0;
    while (Pos < B.size()) {
      size_t SecOff = Pos;
      uint8_t Id = B[Pos++];
      if (Id > 11)
        return fail(Category::Malformed, SecOff,
                    "unknown section id " + std::to_string(Id));
      if (++NSections > L.MaxSections)
        return fail(Category::LimitExceeded, SecOff,
                    "section count exceeds limit of " +
                        std::to_string(L.MaxSections));
      // Non-custom sections must appear at most once, in id order.
      if (Id != 0) {
        if (Id <= LastId)
          return fail(Category::Malformed, SecOff,
                      "section id " + std::to_string(Id) +
                          " out of order");
        LastId = Id;
      }
      Fence = B.size();
      Expected<uint32_t> Size = u32("section size");
      if (!Size)
        return Size.error();
      size_t End = Pos + *Size;
      if (End > B.size())
        return fail(Category::Truncated, SecOff,
                    "section extends past end of module");
      Fence = End;
      Status S = Status::success();
      switch (Id) {
      case 0:
        Pos = End; // Custom sections are opaque; skip their payload.
        break;
      case 1:
        S = typeSection();
        break;
      case 2:
        S = importSection();
        break;
      case 3:
        S = functionSection();
        break;
      case 4:
        S = tableSection();
        break;
      case 5:
        S = memorySection();
        break;
      case 6:
        S = globalSection();
        break;
      case 7:
        S = exportSection();
        break;
      case 8: {
        Expected<uint32_t> V = u32("start function index");
        if (!V)
          return V.error();
        M.Start = *V;
        break;
      }
      case 9:
        S = elemSection();
        break;
      case 10:
        S = codeSection();
        break;
      case 11:
        S = dataSection();
        break;
      }
      if (!S)
        return S.error();
      if (Pos != End)
        return fail(Category::Malformed, Pos,
                    "section size mismatch (id " + std::to_string(Id) + ")");
    }
    Fence = B.size();
    if (M.Funcs.size() != TypeIdxs.size())
      return fail(Category::Malformed, Pos,
                  "function and code section counts disagree");
    for (size_t I = 0; I < M.Funcs.size(); ++I)
      M.Funcs[I].TypeIdx = TypeIdxs[I];
    M.TableElems = std::move(Elems);
    return std::move(M);
  }

private:
  /// Records the structured error (for the ingest front door) and renders
  /// the string Error the Expected plumbing carries.
  Error fail(Category C, size_t Off, std::string Ctx) {
    IngestError E;
    E.Cat = C;
    E.Offset = Off;
    E.Context = std::move(Ctx);
    if (ErrOut)
      *ErrOut = E;
    return Error("wasm decode: " + E.render());
  }

  /// Charges \p Bytes against the total allocation budget. Call before the
  /// corresponding reservation so a hostile count is rejected, not served.
  Status charge(uint64_t Bytes, const char *What) {
    if (RW_FAULT_POINT(fault::Seam::DecodeAlloc))
      return fail(Category::Resource, Pos,
                  std::string("injected allocation failure (") + What + ")");
    Charged += Bytes;
    if (Charged > L.MaxTotalAlloc)
      return fail(Category::LimitExceeded, Pos,
                  std::string(What) + ": allocation budget of " +
                      std::to_string(L.MaxTotalAlloc) + " bytes exceeded");
    return Status::success();
  }

  Expected<uint64_t> uleb(unsigned Bits, const char *What) {
    uint64_t V;
    LEBError E = decodeULEB128Strict(B.data(), Fence, Pos, V, Bits);
    if (E == LEBError::Ok)
      return V;
    return fail(E == LEBError::Truncated ? Category::Truncated
                                         : Category::Malformed,
                Pos, std::string(What) + ": " + lebErrorName(E) + " varint");
  }

  Expected<uint32_t> u32(const char *What) {
    Expected<uint64_t> V = uleb(32, What);
    if (!V)
      return V.error();
    return static_cast<uint32_t>(*V);
  }

  Expected<int64_t> sleb(unsigned Bits, const char *What) {
    int64_t V;
    LEBError E = decodeSLEB128Strict(B.data(), Fence, Pos, V, Bits);
    if (E == LEBError::Ok)
      return V;
    return fail(E == LEBError::Truncated ? Category::Truncated
                                         : Category::Malformed,
                Pos, std::string(What) + ": " + lebErrorName(E) + " varint");
  }

  Expected<uint8_t> u8(const char *What) {
    if (Pos >= Fence)
      return fail(Category::Truncated, Pos,
                  std::string(What) + ": unexpected end of input");
    return B[Pos++];
  }

  /// Reads an element count: capped by policy at \p Cap and by the bytes
  /// remaining in the section (each element occupies at least \p MinBytes
  /// wire bytes), so counts are honest before anything is allocated.
  Expected<uint32_t> count(uint64_t Cap, uint64_t MinBytes, const char *What) {
    size_t Off = Pos;
    Expected<uint32_t> N = u32(What);
    if (!N)
      return N;
    if (*N > Cap)
      return fail(Category::LimitExceeded, Off,
                  std::string(What) + " count " + std::to_string(*N) +
                      " exceeds limit of " + std::to_string(Cap));
    if (uint64_t(*N) * MinBytes > Fence - Pos)
      return fail(Category::Malformed, Off,
                  std::string(What) + " count " + std::to_string(*N) +
                      " exceeds remaining section bytes");
    return N;
  }

  Expected<ValType> valType() {
    size_t Off = Pos;
    Expected<uint8_t> V = u8("value type");
    if (!V)
      return V.error();
    switch (*V) {
    case 0x7f:
      return ValType::I32;
    case 0x7e:
      return ValType::I64;
    case 0x7d:
      return ValType::F32;
    case 0x7c:
      return ValType::F64;
    default:
      return fail(Category::Malformed, Off,
                  "unknown value type " + std::to_string(*V));
    }
  }

  Expected<std::string> name(const char *What) {
    size_t Off = Pos;
    Expected<uint32_t> N = u32(What);
    if (!N)
      return N.error();
    if (*N > Fence - Pos)
      return fail(Category::Truncated, Off,
                  std::string(What) + " of " + std::to_string(*N) +
                      " bytes overruns section");
    if (Status S = charge(*N, What); !S)
      return S.error();
    std::string S(B.begin() + Pos, B.begin() + Pos + *N);
    Pos += *N;
    return S;
  }

  Status typeSection() {
    Expected<uint32_t> N = count(L.MaxTypes, 3, "type");
    if (!N)
      return N.error();
    if (Status S = charge(uint64_t(*N) * sizeof(FuncType), "type section");
        !S)
      return S;
    M.Types.reserve(*N);
    for (uint32_t I = 0; I < *N; ++I) {
      size_t Off = Pos;
      Expected<uint8_t> Tag = u8("functype tag");
      if (!Tag)
        return Tag.error();
      if (*Tag != 0x60)
        return fail(Category::Malformed, Off, "expected functype tag 0x60");
      FuncType FT;
      Expected<uint32_t> NP = count(L.MaxOperandDepth, 1, "param");
      if (!NP)
        return NP.error();
      if (Status S = charge(*NP, "param types"); !S)
        return S;
      FT.Params.reserve(*NP);
      for (uint32_t J = 0; J < *NP; ++J) {
        Expected<ValType> V = valType();
        if (!V)
          return V.error();
        FT.Params.push_back(*V);
      }
      Expected<uint32_t> NR = count(L.MaxOperandDepth, 1, "result");
      if (!NR)
        return NR.error();
      if (Status S = charge(*NR, "result types"); !S)
        return S;
      FT.Results.reserve(*NR);
      for (uint32_t J = 0; J < *NR; ++J) {
        Expected<ValType> V = valType();
        if (!V)
          return V.error();
        FT.Results.push_back(*V);
      }
      M.Types.push_back(std::move(FT));
    }
    return Status::success();
  }

  Status importSection() {
    Expected<uint32_t> N = count(L.MaxImports, 4, "import");
    if (!N)
      return N.error();
    if (Status S = charge(uint64_t(*N) * sizeof(WImportFunc), "import section");
        !S)
      return S;
    M.ImportFuncs.reserve(*N);
    for (uint32_t I = 0; I < *N; ++I) {
      Expected<std::string> Mod = name("import module name");
      if (!Mod)
        return Mod.error();
      Expected<std::string> Nm = name("import name");
      if (!Nm)
        return Nm.error();
      size_t Off = Pos;
      Expected<uint8_t> Kind = u8("import kind");
      if (!Kind)
        return Kind.error();
      if (*Kind > 0x03)
        return fail(Category::Malformed, Off,
                    "bad import kind " + std::to_string(*Kind));
      if (*Kind != 0x00)
        return fail(Category::Unsupported, Off,
                    "only function imports are supported");
      Expected<uint32_t> TI = u32("import type index");
      if (!TI)
        return TI.error();
      M.ImportFuncs.push_back({std::move(*Mod), std::move(*Nm), *TI});
    }
    return Status::success();
  }

  Status functionSection() {
    Expected<uint32_t> N = count(L.MaxFuncs, 1, "function");
    if (!N)
      return N.error();
    if (Status S = charge(uint64_t(*N) * sizeof(uint32_t), "function section");
        !S)
      return S;
    TypeIdxs.reserve(*N);
    for (uint32_t I = 0; I < *N; ++I) {
      Expected<uint32_t> TI = u32("function type index");
      if (!TI)
        return TI.error();
      TypeIdxs.push_back(*TI);
    }
    return Status::success();
  }

  Status tableSection() {
    size_t Off = Pos;
    Expected<uint32_t> N = u32("table count");
    if (!N)
      return N.error();
    if (*N != 1)
      return fail(Category::Unsupported, Off, "expected exactly one table");
    Off = Pos;
    Expected<uint8_t> ET = u8("table element type");
    if (!ET)
      return ET.error();
    if (*ET != 0x70)
      return fail(Category::Unsupported, Off, "expected funcref table");
    Off = Pos;
    Expected<uint8_t> HasMax = u8("table limits flag");
    if (!HasMax)
      return HasMax.error();
    if (*HasMax > 1)
      return fail(Category::Malformed, Off,
                  "bad table limits flag " + std::to_string(*HasMax));
    Expected<uint32_t> Min = u32("table min");
    if (!Min)
      return Min.error();
    if (*HasMax == 1) {
      Expected<uint32_t> Max = u32("table max");
      if (!Max)
        return Max.error();
      if (*Max < *Min)
        return fail(Category::Malformed, Off, "table min exceeds max");
    }
    return Status::success();
  }

  Status memorySection() {
    size_t Off = Pos;
    Expected<uint32_t> N = u32("memory count");
    if (!N)
      return N.error();
    if (*N != 1)
      return fail(Category::Unsupported, Off, "expected exactly one memory");
    Off = Pos;
    Expected<uint8_t> HasMax = u8("memory limits flag");
    if (!HasMax)
      return HasMax.error();
    if (*HasMax > 1)
      return fail(Category::Malformed, Off,
                  "bad memory limits flag " + std::to_string(*HasMax));
    Off = Pos;
    Expected<uint32_t> Min = u32("memory min pages");
    if (!Min)
      return Min.error();
    if (*Min > L.MaxMemoryPages)
      return fail(Category::LimitExceeded, Off,
                  "memory of " + std::to_string(*Min) +
                      " pages exceeds limit of " +
                      std::to_string(L.MaxMemoryPages));
    std::optional<uint32_t> Max;
    if (*HasMax == 1) {
      Off = Pos;
      Expected<uint32_t> Mx = u32("memory max pages");
      if (!Mx)
        return Mx.error();
      if (*Mx > L.MaxMemoryPages)
        return fail(Category::LimitExceeded, Off,
                    "memory max of " + std::to_string(*Mx) +
                        " pages exceeds limit of " +
                        std::to_string(L.MaxMemoryPages));
      if (*Mx < *Min)
        return fail(Category::Malformed, Off, "memory min exceeds max");
      Max = *Mx;
    }
    M.Memory = {*Min, Max};
    return Status::success();
  }

  Status globalSection() {
    Expected<uint32_t> N = count(L.MaxGlobals, 4, "global");
    if (!N)
      return N.error();
    if (Status S = charge(uint64_t(*N) * sizeof(WGlobal), "global section");
        !S)
      return S;
    M.Globals.reserve(*N);
    for (uint32_t I = 0; I < *N; ++I) {
      Expected<ValType> T = valType();
      if (!T)
        return T.error();
      size_t Off = Pos;
      Expected<uint8_t> Mut = u8("global mutability");
      if (!Mut)
        return Mut.error();
      if (*Mut > 1)
        return fail(Category::Malformed, Off,
                    "bad global mutability " + std::to_string(*Mut));
      WGlobal G;
      G.T = *T;
      G.Mut = *Mut == 1;
      Expected<std::vector<WInst>> Init = expr();
      if (!Init)
        return Init.error();
      G.Init = std::move(*Init);
      M.Globals.push_back(std::move(G));
    }
    return Status::success();
  }

  Status exportSection() {
    Expected<uint32_t> N = count(L.MaxExports, 4, "export");
    if (!N)
      return N.error();
    if (Status S = charge(uint64_t(*N) * sizeof(WExport), "export section");
        !S)
      return S;
    M.Exports.reserve(*N);
    for (uint32_t I = 0; I < *N; ++I) {
      Expected<std::string> Nm = name("export name");
      if (!Nm)
        return Nm.error();
      size_t Off = Pos;
      Expected<uint8_t> Kind = u8("export kind");
      if (!Kind)
        return Kind.error();
      if (*Kind > 0x03)
        return fail(Category::Malformed, Off,
                    "bad export kind " + std::to_string(*Kind));
      Expected<uint32_t> Idx = u32("export index");
      if (!Idx)
        return Idx.error();
      M.Exports.push_back(
          {std::move(*Nm), static_cast<ExportKind>(*Kind), *Idx});
    }
    return Status::success();
  }

  Status elemSection() {
    Expected<uint32_t> N = count(L.MaxElems, 5, "elem segment");
    if (!N)
      return N.error();
    for (uint32_t I = 0; I < *N; ++I) {
      size_t Off = Pos;
      Expected<uint8_t> Flag = u8("elem segment flag");
      if (!Flag)
        return Flag.error();
      if (*Flag != 0x00)
        return fail(Category::Unsupported, Off,
                    "unsupported elem segment flag " + std::to_string(*Flag));
      Off = Pos;
      Expected<std::vector<WInst>> OffExpr = expr();
      if (!OffExpr)
        return OffExpr.error();
      if (OffExpr->size() != 1 || (*OffExpr)[0].K != Op::I32Const)
        return fail(Category::Unsupported, Off,
                    "elem offset must be a single i32.const");
      // The module model keeps one flat function table, so segments must
      // tile it contiguously from zero (our encoder's shape).
      if ((*OffExpr)[0].U64 != Elems.size())
        return fail(Category::Unsupported, Off,
                    "non-contiguous elem segment offset");
      Expected<uint32_t> Cnt = count(L.MaxElems, 1, "elem entry");
      if (!Cnt)
        return Cnt.error();
      if (Elems.size() + *Cnt > L.MaxElems)
        return fail(Category::LimitExceeded, Pos,
                    "total elem entries exceed limit of " +
                        std::to_string(L.MaxElems));
      if (Status S = charge(uint64_t(*Cnt) * sizeof(uint32_t), "elem entries");
          !S)
        return S;
      Elems.reserve(Elems.size() + *Cnt);
      for (uint32_t J = 0; J < *Cnt; ++J) {
        Expected<uint32_t> FI = u32("elem function index");
        if (!FI)
          return FI.error();
        Elems.push_back(*FI);
      }
    }
    return Status::success();
  }

  Status codeSection() {
    Expected<uint32_t> N = count(L.MaxFuncs, 2, "code body");
    if (!N)
      return N.error();
    if (*N != TypeIdxs.size())
      return fail(Category::Malformed, Pos,
                  "function and code section counts disagree");
    M.Funcs.reserve(*N);
    for (uint32_t I = 0; I < *N; ++I) {
      size_t Off = Pos;
      Expected<uint32_t> Size = u32("code body size");
      if (!Size)
        return Size.error();
      if (*Size > L.MaxBodyBytes)
        return fail(Category::LimitExceeded, Off,
                    "code body of " + std::to_string(*Size) +
                        " bytes exceeds limit of " +
                        std::to_string(L.MaxBodyBytes));
      size_t End = Pos + *Size;
      if (End > Fence)
        return fail(Category::Truncated, Off, "code body overruns section");
      // Sub-fence: the body may not read past its declared size.
      size_t SectionFence = Fence;
      Fence = End;
      WFunc F;
      Expected<uint32_t> NRuns = count(L.MaxLocals, 2, "local run");
      if (!NRuns)
        return NRuns.error();
      uint64_t TotalLocals = 0;
      for (uint32_t J = 0; J < *NRuns; ++J) {
        size_t RunOff = Pos;
        Expected<uint32_t> Cnt = u32("local run count");
        if (!Cnt)
          return Cnt.error();
        Expected<ValType> T = valType();
        if (!T)
          return T.error();
        TotalLocals += *Cnt;
        if (TotalLocals > L.MaxLocals)
          return fail(Category::LimitExceeded, RunOff,
                      "local count exceeds limit of " +
                          std::to_string(L.MaxLocals));
        if (Status S = charge(*Cnt, "locals"); !S)
          return S;
        F.Locals.insert(F.Locals.end(), *Cnt, *T);
      }
      Expected<std::vector<WInst>> Body = expr();
      if (!Body)
        return Body.error();
      F.Body = std::move(*Body);
      if (Pos != End)
        return fail(Category::Malformed, Pos, "code body size mismatch");
      Fence = SectionFence;
      M.Funcs.push_back(std::move(F));
    }
    return Status::success();
  }

  Status dataSection() {
    Expected<uint32_t> N = count(L.MaxElems, 5, "data segment");
    if (!N)
      return N.error();
    for (uint32_t I = 0; I < *N; ++I) {
      size_t Off = Pos;
      Expected<uint8_t> Flag = u8("data segment flag");
      if (!Flag)
        return Flag.error();
      if (*Flag != 0x00)
        return fail(Category::Unsupported, Off,
                    "unsupported data segment flag " + std::to_string(*Flag));
      Off = Pos;
      Expected<std::vector<WInst>> OffExpr = expr();
      if (!OffExpr)
        return OffExpr.error();
      if (OffExpr->size() != 1 || (*OffExpr)[0].K != Op::I32Const)
        return fail(Category::Unsupported, Off,
                    "data offset must be a single i32.const");
      Off = Pos;
      Expected<uint32_t> Len = u32("data length");
      if (!Len)
        return Len.error();
      if (*Len > Fence - Pos)
        return fail(Category::Truncated, Off,
                    "data segment of " + std::to_string(*Len) +
                        " bytes overruns section");
      if (Status S = charge(*Len, "data bytes"); !S)
        return S;
      WData D;
      D.Offset = static_cast<uint32_t>((*OffExpr)[0].U64);
      D.Bytes.assign(B.begin() + Pos, B.begin() + Pos + *Len);
      Pos += *Len;
      M.Data.push_back(std::move(D));
    }
    return Status::success();
  }

  Expected<FuncType> blockType() {
    size_t Off = Pos;
    if (Pos >= Fence)
      return fail(Category::Truncated, Pos, "truncated block type");
    uint8_t Peek = B[Pos];
    if (Peek == 0x40) {
      ++Pos;
      return FuncType{};
    }
    if (Peek == 0x7f || Peek == 0x7e || Peek == 0x7d || Peek == 0x7c) {
      ++Pos;
      FuncType FT;
      FT.Results.push_back(static_cast<ValType>(Peek));
      return FT;
    }
    Expected<int64_t> Idx = sleb(33, "block type index");
    if (!Idx)
      return Idx.error();
    if (*Idx < 0 || static_cast<uint64_t>(*Idx) >= M.Types.size())
      return fail(Category::Malformed, Off,
                  "bad block type index " + std::to_string(*Idx));
    return M.Types[static_cast<size_t>(*Idx)];
  }

  /// Parses instructions into \p Out until the matching `end` (consumed).
  /// The `else` marker terminates a then-branch without being consumed by
  /// it. \p Depth counts enclosing structured instructions; it bounds both
  /// this recursion and the validator's. Each allocation is charged before
  /// it happens: \p Out grows in doubling steps reserved here, each charged
  /// its added capacity in nodes, so the budget bounds the bytes the
  /// vectors hold, not just the nodes in use; a structured or br_table
  /// instruction adds its WNest and block type or targets, an else arm its
  /// vector.
  Status parseUntil(std::vector<WInst> &Out, uint8_t &Terminator,
                    uint32_t Depth) {
    if (Depth > L.MaxNestingDepth)
      return fail(Category::LimitExceeded, Pos,
                  "block nesting exceeds depth limit of " +
                      std::to_string(L.MaxNestingDepth));
    for (;;) {
      size_t Off = Pos;
      Expected<uint8_t> Bc = u8("opcode");
      if (!Bc)
        return Bc.error();
      if (*Bc == 0x0b || *Bc == 0x05) {
        Terminator = *Bc;
        return Status::success();
      }
      const OpInfo &Row = OpTable[*Bc];
      if (!Row.Valid)
        return fail(Category::Malformed, Off,
                    "invalid opcode " + std::to_string(*Bc));
      if (Out.size() == Out.capacity()) {
        size_t Cap = Out.capacity() ? 2 * Out.capacity() : 1;
        if (Status S = charge((Cap - Out.capacity()) * sizeof(WInst),
                              "instruction");
            !S)
          return S.error();
        Out.reserve(Cap);
      }
      Op K = static_cast<Op>(*Bc);
      WInst I(K);
      switch (Row.Imm) {
      case ImmKind::None:
        break;
      case ImmKind::Structured: {
        Expected<FuncType> BT = blockType();
        if (!BT)
          return BT.error();
        if (Status S = charge(sizeof(WNest) + BT->Params.size() +
                                  BT->Results.size(),
                              "block");
            !S)
          return S.error();
        WNest &N = I.Body.rec();
        N.BT = std::move(*BT);
        uint8_t T = 0;
        if (Status S = parseUntil(N.Insts, T, Depth + 1); !S)
          return S.error();
        if (K != Op::If) {
          if (T != 0x0b)
            return fail(Category::Malformed, Pos, "unexpected else in block");
        } else if (T == 0x05) {
          if (Status S = charge(sizeof(std::vector<WInst>), "else arm"); !S)
            return S.error();
          if (Status S = parseUntil(I.Else.mut(), T, Depth + 1); !S)
            return S.error();
          if (T != 0x0b)
            return fail(Category::Malformed, Pos, "unterminated else");
        }
        break;
      }
      case ImmKind::Index: {
        Expected<uint32_t> V = u32("index immediate");
        if (!V)
          return V.error();
        I.U32 = *V;
        break;
      }
      case ImmKind::CallIndirect: {
        Expected<uint32_t> V = u32("call_indirect type index");
        if (!V)
          return V.error();
        size_t TblOff = Pos;
        Expected<uint8_t> Tbl = u8("call_indirect table index");
        if (!Tbl)
          return Tbl.error();
        if (*Tbl != 0x00)
          return fail(Category::Malformed, TblOff,
                      "nonzero call_indirect table index");
        I.U32 = *V;
        break;
      }
      case ImmKind::BrTable: {
        Expected<uint32_t> N = count(L.MaxOperandDepth, 1, "br_table target");
        if (!N)
          return N.error();
        if (Status S = charge(sizeof(WNest) + uint64_t(*N) * sizeof(uint32_t),
                              "br_table");
            !S)
          return S.error();
        std::vector<uint32_t> &Table = I.Body.rec().Table;
        Table.reserve(*N);
        for (uint32_t J = 0; J < *N; ++J) {
          Expected<uint32_t> T = u32("br_table target");
          if (!T)
            return T.error();
          Table.push_back(*T);
        }
        Expected<uint32_t> D = u32("br_table default");
        if (!D)
          return D.error();
        I.U32 = *D;
        break;
      }
      case ImmKind::Const32:
        if (K == Op::I32Const) {
          Expected<int64_t> V = sleb(32, "i32.const");
          if (!V)
            return V.error();
          I.U64 = static_cast<uint32_t>(static_cast<int32_t>(*V));
        } else {
          if (Pos + 4 > Fence)
            return fail(Category::Truncated, Pos, "truncated f32.const");
          uint32_t V;
          std::memcpy(&V, B.data() + Pos, 4);
          Pos += 4;
          I.U64 = V;
        }
        break;
      case ImmKind::Const64:
        if (K == Op::I64Const) {
          Expected<int64_t> V = sleb(64, "i64.const");
          if (!V)
            return V.error();
          I.U64 = static_cast<uint64_t>(*V);
        } else {
          if (Pos + 8 > Fence)
            return fail(Category::Truncated, Pos, "truncated f64.const");
          uint64_t V;
          std::memcpy(&V, B.data() + Pos, 8);
          Pos += 8;
          I.U64 = V;
        }
        break;
      case ImmKind::MemIdx: {
        size_t ROff = Pos;
        Expected<uint8_t> R = u8("memory reserved byte");
        if (!R)
          return R.error();
        if (*R != 0x00)
          return fail(Category::Malformed, ROff,
                      "nonzero memory instruction reserved byte");
        break;
      }
      case ImmKind::Memarg: {
        size_t AOff = Pos;
        Expected<uint32_t> A = u32("memarg alignment");
        if (!A)
          return A.error();
        if (*A > 31)
          return fail(Category::Malformed, AOff,
                      "memarg alignment exponent " + std::to_string(*A) +
                          " out of range");
        Expected<uint32_t> O = u32("memarg offset");
        if (!O)
          return O.error();
        I.U32 = *A;
        I.U64 = *O;
        break;
      }
      }
      Out.push_back(std::move(I));
    }
  }

  Expected<std::vector<WInst>> expr() {
    uint8_t T = 0;
    std::vector<WInst> Body;
    if (Status S = parseUntil(Body, T, 0); !S)
      return S.error();
    if (T != 0x0b)
      return fail(Category::Malformed, Pos,
                  "expression not terminated by end");
    return Body;
  }

  const std::vector<uint8_t> &B;
  const Limits &L;
  IngestError *ErrOut;
  size_t Pos = 0;
  /// Upper bound for every read: the end of the current section (or code
  /// body), so no structure can consume its neighbor's bytes.
  size_t Fence = 0;
  /// Bytes charged against Limits::MaxTotalAlloc so far.
  uint64_t Charged = 0;
  WModule M;
  std::vector<uint32_t> TypeIdxs;
  std::vector<uint32_t> Elems;
};

} // namespace

Expected<WModule> rw::wasm::decode(const std::vector<uint8_t> &Bytes) {
  return decode(Bytes, ingest::Limits(), nullptr);
}

Expected<WModule> rw::wasm::decode(const std::vector<uint8_t> &Bytes,
                                   const ingest::Limits &L,
                                   ingest::IngestError *ErrOut) {
  OBS_SPAN("decode", Bytes.size());
  if (ErrOut)
    *ErrOut = ingest::IngestError();
  Decoder D(Bytes, L, ErrOut);
  return D.run();
}
