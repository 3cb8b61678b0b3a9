//===- serial/Serial.cpp - RichWasm binary module format ------------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// One structural walk (walkModule below) drives both serialization and
// content hashing through an emitter interface: the write emitter assigns
// type-table indices on first encounter (registering children before
// parents, so the table is topologically ordered) and streams varints; the
// hash emitter folds each type reference's precomputed Merkle hash in O(1)
// without descending. Keeping a single walk is what guarantees the
// cache-key invariant: moduleHash(A) == moduleHash(B) exactly when
// write(A) == write(B) (modulo 128-bit collisions).
//
//===----------------------------------------------------------------------===//

#include "serial/Serial.h"

#include "ir/TypeArena.h"
#include "obs/Obs.h"
#include "support/Casting.h"
#include "support/Hashing.h"
#include "support/LEB128.h"

#include <cassert>
#include <cstring>
#include <functional>
#include <unordered_map>
#include <unordered_set>

using namespace rw;
using namespace rw::serial;
using namespace rw::ir;

namespace {

//===----------------------------------------------------------------------===//
// Wire constants
//===----------------------------------------------------------------------===//

constexpr uint8_t Magic[4] = {'R', 'W', 'B', 'M'};

/// Node record tags. Pretype/heap-type tags embed the kind so the reader
/// dispatches on one byte.
constexpr uint8_t TagSize = 0x01;
constexpr uint8_t TagPre = 0x10;  ///< 0x10 + PretypeKind.
constexpr uint8_t TagHeap = 0x30; ///< 0x30 + HeapTypeKind.
constexpr uint8_t TagFun = 0x40;

/// Node categories, for reference validation.
enum class Cat : uint8_t { Size, Pre, Heap, Fun };

/// Nesting bound for instruction decoding: IR from the frontends nests per
/// syntactic block depth (tens), so this only guards against maliciously
/// deep input overflowing the reader's C++ stack.
constexpr unsigned MaxInstDepth = 2048;

using support::fnv1a;
using support::mix64;

//===----------------------------------------------------------------------===//
// Low-level buffer writers (used for both node records and the body)
//===----------------------------------------------------------------------===//

void wU(std::vector<uint8_t> &B, uint64_t V) { encodeULEB128(V, B); }

void wStr(std::vector<uint8_t> &B, const std::string &S) {
  wU(B, S.size());
  B.insert(B.end(), S.begin(), S.end());
}

/// Qualifier: 0 = unr, 1 = lin, 2+i = variable i.
void wQual(std::vector<uint8_t> &B, const Qual &Q) {
  wU(B, Q.isVar() ? 2 + uint64_t(Q.varIndex()) : (Q.isLinConst() ? 1 : 0));
}

void wLoc(std::vector<uint8_t> &B, const Loc &L) {
  switch (L.kind()) {
  case Loc::Kind::Var:
    wU(B, 0);
    wU(B, L.varIndex());
    break;
  case Loc::Kind::Concrete:
    wU(B, 1);
    wU(B, L.mem() == MemKind::Lin ? 0 : 1);
    wU(B, L.addr());
    break;
  case Loc::Kind::Skolem:
    wU(B, 2);
    wU(B, L.skolemId());
    break;
  }
}

//===----------------------------------------------------------------------===//
// Write emitter: type-table registration + body stream
//===----------------------------------------------------------------------===//

class WriteEmitter {
public:
  std::vector<uint8_t> Nodes; ///< Node records, in index order.
  std::vector<uint8_t> Body;  ///< Module record.
  uint32_t NodeCount = 0;

  void u(uint64_t V) { wU(Body, V); }
  void str(const std::string &S) { wStr(Body, S); }
  void qual(const Qual &Q) { wQual(Body, Q); }
  void loc(const Loc &L) { wLoc(Body, L); }
  void pre(const PretypeRef &P) { wU(Body, addPre(P)); }
  void heap(const HeapTypeRef &H) { wU(Body, addHeap(H)); }
  void fun(const FunTypeRef &F) { wU(Body, addFun(F)); }
  /// Optional size: 0 = null, else table index + 1.
  void size(const SizeRef &S) { wU(Body, S ? addSize(S) + 1 : 0); }
  void type(const Type &T) {
    pre(T.P);
    qual(T.Q);
  }

private:
  /// Pointer-keyed memo: every canonical node is registered once. (A
  /// module mixing arenas would emit structurally equal nodes twice and
  /// be rejected as a duplicate at read — but mixed-arena modules are
  /// already rejected by the checker, linker, and lowering.)
  std::unordered_map<const void *, uint32_t> Idx;

  uint32_t emit(const void *Key, uint8_t Tag,
                const std::function<void(std::vector<uint8_t> &)> &Fields);

  uint32_t addSize(const SizeRef &S);
  uint32_t addPre(const PretypeRef &P);
  uint32_t addHeap(const HeapTypeRef &H);
  uint32_t addFun(const FunTypeRef &F);

  void fType(std::vector<uint8_t> &B, const Type &T) {
    wU(B, addPre(T.P));
    wQual(B, T.Q);
  }
  void fOptSize(std::vector<uint8_t> &B, const SizeRef &S) {
    wU(B, S ? addSize(S) + 1 : 0);
  }
};

uint32_t
WriteEmitter::emit(const void *Key, uint8_t Tag,
                   const std::function<void(std::vector<uint8_t> &)> &Fields) {
  // Children are registered inside Fields, which runs into a scratch
  // buffer *before* this record is assigned its index — preserving
  // child-before-parent order in Nodes even though recursion happens
  // mid-record.
  std::vector<uint8_t> Rec;
  Rec.push_back(Tag);
  Fields(Rec);
  auto [It, New] = Idx.emplace(Key, 0);
  if (!New)
    return It->second; // A child walk registered it meanwhile.
  It->second = NodeCount++;
  Nodes.insert(Nodes.end(), Rec.begin(), Rec.end());
  return It->second;
}

uint32_t WriteEmitter::addSize(const SizeRef &S) {
  assert(S && "serializing a null size");
  auto It = Idx.find(S.get());
  if (It != Idx.end())
    return It->second;
  const NormalSize &N = S->norm();
  return emit(S.get(), TagSize, [&](std::vector<uint8_t> &B) {
    wU(B, N.Const);
    wU(B, N.Vars.size());
    for (uint32_t V : N.Vars)
      wU(B, V);
  });
}

uint32_t WriteEmitter::addPre(const PretypeRef &P) {
  assert(P && "serializing a null pretype");
  auto It = Idx.find(P.get());
  if (It != Idx.end())
    return It->second;
  uint8_t Tag = TagPre + static_cast<uint8_t>(P->kind());
  return emit(P.get(), Tag, [&](std::vector<uint8_t> &B) {
    switch (P->kind()) {
    case PretypeKind::Unit:
      break;
    case PretypeKind::Num:
      wU(B, static_cast<uint64_t>(cast<NumPT>(P.get())->numType()));
      break;
    case PretypeKind::Var:
      wU(B, cast<VarPT>(P.get())->index());
      break;
    case PretypeKind::Skolem: {
      const auto *S = cast<SkolemPT>(P.get());
      wU(B, S->id());
      wQual(B, S->qualLower());
      fOptSize(B, S->sizeUpper());
      wU(B, S->noCaps() ? 1 : 0);
      break;
    }
    case PretypeKind::Prod: {
      const auto &Es = cast<ProdPT>(P.get())->elems();
      wU(B, Es.size());
      for (const Type &T : Es)
        fType(B, T);
      break;
    }
    case PretypeKind::Ref:
    case PretypeKind::Cap: {
      Privilege Priv;
      const Loc *L;
      const HeapTypeRef *HT;
      if (const auto *R = dyn_cast<RefPT>(P.get())) {
        Priv = R->privilege();
        L = &R->loc();
        HT = &R->heapType();
      } else {
        const auto *C = cast<CapPT>(P.get());
        Priv = C->privilege();
        L = &C->loc();
        HT = &C->heapType();
      }
      wU(B, Priv == Privilege::RW ? 1 : 0);
      wLoc(B, *L);
      wU(B, addHeap(*HT));
      break;
    }
    case PretypeKind::Ptr:
      wLoc(B, cast<PtrPT>(P.get())->loc());
      break;
    case PretypeKind::Own:
      wLoc(B, cast<OwnPT>(P.get())->loc());
      break;
    case PretypeKind::Rec: {
      const auto *R = cast<RecPT>(P.get());
      wQual(B, R->bound());
      fType(B, R->body());
      break;
    }
    case PretypeKind::ExLoc:
      fType(B, cast<ExLocPT>(P.get())->body());
      break;
    case PretypeKind::Coderef:
      wU(B, addFun(cast<CoderefPT>(P.get())->funType()));
      break;
    }
  });
}

uint32_t WriteEmitter::addHeap(const HeapTypeRef &H) {
  assert(H && "serializing a null heap type");
  auto It = Idx.find(H.get());
  if (It != Idx.end())
    return It->second;
  uint8_t Tag = TagHeap + static_cast<uint8_t>(H->kind());
  return emit(H.get(), Tag, [&](std::vector<uint8_t> &B) {
    switch (H->kind()) {
    case HeapTypeKind::Variant: {
      const auto &Cs = cast<VariantHT>(H.get())->cases();
      wU(B, Cs.size());
      for (const Type &T : Cs)
        fType(B, T);
      break;
    }
    case HeapTypeKind::Struct: {
      const auto &Fs = cast<StructHT>(H.get())->fields();
      wU(B, Fs.size());
      for (const StructField &F : Fs) {
        fType(B, F.T);
        fOptSize(B, F.Slot);
      }
      break;
    }
    case HeapTypeKind::Array:
      fType(B, cast<ArrayHT>(H.get())->elem());
      break;
    case HeapTypeKind::Ex: {
      const auto *E = cast<ExHT>(H.get());
      wQual(B, E->qualLower());
      fOptSize(B, E->sizeUpper());
      fType(B, E->body());
      break;
    }
    }
  });
}

uint32_t WriteEmitter::addFun(const FunTypeRef &F) {
  assert(F && "serializing a null function type");
  auto It = Idx.find(F.get());
  if (It != Idx.end())
    return It->second;
  return emit(F.get(), TagFun, [&](std::vector<uint8_t> &B) {
    wU(B, F->quants().size());
    for (const Quant &Q : F->quants()) {
      wU(B, static_cast<uint64_t>(Q.K));
      switch (Q.K) {
      case QuantKind::Loc:
        break;
      case QuantKind::Size:
        wU(B, Q.SizeLower.size());
        for (const SizeRef &S : Q.SizeLower)
          fOptSize(B, S);
        wU(B, Q.SizeUpper.size());
        for (const SizeRef &S : Q.SizeUpper)
          fOptSize(B, S);
        break;
      case QuantKind::Qual:
        wU(B, Q.QualLower.size());
        for (const Qual &L : Q.QualLower)
          wQual(B, L);
        wU(B, Q.QualUpper.size());
        for (const Qual &U : Q.QualUpper)
          wQual(B, U);
        break;
      case QuantKind::Type:
        wQual(B, Q.TypeQualLower);
        fOptSize(B, Q.TypeSizeUpper);
        wU(B, Q.TypeNoCaps ? 1 : 0);
        break;
      }
    }
    wU(B, F->arrow().Params.size());
    for (const Type &T : F->arrow().Params)
      fType(B, T);
    wU(B, F->arrow().Results.size());
    for (const Type &T : F->arrow().Results)
      fType(B, T);
  });
}

//===----------------------------------------------------------------------===//
// Hash emitter: same walk, O(1) per type reference
//===----------------------------------------------------------------------===//

class HashEmitter {
public:
  uint64_t A = 0x9e3779b97f4a7c15ull;
  uint64_t B = 0xc2b2ae3d27d4eb4full;

  void mix(uint64_t V) {
    A = mix64(A ^ V);
    B = mix64(B * 0x100000001b3ull + V);
  }
  void u(uint64_t V) { mix(V * 2 + 1); }
  void str(const std::string &S) {
    mix(S.size());
    mix(fnv1a(reinterpret_cast<const uint8_t *>(S.data()), S.size()));
  }
  void qual(const Qual &Q) {
    mix(0x51 ^ (Q.isVar() ? 2 + uint64_t(Q.varIndex())
                          : (Q.isLinConst() ? 1 : 0)));
  }
  void loc(const Loc &L) {
    switch (L.kind()) {
    case Loc::Kind::Var:
      mix(0x100 + L.varIndex());
      break;
    case Loc::Kind::Concrete:
      mix(0x200 + (L.mem() == MemKind::Lin ? 0 : 1));
      mix(L.addr());
      break;
    case Loc::Kind::Skolem:
      mix(0x300);
      mix(L.skolemId());
      break;
    }
  }
  // Type nodes carry structural (Merkle) hashes, stable across arenas.
  void pre(const PretypeRef &P) { mix(P->hashValue()); }
  void heap(const HeapTypeRef &H) { mix(H->hashValue()); }
  void fun(const FunTypeRef &F) { mix(F->hashValue()); }
  void size(const SizeRef &S) { mix(S ? S->hashValue() : 0x77); }
  void type(const Type &T) {
    pre(T.P);
    qual(T.Q);
  }
};

//===----------------------------------------------------------------------===//
// The shared module walk
//===----------------------------------------------------------------------===//

template <class Em> void putArrow(Em &E, const ArrowType &A) {
  E.u(A.Params.size());
  for (const Type &T : A.Params)
    E.type(T);
  E.u(A.Results.size());
  for (const Type &T : A.Results)
    E.type(T);
}

template <class Em>
void putEffects(Em &E, const std::vector<LocalEffect> &Fx) {
  E.u(Fx.size());
  for (const LocalEffect &F : Fx) {
    E.u(F.LocalIdx);
    E.type(F.T);
  }
}

template <class Em> void putIndexArgs(Em &E, const std::vector<Index> &Args) {
  E.u(Args.size());
  for (const Index &I : Args) {
    E.u(static_cast<uint64_t>(I.K));
    switch (I.K) {
    case QuantKind::Loc:
      E.loc(I.L);
      break;
    case QuantKind::Size:
      E.size(I.Sz);
      break;
    case QuantKind::Qual:
      E.qual(I.Q);
      break;
    case QuantKind::Type:
      E.pre(I.P);
      break;
    }
  }
}

template <class Em> void putInsts(Em &E, const InstVec &Is);

template <class Em> void putInst(Em &E, const Inst &I) {
  E.u(static_cast<uint64_t>(I.kind()));
  switch (I.kind()) {
  case InstKind::NumConst: {
    const auto *C = cast<NumConstInst>(&I);
    E.u(static_cast<uint64_t>(C->numType()));
    E.u(C->bits());
    break;
  }
  case InstKind::NumUnop: {
    const auto *U = cast<NumUnopInst>(&I);
    E.u(static_cast<uint64_t>(U->numType()));
    E.u(static_cast<uint64_t>(U->op()));
    break;
  }
  case InstKind::NumBinop: {
    const auto *U = cast<NumBinopInst>(&I);
    E.u(static_cast<uint64_t>(U->numType()));
    E.u(static_cast<uint64_t>(U->op()));
    break;
  }
  case InstKind::NumTestop: {
    const auto *U = cast<NumTestopInst>(&I);
    E.u(static_cast<uint64_t>(U->numType()));
    E.u(static_cast<uint64_t>(U->op()));
    break;
  }
  case InstKind::NumRelop: {
    const auto *U = cast<NumRelopInst>(&I);
    E.u(static_cast<uint64_t>(U->numType()));
    E.u(static_cast<uint64_t>(U->op()));
    break;
  }
  case InstKind::NumCvt: {
    const auto *C = cast<NumCvtInst>(&I);
    E.u(static_cast<uint64_t>(C->from()));
    E.u(static_cast<uint64_t>(C->to()));
    E.u(static_cast<uint64_t>(C->op()));
    break;
  }
  case InstKind::Block: {
    const auto *B = cast<BlockInst>(&I);
    putArrow(E, B->arrow());
    putEffects(E, B->effects());
    putInsts(E, B->body());
    break;
  }
  case InstKind::Loop: {
    const auto *L = cast<LoopInst>(&I);
    putArrow(E, L->arrow());
    putInsts(E, L->body());
    break;
  }
  case InstKind::If: {
    const auto *F = cast<IfInst>(&I);
    putArrow(E, F->arrow());
    putEffects(E, F->effects());
    putInsts(E, F->thenBody());
    putInsts(E, F->elseBody());
    break;
  }
  case InstKind::Br:
  case InstKind::BrIf:
    E.u(cast<BrInst>(&I)->depth());
    break;
  case InstKind::BrTable: {
    const auto *T = cast<BrTableInst>(&I);
    E.u(T->depths().size());
    for (uint32_t D : T->depths())
      E.u(D);
    E.u(T->defaultDepth());
    break;
  }
  case InstKind::GetLocal: {
    const auto *G = cast<GetLocalInst>(&I);
    E.u(G->index());
    E.qual(G->qual());
    break;
  }
  case InstKind::SetLocal:
  case InstKind::TeeLocal:
  case InstKind::GetGlobal:
  case InstKind::SetGlobal:
    E.u(cast<VarIdxInst>(&I)->index());
    break;
  case InstKind::Qualify:
    E.qual(cast<QualifyInst>(&I)->qual());
    break;
  case InstKind::CoderefI:
    E.u(cast<CoderefInst>(&I)->funcIndex());
    break;
  case InstKind::InstIdx:
    putIndexArgs(E, cast<InstIdxInst>(&I)->args());
    break;
  case InstKind::Call: {
    const auto *C = cast<CallInst>(&I);
    E.u(C->funcIndex());
    putIndexArgs(E, C->args());
    break;
  }
  case InstKind::RecFold:
    E.pre(cast<RecFoldInst>(&I)->pretype());
    break;
  case InstKind::MemPack:
    E.loc(cast<MemPackInst>(&I)->loc());
    break;
  case InstKind::MemUnpack: {
    const auto *M = cast<MemUnpackInst>(&I);
    putArrow(E, M->arrow());
    putEffects(E, M->effects());
    putInsts(E, M->body());
    break;
  }
  case InstKind::Group: {
    const auto *G = cast<GroupInst>(&I);
    E.u(G->count());
    E.qual(G->qual());
    break;
  }
  case InstKind::StructMalloc: {
    const auto *S = cast<StructMallocInst>(&I);
    E.u(S->sizes().size());
    for (const SizeRef &Sz : S->sizes())
      E.size(Sz);
    E.qual(S->qual());
    break;
  }
  case InstKind::StructGet:
  case InstKind::StructSet:
  case InstKind::StructSwap:
    E.u(cast<StructIdxInst>(&I)->fieldIndex());
    break;
  case InstKind::VariantMalloc: {
    const auto *V = cast<VariantMallocInst>(&I);
    E.u(V->tag());
    E.u(V->cases().size());
    for (const Type &T : V->cases())
      E.type(T);
    E.qual(V->qual());
    break;
  }
  case InstKind::VariantCase: {
    const auto *V = cast<VariantCaseInst>(&I);
    E.qual(V->qual());
    E.heap(V->heapType());
    putArrow(E, V->arrow());
    putEffects(E, V->effects());
    E.u(V->arms().size());
    for (const InstVec &Arm : V->arms())
      putInsts(E, Arm);
    break;
  }
  case InstKind::ArrayMalloc:
    E.qual(cast<ArrayMallocInst>(&I)->qual());
    break;
  case InstKind::ExistPack: {
    const auto *P = cast<ExistPackInst>(&I);
    E.pre(P->witness());
    E.heap(P->heapType());
    E.qual(P->qual());
    break;
  }
  case InstKind::ExistUnpack: {
    const auto *X = cast<ExistUnpackInst>(&I);
    E.qual(X->qual());
    E.heap(X->heapType());
    putArrow(E, X->arrow());
    putEffects(E, X->effects());
    putInsts(E, X->body());
    break;
  }
  default:
    // Payload-free instructions (SimpleInst) carry only their kind.
    assert(SimpleInst::isSimple(I.kind()) && "unhandled instruction payload");
    break;
  }
}

template <class Em> void putInsts(Em &E, const InstVec &Is) {
  E.u(Is.size());
  for (const InstRef &I : Is)
    putInst(E, *I);
}

template <class Em> void walkModule(Em &E, const ir::Module &M) {
  E.str(M.Name);

  E.u(M.Funcs.size());
  for (const Function &F : M.Funcs) {
    E.u(F.Exports.size());
    for (const std::string &S : F.Exports)
      E.str(S);
    E.fun(F.Ty);
    E.u(F.Locals.size());
    for (const SizeRef &S : F.Locals)
      E.size(S);
    E.u(F.isImport() ? 1 : 0);
    if (F.isImport()) {
      E.str(F.Import->Module);
      E.str(F.Import->Name);
    } else {
      putInsts(E, F.Body);
    }
  }

  E.u(M.Globals.size());
  for (const Global &G : M.Globals) {
    E.u(G.Exports.size());
    for (const std::string &S : G.Exports)
      E.str(S);
    E.u(G.Mut ? 1 : 0);
    E.pre(G.P);
    E.u(G.isImport() ? 1 : 0);
    if (G.isImport()) {
      E.str(G.Import->Module);
      E.str(G.Import->Name);
    } else {
      putInsts(E, G.Init);
    }
  }

  E.u(M.Tab.Exports.size());
  for (const std::string &S : M.Tab.Exports)
    E.str(S);
  E.u(M.Tab.Entries.size());
  for (uint32_t T : M.Tab.Entries)
    E.u(T);
  E.u(M.Tab.Import ? 1 : 0);
  if (M.Tab.Import) {
    E.str(M.Tab.Import->Module);
    E.str(M.Tab.Import->Name);
  }

  E.u(M.Start ? 1 : 0);
  if (M.Start)
    E.u(*M.Start);
}

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

class Reader {
public:
  Reader(const uint8_t *D, size_t N, TypeArena &A) : D(D), N(N), A(A) {}

  bool run(ir::Module &M) { return nodeTable() && module(M) && atEnd(); }
  const std::string &error() const { return Err; }
  ingest::Category category() const { return ErrCat; }
  /// The payload offset the first failure was found at.
  size_t offset() const { return ErrPos; }

private:
  const uint8_t *D;
  size_t N;
  size_t Pos = 0;
  TypeArena &A;
  std::string Err;
  ingest::Category ErrCat = ingest::Category::None;
  size_t ErrPos = 0;

  // The decoded type table: one tagged reference per index.
  struct NodeSlot {
    Cat C;
    uint32_t Sub;
  };
  std::vector<NodeSlot> Slots;
  std::vector<SizeRef> Sizes;
  std::vector<PretypeRef> Pres;
  std::vector<HeapTypeRef> Heaps;
  std::vector<FunTypeRef> Funs;
  /// Canonical nodes already decoded from this table: the writer emits
  /// one record per structural identity, so a duplicate entry (same
  /// canonical node twice) is corruption, rejected to keep accepted
  /// tables writer-shaped.
  std::unordered_set<const void *> SeenNodes;

  bool recordNode(const void *Canonical) {
    if (!SeenNodes.insert(Canonical).second)
      return fail("duplicate type-table entry");
    return true;
  }

  bool fail(const std::string &M,
            ingest::Category C = ingest::Category::Malformed) {
    if (Err.empty()) {
      Err = M;
      ErrCat = C;
      ErrPos = Pos;
    }
    return false;
  }
  bool atEnd() {
    return Pos == N ? true : fail("trailing bytes after module record");
  }

  /// Strict ULEB128: rejects over-long input, payload bits beyond 64,
  /// and non-minimal (zero-padded) encodings — the writer emits minimal
  /// varints, so anything else is corruption, and accepting it would let
  /// distinct byte strings decode to one module (see the canonicality
  /// note in DESIGN.md §8).
  bool u(uint64_t &V) {
    V = 0;
    unsigned Shift = 0;
    while (true) {
      if (Pos >= N)
        return fail("truncated varint", ingest::Category::Truncated);
      uint8_t B = D[Pos++];
      // At shift 63 only one payload bit remains in the u64.
      if (Shift == 63 && (B & 0xfe))
        return fail("over-long varint");
      V |= uint64_t(B & 0x7f) << Shift;
      if (!(B & 0x80)) {
        if (Shift > 0 && B == 0)
          return fail("non-minimal varint");
        return true;
      }
      Shift += 7;
    }
  }
  bool u32(uint32_t &V, const char *What) {
    uint64_t X;
    if (!u(X))
      return false;
    if (X > UINT32_MAX)
      return fail(std::string(What) + " out of range");
    V = static_cast<uint32_t>(X);
    return true;
  }
  /// A count of items each of which needs at least one encoded byte; the
  /// remaining-input bound keeps corrupt lengths from driving allocation.
  bool count(uint64_t &V, const char *What) {
    if (!u(V))
      return false;
    if (V > N - Pos)
      return fail(std::string("oversized ") + What + " count");
    return true;
  }
  bool str(std::string &S) {
    uint64_t L;
    if (!count(L, "string"))
      return false;
    S.assign(reinterpret_cast<const char *>(D + Pos), L);
    Pos += L;
    return true;
  }
  bool qual(Qual &Q) {
    uint64_t V;
    if (!u(V))
      return false;
    if (V == 0)
      Q = Qual::unr();
    else if (V == 1)
      Q = Qual::lin();
    else if (V - 2 <= UINT32_MAX)
      Q = Qual::var(static_cast<uint32_t>(V - 2));
    else
      return fail("qualifier variable out of range");
    return true;
  }
  bool loc(Loc &L) {
    uint64_t K;
    if (!u(K))
      return false;
    switch (K) {
    case 0: {
      uint32_t Idx;
      if (!u32(Idx, "location variable"))
        return false;
      L = Loc::var(Idx);
      return true;
    }
    case 1: {
      uint64_t Mem, Addr;
      if (!u(Mem) || !u(Addr))
        return false;
      if (Mem > 1)
        return fail("bad memory kind");
      L = Loc::concrete(Mem == 0 ? MemKind::Lin : MemKind::Unr, Addr);
      return true;
    }
    case 2: {
      uint64_t Id;
      if (!u(Id))
        return false;
      L = Loc::skolem(Id);
      return true;
    }
    default:
      return fail("bad location kind");
    }
  }

  bool slot(Cat C, uint32_t &Sub, const char *What) {
    uint32_t Idx;
    if (!u32(Idx, What))
      return false;
    if (Idx >= Slots.size())
      return fail(std::string(What) + " index out of range");
    if (Slots[Idx].C != C)
      return fail(std::string(What) + " index refers to a different node "
                                      "category");
    Sub = Slots[Idx].Sub;
    return true;
  }
  bool preRef(PretypeRef &P) {
    uint32_t S;
    if (!slot(Cat::Pre, S, "pretype"))
      return false;
    P = Pres[S];
    return true;
  }
  bool heapRef(HeapTypeRef &H) {
    uint32_t S;
    if (!slot(Cat::Heap, S, "heap type"))
      return false;
    H = Heaps[S];
    return true;
  }
  bool funRef(FunTypeRef &F) {
    uint32_t S;
    if (!slot(Cat::Fun, S, "function type"))
      return false;
    F = Funs[S];
    return true;
  }
  /// Optional-size convention: 0 = null, else index + 1.
  bool optSize(SizeRef &S) {
    uint64_t V;
    if (!u(V))
      return false;
    if (V == 0) {
      S = nullptr;
      return true;
    }
    if (V - 1 >= Slots.size() || Slots[V - 1].C != Cat::Size)
      return fail("size index out of range");
    S = Sizes[Slots[V - 1].Sub];
    return true;
  }
  bool type(Type &T) {
    PretypeRef P;
    Qual Q = Qual::unr();
    if (!preRef(P) || !qual(Q))
      return false;
    T = Type(std::move(P), Q);
    return true;
  }
  bool types(std::vector<Type> &Ts, const char *What) {
    uint64_t C;
    if (!count(C, What))
      return false;
    Ts.resize(C);
    for (Type &T : Ts)
      if (!type(T))
        return false;
    return true;
  }

  bool nodeTable();
  bool node();
  bool module(ir::Module &M);
  bool function(Function &F);
  bool global(Global &G);
  bool arrow(ArrowType &AT);
  bool effects(std::vector<LocalEffect> &Fx);
  bool indexArgs(std::vector<Index> &Args);
  bool insts(InstVec &Is, unsigned Depth);
  bool inst(InstRef &I, unsigned Depth);
  bool importName(std::optional<ImportName> &IN);
};

bool Reader::nodeTable() {
  uint64_t Count;
  if (!count(Count, "type table"))
    return false;
  Slots.reserve(Count);
  for (uint64_t I = 0; I < Count; ++I)
    if (!node())
      return false;
  return true;
}

bool Reader::node() {
  if (Pos >= N)
    return fail("truncated type table", ingest::Category::Truncated);
  uint8_t Tag = D[Pos++];

  if (Tag == TagSize) {
    NormalSize NS;
    uint64_t NVars;
    if (!u(NS.Const) || !count(NVars, "size variable"))
      return false;
    NS.Vars.resize(NVars);
    uint32_t Prev = 0;
    for (uint64_t I = 0; I < NVars; ++I) {
      if (!u32(NS.Vars[I], "size variable"))
        return false;
      // The writer emits the sorted normal form; enforcing it keeps the
      // encoding canonical (one byte string per structural identity).
      if (I > 0 && NS.Vars[I] < Prev)
        return fail("size normal form not sorted");
      Prev = NS.Vars[I];
    }
    SizeRef S = A.sizeFromNormal(std::move(NS));
    if (!recordNode(S.get()))
      return false;
    Slots.push_back({Cat::Size, static_cast<uint32_t>(Sizes.size())});
    Sizes.push_back(std::move(S));
    return true;
  }

  if (Tag == TagFun) {
    uint64_t NQ;
    if (!count(NQ, "quantifier"))
      return false;
    std::vector<Quant> Qs(NQ);
    for (Quant &Q : Qs) {
      uint64_t K;
      if (!u(K))
        return false;
      if (K > static_cast<uint64_t>(QuantKind::Type))
        return fail("bad quantifier kind");
      Q.K = static_cast<QuantKind>(K);
      switch (Q.K) {
      case QuantKind::Loc:
        break;
      case QuantKind::Size: {
        uint64_t NL, NU;
        if (!count(NL, "size bound"))
          return false;
        Q.SizeLower.resize(NL);
        for (SizeRef &S : Q.SizeLower)
          if (!optSize(S))
            return false;
        if (!count(NU, "size bound"))
          return false;
        Q.SizeUpper.resize(NU);
        for (SizeRef &S : Q.SizeUpper)
          if (!optSize(S))
            return false;
        break;
      }
      case QuantKind::Qual: {
        uint64_t NL, NU;
        if (!count(NL, "qualifier bound"))
          return false;
        Q.QualLower.resize(NL, Qual::unr());
        for (Qual &L : Q.QualLower)
          if (!qual(L))
            return false;
        if (!count(NU, "qualifier bound"))
          return false;
        Q.QualUpper.resize(NU, Qual::unr());
        for (Qual &U : Q.QualUpper)
          if (!qual(U))
            return false;
        break;
      }
      case QuantKind::Type: {
        uint64_t NC;
        if (!qual(Q.TypeQualLower) || !optSize(Q.TypeSizeUpper) || !u(NC))
          return false;
        Q.TypeNoCaps = NC != 0;
        break;
      }
      }
    }
    ArrowType AT;
    if (!types(AT.Params, "parameter") || !types(AT.Results, "result"))
      return false;
    FunTypeRef F = A.fun(std::move(Qs), std::move(AT));
    if (!recordNode(F.get()))
      return false;
    Slots.push_back({Cat::Fun, static_cast<uint32_t>(Funs.size())});
    Funs.push_back(std::move(F));
    return true;
  }

  if (Tag >= TagHeap && Tag < TagHeap + 4) {
    HeapTypeRef H;
    switch (static_cast<HeapTypeKind>(Tag - TagHeap)) {
    case HeapTypeKind::Variant: {
      std::vector<Type> Cs;
      if (!types(Cs, "variant case"))
        return false;
      H = A.variant(std::move(Cs));
      break;
    }
    case HeapTypeKind::Struct: {
      uint64_t NF;
      if (!count(NF, "struct field"))
        return false;
      std::vector<StructField> Fs(NF);
      for (StructField &F : Fs)
        if (!type(F.T) || !optSize(F.Slot))
          return false;
      H = A.structure(std::move(Fs));
      break;
    }
    case HeapTypeKind::Array: {
      Type T;
      if (!type(T))
        return false;
      H = A.array(std::move(T));
      break;
    }
    case HeapTypeKind::Ex: {
      Qual QL = Qual::unr();
      SizeRef SU;
      Type T;
      if (!qual(QL) || !optSize(SU) || !type(T))
        return false;
      H = A.ex(QL, std::move(SU), std::move(T));
      break;
    }
    }
    if (!recordNode(H.get()))
      return false;
    Slots.push_back({Cat::Heap, static_cast<uint32_t>(Heaps.size())});
    Heaps.push_back(std::move(H));
    return true;
  }

  if (Tag >= TagPre && Tag < TagPre + 12) {
    PretypeRef P;
    switch (static_cast<PretypeKind>(Tag - TagPre)) {
    case PretypeKind::Unit:
      P = A.unit();
      break;
    case PretypeKind::Num: {
      uint64_t NT;
      if (!u(NT))
        return false;
      if (NT > static_cast<uint64_t>(NumType::F64))
        return fail("bad numeric type");
      P = A.num(static_cast<NumType>(NT));
      break;
    }
    case PretypeKind::Var: {
      uint32_t Idx;
      if (!u32(Idx, "pretype variable"))
        return false;
      P = A.typeVar(Idx);
      break;
    }
    case PretypeKind::Skolem: {
      uint64_t Id, NC;
      Qual QL = Qual::unr();
      SizeRef SU;
      if (!u(Id) || !qual(QL) || !optSize(SU) || !u(NC))
        return false;
      P = A.skolem(Id, QL, std::move(SU), NC != 0);
      break;
    }
    case PretypeKind::Prod: {
      std::vector<Type> Es;
      if (!types(Es, "tuple element"))
        return false;
      P = A.prod(std::move(Es));
      break;
    }
    case PretypeKind::Ref:
    case PretypeKind::Cap: {
      bool IsRef = static_cast<PretypeKind>(Tag - TagPre) == PretypeKind::Ref;
      uint64_t Priv;
      Loc L = Loc::var(0);
      HeapTypeRef H;
      if (!u(Priv) || !loc(L) || !heapRef(H))
        return false;
      if (Priv > 1)
        return fail("bad privilege");
      Privilege Pr = Priv ? Privilege::RW : Privilege::R;
      P = IsRef ? A.ref(Pr, L, std::move(H)) : A.cap(Pr, L, std::move(H));
      break;
    }
    case PretypeKind::Ptr: {
      Loc L = Loc::var(0);
      if (!loc(L))
        return false;
      P = A.ptr(L);
      break;
    }
    case PretypeKind::Own: {
      Loc L = Loc::var(0);
      if (!loc(L))
        return false;
      P = A.own(L);
      break;
    }
    case PretypeKind::Rec: {
      Qual Bound = Qual::unr();
      Type Body;
      if (!qual(Bound) || !type(Body))
        return false;
      P = A.rec(Bound, std::move(Body));
      break;
    }
    case PretypeKind::ExLoc: {
      Type Body;
      if (!type(Body))
        return false;
      P = A.exLoc(std::move(Body));
      break;
    }
    case PretypeKind::Coderef: {
      FunTypeRef F;
      if (!funRef(F))
        return false;
      P = A.coderef(std::move(F));
      break;
    }
    }
    if (!recordNode(P.get()))
      return false;
    Slots.push_back({Cat::Pre, static_cast<uint32_t>(Pres.size())});
    Pres.push_back(std::move(P));
    return true;
  }

  return fail("unknown type-table tag");
}

bool Reader::arrow(ArrowType &AT) {
  return types(AT.Params, "parameter") && types(AT.Results, "result");
}

bool Reader::effects(std::vector<LocalEffect> &Fx) {
  uint64_t C;
  if (!count(C, "local effect"))
    return false;
  Fx.resize(C);
  for (LocalEffect &F : Fx)
    if (!u32(F.LocalIdx, "local index") || !type(F.T))
      return false;
  return true;
}

bool Reader::indexArgs(std::vector<Index> &Args) {
  uint64_t C;
  if (!count(C, "instantiation argument"))
    return false;
  Args.resize(C);
  for (Index &I : Args) {
    uint64_t K;
    if (!u(K))
      return false;
    if (K > static_cast<uint64_t>(QuantKind::Type))
      return fail("bad instantiation-argument kind");
    I.K = static_cast<QuantKind>(K);
    switch (I.K) {
    case QuantKind::Loc:
      if (!loc(I.L))
        return false;
      break;
    case QuantKind::Size:
      if (!optSize(I.Sz))
        return false;
      break;
    case QuantKind::Qual:
      if (!qual(I.Q))
        return false;
      break;
    case QuantKind::Type:
      if (!preRef(I.P))
        return false;
      break;
    }
  }
  return true;
}

bool Reader::insts(InstVec &Is, unsigned Depth) {
  uint64_t C;
  if (!count(C, "instruction"))
    return false;
  Is.reserve(C);
  for (uint64_t J = 0; J < C; ++J) {
    InstRef I;
    if (!inst(I, Depth))
      return false;
    Is.push_back(std::move(I));
  }
  return true;
}

bool Reader::inst(InstRef &Out, unsigned Depth) {
  if (Depth > MaxInstDepth)
    return fail("instruction nesting too deep");
  uint64_t KV;
  if (!u(KV))
    return false;
  if (KV > static_cast<uint64_t>(InstKind::ExistUnpack))
    return fail("unknown instruction kind");
  InstKind K = static_cast<InstKind>(KV);

  if (SimpleInst::isSimple(K)) {
    Out = std::make_shared<SimpleInst>(K);
    return true;
  }

  switch (K) {
  case InstKind::NumConst: {
    uint64_t NT, Bits;
    if (!u(NT) || !u(Bits))
      return false;
    if (NT > static_cast<uint64_t>(NumType::F64))
      return fail("bad numeric type");
    Out = std::make_shared<NumConstInst>(static_cast<NumType>(NT), Bits);
    return true;
  }
  case InstKind::NumUnop: {
    uint64_t NT, Op;
    if (!u(NT) || !u(Op))
      return false;
    if (NT > static_cast<uint64_t>(NumType::F64) ||
        Op > static_cast<uint64_t>(UnopKind::Nearest))
      return fail("bad numeric unop");
    Out = std::make_shared<NumUnopInst>(static_cast<NumType>(NT),
                                        static_cast<UnopKind>(Op));
    return true;
  }
  case InstKind::NumBinop: {
    uint64_t NT, Op;
    if (!u(NT) || !u(Op))
      return false;
    if (NT > static_cast<uint64_t>(NumType::F64) ||
        Op > static_cast<uint64_t>(BinopKind::Copysign))
      return fail("bad numeric binop");
    Out = std::make_shared<NumBinopInst>(static_cast<NumType>(NT),
                                         static_cast<BinopKind>(Op));
    return true;
  }
  case InstKind::NumTestop: {
    uint64_t NT, Op;
    if (!u(NT) || !u(Op))
      return false;
    if (NT > static_cast<uint64_t>(NumType::F64) ||
        Op > static_cast<uint64_t>(TestopKind::Eqz))
      return fail("bad numeric testop");
    Out = std::make_shared<NumTestopInst>(static_cast<NumType>(NT),
                                          static_cast<TestopKind>(Op));
    return true;
  }
  case InstKind::NumRelop: {
    uint64_t NT, Op;
    if (!u(NT) || !u(Op))
      return false;
    if (NT > static_cast<uint64_t>(NumType::F64) ||
        Op > static_cast<uint64_t>(RelopKind::Ge))
      return fail("bad numeric relop");
    Out = std::make_shared<NumRelopInst>(static_cast<NumType>(NT),
                                         static_cast<RelopKind>(Op));
    return true;
  }
  case InstKind::NumCvt: {
    uint64_t From, To, Op;
    if (!u(From) || !u(To) || !u(Op))
      return false;
    if (From > static_cast<uint64_t>(NumType::F64) ||
        To > static_cast<uint64_t>(NumType::F64) ||
        Op > static_cast<uint64_t>(CvtopKind::Reinterpret))
      return fail("bad conversion");
    Out = std::make_shared<NumCvtInst>(static_cast<NumType>(From),
                                       static_cast<NumType>(To),
                                       static_cast<CvtopKind>(Op));
    return true;
  }
  case InstKind::Block: {
    ArrowType AT;
    std::vector<LocalEffect> Fx;
    InstVec Body;
    if (!arrow(AT) || !effects(Fx) || !insts(Body, Depth + 1))
      return false;
    Out = std::make_shared<BlockInst>(std::move(AT), std::move(Fx),
                                      std::move(Body));
    return true;
  }
  case InstKind::Loop: {
    ArrowType AT;
    InstVec Body;
    if (!arrow(AT) || !insts(Body, Depth + 1))
      return false;
    Out = std::make_shared<LoopInst>(std::move(AT), std::move(Body));
    return true;
  }
  case InstKind::If: {
    ArrowType AT;
    std::vector<LocalEffect> Fx;
    InstVec Then, Else;
    if (!arrow(AT) || !effects(Fx) || !insts(Then, Depth + 1) ||
        !insts(Else, Depth + 1))
      return false;
    Out = std::make_shared<IfInst>(std::move(AT), std::move(Fx),
                                   std::move(Then), std::move(Else));
    return true;
  }
  case InstKind::Br:
  case InstKind::BrIf: {
    uint32_t DI;
    if (!u32(DI, "branch depth"))
      return false;
    Out = std::make_shared<BrInst>(K, DI);
    return true;
  }
  case InstKind::BrTable: {
    uint64_t C;
    if (!count(C, "branch target"))
      return false;
    std::vector<uint32_t> Ds(C);
    for (uint32_t &DI : Ds)
      if (!u32(DI, "branch depth"))
        return false;
    uint32_t Dflt;
    if (!u32(Dflt, "branch depth"))
      return false;
    Out = std::make_shared<BrTableInst>(std::move(Ds), Dflt);
    return true;
  }
  case InstKind::GetLocal: {
    uint32_t Idx;
    Qual Q = Qual::unr();
    if (!u32(Idx, "local index") || !qual(Q))
      return false;
    Out = std::make_shared<GetLocalInst>(Idx, Q);
    return true;
  }
  case InstKind::SetLocal:
  case InstKind::TeeLocal:
  case InstKind::GetGlobal:
  case InstKind::SetGlobal: {
    uint32_t Idx;
    if (!u32(Idx, "variable index"))
      return false;
    Out = std::make_shared<VarIdxInst>(K, Idx);
    return true;
  }
  case InstKind::Qualify: {
    Qual Q = Qual::unr();
    if (!qual(Q))
      return false;
    Out = std::make_shared<QualifyInst>(Q);
    return true;
  }
  case InstKind::CoderefI: {
    uint32_t Idx;
    if (!u32(Idx, "function index"))
      return false;
    Out = std::make_shared<CoderefInst>(Idx);
    return true;
  }
  case InstKind::InstIdx: {
    std::vector<Index> Args;
    if (!indexArgs(Args))
      return false;
    Out = std::make_shared<InstIdxInst>(std::move(Args));
    return true;
  }
  case InstKind::Call: {
    uint32_t Idx;
    std::vector<Index> Args;
    if (!u32(Idx, "function index") || !indexArgs(Args))
      return false;
    Out = std::make_shared<CallInst>(Idx, std::move(Args));
    return true;
  }
  case InstKind::RecFold: {
    PretypeRef P;
    if (!preRef(P))
      return false;
    Out = std::make_shared<RecFoldInst>(std::move(P));
    return true;
  }
  case InstKind::MemPack: {
    Loc L = Loc::var(0);
    if (!loc(L))
      return false;
    Out = std::make_shared<MemPackInst>(L);
    return true;
  }
  case InstKind::MemUnpack: {
    ArrowType AT;
    std::vector<LocalEffect> Fx;
    InstVec Body;
    if (!arrow(AT) || !effects(Fx) || !insts(Body, Depth + 1))
      return false;
    Out = std::make_shared<MemUnpackInst>(std::move(AT), std::move(Fx),
                                          std::move(Body));
    return true;
  }
  case InstKind::Group: {
    uint32_t C;
    Qual Q = Qual::unr();
    if (!u32(C, "group count") || !qual(Q))
      return false;
    Out = std::make_shared<GroupInst>(C, Q);
    return true;
  }
  case InstKind::StructMalloc: {
    uint64_t C;
    if (!count(C, "slot size"))
      return false;
    std::vector<SizeRef> Ss(C);
    for (SizeRef &S : Ss)
      if (!optSize(S))
        return false;
    Qual Q = Qual::unr();
    if (!qual(Q))
      return false;
    Out = std::make_shared<StructMallocInst>(std::move(Ss), Q);
    return true;
  }
  case InstKind::StructGet:
  case InstKind::StructSet:
  case InstKind::StructSwap: {
    uint32_t Idx;
    if (!u32(Idx, "field index"))
      return false;
    Out = std::make_shared<StructIdxInst>(K, Idx);
    return true;
  }
  case InstKind::VariantMalloc: {
    uint32_t Tag;
    std::vector<Type> Cs;
    Qual Q = Qual::unr();
    if (!u32(Tag, "variant tag") || !types(Cs, "variant case") || !qual(Q))
      return false;
    Out = std::make_shared<VariantMallocInst>(Tag, std::move(Cs), Q);
    return true;
  }
  case InstKind::VariantCase: {
    Qual Q = Qual::unr();
    HeapTypeRef H;
    ArrowType AT;
    std::vector<LocalEffect> Fx;
    uint64_t NArms;
    if (!qual(Q) || !heapRef(H) || !arrow(AT) || !effects(Fx) ||
        !count(NArms, "variant arm"))
      return false;
    std::vector<InstVec> Arms(NArms);
    for (InstVec &Arm : Arms)
      if (!insts(Arm, Depth + 1))
        return false;
    Out = std::make_shared<VariantCaseInst>(Q, std::move(H), std::move(AT),
                                            std::move(Fx), std::move(Arms));
    return true;
  }
  case InstKind::ArrayMalloc: {
    Qual Q = Qual::unr();
    if (!qual(Q))
      return false;
    Out = std::make_shared<ArrayMallocInst>(Q);
    return true;
  }
  case InstKind::ExistPack: {
    PretypeRef W;
    HeapTypeRef H;
    Qual Q = Qual::unr();
    if (!preRef(W) || !heapRef(H) || !qual(Q))
      return false;
    Out = std::make_shared<ExistPackInst>(std::move(W), std::move(H), Q);
    return true;
  }
  case InstKind::ExistUnpack: {
    Qual Q = Qual::unr();
    HeapTypeRef H;
    ArrowType AT;
    std::vector<LocalEffect> Fx;
    InstVec Body;
    if (!qual(Q) || !heapRef(H) || !arrow(AT) || !effects(Fx) ||
        !insts(Body, Depth + 1))
      return false;
    Out = std::make_shared<ExistUnpackInst>(Q, std::move(H), std::move(AT),
                                            std::move(Fx), std::move(Body));
    return true;
  }
  default:
    return fail("unknown instruction kind");
  }
}

bool Reader::importName(std::optional<ImportName> &IN) {
  uint64_t Is;
  if (!u(Is))
    return false;
  if (Is == 0) {
    IN.reset();
    return true;
  }
  if (Is != 1)
    return fail("bad import flag");
  ImportName Name;
  if (!str(Name.Module) || !str(Name.Name))
    return false;
  IN = std::move(Name);
  return true;
}

bool Reader::function(Function &F) {
  uint64_t NE;
  if (!count(NE, "export"))
    return false;
  F.Exports.resize(NE);
  for (std::string &S : F.Exports)
    if (!str(S))
      return false;
  if (!funRef(F.Ty))
    return false;
  uint64_t NL;
  if (!count(NL, "local"))
    return false;
  F.Locals.resize(NL);
  for (SizeRef &S : F.Locals)
    if (!optSize(S))
      return false;
  uint64_t Is;
  if (!u(Is))
    return false;
  if (Is == 1) {
    ImportName Name;
    if (!str(Name.Module) || !str(Name.Name))
      return false;
    F.Import = std::move(Name);
    return true;
  }
  if (Is != 0)
    return fail("bad import flag");
  return insts(F.Body, 0);
}

bool Reader::global(Global &G) {
  uint64_t NE;
  if (!count(NE, "export"))
    return false;
  G.Exports.resize(NE);
  for (std::string &S : G.Exports)
    if (!str(S))
      return false;
  uint64_t Mut;
  if (!u(Mut))
    return false;
  G.Mut = Mut != 0;
  if (!preRef(G.P))
    return false;
  uint64_t Is;
  if (!u(Is))
    return false;
  if (Is == 1) {
    ImportName Name;
    if (!str(Name.Module) || !str(Name.Name))
      return false;
    G.Import = std::move(Name);
    return true;
  }
  if (Is != 0)
    return fail("bad import flag");
  return insts(G.Init, 0);
}

bool Reader::module(ir::Module &M) {
  if (!str(M.Name))
    return false;

  uint64_t NF;
  if (!count(NF, "function"))
    return false;
  M.Funcs.resize(NF);
  for (Function &F : M.Funcs)
    if (!function(F))
      return false;

  uint64_t NG;
  if (!count(NG, "global"))
    return false;
  M.Globals.resize(NG);
  for (Global &G : M.Globals)
    if (!global(G))
      return false;

  uint64_t NE;
  if (!count(NE, "table export"))
    return false;
  M.Tab.Exports.resize(NE);
  for (std::string &S : M.Tab.Exports)
    if (!str(S))
      return false;
  uint64_t NT;
  if (!count(NT, "table entry"))
    return false;
  M.Tab.Entries.resize(NT);
  for (uint32_t &T : M.Tab.Entries)
    if (!u32(T, "table entry"))
      return false;
  if (!importName(M.Tab.Import))
    return false;

  uint64_t HasStart;
  if (!u(HasStart))
    return false;
  if (HasStart == 1) {
    uint32_t S;
    if (!u32(S, "start function"))
      return false;
    M.Start = S;
  } else if (HasStart != 0) {
    return fail("bad start flag");
  }
  return true;
}

void putU32LE(std::vector<uint8_t> &B, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    B.push_back(static_cast<uint8_t>(V >> (8 * I)));
}
void putU64LE(std::vector<uint8_t> &B, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    B.push_back(static_cast<uint8_t>(V >> (8 * I)));
}
uint32_t getU32LE(const uint8_t *D) {
  uint32_t V = 0;
  for (int I = 0; I < 4; ++I)
    V |= uint32_t(D[I]) << (8 * I);
  return V;
}
uint64_t getU64LE(const uint8_t *D) {
  uint64_t V = 0;
  for (int I = 0; I < 8; ++I)
    V |= uint64_t(D[I]) << (8 * I);
  return V;
}

} // namespace

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

std::vector<uint8_t> rw::serial::write(const ir::Module &M) {
  OBS_SPAN("serial_write");
  static obs::Counter BytesWritten("serial.bytes_written");
  WriteEmitter E;
  walkModule(E, M);

  std::vector<uint8_t> Payload;
  Payload.reserve(E.Nodes.size() + E.Body.size() + 8);
  wU(Payload, E.NodeCount);
  Payload.insert(Payload.end(), E.Nodes.begin(), E.Nodes.end());
  Payload.insert(Payload.end(), E.Body.begin(), E.Body.end());

  std::vector<uint8_t> Header;
  Header.reserve(HeaderSize);
  Header.insert(Header.end(), Magic, Magic + 4);
  putU32LE(Header, FormatVersion);
  putU64LE(Header, Payload.size());
  putU64LE(Header, fnv1a(Payload.data(), Payload.size()));

  std::vector<uint8_t> Out(HeaderSize + Payload.size());
  std::memcpy(Out.data(), Header.data(), HeaderSize);
  std::memcpy(Out.data() + HeaderSize, Payload.data(), Payload.size());
  BytesWritten.add(Out.size());
  return Out;
}

namespace {

/// Shared body of read() and readPrivate(): header checks, then the
/// payload parse into \p Arena — preceded by a parse into a throwaway
/// arena when \p Probe is set. A failure fills \p ErrOut (when non-null)
/// with its category, the returned message and its byte offset: the
/// header field's (the end of the input for a short header), or HeaderSize
/// plus the reader's position for a payload failure.
Expected<ir::Module> readInto(const std::vector<uint8_t> &Bytes,
                              std::shared_ptr<ir::TypeArena> Arena,
                              bool Probe, ingest::IngestError *ErrOut) {
  OBS_SPAN("serial_read", Bytes.size());
  static obs::Counter BytesRead("serial.bytes_read");
  BytesRead.add(Bytes.size());
  using ingest::Category;
  auto Fail = [ErrOut](Category C, uint64_t Offset, std::string Msg) {
    if (ErrOut)
      *ErrOut = ingest::IngestError{C, Offset, Msg};
    return Error(std::move(Msg));
  };
  // Header fields: magic @0, version @4, payload length @8, checksum @16.
  if (!Arena)
    return Fail(Category::Malformed, 0, "null target arena");
  if (Bytes.size() < HeaderSize)
    return Fail(Category::Truncated, Bytes.size(), "truncated header");
  if (std::memcmp(Bytes.data(), Magic, 4) != 0)
    return Fail(Category::BadMagic, 0,
                "bad magic (not a RichWasm binary module)");
  uint32_t Ver = getU32LE(Bytes.data() + 4);
  if (Ver != FormatVersion)
    return Fail(Category::Unsupported, 4,
                "unsupported format version " + std::to_string(Ver) +
                    " (expected " + std::to_string(FormatVersion) + ")");
  uint64_t Len = getU64LE(Bytes.data() + 8);
  if (Len != Bytes.size() - HeaderSize)
    return Fail(Category::Truncated, 8, "payload length mismatch");
  uint64_t Sum = getU64LE(Bytes.data() + 16);
  if (Sum != fnv1a(Bytes.data() + HeaderSize, Len))
    return Fail(Category::Malformed, 16, "payload checksum mismatch");

  // Two-phase decode for a shared target: parse into a throwaway arena
  // first, so a payload that fails *structural* validation (the checksum
  // is not a MAC — an attacker can recompute it) leaves no trace in the
  // target arena. Interning into a long-lived shared arena is otherwise a
  // permanent allocation: the arena has no eviction. Only a fully validated
  // payload is re-parsed into the target, which then gains exactly the
  // module's own nodes. The price is a second parse on every successful
  // read; readPrivate() skips it, because a fresh arena nobody else
  // holds dies with a rejected module.
  if (Probe) {
    TypeArena Scratch;
    ir::Module Discard;
    Reader R(Bytes.data() + HeaderSize, Len, Scratch);
    if (!R.run(Discard))
      return Fail(R.category(), HeaderSize + R.offset(),
                  "malformed module: " + R.error());
  }

  ir::Module M;
  M.Arena = Arena;
  Reader R(Bytes.data() + HeaderSize, Len, *Arena);
  if (!R.run(M))
    return Fail(R.category(), HeaderSize + R.offset(),
                "malformed module: " + R.error());
  return M;
}

} // namespace

Expected<ir::Module> rw::serial::read(const std::vector<uint8_t> &Bytes,
                                      std::shared_ptr<ir::TypeArena> Arena) {
  return readInto(Bytes, std::move(Arena), /*Probe=*/true, nullptr);
}

Expected<ir::Module>
rw::serial::readPrivate(const std::vector<uint8_t> &Bytes,
                        ingest::IngestError *ErrOut) {
  return readInto(Bytes, std::make_shared<TypeArena>(), /*Probe=*/false,
                  ErrOut);
}

serial::ModuleHash rw::serial::moduleHash(const ir::Module &M) {
  OBS_SPAN("module_hash");
  static obs::Counter ModulesHashed("serial.modules_hashed");
  ModulesHashed.inc();
  HashEmitter E;
  walkModule(E, M);
  // One final avalanche so prefix-equal modules with different tails
  // still differ in both words.
  return ModuleHash{mix64(E.A ^ 0x2545f4914f6cdd1dull), mix64(E.B)};
}
