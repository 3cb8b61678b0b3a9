//===- serial/Serial.cpp - RichWasm binary module format ------------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Every record is written, hashed and read from one field list: the type
// node classes' fields() in ir/Types.h (so the type table too), the
// instruction classes' in ir/Inst.h, and fieldsOf below for the
// module-level records. One structural walk (Put) drives both
// serialization and content hashing through an emitter interface: the
// write emitter assigns type-table indices on first encounter (writing a
// node's record with the same walk, registering children before parents,
// so the table is topologically ordered) and streams varints; the hash
// emitter folds each type reference's precomputed Merkle hash in O(1)
// without descending.
// Keeping a single walk is what guarantees the cache-key invariant:
// moduleHash(A) == moduleHash(B) exactly when write(A) == write(B)
// (modulo 128-bit collisions). The reader walks the same lists, one get
// per field type, so it decodes exactly what the writer emits.
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
#include <optional>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>

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

  void u(uint64_t V) { wU(*Out, V); }
  void str(const std::string &S) { wStr(*Out, S); }
  void qual(const Qual &Q) { wQual(*Out, Q); }
  void loc(const Loc &L) { wLoc(*Out, L); }
  void pre(const PretypeRef &P) { u(typeNode(P.get())); }
  void heap(const HeapTypeRef &H) { u(typeNode(H.get())); }
  void fun(const FunTypeRef &F) { u(typeNode(F.get())); }
  /// Optional size: 0 = null, else table index + 1.
  void size(const SizeRef &S) { u(S ? addSize(S) + 1 : 0); }
  void type(const Type &T) {
    pre(T.P);
    qual(T.Q);
  }

private:
  /// Where the writes go: the module record, or the record of the table
  /// entry being emitted.
  std::vector<uint8_t> *Out = &Body;
  /// Pointer-keyed memo: every canonical node is registered once. (A
  /// module mixing arenas would emit structurally equal nodes twice and
  /// be rejected as a duplicate at read — but mixed-arena modules are
  /// already rejected by the checker, linker, and lowering.)
  std::unordered_map<const void *, uint32_t> Idx;

  template <class Fn> uint32_t emit(const void *Key, uint8_t Tag, Fn &&Fields);
  uint32_t addSize(const SizeRef &S);
  template <class N> uint32_t typeNode(const N *P);
};

template <class Fn>
uint32_t WriteEmitter::emit(const void *Key, uint8_t Tag, Fn &&Fields) {
  // Children are registered inside Fields, which writes into a scratch
  // record *before* this record is assigned its index — preserving
  // child-before-parent order in Nodes even though recursion happens
  // mid-record.
  std::vector<uint8_t> Rec;
  Rec.push_back(Tag);
  std::vector<uint8_t> *Saved = std::exchange(Out, &Rec);
  Fields();
  Out = Saved;
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
  return emit(S.get(), TagSize, [&] {
    u(N.Const);
    u(N.Vars.size());
    for (uint32_t V : N.Vars)
      u(V);
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
// Record field lists
//===----------------------------------------------------------------------===//
//
// Type nodes (with StructField and ArrowType) list their fields in
// ir/Types.h, instructions (with LocalEffect) in ir/Inst.h; the
// module-level records list theirs here, in wire order. The writer, the
// hasher and the reader below all walk these lists.

/// The tail of a function or global record: one import flag, then either
/// the import name or the body.
template <class C> struct ImportOrBody {
  std::optional<ImportName> C::*Import;
  InstVec C::*Body;
};

constexpr auto fieldsOf(const ImportName *) {
  return std::tuple{field(&ImportName::Module), field(&ImportName::Name)};
}
constexpr auto fieldsOf(const Function *) {
  return std::tuple{field(&Function::Exports, "export"), field(&Function::Ty),
                    field(&Function::Locals, "local"),
                    ImportOrBody<Function>{&Function::Import, &Function::Body}};
}
constexpr auto fieldsOf(const Global *) {
  return std::tuple{field(&Global::Exports, "export"),
                    field(&Global::Mut, "mutability"), field(&Global::P),
                    ImportOrBody<Global>{&Global::Import, &Global::Init}};
}
constexpr auto fieldsOf(const Table *) {
  return std::tuple{field(&Table::Exports, "table export"),
                    field(&Table::Entries, "table entry", "table entry"),
                    field(&Table::Import, "import")};
}
constexpr auto fieldsOf(const ir::Module *) {
  return std::tuple{field(&ir::Module::Name),
                    field(&ir::Module::Funcs, "function"),
                    field(&ir::Module::Globals, "global"),
                    field(&ir::Module::Tab),
                    field(&ir::Module::Start, "start", "start function")};
}
/// Type nodes, instructions and the compound field types list their own.
template <HasFields C> constexpr auto fieldsOf(const C *) {
  return C::fields();
}

/// A type written as the concatenation of its fields.
template <class T>
concept Record = requires(const T *P) { fieldsOf(P); };

/// What a vector of T counts, for vector fields that do not name it.
template <class T> constexpr const char *CountOf = nullptr;
template <> constexpr const char *CountOf<InstRef> = "instruction";
template <> constexpr const char *CountOf<LocalEffect> = "local effect";
template <> constexpr const char *CountOf<Index> = "instantiation argument";
template <> constexpr const char *CountOf<Quant> = "quantifier";

//===----------------------------------------------------------------------===//
// The shared walk: one put per field type
//===----------------------------------------------------------------------===//

template <class Em> struct Put {
  Em &E;

  void operator()(uint32_t V) { E.u(V); }
  void operator()(uint64_t V) { E.u(V); }
  void operator()(bool V) { E.u(V ? 1 : 0); }
  template <class T>
    requires std::is_enum_v<T>
  void operator()(T V) {
    E.u(static_cast<uint64_t>(V));
  }
  void operator()(const std::string &S) { E.str(S); }
  void operator()(const Qual &Q) { E.qual(Q); }
  void operator()(const Loc &L) { E.loc(L); }
  void operator()(const SizeRef &S) { E.size(S); }
  void operator()(const PretypeRef &P) { E.pre(P); }
  void operator()(const HeapTypeRef &H) { E.heap(H); }
  void operator()(const FunTypeRef &F) { E.fun(F); }
  void operator()(const Type &T) { E.type(T); }
  void operator()(const Index &I) {
    E.u(static_cast<uint64_t>(I.K));
    switch (I.K) {
    case QuantKind::Loc:
      return E.loc(I.L);
    case QuantKind::Size:
      return E.size(I.Sz);
    case QuantKind::Qual:
      return E.qual(I.Q);
    case QuantKind::Type:
      return E.pre(I.P);
    }
  }
  void operator()(const Quant &Q) {
    E.u(static_cast<uint64_t>(Q.K));
    switch (Q.K) {
    case QuantKind::Loc:
      return;
    case QuantKind::Size:
      (*this)(Q.SizeLower);
      return (*this)(Q.SizeUpper);
    case QuantKind::Qual:
      (*this)(Q.QualLower);
      return (*this)(Q.QualUpper);
    case QuantKind::Type:
      E.qual(Q.TypeQualLower);
      E.size(Q.TypeSizeUpper);
      return (*this)(Q.TypeNoCaps);
    }
  }
  void operator()(const InstRef &I) {
    E.u(static_cast<uint64_t>(I->kind()));
    visitInstClass(I->kind(),
                   [&]<class C>() { (*this)(static_cast<const C &>(*I)); });
  }
  template <class T> void operator()(const std::vector<T> &Vs) {
    E.u(Vs.size());
    for (const T &V : Vs)
      (*this)(V);
  }
  template <class T> void operator()(const std::optional<T> &O) {
    E.u(O ? 1 : 0);
    if (O)
      (*this)(*O);
  }
  template <Record R> void operator()(const R &Rec) {
    std::apply([&](const auto &...F) { (field(Rec, F), ...); },
               fieldsOf(&Rec));
  }

private:
  template <class C, class T>
  void field(const C &Rec, const Field<C, T> &F) {
    (*this)(Rec.*F.Member);
  }
  template <class C> void field(const C &Rec, const ImportOrBody<C> &F) {
    (*this)(Rec.*F.Import);
    if (!(Rec.*F.Import))
      (*this)(Rec.*F.Body);
  }
};

/// Registers a type node, after its children, and returns its table
/// index. Its record is the node's fields, written by the shared walk.
template <class N> uint32_t WriteEmitter::typeNode(const N *P) {
  assert(P && "serializing a null type node");
  auto It = Idx.find(P);
  if (It != Idx.end())
    return It->second;
  if constexpr (std::is_same_v<N, FunType>) {
    return emit(P, TagFun, [&] { Put<WriteEmitter>{*this}(*P); });
  } else {
    uint8_t Tag = (std::is_same_v<N, Pretype> ? TagPre : TagHeap) +
                  static_cast<uint8_t>(P->kind());
    return emit(P, Tag, [&] {
      visitTypeClass(P->kind(), [&]<class C>() {
        Put<WriteEmitter>{*this}(static_cast<const C &>(*P));
      });
    });
  }
}

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

/// A value for the reader to decode into.
template <class T> T blank() {
  if constexpr (std::is_same_v<T, Qual>)
    return Qual::unr();
  else if constexpr (std::is_same_v<T, Loc>)
    return Loc::var(0);
  else
    return T{};
}

constexpr NumType lastOf(NumType) { return NumType::F64; }
constexpr UnopKind lastOf(UnopKind) { return UnopKind::Nearest; }
constexpr BinopKind lastOf(BinopKind) { return BinopKind::Copysign; }
constexpr TestopKind lastOf(TestopKind) { return TestopKind::Eqz; }
constexpr RelopKind lastOf(RelopKind) { return RelopKind::Ge; }
constexpr CvtopKind lastOf(CvtopKind) { return CvtopKind::Reinterpret; }
constexpr Privilege lastOf(Privilege) { return Privilege::RW; }

class Reader {
public:
  Reader(const uint8_t *D, size_t N, TypeArena &A) : D(D), N(N), A(A) {}

  bool run(ir::Module &M) {
    return nodeTable() && get(M, nullptr, nullptr) && atEnd();
  }
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
  /// Instruction nesting depth of the record being read.
  unsigned Depth = 0;
  /// The first out-of-range enum field of the instruction being read.
  const char *BadEnum = nullptr;

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
  /// A boolean: the writer emits only 0 or 1, so any other value is
  /// corruption (it would let distinct byte strings decode to one module).
  bool flag(bool &V, const char *What) {
    uint64_t X;
    if (!u(X))
      return false;
    if (X > 1)
      return fail(std::string("bad ") + What + " flag");
    V = X == 1;
    return true;
  }

  // One get per field type; Name and Item come from the field's entry.
  bool get(uint32_t &V, const char *Name, const char *) {
    return u32(V, Name);
  }
  bool get(uint64_t &V, const char *, const char *) { return u(V); }
  bool get(bool &V, const char *Name, const char *) { return flag(V, Name); }
  /// Enum fields are range-checked once the whole instruction is read, so
  /// the diagnostic names the instruction and points past its immediates.
  template <class T>
    requires std::is_enum_v<T>
  bool get(T &V, const char *Name, const char *) {
    uint64_t X;
    if (!u(X))
      return false;
    if (X > static_cast<uint64_t>(lastOf(T{})))
      BadEnum = BadEnum ? BadEnum : Name;
    else
      V = static_cast<T>(X);
    return true;
  }
  bool get(std::string &S, const char *, const char *) { return str(S); }
  bool get(Qual &Q, const char *, const char *) { return qual(Q); }
  bool get(Loc &L, const char *, const char *) { return loc(L); }
  bool get(SizeRef &S, const char *, const char *) { return optSize(S); }
  bool get(PretypeRef &P, const char *, const char *) { return preRef(P); }
  bool get(HeapTypeRef &H, const char *, const char *) { return heapRef(H); }
  bool get(FunTypeRef &F, const char *, const char *) { return funRef(F); }
  bool get(Type &T, const char *, const char *) { return type(T); }
  bool get(Quant &Q, const char *, const char *);
  bool get(Index &I, const char *, const char *);
  bool get(InstRef &I, const char *, const char *);
  template <class T>
  bool get(std::vector<T> &Vs, const char *Name, const char *Item) {
    uint64_t C;
    assert((Name || CountOf<T>) && "vector field without a count label");
    if (!count(C, Name ? Name : CountOf<T>))
      return false;
    Vs.resize(C, blank<T>());
    for (T &V : Vs)
      if (!get(V, Item, nullptr))
        return false;
    return true;
  }
  template <class T>
  bool get(std::optional<T> &O, const char *Name, const char *Item) {
    bool Present;
    if (!flag(Present, Name))
      return false;
    O.reset();
    if (!Present)
      return true;
    T V = blank<T>();
    if (!get(V, Item, nullptr))
      return false;
    O = std::move(V);
    return true;
  }
  template <Record R> bool get(R &Rec, const char *, const char *) {
    return std::apply([&](const auto &...F) { return (field(Rec, F) && ...); },
                      fieldsOf(&Rec));
  }
  template <class C, class T> bool field(C &Rec, const Field<C, T> &F) {
    return get(Rec.*F.Member, F.Name, F.Item);
  }
  template <class C> bool field(C &Rec, const ImportOrBody<C> &F) {
    return get(Rec.*F.Import, "import", nullptr) &&
           (Rec.*F.Import || get(Rec.*F.Body, nullptr, nullptr));
  }
  template <class C> bool fields(FieldValues<C> &Vals);
  template <class C> bool build(InstKind K, InstRef &Out);
  template <class C, class Ref>
  bool typeNode(std::vector<Ref> &Table, Cat Category);

  bool nodeTable();
  bool node();
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

  if (Tag == TagFun)
    return typeNode<FunType>(Funs, Cat::Fun);
  if (Tag >= TagHeap && Tag < TagHeap + NumHeapTypeKinds)
    return visitTypeClass(static_cast<HeapTypeKind>(Tag - TagHeap),
                          [&]<class C>() { return typeNode<C>(Heaps, Cat::Heap); });
  if (Tag >= TagPre && Tag < TagPre + NumPretypeKinds)
    return visitTypeClass(static_cast<PretypeKind>(Tag - TagPre),
                          [&]<class C>() { return typeNode<C>(Pres, Cat::Pre); });

  return fail("unknown type-table tag");
}

bool Reader::get(Quant &Q, const char *, const char *) {
  uint64_t K;
  if (!u(K))
    return false;
  if (K > static_cast<uint64_t>(QuantKind::Type))
    return fail("bad quantifier kind");
  Q.K = static_cast<QuantKind>(K);
  switch (Q.K) {
  case QuantKind::Loc:
    return true;
  case QuantKind::Size:
    return get(Q.SizeLower, "size bound", nullptr) &&
           get(Q.SizeUpper, "size bound", nullptr);
  case QuantKind::Qual:
    return get(Q.QualLower, "qualifier bound", nullptr) &&
           get(Q.QualUpper, "qualifier bound", nullptr);
  case QuantKind::Type:
    return qual(Q.TypeQualLower) && optSize(Q.TypeSizeUpper) &&
           flag(Q.TypeNoCaps, "no-caps");
  }
  return true;
}

bool Reader::get(Index &I, const char *, const char *) {
  uint64_t K;
  if (!u(K))
    return false;
  if (K > static_cast<uint64_t>(QuantKind::Type))
    return fail("bad instantiation-argument kind");
  I.K = static_cast<QuantKind>(K);
  switch (I.K) {
  case QuantKind::Loc:
    return loc(I.L);
  case QuantKind::Size:
    return optSize(I.Sz);
  case QuantKind::Qual:
    return qual(I.Q);
  case QuantKind::Type:
    return preRef(I.P);
  }
  return true;
}

bool Reader::get(InstRef &I, const char *, const char *) {
  if (Depth > MaxInstDepth)
    return fail("instruction nesting too deep");
  uint64_t KV;
  if (!u(KV))
    return false;
  if (KV > static_cast<uint64_t>(InstKind::ExistUnpack))
    return fail("unknown instruction kind");
  InstKind K = static_cast<InstKind>(KV);
  return visitInstClass(K, [&]<class C>() { return build<C>(K, I); });
}

/// A blank value per field of class \p C, for the reader to decode into.
template <class C> FieldValues<C> blankFields() {
  return std::apply(
      []<class... Cs, class... Ts>(const Field<Cs, Ts> &...) {
        return FieldValues<C>{blank<Ts>()...};
      },
      C::fields());
}

/// Reads the fields of a class-\p C node into \p Vals, in C::fields()
/// order. Enum fields are range-checked once all fields are read, so the
/// diagnostic names the node's field and points past its immediates.
template <class C> bool Reader::fields(FieldValues<C> &Vals) {
  constexpr auto Fs = C::fields();
  const char *Outer = std::exchange(BadEnum, nullptr);
  bool Ok = [&]<size_t... J>(std::index_sequence<J...>) {
    return (get(std::get<J>(Vals), std::get<J>(Fs).Name,
                std::get<J>(Fs).Item) &&
            ...);
  }(std::make_index_sequence<std::tuple_size_v<decltype(Fs)>>());
  if (!Ok)
    return false;
  if (BadEnum)
    return fail(std::string("bad ") + BadEnum);
  BadEnum = Outer;
  return true;
}

/// Reads a class-\p C instruction, then constructs the node.
template <class C> bool Reader::build(InstKind K, InstRef &Out) {
  FieldValues<C> Vals = blankFields<C>();
  ++Depth;
  bool Ok = fields<C>(Vals);
  --Depth;
  if (!Ok)
    return false;
  Out = makeInst<C>(K, std::move(Vals));
  return true;
}

/// Reads one type-table record of class \p C, interns it, and appends it
/// to \p Table.
template <class C, class Ref>
bool Reader::typeNode(std::vector<Ref> &Table, Cat Category) {
  FieldValues<C> Vals = blankFields<C>();
  if (!fields<C>(Vals))
    return false;
  Ref R = A.intern<C>(std::move(Vals));
  if (!recordNode(R.get()))
    return false;
  Slots.push_back({Category, static_cast<uint32_t>(Table.size())});
  Table.push_back(std::move(R));
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
  Put<WriteEmitter>{E}(M);

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
  Put<HashEmitter>{E}(M);
  // One final avalanche so prefix-equal modules with different tails
  // still differ in both words.
  return ModuleHash{mix64(E.A ^ 0x2545f4914f6cdd1dull), mix64(E.B)};
}
