//===- lower/Runtime.cpp - Emitted allocator + host GC ---------------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "lower/Runtime.h"

#include "exec/Translate.h"
#include "wasm/Validate.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace rw;
using namespace rw::lower;
using namespace rw::wasm;

namespace {

/// The allocator functions, built, validated and translated once per
/// process. Their bodies name globals by the fixed indices RuntimeLayout
/// gives them and call nothing, so every lowered module can reference
/// them as they are.
struct Prelude {
  SharedFunc Alloc, Free;
};

Prelude buildPrelude() {
  constexpr RuntimeLayout L;
  Prelude P;

  //===------------------------------------------------------------------===//
  // rw_alloc(payload: i32, flags: i32, ptrmap: i32) -> i32
  //   locals: 3 = total, 4 = prev, 5 = cur, 6 = blk, 7 = scratch
  //===------------------------------------------------------------------===//
  {
    using W = WInst;
    std::vector<WInst> Body;
    auto Emit = [&](WInst I) { Body.push_back(std::move(I)); };

    // total = (payload + HEADER + 7) & ~7
    Emit(W::idx(Op::LocalGet, 0));
    Emit(W::i32c(RuntimeLayout::HeaderBytes + 7));
    Emit(W::mk(Op::I32Add));
    Emit(W::i32c(~7));
    Emit(W::mk(Op::I32And));
    Emit(W::idx(Op::LocalSet, 3));

    // prev = 0; cur = G_FREE
    Emit(W::i32c(0));
    Emit(W::idx(Op::LocalSet, 4));
    Emit(W::idx(Op::GlobalGet, L.GFree));
    Emit(W::idx(Op::LocalSet, 5));

    // block $found { block $bump { loop $scan { ... } } bump-path } init
    std::vector<WInst> Scan;
    auto S = [&](WInst I) { Scan.push_back(std::move(I)); };
    // if cur == 0 break to $bump (depth 1 from inside loop)
    S(W::idx(Op::LocalGet, 5));
    S(W::mk(Op::I32Eqz));
    S(W::idx(Op::BrIf, 1));
    // if load(cur) >= total: take this block
    S(W::idx(Op::LocalGet, 5));
    S(W::mem(Op::I32Load, 2, 0));
    S(W::idx(Op::LocalGet, 3));
    S(W::mk(Op::I32GeU));
    {
      std::vector<WInst> Take;
      auto T = [&](WInst I) { Take.push_back(std::move(I)); };
      // scratch = next = load(cur + 8)
      T(W::idx(Op::LocalGet, 5));
      T(W::mem(Op::I32Load, 2, 8));
      T(W::idx(Op::LocalSet, 7));
      // Split when the remainder is big enough for a free block.
      // if load(cur) - total >= 24:
      T(W::idx(Op::LocalGet, 5));
      T(W::mem(Op::I32Load, 2, 0));
      T(W::idx(Op::LocalGet, 3));
      T(W::mk(Op::I32Sub));
      T(W::i32c(24));
      T(W::mk(Op::I32GeU));
      {
        std::vector<WInst> Split;
        auto P = [&](WInst I) { Split.push_back(std::move(I)); };
        // rem = cur + total; store(rem, load(cur) - total);
        // store(rem+4, 0); store(rem+8, scratch); scratch = rem
        P(W::idx(Op::LocalGet, 5));
        P(W::idx(Op::LocalGet, 3));
        P(W::mk(Op::I32Add));
        P(W::idx(Op::LocalGet, 5));
        P(W::mem(Op::I32Load, 2, 0));
        P(W::idx(Op::LocalGet, 3));
        P(W::mk(Op::I32Sub));
        P(W::mem(Op::I32Store, 2, 0));
        P(W::idx(Op::LocalGet, 5));
        P(W::idx(Op::LocalGet, 3));
        P(W::mk(Op::I32Add));
        P(W::i32c(0));
        P(W::mem(Op::I32Store, 2, 4));
        P(W::idx(Op::LocalGet, 5));
        P(W::idx(Op::LocalGet, 3));
        P(W::mk(Op::I32Add));
        P(W::idx(Op::LocalGet, 7));
        P(W::mem(Op::I32Store, 2, 8));
        P(W::idx(Op::LocalGet, 5));
        P(W::idx(Op::LocalGet, 3));
        P(W::mk(Op::I32Add));
        P(W::idx(Op::LocalSet, 7));
        // store(cur, total) — shrink the taken block.
        P(W::idx(Op::LocalGet, 5));
        P(W::idx(Op::LocalGet, 3));
        P(W::mem(Op::I32Store, 2, 0));
        T(W::ifElse({{}, {}}, std::move(Split), {}));
      }
      // Unlink: if prev: store(prev+8, scratch) else G_FREE = scratch
      T(W::idx(Op::LocalGet, 4));
      {
        std::vector<WInst> HasPrev = {
            W::idx(Op::LocalGet, 4),
            W::idx(Op::LocalGet, 7),
            W::mem(Op::I32Store, 2, 8),
        };
        std::vector<WInst> NoPrev = {
            W::idx(Op::LocalGet, 7),
            W::idx(Op::GlobalSet, L.GFree),
        };
        T(W::ifElse({{}, {}}, std::move(HasPrev), std::move(NoPrev)));
      }
      // blk = cur; br $found (depth 2 from inside loop)
      T(W::idx(Op::LocalGet, 5));
      T(W::idx(Op::LocalSet, 6));
      T(W::idx(Op::Br, 3));
      S(W::ifElse({{}, {}}, std::move(Take), {}));
    }
    // prev = cur; cur = load(cur + 8); continue
    S(W::idx(Op::LocalGet, 5));
    S(W::idx(Op::LocalSet, 4));
    S(W::idx(Op::LocalGet, 5));
    S(W::mem(Op::I32Load, 2, 8));
    S(W::idx(Op::LocalSet, 5));
    S(W::idx(Op::Br, 0));

    std::vector<WInst> BumpPath;
    auto Bp = [&](WInst I) { BumpPath.push_back(std::move(I)); };
    Bp(W::loop({{}, {}}, std::move(Scan)));
    // (falls through only via the br_if above)
    std::vector<WInst> FoundBody;
    auto Fb = [&](WInst I) { FoundBody.push_back(std::move(I)); };
    Fb(W::block({{}, {}}, std::move(BumpPath)));
    // Bump path: blk = G_BUMP; ensure capacity; G_BUMP += total.
    Fb(W::idx(Op::GlobalGet, L.GBump));
    Fb(W::idx(Op::LocalSet, 6));
    // while (blk + total > memory.size * 64K) grow 1 page (or trap).
    {
      std::vector<WInst> GrowLoop;
      auto G = [&](WInst I) { GrowLoop.push_back(std::move(I)); };
      G(W::idx(Op::LocalGet, 6));
      G(W::idx(Op::LocalGet, 3));
      G(W::mk(Op::I32Add));
      G(W::mk(Op::MemorySize));
      G(W::i32c(16));
      G(W::mk(Op::I32Shl));
      G(W::mk(Op::I32LeU));
      G(W::idx(Op::BrIf, 1)); // Enough space: exit the grow loop.
      G(W::i32c(1));
      G(W::mk(Op::MemoryGrow));
      G(W::i32c(-1));
      G(W::mk(Op::I32Eq));
      {
        std::vector<WInst> Oom = {W::mk(Op::Unreachable)};
        G(W::ifElse({{}, {}}, std::move(Oom), {}));
      }
      G(W::idx(Op::Br, 0));
      std::vector<WInst> GrowBlock;
      GrowBlock.push_back(W::loop({{}, {}}, std::move(GrowLoop)));
      Fb(W::block({{}, {}}, std::move(GrowBlock)));
    }
    Fb(W::idx(Op::LocalGet, 6));
    Fb(W::idx(Op::LocalGet, 3));
    Fb(W::mk(Op::I32Add));
    Fb(W::idx(Op::GlobalSet, L.GBump));
    // store(blk, total)
    Fb(W::idx(Op::LocalGet, 6));
    Fb(W::idx(Op::LocalGet, 3));
    Fb(W::mem(Op::I32Store, 2, 0));

    Emit(W::block({{}, {}}, std::move(FoundBody)));
    // Common init: flags, ptrmap, zero payload, counters.
    Emit(W::idx(Op::LocalGet, 6));
    Emit(W::idx(Op::LocalGet, 1));
    Emit(W::i32c(RtAllocated));
    Emit(W::mk(Op::I32Or));
    Emit(W::mem(Op::I32Store, 2, 4));
    Emit(W::idx(Op::LocalGet, 6));
    Emit(W::idx(Op::LocalGet, 2));
    Emit(W::mem(Op::I32Store, 2, 8));
    // scratch = blk + HEADER; zero until blk + total.
    Emit(W::idx(Op::LocalGet, 6));
    Emit(W::i32c(RuntimeLayout::HeaderBytes));
    Emit(W::mk(Op::I32Add));
    Emit(W::idx(Op::LocalSet, 7));
    {
      std::vector<WInst> ZeroLoop;
      auto Z = [&](WInst I) { ZeroLoop.push_back(std::move(I)); };
      Z(W::idx(Op::LocalGet, 7));
      Z(W::idx(Op::LocalGet, 6));
      Z(W::idx(Op::LocalGet, 3));
      Z(W::mk(Op::I32Add));
      Z(W::mk(Op::I32GeU));
      Z(W::idx(Op::BrIf, 1));
      Z(W::idx(Op::LocalGet, 7));
      Z(W::i32c(0));
      Z(W::mem(Op::I32Store, 2, 0));
      Z(W::idx(Op::LocalGet, 7));
      Z(W::i32c(4));
      Z(W::mk(Op::I32Add));
      Z(W::idx(Op::LocalSet, 7));
      Z(W::idx(Op::Br, 0));
      std::vector<WInst> ZeroBlock;
      ZeroBlock.push_back(W::loop({{}, {}}, std::move(ZeroLoop)));
      Emit(W::block({{}, {}}, std::move(ZeroBlock)));
    }
    Emit(W::idx(Op::GlobalGet, L.GLive));
    Emit(W::i32c(1));
    Emit(W::mk(Op::I32Add));
    Emit(W::idx(Op::GlobalSet, L.GLive));
    Emit(W::idx(Op::GlobalGet, L.GAllocs));
    Emit(W::i32c(1));
    Emit(W::mk(Op::I32Add));
    Emit(W::idx(Op::GlobalSet, L.GAllocs));
    Emit(W::idx(Op::LocalGet, 6));
    Emit(W::i32c(RuntimeLayout::HeaderBytes));
    Emit(W::mk(Op::I32Add));

    P.Alloc.Type = {{ValType::I32, ValType::I32, ValType::I32},
                    {ValType::I32}};
    P.Alloc.Locals = {ValType::I32, ValType::I32, ValType::I32, ValType::I32,
                      ValType::I32};
    P.Alloc.Body = std::move(Body);
  }

  //===------------------------------------------------------------------===//
  // rw_free(ptr: i32)
  //===------------------------------------------------------------------===//
  {
    using W = WInst;
    std::vector<WInst> Body;
    auto Emit = [&](WInst I) { Body.push_back(std::move(I)); };
    // blk = ptr - HEADER (local 1)
    Emit(W::idx(Op::LocalGet, 0));
    Emit(W::i32c(RuntimeLayout::HeaderBytes));
    Emit(W::mk(Op::I32Sub));
    Emit(W::idx(Op::LocalSet, 1));
    // store(blk+4, 0); store(blk+8, G_FREE); G_FREE = blk
    Emit(W::idx(Op::LocalGet, 1));
    Emit(W::i32c(0));
    Emit(W::mem(Op::I32Store, 2, 4));
    Emit(W::idx(Op::LocalGet, 1));
    Emit(W::idx(Op::GlobalGet, L.GFree));
    Emit(W::mem(Op::I32Store, 2, 8));
    Emit(W::idx(Op::LocalGet, 1));
    Emit(W::idx(Op::GlobalSet, L.GFree));
    Emit(W::idx(Op::GlobalGet, L.GLive));
    Emit(W::i32c(1));
    Emit(W::mk(Op::I32Sub));
    Emit(W::idx(Op::GlobalSet, L.GLive));
    Emit(W::idx(Op::GlobalGet, L.GFrees));
    Emit(W::i32c(1));
    Emit(W::mk(Op::I32Add));
    Emit(W::idx(Op::GlobalSet, L.GFrees));

    P.Free.Type = {{ValType::I32}, {}};
    P.Free.Locals = {ValType::I32};
    P.Free.Body = std::move(Body);
  }

  // Prove and translate each body once, in one walk. That cannot fail
  // for this code; if it did, the function would simply stay unproven
  // and every module would validate and translate it from its tree.
  for (SharedFunc *F : {&P.Alloc, &P.Free}) {
    F->NumGlobals = RuntimeLayout::NumGlobals;
    bool Proven = bool(exec::proveShared(*F));
    assert(Proven && "runtime prelude failed validation");
    (void)Proven;
  }
  return P;
}

const Prelude &prelude() {
  static const Prelude P = buildPrelude();
  return P;
}

} // namespace

RuntimeLayout rw::lower::emitRuntime(WModule &M) {
  assert(M.Globals.empty() &&
         "the runtime globals must be the first globals of the module");
  const Prelude &P = prelude();
  RuntimeLayout L;
  M.Globals.push_back({ValType::I32, true, {WInst::i32c(0)}}); // GFree
  M.Globals.push_back(
      {ValType::I32, true, {WInst::i32c(RuntimeLayout::HeapBase)}}); // GBump
  for (int I = 0; I < 3; ++I) // GLive, GAllocs, GFrees
    M.Globals.push_back({ValType::I32, true, {WInst::i32c(0)}});
  if (!M.Memory)
    M.Memory = {{1, std::nullopt}};

  uint32_t TI = M.addType(P.Alloc.Type);
  L.AllocFunc = M.numFuncs();
  M.Funcs.push_back({TI, P.Alloc.Locals, WBody(P.Alloc)});
  TI = M.addType(P.Free.Type);
  L.FreeFunc = M.numFuncs();
  M.Funcs.push_back({TI, P.Free.Locals, WBody(P.Free)});
  return L;
}

//===----------------------------------------------------------------------===//
// Host-assisted GC
//===----------------------------------------------------------------------===//

HostGc::Stats HostGc::collect(const std::vector<uint32_t> &ExtraRoots) {
  Stats St;
  std::vector<uint8_t> &Mem = Inst.memory();
  uint32_t Bump = Inst.global(L.GBump).asU32();

  // Every bound below is computed in 64 bits: the heap words are the
  // program's to write, so none of them may wrap an address check.
  auto InMem = [&](uint64_t A, uint64_t N) { return A + N <= Mem.size(); };
  auto Load = [&](uint32_t A) -> uint32_t {
    if (!InMem(A, 4))
      return 0;
    uint32_t V;
    std::memcpy(&V, Mem.data() + A, 4);
    return V;
  };
  auto Store = [&](uint32_t A, uint32_t V) {
    if (InMem(A, 4))
      std::memcpy(Mem.data() + A, &V, 4);
  };

  // Phase 0: walk the heap to learn the valid payload addresses. The walk
  // ascends, so Blocks comes out sorted.
  uint64_t End = std::min<uint64_t>(Bump, Mem.size());
  std::vector<uint32_t> Blocks; // block start addresses (allocated only)
  for (uint32_t B = RuntimeLayout::HeapBase; B < End;) {
    uint32_t Size = Load(B);
    if (Size < RuntimeLayout::HeaderBytes || uint64_t(B) + Size > End)
      break; // Corrupt heap; stop scanning defensively.
    if (Load(B + 4) & RtAllocated)
      Blocks.push_back(B);
    B += Size;
  }
  auto IsPayload = [&](uint32_t P) {
    return P >= RuntimeLayout::HeaderBytes &&
           std::binary_search(Blocks.begin(), Blocks.end(),
                              P - RuntimeLayout::HeaderBytes);
  };

  // Phase 1: mark.
  std::vector<uint32_t> Work;
  for (uint32_t G : RefGlobals) {
    uint32_t P = Inst.global(G).asU32();
    if (IsPayload(P))
      Work.push_back(P);
  }
  for (uint32_t P : ExtraRoots)
    if (IsPayload(P))
      Work.push_back(P);

  while (!Work.empty()) {
    uint32_t P = Work.back();
    Work.pop_back();
    uint32_t B = P - RuntimeLayout::HeaderBytes;
    uint32_t Flags = Load(B + 4);
    if (Flags & RtMark)
      continue;
    Store(B + 4, Flags | RtMark);
    ++St.Marked;
    uint32_t Size = Load(B);
    uint32_t Map = Load(B + 8);
    uint32_t PayloadBytes = Size - RuntimeLayout::HeaderBytes;
    auto ScanWord = [&](uint32_t Addr) {
      uint32_t C = Load(Addr);
      if (IsPayload(C))
        Work.push_back(C);
    };
    if (Flags & RtArray) {
      uint32_t Stride = Flags >> RtElemShift;
      if (Stride == 0 || PayloadBytes < 4)
        continue;
      // First payload word is the length; scan no further than the block.
      uint32_t Len = static_cast<uint32_t>(std::min<uint64_t>(
          Load(P), (PayloadBytes - 4) / Stride));
      for (uint32_t E = 0; E < Len; ++E) {
        uint32_t Base = P + 4 + E * Stride;
        for (uint32_t Wd = 0; Wd * 4 < Stride; ++Wd)
          if (Map & (1u << (Wd < 29 ? Wd : 28)))
            ScanWord(Base + Wd * 4);
      }
    } else {
      for (uint32_t Wd = 0; Wd * 4 < PayloadBytes; ++Wd) {
        bool IsPtr = Wd < 29 ? (Map & (1u << Wd)) != 0
                             : true; // Conservative beyond the map width.
        if (IsPtr)
          ScanWord(P + Wd * 4);
      }
    }
  }

  // Phase 2: sweep unmarked unrestricted blocks; clear marks.
  uint32_t FreeHead = Inst.global(L.GFree).asU32();
  uint32_t Live = Inst.global(L.GLive).asU32();
  uint32_t Frees = Inst.global(L.GFrees).asU32();
  for (uint32_t B : Blocks) {
    uint32_t Flags = Load(B + 4);
    if (Flags & RtMark) {
      Store(B + 4, Flags & ~RtMark);
      continue;
    }
    if (Flags & RtLinear)
      continue; // Linear memory is manually managed (or finalized below).
    // Free the block: [size][0][next] onto the free list.
    Store(B + 4, 0);
    Store(B + 8, FreeHead);
    FreeHead = B;
    ++St.Swept;
    St.BytesReclaimed += Load(B);
    --Live;
    ++Frees;
  }
  Inst.setGlobal(L.GFree, wasm::WValue::i32(FreeHead));
  Inst.setGlobal(L.GLive, wasm::WValue::i32(Live));
  Inst.setGlobal(L.GFrees, wasm::WValue::i32(Frees));
  return St;
}
