//===- lower/Rep.cpp - Type representations --------------------------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "lower/Rep.h"

#include "ir/Rewrite.h"

using namespace rw;
using namespace rw::lower;
using namespace rw::ir;
using wasm::ValType;

static Expected<uint32_t> boundWords(const SizeRef &Bound) {
  NormalSize N = normalizeSize(Bound);
  if (!N.isConst())
    return Error("pretype bound is not a constant size; boxing of "
                 "unknown-size abstractions is not supported");
  return static_cast<uint32_t>((N.Const + 31) / 32);
}

Expected<std::vector<ValType>>
rw::lower::repOfPretype(const Pretype *P, const TypeVarSizes &Bounds) {
  switch (P->kind()) {
  case PretypeKind::Unit:
  case PretypeKind::Cap:
  case PretypeKind::Own:
    return std::vector<ValType>{};
  case PretypeKind::Num:
    return std::vector<ValType>{wasm::valTypeOf(cast<NumPT>(P)->numType())};
  case PretypeKind::Ref:
  case PretypeKind::Ptr:
  case PretypeKind::Coderef:
    return std::vector<ValType>{ValType::I32};
  case PretypeKind::Prod: {
    std::vector<ValType> Out;
    for (const Type &E : cast<ProdPT>(P)->elems()) {
      Expected<std::vector<ValType>> R = repOfType(E, Bounds);
      if (!R)
        return R;
      Out.insert(Out.end(), R->begin(), R->end());
    }
    return Out;
  }
  case PretypeKind::Var: {
    uint32_t Idx = cast<VarPT>(P)->index();
    if (Idx >= Bounds.size())
      return Error("unbound pretype variable survived to lowering");
    Expected<uint32_t> W = boundWords(Bounds[Idx]);
    if (!W)
      return W.error();
    return std::vector<ValType>(*W, ValType::I32);
  }
  case PretypeKind::Skolem: {
    Expected<uint32_t> W = boundWords(cast<SkolemPT>(P)->sizeUpper());
    if (!W)
      return W.error();
    return std::vector<ValType>(*W, ValType::I32);
  }
  case PretypeKind::Rec: {
    // The rec variable only occurs behind a reference; represent the body
    // with the variable mapped to a single pointer word, which is exactly
    // what any occurrence (necessarily under ref) lowers to anyway.
    Subst S = Subst::onePretype(ptrPT(Loc::concrete(MemKind::Unr, 0)));
    return repOfType(S.rewrite(cast<RecPT>(P)->body()), Bounds);
  }
  case PretypeKind::ExLoc:
    return repOfType(cast<ExLocPT>(P)->body(), Bounds);
  }
  return Error("unhandled pretype in lowering");
}

Expected<std::vector<ValType>>
rw::lower::repOfType(TypeRef T, const TypeVarSizes &Bounds) {
  return repOfPretype(T.P, Bounds);
}

Expected<std::vector<ValType>>
rw::lower::repOfTypes(const std::vector<Type> &Ts,
                      const TypeVarSizes &Bounds) {
  std::vector<ValType> Out;
  for (const Type &T : Ts) {
    Expected<std::vector<ValType>> R = repOfType(T, Bounds);
    if (!R)
      return R;
    Out.insert(Out.end(), R->begin(), R->end());
  }
  return Out;
}

Expected<uint32_t> rw::lower::byteSizeOfType(TypeRef T,
                                             const TypeVarSizes &Bounds) {
  Expected<std::vector<ValType>> R = repOfType(T, Bounds);
  if (!R)
    return R.error();
  uint32_t Bytes = 0;
  for (ValType V : *R)
    Bytes += valTypeBytes(V);
  return Bytes;
}

Expected<uint32_t> rw::lower::slotBytes(const SizeRef &Sz) {
  NormalSize N = normalizeSize(Sz);
  if (!N.isConst())
    return Error("slot size is not closed at lowering time");
  return static_cast<uint32_t>((N.Const + 7) / 8);
}

Expected<std::vector<bool>>
rw::lower::refMaskOfType(TypeRef T, const TypeVarSizes &Bounds) {
  std::vector<bool> Mask;
  // Pointer-ness per component, expanded to 4-byte words.
  // Recompute structurally: walk the type the same way repOfPretype does.
  struct Walker {
    const TypeVarSizes &Bounds;
    Status walk(TypeRef T, std::vector<bool> &Out) {
      return walkP(T.P, Out);
    }
    Status walkP(const Pretype *P, std::vector<bool> &Out) {
      switch (P->kind()) {
      case PretypeKind::Unit:
      case PretypeKind::Cap:
      case PretypeKind::Own:
        return Status::success();
      case PretypeKind::Num: {
        uint64_t Bits = numTypeBits(cast<NumPT>(P)->numType());
        for (uint64_t I = 0; I < Bits / 32; ++I)
          Out.push_back(false);
        return Status::success();
      }
      case PretypeKind::Ref:
      case PretypeKind::Ptr:
        Out.push_back(true);
        return Status::success();
      case PretypeKind::Coderef:
        Out.push_back(false); // Table index, not a heap pointer.
        return Status::success();
      case PretypeKind::Prod: {
        for (const Type &E : cast<ProdPT>(P)->elems())
          if (Status S = walk(E, Out); !S)
            return S;
        return Status::success();
      }
      case PretypeKind::Skolem: {
        const auto *Sk = cast<SkolemPT>(P);
        NormalSize N = normalizeSize(Sk->sizeUpper());
        if (!N.isConst())
          return Error("pretype bound is not a constant size");
        for (uint64_t I = 0; I < (N.Const + 31) / 32; ++I)
          Out.push_back(true); // Conservative: may hold a pointer.
        return Status::success();
      }
      case PretypeKind::Var: {
        uint32_t Idx = cast<VarPT>(P)->index();
        if (Idx >= Bounds.size())
          return Error("unbound pretype variable in refMask");
        NormalSize N = normalizeSize(Bounds[Idx]);
        if (!N.isConst())
          return Error("pretype bound is not a constant size");
        for (uint64_t I = 0; I < (N.Const + 31) / 32; ++I)
          Out.push_back(true); // Conservative: may hold a pointer.
        return Status::success();
      }
      case PretypeKind::Rec: {
        Subst S = Subst::onePretype(ptrPT(Loc::concrete(MemKind::Unr, 0)));
        return walk(S.rewrite(cast<RecPT>(P)->body()), Out);
      }
      case PretypeKind::ExLoc:
        return walk(cast<ExLocPT>(P)->body(), Out);
      }
      return Status::success();
    }
  };
  Walker W{Bounds};
  if (Status S = W.walk(T, Mask); !S)
    return S.error();
  return Mask;
}

uint32_t rw::lower::packPtrMap(const std::vector<bool> &Mask) {
  uint32_t Out = 0;
  for (size_t I = 0; I < Mask.size() && I < 29; ++I)
    if (Mask[I])
      Out |= 1u << I;
  return Out;
}
