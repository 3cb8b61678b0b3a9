//===- tests/TypeGen.h - Seeded random RichWasm types -----------*- C++ -*-===//
//
// The random type generator the interner and serializer suites share:
// every pretype, heap type, function type, qualifier, location and size
// form, nested to a chosen depth.
//
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_TESTS_TYPEGEN_H
#define RICHWASM_TESTS_TYPEGEN_H

#include "ir/Builder.h"

#include <random>

namespace rwtest {

using namespace rw::ir;

/// Seeded random type generator. The same seed yields the same structure,
/// so one tree can be regenerated inside independent arenas. Skolem ids
/// and bounds vary independently — skolem identity is (id, bounds), for
/// interning and structural equality alike.
struct TypeGen {
  std::mt19937_64 Rng;
  explicit TypeGen(uint64_t Seed) : Rng(Seed) {}
  uint32_t pick(uint32_t N) { return static_cast<uint32_t>(Rng() % N); }

  Qual qual() {
    switch (pick(4)) {
    case 0:
      return Qual::lin();
    case 1:
      return Qual::var(pick(3));
    default:
      return Qual::unr();
    }
  }

  Loc loc() {
    switch (pick(3)) {
    case 0:
      return Loc::var(pick(3));
    case 1:
      return Loc::concrete(pick(2) ? MemKind::Lin : MemKind::Unr, pick(8));
    default:
      return Loc::skolem(pick(4));
    }
  }

  SizeRef size(unsigned D) {
    switch (D == 0 ? pick(2) : pick(4)) {
    case 0:
      return Size::constant(pick(5) * 32);
    case 1:
      return Size::var(pick(4));
    default:
      return Size::plus(size(D - 1), size(D - 1));
    }
  }

  Type type(unsigned D) { return Type(pretype(D), qual()); }

  PretypeRef pretype(unsigned D) {
    switch (D == 0 ? pick(6) : pick(12)) {
    case 0:
      return unitPT();
    case 1:
      return numPT(static_cast<NumType>(pick(6)));
    case 2:
      return varPT(pick(4));
    case 3:
      return ptrPT(loc());
    case 4:
      return ownPT(loc());
    case 5:
      return skolemPT(pick(3), pick(2) ? Qual::lin() : Qual::unr(),
                      Size::constant(32 + 32 * pick(3)), pick(2) == 0);
    case 6: {
      std::vector<Type> Es;
      for (unsigned I = 0, N = pick(3); I < N; ++I)
        Es.push_back(type(D - 1));
      return prodPT(std::move(Es));
    }
    case 7:
      return refPT(pick(2) ? Privilege::RW : Privilege::R, loc(),
                   heap(D - 1));
    case 8:
      return capPT(pick(2) ? Privilege::RW : Privilege::R, loc(),
                   heap(D - 1));
    case 9:
      return recPT(qual(), type(D - 1));
    case 10:
      return exLocPT(type(D - 1));
    default:
      return coderefPT(fun(D - 1));
    }
  }

  HeapTypeRef heap(unsigned D) {
    switch (pick(4)) {
    case 0: {
      std::vector<Type> Cs;
      for (unsigned I = 0, N = 1 + pick(2); I < N; ++I)
        Cs.push_back(type(D));
      return variantHT(std::move(Cs));
    }
    case 1: {
      std::vector<StructField> Fs;
      for (unsigned I = 0, N = pick(3); I < N; ++I)
        Fs.push_back({type(D), size(1)});
      return structHT(std::move(Fs));
    }
    case 2:
      return arrayHT(type(D));
    default:
      return exHT(qual(), size(1), type(D));
    }
  }

  FunTypeRef fun(unsigned D) {
    std::vector<Quant> Qs;
    for (unsigned I = 0, N = pick(3); I < N; ++I) {
      switch (pick(4)) {
      case 0:
        Qs.push_back(Quant::loc());
        break;
      case 1:
        Qs.push_back(Quant::size({size(0)}, {size(0)}));
        break;
      case 2:
        Qs.push_back(Quant::qual({qual()}, {}));
        break;
      default:
        Qs.push_back(Quant::type(qual(), size(1), pick(2) == 0));
        break;
      }
    }
    ArrowType A;
    for (unsigned I = 0, N = pick(3); I < N; ++I)
      A.Params.push_back(type(D));
    for (unsigned I = 0, N = pick(2); I < N; ++I)
      A.Results.push_back(type(D));
    return FunType::get(std::move(Qs), std::move(A));
  }
};

} // namespace rwtest

#endif // RICHWASM_TESTS_TYPEGEN_H
