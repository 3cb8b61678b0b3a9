//===- frontend/Frontend.cpp - Shared front-end kit -------------------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "frontend/Frontend.h"

#include <charconv>

using namespace rw;
using namespace rw::frontend;
using namespace rw::ir;
using namespace rw::ir::build;

std::optional<int32_t> rw::frontend::parseInt(std::string_view Digits) {
  int32_t V = 0;
  auto [End, Ec] =
      std::from_chars(Digits.data(), Digits.data() + Digits.size(), V);
  if (Ec != std::errc() || End != Digits.data() + Digits.size())
    return std::nullopt;
  return V;
}

Error rw::frontend::lexError(size_t Line, std::string_view What) {
  return Error("lex error at line " + std::to_string(Line) + ": " +
               std::string(What));
}

Error rw::frontend::parseError(size_t Line, std::string_view What) {
  return Error("parse error at line " + std::to_string(Line) +
               ": expected " + std::string(What));
}

BodyEmitter::BodyEmitter(uint32_t NumParams) : NumParams(NumParams) {
  UnitLocal = newLocal(Size::constant(0));
}

uint32_t BodyEmitter::newLocal(SizeRef Sz) {
  Locals.push_back(Sz ? std::move(Sz) : Size::constant(64));
  return NumParams + static_cast<uint32_t>(Locals.size() - 1);
}

void BodyEmitter::pushUnit(InstVec &O) {
  O.push_back(getLocal(UnitLocal, Qual::unr()));
}

void BodyEmitter::reset(uint32_t Local, InstVec &O) {
  pushUnit(O);
  O.push_back(setLocal(Local));
}

uint32_t BodyEmitter::stashTop(InstVec &O, SizeRef Sz) {
  uint32_t T = newLocal(std::move(Sz));
  O.push_back(setLocal(T));
  return T;
}

void BodyEmitter::read(uint32_t Local, Qual Q, InstVec &O) {
  bool Linear = !Q.isUnrConst();
  O.push_back(getLocal(Local, std::move(Q)));
  if (Linear)
    noteMoved(Local);
}

void BodyEmitter::readAndClear(uint32_t Local, Qual Q, InstVec &O) {
  bool Unr = Q.isUnrConst();
  read(Local, std::move(Q), O);
  if (Unr)
    reset(Local, O);
}

void BodyEmitter::noteMoved(uint32_t Local) {
  if (!MovedStack.empty())
    MovedStack.back().insert(Local);
}

std::vector<LocalEffect> BodyEmitter::endBlockScope() {
  std::set<uint32_t> Moved = std::move(MovedStack.back());
  MovedStack.pop_back();
  std::vector<LocalEffect> Fx;
  for (uint32_t L : Moved) {
    Fx.push_back({L, unitT()});
    noteMoved(L);
  }
  return Fx;
}
