//===- frontend/Frontend.h - Shared front-end kit ---------------*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the two source-language compilers (ml/, l3/) share, so each keeps
/// only its token enum, AST, type checker and code generator:
///
///   * lex() — one table-driven lexer. A language hands it a Lexicon: its
///     keywords, its punctuation (the longest entry matching wins), its
///     sigils (ML's 'a) and the token kinds that end an operand (where a
///     '-' before a digit is binary minus rather than a negative literal).
///     Both languages share `(* ... *)` comments and [A-Za-z_][A-Za-z0-9_]*
///     words. A literal that does not fit in int64 is a lex error.
///   * ParserBase — the token cursor and the
///     "parse error at line N: expected X" text.
///   * BodyEmitter — the rule that keeps RichWasm local environments
///     neutral across blocks (DESIGN.md §1): a size-0 unit local, binders
///     reset to unit before their block closes, and a linear move (a slot
///     read out of with a linear qualifier) recorded as a unit local
///     effect on every mem.unpack, exist.unpack, case or if it crosses.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_FRONTEND_FRONTEND_H
#define RICHWASM_FRONTEND_FRONTEND_H

#include "ir/Builder.h"
#include "support/Error.h"

#include <algorithm>
#include <cctype>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rw::frontend {

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

/// One token. \p Kind is the language's own token enum; it must name
/// Ident, Int and Eof.
template <typename Kind> struct Token {
  Kind K = Kind::Eof;
  std::string Text; ///< The word of identifiers, keywords and sigil tokens.
  int32_t Num = 0;  ///< The value of Int tokens.
  size_t Line = 1;
};

template <typename Kind> using Spelling = std::pair<std::string_view, Kind>;

/// A language's lexical tables.
template <typename Kind> struct Lexicon {
  /// Reserved words; any other word lexes as Kind::Ident.
  std::span<const Spelling<Kind>> Keywords;
  /// Punctuation; the longest entry matching at the cursor wins.
  std::span<const Spelling<Kind>> Punct;
  /// A sigil character followed by word characters lexes as one token
  /// whose Text is the (possibly empty) word.
  std::span<const std::pair<char, Kind>> Sigils;
  /// A '-' directly before a digit begins a negative literal unless the
  /// previous token is one of these. A language listing none has no
  /// negative literals.
  std::span<const Kind> OperandEnds;
};

/// The value of the decimal literal \p Digits (an optional '-' then
/// digits), or nothing when it does not fit in int, the i32 of both
/// languages.
std::optional<int32_t> parseInt(std::string_view Digits);

/// "lex error at line N: <What>".
Error lexError(size_t Line, std::string_view What);

/// "parse error at line N: expected <What>".
Error parseError(size_t Line, std::string_view What);

template <typename Kind>
Expected<std::vector<Token<Kind>>> lex(const std::string &S,
                                       const Lexicon<Kind> &Lx) {
  auto IsDigit = [](char C) { return isdigit(static_cast<unsigned char>(C)); };
  auto IsWord = [](char C) {
    return isalnum(static_cast<unsigned char>(C)) || C == '_';
  };
  std::vector<Token<Kind>> Out;
  size_t Pos = 0, Line = 1;
  auto Word = [&] {
    size_t Start = Pos;
    while (Pos < S.size() && IsWord(S[Pos]))
      ++Pos;
    return S.substr(Start, Pos - Start);
  };
  auto Push = [&](Kind K, std::string Text = {}) -> Token<Kind> & {
    Token<Kind> &T = Out.emplace_back();
    T.K = K;
    T.Text = std::move(Text);
    T.Line = Line;
    return T;
  };
  while (Pos < S.size()) {
    char C = S[Pos];
    if (C == '\n') {
      ++Line;
      ++Pos;
      continue;
    }
    if (isspace(static_cast<unsigned char>(C))) {
      ++Pos;
      continue;
    }
    if (C == '(' && Pos + 1 < S.size() && S[Pos + 1] == '*') {
      Pos += 2;
      while (Pos + 1 < S.size() && !(S[Pos] == '*' && S[Pos + 1] == ')')) {
        if (S[Pos] == '\n')
          ++Line;
        ++Pos;
      }
      Pos += 2;
      continue;
    }
    bool Negative =
        C == '-' && !Lx.OperandEnds.empty() && Pos + 1 < S.size() &&
        IsDigit(S[Pos + 1]) &&
        (Out.empty() || std::find(Lx.OperandEnds.begin(), Lx.OperandEnds.end(),
                                  Out.back().K) == Lx.OperandEnds.end());
    if (IsDigit(C) || Negative) {
      size_t Start = Pos;
      if (Negative)
        ++Pos;
      while (Pos < S.size() && IsDigit(S[Pos]))
        ++Pos;
      std::optional<int32_t> N =
          parseInt(std::string_view(S).substr(Start, Pos - Start));
      if (!N)
        return lexError(Line, "integer literal out of range");
      Push(Kind::Int).Num = *N;
      continue;
    }
    if (auto Sg = std::find_if(Lx.Sigils.begin(), Lx.Sigils.end(),
                               [&](const auto &P) { return P.first == C; });
        Sg != Lx.Sigils.end()) {
      ++Pos;
      Push(Sg->second, Word());
      continue;
    }
    if (isalpha(static_cast<unsigned char>(C)) || C == '_') {
      std::string W = Word();
      auto Kw = std::find_if(Lx.Keywords.begin(), Lx.Keywords.end(),
                             [&](const auto &P) { return P.first == W; });
      Push(Kw == Lx.Keywords.end() ? Kind::Ident : Kw->second, std::move(W));
      continue;
    }
    const Spelling<Kind> *Best = nullptr;
    for (const Spelling<Kind> &P : Lx.Punct)
      if ((!Best || P.first.size() > Best->first.size()) &&
          S.compare(Pos, P.first.size(), P.first) == 0)
        Best = &P;
    if (!Best)
      return lexError(Line, "unexpected character '" + std::string(1, C) +
                                "'");
    Push(Best->second);
    Pos += Best->first.size();
  }
  Push(Kind::Eof);
  return Out;
}

//===----------------------------------------------------------------------===//
// Parser scaffolding
//===----------------------------------------------------------------------===//

/// The token cursor a recursive-descent parser derives from. The stream
/// ends in Kind::Eof, which no rule consumes.
template <typename Kind> class ParserBase {
protected:
  explicit ParserBase(std::vector<Token<Kind>> Ts) : Ts(std::move(Ts)) {}

  const Token<Kind> &cur() const { return Ts[Pos]; }
  void next() { ++Pos; }

  /// A parse error at the current token: "expected <What>".
  Error expected(std::string_view What) const {
    return parseError(cur().Line, What);
  }
  Status expect(Kind K, const char *What) {
    if (cur().K != K)
      return expected(What);
    next();
    return Status::success();
  }
  Expected<std::string> ident() {
    if (cur().K != Kind::Ident)
      return expected("identifier");
    std::string N = cur().Text;
    next();
    return N;
  }

private:
  std::vector<Token<Kind>> Ts;
  size_t Pos = 0;
};

//===----------------------------------------------------------------------===//
// Body emission
//===----------------------------------------------------------------------===//

/// The local slots of one function body and the discipline that keeps
/// every block local-environment neutral: a value left in a slot is reset
/// to the unit local's value before the slot's binder goes out of scope,
/// and a slot emptied by a linear read is declared (as unit) in the local
/// effects of every block the read sits in.
class BodyEmitter {
public:
  /// The function's \p NumParams parameters come first in local space;
  /// the unit local is the first slot after them.
  explicit BodyEmitter(uint32_t NumParams);

  /// The slots past the parameters, for ir::Function::Locals.
  std::vector<ir::SizeRef> Locals;

  /// A fresh slot of size \p Sz (64 bits when null).
  uint32_t newLocal(ir::SizeRef Sz = nullptr);

  void pushUnit(ir::InstVec &O);
  /// Resets \p Local to unit.
  void reset(uint32_t Local, ir::InstVec &O);
  /// Pops the top of stack into a fresh slot of size \p Sz.
  uint32_t stashTop(ir::InstVec &O, ir::SizeRef Sz = nullptr);
  /// Pushes \p Local at qualifier \p Q: a linear read moves the value out.
  void read(uint32_t Local, ir::Qual Q, ir::InstVec &O);
  /// read(), then resets an unrestricted slot, so the slot is unit either
  /// way.
  void readAndClear(uint32_t Local, ir::Qual Q, ir::InstVec &O);

  /// Records that \p Local was moved out inside the innermost open block.
  void noteMoved(uint32_t Local);
  void beginBlockScope() { MovedStack.emplace_back(); }
  /// Closes the innermost block scope: its moves as local effects, which
  /// also count as moves in the enclosing scope.
  std::vector<ir::LocalEffect> endBlockScope();

  /// Emits a mem.unpack with results \p Results whose body \p Body
  /// produces, annotated with the local effects of the moves inside it.
  template <typename F>
  Status emitUnpack(std::vector<ir::Type> Results, F Body, ir::InstVec &O) {
    beginBlockScope();
    ir::InstVec B;
    Status S = Body(B);
    std::vector<ir::LocalEffect> Fx = endBlockScope();
    if (!S)
      return S;
    O.push_back(ir::build::memUnpack(ir::build::arrow({}, std::move(Results)),
                                     std::move(Fx), std::move(B)));
    return Status::success();
  }

private:
  uint32_t NumParams;
  uint32_t UnitLocal;
  /// The slots moved out inside each open block scope.
  std::vector<std::set<uint32_t>> MovedStack;
};

} // namespace rw::frontend

#endif // RICHWASM_FRONTEND_FRONTEND_H
