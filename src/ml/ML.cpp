//===- ml/ML.cpp - Core ML frontend ----------------------------------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ml/ML.h"

#include "frontend/Frontend.h"
#include "ir/Builder.h"
#include "ir/TypeOps.h"

#include <cassert>
#include <map>
#include <set>

using namespace rw;
using namespace rw::ml;
using namespace rw::ir;
using namespace rw::ir::build;

//===----------------------------------------------------------------------===//
// Type utilities
//===----------------------------------------------------------------------===//

bool rw::ml::mlTypeEquals(const MLTypeRef &A, const MLTypeRef &B) {
  if (A->K != B->K)
    return false;
  switch (A->K) {
  case TyKind::Int:
  case TyKind::Unit:
    return true;
  case TyKind::Var:
    return A->Var == B->Var;
  case TyKind::Ref:
  case TyKind::Lin:
  case TyKind::RefLin:
    return mlTypeEquals(A->A, B->A);
  case TyKind::Pair:
  case TyKind::Sum:
  case TyKind::Fun:
    return mlTypeEquals(A->A, B->A) && mlTypeEquals(A->B, B->B);
  }
  return false;
}

std::string rw::ml::mlTypeStr(const MLTypeRef &T) {
  switch (T->K) {
  case TyKind::Int:
    return "int";
  case TyKind::Unit:
    return "unit";
  case TyKind::Var:
    return "'" + T->Var;
  case TyKind::Ref:
    return "ref " + mlTypeStr(T->A);
  case TyKind::Lin:
    return "lin " + mlTypeStr(T->A);
  case TyKind::RefLin:
    return "linref " + mlTypeStr(T->A);
  case TyKind::Pair:
    return "(" + mlTypeStr(T->A) + " * " + mlTypeStr(T->B) + ")";
  case TyKind::Sum:
    return "(" + mlTypeStr(T->A) + " + " + mlTypeStr(T->B) + ")";
  case TyKind::Fun:
    return "(" + mlTypeStr(T->A) + " -> " + mlTypeStr(T->B) + ")";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Tokens (frontend::lex reads the tables)
//===----------------------------------------------------------------------===//

namespace {

enum class Tok : uint8_t {
  Ident,
  TyVar,
  Int,
  KwImport,
  KwExport,
  KwFun,
  KwGlobal,
  KwLet,
  KwIn,
  KwFn,
  KwIf,
  KwThen,
  KwElse,
  KwCase,
  KwOf,
  KwInl,
  KwInr,
  KwEnd,
  KwRef,
  KwLinRef,
  KwLin,
  KwFst,
  KwSnd,
  KwInt,
  KwUnit,
  LParen,
  RParen,
  LBrack,
  RBrack,
  Arrow,
  DArrow,
  Assign,
  Bang,
  Star,
  Plus,
  Minus,
  Eq,
  Lt,
  Comma,
  Semi,
  SemiSemi,
  Colon,
  Dot,
  Bar,
  Eof,
};

using Token = frontend::Token<Tok>;

constexpr frontend::Spelling<Tok> Keywords[] = {
    {"import", Tok::KwImport}, {"export", Tok::KwExport},
    {"fun", Tok::KwFun},       {"global", Tok::KwGlobal},
    {"let", Tok::KwLet},       {"in", Tok::KwIn},
    {"fn", Tok::KwFn},         {"if", Tok::KwIf},
    {"then", Tok::KwThen},     {"else", Tok::KwElse},
    {"case", Tok::KwCase},     {"of", Tok::KwOf},
    {"inl", Tok::KwInl},       {"inr", Tok::KwInr},
    {"end", Tok::KwEnd},       {"ref", Tok::KwRef},
    {"linref", Tok::KwLinRef}, {"lin", Tok::KwLin},
    {"fst", Tok::KwFst},       {"snd", Tok::KwSnd},
    {"int", Tok::KwInt},       {"unit", Tok::KwUnit},
};

constexpr frontend::Spelling<Tok> Punct[] = {
    {"->", Tok::Arrow},    {"=>", Tok::DArrow}, {":=", Tok::Assign},
    {";;", Tok::SemiSemi}, {"(", Tok::LParen},  {")", Tok::RParen},
    {"[", Tok::LBrack},    {"]", Tok::RBrack},  {"!", Tok::Bang},
    {"*", Tok::Star},      {"+", Tok::Plus},    {"-", Tok::Minus},
    {"=", Tok::Eq},        {"<", Tok::Lt},      {",", Tok::Comma},
    {";", Tok::Semi},      {":", Tok::Colon},   {".", Tok::Dot},
    {"|", Tok::Bar},
};

/// 'a is a type variable.
constexpr std::pair<char, Tok> Sigils[] = {{'\'', Tok::TyVar}};

/// `f -1` subtracts; `f (-1)` passes a negative literal.
constexpr Tok OperandEnds[] = {Tok::Int, Tok::Ident, Tok::RParen};

constexpr frontend::Lexicon<Tok> Lexicon{Keywords, Punct, Sigils,
                                         OperandEnds};

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

class Parser : frontend::ParserBase<Tok> {
public:
  explicit Parser(std::vector<Token> Ts) : ParserBase(std::move(Ts)) {}

  Expected<MLModule> module(const std::string &Name) {
    MLModule M;
    M.Name = Name;
    while (cur().K != Tok::Eof) {
      if (cur().K == Tok::KwImport) {
        next();
        Expected<std::string> Mod = ident();
        if (!Mod)
          return Mod.error();
        if (Status S = expect(Tok::Dot, "'.'"); !S)
          return S.error();
        Expected<std::string> Nm = ident();
        if (!Nm)
          return Nm.error();
        if (Status S = expect(Tok::Colon, "':'"); !S)
          return S.error();
        Expected<MLTypeRef> T = type();
        if (!T)
          return T.error();
        if (Status S = expect(Tok::SemiSemi, "';;'"); !S)
          return S.error();
        M.Imports.push_back({*Mod, *Nm, *T});
        continue;
      }
      if (cur().K == Tok::KwGlobal) {
        next();
        Expected<std::string> Nm = ident();
        if (!Nm)
          return Nm.error();
        if (Status S = expect(Tok::Eq, "'='"); !S)
          return S.error();
        Expected<MLExprRef> E = expr();
        if (!E)
          return E.error();
        if (Status S = expect(Tok::SemiSemi, "';;'"); !S)
          return S.error();
        MLGlobal G;
        G.Name = *Nm;
        G.Init = *E;
        M.Globals.push_back(std::move(G));
        continue;
      }
      bool Exported = false;
      if (cur().K == Tok::KwExport) {
        Exported = true;
        next();
      }
      if (cur().K != Tok::KwFun)
        return expected("declaration");
      next();
      MLFun F;
      F.Exported = Exported;
      Expected<std::string> Nm = ident();
      if (!Nm)
        return Nm.error();
      F.Name = *Nm;
      if (cur().K == Tok::LBrack) {
        next();
        while (cur().K == Tok::TyVar) {
          F.TyParams.push_back(cur().Text);
          next();
        }
        if (Status S = expect(Tok::RBrack, "']'"); !S)
          return S.error();
      }
      if (Status S = expect(Tok::LParen, "'('"); !S)
        return S.error();
      Expected<std::string> P = ident();
      if (!P)
        return P.error();
      F.Param = *P;
      if (Status S = expect(Tok::Colon, "':'"); !S)
        return S.error();
      Expected<MLTypeRef> PT = type();
      if (!PT)
        return PT.error();
      F.ParamTy = *PT;
      if (Status S = expect(Tok::RParen, "')'"); !S)
        return S.error();
      if (Status S = expect(Tok::Colon, "':'"); !S)
        return S.error();
      Expected<MLTypeRef> RT = type();
      if (!RT)
        return RT.error();
      F.RetTy = *RT;
      if (Status S = expect(Tok::Eq, "'='"); !S)
        return S.error();
      Expected<MLExprRef> B = expr();
      if (!B)
        return B.error();
      F.Body = *B;
      if (Status S = expect(Tok::SemiSemi, "';;'"); !S)
        return S.error();
      M.Funs.push_back(std::move(F));
    }
    return M;
  }

private:

  // type := sum ('->' type)?
  Expected<MLTypeRef> type() {
    Expected<MLTypeRef> L = sumType();
    if (!L)
      return L;
    if (cur().K == Tok::Arrow) {
      next();
      Expected<MLTypeRef> R = type();
      if (!R)
        return R;
      return MLType::mk(TyKind::Fun, *L, *R);
    }
    return L;
  }
  Expected<MLTypeRef> sumType() {
    Expected<MLTypeRef> L = prodType();
    if (!L)
      return L;
    MLTypeRef Acc = *L;
    while (cur().K == Tok::Plus) {
      next();
      Expected<MLTypeRef> R = prodType();
      if (!R)
        return R;
      Acc = MLType::mk(TyKind::Sum, Acc, *R);
    }
    return Acc;
  }
  Expected<MLTypeRef> prodType() {
    Expected<MLTypeRef> L = atomType();
    if (!L)
      return L;
    MLTypeRef Acc = *L;
    while (cur().K == Tok::Star) {
      next();
      Expected<MLTypeRef> R = atomType();
      if (!R)
        return R;
      Acc = MLType::mk(TyKind::Pair, Acc, *R);
    }
    return Acc;
  }
  Expected<MLTypeRef> atomType() {
    switch (cur().K) {
    case Tok::KwInt:
      next();
      return MLType::mk(TyKind::Int);
    case Tok::KwUnit:
      next();
      return MLType::mk(TyKind::Unit);
    case Tok::TyVar: {
      std::string N = cur().Text;
      next();
      return MLType::var(N);
    }
    case Tok::KwRef: {
      next();
      Expected<MLTypeRef> T = atomType();
      if (!T)
        return T;
      return MLType::mk(TyKind::Ref, *T);
    }
    case Tok::KwLin: {
      next();
      Expected<MLTypeRef> T = atomType();
      if (!T)
        return T;
      return MLType::mk(TyKind::Lin, *T);
    }
    case Tok::KwLinRef: {
      next();
      Expected<MLTypeRef> T = atomType();
      if (!T)
        return T;
      return MLType::mk(TyKind::RefLin, *T);
    }
    case Tok::LParen: {
      next();
      Expected<MLTypeRef> T = type();
      if (!T)
        return T;
      if (Status S = expect(Tok::RParen, "')'"); !S)
        return S.error();
      return T;
    }
    default:
      return expected("a type");
    }
  }

  // expr := seq-level with ';' lowest.
  Expected<MLExprRef> expr() {
    Expected<MLExprRef> L = assignExpr();
    if (!L)
      return L;
    if (cur().K == Tok::Semi) {
      next();
      Expected<MLExprRef> R = expr();
      if (!R)
        return R;
      MLExprRef E = MLExpr::mk(ExKind::Seq);
      E->Kids = {*L, *R};
      return E;
    }
    return L;
  }

  Expected<MLExprRef> assignExpr() {
    Expected<MLExprRef> L = cmpExpr();
    if (!L)
      return L;
    if (cur().K == Tok::Assign) {
      next();
      Expected<MLExprRef> R = assignExpr();
      if (!R)
        return R;
      MLExprRef E = MLExpr::mk(ExKind::Assign);
      E->Kids = {*L, *R};
      return E;
    }
    return L;
  }

  Expected<MLExprRef> cmpExpr() {
    Expected<MLExprRef> L = addExpr();
    if (!L)
      return L;
    if (cur().K == Tok::Eq || cur().K == Tok::Lt) {
      MLOp Op = cur().K == Tok::Eq ? MLOp::Eq : MLOp::Lt;
      next();
      Expected<MLExprRef> R = addExpr();
      if (!R)
        return R;
      MLExprRef E = MLExpr::mk(ExKind::Binop);
      E->Op = Op;
      E->Kids = {*L, *R};
      return E;
    }
    return L;
  }

  Expected<MLExprRef> addExpr() {
    Expected<MLExprRef> L = mulExpr();
    if (!L)
      return L;
    MLExprRef Acc = *L;
    while (cur().K == Tok::Plus || cur().K == Tok::Minus) {
      MLOp Op = cur().K == Tok::Plus ? MLOp::Add : MLOp::Sub;
      next();
      Expected<MLExprRef> R = mulExpr();
      if (!R)
        return R;
      MLExprRef E = MLExpr::mk(ExKind::Binop);
      E->Op = Op;
      E->Kids = {Acc, *R};
      Acc = E;
    }
    return Acc;
  }

  Expected<MLExprRef> mulExpr() {
    Expected<MLExprRef> L = appExpr();
    if (!L)
      return L;
    MLExprRef Acc = *L;
    while (cur().K == Tok::Star) {
      next();
      Expected<MLExprRef> R = appExpr();
      if (!R)
        return R;
      MLExprRef E = MLExpr::mk(ExKind::Binop);
      E->Op = MLOp::Mul;
      E->Kids = {Acc, *R};
      Acc = E;
    }
    return Acc;
  }

  static bool startsPrim(Tok K) {
    switch (K) {
    case Tok::Int:
    case Tok::Ident:
    case Tok::LParen:
    case Tok::Bang:
    case Tok::KwRef:
    case Tok::KwLinRef:
    case Tok::KwFst:
    case Tok::KwSnd:
    case Tok::KwInl:
    case Tok::KwInr:
      return true;
    default:
      return false;
    }
  }

  Expected<MLExprRef> appExpr() {
    Expected<MLExprRef> L = primExpr();
    if (!L)
      return L;
    MLExprRef Acc = *L;
    while (startsPrim(cur().K)) {
      Expected<MLExprRef> R = primExpr();
      if (!R)
        return R;
      MLExprRef E = MLExpr::mk(ExKind::App);
      E->Kids = {Acc, *R};
      Acc = E;
    }
    return Acc;
  }

  Expected<MLExprRef> primExpr() {
    switch (cur().K) {
    case Tok::KwLet: {
      next();
      Expected<std::string> N = ident();
      if (!N)
        return N.error();
      if (Status S = expect(Tok::Eq, "'='"); !S)
        return S.error();
      Expected<MLExprRef> E1 = expr();
      if (!E1)
        return E1;
      if (Status S = expect(Tok::KwIn, "'in'"); !S)
        return S.error();
      Expected<MLExprRef> E2 = expr();
      if (!E2)
        return E2;
      MLExprRef E = MLExpr::mk(ExKind::Let);
      E->Name = *N;
      E->Kids = {*E1, *E2};
      return E;
    }
    case Tok::KwFn: {
      next();
      if (Status S = expect(Tok::LParen, "'('"); !S)
        return S.error();
      Expected<std::string> N = ident();
      if (!N)
        return N.error();
      if (Status S = expect(Tok::Colon, "':'"); !S)
        return S.error();
      Expected<MLTypeRef> T = type();
      if (!T)
        return T.error();
      if (Status S = expect(Tok::RParen, "')'"); !S)
        return S.error();
      if (Status S = expect(Tok::DArrow, "'=>'"); !S)
        return S.error();
      Expected<MLExprRef> B = expr();
      if (!B)
        return B;
      MLExprRef E = MLExpr::mk(ExKind::Lam);
      E->Name = *N;
      E->Ann = *T;
      E->Kids = {*B};
      return E;
    }
    case Tok::KwIf: {
      next();
      Expected<MLExprRef> C = expr();
      if (!C)
        return C;
      if (Status S = expect(Tok::KwThen, "'then'"); !S)
        return S.error();
      Expected<MLExprRef> T = expr();
      if (!T)
        return T;
      if (Status S = expect(Tok::KwElse, "'else'"); !S)
        return S.error();
      Expected<MLExprRef> F = expr();
      if (!F)
        return F;
      MLExprRef E = MLExpr::mk(ExKind::If);
      E->Kids = {*C, *T, *F};
      return E;
    }
    case Tok::KwCase: {
      next();
      Expected<MLExprRef> Scrut = expr();
      if (!Scrut)
        return Scrut;
      if (Status S = expect(Tok::KwOf, "'of'"); !S)
        return S.error();
      if (Status S = expect(Tok::KwInl, "'inl'"); !S)
        return S.error();
      Expected<std::string> X = ident();
      if (!X)
        return X.error();
      if (Status S = expect(Tok::DArrow, "'=>'"); !S)
        return S.error();
      Expected<MLExprRef> L = expr();
      if (!L)
        return L;
      if (Status S = expect(Tok::Bar, "'|'"); !S)
        return S.error();
      if (Status S = expect(Tok::KwInr, "'inr'"); !S)
        return S.error();
      Expected<std::string> Y = ident();
      if (!Y)
        return Y.error();
      if (Status S = expect(Tok::DArrow, "'=>'"); !S)
        return S.error();
      Expected<MLExprRef> R = expr();
      if (!R)
        return R;
      if (Status S = expect(Tok::KwEnd, "'end'"); !S)
        return S.error();
      MLExprRef E = MLExpr::mk(ExKind::Case);
      E->Name = *X;
      E->Name2 = *Y;
      E->Kids = {*Scrut, *L, *R};
      return E;
    }
    case Tok::Int: {
      MLExprRef E = MLExpr::mk(ExKind::Int);
      E->IntVal = cur().Num;
      next();
      return E;
    }
    case Tok::Ident: {
      MLExprRef E = MLExpr::mk(ExKind::VarRef);
      E->Name = cur().Text;
      next();
      return E;
    }
    case Tok::Bang: {
      next();
      Expected<MLExprRef> E = primExpr();
      if (!E)
        return E;
      MLExprRef D = MLExpr::mk(ExKind::Deref);
      D->Kids = {*E};
      return D;
    }
    case Tok::KwRef: {
      next();
      Expected<MLExprRef> E = primExpr();
      if (!E)
        return E;
      MLExprRef D = MLExpr::mk(ExKind::MkRef);
      D->Kids = {*E};
      return D;
    }
    case Tok::KwLinRef: {
      next();
      if (cur().K == Tok::LBrack) {
        // linref [T] () — a fresh *empty* ref_to_lin cell.
        next();
        Expected<MLTypeRef> T = type();
        if (!T)
          return T.error();
        if (Status S = expect(Tok::RBrack, "']'"); !S)
          return S.error();
        if (Status S = expect(Tok::LParen, "'('"); !S)
          return S.error();
        if (Status S = expect(Tok::RParen, "')'"); !S)
          return S.error();
        MLExprRef D = MLExpr::mk(ExKind::MkRefLinEmpty);
        D->Ann = *T;
        return D;
      }
      Expected<MLExprRef> E = primExpr();
      if (!E)
        return E;
      MLExprRef D = MLExpr::mk(ExKind::MkRefLin);
      D->Kids = {*E};
      return D;
    }
    case Tok::KwFst:
    case Tok::KwSnd: {
      bool IsFst = cur().K == Tok::KwFst;
      next();
      Expected<MLExprRef> E = primExpr();
      if (!E)
        return E;
      MLExprRef D = MLExpr::mk(IsFst ? ExKind::Fst : ExKind::Snd);
      D->Kids = {*E};
      return D;
    }
    case Tok::KwInl:
    case Tok::KwInr: {
      bool IsL = cur().K == Tok::KwInl;
      next();
      if (Status S = expect(Tok::LBrack, "'['"); !S)
        return S.error();
      Expected<MLTypeRef> T = type();
      if (!T)
        return T.error();
      if (Status S = expect(Tok::RBrack, "']'"); !S)
        return S.error();
      Expected<MLExprRef> E = primExpr();
      if (!E)
        return E;
      MLExprRef D = MLExpr::mk(IsL ? ExKind::Inl : ExKind::Inr);
      D->Ann = *T;
      D->Kids = {*E};
      return D;
    }
    case Tok::LParen: {
      next();
      if (cur().K == Tok::RParen) {
        next();
        return MLExpr::mk(ExKind::Unit);
      }
      Expected<MLExprRef> E1 = expr();
      if (!E1)
        return E1;
      if (cur().K == Tok::Comma) {
        next();
        Expected<MLExprRef> E2 = expr();
        if (!E2)
          return E2;
        if (Status S = expect(Tok::RParen, "')'"); !S)
          return S.error();
        MLExprRef P = MLExpr::mk(ExKind::Pair);
        P->Kids = {*E1, *E2};
        return P;
      }
      if (Status S = expect(Tok::RParen, "')'"); !S)
        return S.error();
      return E1;
    }
    default:
      return expected("an expression");
    }
  }
};

} // namespace

Expected<MLModule> rw::ml::parse(const std::string &Name,
                                 const std::string &Src) {
  Expected<std::vector<Token>> Ts = frontend::lex(Src, Lexicon);
  if (!Ts)
    return Ts.error();
  Parser P(std::move(*Ts));
  return P.module(Name);
}

//===----------------------------------------------------------------------===//
// Type checker
//===----------------------------------------------------------------------===//

namespace {

struct CheckCtx {
  const MLModule *M = nullptr;
  std::map<std::string, MLTypeRef> Vars;
  std::map<std::string, const MLFun *> Funs;
  std::map<std::string, const MLImport *> Imports;
  std::map<std::string, MLTypeRef> Globals;
  std::set<std::string> TyParams;
};

/// First-order matching of a declared (possibly variable-containing) type
/// against a concrete one, binding type parameters.
Status matchType(const MLTypeRef &Pat, const MLTypeRef &Actual,
                 const std::set<std::string> &Params,
                 std::map<std::string, MLTypeRef> &Bind) {
  if (Pat->K == TyKind::Var && Params.count(Pat->Var)) {
    auto It = Bind.find(Pat->Var);
    if (It == Bind.end()) {
      Bind[Pat->Var] = Actual;
      return Status::success();
    }
    if (!mlTypeEquals(It->second, Actual))
      return Error("type parameter '" + Pat->Var +
                   "' solved inconsistently: " + mlTypeStr(It->second) +
                   " vs " + mlTypeStr(Actual));
    return Status::success();
  }
  if (Pat->K != Actual->K)
    return Error("type mismatch: expected " + mlTypeStr(Pat) + ", found " +
                 mlTypeStr(Actual));
  switch (Pat->K) {
  case TyKind::Int:
  case TyKind::Unit:
    return Status::success();
  case TyKind::Var:
    return Pat->Var == Actual->Var
               ? Status::success()
               : Status(Error("type variable mismatch"));
  case TyKind::Ref:
  case TyKind::Lin:
  case TyKind::RefLin:
    return matchType(Pat->A, Actual->A, Params, Bind);
  case TyKind::Pair:
  case TyKind::Sum:
  case TyKind::Fun:
    if (Status S = matchType(Pat->A, Actual->A, Params, Bind); !S)
      return S;
    return matchType(Pat->B, Actual->B, Params, Bind);
  }
  return Status::success();
}

MLTypeRef substType(const MLTypeRef &T,
                    const std::map<std::string, MLTypeRef> &Bind) {
  switch (T->K) {
  case TyKind::Int:
  case TyKind::Unit:
    return T;
  case TyKind::Var: {
    auto It = Bind.find(T->Var);
    return It == Bind.end() ? T : It->second;
  }
  case TyKind::Ref:
  case TyKind::Lin:
  case TyKind::RefLin:
    return MLType::mk(T->K, substType(T->A, Bind));
  case TyKind::Pair:
  case TyKind::Sum:
  case TyKind::Fun:
    return MLType::mk(T->K, substType(T->A, Bind), substType(T->B, Bind));
  }
  return T;
}

/// Aggregate element types may not be `lin` (linear data lives behind
/// linref cells or crosses boundaries directly, per the paper's linking
/// types discipline).
Status noLinInside(const MLTypeRef &T, const char *Where) {
  if (T->K == TyKind::Lin)
    return Error(std::string("'lin' type not allowed inside ") + Where);
  return Status::success();
}

Status checkExpr(MLExprRef &E, CheckCtx &C);

Status checkBody(MLExprRef &E, CheckCtx &C, const MLTypeRef &Want,
                 const char *What) {
  if (Status S = checkExpr(E, C); !S)
    return S;
  if (!mlTypeEquals(E->Ty, Want))
    return Error(std::string(What) + ": expected " + mlTypeStr(Want) +
                 ", found " + mlTypeStr(E->Ty));
  return Status::success();
}

Status checkExpr(MLExprRef &E, CheckCtx &C) {
  switch (E->K) {
  case ExKind::Int:
    E->Ty = MLType::mk(TyKind::Int);
    return Status::success();
  case ExKind::Unit:
    E->Ty = MLType::mk(TyKind::Unit);
    return Status::success();
  case ExKind::VarRef: {
    auto V = C.Vars.find(E->Name);
    if (V != C.Vars.end()) {
      E->Ty = V->second;
      return Status::success();
    }
    auto G = C.Globals.find(E->Name);
    if (G != C.Globals.end()) {
      E->Ty = G->second;
      return Status::success();
    }
    if (C.Funs.count(E->Name) || C.Imports.count(E->Name))
      return Error("top-level function '" + E->Name +
                   "' used as a value (apply it directly)");
    return Error("unbound variable '" + E->Name + "'");
  }
  case ExKind::App: {
    MLExprRef &Callee = E->Kids[0];
    MLExprRef &Arg = E->Kids[1];
    if (Status S = checkExpr(Arg, C); !S)
      return S;
    // Direct call of a top-level function or import?
    if (Callee->K == ExKind::VarRef && !C.Vars.count(Callee->Name)) {
      auto F = C.Funs.find(Callee->Name);
      if (F != C.Funs.end()) {
        std::set<std::string> Params(F->second->TyParams.begin(),
                                     F->second->TyParams.end());
        std::map<std::string, MLTypeRef> Bind;
        if (Status S = matchType(F->second->ParamTy, Arg->Ty, Params, Bind);
            !S)
          return Error("in call of '" + Callee->Name +
                       "': " + S.error().message());
        for (const std::string &P : F->second->TyParams)
          if (!Bind.count(P))
            return Error("cannot infer type parameter '" + P +
                         "' of '" + Callee->Name + "'");
        E->Ty = substType(F->second->RetTy, Bind);
        Callee->Ty = MLType::mk(TyKind::Fun, Arg->Ty, E->Ty);
        return Status::success();
      }
      auto I = C.Imports.find(Callee->Name);
      if (I != C.Imports.end()) {
        if (I->second->Ty->K != TyKind::Fun)
          return Error("import '" + Callee->Name + "' is not a function");
        if (!mlTypeEquals(I->second->Ty->A, Arg->Ty))
          return Error("in call of import '" + Callee->Name +
                       "': expected " + mlTypeStr(I->second->Ty->A) +
                       ", found " + mlTypeStr(Arg->Ty));
        E->Ty = I->second->Ty->B;
        Callee->Ty = I->second->Ty;
        return Status::success();
      }
    }
    if (Status S = checkExpr(Callee, C); !S)
      return S;
    if (Callee->Ty->K != TyKind::Fun)
      return Error("application of a non-function of type " +
                   mlTypeStr(Callee->Ty));
    if (!mlTypeEquals(Callee->Ty->A, Arg->Ty))
      return Error("argument type mismatch: expected " +
                   mlTypeStr(Callee->Ty->A) + ", found " + mlTypeStr(Arg->Ty));
    E->Ty = Callee->Ty->B;
    return Status::success();
  }
  case ExKind::Lam: {
    CheckCtx Inner = C;
    Inner.Vars[E->Name] = E->Ann;
    if (Status S = checkExpr(E->Kids[0], Inner); !S)
      return S;
    E->Ty = MLType::mk(TyKind::Fun, E->Ann, E->Kids[0]->Ty);
    return Status::success();
  }
  case ExKind::Let: {
    if (Status S = checkExpr(E->Kids[0], C); !S)
      return S;
    CheckCtx Inner = C;
    Inner.Vars[E->Name] = E->Kids[0]->Ty;
    if (Status S = checkExpr(E->Kids[1], Inner); !S)
      return S;
    E->Ty = E->Kids[1]->Ty;
    return Status::success();
  }
  case ExKind::Pair: {
    if (Status S = checkExpr(E->Kids[0], C); !S)
      return S;
    if (Status S = checkExpr(E->Kids[1], C); !S)
      return S;
    if (Status S = noLinInside(E->Kids[0]->Ty, "a pair"); !S)
      return S;
    if (Status S = noLinInside(E->Kids[1]->Ty, "a pair"); !S)
      return S;
    E->Ty = MLType::mk(TyKind::Pair, E->Kids[0]->Ty, E->Kids[1]->Ty);
    return Status::success();
  }
  case ExKind::Fst:
  case ExKind::Snd: {
    if (Status S = checkExpr(E->Kids[0], C); !S)
      return S;
    if (E->Kids[0]->Ty->K != TyKind::Pair)
      return Error("fst/snd of a non-pair");
    E->Ty = E->K == ExKind::Fst ? E->Kids[0]->Ty->A : E->Kids[0]->Ty->B;
    return Status::success();
  }
  case ExKind::Inl:
  case ExKind::Inr: {
    if (Status S = checkExpr(E->Kids[0], C); !S)
      return S;
    if (Status S = noLinInside(E->Kids[0]->Ty, "a sum"); !S)
      return S;
    if (Status S = noLinInside(E->Ann, "a sum"); !S)
      return S;
    E->Ty = E->K == ExKind::Inl
                ? MLType::mk(TyKind::Sum, E->Kids[0]->Ty, E->Ann)
                : MLType::mk(TyKind::Sum, E->Ann, E->Kids[0]->Ty);
    return Status::success();
  }
  case ExKind::Case: {
    if (Status S = checkExpr(E->Kids[0], C); !S)
      return S;
    if (E->Kids[0]->Ty->K != TyKind::Sum)
      return Error("case over a non-sum of type " +
                   mlTypeStr(E->Kids[0]->Ty));
    CheckCtx LC = C, RC = C;
    LC.Vars[E->Name] = E->Kids[0]->Ty->A;
    RC.Vars[E->Name2] = E->Kids[0]->Ty->B;
    if (Status S = checkExpr(E->Kids[1], LC); !S)
      return S;
    if (Status S = checkExpr(E->Kids[2], RC); !S)
      return S;
    if (!mlTypeEquals(E->Kids[1]->Ty, E->Kids[2]->Ty))
      return Error("case arms disagree: " + mlTypeStr(E->Kids[1]->Ty) +
                   " vs " + mlTypeStr(E->Kids[2]->Ty));
    E->Ty = E->Kids[1]->Ty;
    return Status::success();
  }
  case ExKind::MkRef: {
    if (Status S = checkExpr(E->Kids[0], C); !S)
      return S;
    if (Status S = noLinInside(E->Kids[0]->Ty, "a ref (use linref)"); !S)
      return S;
    E->Ty = MLType::mk(TyKind::Ref, E->Kids[0]->Ty);
    return Status::success();
  }
  case ExKind::MkRefLin: {
    if (Status S = checkExpr(E->Kids[0], C); !S)
      return S;
    if (E->Kids[0]->Ty->K != TyKind::Lin)
      return Error("linref expects a value of a 'lin' type");
    E->Ty = MLType::mk(TyKind::RefLin, E->Kids[0]->Ty->A);
    return Status::success();
  }
  case ExKind::MkRefLinEmpty: {
    E->Ty = MLType::mk(TyKind::RefLin, E->Ann);
    return Status::success();
  }
  case ExKind::Deref: {
    if (Status S = checkExpr(E->Kids[0], C); !S)
      return S;
    const MLTypeRef &T = E->Kids[0]->Ty;
    if (T->K == TyKind::Ref)
      E->Ty = T->A;
    else if (T->K == TyKind::RefLin)
      E->Ty = MLType::mk(TyKind::Lin, T->A); // take: yields the lin value
    else
      return Error("dereference of a non-reference of type " + mlTypeStr(T));
    return Status::success();
  }
  case ExKind::Assign: {
    if (Status S = checkExpr(E->Kids[0], C); !S)
      return S;
    if (Status S = checkExpr(E->Kids[1], C); !S)
      return S;
    const MLTypeRef &T = E->Kids[0]->Ty;
    if (T->K == TyKind::Ref) {
      if (!mlTypeEquals(T->A, E->Kids[1]->Ty))
        return Error("assignment type mismatch");
    } else if (T->K == TyKind::RefLin) {
      if (!(E->Kids[1]->Ty->K == TyKind::Lin &&
            mlTypeEquals(T->A, E->Kids[1]->Ty->A)))
        return Error("linref assignment expects a matching 'lin' value");
    } else {
      return Error("assignment to a non-reference");
    }
    E->Ty = MLType::mk(TyKind::Unit);
    return Status::success();
  }
  case ExKind::Binop: {
    MLTypeRef IntT = MLType::mk(TyKind::Int);
    if (Status S = checkBody(E->Kids[0], C, IntT, "operator"); !S)
      return S;
    if (Status S = checkBody(E->Kids[1], C, IntT, "operator"); !S)
      return S;
    E->Ty = IntT;
    return Status::success();
  }
  case ExKind::If: {
    MLTypeRef IntT = MLType::mk(TyKind::Int);
    if (Status S = checkBody(E->Kids[0], C, IntT, "if condition"); !S)
      return S;
    if (Status S = checkExpr(E->Kids[1], C); !S)
      return S;
    if (Status S = checkExpr(E->Kids[2], C); !S)
      return S;
    if (!mlTypeEquals(E->Kids[1]->Ty, E->Kids[2]->Ty))
      return Error("if branches disagree");
    E->Ty = E->Kids[1]->Ty;
    return Status::success();
  }
  case ExKind::Seq: {
    if (Status S = checkExpr(E->Kids[0], C); !S)
      return S;
    if (E->Kids[0]->Ty->K != TyKind::Unit)
      return Error("';' discards a non-unit value of type " +
                   mlTypeStr(E->Kids[0]->Ty));
    if (Status S = checkExpr(E->Kids[1], C); !S)
      return S;
    E->Ty = E->Kids[1]->Ty;
    return Status::success();
  }
  }
  return Error("unhandled expression in checker");
}

} // namespace

Status rw::ml::typecheck(MLModule &M) {
  CheckCtx C;
  C.M = &M;
  for (const MLImport &I : M.Imports)
    C.Imports[I.Name] = &I;
  for (const MLFun &F : M.Funs)
    C.Funs[F.Name] = &F;
  for (MLGlobal &G : M.Globals) {
    if (Status S = checkExpr(G.Init, C); !S)
      return Error("in global '" + G.Name + "': " + S.error().message());
    G.Ty = G.Init->Ty;
    C.Globals[G.Name] = G.Ty;
  }
  for (MLFun &F : M.Funs) {
    CheckCtx FC = C;
    FC.TyParams =
        std::set<std::string>(F.TyParams.begin(), F.TyParams.end());
    FC.Vars[F.Param] = F.ParamTy;
    if (Status S = checkExpr(F.Body, FC); !S)
      return Error("in function '" + F.Name + "': " + S.error().message());
    if (!mlTypeEquals(F.Body->Ty, F.RetTy))
      return Error("function '" + F.Name + "' returns " +
                   mlTypeStr(F.Body->Ty) + " but declares " +
                   mlTypeStr(F.RetTy));
    if (F.Exported && !F.TyParams.empty())
      return Error("exported function '" + F.Name +
                   "' may not be polymorphic");
  }
  return Status::success();
}

//===----------------------------------------------------------------------===//
// Type lowering (the annotation phase)
//===----------------------------------------------------------------------===//

namespace {

/// The 64-bit slot every ML value fits into.
SizeRef word64() { return Size::constant(64); }

Type lowerTy(const MLTypeRef &T, const std::vector<std::string> &TyParams,
             uint32_t Depth);

/// The option-cell heap type a linref's payload cell carries:
/// variant [unit ; C(lin τ)].
HeapTypeRef optVariantHT(const MLTypeRef &Elem,
                         const std::vector<std::string> &TyParams,
                         uint32_t Depth) {
  Type LinT = lowerTy(MLType::mk(TyKind::Lin, Elem), TyParams, Depth);
  return variantHT({unitT(), LinT});
}

Type lowerTy(const MLTypeRef &T, const std::vector<std::string> &TyParams,
             uint32_t Depth) {
  switch (T->K) {
  case TyKind::Int:
    return i32T();
  case TyKind::Unit:
    return unitT();
  case TyKind::Var: {
    // De Bruijn: the last declared parameter is the innermost binder.
    for (size_t I = 0; I < TyParams.size(); ++I)
      if (TyParams[I] == T->Var)
        return Type(varPT(static_cast<uint32_t>(TyParams.size() - 1 - I) +
                          Depth),
                    Qual::unr());
    assert(false && "unbound ML type variable after checking");
    return unitT();
  }
  case TyKind::Pair: {
    Type A = lowerTy(T->A, TyParams, Depth);
    Type B = lowerTy(T->B, TyParams, Depth);
    HeapTypeRef H = structHT({{A, word64()}, {B, word64()}});
    return Type(exLocPT(Type(refPT(Privilege::RW, Loc::var(0), H),
                             Qual::unr())),
                Qual::unr());
  }
  case TyKind::Sum: {
    Type A = lowerTy(T->A, TyParams, Depth);
    Type B = lowerTy(T->B, TyParams, Depth);
    HeapTypeRef H = variantHT({A, B});
    return Type(exLocPT(Type(refPT(Privilege::RW, Loc::var(0), H),
                             Qual::unr())),
                Qual::unr());
  }
  case TyKind::Ref: {
    Type A = lowerTy(T->A, TyParams, Depth);
    HeapTypeRef H = structHT({{A, word64()}});
    return Type(exLocPT(Type(refPT(Privilege::RW, Loc::var(0), H),
                             Qual::unr())),
                Qual::unr());
  }
  case TyKind::Fun: {
    // Closure: ∃ρ. ref to (∃ unr ⪯ α ≲ 64. (α, coderef [α, A] → [B])).
    // Inside the package, the Ex binder shifts enclosing type variables.
    Type A = lowerTy(T->A, TyParams, Depth + 1);
    Type B = lowerTy(T->B, TyParams, Depth + 1);
    FunTypeRef Code = FunType::get(
        {}, build::arrow({Type(varPT(0), Qual::unr()), A}, {B}));
    Type Body(prodPT({Type(varPT(0), Qual::unr()),
                      Type(coderefPT(Code), Qual::unr())}),
              Qual::unr());
    HeapTypeRef H = exHT(Qual::unr(), word64(), Body);
    return Type(exLocPT(Type(refPT(Privilege::RW, Loc::var(0), H),
                             Qual::unr())),
                Qual::unr());
  }
  case TyKind::Lin: {
    // (τ)lin: linear RichWasm types at the language boundary. A linear
    // reference cell uses an exact-size slot (the L3 convention).
    if (T->A->K == TyKind::Ref) {
      Type Elem = lowerTy(T->A->A, TyParams, Depth);
      SizeRef Slot = ir::sizeOfType(Elem, {});
      HeapTypeRef H = structHT({{Elem, Slot}});
      return Type(exLocPT(Type(refPT(Privilege::RW, Loc::var(0), H),
                               Qual::lin())),
                  Qual::lin());
    }
    Type Inner = lowerTy(T->A, TyParams, Depth);
    return Type(Inner.P, Qual::lin());
  }
  case TyKind::RefLin: {
    // ref_to_lin: an unrestricted cell holding an optional linear value
    // (a linear reference to a variant [unit ; lin τ]).
    HeapTypeRef Opt = optVariantHT(T->A, TyParams, Depth);
    Type OptRef(exLocPT(Type(refPT(Privilege::RW, Loc::var(0), Opt),
                             Qual::lin())),
                Qual::lin());
    HeapTypeRef Cell = structHT({{OptRef, word64()}});
    return Type(exLocPT(Type(refPT(Privilege::RW, Loc::var(0), Cell),
                             Qual::unr())),
                Qual::unr());
  }
  }
  return unitT();
}

} // namespace

ir::Type rw::ml::lowerMLType(const MLTypeRef &T,
                             const std::vector<std::string> &TyParams) {
  return lowerTy(T, TyParams, 0);
}

//===----------------------------------------------------------------------===//
// Code generation (typed closure conversion + emission)
//===----------------------------------------------------------------------===//

namespace {

struct VarInfo {
  uint32_t Local = 0;
  MLTypeRef Ty;
};

class Codegen;

/// Per-function emitter. Every ML local gets a 64-bit slot; the body
/// emitter keeps every block local-environment neutral.
class FunCg : public frontend::BodyEmitter {
public:
  FunCg(Codegen &CG, std::vector<std::string> TyParams, uint32_t NumParams)
      : BodyEmitter(NumParams), CG(CG), TyParams(std::move(TyParams)) {}

  Codegen &CG;
  std::vector<std::string> TyParams;
  std::map<std::string, VarInfo> Vars;

  Type L(const MLTypeRef &T) { return lowerTy(T, TyParams, 0); }

  Status gen(const MLExprRef &E, InstVec &O);
  Status genApp(const MLExprRef &E, InstVec &O);
  Status genLam(const MLExprRef &E, InstVec &O);
  Status genDeref(const MLExprRef &E, InstVec &O);
  Status genAssign(const MLExprRef &E, InstVec &O);
};

class Codegen {
public:
  explicit Codegen(const MLModule &M) : M(M) {}

  Expected<ir::Module> run();

  const MLModule &M;
  ir::Module Out;
  std::map<std::string, uint32_t> FnIdx;
  std::map<std::string, const MLFun *> Funs;
  std::map<std::string, const MLImport *> Imports;
  std::map<std::string, uint32_t> GlobIdx;
  std::map<std::string, MLTypeRef> GlobTy;
  uint32_t LamCount = 0;

  /// Lifts a lambda body as a fresh code function; returns its index.
  Expected<uint32_t> liftLambda(const std::vector<std::string> &TyParams,
                                const MLTypeRef &EnvTy,
                                const std::vector<std::string> &FreeNames,
                                const std::vector<MLTypeRef> &FreeTys,
                                const std::string &ParamName,
                                const MLTypeRef &ParamTy,
                                const MLTypeRef &RetTy,
                                const MLExprRef &Body);
};

/// The closure heap type (∃α. (α, coderef)) a function type lowers to.
const ExHT *closureHT(const Type &LoweredFun) {
  const auto *Ex = cast<ExLocPT>(LoweredFun.P.get());
  const auto *R = cast<RefPT>(Ex->body().P.get());
  return cast<ExHT>(R->heapType().get());
}

void collectFree(const MLExprRef &E, std::set<std::string> &Bound,
                 const std::map<std::string, VarInfo> &Enclosing,
                 std::vector<std::string> &Order,
                 std::set<std::string> &Seen) {
  switch (E->K) {
  case ExKind::VarRef:
    if (!Bound.count(E->Name) && Enclosing.count(E->Name) &&
        !Seen.count(E->Name)) {
      Seen.insert(E->Name);
      Order.push_back(E->Name);
    }
    return;
  case ExKind::Lam: {
    bool Added = Bound.insert(E->Name).second;
    collectFree(E->Kids[0], Bound, Enclosing, Order, Seen);
    if (Added)
      Bound.erase(E->Name);
    return;
  }
  case ExKind::Let: {
    collectFree(E->Kids[0], Bound, Enclosing, Order, Seen);
    bool Added = Bound.insert(E->Name).second;
    collectFree(E->Kids[1], Bound, Enclosing, Order, Seen);
    if (Added)
      Bound.erase(E->Name);
    return;
  }
  case ExKind::Case: {
    collectFree(E->Kids[0], Bound, Enclosing, Order, Seen);
    bool A1 = Bound.insert(E->Name).second;
    collectFree(E->Kids[1], Bound, Enclosing, Order, Seen);
    if (A1)
      Bound.erase(E->Name);
    bool A2 = Bound.insert(E->Name2).second;
    collectFree(E->Kids[2], Bound, Enclosing, Order, Seen);
    if (A2)
      Bound.erase(E->Name2);
    return;
  }
  default:
    for (const MLExprRef &K : E->Kids)
      collectFree(K, Bound, Enclosing, Order, Seen);
    return;
  }
}

//===----------------------------------------------------------------------===//
// FunCg implementation
//===----------------------------------------------------------------------===//

Status FunCg::genDeref(const MLExprRef &E, InstVec &O) {
  const MLTypeRef &RT = E->Kids[0]->Ty;
  if (Status S = gen(E->Kids[0], O); !S)
    return S;
  if (RT->K == TyKind::Ref) {
    Type A = L(RT->A);
    return emitUnpack({A}, [&](InstVec &B) -> Status {
      B.push_back(structGet(0));
      uint32_t T = stashTop(B);
      B.push_back(drop());
      readAndClear(T, A.Q, B);
      return Status::success();
    }, O);
  }
  // linref take: swap an empty option cell in, open the old one linearly.
  Type LinT = L(MLType::mk(TyKind::Lin, RT->A));
  HeapTypeRef Opt = optVariantHT(RT->A, TyParams, 0);
  const auto *OptV = cast<VariantHT>(Opt.get());
  return emitUnpack({LinT}, [&](InstVec &B) -> Status {
    pushUnit(B);
    B.push_back(variantMalloc(0, OptV->cases(), Qual::lin()));
    B.push_back(structSwap(0));
    uint32_t TOld = stashTop(B);
    B.push_back(drop());
    read(TOld, Qual::lin(), B);
    return emitUnpack({LinT}, [&](InstVec &Inner) -> Status {
      Inner.push_back(variantCase(
          Qual::lin(), Opt, build::arrow({}, {LinT}), {},
          {{unreachable()}, // take from an empty cell: runtime failure
           {}}));
      return Status::success();
    }, B);
  }, O);
}

Status FunCg::genAssign(const MLExprRef &E, InstVec &O) {
  const MLTypeRef &RT = E->Kids[0]->Ty;
  if (Status S = gen(E->Kids[0], O); !S)
    return S;
  if (RT->K == TyKind::Ref) {
    return emitUnpack({unitT()}, [&](InstVec &B) -> Status {
      if (Status S = gen(E->Kids[1], B); !S)
        return S;
      B.push_back(structSet(0));
      B.push_back(drop());
      pushUnit(B);
      return Status::success();
    }, O);
  }
  // linref put: swap a full option in; a previous full cell is a runtime
  // failure (writing a linear cell twice).
  HeapTypeRef Opt = optVariantHT(RT->A, TyParams, 0);
  const auto *OptV = cast<VariantHT>(Opt.get());
  return emitUnpack({unitT()}, [&](InstVec &B) -> Status {
    if (Status S = gen(E->Kids[1], B); !S)
      return S;
    B.push_back(variantMalloc(1, OptV->cases(), Qual::lin()));
    B.push_back(structSwap(0));
    uint32_t TOld = stashTop(B);
    B.push_back(drop());
    read(TOld, Qual::lin(), B);
    if (Status S = emitUnpack({}, [&](InstVec &Inner) -> Status {
          Inner.push_back(variantCase(Qual::lin(), Opt,
                                      build::arrow({}, {}), {},
                                      {{drop()}, {unreachable()}}));
          return Status::success();
        }, B);
        !S)
      return S;
    pushUnit(B);
    return Status::success();
  }, O);
}

Status FunCg::genApp(const MLExprRef &E, InstVec &O) {
  const MLExprRef &Callee = E->Kids[0];
  const MLExprRef &Arg = E->Kids[1];
  // Direct call of a top-level function or import.
  if (Callee->K == ExKind::VarRef && !Vars.count(Callee->Name)) {
    auto F = CG.Funs.find(Callee->Name);
    if (F != CG.Funs.end()) {
      std::set<std::string> Params(F->second->TyParams.begin(),
                                   F->second->TyParams.end());
      std::map<std::string, MLTypeRef> Bind;
      if (Status S = matchType(F->second->ParamTy, Arg->Ty, Params, Bind);
          !S)
        return S;
      std::vector<Index> Args;
      for (const std::string &P : F->second->TyParams)
        Args.push_back(Index::pretype(L(Bind.at(P)).P));
      if (Status S = gen(Arg, O); !S)
        return S;
      O.push_back(call(CG.FnIdx.at(Callee->Name), std::move(Args)));
      return Status::success();
    }
    if (CG.Imports.count(Callee->Name)) {
      if (Status S = gen(Arg, O); !S)
        return S;
      O.push_back(call(CG.FnIdx.at(Callee->Name)));
      return Status::success();
    }
  }
  // Closure application.
  if (Status S = gen(Callee, O); !S)
    return S;
  Type FunLow = L(Callee->Ty);
  const ExHT *H = closureHT(FunLow);
  HeapTypeRef HT = cast<RefPT>(cast<ExLocPT>(FunLow.P.get())->body().P.get())
                       ->heapType();
  Type Res = L(E->Ty);

  (void)H;
  return emitUnpack({Res}, [&](InstVec &UnpackBody) -> Status {
    beginBlockScope();
    InstVec ExBody; // inside exist.unpack: [(env, code) tuple]
    ExBody.push_back(ungroup()); // [env, code]
    uint32_t TCode = stashTop(ExBody);
    Status S = gen(Arg, ExBody);
    if (S) {
      readAndClear(TCode, Qual::unr(), ExBody);
      // Stack: [env, arg, code]; call through the table.
      ExBody.push_back(callIndirect());
    }
    std::vector<LocalEffect> Fx = endBlockScope();
    if (!S)
      return S;
    UnpackBody.push_back(existUnpack(Qual::unr(), HT,
                                     build::arrow({}, {Res}), std::move(Fx),
                                     std::move(ExBody)));
    // Stack: [closure ref, result] — drop the reference beneath.
    uint32_t TRes = stashTop(UnpackBody);
    UnpackBody.push_back(drop());
    readAndClear(TRes, Res.Q, UnpackBody);
    return Status::success();
  }, O);
}

Status FunCg::genLam(const MLExprRef &E, InstVec &O) {
  // Free variables (in order of first occurrence).
  std::set<std::string> Bound = {E->Name};
  std::vector<std::string> FreeNames;
  std::set<std::string> Seen;
  collectFree(E->Kids[0], Bound, Vars, FreeNames, Seen);
  std::vector<MLTypeRef> FreeTys;
  for (const std::string &N : FreeNames)
    FreeTys.push_back(Vars.at(N).Ty);

  // Environment type: unit / single / right-nested pairs.
  MLTypeRef EnvTy = MLType::mk(TyKind::Unit);
  if (FreeTys.size() == 1)
    EnvTy = FreeTys[0];
  else if (FreeTys.size() > 1) {
    EnvTy = FreeTys.back();
    for (size_t I = FreeTys.size() - 1; I > 0; --I)
      EnvTy = MLType::mk(TyKind::Pair, FreeTys[I - 1], EnvTy);
  }

  Expected<uint32_t> Code =
      CG.liftLambda(TyParams, EnvTy, FreeNames, FreeTys, E->Name, E->Ann,
                    E->Kids[0]->Ty, E->Kids[0]);
  if (!Code)
    return Code.error();

  // Build the environment value.
  if (FreeNames.empty())
    pushUnit(O);
  for (const std::string &N : FreeNames) {
    const VarInfo &V = Vars.at(N);
    read(V.Local, L(V.Ty).Q, O);
  }
  // Right-nested pairs: (x0, (x1, ... x(n-1))).
  for (size_t I = 1; I < FreeNames.size(); ++I)
    O.push_back(structMalloc({Size::constant(64), Size::constant(64)},
                             Qual::unr()));

  // coderef (+ instantiation with the enclosing type parameters).
  O.push_back(coderef(*Code));
  if (!TyParams.empty()) {
    std::vector<Index> Args;
    for (size_t I = 0; I < TyParams.size(); ++I)
      Args.push_back(Index::pretype(
          varPT(static_cast<uint32_t>(TyParams.size() - 1 - I))));
    O.push_back(instIdx(std::move(Args)));
  }
  O.push_back(group(2, Qual::unr()));
  Type FunLow = L(E->Ty);
  HeapTypeRef HT = cast<RefPT>(cast<ExLocPT>(FunLow.P.get())->body().P.get())
                       ->heapType();
  O.push_back(existPack(L(EnvTy).P, HT, Qual::unr()));
  return Status::success();
}

Status FunCg::gen(const MLExprRef &E, InstVec &O) {
  switch (E->K) {
  case ExKind::Int:
    O.push_back(iconst(E->IntVal));
    return Status::success();
  case ExKind::Unit:
    pushUnit(O);
    return Status::success();
  case ExKind::VarRef: {
    auto V = Vars.find(E->Name);
    if (V != Vars.end()) {
      // Unrestricted variables copy; linear ones move (the slot reverts to
      // unit, so a second use fails RichWasm checking — Fig 1's story).
      read(V->second.Local, L(V->second.Ty).Q, O);
      return Status::success();
    }
    O.push_back(getGlobal(CG.GlobIdx.at(E->Name)));
    return Status::success();
  }
  case ExKind::App:
    return genApp(E, O);
  case ExKind::Lam:
    return genLam(E, O);
  case ExKind::Let: {
    if (Status S = gen(E->Kids[0], O); !S)
      return S;
    uint32_t Lc = newLocal();
    O.push_back(setLocal(Lc));
    VarInfo Saved;
    bool Shadowed = Vars.count(E->Name);
    if (Shadowed)
      Saved = Vars[E->Name];
    Vars[E->Name] = {Lc, E->Kids[0]->Ty};
    Status S = gen(E->Kids[1], O);
    if (Shadowed)
      Vars[E->Name] = Saved;
    else
      Vars.erase(E->Name);
    if (!S)
      return S;
    // Reset the slot so enclosing blocks stay neutral. An unused linear
    // binder leaves a linear value here and is (intentionally) rejected by
    // the RichWasm checker as a leak.
    reset(Lc, O);
    return Status::success();
  }
  case ExKind::Pair: {
    if (Status S = gen(E->Kids[0], O); !S)
      return S;
    if (Status S = gen(E->Kids[1], O); !S)
      return S;
    O.push_back(structMalloc({Size::constant(64), Size::constant(64)},
                             Qual::unr()));
    return Status::success();
  }
  case ExKind::Fst:
  case ExKind::Snd: {
    if (Status S = gen(E->Kids[0], O); !S)
      return S;
    Type A = L(E->Ty);
    return emitUnpack({A}, [&](InstVec &B) -> Status {
      B.push_back(structGet(E->K == ExKind::Fst ? 0 : 1));
      uint32_t T = stashTop(B);
      B.push_back(drop());
      readAndClear(T, A.Q, B);
      return Status::success();
    }, O);
  }
  case ExKind::Inl:
  case ExKind::Inr: {
    if (Status S = gen(E->Kids[0], O); !S)
      return S;
    std::vector<Type> Cases = {L(E->Ty->A), L(E->Ty->B)};
    O.push_back(variantMalloc(E->K == ExKind::Inl ? 0 : 1, Cases,
                              Qual::unr()));
    return Status::success();
  }
  case ExKind::Case: {
    if (Status S = gen(E->Kids[0], O); !S)
      return S;
    Type Res = L(E->Ty);
    std::vector<Type> Cases = {L(E->Kids[0]->Ty->A), L(E->Kids[0]->Ty->B)};

    auto Arm = [&](const std::string &Binder, const MLTypeRef &BinderTy,
                   const MLExprRef &Body,
                   std::vector<LocalEffect> &Fx) -> Expected<InstVec> {
      beginBlockScope();
      InstVec A;
      uint32_t Lc = newLocal();
      A.push_back(setLocal(Lc));
      VarInfo Saved;
      bool Shadowed = Vars.count(Binder);
      if (Shadowed)
        Saved = Vars[Binder];
      Vars[Binder] = {Lc, BinderTy};
      Status S = gen(Body, A);
      if (Shadowed)
        Vars[Binder] = Saved;
      else
        Vars.erase(Binder);
      if (S)
        reset(Lc, A);
      std::vector<LocalEffect> ArmFx = endBlockScope();
      if (!S)
        return S.error();
      Fx.insert(Fx.end(), ArmFx.begin(), ArmFx.end());
      return A;
    };
    return emitUnpack({Res}, [&](InstVec &B) -> Status {
      std::vector<LocalEffect> Fx;
      Expected<InstVec> A0 = Arm(E->Name, E->Kids[0]->Ty->A, E->Kids[1], Fx);
      if (!A0)
        return A0.error();
      Expected<InstVec> A1 =
          Arm(E->Name2, E->Kids[0]->Ty->B, E->Kids[2], Fx);
      if (!A1)
        return A1.error();
      B.push_back(variantCase(Qual::unr(), variantHT(Cases),
                              build::arrow({}, {Res}), std::move(Fx),
                              {std::move(*A0), std::move(*A1)}));
      // Stack: [variant ref, result].
      uint32_t T = stashTop(B);
      B.push_back(drop());
      readAndClear(T, Res.Q, B);
      return Status::success();
    }, O);
  }
  case ExKind::MkRef: {
    if (Status S = gen(E->Kids[0], O); !S)
      return S;
    O.push_back(structMalloc({Size::constant(64)}, Qual::unr()));
    return Status::success();
  }
  case ExKind::MkRefLin: {
    if (Status S = gen(E->Kids[0], O); !S)
      return S;
    HeapTypeRef Opt = optVariantHT(E->Ty->A, TyParams, 0);
    const auto *OptV = cast<VariantHT>(Opt.get());
    O.push_back(variantMalloc(1, OptV->cases(), Qual::lin()));
    O.push_back(structMalloc({Size::constant(64)}, Qual::unr()));
    return Status::success();
  }
  case ExKind::MkRefLinEmpty: {
    HeapTypeRef Opt = optVariantHT(E->Ty->A, TyParams, 0);
    const auto *OptV = cast<VariantHT>(Opt.get());
    pushUnit(O);
    O.push_back(variantMalloc(0, OptV->cases(), Qual::lin()));
    O.push_back(structMalloc({Size::constant(64)}, Qual::unr()));
    return Status::success();
  }
  case ExKind::Deref:
    return genDeref(E, O);
  case ExKind::Assign:
    return genAssign(E, O);
  case ExKind::Binop: {
    if (Status S = gen(E->Kids[0], O); !S)
      return S;
    if (Status S = gen(E->Kids[1], O); !S)
      return S;
    switch (E->Op) {
    case MLOp::Add:
      O.push_back(addI32());
      break;
    case MLOp::Sub:
      O.push_back(subI32());
      break;
    case MLOp::Mul:
      O.push_back(mulI32());
      break;
    case MLOp::Eq:
      O.push_back(relop(NumType::I32, RelopKind::Eq));
      break;
    case MLOp::Lt:
      O.push_back(relop(NumType::I32, RelopKind::Lt));
      break;
    }
    return Status::success();
  }
  case ExKind::If: {
    if (Status S = gen(E->Kids[0], O); !S)
      return S;
    Type Res = L(E->Ty);
    std::vector<LocalEffect> Fx;
    beginBlockScope();
    InstVec T;
    Status S1 = gen(E->Kids[1], T);
    {
      std::vector<LocalEffect> FxT = endBlockScope();
      Fx.insert(Fx.end(), FxT.begin(), FxT.end());
    }
    if (!S1)
      return S1;
    beginBlockScope();
    InstVec F;
    Status S2 = gen(E->Kids[2], F);
    {
      std::vector<LocalEffect> FxF = endBlockScope();
      Fx.insert(Fx.end(), FxF.begin(), FxF.end());
    }
    if (!S2)
      return S2;
    O.push_back(ifElse(build::arrow({}, {Res}), std::move(Fx), std::move(T),
                       std::move(F)));
    return Status::success();
  }
  case ExKind::Seq: {
    if (Status S = gen(E->Kids[0], O); !S)
      return S;
    O.push_back(drop()); // unit
    return gen(E->Kids[1], O);
  }
  }
  return Error("unhandled expression in codegen");
}

//===----------------------------------------------------------------------===//
// Codegen implementation
//===----------------------------------------------------------------------===//

Expected<uint32_t> Codegen::liftLambda(
    const std::vector<std::string> &TyParams, const MLTypeRef &EnvTy,
    const std::vector<std::string> &FreeNames,
    const std::vector<MLTypeRef> &FreeTys, const std::string &ParamName,
    const MLTypeRef &ParamTy, const MLTypeRef &RetTy, const MLExprRef &Body) {
  uint32_t Idx = static_cast<uint32_t>(Out.Funcs.size());
  std::vector<Quant> Quants;
  for (size_t I = 0; I < TyParams.size(); ++I)
    Quants.push_back(Quant::type(Qual::unr(), Size::constant(64), true));
  Type EnvLow = lowerTy(EnvTy, TyParams, 0);
  Type ParamLow = lowerTy(ParamTy, TyParams, 0);
  Type RetLow = lowerTy(RetTy, TyParams, 0);
  FunTypeRef Ty = FunType::get(
      std::move(Quants), build::arrow({EnvLow, ParamLow}, {RetLow}));

  // Reserve the slot before compiling (the body may lift more lambdas).
  ir::Function Placeholder;
  Placeholder.Ty = Ty;
  Out.Funcs.push_back(Placeholder);

  FunCg FC(*this, TyParams, /*NumParams=*/2);
  FC.Vars[ParamName] = {1, ParamTy};
  InstVec O;
  // Unpack the environment into fresh locals: env is local 0.
  if (FreeNames.size() == 1) {
    FC.Vars[FreeNames[0]] = {0, FreeTys[0]};
  } else if (FreeNames.size() > 1) {
    // Walk the right-nested pairs: cursor holds the remaining tail.
    uint32_t Cursor = 0;
    MLTypeRef CursorTy = EnvTy;
    for (size_t I = 0; I + 1 < FreeNames.size(); ++I) {
      // fst → the I-th variable; snd → new cursor.
      Type FstLow = FC.L(CursorTy->A);
      Type SndLow = FC.L(CursorTy->B);
      uint32_t VL = FC.newLocal();
      uint32_t NextCursor = FC.newLocal();
      O.push_back(getLocal(Cursor, Qual::unr()));
      InstVec B;
      B.push_back(structGet(0));
      B.push_back(setLocal(VL));
      B.push_back(structGet(1));
      B.push_back(setLocal(NextCursor));
      B.push_back(drop());
      O.push_back(memUnpack(build::arrow({}, {}),
                            {{VL, FstLow}, {NextCursor, SndLow}},
                            std::move(B)));
      FC.Vars[FreeNames[I]] = {VL, CursorTy->A};
      Cursor = NextCursor;
      CursorTy = CursorTy->B;
    }
    FC.Vars[FreeNames.back()] = {Cursor, CursorTy};
  }
  if (Status S = FC.gen(Body, O); !S)
    return S.error();

  ir::Function &F = Out.Funcs[Idx];
  F.Locals = FC.Locals;
  F.Body = std::move(O);
  return Idx;
}

Expected<ir::Module> Codegen::run() {
  Out.Name = M.Name;
  for (const MLImport &I : M.Imports) {
    Imports[I.Name] = &I;
    if (I.Ty->K != TyKind::Fun)
      return Error("import '" + I.Name + "' must have a function type");
    Type A = lowerTy(I.Ty->A, {}, 0);
    Type B = lowerTy(I.Ty->B, {}, 0);
    FnIdx[I.Name] = static_cast<uint32_t>(Out.Funcs.size());
    Out.Funcs.push_back(importFunc({I.Mod, I.Name},
                                   FunType::get({}, build::arrow({A}, {B}))));
  }
  for (const MLFun &F : M.Funs) {
    Funs[F.Name] = &F;
    std::vector<Quant> Quants;
    for (size_t I = 0; I < F.TyParams.size(); ++I)
      Quants.push_back(Quant::type(Qual::unr(), Size::constant(64), true));
    Type A = lowerTy(F.ParamTy, F.TyParams, 0);
    Type B = lowerTy(F.RetTy, F.TyParams, 0);
    FnIdx[F.Name] = static_cast<uint32_t>(Out.Funcs.size());
    ir::Function Fn;
    Fn.Ty = FunType::get(std::move(Quants), build::arrow({A}, {B}));
    if (F.Exported)
      Fn.Exports.push_back(F.Name);
    Out.Funcs.push_back(std::move(Fn));
  }
  // Globals: a cell per global plus an init function.
  for (const MLGlobal &G : M.Globals) {
    GlobIdx[G.Name] = static_cast<uint32_t>(Out.Globals.size());
    GlobTy[G.Name] = G.Ty;
    ir::Global RG;
    RG.Mut = true;
    RG.P = lowerTy(G.Ty, {}, 0).P;
    Out.Globals.push_back(std::move(RG));
  }
  for (const MLGlobal &G : M.Globals) {
    FunCg FC(*this, {}, /*NumParams=*/0);
    InstVec O;
    if (Status S = FC.gen(G.Init, O); !S)
      return Error("in global '" + G.Name + "': " + S.error().message());
    uint32_t InitIdx = static_cast<uint32_t>(Out.Funcs.size());
    ir::Function Fn;
    Fn.Ty = FunType::get({}, build::arrow({}, {lowerTy(G.Ty, {}, 0)}));
    Fn.Locals = FC.Locals;
    Fn.Body = std::move(O);
    Out.Funcs.push_back(std::move(Fn));
    Out.Globals[GlobIdx[G.Name]].Init = {call(InitIdx), setGlobal(GlobIdx[G.Name]),
                                         getGlobal(GlobIdx[G.Name])};
  }
  // Function bodies.
  for (const MLFun &F : M.Funs) {
    FunCg FC(*this, F.TyParams, /*NumParams=*/1);
    FC.Vars[F.Param] = {0, F.ParamTy};
    InstVec O;
    if (Status S = FC.gen(F.Body, O); !S)
      return Error("in function '" + F.Name + "': " + S.error().message());
    ir::Function &Fn = Out.Funcs[FnIdx[F.Name]];
    Fn.Locals = FC.Locals;
    Fn.Body = std::move(O);
  }
  // Table: every function, so coderefs are simply function indices.
  for (uint32_t I = 0; I < Out.Funcs.size(); ++I)
    Out.Tab.Entries.push_back(I);
  return std::move(Out);
}

} // namespace

Expected<ir::Module> rw::ml::compile(const MLModule &M) {
  // Intern all generated types into the shared (process-wide) arena so the
  // output module links against L3 modules by pointer equality.
  ir::ArenaScope Scope(ir::TypeArena::global());
  Codegen CG(M);
  return CG.run();
}

Expected<ir::Module> rw::ml::compileSource(const std::string &Name,
                                           const std::string &Src) {
  Expected<MLModule> M = parse(Name, Src);
  if (!M)
    return M.error();
  if (Status S = typecheck(*M); !S)
    return S.error();
  return compile(*M);
}
