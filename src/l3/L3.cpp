//===- l3/L3.cpp - L3 frontend ----------------------------------------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "l3/L3.h"

#include "frontend/Frontend.h"
#include "ir/Builder.h"
#include "ir/TypeOps.h"

#include <cassert>
#include <map>
#include <set>

using namespace rw;
using namespace rw::l3;
using namespace rw::ir;
using namespace rw::ir::build;

//===----------------------------------------------------------------------===//
// Type utilities
//===----------------------------------------------------------------------===//

bool rw::l3::l3TypeEquals(const L3TypeRef &A, const L3TypeRef &B) {
  if (A->K != B->K)
    return false;
  switch (A->K) {
  case TyKind::Int:
  case TyKind::Unit:
    return true;
  case TyKind::Bang:
  case TyKind::Cell:
  case TyKind::MLRef:
    return l3TypeEquals(A->A, B->A);
  case TyKind::Tensor:
  case TyKind::Lolli:
    return l3TypeEquals(A->A, B->A) && l3TypeEquals(A->B, B->B);
  }
  return false;
}

std::string rw::l3::l3TypeStr(const L3TypeRef &T) {
  switch (T->K) {
  case TyKind::Int:
    return "int";
  case TyKind::Unit:
    return "unit";
  case TyKind::Bang:
    return "!" + l3TypeStr(T->A);
  case TyKind::Tensor:
    return "(" + l3TypeStr(T->A) + " * " + l3TypeStr(T->B) + ")";
  case TyKind::Lolli:
    return "(" + l3TypeStr(T->A) + " -o " + l3TypeStr(T->B) + ")";
  case TyKind::Cell:
    return "Cell " + l3TypeStr(T->A);
  case TyKind::MLRef:
    return "Ref " + l3TypeStr(T->A);
  }
  return "?";
}

bool rw::l3::l3Unrestricted(const L3TypeRef &T) {
  switch (T->K) {
  case TyKind::Int:
  case TyKind::Unit:
  case TyKind::Bang:
  case TyKind::Lolli: // Top-level code pointers are copyable.
    return true;
  case TyKind::Tensor:
    return l3Unrestricted(T->A) && l3Unrestricted(T->B);
  case TyKind::Cell:
  case TyKind::MLRef:
    return false;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Tokens (frontend::lex reads the tables) + parser
//===----------------------------------------------------------------------===//

namespace {

enum class Tok : uint8_t {
  Ident,
  Int,
  KwImport,
  KwExport,
  KwFun,
  KwLet,
  KwIn,
  KwNew,
  KwFree,
  KwSwap,
  KwJoin,
  KwSplit,
  KwInt,
  KwUnit,
  KwCell,
  KwRef,
  LParen,
  RParen,
  Lolli,
  Bang,
  Star,
  Plus,
  Minus,
  Eq,
  Comma,
  Semi,
  SemiSemi,
  Colon,
  Dot,
  Eof,
};

using Token = frontend::Token<Tok>;

constexpr frontend::Spelling<Tok> Keywords[] = {
    {"import", Tok::KwImport}, {"export", Tok::KwExport},
    {"fun", Tok::KwFun},       {"let", Tok::KwLet},
    {"in", Tok::KwIn},         {"new", Tok::KwNew},
    {"free", Tok::KwFree},     {"swap", Tok::KwSwap},
    {"join", Tok::KwJoin},     {"split", Tok::KwSplit},
    {"int", Tok::KwInt},       {"unit", Tok::KwUnit},
    {"Cell", Tok::KwCell},     {"Ref", Tok::KwRef},
};

constexpr frontend::Spelling<Tok> Punct[] = {
    {"-o", Tok::Lolli}, {";;", Tok::SemiSemi}, {"(", Tok::LParen},
    {")", Tok::RParen}, {"!", Tok::Bang},      {"*", Tok::Star},
    {"+", Tok::Plus},   {"-", Tok::Minus},     {"=", Tok::Eq},
    {",", Tok::Comma},  {";", Tok::Semi},      {":", Tok::Colon},
    {".", Tok::Dot},
};

constexpr frontend::Lexicon<Tok> Lexicon{Keywords, Punct, /*Sigils=*/{},
                                         /*OperandEnds=*/{}};

class Parser : frontend::ParserBase<Tok> {
public:
  explicit Parser(std::vector<Token> Ts) : ParserBase(std::move(Ts)) {}

  Expected<L3Module> module(const std::string &Name) {
    L3Module M;
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
        Expected<L3TypeRef> T = type();
        if (!T)
          return T.error();
        if (Status S = expect(Tok::SemiSemi, "';;'"); !S)
          return S.error();
        M.Imports.push_back({*Mod, *Nm, *T});
        continue;
      }
      bool Exported = false;
      if (cur().K == Tok::KwExport) {
        Exported = true;
        next();
      }
      if (Status S = expect(Tok::KwFun, "'fun'"); !S)
        return S.error();
      L3Fun F;
      F.Exported = Exported;
      Expected<std::string> Nm = ident();
      if (!Nm)
        return Nm.error();
      F.Name = *Nm;
      if (Status S = expect(Tok::LParen, "'('"); !S)
        return S.error();
      Expected<std::string> P = ident();
      if (!P)
        return P.error();
      F.Param = *P;
      if (Status S = expect(Tok::Colon, "':'"); !S)
        return S.error();
      Expected<L3TypeRef> PT = type();
      if (!PT)
        return PT.error();
      F.ParamTy = *PT;
      if (Status S = expect(Tok::RParen, "')'"); !S)
        return S.error();
      if (Status S = expect(Tok::Colon, "':'"); !S)
        return S.error();
      Expected<L3TypeRef> RT = type();
      if (!RT)
        return RT.error();
      F.RetTy = *RT;
      if (Status S = expect(Tok::Eq, "'='"); !S)
        return S.error();
      Expected<L3ExprRef> B = expr();
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

  Expected<L3TypeRef> type() {
    Expected<L3TypeRef> L = tensorType();
    if (!L)
      return L;
    if (cur().K == Tok::Lolli) {
      next();
      Expected<L3TypeRef> R = type();
      if (!R)
        return R;
      return L3Type::mk(TyKind::Lolli, *L, *R);
    }
    return L;
  }
  Expected<L3TypeRef> tensorType() {
    Expected<L3TypeRef> L = atomType();
    if (!L)
      return L;
    L3TypeRef Acc = *L;
    while (cur().K == Tok::Star) {
      next();
      Expected<L3TypeRef> R = atomType();
      if (!R)
        return R;
      Acc = L3Type::mk(TyKind::Tensor, Acc, *R);
    }
    return Acc;
  }
  Expected<L3TypeRef> atomType() {
    switch (cur().K) {
    case Tok::KwInt:
      next();
      return L3Type::mk(TyKind::Int);
    case Tok::KwUnit:
      next();
      return L3Type::mk(TyKind::Unit);
    case Tok::Bang: {
      next();
      Expected<L3TypeRef> T = atomType();
      if (!T)
        return T;
      return L3Type::mk(TyKind::Bang, *T);
    }
    case Tok::KwCell: {
      next();
      Expected<L3TypeRef> T = atomType();
      if (!T)
        return T;
      return L3Type::mk(TyKind::Cell, *T);
    }
    case Tok::KwRef: {
      next();
      Expected<L3TypeRef> T = atomType();
      if (!T)
        return T;
      return L3Type::mk(TyKind::MLRef, *T);
    }
    case Tok::LParen: {
      next();
      Expected<L3TypeRef> T = type();
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

  Expected<L3ExprRef> expr() {
    Expected<L3ExprRef> L = addExpr();
    if (!L)
      return L;
    if (cur().K == Tok::Semi) {
      next();
      Expected<L3ExprRef> R = expr();
      if (!R)
        return R;
      L3ExprRef E = L3Expr::mk(ExKind::Seq);
      E->Kids = {*L, *R};
      return E;
    }
    return L;
  }

  Expected<L3ExprRef> addExpr() {
    Expected<L3ExprRef> L = appExpr();
    if (!L)
      return L;
    L3ExprRef Acc = *L;
    while (cur().K == Tok::Plus || cur().K == Tok::Minus ||
           cur().K == Tok::Star) {
      L3Op Op = cur().K == Tok::Plus   ? L3Op::Add
                : cur().K == Tok::Minus ? L3Op::Sub
                                        : L3Op::Mul;
      next();
      Expected<L3ExprRef> R = appExpr();
      if (!R)
        return R;
      L3ExprRef E = L3Expr::mk(ExKind::Binop);
      E->Op = Op;
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
    case Tok::KwNew:
    case Tok::KwFree:
    case Tok::KwSwap:
    case Tok::KwJoin:
    case Tok::KwSplit:
      return true;
    default:
      return false;
    }
  }

  Expected<L3ExprRef> appExpr() {
    Expected<L3ExprRef> L = primExpr();
    if (!L)
      return L;
    L3ExprRef Acc = *L;
    while (startsPrim(cur().K)) {
      Expected<L3ExprRef> R = primExpr();
      if (!R)
        return R;
      L3ExprRef E = L3Expr::mk(ExKind::App);
      E->Kids = {Acc, *R};
      Acc = E;
    }
    return Acc;
  }

  Expected<L3ExprRef> primExpr() {
    switch (cur().K) {
    case Tok::KwLet: {
      next();
      if (cur().K == Tok::LParen) {
        next();
        Expected<std::string> X = ident();
        if (!X)
          return X.error();
        if (Status S = expect(Tok::Comma, "','"); !S)
          return S.error();
        Expected<std::string> Y = ident();
        if (!Y)
          return Y.error();
        if (Status S = expect(Tok::RParen, "')'"); !S)
          return S.error();
        if (Status S = expect(Tok::Eq, "'='"); !S)
          return S.error();
        Expected<L3ExprRef> E1 = expr();
        if (!E1)
          return E1;
        if (Status S = expect(Tok::KwIn, "'in'"); !S)
          return S.error();
        Expected<L3ExprRef> E2 = expr();
        if (!E2)
          return E2;
        L3ExprRef E = L3Expr::mk(ExKind::LetPair);
        E->Name = *X;
        E->Name2 = *Y;
        E->Kids = {*E1, *E2};
        return E;
      }
      Expected<std::string> N = ident();
      if (!N)
        return N.error();
      if (Status S = expect(Tok::Eq, "'='"); !S)
        return S.error();
      Expected<L3ExprRef> E1 = expr();
      if (!E1)
        return E1;
      if (Status S = expect(Tok::KwIn, "'in'"); !S)
        return S.error();
      Expected<L3ExprRef> E2 = expr();
      if (!E2)
        return E2;
      L3ExprRef E = L3Expr::mk(ExKind::Let);
      E->Name = *N;
      E->Kids = {*E1, *E2};
      return E;
    }
    case Tok::Int: {
      L3ExprRef E = L3Expr::mk(ExKind::Int);
      E->IntVal = cur().Num;
      next();
      return E;
    }
    case Tok::Ident: {
      L3ExprRef E = L3Expr::mk(ExKind::VarRef);
      E->Name = cur().Text;
      next();
      return E;
    }
    case Tok::KwNew:
    case Tok::KwFree:
    case Tok::KwJoin:
    case Tok::KwSplit: {
      ExKind K = cur().K == Tok::KwNew    ? ExKind::New
                 : cur().K == Tok::KwFree ? ExKind::Free
                 : cur().K == Tok::KwJoin ? ExKind::Join
                                          : ExKind::Split;
      next();
      Expected<L3ExprRef> E = primExpr();
      if (!E)
        return E;
      L3ExprRef D = L3Expr::mk(K);
      D->Kids = {*E};
      return D;
    }
    case Tok::KwSwap: {
      next();
      Expected<L3ExprRef> E1 = primExpr();
      if (!E1)
        return E1;
      Expected<L3ExprRef> E2 = primExpr();
      if (!E2)
        return E2;
      L3ExprRef D = L3Expr::mk(ExKind::Swap);
      D->Kids = {*E1, *E2};
      return D;
    }
    case Tok::LParen: {
      next();
      if (cur().K == Tok::RParen) {
        next();
        return L3Expr::mk(ExKind::Unit);
      }
      Expected<L3ExprRef> E1 = expr();
      if (!E1)
        return E1;
      if (cur().K == Tok::Comma) {
        next();
        Expected<L3ExprRef> E2 = expr();
        if (!E2)
          return E2;
        if (Status S = expect(Tok::RParen, "')'"); !S)
          return S.error();
        L3ExprRef P = L3Expr::mk(ExKind::Pair);
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

Expected<L3Module> rw::l3::parse(const std::string &Name,
                                 const std::string &Src) {
  Expected<std::vector<Token>> Ts = frontend::lex(Src, Lexicon);
  if (!Ts)
    return Ts.error();
  Parser P(std::move(*Ts));
  return P.module(Name);
}

//===----------------------------------------------------------------------===//
// Linear type checker
//===----------------------------------------------------------------------===//

namespace {

struct L3Ctx {
  std::map<std::string, L3TypeRef> Vars;
  std::map<std::string, int> Uses; ///< Use counts (for linearity).
  std::map<std::string, const L3Fun *> Funs;
  std::map<std::string, const L3Import *> Imports;
};

/// Strips ! wrappers (the FFI import types in Fig 3 are !-wrapped).
const L3TypeRef stripBang(L3TypeRef T) {
  while (T->K == TyKind::Bang)
    T = T->A;
  return T;
}

Status checkL3(L3ExprRef &E, L3Ctx &C) {
  switch (E->K) {
  case ExKind::Int:
    E->Ty = L3Type::mk(TyKind::Int);
    return Status::success();
  case ExKind::Unit:
    E->Ty = L3Type::mk(TyKind::Unit);
    return Status::success();
  case ExKind::VarRef: {
    auto V = C.Vars.find(E->Name);
    if (V == C.Vars.end())
      return Error("unbound variable '" + E->Name + "'");
    C.Uses[E->Name] += 1;
    E->Ty = V->second;
    return Status::success();
  }
  case ExKind::Let: {
    if (Status S = checkL3(E->Kids[0], C); !S)
      return S;
    bool Shadow = C.Vars.count(E->Name);
    L3TypeRef Saved = Shadow ? C.Vars[E->Name] : nullptr;
    int SavedUses = C.Uses[E->Name];
    C.Vars[E->Name] = E->Kids[0]->Ty;
    C.Uses[E->Name] = 0;
    if (Status S = checkL3(E->Kids[1], C); !S)
      return S;
    int N = C.Uses[E->Name];
    if (!l3Unrestricted(E->Kids[0]->Ty) && N != 1)
      return Error("linear variable '" + E->Name + "' used " +
                   std::to_string(N) + " times (must be exactly once)");
    if (Shadow)
      C.Vars[E->Name] = Saved;
    else
      C.Vars.erase(E->Name);
    C.Uses[E->Name] = SavedUses;
    E->Ty = E->Kids[1]->Ty;
    return Status::success();
  }
  case ExKind::LetPair: {
    if (Status S = checkL3(E->Kids[0], C); !S)
      return S;
    if (E->Kids[0]->Ty->K != TyKind::Tensor)
      return Error("let (x, y) over a non-tensor of type " +
                   l3TypeStr(E->Kids[0]->Ty));
    L3Ctx Inner = C;
    Inner.Vars[E->Name] = E->Kids[0]->Ty->A;
    Inner.Vars[E->Name2] = E->Kids[0]->Ty->B;
    Inner.Uses[E->Name] = 0;
    Inner.Uses[E->Name2] = 0;
    if (Status S = checkL3(E->Kids[1], Inner); !S)
      return S;
    if (!l3Unrestricted(E->Kids[0]->Ty->A) && Inner.Uses[E->Name] != 1)
      return Error("linear variable '" + E->Name + "' not used exactly once");
    if (!l3Unrestricted(E->Kids[0]->Ty->B) && Inner.Uses[E->Name2] != 1)
      return Error("linear variable '" + E->Name2 +
                   "' not used exactly once");
    // Propagate outer-variable uses back.
    for (auto &[N, U] : Inner.Uses)
      if (N != E->Name && N != E->Name2)
        C.Uses[N] = U;
    E->Ty = E->Kids[1]->Ty;
    return Status::success();
  }
  case ExKind::Seq: {
    if (Status S = checkL3(E->Kids[0], C); !S)
      return S;
    if (!l3Unrestricted(E->Kids[0]->Ty))
      return Error("';' discards a linear value of type " +
                   l3TypeStr(E->Kids[0]->Ty));
    if (Status S = checkL3(E->Kids[1], C); !S)
      return S;
    E->Ty = E->Kids[1]->Ty;
    return Status::success();
  }
  case ExKind::Pair: {
    if (Status S = checkL3(E->Kids[0], C); !S)
      return S;
    if (Status S = checkL3(E->Kids[1], C); !S)
      return S;
    E->Ty = L3Type::mk(TyKind::Tensor, E->Kids[0]->Ty, E->Kids[1]->Ty);
    return Status::success();
  }
  case ExKind::Binop: {
    for (int I = 0; I < 2; ++I) {
      if (Status S = checkL3(E->Kids[I], C); !S)
        return S;
      if (stripBang(E->Kids[I]->Ty)->K != TyKind::Int)
        return Error("arithmetic on a non-int");
    }
    E->Ty = L3Type::mk(TyKind::Int);
    return Status::success();
  }
  case ExKind::App: {
    if (E->Kids[0]->K != ExKind::VarRef)
      return Error("only top-level functions can be applied in core L3");
    const std::string &F = E->Kids[0]->Name;
    if (Status S = checkL3(E->Kids[1], C); !S)
      return S;
    L3TypeRef FT;
    if (auto It = C.Funs.find(F); It != C.Funs.end())
      FT = L3Type::mk(TyKind::Lolli, It->second->ParamTy, It->second->RetTy);
    else if (auto It2 = C.Imports.find(F); It2 != C.Imports.end())
      FT = stripBang(It2->second->Ty);
    else
      return Error("unknown function '" + F + "'");
    if (FT->K != TyKind::Lolli)
      return Error("'" + F + "' is not a function");
    if (!l3TypeEquals(stripBang(FT->A), stripBang(E->Kids[1]->Ty)))
      return Error("in call of '" + F + "': expected " + l3TypeStr(FT->A) +
                   ", found " + l3TypeStr(E->Kids[1]->Ty));
    E->Ty = FT->B;
    return Status::success();
  }
  case ExKind::New: {
    if (Status S = checkL3(E->Kids[0], C); !S)
      return S;
    E->Ty = L3Type::mk(TyKind::Cell, E->Kids[0]->Ty);
    return Status::success();
  }
  case ExKind::Free: {
    if (Status S = checkL3(E->Kids[0], C); !S)
      return S;
    if (E->Kids[0]->Ty->K != TyKind::Cell)
      return Error("free expects a Cell");
    E->Ty = E->Kids[0]->Ty->A;
    return Status::success();
  }
  case ExKind::Swap: {
    if (Status S = checkL3(E->Kids[0], C); !S)
      return S;
    if (Status S = checkL3(E->Kids[1], C); !S)
      return S;
    if (E->Kids[0]->Ty->K != TyKind::Cell)
      return Error("swap expects a Cell");
    // Strong update: the cell's content type changes to the new value's;
    // the old value comes back (Fig 2's struct.swap at the source level).
    E->Ty = L3Type::mk(TyKind::Tensor, E->Kids[0]->Ty->A,
                       L3Type::mk(TyKind::Cell, E->Kids[1]->Ty));
    return Status::success();
  }
  case ExKind::Join: {
    if (Status S = checkL3(E->Kids[0], C); !S)
      return S;
    if (E->Kids[0]->Ty->K != TyKind::Cell)
      return Error("join expects a Cell");
    E->Ty = L3Type::mk(TyKind::MLRef, E->Kids[0]->Ty->A);
    return Status::success();
  }
  case ExKind::Split: {
    if (Status S = checkL3(E->Kids[0], C); !S)
      return S;
    if (E->Kids[0]->Ty->K != TyKind::MLRef)
      return Error("split expects a Ref");
    E->Ty = L3Type::mk(TyKind::Cell, E->Kids[0]->Ty->A);
    return Status::success();
  }
  }
  return Error("unhandled L3 expression");
}

} // namespace

Status rw::l3::typecheck(L3Module &M) {
  L3Ctx C;
  for (const L3Import &I : M.Imports)
    C.Imports[I.Name] = &I;
  for (const L3Fun &F : M.Funs)
    C.Funs[F.Name] = &F;
  for (L3Fun &F : M.Funs) {
    L3Ctx FC = C;
    FC.Vars[F.Param] = F.ParamTy;
    FC.Uses[F.Param] = 0;
    if (Status S = checkL3(F.Body, FC); !S)
      return Error("in function '" + F.Name + "': " + S.error().message());
    if (!l3Unrestricted(F.ParamTy) && FC.Uses[F.Param] != 1)
      return Error("in function '" + F.Name + "': linear parameter '" +
                   F.Param + "' not used exactly once");
    if (!l3TypeEquals(F.Body->Ty, F.RetTy))
      return Error("function '" + F.Name + "' returns " +
                   l3TypeStr(F.Body->Ty) + " but declares " +
                   l3TypeStr(F.RetTy));
  }
  return Status::success();
}

//===----------------------------------------------------------------------===//
// Type lowering — must agree with ML at FFI boundaries
//===----------------------------------------------------------------------===//

namespace {

uint64_t bitsOf(const Type &T) {
  return closedSizeBits(ir::sizeOfType(T, {}));
}

Type lowerL3(const L3TypeRef &T) {
  switch (T->K) {
  case TyKind::Int:
    return i32T();
  case TyKind::Unit:
    return unitT();
  case TyKind::Bang:
    return lowerL3(T->A);
  case TyKind::Tensor: {
    Type A = lowerL3(T->A);
    Type B = lowerL3(T->B);
    bool Lin = A.Q.isLinConst() || B.Q.isLinConst();
    return Type(prodPT({A, B}), Lin ? Qual::lin() : Qual::unr());
  }
  case TyKind::Lolli: {
    Type A = lowerL3(T->A);
    Type B = lowerL3(T->B);
    return Type(coderefPT(FunType::get({}, build::arrow({A}, {B}))),
                Qual::unr());
  }
  case TyKind::Cell: {
    // ∃ρ. (Cap ρ (struct τ@sz) ⊗ !Ptr ρ): ownership separate from address.
    Type Elem = lowerL3(T->A);
    SizeRef Slot = Size::constant(bitsOf(Elem));
    HeapTypeRef H = structHT({{Elem, Slot}});
    Type CapT(capPT(Privilege::RW, Loc::var(0), H), Qual::lin());
    Type PtrT(ptrPT(Loc::var(0)), Qual::unr());
    return Type(exLocPT(Type(prodPT({CapT, PtrT}), Qual::lin())),
                Qual::lin());
  }
  case TyKind::MLRef: {
    // The joined form — byte-for-byte ML's `lin (ref τ)`.
    Type Elem = lowerL3(T->A);
    SizeRef Slot = Size::constant(bitsOf(Elem));
    HeapTypeRef H = structHT({{Elem, Slot}});
    return Type(exLocPT(Type(refPT(Privilege::RW, Loc::var(0), H),
                             Qual::lin())),
                Qual::lin());
  }
  }
  return unitT();
}

} // namespace

ir::Type rw::l3::lowerL3Type(const L3TypeRef &T) { return lowerL3(T); }

//===----------------------------------------------------------------------===//
// Code generation (single phase — §5: "much easier to compile")
//===----------------------------------------------------------------------===//

namespace {

class L3Cg : public frontend::BodyEmitter {
public:
  explicit L3Cg(const std::map<std::string, uint32_t> &FnIdx)
      : BodyEmitter(/*NumParams=*/1), FnIdx(FnIdx) {}

  const std::map<std::string, uint32_t> &FnIdx;
  struct VInfo {
    uint32_t Local;
    L3TypeRef Ty;
  };
  std::map<std::string, VInfo> Vars;

  Status gen(const L3ExprRef &E, InstVec &O);
};

Status L3Cg::gen(const L3ExprRef &E, InstVec &O) {
  switch (E->K) {
  case ExKind::Int:
    O.push_back(iconst(E->IntVal));
    return Status::success();
  case ExKind::Unit:
    pushUnit(O);
    return Status::success();
  case ExKind::VarRef: {
    const VInfo &V = Vars.at(E->Name);
    read(V.Local, lowerL3(V.Ty).Q, O);
    return Status::success();
  }
  case ExKind::Let: {
    if (Status S = gen(E->Kids[0], O); !S)
      return S;
    Type LT = lowerL3(E->Kids[0]->Ty);
    uint32_t Lc = newLocal(Size::constant(bitsOf(LT)));
    O.push_back(setLocal(Lc));
    VInfo Saved{};
    bool Shadow = Vars.count(E->Name);
    if (Shadow)
      Saved = Vars[E->Name];
    Vars[E->Name] = {Lc, E->Kids[0]->Ty};
    Status S = gen(E->Kids[1], O);
    if (Shadow)
      Vars[E->Name] = Saved;
    else
      Vars.erase(E->Name);
    if (!S)
      return S;
    if (LT.Q.isUnrConst())
      reset(Lc, O);
    return Status::success();
  }
  case ExKind::LetPair: {
    if (Status S = gen(E->Kids[0], O); !S)
      return S;
    Type AT = lowerL3(E->Kids[0]->Ty->A);
    Type BT = lowerL3(E->Kids[0]->Ty->B);
    uint32_t La = newLocal(Size::constant(bitsOf(AT)));
    uint32_t Lb = newLocal(Size::constant(bitsOf(BT)));
    O.push_back(ungroup());
    O.push_back(setLocal(Lb));
    O.push_back(setLocal(La));
    VInfo SA{}, SB{};
    bool ShA = Vars.count(E->Name), ShB = Vars.count(E->Name2);
    if (ShA)
      SA = Vars[E->Name];
    if (ShB)
      SB = Vars[E->Name2];
    Vars[E->Name] = {La, E->Kids[0]->Ty->A};
    Vars[E->Name2] = {Lb, E->Kids[0]->Ty->B};
    Status S = gen(E->Kids[1], O);
    if (ShA)
      Vars[E->Name] = SA;
    else
      Vars.erase(E->Name);
    if (ShB)
      Vars[E->Name2] = SB;
    else
      Vars.erase(E->Name2);
    if (!S)
      return S;
    if (AT.Q.isUnrConst())
      reset(La, O);
    if (BT.Q.isUnrConst())
      reset(Lb, O);
    return Status::success();
  }
  case ExKind::Seq: {
    if (Status S = gen(E->Kids[0], O); !S)
      return S;
    O.push_back(drop());
    return gen(E->Kids[1], O);
  }
  case ExKind::Pair: {
    if (Status S = gen(E->Kids[0], O); !S)
      return S;
    if (Status S = gen(E->Kids[1], O); !S)
      return S;
    Type T = lowerL3(L3Type::mk(TyKind::Tensor, E->Kids[0]->Ty,
                                E->Kids[1]->Ty));
    O.push_back(group(2, T.Q));
    return Status::success();
  }
  case ExKind::Binop: {
    if (Status S = gen(E->Kids[0], O); !S)
      return S;
    if (Status S = gen(E->Kids[1], O); !S)
      return S;
    O.push_back(E->Op == L3Op::Add   ? addI32()
                : E->Op == L3Op::Sub ? subI32()
                                     : mulI32());
    return Status::success();
  }
  case ExKind::App: {
    if (Status S = gen(E->Kids[1], O); !S)
      return S;
    O.push_back(call(FnIdx.at(E->Kids[0]->Name)));
    return Status::success();
  }
  case ExKind::New: {
    // new v  ↝  struct.malloc; then split the reference so ownership (the
    // capability) travels separately from the pointer, as in L3.
    if (Status S = gen(E->Kids[0], O); !S)
      return S;
    Type Elem = lowerL3(E->Kids[0]->Ty);
    Type CellT = lowerL3(E->Ty);
    O.push_back(structMalloc({Size::constant(bitsOf(Elem))}, Qual::lin()));
    return emitUnpack({CellT}, [&](InstVec &B) -> Status {
      B.push_back(refSplit());
      B.push_back(group(2, Qual::lin()));
      B.push_back(memPack(Loc::var(0)));
      return Status::success();
    }, O);
  }
  case ExKind::Free: {
    if (Status S = gen(E->Kids[0], O); !S)
      return S;
    Type Elem = lowerL3(E->Kids[0]->Ty->A);
    uint64_t Bits = bitsOf(Elem);
    return emitUnpack({Elem}, [&](InstVec &B) -> Status {
      B.push_back(ungroup());
      B.push_back(refJoin());
      if (Bits >= 32) {
        // Swap a placeholder in to extract the contents, then free.
        B.push_back(iconst(0));
        B.push_back(structSwap(0));
        uint32_t T = stashTop(B, Size::constant(Bits));
        B.push_back(structFree());
        readAndClear(T, Elem.Q, B);
      } else {
        // Unit contents: nothing to extract.
        B.push_back(structFree());
        pushUnit(B);
      }
      return Status::success();
    }, O);
  }
  case ExKind::Swap: {
    if (Status S = gen(E->Kids[0], O); !S)
      return S;
    Type OldT = lowerL3(E->Kids[0]->Ty->A);
    Type NewCellT = lowerL3(L3Type::mk(TyKind::Cell, E->Kids[1]->Ty));
    Type ResT = lowerL3(E->Ty);
    return emitUnpack({ResT}, [&](InstVec &B) -> Status {
      B.push_back(ungroup());
      B.push_back(refJoin());
      if (Status S = gen(E->Kids[1], B); !S)
        return S;
      B.push_back(structSwap(0));
      uint32_t TOld = stashTop(B, Size::constant(bitsOf(OldT)));
      B.push_back(refSplit());
      B.push_back(group(2, Qual::lin()));
      B.push_back(memPack(Loc::var(0)));
      uint32_t TCell = stashTop(B, Size::constant(bitsOf(NewCellT)));
      readAndClear(TOld, OldT.Q, B);
      read(TCell, Qual::lin(), B);
      B.push_back(group(2, Qual::lin()));
      return Status::success();
    }, O);
  }
  case ExKind::Join: {
    if (Status S = gen(E->Kids[0], O); !S)
      return S;
    Type RefT = lowerL3(E->Ty);
    return emitUnpack({RefT}, [&](InstVec &B) -> Status {
      B.push_back(ungroup());
      B.push_back(refJoin());
      B.push_back(memPack(Loc::var(0)));
      return Status::success();
    }, O);
  }
  case ExKind::Split: {
    if (Status S = gen(E->Kids[0], O); !S)
      return S;
    Type CellT = lowerL3(E->Ty);
    return emitUnpack({CellT}, [&](InstVec &B) -> Status {
      B.push_back(refSplit());
      B.push_back(group(2, Qual::lin()));
      B.push_back(memPack(Loc::var(0)));
      return Status::success();
    }, O);
  }
  }
  return Error("unhandled L3 expression in codegen");
}

} // namespace

Expected<ir::Module> rw::l3::compile(const L3Module &M) {
  ir::Module Out;
  // All types this compiler builds are interned into the output module's
  // arena (the process-wide default), so they are pointer-comparable with
  // every other module's types at link time.
  ir::ArenaScope Scope(*Out.Arena);
  Out.Name = M.Name;
  std::map<std::string, uint32_t> FnIdx;
  for (const L3Import &I : M.Imports) {
    L3TypeRef T = stripBang(I.Ty);
    if (T->K != TyKind::Lolli)
      return Error("import '" + I.Name + "' must have a function type");
    FnIdx[I.Name] = static_cast<uint32_t>(Out.Funcs.size());
    Out.Funcs.push_back(importFunc(
        {I.Mod, I.Name},
        FunType::get({}, build::arrow({lowerL3(T->A)}, {lowerL3(T->B)}))));
  }
  for (const L3Fun &F : M.Funs) {
    FnIdx[F.Name] = static_cast<uint32_t>(Out.Funcs.size());
    ir::Function Fn;
    Fn.Ty = FunType::get(
        {}, build::arrow({lowerL3(F.ParamTy)}, {lowerL3(F.RetTy)}));
    if (F.Exported)
      Fn.Exports.push_back(F.Name);
    Out.Funcs.push_back(std::move(Fn));
  }
  for (const L3Fun &F : M.Funs) {
    L3Cg CG(FnIdx);
    CG.Vars[F.Param] = {0, F.ParamTy};
    InstVec O;
    if (Status S = CG.gen(F.Body, O); !S)
      return Error("in function '" + F.Name + "': " + S.error().message());
    ir::Function &Fn = Out.Funcs[FnIdx[F.Name]];
    Fn.Locals = CG.Locals;
    Fn.Body = std::move(O);
  }
  for (uint32_t I = 0; I < Out.Funcs.size(); ++I)
    Out.Tab.Entries.push_back(I);
  return Out;
}

Expected<ir::Module> rw::l3::compileSource(const std::string &Name,
                                           const std::string &Src) {
  Expected<L3Module> M = parse(Name, Src);
  if (!M)
    return M.error();
  if (Status S = typecheck(*M); !S)
    return S.error();
  return compile(*M);
}
