//===- ml/ML.h - Core ML frontend (§5) --------------------------*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The garbage-collected source language of §5: core ML with units, ints,
/// references, binary variants (sums), products, functions with parametric
/// polymorphism (explicit type parameters on top-level functions, solved by
/// matching at call sites), plus multi-module constructs (imports, exports,
/// global state) and the linking-types extensions:
///
///   * `lin τ`     — compile τ to a *linear* RichWasm type (the paper's
///                   (τ)lin); the ML checker deliberately does NOT enforce
///                   linear usage — RichWasm's checker catches violations;
///   * `linref τ`  — the paper's ref_to_lin: an ML reference that can hold
///                   a linear value, with take/put semantics that fail at
///                   runtime if used twice.
///
/// Compilation is type-preserving: typed closure conversion (closures are
/// heap existentials packing code with environment), an annotation phase
/// (every ML type variable gets the RichWasm bound unr ⪯ α ≲ 64 — all ML
/// values fit one word because aggregates are boxed), and code generation.
///
/// Concrete syntax (everything ends in `;;`):
///
///   import mod.name : type ;;
///   export? fun name ['a 'b]? (x : type) : type = expr ;;
///   global name = expr ;;
///
///   type ::= sum ('->' type)?          sum  ::= prod ('+' prod)*
///   prod ::= atom ('*' atom)*          atom ::= int | unit | 'a | ref atom
///          | lin atom | linref atom | ( type )
///
///   expr ::= let x = e in e | fn (x : T) => e | if e then e else e
///          | case e of inl x => e | inr y => e end
///          | e := e | e ; e | e (= | <) e | e (+|-) e | e * e | e e
///          | n | () | x | (e , e) | !e | ref e | linref e
///          | fst e | snd e | inl [T] e | inr [T] e
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_ML_ML_H
#define RICHWASM_ML_ML_H

#include "ir/Module.h"
#include "support/Error.h"

#include <memory>
#include <string>
#include <vector>

namespace rw::ml {

//===----------------------------------------------------------------------===//
// Surface AST
//===----------------------------------------------------------------------===//

struct MLType;
using MLTypeRef = std::shared_ptr<const MLType>;

enum class TyKind : uint8_t { Int, Unit, Pair, Sum, Ref, Fun, Var, Lin, RefLin };

struct MLType {
  TyKind K;
  MLTypeRef A, B; ///< Components (Pair/Sum/Fun) or element (Ref/Lin/RefLin).
  std::string Var;

  static MLTypeRef mk(TyKind K, MLTypeRef A = nullptr, MLTypeRef B = nullptr) {
    auto T = std::make_shared<MLType>();
    T->K = K;
    T->A = std::move(A);
    T->B = std::move(B);
    return T;
  }
  static MLTypeRef var(std::string Name) {
    auto T = std::make_shared<MLType>();
    T->K = TyKind::Var;
    T->Var = std::move(Name);
    return T;
  }
};

bool mlTypeEquals(const MLTypeRef &A, const MLTypeRef &B);
std::string mlTypeStr(const MLTypeRef &T);

enum class ExKind : uint8_t {
  Int,
  Unit,
  VarRef,
  App,
  Lam,
  Let,
  Pair,
  Fst,
  Snd,
  Inl,
  Inr,
  Case,
  MkRef,
  MkRefLin,
  MkRefLinEmpty,
  Deref,
  Assign,
  Binop,
  If,
  Seq,
};

enum class MLOp : uint8_t { Add, Sub, Mul, Eq, Lt };

struct MLExpr;
using MLExprRef = std::shared_ptr<MLExpr>;

struct MLExpr {
  ExKind K;
  int32_t IntVal = 0;
  std::string Name;        ///< Variable / binder name.
  std::string Name2;       ///< Second binder (case inr).
  MLTypeRef Ann;           ///< Type annotation (lam param, inl/inr).
  MLOp Op = MLOp::Add;
  std::vector<MLExprRef> Kids;

  /// Filled by the type checker.
  MLTypeRef Ty;

  static MLExprRef mk(ExKind K) {
    auto E = std::make_shared<MLExpr>();
    E->K = K;
    return E;
  }
};

struct MLImport {
  std::string Mod, Name;
  MLTypeRef Ty; ///< Must be a function type to be callable.
};

struct MLFun {
  std::string Name;
  std::vector<std::string> TyParams;
  std::string Param;
  MLTypeRef ParamTy, RetTy;
  MLExprRef Body;
  bool Exported = false;
};

struct MLGlobal {
  std::string Name;
  MLExprRef Init;
  MLTypeRef Ty; ///< Inferred.
};

struct MLModule {
  std::string Name;
  std::vector<MLImport> Imports;
  std::vector<MLGlobal> Globals;
  std::vector<MLFun> Funs;
};

//===----------------------------------------------------------------------===//
// Pipeline
//===----------------------------------------------------------------------===//

/// Parses a module from source text.
Expected<MLModule> parse(const std::string &Name, const std::string &Src);

/// Type-checks the module, annotating every expression. Deliberately does
/// not check linear usage of `lin` types (the paper's design: RichWasm
/// catches those violations after compilation).
Status typecheck(MLModule &M);

/// Compiles a checked module to RichWasm (typed closure conversion +
/// annotation + code generation).
Expected<ir::Module> compile(const MLModule &M);

/// Convenience: parse + typecheck + compile.
Expected<ir::Module> compileSource(const std::string &Name,
                                   const std::string &Src);

/// The RichWasm type an ML type compiles to (the shared boundary
/// convention the L3 compiler must agree with for the FFI).
ir::Type lowerMLType(const MLTypeRef &T,
                     const std::vector<std::string> &TyParams);

} // namespace rw::ml

#endif // RICHWASM_ML_ML_H
