//===- l3/L3.h - L3 frontend (§5) --------------------------------*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The manually-managed source language of §5: core L3 [Morrisett, Ahmed,
/// Fluet], a linear language with locations and safe strong updates,
/// adjusted per the paper so capabilities carry the size of the memory they
/// reference. Its types:
///
///   τ ::= unit | int | !τ | τ ⊗ τ | τ ⊸ τ | Cell τ | Ref τ
///
/// `Cell τ` is the ∃ρ. (Cap ρ τ sz ⊗ !Ptr ρ) package `new` returns —
/// ownership (the capability) travels separately from the address. The
/// linking-types FFI extensions add the ML-style `Ref τ` (a joined
/// capability+pointer, exactly ML's `lin (ref τ)` representation, so the
/// two compilers agree at boundaries) and `join`/`split` to convert.
///
/// The checker enforces linearity: every linear variable is used exactly
/// once. Compilation is single-phase (no closure conversion — functions
/// are top level), mapping new/free/swap to RichWasm's struct.malloc /
/// struct.free / struct.swap, and join/split to ref.join / ref.split with
/// mem.pack/mem.unpack around them.
///
/// Concrete syntax:
///
///   import mod.name : type ;;
///   export? fun name (x : type) : type = expr ;;
///
///   expr ::= let (x , y) = e in e | let x = e in e | e ; e
///          | e (+|-|*) e | n | () | x | (e , e)
///          | new e | free e | swap e e | join e | split e | f e
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_L3_L3_H
#define RICHWASM_L3_L3_H

#include "ir/Module.h"
#include "support/Error.h"

#include <memory>
#include <string>
#include <vector>

namespace rw::l3 {

struct L3Type;
using L3TypeRef = std::shared_ptr<const L3Type>;

enum class TyKind : uint8_t { Int, Unit, Bang, Tensor, Lolli, Cell, MLRef };

struct L3Type {
  TyKind K;
  L3TypeRef A, B;

  static L3TypeRef mk(TyKind K, L3TypeRef A = nullptr, L3TypeRef B = nullptr) {
    auto T = std::make_shared<L3Type>();
    T->K = K;
    T->A = std::move(A);
    T->B = std::move(B);
    return T;
  }
};

bool l3TypeEquals(const L3TypeRef &A, const L3TypeRef &B);
std::string l3TypeStr(const L3TypeRef &T);
/// A type is unrestricted when its values may be freely copied/dropped
/// (int, unit, !τ, ⊸ of top-level functions, tensors of unrestricted).
bool l3Unrestricted(const L3TypeRef &T);

enum class ExKind : uint8_t {
  Int,
  Unit,
  VarRef,
  LetPair,
  Let,
  Seq,
  Pair,
  Binop,
  App,
  New,
  Free,
  Swap,
  Join,
  Split,
};

enum class L3Op : uint8_t { Add, Sub, Mul };

struct L3Expr;
using L3ExprRef = std::shared_ptr<L3Expr>;

struct L3Expr {
  ExKind K;
  int32_t IntVal = 0;
  std::string Name, Name2;
  L3Op Op = L3Op::Add;
  std::vector<L3ExprRef> Kids;
  L3TypeRef Ty; ///< Filled by the checker.

  static L3ExprRef mk(ExKind K) {
    auto E = std::make_shared<L3Expr>();
    E->K = K;
    return E;
  }
};

struct L3Import {
  std::string Mod, Name;
  L3TypeRef Ty; ///< A ⊸ (possibly under !).
};

struct L3Fun {
  std::string Name;
  std::string Param;
  L3TypeRef ParamTy, RetTy;
  L3ExprRef Body;
  bool Exported = false;
};

struct L3Module {
  std::string Name;
  std::vector<L3Import> Imports;
  std::vector<L3Fun> Funs;
};

Expected<L3Module> parse(const std::string &Name, const std::string &Src);

/// Type-checks with full linearity enforcement (unlike ML, L3 is a linear
/// language natively).
Status typecheck(L3Module &M);

Expected<ir::Module> compile(const L3Module &M);
Expected<ir::Module> compileSource(const std::string &Name,
                                   const std::string &Src);

/// The RichWasm type an L3 type compiles to (must agree with ML's lowering
/// at FFI boundaries; in particular `Ref τ` here equals `lin (ref τ)`
/// there).
ir::Type lowerL3Type(const L3TypeRef &T);

} // namespace rw::l3

#endif // RICHWASM_L3_L3_H
