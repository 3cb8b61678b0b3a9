//===- ir/Print.cpp - Text rendering of RichWasm IR ----------------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Print.h"

#include <cassert>
#include <sstream>

using namespace rw;
using namespace rw::ir;

static std::string printTypes(const std::vector<Type> &Ts) {
  std::string Out;
  for (size_t I = 0; I < Ts.size(); ++I) {
    if (I)
      Out += " ";
    Out += printType(Ts[I]);
  }
  return Out;
}

std::string rw::ir::printArrow(const ArrowType &A) {
  return "[" + printTypes(A.Params) + "] -> [" + printTypes(A.Results) + "]";
}

std::string rw::ir::printHeapType(const HeapTypeRef &H) {
  assert(H && "printing a null heap type");
  switch (H->kind()) {
  case HeapTypeKind::Variant:
    return "(variant " + printTypes(cast<VariantHT>(H.get())->cases()) + ")";
  case HeapTypeKind::Struct: {
    std::string Out = "(struct";
    for (const StructField &F : cast<StructHT>(H.get())->structFields())
      Out += " (" + printType(F.T) + ", " + F.Slot->str() + ")";
    return Out + ")";
  }
  case HeapTypeKind::Array:
    return "(array " + printType(cast<ArrayHT>(H.get())->elem()) + ")";
  case HeapTypeKind::Ex: {
    const auto *E = cast<ExHT>(H.get());
    return "(∃ " + E->qualLower().str() + " ⪯ α ≲ " +
           E->sizeUpper()->str() + ". " + printType(E->body()) + ")";
  }
  }
  return "<heaptype>";
}

std::string rw::ir::printFunType(const FunType &F) {
  std::string Out;
  if (!F.quants().empty()) {
    Out += "∀";
    for (const Quant &Q : F.quants()) {
      switch (Q.K) {
      case QuantKind::Loc:
        Out += " ρ";
        break;
      case QuantKind::Size: {
        Out += " (σ";
        for (const SizeRef &S : Q.SizeLower)
          Out += " ≥" + S->str();
        for (const SizeRef &S : Q.SizeUpper)
          Out += " ≤" + S->str();
        Out += ")";
        break;
      }
      case QuantKind::Qual: {
        Out += " (δ";
        for (Qual X : Q.QualLower)
          Out += " ⪰" + X.str();
        for (Qual X : Q.QualUpper)
          Out += " ⪯" + X.str();
        Out += ")";
        break;
      }
      case QuantKind::Type:
        Out += " (" + Q.TypeQualLower.str() + " ⪯ α" +
               (Q.TypeNoCaps ? "" : "ᶜ") + " ≲ " + Q.TypeSizeUpper->str() +
               ")";
        break;
      }
    }
    Out += ". ";
  }
  return Out + printArrow(F.arrow());
}

std::string rw::ir::printPretype(const PretypeRef &P) {
  assert(P && "printing a null pretype");
  switch (P->kind()) {
  case PretypeKind::Unit:
    return "unit";
  case PretypeKind::Num:
    return numTypeName(cast<NumPT>(P.get())->numType());
  case PretypeKind::Var:
    return "α" + std::to_string(cast<VarPT>(P.get())->index());
  case PretypeKind::Skolem:
    return "α#" + std::to_string(cast<SkolemPT>(P.get())->id());
  case PretypeKind::Prod:
    return "(" + printTypes(cast<ProdPT>(P.get())->elems()) + ")";
  case PretypeKind::Ref: {
    const auto *R = cast<RefPT>(P.get());
    return std::string("(ref ") +
           (R->privilege() == Privilege::RW ? "rw " : "r ") +
           R->loc().str() + " " + printHeapType(R->heapType()) + ")";
  }
  case PretypeKind::Ptr:
    return "(ptr " + cast<PtrPT>(P.get())->loc().str() + ")";
  case PretypeKind::Cap: {
    const auto *C = cast<CapPT>(P.get());
    return std::string("(cap ") +
           (C->privilege() == Privilege::RW ? "rw " : "r ") +
           C->loc().str() + " " + printHeapType(C->heapType()) + ")";
  }
  case PretypeKind::Own:
    return "(own " + cast<OwnPT>(P.get())->loc().str() + ")";
  case PretypeKind::Rec: {
    const auto *R = cast<RecPT>(P.get());
    return "(rec " + R->bound().str() + " ⪯ α. " + printType(R->body()) +
           ")";
  }
  case PretypeKind::ExLoc:
    return "(∃ρ. " + printType(cast<ExLocPT>(P.get())->body()) + ")";
  case PretypeKind::Coderef:
    return "(coderef " + printFunType(*cast<CoderefPT>(P.get())->funType()) +
           ")";
  }
  return "<pretype>";
}

std::string rw::ir::printType(const Type &T) {
  return printPretype(T.P) + "^" + T.Q.str();
}

static std::string indentStr(unsigned Indent) {
  return std::string(Indent * 2, ' ');
}

static std::string printFx(const std::vector<LocalEffect> &Fx) {
  if (Fx.empty())
    return "";
  std::string Out = " {";
  for (size_t I = 0; I < Fx.size(); ++I) {
    if (I)
      Out += ", ";
    Out += std::to_string(Fx[I].LocalIdx) + " ↦ " + printType(Fx[I].T);
  }
  return Out + "}";
}

std::string rw::ir::printInsts(const InstVec &Insts, unsigned Indent) {
  std::string Out;
  for (const InstRef &I : Insts)
    Out += printInst(*I, Indent) + "\n";
  return Out;
}

std::string rw::ir::printInst(const Inst &I, unsigned Indent) {
  std::string Pad = indentStr(Indent);
  switch (I.kind()) {
  case InstKind::NumConst: {
    const auto *C = cast<NumConstInst>(&I);
    return Pad + std::string(numTypeName(C->numType())) + ".const " +
           std::to_string(C->bits());
  }
  case InstKind::NumUnop: {
    const auto *U = cast<NumUnopInst>(&I);
    return Pad + std::string(numTypeName(U->numType())) + "." +
           unopName(U->op());
  }
  case InstKind::NumBinop: {
    const auto *B = cast<NumBinopInst>(&I);
    return Pad + std::string(numTypeName(B->numType())) + "." +
           binopName(B->op());
  }
  case InstKind::NumTestop:
    return Pad +
           std::string(numTypeName(cast<NumTestopInst>(&I)->numType())) +
           ".eqz";
  case InstKind::NumRelop: {
    const auto *R = cast<NumRelopInst>(&I);
    return Pad + std::string(numTypeName(R->numType())) + "." +
           relopName(R->op());
  }
  case InstKind::NumCvt: {
    const auto *C = cast<NumCvtInst>(&I);
    return Pad + std::string(numTypeName(C->to())) + "." +
           (C->op() == CvtopKind::Convert ? "convert" : "reinterpret") + "/" +
           numTypeName(C->from());
  }
  case InstKind::Unreachable:
    return Pad + "unreachable";
  case InstKind::Nop:
    return Pad + "nop";
  case InstKind::Drop:
    return Pad + "drop";
  case InstKind::Select:
    return Pad + "select";
  case InstKind::Block: {
    const auto *B = cast<BlockInst>(&I);
    return Pad + "block " + printArrow(B->arrow()) + printFx(B->effects()) +
           "\n" + printInsts(B->body(), Indent + 1) + Pad + "end";
  }
  case InstKind::Loop: {
    const auto *L = cast<LoopInst>(&I);
    return Pad + "loop " + printArrow(L->arrow()) + "\n" +
           printInsts(L->body(), Indent + 1) + Pad + "end";
  }
  case InstKind::If: {
    const auto *F = cast<IfInst>(&I);
    return Pad + "if " + printArrow(F->arrow()) + printFx(F->effects()) +
           "\n" + printInsts(F->thenBody(), Indent + 1) + Pad + "else\n" +
           printInsts(F->elseBody(), Indent + 1) + Pad + "end";
  }
  case InstKind::Br:
    return Pad + "br " + std::to_string(cast<BrInst>(&I)->depth());
  case InstKind::BrIf:
    return Pad + "br_if " + std::to_string(cast<BrInst>(&I)->depth());
  case InstKind::BrTable: {
    const auto *B = cast<BrTableInst>(&I);
    std::string Out = Pad + "br_table";
    for (uint32_t D : B->depths())
      Out += " " + std::to_string(D);
    return Out + " default=" + std::to_string(B->defaultDepth());
  }
  case InstKind::Return:
    return Pad + "return";
  case InstKind::GetLocal: {
    const auto *G = cast<GetLocalInst>(&I);
    return Pad + "get_local " + std::to_string(G->index()) + " " +
           G->qual().str();
  }
  case InstKind::SetLocal:
    return Pad + "set_local " + std::to_string(cast<VarIdxInst>(&I)->index());
  case InstKind::TeeLocal:
    return Pad + "tee_local " + std::to_string(cast<VarIdxInst>(&I)->index());
  case InstKind::GetGlobal:
    return Pad + "get_global " +
           std::to_string(cast<VarIdxInst>(&I)->index());
  case InstKind::SetGlobal:
    return Pad + "set_global " +
           std::to_string(cast<VarIdxInst>(&I)->index());
  case InstKind::Qualify:
    return Pad + "qualify " + cast<QualifyInst>(&I)->qual().str();
  case InstKind::CoderefI:
    return Pad + "coderef " + std::to_string(cast<CoderefInst>(&I)->funcIndex());
  case InstKind::InstIdx:
    return Pad + "inst <" +
           std::to_string(cast<InstIdxInst>(&I)->args().size()) + " indices>";
  case InstKind::CallIndirect:
    return Pad + "call_indirect";
  case InstKind::Call: {
    const auto *C = cast<CallInst>(&I);
    std::string Out = Pad + "call " + std::to_string(C->funcIndex());
    if (!C->args().empty())
      Out += " <" + std::to_string(C->args().size()) + " indices>";
    return Out;
  }
  case InstKind::RecFold:
    return Pad + "rec.fold " + printPretype(cast<RecFoldInst>(&I)->pretype());
  case InstKind::RecUnfold:
    return Pad + "rec.unfold";
  case InstKind::MemPack:
    return Pad + "mem.pack " + cast<MemPackInst>(&I)->loc().str();
  case InstKind::MemUnpack: {
    const auto *M = cast<MemUnpackInst>(&I);
    return Pad + "mem.unpack " + printArrow(M->arrow()) +
           printFx(M->effects()) + " ρ.\n" +
           printInsts(M->body(), Indent + 1) + Pad + "end";
  }
  case InstKind::Group: {
    const auto *G = cast<GroupInst>(&I);
    return Pad + "seq.group " + std::to_string(G->count()) + " " +
           G->qual().str();
  }
  case InstKind::Ungroup:
    return Pad + "seq.ungroup";
  case InstKind::CapSplit:
    return Pad + "cap.split";
  case InstKind::CapJoin:
    return Pad + "cap.join";
  case InstKind::RefDemote:
    return Pad + "ref.demote";
  case InstKind::RefSplit:
    return Pad + "ref.split";
  case InstKind::RefJoin:
    return Pad + "ref.join";
  case InstKind::StructMalloc: {
    const auto *S = cast<StructMallocInst>(&I);
    std::string Out = Pad + "struct.malloc [";
    for (size_t K = 0; K < S->sizes().size(); ++K) {
      if (K)
        Out += " ";
      Out += S->sizes()[K]->str();
    }
    return Out + "] " + S->qual().str();
  }
  case InstKind::StructFree:
    return Pad + "struct.free";
  case InstKind::StructGet:
    return Pad + "struct.get " +
           std::to_string(cast<StructIdxInst>(&I)->fieldIndex());
  case InstKind::StructSet:
    return Pad + "struct.set " +
           std::to_string(cast<StructIdxInst>(&I)->fieldIndex());
  case InstKind::StructSwap:
    return Pad + "struct.swap " +
           std::to_string(cast<StructIdxInst>(&I)->fieldIndex());
  case InstKind::VariantMalloc: {
    const auto *V = cast<VariantMallocInst>(&I);
    return Pad + "variant.malloc " + std::to_string(V->tag()) + " [" +
           printTypes(V->cases()) + "] " + V->qual().str();
  }
  case InstKind::VariantCase: {
    const auto *V = cast<VariantCaseInst>(&I);
    std::string Out = Pad + "variant.case " + V->qual().str() + " " +
                      printHeapType(V->heapType()) + " " +
                      printArrow(V->arrow()) + printFx(V->effects()) + "\n";
    for (const InstVec &Arm : V->arms()) {
      Out += Pad + "case\n" + printInsts(Arm, Indent + 1);
    }
    return Out + Pad + "end";
  }
  case InstKind::ArrayMalloc:
    return Pad + "array.malloc " + cast<ArrayMallocInst>(&I)->qual().str();
  case InstKind::ArrayGet:
    return Pad + "array.get";
  case InstKind::ArraySet:
    return Pad + "array.set";
  case InstKind::ArrayFree:
    return Pad + "array.free";
  case InstKind::ExistPack: {
    const auto *E = cast<ExistPackInst>(&I);
    return Pad + "exist.pack " + printPretype(E->witness()) + " " +
           printHeapType(E->heapType()) + " " + E->qual().str();
  }
  case InstKind::ExistUnpack: {
    const auto *E = cast<ExistUnpackInst>(&I);
    return Pad + "exist.unpack " + E->qual().str() + " " +
           printHeapType(E->heapType()) + " " + printArrow(E->arrow()) +
           printFx(E->effects()) + " α.\n" +
           printInsts(E->body(), Indent + 1) + Pad + "end";
  }
  }
  return Pad + "<inst>";
}

std::string rw::ir::printModule(const Module &M) {
  std::ostringstream OS;
  OS << "(module \"" << M.Name << "\"\n";
  for (size_t I = 0; I < M.Funcs.size(); ++I) {
    const Function &F = M.Funcs[I];
    OS << "  (func $" << I;
    for (const std::string &E : F.Exports)
      OS << " (export \"" << E << "\")";
    if (F.isImport())
      OS << " (import \"" << F.Import->Module << "\" \"" << F.Import->Name
         << "\")";
    OS << " : " << printFunType(*F.Ty) << "\n";
    if (!F.isImport()) {
      OS << "    (locals";
      for (const SizeRef &S : F.Locals)
        OS << " " << S->str();
      OS << ")\n" << printInsts(F.Body, 2);
    }
    OS << "  )\n";
  }
  for (size_t I = 0; I < M.Globals.size(); ++I) {
    const Global &G = M.Globals[I];
    OS << "  (global $" << I << (G.Mut ? " mut " : " ")
       << printPretype(G.P);
    for (const std::string &E : G.Exports)
      OS << " (export \"" << E << "\")";
    OS << ")\n";
  }
  OS << "  (table";
  for (uint32_t E : M.Tab.Entries)
    OS << " " << E;
  OS << ")\n)\n";
  return OS.str();
}
