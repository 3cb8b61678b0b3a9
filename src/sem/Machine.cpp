//===- sem/Machine.cpp - Small-step reduction (Fig 4) ---------------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sem/Machine.h"

#include "ir/TypeOps.h"
#include "support/NumericOps.h"

#include <cassert>
#include <set>

using namespace rw;
using namespace rw::sem;
using ir::InstKind;
using ir::MemKind;

CodeSeq rw::sem::toCode(const ir::InstVec &Insts) {
  CodeSeq Seq;
  Seq.reserve(Insts.size());
  for (const ir::InstRef &I : Insts)
    Seq.push_back(Code::inst(I));
  return Seq;
}

/// Which memory a (runtime-concrete) qualifier allocates into.
static MemKind memForQual(ir::Qual Q) {
  assert(Q.isConst() && "allocation qualifier must be concrete at runtime");
  return Q.isLinConst() ? MemKind::Lin : MemKind::Unr;
}

//===----------------------------------------------------------------------===//
// Machine driver
//===----------------------------------------------------------------------===//

void Machine::setupInvoke(uint32_t InstIdx, uint32_t FuncIdx,
                          std::vector<ir::Index> TypeArgs,
                          std::vector<Value> Args) {
  C = Config();
  C.InstIdx = InstIdx;
  for (Value &V : Args)
    C.Program.push_back(Code::val(std::move(V)));
  assert(InstIdx < S.Insts.size() && "invoke: bad instance index");
  assert(FuncIdx < S.Insts[InstIdx].Funcs.size() && "invoke: bad function");
  C.Program.push_back(
      Code::callAdm(S.Insts[InstIdx].Funcs[FuncIdx], std::move(TypeArgs)));
}

StepStatus Machine::step() {
  // Types minted during reduction (address-specialized unpack bodies,
  // call instantiations, witnesses) intern into the machine's own arena
  // and die with it, instead of accreting in the process-wide one.
  ir::ArenaScope Scope(*RuntimeTypes);
  LocalEnv Env{&C.Locals, &C.SlotBits, C.InstIdx};
  StepOut Out = stepSeq(C.Program, Env);
  switch (Out.R) {
  case SeqResult::Stepped:
    ++Steps;
    maybeAutoCollect();
    return StepStatus::Stepped;
  case SeqResult::AllValues:
    return StepStatus::Done;
  case SeqResult::Trapped:
    C.Program.clear();
    C.Program.push_back(Code::trap());
    ++Steps;
    return StepStatus::Trapped;
  case SeqResult::Returning: {
    // A return at the top level: the configuration finishes with the
    // returned values.
    C.Program.clear();
    for (Value &V : Out.Vals)
      C.Program.push_back(Code::val(std::move(V)));
    ++Steps;
    return StepStatus::Stepped;
  }
  case SeqResult::Breaking:
  case SeqResult::Stuck:
    return StepStatus::Stuck;
  }
  return StepStatus::Stuck;
}

Expected<std::vector<Value>> Machine::run(uint64_t MaxSteps) {
  for (uint64_t I = 0; I < MaxSteps; ++I) {
    switch (step()) {
    case StepStatus::Stepped:
      continue;
    case StepStatus::Done: {
      std::vector<Value> Out;
      for (const Code &Cd : C.Program) {
        assert(Cd.K == CodeKind::Val && "done program contains non-values");
        Out.push_back(Cd.V);
      }
      return Out;
    }
    case StepStatus::Trapped:
      return Error("trap: execution trapped");
    case StepStatus::Stuck:
      return Error("stuck: no reduction rule applies (unchecked code?)");
    }
  }
  return Error("fuel exhausted: exceeded step budget");
}

Expected<std::vector<Value>> Machine::invoke(uint32_t InstIdx,
                                             uint32_t FuncIdx,
                                             std::vector<ir::Index> TypeArgs,
                                             std::vector<Value> Args,
                                             uint64_t MaxSteps) {
  setupInvoke(InstIdx, FuncIdx, std::move(TypeArgs), std::move(Args));
  return run(MaxSteps);
}

void Machine::maybeAutoCollect() {
  if (GcThreshold && S.Mem.Unr.size() > GcThreshold)
    collect();
}

//===----------------------------------------------------------------------===//
// Sequence stepping
//===----------------------------------------------------------------------===//

Machine::StepOut Machine::reduceAt(CodeSeq &Seq, size_t K, size_t NPop,
                                   std::vector<Code> Repl) {
  assert(K >= NPop && "reduceAt: not enough operands");
  Seq.erase(Seq.begin() + static_cast<ptrdiff_t>(K - NPop),
            Seq.begin() + static_cast<ptrdiff_t>(K + 1));
  Seq.insert(Seq.begin() + static_cast<ptrdiff_t>(K - NPop),
             std::make_move_iterator(Repl.begin()),
             std::make_move_iterator(Repl.end()));
  return {SeqResult::Stepped, 0, {}};
}

Machine::StepOut Machine::stepSeq(CodeSeq &Seq, const LocalEnv &Env) {
  // Locate the first non-value element; everything before it is the local
  // operand stack.
  size_t K = 0;
  while (K < Seq.size() && Seq[K].K == CodeKind::Val)
    ++K;
  if (K == Seq.size())
    return {SeqResult::AllValues, 0, {}};

  Code &Cur = Seq[K];
  switch (Cur.K) {
  case CodeKind::Val:
    break;
  case CodeKind::Trap:
    return {SeqResult::Trapped, 0, {}};

  case CodeKind::Label: {
    LabelData &L = *Cur.Lbl;
    StepOut Inner = stepSeq(L.Body, Env);
    switch (Inner.R) {
    case SeqResult::Stepped:
    case SeqResult::Trapped:
    case SeqResult::Returning:
    case SeqResult::Stuck:
      return Inner;
    case SeqResult::AllValues: {
      // label_n {cont} v* end ↪ v*.
      std::vector<Code> Repl = std::move(L.Body);
      return reduceAt(Seq, K, 0, std::move(Repl));
    }
    case SeqResult::Breaking: {
      if (Inner.BreakDepth > 0)
        return {SeqResult::Breaking, Inner.BreakDepth - 1,
                std::move(Inner.Vals)};
      // br to this label: take the top Arity values; loops re-enter.
      if (Inner.Vals.size() < L.Arity)
        return {SeqResult::Stuck, 0, {}};
      std::vector<Code> Repl;
      for (size_t I = Inner.Vals.size() - L.Arity; I < Inner.Vals.size(); ++I)
        Repl.push_back(Code::val(std::move(Inner.Vals[I])));
      if (L.LoopCont)
        Repl.push_back(Code::inst(L.LoopCont));
      return reduceAt(Seq, K, 0, std::move(Repl));
    }
    }
    return {SeqResult::Stuck, 0, {}};
  }

  case CodeKind::Frame: {
    FrameData &F = *Cur.Frm;
    LocalEnv Inner{&F.Locals, &F.SlotBits, F.InstIdx};
    StepOut Out = stepSeq(F.Body, Inner);
    switch (Out.R) {
    case SeqResult::Stepped:
    case SeqResult::Trapped:
    case SeqResult::Stuck:
      return Out;
    case SeqResult::AllValues: {
      if (F.Body.size() != F.Arity)
        return {SeqResult::Stuck, 0, {}};
      std::vector<Code> Repl = std::move(F.Body);
      return reduceAt(Seq, K, 0, std::move(Repl));
    }
    case SeqResult::Returning: {
      if (Out.Vals.size() < F.Arity)
        return {SeqResult::Stuck, 0, {}};
      std::vector<Code> Repl;
      for (size_t I = Out.Vals.size() - F.Arity; I < Out.Vals.size(); ++I)
        Repl.push_back(Code::val(std::move(Out.Vals[I])));
      return reduceAt(Seq, K, 0, std::move(Repl));
    }
    case SeqResult::Breaking:
      return {SeqResult::Stuck, 0, {}}; // br cannot cross a frame.
    }
    return {SeqResult::Stuck, 0, {}};
  }

  case CodeKind::Malloc: {
    MallocData &M = *Cur.Mal;
    ir::Loc L = S.Mem.allocate(M.M, std::move(M.HV), M.SizeBits);
    return reduceAt(Seq, K, 0,
                    {Code::val(Value::mempack(L, Value::ref(L)))});
  }

  case CodeKind::FreeAdm: {
    if (K < 1 || Seq[K - 1].V.kind() != ValueKind::Ref)
      return {SeqResult::Stuck, 0, {}};
    if (!S.Mem.freeLin(Seq[K - 1].V.loc()))
      return {SeqResult::Trapped, 0, {}}; // double free / bad location
    return reduceAt(Seq, K, 1, {});
  }

  case CodeKind::CallAdm: {
    const CallData &CD = *Cur.Call;
    assert(CD.Cl.InstIdx < S.Insts.size() && "call: bad instance");
    const Instance &Inst = S.Insts[CD.Cl.InstIdx];
    assert(CD.Cl.FuncIdx < Inst.Mod->Funcs.size() && "call: bad function");
    const ir::Function &F = Inst.Mod->Funcs[CD.Cl.FuncIdx];
    assert(!F.isImport() && "call: closure resolves to an import");
    assert(F.Ty->quants().size() == CD.TypeArgs.size() &&
           "call: instantiation arity mismatch");

    ir::Subst Sub = ir::Subst::fromIndices(CD.TypeArgs);
    size_t NArgs = F.Ty->arrow().Params.size();
    if (K < NArgs)
      return {SeqResult::Stuck, 0, {}};

    std::vector<Value> Locals;
    std::vector<uint64_t> Slots;
    Locals.reserve(NArgs + F.Locals.size());
    for (size_t I = 0; I < NArgs; ++I) {
      const Value &V = Seq[K - NArgs + I].V;
      Locals.push_back(V);
      ir::SizeRef PSz =
          ir::sizeOfType(Sub.rewrite(F.Ty->arrow().Params[I]), {});
      Slots.push_back(ir::closedSizeBits(PSz));
    }
    for (const ir::SizeRef &Sz : F.Locals) {
      Locals.push_back(Value::unit());
      Slots.push_back(ir::closedSizeBits(Sub.rewrite(Sz)));
    }
    CodeSeq Body = toCode(ir::rewriteInsts(F.Body, Sub));
    uint32_t Arity = static_cast<uint32_t>(F.Ty->arrow().Results.size());
    return reduceAt(Seq, K, NArgs,
                    {Code::frame(Arity, CD.Cl.InstIdx, std::move(Locals),
                                 std::move(Slots), std::move(Body))});
  }

  case CodeKind::Inst:
    return execInst(Seq, K, Env);
  }
  return {SeqResult::Stuck, 0, {}};
}

//===----------------------------------------------------------------------===//
// Instruction execution
//===----------------------------------------------------------------------===//

/// The value at stack offset \p Back below position \p K (Back = 0 is the
/// top of stack), or nullptr if out of range.
static const Value *peek(const CodeSeq &Seq, size_t K, size_t Back) {
  if (K < Back + 1)
    return nullptr;
  const Code &Cd = Seq[K - 1 - Back];
  return Cd.K == CodeKind::Val ? &Cd.V : nullptr;
}

/// Collects the entire value prefix Seq[0..K).
static std::vector<Value> takeStack(CodeSeq &Seq, size_t K) {
  std::vector<Value> Vals;
  Vals.reserve(K);
  for (size_t I = 0; I < K; ++I)
    Vals.push_back(std::move(Seq[I].V));
  return Vals;
}

Machine::StepOut Machine::execInst(CodeSeq &Seq, size_t K,
                                   const LocalEnv &Env) {
  const ir::Inst &I = *Seq[K].I;
  const StepOut Stuck{SeqResult::Stuck, 0, {}};
  const StepOut Trapped{SeqResult::Trapped, 0, {}};

  switch (I.kind()) {
  case InstKind::NumConst: {
    const auto *Cst = cast<ir::NumConstInst>(&I);
    return reduceAt(Seq, K, 0,
                    {Code::val(Value::num(Cst->numType(), Cst->bits()))});
  }
  case InstKind::NumUnop:
  case InstKind::NumBinop:
  case InstKind::NumTestop:
  case InstKind::NumRelop:
  case InstKind::NumCvt:
    return execNumeric(Seq, K, I);

  case InstKind::Unreachable:
    return Trapped;
  case InstKind::Nop:
    return reduceAt(Seq, K, 0, {});
  case InstKind::Drop: {
    if (!peek(Seq, K, 0))
      return Stuck;
    return reduceAt(Seq, K, 1, {});
  }
  case InstKind::Select: {
    const Value *Cond = peek(Seq, K, 0);
    const Value *V2 = peek(Seq, K, 1);
    const Value *V1 = peek(Seq, K, 2);
    if (!Cond || !V2 || !V1 || !Cond->isNum())
      return Stuck;
    Value Chosen = Cond->bits() != 0 ? *V1 : *V2;
    return reduceAt(Seq, K, 3, {Code::val(std::move(Chosen))});
  }

  case InstKind::Block: {
    const auto *B = cast<ir::BlockInst>(&I);
    size_t NP = B->arrow().Params.size();
    if (K < NP)
      return Stuck;
    CodeSeq Body;
    for (size_t J = 0; J < NP; ++J)
      Body.push_back(std::move(Seq[K - NP + J]));
    CodeSeq Rest = toCode(B->body());
    Body.insert(Body.end(), std::make_move_iterator(Rest.begin()),
                std::make_move_iterator(Rest.end()));
    uint32_t Arity = static_cast<uint32_t>(B->arrow().Results.size());
    return reduceAt(Seq, K, NP,
                    {Code::label(Arity, nullptr, std::move(Body))});
  }
  case InstKind::Loop: {
    const auto *L = cast<ir::LoopInst>(&I);
    size_t NP = L->arrow().Params.size();
    if (K < NP)
      return Stuck;
    CodeSeq Body;
    for (size_t J = 0; J < NP; ++J)
      Body.push_back(std::move(Seq[K - NP + J]));
    CodeSeq Rest = toCode(L->body());
    Body.insert(Body.end(), std::make_move_iterator(Rest.begin()),
                std::make_move_iterator(Rest.end()));
    // A br to a loop label re-executes the loop with |params| values.
    uint32_t Arity = static_cast<uint32_t>(NP);
    return reduceAt(Seq, K, NP,
                    {Code::label(Arity, Seq[K].I, std::move(Body))});
  }
  case InstKind::If: {
    const auto *F = cast<ir::IfInst>(&I);
    const Value *Cond = peek(Seq, K, 0);
    if (!Cond || !Cond->isNum())
      return Stuck;
    size_t NP = F->arrow().Params.size();
    if (K < NP + 1)
      return Stuck;
    bool Taken = Cond->bits() != 0;
    CodeSeq Body;
    for (size_t J = 0; J < NP; ++J)
      Body.push_back(std::move(Seq[K - 1 - NP + J]));
    CodeSeq Rest = toCode(Taken ? F->thenBody() : F->elseBody());
    Body.insert(Body.end(), std::make_move_iterator(Rest.begin()),
                std::make_move_iterator(Rest.end()));
    uint32_t Arity = static_cast<uint32_t>(F->arrow().Results.size());
    return reduceAt(Seq, K, NP + 1,
                    {Code::label(Arity, nullptr, std::move(Body))});
  }

  case InstKind::Br: {
    std::vector<Value> Vals = takeStack(Seq, K);
    return {SeqResult::Breaking, cast<ir::BrInst>(&I)->depth(),
            std::move(Vals)};
  }
  case InstKind::BrIf: {
    const Value *Cond = peek(Seq, K, 0);
    if (!Cond || !Cond->isNum())
      return Stuck;
    bool Taken = Cond->bits() != 0;
    uint32_t Depth = cast<ir::BrInst>(&I)->depth();
    if (!Taken)
      return reduceAt(Seq, K, 1, {});
    // Consume the condition, then break with the remaining stack.
    Seq.erase(Seq.begin() + static_cast<ptrdiff_t>(K - 1));
    std::vector<Value> Vals = takeStack(Seq, K - 1);
    return {SeqResult::Breaking, Depth, std::move(Vals)};
  }
  case InstKind::BrTable: {
    const auto *B = cast<ir::BrTableInst>(&I);
    const Value *Idx = peek(Seq, K, 0);
    if (!Idx || !Idx->isNum())
      return Stuck;
    uint32_t J = Idx->asU32();
    uint32_t Depth = J < B->depths().size() ? B->depths()[J]
                                            : B->defaultDepth();
    Seq.erase(Seq.begin() + static_cast<ptrdiff_t>(K - 1));
    std::vector<Value> Vals = takeStack(Seq, K - 1);
    return {SeqResult::Breaking, Depth, std::move(Vals)};
  }
  case InstKind::Return: {
    std::vector<Value> Vals = takeStack(Seq, K);
    return {SeqResult::Returning, 0, std::move(Vals)};
  }

  case InstKind::GetLocal: {
    const auto *G = cast<ir::GetLocalInst>(&I);
    if (G->index() >= Env.Locals->size())
      return Stuck;
    Value V = (*Env.Locals)[G->index()];
    assert(G->qual().isConst() && "runtime get_local with abstract qualifier");
    if (G->qual().isLinConst())
      (*Env.Locals)[G->index()] = Value::unit();
    return reduceAt(Seq, K, 0, {Code::val(std::move(V))});
  }
  case InstKind::SetLocal: {
    const auto *SL = cast<ir::VarIdxInst>(&I);
    const Value *V = peek(Seq, K, 0);
    if (!V || SL->index() >= Env.Locals->size())
      return Stuck;
    (*Env.Locals)[SL->index()] = *V;
    return reduceAt(Seq, K, 1, {});
  }
  case InstKind::TeeLocal: {
    const auto *TL = cast<ir::VarIdxInst>(&I);
    const Value *V = peek(Seq, K, 0);
    if (!V || TL->index() >= Env.Locals->size())
      return Stuck;
    (*Env.Locals)[TL->index()] = *V;
    return reduceAt(Seq, K, 0, {});
  }
  case InstKind::GetGlobal: {
    const auto *G = cast<ir::VarIdxInst>(&I);
    Instance &Inst = S.Insts[Env.InstIdx];
    if (G->index() >= Inst.Globals.size())
      return Stuck;
    return reduceAt(Seq, K, 0, {Code::val(Inst.Globals[G->index()])});
  }
  case InstKind::SetGlobal: {
    const auto *G = cast<ir::VarIdxInst>(&I);
    const Value *V = peek(Seq, K, 0);
    Instance &Inst = S.Insts[Env.InstIdx];
    if (!V || G->index() >= Inst.Globals.size())
      return Stuck;
    Inst.Globals[G->index()] = *V;
    return reduceAt(Seq, K, 1, {});
  }
  case InstKind::Qualify:
    return reduceAt(Seq, K, 0, {});

  case InstKind::CoderefI: {
    const auto *CR = cast<ir::CoderefInst>(&I);
    return reduceAt(Seq, K, 0,
                    {Code::val(Value::coderef(Env.InstIdx, CR->funcIndex()))});
  }
  case InstKind::InstIdx: {
    const auto *II = cast<ir::InstIdxInst>(&I);
    const Value *V = peek(Seq, K, 0);
    if (!V || V->kind() != ValueKind::Coderef)
      return Stuck;
    CoderefVal CR = V->coderefVal();
    for (const ir::Index &Ix : II->args())
      CR.TypeArgs.push_back(Ix);
    return reduceAt(
        Seq, K, 1,
        {Code::val(Value::coderef(CR.InstIdx, CR.TableIdx, CR.TypeArgs))});
  }
  case InstKind::CallIndirect: {
    const Value *V = peek(Seq, K, 0);
    if (!V || V->kind() != ValueKind::Coderef)
      return Stuck;
    const CoderefVal &CR = V->coderefVal();
    if (CR.InstIdx >= S.Insts.size() ||
        CR.TableIdx >= S.Insts[CR.InstIdx].Table.size())
      return Trapped;
    Closure Cl = S.Insts[CR.InstIdx].Table[CR.TableIdx];
    std::vector<ir::Index> Args = CR.TypeArgs;
    return reduceAt(Seq, K, 1, {Code::callAdm(Cl, std::move(Args))});
  }
  case InstKind::Call: {
    const auto *CI = cast<ir::CallInst>(&I);
    Instance &Inst = S.Insts[Env.InstIdx];
    if (CI->funcIndex() >= Inst.Funcs.size())
      return Stuck;
    return reduceAt(Seq, K, 0,
                    {Code::callAdm(Inst.Funcs[CI->funcIndex()], CI->args())});
  }

  case InstKind::RecFold: {
    const Value *V = peek(Seq, K, 0);
    if (!V)
      return Stuck;
    return reduceAt(Seq, K, 1, {Code::val(Value::fold(*V))});
  }
  case InstKind::RecUnfold: {
    const Value *V = peek(Seq, K, 0);
    if (!V || V->kind() != ValueKind::Fold)
      return Stuck;
    return reduceAt(Seq, K, 1, {Code::val(V->inner())});
  }
  case InstKind::MemPack: {
    const auto *MP = cast<ir::MemPackInst>(&I);
    const Value *V = peek(Seq, K, 0);
    if (!V)
      return Stuck;
    assert(MP->loc().isConcrete() && "runtime mem.pack with location var");
    return reduceAt(Seq, K, 1, {Code::val(Value::mempack(MP->loc(), *V))});
  }
  case InstKind::MemUnpack: {
    const auto *MU = cast<ir::MemUnpackInst>(&I);
    const Value *Pack = peek(Seq, K, 0);
    if (!Pack || Pack->kind() != ValueKind::Mempack)
      return Stuck;
    size_t NP = MU->arrow().Params.size();
    if (K < NP + 1)
      return Stuck;
    ir::Subst Sub = ir::Subst::oneLoc(Pack->loc());
    CodeSeq Body;
    for (size_t J = 0; J < NP; ++J)
      Body.push_back(std::move(Seq[K - 1 - NP + J]));
    Body.push_back(Code::val(Pack->inner()));
    CodeSeq Rest = toCode(ir::rewriteInsts(MU->body(), Sub));
    Body.insert(Body.end(), std::make_move_iterator(Rest.begin()),
                std::make_move_iterator(Rest.end()));
    uint32_t Arity = static_cast<uint32_t>(MU->arrow().Results.size());
    return reduceAt(Seq, K, NP + 1,
                    {Code::label(Arity, nullptr, std::move(Body))});
  }

  case InstKind::Group: {
    const auto *G = cast<ir::GroupInst>(&I);
    if (K < G->count())
      return Stuck;
    std::vector<Value> Elems;
    for (size_t J = 0; J < G->count(); ++J)
      Elems.push_back(std::move(Seq[K - G->count() + J].V));
    return reduceAt(Seq, K, G->count(),
                    {Code::val(Value::tuple(std::move(Elems)))});
  }
  case InstKind::Ungroup: {
    const Value *V = peek(Seq, K, 0);
    if (!V || V->kind() != ValueKind::Tuple)
      return Stuck;
    std::vector<Code> Repl;
    for (const Value &E : V->elems())
      Repl.push_back(Code::val(E));
    return reduceAt(Seq, K, 1, std::move(Repl));
  }
  case InstKind::CapSplit: {
    const Value *V = peek(Seq, K, 0);
    if (!V || V->kind() != ValueKind::Cap)
      return Stuck;
    return reduceAt(Seq, K, 1, {Code::val(Value::cap()), Code::val(Value::own())});
  }
  case InstKind::CapJoin: {
    const Value *Own = peek(Seq, K, 0);
    const Value *Cap = peek(Seq, K, 1);
    if (!Own || !Cap || Own->kind() != ValueKind::Own ||
        Cap->kind() != ValueKind::Cap)
      return Stuck;
    return reduceAt(Seq, K, 2, {Code::val(Value::cap())});
  }
  case InstKind::RefDemote: {
    const Value *V = peek(Seq, K, 0);
    if (!V || V->kind() != ValueKind::Ref)
      return Stuck;
    return reduceAt(Seq, K, 1, {Code::val(*V)});
  }
  case InstKind::RefSplit: {
    const Value *V = peek(Seq, K, 0);
    if (!V || V->kind() != ValueKind::Ref)
      return Stuck;
    ir::Loc L = V->loc();
    return reduceAt(Seq, K, 1,
                    {Code::val(Value::cap()), Code::val(Value::ptr(L))});
  }
  case InstKind::RefJoin: {
    const Value *Ptr = peek(Seq, K, 0);
    const Value *Cap = peek(Seq, K, 1);
    if (!Ptr || !Cap || Ptr->kind() != ValueKind::Ptr ||
        Cap->kind() != ValueKind::Cap)
      return Stuck;
    ir::Loc L = Ptr->loc();
    return reduceAt(Seq, K, 2, {Code::val(Value::ref(L))});
  }

  case InstKind::StructMalloc: {
    const auto *SM = cast<ir::StructMallocInst>(&I);
    size_t N = SM->sizes().size();
    if (K < N)
      return Stuck;
    std::vector<Value> Fields;
    uint64_t Total = 0;
    for (const ir::SizeRef &Sz : SM->sizes())
      Total += ir::closedSizeBits(Sz);
    for (size_t J = 0; J < N; ++J)
      Fields.push_back(std::move(Seq[K - N + J].V));
    return reduceAt(Seq, K, N,
                    {Code::malloc(Total, HeapValue::makeStruct(std::move(Fields)),
                                  memForQual(SM->qual()))});
  }
  case InstKind::StructFree:
    return reduceAt(Seq, K, 0, {Code::freeAdm()});
  case InstKind::StructGet: {
    const auto *SG = cast<ir::StructIdxInst>(&I);
    const Value *Ref = peek(Seq, K, 0);
    if (!Ref || Ref->kind() != ValueKind::Ref)
      return Stuck;
    Cell *Cl = S.Mem.lookup(Ref->loc());
    if (!Cl || Cl->HV.K != HeapValueKind::Struct ||
        SG->fieldIndex() >= Cl->HV.Vals.size())
      return Stuck;
    return reduceAt(Seq, K, 0, {Code::val(Cl->HV.Vals[SG->fieldIndex()])});
  }
  case InstKind::StructSet: {
    const auto *SS = cast<ir::StructIdxInst>(&I);
    const Value *V = peek(Seq, K, 0);
    const Value *Ref = peek(Seq, K, 1);
    if (!V || !Ref || Ref->kind() != ValueKind::Ref)
      return Stuck;
    Cell *Cl = S.Mem.lookup(Ref->loc());
    if (!Cl || Cl->HV.K != HeapValueKind::Struct ||
        SS->fieldIndex() >= Cl->HV.Vals.size())
      return Stuck;
    Cl->HV.Vals[SS->fieldIndex()] = *V;
    return reduceAt(Seq, K, 1, {});
  }
  case InstKind::StructSwap: {
    const auto *SW = cast<ir::StructIdxInst>(&I);
    const Value *V = peek(Seq, K, 0);
    const Value *Ref = peek(Seq, K, 1);
    if (!V || !Ref || Ref->kind() != ValueKind::Ref)
      return Stuck;
    Cell *Cl = S.Mem.lookup(Ref->loc());
    if (!Cl || Cl->HV.K != HeapValueKind::Struct ||
        SW->fieldIndex() >= Cl->HV.Vals.size())
      return Stuck;
    Value Old = Cl->HV.Vals[SW->fieldIndex()];
    Cl->HV.Vals[SW->fieldIndex()] = *V;
    return reduceAt(Seq, K, 1, {Code::val(std::move(Old))});
  }

  case InstKind::VariantMalloc: {
    const auto *VM = cast<ir::VariantMallocInst>(&I);
    const Value *V = peek(Seq, K, 0);
    if (!V)
      return Stuck;
    uint64_t Bits = 32 + sizeOfValue(*V);
    return reduceAt(Seq, K, 1,
                    {Code::malloc(Bits, HeapValue::makeVariant(VM->tag(), *V),
                                  memForQual(VM->qual()))});
  }
  case InstKind::VariantCase: {
    const auto *VC = cast<ir::VariantCaseInst>(&I);
    size_t NP = VC->arrow().Params.size();
    const Value *Ref = peek(Seq, K, NP);
    if (!Ref || Ref->kind() != ValueKind::Ref)
      return Stuck;
    Cell *Cl = S.Mem.lookup(Ref->loc());
    if (!Cl || Cl->HV.K != HeapValueKind::Variant ||
        Cl->HV.Tag >= VC->arms().size())
      return Stuck;
    Value Payload = Cl->HV.Vals[0];
    uint32_t Tag = Cl->HV.Tag;
    uint32_t Arity = static_cast<uint32_t>(VC->arrow().Results.size());

    CodeSeq Body;
    for (size_t J = 0; J < NP; ++J)
      Body.push_back(std::move(Seq[K - NP + J]));
    Body.push_back(Code::val(std::move(Payload)));
    CodeSeq Arm = toCode(VC->arms()[Tag]);
    Body.insert(Body.end(), std::make_move_iterator(Arm.begin()),
                std::make_move_iterator(Arm.end()));

    assert(VC->qual().isConst() && "runtime case with abstract qualifier");
    if (VC->qual().isLinConst()) {
      // Empty the cell to preserve linearity, then free the reference.
      Cl->HV = HeapValue::makeArray({});
      Value RefV = std::move(Seq[K - NP - 1].V);
      std::vector<Code> Repl;
      Repl.push_back(Code::val(std::move(RefV)));
      Repl.push_back(Code::freeAdm());
      Repl.push_back(Code::label(Arity, nullptr, std::move(Body)));
      return reduceAt(Seq, K, NP + 1, std::move(Repl));
    }
    // Unrestricted: the reference stays on the stack beneath the block.
    return reduceAt(Seq, K, NP,
                    {Code::label(Arity, nullptr, std::move(Body))});
  }

  case InstKind::ArrayMalloc: {
    const auto *AM = cast<ir::ArrayMallocInst>(&I);
    const Value *Count = peek(Seq, K, 0);
    const Value *Init = peek(Seq, K, 1);
    if (!Count || !Init || !Count->isNum())
      return Stuck;
    uint64_t N = Count->asU32();
    uint64_t Bits = N * sizeOfValue(*Init);
    std::vector<Value> Elems(N, *Init);
    return reduceAt(Seq, K, 2,
                    {Code::malloc(Bits, HeapValue::makeArray(std::move(Elems)),
                                  memForQual(AM->qual()))});
  }
  case InstKind::ArrayGet: {
    const Value *Idx = peek(Seq, K, 0);
    const Value *Ref = peek(Seq, K, 1);
    if (!Idx || !Ref || !Idx->isNum() || Ref->kind() != ValueKind::Ref)
      return Stuck;
    Cell *Cl = S.Mem.lookup(Ref->loc());
    if (!Cl || Cl->HV.K != HeapValueKind::Array)
      return Stuck;
    uint64_t J = Idx->asU32();
    if (J >= Cl->HV.Vals.size())
      return Trapped;
    return reduceAt(Seq, K, 1, {Code::val(Cl->HV.Vals[J])});
  }
  case InstKind::ArraySet: {
    const Value *V = peek(Seq, K, 0);
    const Value *Idx = peek(Seq, K, 1);
    const Value *Ref = peek(Seq, K, 2);
    if (!V || !Idx || !Ref || !Idx->isNum() || Ref->kind() != ValueKind::Ref)
      return Stuck;
    Cell *Cl = S.Mem.lookup(Ref->loc());
    if (!Cl || Cl->HV.K != HeapValueKind::Array)
      return Stuck;
    uint64_t J = Idx->asU32();
    if (J >= Cl->HV.Vals.size())
      return Trapped;
    Cl->HV.Vals[J] = *V;
    return reduceAt(Seq, K, 2, {});
  }
  case InstKind::ArrayFree:
    return reduceAt(Seq, K, 0, {Code::freeAdm()});

  case InstKind::ExistPack: {
    const auto *EP = cast<ir::ExistPackInst>(&I);
    const Value *V = peek(Seq, K, 0);
    if (!V)
      return Stuck;
    uint64_t Bits = 64 + sizeOfValue(*V);
    return reduceAt(
        Seq, K, 1,
        {Code::malloc(Bits,
                      HeapValue::makePack(EP->witness(), *V, EP->heapType()),
                      memForQual(EP->qual()))});
  }
  case InstKind::ExistUnpack: {
    const auto *EU = cast<ir::ExistUnpackInst>(&I);
    size_t NP = EU->arrow().Params.size();
    const Value *Ref = peek(Seq, K, NP);
    if (!Ref || Ref->kind() != ValueKind::Ref)
      return Stuck;
    Cell *Cl = S.Mem.lookup(Ref->loc());
    if (!Cl || Cl->HV.K != HeapValueKind::Pack)
      return Stuck;
    Value Payload = Cl->HV.Vals[0];
    ir::PretypeRef Witness = Cl->HV.Witness;
    uint32_t Arity = static_cast<uint32_t>(EU->arrow().Results.size());

    ir::Subst Sub = ir::Subst::onePretype(Witness);
    CodeSeq Body;
    for (size_t J = 0; J < NP; ++J)
      Body.push_back(std::move(Seq[K - NP + J]));
    Body.push_back(Code::val(std::move(Payload)));
    CodeSeq Rest = toCode(ir::rewriteInsts(EU->body(), Sub));
    Body.insert(Body.end(), std::make_move_iterator(Rest.begin()),
                std::make_move_iterator(Rest.end()));

    assert(EU->qual().isConst() && "runtime unpack with abstract qualifier");
    if (EU->qual().isLinConst()) {
      Cl->HV = HeapValue::makeArray({});
      Value RefV = std::move(Seq[K - NP - 1].V);
      std::vector<Code> Repl;
      Repl.push_back(Code::val(std::move(RefV)));
      Repl.push_back(Code::freeAdm());
      Repl.push_back(Code::label(Arity, nullptr, std::move(Body)));
      return reduceAt(Seq, K, NP + 1, std::move(Repl));
    }
    return reduceAt(Seq, K, NP,
                    {Code::label(Arity, nullptr, std::move(Body))});
  }
  }
  return Stuck;
}

//===----------------------------------------------------------------------===//
// Numeric execution
//===----------------------------------------------------------------------===//

Machine::StepOut Machine::execNumeric(CodeSeq &Seq, size_t K,
                                      const ir::Inst &I) {
  const StepOut Stuck{SeqResult::Stuck, 0, {}};
  const StepOut Trapped{SeqResult::Trapped, 0, {}};
  const bool Binary =
      I.kind() == InstKind::NumBinop || I.kind() == InstKind::NumRelop;
  const Value *Y = peek(Seq, K, 0);
  const Value *X = Binary ? peek(Seq, K, 1) : Y;
  if (!X || !Y || !X->isNum() || !Y->isNum())
    return Stuck;
  const size_t Pops = Binary ? 2 : 1;
  auto Result = [&](ir::NumType T, std::optional<uint64_t> R) {
    if (!R)
      return Trapped;
    return reduceAt(Seq, K, Pops, {Code::val(Value::num(T, *R))});
  };

  switch (I.kind()) {
  case InstKind::NumUnop: {
    const auto *U = cast<ir::NumUnopInst>(&I);
    if (!ir::unopAt(U->op(), U->numType()))
      return Stuck;
    return Result(U->numType(),
                  num::evalUnop(U->op(), U->numType(), X->bits()));
  }
  case InstKind::NumBinop: {
    const auto *B = cast<ir::NumBinopInst>(&I);
    if (!ir::binopAt(B->op(), B->numType()))
      return Stuck;
    return Result(B->numType(), num::evalBinop(B->op(), B->numType(),
                                               X->bits(), Y->bits()));
  }
  case InstKind::NumTestop: {
    const auto *T = cast<ir::NumTestopInst>(&I);
    return Result(ir::NumType::I32,
                  num::evalTestop(T->op(), T->numType(), X->bits()));
  }
  case InstKind::NumRelop: {
    const auto *Rl = cast<ir::NumRelopInst>(&I);
    return Result(ir::NumType::I32, num::evalRelop(Rl->op(), Rl->numType(),
                                                   X->bits(), Y->bits()));
  }
  case InstKind::NumCvt: {
    const auto *Cv = cast<ir::NumCvtInst>(&I);
    return Result(Cv->to(),
                  num::evalCvt(Cv->op(), Cv->from(), Cv->to(), X->bits()));
  }
  default:
    return Stuck;
  }
}

//===----------------------------------------------------------------------===//
// Garbage collection (the collect rule)
//===----------------------------------------------------------------------===//

namespace {

/// Accumulates the set of reachable locations from configuration roots.
class Marker {
public:
  explicit Marker(Memory &Mem) : Mem(Mem) {}

  void value(const Value &V) {
    switch (V.kind()) {
    case ValueKind::Ref:
    case ValueKind::Ptr:
      loc(V.loc());
      break;
    case ValueKind::Mempack:
      loc(V.loc());
      value(V.inner());
      break;
    case ValueKind::Fold:
      value(V.inner());
      break;
    case ValueKind::Tuple:
      for (const Value &E : V.elems())
        value(E);
      break;
    default:
      break;
    }
  }

  void code(const Code &Cd) {
    switch (Cd.K) {
    case CodeKind::Val:
      value(Cd.V);
      break;
    case CodeKind::Label:
      for (const Code &B : Cd.Lbl->Body)
        code(B);
      break;
    case CodeKind::Frame:
      for (const Value &L : Cd.Frm->Locals)
        value(L);
      for (const Code &B : Cd.Frm->Body)
        code(B);
      break;
    case CodeKind::Malloc:
      heapValue(Cd.Mal->HV);
      break;
    default:
      break;
    }
  }

  /// Transitively marks the heap from the accumulated roots.
  void closure() {
    while (!Work.empty()) {
      ir::Loc L = Work.back();
      Work.pop_back();
      Cell *Cl = Mem.lookup(L);
      if (!Cl)
        continue;
      heapValue(Cl->HV);
    }
  }

  bool reachable(MemKind M, uint64_t Addr) const {
    const auto &Set = M == MemKind::Lin ? LinMarked : UnrMarked;
    return Set.count(Addr) != 0;
  }

private:
  void loc(const ir::Loc &L) {
    if (!L.isConcrete())
      return;
    auto &Set = L.mem() == MemKind::Lin ? LinMarked : UnrMarked;
    if (Set.insert(L.addr()).second)
      Work.push_back(L);
  }

  void heapValue(const HeapValue &HV) {
    for (const Value &V : HV.Vals)
      value(V);
  }

  Memory &Mem;
  std::map<uint64_t, char> Dummy;
  std::set<uint64_t> LinMarked, UnrMarked;
  std::vector<ir::Loc> Work;
};

} // namespace

uint64_t Machine::collect() {
  Marker M(S.Mem);
  // Roots: the locations in the configuration's code (instructions and
  // values, including nested frames' locals), the top-level locals, and
  // every instance's globals.
  for (const Code &Cd : C.Program)
    M.code(Cd);
  for (const Value &V : C.Locals)
    M.value(V);
  for (const Instance &Inst : S.Insts)
    for (const Value &G : Inst.Globals)
      M.value(G);
  M.closure();

  uint64_t Reclaimed = 0;
  for (auto It = S.Mem.Unr.begin(); It != S.Mem.Unr.end();) {
    if (!M.reachable(MemKind::Unr, It->first)) {
      It = S.Mem.Unr.erase(It);
      ++S.Mem.CollectedUnr;
      ++Reclaimed;
    } else {
      ++It;
    }
  }
  // Linear cells unreachable from any root were owned by collected
  // unrestricted data; finalize them.
  for (auto It = S.Mem.Lin.begin(); It != S.Mem.Lin.end();) {
    if (!M.reachable(MemKind::Lin, It->first)) {
      It = S.Mem.Lin.erase(It);
      ++S.Mem.FinalizedLin;
      ++Reclaimed;
    } else {
      ++It;
    }
  }
  ++S.Mem.GcRuns;
  return Reclaimed;
}
