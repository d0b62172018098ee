//===- PDG.cpp - Program dependence graph ------------------------------------===//

#include "pdg/PDG.h"

#include "ir/Dominators.h"

#include <algorithm>
#include <cassert>
#include <functional>

using namespace parcae::ir;

namespace {

/// Whether the instruction participates in memory dependence analysis.
/// Calls with a memory object model external side effects (e.g. rand()'s
/// hidden state) as a read-modify-write of that object.
bool accessesMemory(const Instruction &I) {
  if (I.Op == Opcode::Load || I.Op == Opcode::Store)
    return true;
  return I.Op == Opcode::Call && I.MemObject >= 0;
}

bool writesObject(const Instruction &I) {
  return I.Op == Opcode::Store ||
         (I.Op == Opcode::Call && I.MemObject >= 0);
}

} // namespace

PDG::PDG(const Function &F, const AliasOracle &AA) {
  for (const BasicBlock *B : F.TheLoop.Blocks)
    for (const auto &I : B->Insts) {
      NodeIndex[I->Id] = static_cast<unsigned>(Nodes.size());
      Nodes.push_back(I.get());
    }
  recognizeRecurrences(F);
  recognizeArrayReductions(F);
  buildRegisterDeps(F);
  buildMemoryDeps(F, AA);
  buildControlDeps(F);
  condense();
}

void PDG::recognizeRecurrences(const Function &F) {
  const Loop &L = F.TheLoop;
  for (const auto &I : L.Header->Insts) {
    if (!I->isPhi())
      continue;
    ValueId Carried = I->Uses[1];
    // Find the in-loop definition of the carried value.
    const Instruction *Update = nullptr;
    for (const Instruction *N : Nodes)
      if (N->Def == Carried)
        Update = N;
    if (!Update)
      continue;
    bool IsRecOp = Update->Op == Opcode::Add || Update->Op == Opcode::Min ||
                   Update->Op == Opcode::Max;
    if (!IsRecOp || Update->Uses.size() != 2)
      continue;
    // One operand must be the phi itself.
    ValueId Other = NoValue;
    if (Update->Uses[0] == I->Def)
      Other = Update->Uses[1];
    else if (Update->Uses[1] == I->Def)
      Other = Update->Uses[0];
    if (Other == NoValue)
      continue;
    // The other operand: loop-invariant (defined outside the loop, e.g.
    // in the preheader) makes this an induction whose per-iteration value
    // any worker can recompute; an in-loop operand makes it a candidate
    // reduction, which is only relaxable if the phi is never observed
    // except through its own update.
    const Instruction *OtherDef = nullptr;
    for (const Instruction *N : Nodes)
      if (N->Def == Other)
        OtherDef = N;
    bool LoopInvariantStep = OtherDef == nullptr;
    bool IsInduction = LoopInvariantStep && Update->Op == Opcode::Add;
    if (!IsInduction) {
      unsigned LoopUses = 0;
      for (const Instruction *N : Nodes)
        for (ValueId U : N->Uses)
          if (U == I->Def)
            ++LoopUses;
      if (LoopUses != 1)
        continue; // observed mid-loop: not a relaxable reduction
    }
    RecurrenceInfo R;
    R.PhiId = I->Id;
    R.UpdateId = Update->Id;
    R.Kind = Update->Op;
    R.IsInduction = IsInduction;
    R.StepValue = IsInduction ? Other : NoValue;
    Recurrences.push_back(R);
  }
}

void PDG::recognizeArrayReductions(const Function &F) {
  // One pass over the function: the definition of every value, the
  // number of in-loop uses of every value, and the loop's memory
  // accesses, grouped by object.
  struct ValueInfo {
    const Instruction *Def = nullptr;
    unsigned LoopUses = 0;
  };
  std::vector<ValueInfo> Vals(static_cast<std::size_t>(F.numValues()));
  auto Info = [&](ValueId V) -> ValueInfo & {
    return Vals[static_cast<std::size_t>(V)];
  };
  for (const auto &B : F.blocks())
    for (const auto &I : B->Insts)
      if (I->Def != NoValue)
        Info(I->Def).Def = I.get();
  std::vector<const Instruction *> Accesses;
  for (const Instruction *N : Nodes) {
    for (ValueId U : N->Uses)
      ++Info(U).LoopUses;
    if (accessesMemory(*N))
      Accesses.push_back(N);
  }
  std::stable_sort(Accesses.begin(), Accesses.end(),
                   [](const Instruction *A, const Instruction *B) {
                     return A->MemObject < B->MemObject;
                   });

  for (std::size_t First = 0, Last; First < Accesses.size(); First = Last) {
    Last = First + 1;
    while (Last < Accesses.size() &&
           Accesses[Last]->MemObject == Accesses[First]->MemObject)
      ++Last;
    // 1. Exactly one commutative load and one commutative store of the
    //    same index value.
    if (Last - First != 2)
      continue;
    const Instruction *Ld = Accesses[First], *St = Accesses[First + 1];
    if (Ld->Op != Opcode::Load)
      std::swap(Ld, St);
    if (Ld->Op != Opcode::Load || St->Op != Opcode::Store ||
        !Ld->Commutative || !St->Commutative || Ld->Uses.size() != 1 ||
        St->Uses.size() != 2 || Ld->Uses[0] != St->Uses[0])
      continue;
    // 2. The stored value is load op x, op a kind ReductionState merges.
    const Instruction *Upd = Info(St->Uses[1]).Def;
    if (!Upd || Upd->Uses.size() != 2 ||
        (Upd->Op != Opcode::Add && Upd->Op != Opcode::Min &&
         Upd->Op != Opcode::Max) ||
        (Upd->Uses[0] != Ld->Def && Upd->Uses[1] != Ld->Def))
      continue;
    // 3. The loaded value feeds only op, and op only the store.
    if (Info(Ld->Def).LoopUses != 1 || Info(Upd->Def).LoopUses != 1)
      continue;
    // 4. The index is v mod c for a constant c > 0: a private copy needs
    //    a known extent.
    const Instruction *Idx = Info(Ld->Uses[0]).Def;
    if (!Idx || Idx->Op != Opcode::Mod || Idx->Uses.size() != 2)
      continue;
    const Instruction *C = Info(Idx->Uses[1]).Def;
    if (!C || C->Op != Opcode::Const || C->Imm <= 0)
      continue;

    ArrayReductionInfo A;
    A.MemObject = Ld->MemObject;
    A.LoadId = Ld->Id;
    A.UpdateId = Upd->Id;
    A.StoreId = St->Id;
    A.Kind = Upd->Op;
    A.Extent = C->Imm;
    ArrayReductions.push_back(A);
  }
}

void PDG::buildRegisterDeps(const Function &F) {
  (void)F;
  // In-loop definitions.
  std::map<ValueId, const Instruction *> Defs;
  for (const Instruction *N : Nodes)
    if (N->Def != NoValue)
      Defs[N->Def] = N;

  auto RelaxOf = [&](unsigned FromId, unsigned ToId) -> Relax {
    // The phi<->update cycle of a recognized recurrence is removable.
    for (const RecurrenceInfo &R : Recurrences) {
      bool Cycle = (FromId == R.UpdateId && ToId == R.PhiId) ||
                   (FromId == R.PhiId && ToId == R.UpdateId);
      if (Cycle)
        return R.IsInduction ? Relax::Induction : Relax::Reduction;
    }
    return Relax::None;
  };

  for (const Instruction *N : Nodes) {
    if (N->isPhi()) {
      // Loop-carried register flow: in-loop def of the carried operand.
      auto It = Defs.find(N->Uses[1]);
      if (It != Defs.end())
        Edges.push_back({It->second->Id, N->Id, DepKind::Reg,
                         /*LoopCarried=*/true,
                         RelaxOf(It->second->Id, N->Id)});
      continue;
    }
    for (ValueId U : N->Uses) {
      auto It = Defs.find(U);
      if (It == Defs.end())
        continue; // live-in from the preheader (Tinit reloads it)
      Edges.push_back({It->second->Id, N->Id, DepKind::Reg,
                       /*LoopCarried=*/false, RelaxOf(It->second->Id, N->Id)});
    }
  }
}

void PDG::buildMemoryDeps(const Function &F, const AliasOracle &AA) {
  (void)F;
  std::vector<const Instruction *> Accesses;
  for (const Instruction *N : Nodes)
    if (accessesMemory(*N))
      Accesses.push_back(N);

  // Program order within one iteration follows Nodes order (loop blocks
  // are stored in RPO and instructions in block order).
  auto OrderOf = [&](const Instruction *I) { return NodeIndex.at(I->Id); };

  for (const Instruction *A : Accesses) {
    for (const Instruction *B : Accesses) {
      if (A->MemObject != B->MemObject)
        continue;
      MemClass C = AA.classOf(A->MemObject);
      if (C == MemClass::ReadOnly)
        continue;
      bool Conflict = writesObject(*A) || writesObject(*B);
      if (!Conflict)
        continue;
      bool BothCommutative = A->Commutative && B->Commutative;
      Relax R = BothCommutative ? Relax::Commutative : Relax::None;
      if (A != B && OrderOf(A) < OrderOf(B)) {
        if (BothCommutative) {
          // A commutative group is an atomic unit: its instances may be
          // reordered across iterations, but one iteration's accesses
          // must stay together (they become one critical section). Hard
          // intra edges in both directions force them into one SCC and
          // hence one task.
          Edges.push_back({A->Id, B->Id, DepKind::Mem, false, Relax::None});
          Edges.push_back({B->Id, A->Id, DepKind::Mem, false, Relax::None});
        } else {
          // Intra-iteration dependence in program order.
          Edges.push_back({A->Id, B->Id, DepKind::Mem, false, R});
        }
      }
      if (C == MemClass::IterationPrivate)
        continue; // different iterations touch disjoint locations
      // Loop-carried (including self-dependences A == B).
      Edges.push_back({A->Id, B->Id, DepKind::Mem, true, R});
    }
  }
}

void PDG::buildControlDeps(const Function &F) {
  const Loop &L = F.TheLoop;
  // Root post-dominance at the function's sink block.
  const BasicBlock *Sink = nullptr;
  for (const auto &B : F.blocks())
    if (B->Succs.empty())
      Sink = B.get();
  assert(Sink && "function needs a sink block");
  PostDominators PD(F, Sink);

  // Intra-iteration control dependence from in-loop conditional branches
  // (other than the backedge branch, handled below).
  for (const BasicBlock *A : L.Blocks) {
    if (A->Succs.size() < 2 || A == L.Tail)
      continue;
    const Instruction *Term = A->terminator();
    for (const BasicBlock *B : PD.controlDependents(A)) {
      if (!L.contains(B))
        continue;
      for (const auto &I : B->Insts)
        Edges.push_back({Term->Id, I->Id, DepKind::Control, false,
                         Relax::None});
    }
  }

  // Loop-carried control dependence: the backedge branch decides whether
  // iteration i+1 executes at all.
  const Instruction *Back = L.Tail->terminator();
  assert(Back->Op == Opcode::CondBr && "tail must end in the exit branch");

  // A counted loop's exit condition is an induction comparison; every
  // worker can recompute "does iteration i exist", so the carried control
  // edges are removable (this is how DOANY/parallel stages can claim
  // iterations independently).
  bool Counted = false;
  if (!Back->Uses.empty()) {
    for (const Instruction *N : Nodes) {
      if (N->Def != Back->Uses[0] || N->Op != Opcode::CmpLt)
        continue;
      // One comparison operand derived from an induction recurrence, the
      // other loop-invariant.
      for (ValueId U : N->Uses) {
        for (const RecurrenceInfo &R : Recurrences) {
          if (!R.IsInduction)
            continue;
          const Instruction *Phi = nullptr, *Upd = nullptr;
          for (const Instruction *M : Nodes) {
            if (M->Id == R.PhiId)
              Phi = M;
            if (M->Id == R.UpdateId)
              Upd = M;
          }
          if ((Phi && Phi->Def == U) || (Upd && Upd->Def == U))
            Counted = true;
        }
      }
    }
  }

  for (const Instruction *N : Nodes) {
    if (N == Back)
      continue;
    Edges.push_back({Back->Id, N->Id, DepKind::Control, true,
                     Counted ? Relax::Induction : Relax::None});
  }
}

std::vector<PDGEdge> PDG::inhibitors() const {
  std::vector<PDGEdge> Out;
  for (const PDGEdge &E : Edges)
    if (E.LoopCarried && !E.removable())
      Out.push_back(E);
  return Out;
}

void PDG::condense() {
  // Adjacency over non-removable edges.
  unsigned N = static_cast<unsigned>(Nodes.size());
  std::vector<std::vector<unsigned>> Adj(N);
  for (const PDGEdge &E : Edges) {
    if (E.removable())
      continue;
    Adj[NodeIndex.at(E.From)].push_back(NodeIndex.at(E.To));
  }

  // Tarjan (iterative).
  std::vector<int> Index(N, -1), Low(N, 0);
  std::vector<bool> OnStack(N, false);
  std::vector<unsigned> Stack;
  int NextIndex = 0;
  std::vector<std::vector<unsigned>> Components;

  std::function<void(unsigned)> Strongconnect = [&](unsigned V) {
    Index[V] = Low[V] = NextIndex++;
    Stack.push_back(V);
    OnStack[V] = true;
    for (unsigned W : Adj[V]) {
      if (Index[W] < 0) {
        Strongconnect(W);
        Low[V] = std::min(Low[V], Low[W]);
      } else if (OnStack[W]) {
        Low[V] = std::min(Low[V], Index[W]);
      }
    }
    if (Low[V] == Index[V]) {
      std::vector<unsigned> Comp;
      unsigned W;
      do {
        W = Stack.back();
        Stack.pop_back();
        OnStack[W] = false;
        Comp.push_back(W);
      } while (W != V);
      Components.push_back(std::move(Comp));
    }
  };
  for (unsigned V = 0; V < N; ++V)
    if (Index[V] < 0)
      Strongconnect(V);

  // Tarjan emits components in reverse topological order; flip so stage 0
  // is upstream.
  std::reverse(Components.begin(), Components.end());

  std::vector<unsigned> CompOf(N, 0);
  for (unsigned C = 0; C < Components.size(); ++C)
    for (unsigned V : Components[C])
      CompOf[V] = C;

  Sccs.clear();
  for (unsigned C = 0; C < Components.size(); ++C) {
    SCC S;
    for (unsigned V : Components[C]) {
      S.InstIds.push_back(Nodes[V]->Id);
      S.Weight += static_cast<double>(Nodes[V]->Latency) *
                  Nodes[V]->ProfileWeight;
      SccIndex[Nodes[V]->Id] = C;
    }
    std::sort(S.InstIds.begin(), S.InstIds.end());
    Sccs.push_back(std::move(S));
  }

  // Sequential SCCs: an internal non-removable carried edge.
  for (const PDGEdge &E : Edges) {
    if (E.removable() || !E.LoopCarried)
      continue;
    unsigned A = SccIndex.at(E.From), B = SccIndex.at(E.To);
    if (A == B)
      Sccs[A].Sequential = true;
  }

  // Condensation edges (deduplicated).
  for (const PDGEdge &E : Edges) {
    if (E.removable())
      continue;
    unsigned A = SccIndex.at(E.From), B = SccIndex.at(E.To);
    if (A == B)
      continue;
    assert(A < B && "condensation must be topologically ordered");
    auto P = std::make_pair(A, B);
    if (std::find(SccEdges.begin(), SccEdges.end(), P) == SccEdges.end())
      SccEdges.push_back(P);
  }
  std::sort(SccEdges.begin(), SccEdges.end());
}

unsigned PDG::sccOf(unsigned InstId) const { return SccIndex.at(InstId); }
