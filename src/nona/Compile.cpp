//===- Compile.cpp - The Nona compiler driver --------------------------------===//

#include "nona/Compile.h"

#include "ir/Dominators.h"

#include <algorithm>
#include <cassert>
#include <limits>

using namespace parcae::ir;
namespace rt = parcae::rt;
namespace sim = parcae::sim;

//===----------------------------------------------------------------------===//
// PS-DSWP partitioning (Section 4.3.2)
//===----------------------------------------------------------------------===//

namespace {

/// Minimum estimated cycles for a subgraph to be pipelined further;
/// lighter subgraphs coalesce into a single task (the paper's SCCmin
/// aggregation heuristic).
constexpr double SccMinWeight = 40.0;

/// Transitive closure over the SCC condensation.
std::vector<std::vector<bool>> reachability(const PDG &P) {
  unsigned N = static_cast<unsigned>(P.sccs().size());
  std::vector<std::vector<bool>> R(N, std::vector<bool>(N, false));
  for (auto [A, B] : P.sccEdges())
    R[A][B] = true;
  // Edges are topologically ordered (A < B), so one backward sweep closes.
  for (unsigned A = N; A-- > 0;)
    for (unsigned B = A + 1; B < N; ++B)
      if (R[A][B])
        for (unsigned C = B + 1; C < N; ++C)
          R[A][C] = R[A][C] || R[B][C];
  return R;
}

/// Whether merging \p Set (parallel SCCs) into one parallel task keeps
/// Invariant 4.3.1(3): no dependency chain between two members passes
/// through a non-member of \p Set drawn from \p Universe.
bool mergeable(const std::vector<unsigned> &Set,
               const std::vector<unsigned> &Universe,
               const std::vector<std::vector<bool>> &Reach) {
  auto InSet = [&](unsigned X) {
    return std::find(Set.begin(), Set.end(), X) != Set.end();
  };
  for (unsigned A : Set)
    for (unsigned B : Set) {
      if (A == B || !Reach[A][B])
        continue;
      for (unsigned M : Universe) {
        if (InSet(M))
          continue;
        if (Reach[A][M] && Reach[M][B])
          return false;
      }
    }
  return true;
}

/// Recursive partitioning: extract the heaviest mergeable parallel set,
/// split the rest into predecessor/successor subgraphs, recurse.
void partitionRec(const PDG &P, const std::vector<std::vector<bool>> &Reach,
                  std::vector<unsigned> Subgraph, std::vector<TaskPlan> &Out) {
  if (Subgraph.empty())
    return;
  const auto &Sccs = P.sccs();

  double Total = 0;
  std::vector<unsigned> Parallel;
  for (unsigned S : Subgraph) {
    Total += Sccs[S].Weight;
    if (!Sccs[S].Sequential)
      Parallel.push_back(S);
  }

  auto MakeSingleTask = [&](bool Par) {
    TaskPlan T;
    T.Sccs = Subgraph;
    T.Parallel = Par;
    T.Weight = Total;
    for (unsigned S : Subgraph)
      for (unsigned I : Sccs[S].InstIds)
        T.InstIds.push_back(I);
    std::sort(T.InstIds.begin(), T.InstIds.end());
    Out.push_back(std::move(T));
  };

  // Too light to pipeline further, or nothing parallel: one task. It may
  // itself be parallel if every member SCC is.
  if (Parallel.empty() || Total < SccMinWeight) {
    MakeSingleTask(Parallel.size() == Subgraph.size());
    return;
  }

  // Greedy: seed with the heaviest parallel SCC, grow while mergeable.
  std::sort(Parallel.begin(), Parallel.end(), [&](unsigned A, unsigned B) {
    return Sccs[A].Weight > Sccs[B].Weight;
  });
  std::vector<unsigned> Merged = {Parallel[0]};
  for (std::size_t I = 1; I < Parallel.size(); ++I) {
    std::vector<unsigned> Trial = Merged;
    Trial.push_back(Parallel[I]);
    if (mergeable(Trial, Subgraph, Reach))
      Merged = std::move(Trial);
  }
  auto InMerged = [&](unsigned X) {
    return std::find(Merged.begin(), Merged.end(), X) != Merged.end();
  };

  // Split the rest into predecessors, successors, and free nodes.
  std::vector<unsigned> Preds, Succs;
  double PredW = 0, SuccW = 0;
  std::vector<unsigned> Free;
  for (unsigned S : Subgraph) {
    if (InMerged(S))
      continue;
    bool ToMerged = false, FromMerged = false;
    for (unsigned M : Merged) {
      ToMerged |= Reach[S][M];
      FromMerged |= Reach[M][S];
    }
    assert(!(ToMerged && FromMerged) && "cycle through the merged task");
    if (ToMerged) {
      Preds.push_back(S);
      PredW += Sccs[S].Weight;
    } else if (FromMerged) {
      Succs.push_back(S);
      SuccW += Sccs[S].Weight;
    } else {
      Free.push_back(S);
    }
  }
  // Balance free nodes by weight (Section 4.3.2).
  for (unsigned S : Free) {
    if (PredW <= SuccW) {
      Preds.push_back(S);
      PredW += Sccs[S].Weight;
    } else {
      Succs.push_back(S);
      SuccW += Sccs[S].Weight;
    }
  }
  std::sort(Preds.begin(), Preds.end());
  std::sort(Succs.begin(), Succs.end());

  partitionRec(P, Reach, std::move(Preds), Out);
  {
    TaskPlan T;
    T.Sccs = Merged;
    std::sort(T.Sccs.begin(), T.Sccs.end());
    T.Parallel = true;
    for (unsigned S : T.Sccs) {
      T.Weight += Sccs[S].Weight;
      for (unsigned I : Sccs[S].InstIds)
        T.InstIds.push_back(I);
    }
    std::sort(T.InstIds.begin(), T.InstIds.end());
    Out.push_back(std::move(T));
  }
  partitionRec(P, Reach, std::move(Succs), Out);
}

} // namespace

PartitionPlan parcae::ir::psdswpPartition(const PDG &P) {
  PartitionPlan Plan;
  Plan.S = rt::Scheme::PsDswp;
  std::vector<unsigned> All(P.sccs().size());
  for (unsigned I = 0; I < All.size(); ++I)
    All[I] = I;
  auto Reach = reachability(P);
  partitionRec(P, Reach, std::move(All), Plan.Tasks);
  return Plan;
}

bool parcae::ir::checkCoalescenceInvariant(const PDG &P,
                                           const PartitionPlan &Plan,
                                           std::string *Why) {
  auto Fail = [&](const std::string &Msg) {
    if (Why)
      *Why = Msg;
    return false;
  };

  // 1. Exactly-once assignment.
  std::map<unsigned, unsigned> TaskOf;
  for (unsigned T = 0; T < Plan.Tasks.size(); ++T)
    for (unsigned I : Plan.Tasks[T].InstIds) {
      if (!TaskOf.emplace(I, T).second)
        return Fail("instruction assigned to two tasks");
    }
  for (const Instruction *N : P.nodes())
    if (!TaskOf.count(N->Id))
      return Fail("instruction not assigned to any task");

  // 2. Dependencies flow forward.
  for (const PDGEdge &E : P.edges()) {
    if (E.removable())
      continue;
    unsigned A = TaskOf.at(E.From), B = TaskOf.at(E.To);
    if (A > B)
      return Fail("dependence flows backwards in the pipeline");
  }

  // 3. No through-outside chain between members of a parallel task.
  auto Reach = reachability(P);
  for (const TaskPlan &T : Plan.Tasks) {
    if (!T.Parallel)
      continue;
    std::vector<unsigned> Universe(P.sccs().size());
    for (unsigned I = 0; I < Universe.size(); ++I)
      Universe[I] = I;
    if (!mergeable(T.Sccs, Universe, Reach))
      return Fail("dependency chain escapes a parallel task");
    for (unsigned S : T.Sccs)
      if (P.sccs()[S].Sequential)
        return Fail("sequential SCC inside a parallel task");
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Execution engine shared by all lowered variants
//===----------------------------------------------------------------------===//

namespace {

constexpr unsigned MaxSlots = 64;

struct ReductionState {
  RecurrenceInfo Info;
  std::int64_t Init = 0;
  std::vector<std::int64_t> Partials = std::vector<std::int64_t>(MaxSlots, 0);
  std::vector<char> Used = std::vector<char>(MaxSlots, 0);

  void apply(unsigned Slot, std::int64_t V) {
    assert(Slot < MaxSlots);
    if (!Used[Slot]) {
      Used[Slot] = 1;
      Partials[Slot] = V;
      return;
    }
    switch (Info.Kind) {
    case Opcode::Add:
      Partials[Slot] += V;
      break;
    case Opcode::Min:
      Partials[Slot] = std::min(Partials[Slot], V);
      break;
    case Opcode::Max:
      Partials[Slot] = std::max(Partials[Slot], V);
      break;
    default:
      assert(false && "unsupported reduction kind");
    }
  }

  std::int64_t merged() const {
    std::int64_t Acc = Init;
    for (unsigned S = 0; S < MaxSlots; ++S) {
      if (!Used[S])
        continue;
      switch (Info.Kind) {
      case Opcode::Add:
        Acc += Partials[S];
        break;
      case Opcode::Min:
        Acc = std::min(Acc, Partials[S]);
        break;
      case Opcode::Max:
        Acc = std::max(Acc, Partials[S]);
        break;
      default:
        assert(false && "unsupported reduction kind");
      }
    }
    return Acc;
  }

  void reset() {
    Partials.assign(MaxSlots, 0);
    Used.assign(MaxSlots, 0);
  }
};

/// Shared execution state of one compiled loop (persists across scheme
/// switches, exactly like the program's heap does in the real system).
struct ExecState {
  const Function &F;
  Memory Mem;
  std::map<ValueId, std::int64_t> LiveIns;
  std::map<const BasicBlock *, const BasicBlock *> IPDomInLoop;
  double WorkScale = 1.0;
  std::uint64_t TripCount = 0;

  // Recurrences.
  std::map<unsigned, RecurrenceInfo> InductionByPhi; ///< phi id -> info
  std::map<unsigned, std::int64_t> InductionInit;    ///< phi id -> init
  std::map<unsigned, std::int64_t> InductionStep;    ///< phi id -> step
  std::map<unsigned, ReductionState> RedByUpdate;    ///< update id -> state
  std::map<unsigned, unsigned> RedUpdateByPhi;       ///< phi id -> update id
  std::map<unsigned, std::int64_t> CarriedPhi;       ///< other phis: value
  std::map<unsigned, std::int64_t> CarriedPhiInit;

  const Instruction *TailBranch = nullptr;

  explicit ExecState(const Function &F) : F(F) {}
};

/// Per-task lowering data captured by the task's functor.
struct TaskLower {
  std::shared_ptr<ExecState> St;
  bool FullOwnership = false;
  bool IsHead = false;
  bool OwnsTailBranch = false;
  std::vector<char> Owned;                    ///< by instruction id
  std::vector<std::vector<ValueId>> InVals;   ///< per in-link payload
  std::vector<std::vector<ValueId>> OutVals;  ///< per out-link payload
};

std::int64_t envGet(const std::map<ValueId, std::int64_t> &Env, ValueId V) {
  auto It = Env.find(V);
  assert(It != Env.end() && "value not available in this task");
  return It->second;
}

/// Executes iteration Ctx.Seq of this task's slice; fills cost, critical
/// sections, output payloads, and the end-of-stream flag.
void runIteration(const TaskLower &T, rt::IterationContext &Ctx) {
  ExecState &St = *T.St;
  const Loop &L = St.F.TheLoop;
  std::map<ValueId, std::int64_t> Env = St.LiveIns;

  // Ingest payloads (head tasks receive the raw work token instead).
  if (!T.IsHead) {
    assert(Ctx.In.size() == T.InVals.size() && "in-link payload mismatch");
    for (std::size_t I = 0; I < Ctx.In.size(); ++I) {
      auto Vals =
          std::static_pointer_cast<std::vector<std::int64_t>>(Ctx.In[I].Ref);
      assert(Vals && Vals->size() == T.InVals[I].size());
      for (std::size_t J = 0; J < T.InVals[I].size(); ++J)
        Env[T.InVals[I][J]] = (*Vals)[J];
    }
  }

  auto Mine = [&](const Instruction &I) {
    return T.FullOwnership || T.Owned[I.Id];
  };

  std::int64_t Seq = static_cast<std::int64_t>(Ctx.Seq);
  sim::SimTime Cost = 0;
  std::map<int, sim::SimTime> CritCost;
  bool ContinueCond = true;
  bool SawTailCond = false;

  const BasicBlock *B = L.Header;
  unsigned Guard = 0;
  while (true) {
    assert(++Guard < 100000 && "runaway iteration walk");
    for (const auto &IP : B->Insts) {
      const Instruction &I = *IP;
      if (I.isBranch())
        break;

      if (I.isPhi()) {
        auto Ind = St.InductionByPhi.find(I.Id);
        if (Ind != St.InductionByPhi.end()) {
          // Induction: every task recomputes locally from the iteration
          // index (the relaxed recurrence of Section 4.1).
          Env[I.Def] =
              St.InductionInit.at(I.Id) + St.InductionStep.at(I.Id) * Seq;
          if (Mine(I))
            Cost += I.Latency;
          continue;
        }
        if (St.RedUpdateByPhi.count(I.Id))
          continue; // reduction phi: value lives in privatized partials
        if (Mine(I)) {
          // Ordinary carried phi: sequential task, iterations in order.
          Env[I.Def] = Ctx.Seq == 0 ? St.CarriedPhiInit.at(I.Id)
                                    : St.CarriedPhi.at(I.Id);
          Cost += I.Latency;
        }
        continue;
      }

      // Non-induction reduction update: accumulate privately.
      bool IsRedUpdate = false;
      for (auto &[UpdId, Red] : St.RedByUpdate) {
        if (UpdId != I.Id)
          continue;
        IsRedUpdate = true;
        if (Mine(I)) {
          // The non-phi operand.
          const Instruction *Phi = St.F.instById(Red.Info.PhiId);
          ValueId Other =
              I.Uses[0] == Phi->Def ? I.Uses[1] : I.Uses[0];
          Red.apply(Ctx.Slot, envGet(Env, Other));
          Cost += I.Latency;
        }
        break;
      }
      if (IsRedUpdate)
        continue;

      if (!Mine(I))
        continue; // value arrives by payload if this task needs it

      switch (I.Op) {
      case Opcode::Const:
        Env[I.Def] = I.Imm;
        break;
      case Opcode::Add:
        Env[I.Def] = envGet(Env, I.Uses[0]) + envGet(Env, I.Uses[1]);
        break;
      case Opcode::Sub:
        Env[I.Def] = envGet(Env, I.Uses[0]) - envGet(Env, I.Uses[1]);
        break;
      case Opcode::Mul:
        Env[I.Def] = envGet(Env, I.Uses[0]) * envGet(Env, I.Uses[1]);
        break;
      case Opcode::Mod: {
        std::int64_t D = envGet(Env, I.Uses[1]);
        assert(D > 0 && "mod by non-positive divisor");
        Env[I.Def] = envGet(Env, I.Uses[0]) % D;
        break;
      }
      case Opcode::Min:
        Env[I.Def] =
            std::min(envGet(Env, I.Uses[0]), envGet(Env, I.Uses[1]));
        break;
      case Opcode::Max:
        Env[I.Def] =
            std::max(envGet(Env, I.Uses[0]), envGet(Env, I.Uses[1]));
        break;
      case Opcode::CmpLt:
        Env[I.Def] =
            envGet(Env, I.Uses[0]) < envGet(Env, I.Uses[1]) ? 1 : 0;
        break;
      case Opcode::Load: {
        std::int64_t Idx = I.Uses.empty() ? 0 : envGet(Env, I.Uses[0]);
        Env[I.Def] = St.Mem.load(I.MemObject, Idx);
        if (I.Commutative)
          CritCost[I.MemObject] += I.Latency;
        else
          Cost += I.Latency;
        break;
      }
      case Opcode::Store: {
        std::int64_t Idx =
            I.Uses.size() < 2 ? 0 : envGet(Env, I.Uses[0]);
        std::int64_t V = envGet(Env, I.Uses.back());
        St.Mem.store(I.MemObject, Idx, V);
        if (I.Commutative)
          CritCost[I.MemObject] += I.Latency;
        else
          Cost += I.Latency;
        break;
      }
      case Opcode::Call: {
        std::vector<std::int64_t> Args;
        for (ValueId U : I.Uses)
          Args.push_back(envGet(Env, U));
        Env[I.Def] = evalCall(I, Args, St.Mem);
        auto Lat = static_cast<sim::SimTime>(
            static_cast<double>(I.Latency) * St.WorkScale);
        if (I.Commutative && I.MemObject >= 0)
          CritCost[I.MemObject] += Lat;
        else
          Cost += Lat;
        break;
      }
      case Opcode::Phi:
      case Opcode::Br:
      case Opcode::CondBr:
      case Opcode::Ret:
        assert(false && "terminators and phis handled elsewhere");
      }
    }

    const Instruction *Term = B->terminator();
    if (B == L.Tail) {
      if (T.FullOwnership || T.Owned[Term->Id]) {
        ContinueCond = envGet(Env, Term->Uses[0]) != 0;
        SawTailCond = true;
        Cost += Term->Latency;
      }
      break;
    }
    if (Term->Op == Opcode::Br) {
      B = B->Succs[0];
      continue;
    }
    // In-loop conditional: follow it if the condition is available,
    // otherwise no instruction of this task lives inside the region —
    // jump straight to the join point.
    auto It = Env.find(Term->Uses[0]);
    if (It != Env.end()) {
      if (T.FullOwnership || T.Owned[Term->Id])
        Cost += Term->Latency;
      B = It->second != 0 ? B->Succs[0] : B->Succs[1];
    } else {
      B = St.IPDomInLoop.at(B);
    }
  }

  // Commit carried phis this task owns.
  for (const auto &IP : L.Header->Insts) {
    const Instruction &I = *IP;
    if (!I.isPhi() || !Mine(I))
      continue;
    if (St.InductionByPhi.count(I.Id) || St.RedUpdateByPhi.count(I.Id))
      continue;
    auto It = Env.find(I.Uses[1]);
    assert(It != Env.end() && "carried value not computed by its task");
    St.CarriedPhi[I.Id] = It->second;
  }

  // Uncounted loops: the task owning the exit branch ends the stream.
  if (SawTailCond && T.IsHead && !ContinueCond)
    Ctx.EndOfStream = true;

  // Emit output payloads.
  assert(Ctx.Out.size() == T.OutVals.size() && "out-link payload mismatch");
  for (std::size_t K = 0; K < T.OutVals.size(); ++K) {
    auto Vals = std::make_shared<std::vector<std::int64_t>>();
    Vals->reserve(T.OutVals[K].size());
    for (ValueId V : T.OutVals[K]) {
      auto It = Env.find(V);
      // Values defined on untaken paths are never read downstream.
      Vals->push_back(It == Env.end() ? 0 : It->second);
    }
    Ctx.Out[K].Ref = std::move(Vals);
  }

  Ctx.Cost = Cost;
  for (auto [Obj, Cycles] : CritCost)
    Ctx.Criticals.push_back({Obj, Cycles});
}

} // namespace

//===----------------------------------------------------------------------===//
// CompiledLoop
//===----------------------------------------------------------------------===//

struct CompiledLoop::Impl {
  std::shared_ptr<ExecState> St;
  std::vector<std::shared_ptr<TaskLower>> Lowerings;
  std::string Report;
};

namespace {

/// Evaluates the preheader once (the body of Tinit) into live-in values,
/// and seeds recurrence/carried-phi initial values.
void seedState(ExecState &St) {
  const Loop &L = St.F.TheLoop;
  St.LiveIns.clear();
  if (L.Preheader) {
    std::map<ValueId, std::int64_t> Env;
    for (const auto &IP : L.Preheader->Insts) {
      const Instruction &I = *IP;
      switch (I.Op) {
      case Opcode::Const:
        Env[I.Def] = I.Imm;
        break;
      case Opcode::Add:
        Env[I.Def] = envGet(Env, I.Uses[0]) + envGet(Env, I.Uses[1]);
        break;
      case Opcode::Load: {
        std::int64_t Idx = I.Uses.empty() ? 0 : envGet(Env, I.Uses[0]);
        Env[I.Def] = St.Mem.load(I.MemObject, Idx);
        break;
      }
      case Opcode::Br:
        break;
      default:
        assert(false && "unsupported preheader instruction");
      }
    }
    St.LiveIns = std::move(Env);
  }

  for (const auto &IP : L.Header->Insts) {
    const Instruction &I = *IP;
    if (!I.isPhi())
      continue;
    std::int64_t Init = 0;
    auto It = St.LiveIns.find(I.Uses[0]);
    assert(It != St.LiveIns.end() && "phi initial value must be a live-in");
    Init = It->second;
    if (St.InductionByPhi.count(I.Id)) {
      St.InductionInit[I.Id] = Init;
      ValueId StepV = St.InductionByPhi.at(I.Id).StepValue;
      auto StepIt = St.LiveIns.find(StepV);
      assert(StepIt != St.LiveIns.end() &&
             "induction step must be a loop live-in");
      St.InductionStep[I.Id] = StepIt->second;
    } else if (St.RedUpdateByPhi.count(I.Id)) {
      auto &Red = St.RedByUpdate.at(St.RedUpdateByPhi.at(I.Id));
      Red.Init = Init;
      Red.reset();
    } else {
      St.CarriedPhiInit[I.Id] = Init;
    }
  }
  St.CarriedPhi.clear();
}

} // namespace

CompiledLoop::CompiledLoop(const Function &F, AliasOracle AA,
                           std::uint64_t TripCount)
    : I(std::make_unique<Impl>()), F(F), Region(F.name()),
      TripCount(TripCount) {
  F.verify();
  P = std::make_unique<PDG>(F, AA);

  auto St = std::make_shared<ExecState>(F);
  St->TripCount = TripCount;
  St->TailBranch = F.TheLoop.Tail->terminator();
  I->St = St;

  // Recurrence tables.
  for (const RecurrenceInfo &R : P->recurrences()) {
    if (R.IsInduction) {
      St->InductionByPhi[R.PhiId] = R;
    } else {
      ReductionState RS;
      RS.Info = R;
      St->RedByUpdate.emplace(R.UpdateId, std::move(RS));
      St->RedUpdateByPhi[R.PhiId] = R.UpdateId;
    }
  }

  // Intra-loop immediate post-dominators for path skipping.
  {
    const BasicBlock *Sink = nullptr;
    for (const auto &B : F.blocks())
      if (B->Succs.empty())
        Sink = B.get();
    PostDominators PD(F, Sink);
    for (const BasicBlock *B : F.TheLoop.Blocks)
      if (const BasicBlock *IP = PD.ipdom(B))
        St->IPDomInLoop[B] = IP;
  }

  seedState(*St);

  std::string &Rep = I->Report;
  Rep = "Nona compilation of '" + F.name() + "'\n";
  Rep += "  PDG: " + std::to_string(P->nodes().size()) + " nodes, " +
         std::to_string(P->edges().size()) + " edges, " +
         std::to_string(P->sccs().size()) + " SCCs, " +
         std::to_string(P->inhibitors().size()) +
         " non-removable carried deps\n";

  auto MakeVariantTask = [&](std::shared_ptr<TaskLower> TL, std::string Name,
                             rt::TaskType Type) {
    rt::Task T(std::move(Name), Type,
               [TL](rt::IterationContext &Ctx) { runIteration(*TL, Ctx); });
    return T;
  };

  // --- SEQ variant (always) -------------------------------------------
  {
    auto TL = std::make_shared<TaskLower>();
    TL->St = St;
    TL->FullOwnership = true;
    TL->IsHead = true;
    TL->OwnsTailBranch = true;
    I->Lowerings.push_back(TL);
    rt::RegionDesc D;
    D.Name = F.name() + "-seq";
    D.S = rt::Scheme::Seq;
    D.Tasks.push_back(MakeVariantTask(TL, "loop", rt::TaskType::Seq));
    Region.addVariant(std::move(D));
    Rep += "  SEQ: 1 task\n";
  }

  // --- DOANY variant (Section 4.3.1) ----------------------------------
  if (P->inhibitors().empty()) {
    auto TL = std::make_shared<TaskLower>();
    TL->St = St;
    TL->FullOwnership = true;
    TL->IsHead = true;
    TL->OwnsTailBranch = true;
    I->Lowerings.push_back(TL);
    rt::RegionDesc D;
    D.Name = F.name() + "-doany";
    D.S = rt::Scheme::DoAny;
    D.Tasks.push_back(MakeVariantTask(TL, "doany", rt::TaskType::Par));
    Region.addVariant(std::move(D));
    Rep += "  DOANY: applicable\n";
  } else {
    Rep += "  DOANY: rejected (" +
           std::to_string(P->inhibitors().size()) +
           " inhibiting dependencies)\n";
  }

  // --- PS-DSWP variant (Sections 4.3.2-4.5) ---------------------------
  {
    PartitionPlan Plan = psdswpPartition(*P);
    std::string Why;
    bool Valid = checkCoalescenceInvariant(*P, Plan, &Why);
    assert(Valid && "partitioner violated Invariant 4.3.1");
    (void)Valid;
    bool AnyParallel = false;
    for (const TaskPlan &T : Plan.Tasks)
      AnyParallel |= T.Parallel;
    if (Plan.Tasks.size() >= 2 && AnyParallel) {
      // Task of each instruction.
      std::map<unsigned, unsigned> TaskOf;
      for (unsigned T = 0; T < Plan.Tasks.size(); ++T)
        for (unsigned Id : Plan.Tasks[T].InstIds)
          TaskOf[Id] = T;

      // Cross-task links and payloads (MTCG, Section 4.4: one
      // point-to-point channel set per communicating task pair).
      std::map<std::pair<unsigned, unsigned>, std::vector<ValueId>> LinkVals;
      for (const PDGEdge &E : P->edges()) {
        if (E.removable())
          continue;
        unsigned A = TaskOf.at(E.From), B = TaskOf.at(E.To);
        if (A == B)
          continue;
        assert(A < B && "pipeline order violated");
        auto &Vals = LinkVals[{A, B}];
        const Instruction *From = F.instById(E.From);
        ValueId V = NoValue;
        if (E.Kind == DepKind::Reg) {
          // Induction-phi values are recomputed locally, never sent.
          if (!St->InductionByPhi.count(From->Id))
            V = From->Def;
        } else if (E.Kind == DepKind::Control) {
          V = From->Uses.empty() ? NoValue : From->Uses[0];
        } // Mem edges synchronize through the channel itself.
        if (V != NoValue &&
            std::find(Vals.begin(), Vals.end(), V) == Vals.end())
          Vals.push_back(V);
      }

      rt::RegionDesc D;
      D.Name = F.name() + "-psdswp";
      D.S = rt::Scheme::PsDswp;
      std::vector<std::shared_ptr<TaskLower>> TLs;
      for (unsigned T = 0; T < Plan.Tasks.size(); ++T) {
        auto TL = std::make_shared<TaskLower>();
        TL->St = St;
        TL->IsHead = T == 0;
        TL->Owned.assign(F.numInsts(), 0);
        for (unsigned Id : Plan.Tasks[T].InstIds) {
          TL->Owned[Id] = 1;
          if (Id == St->TailBranch->Id)
            TL->OwnsTailBranch = true;
        }
        I->Lowerings.push_back(TL);
        TLs.push_back(TL);
        D.Tasks.push_back(MakeVariantTask(
            TL, "stage" + std::to_string(T),
            Plan.Tasks[T].Parallel ? rt::TaskType::Par : rt::TaskType::Seq));
      }
      for (auto &[Pair, Vals] : LinkVals) {
        std::sort(Vals.begin(), Vals.end());
        D.Links.push_back({Pair.first, Pair.second});
        TLs[Pair.first]->OutVals.push_back(Vals);
        TLs[Pair.second]->InVals.push_back(Vals);
      }
      Rep += "  PS-DSWP: " + std::to_string(Plan.Tasks.size()) + " stages (";
      for (unsigned T = 0; T < Plan.Tasks.size(); ++T)
        Rep += std::string(Plan.Tasks[T].Parallel ? "P" : "S");
      Rep += "), " + std::to_string(D.Links.size()) + " channels\n";
      Region.addVariant(std::move(D));
    } else {
      Rep += "  PS-DSWP: degenerate (no pipeline parallelism)\n";
    }
  }
}

CompiledLoop::~CompiledLoop() = default;

std::unique_ptr<rt::CountedWorkSource> CompiledLoop::makeSource() const {
  return std::make_unique<rt::CountedWorkSource>(TripCount);
}

void CompiledLoop::resetState() {
  I->St->Mem.clear();
  for (auto &[Id, Red] : I->St->RedByUpdate)
    Red.reset();
  seedState(*I->St);
}

Memory &CompiledLoop::memory() { return I->St->Mem; }

std::int64_t CompiledLoop::reductionValue(unsigned PhiId) const {
  auto It = I->St->RedUpdateByPhi.find(PhiId);
  assert(It != I->St->RedUpdateByPhi.end() && "not a reduction phi");
  return I->St->RedByUpdate.at(It->second).merged();
}

void CompiledLoop::setWorkScale(double S) {
  assert(S > 0);
  I->St->WorkScale = S;
}

std::string CompiledLoop::report() const { return I->Report; }

Memory CompiledLoop::interpret(
    const Function &F, std::uint64_t TripCount,
    std::map<unsigned, std::int64_t> *ReductionsOut) {
  F.verify();
  AliasOracle AA; // conservative: fine for reference interpretation
  PDG P(F, AA);
  ExecState St(F);
  St.TripCount = TripCount;
  St.TailBranch = F.TheLoop.Tail->terminator();
  for (const RecurrenceInfo &R : P.recurrences()) {
    if (R.IsInduction) {
      St.InductionByPhi[R.PhiId] = R;
    } else {
      ReductionState RS;
      RS.Info = R;
      St.RedByUpdate.emplace(R.UpdateId, std::move(RS));
      St.RedUpdateByPhi[R.PhiId] = R.UpdateId;
    }
  }
  {
    const BasicBlock *Sink = nullptr;
    for (const auto &B : F.blocks())
      if (B->Succs.empty())
        Sink = B.get();
    PostDominators PD(F, Sink);
    for (const BasicBlock *B : F.TheLoop.Blocks)
      if (const BasicBlock *IP = PD.ipdom(B))
        St.IPDomInLoop[B] = IP;
  }
  seedState(St);

  TaskLower TL;
  TL.St = std::shared_ptr<ExecState>(&St, [](ExecState *) {});
  TL.FullOwnership = true;
  TL.IsHead = true;
  TL.OwnsTailBranch = true;

  for (std::uint64_t Iter = 0; Iter < TripCount; ++Iter) {
    rt::IterationContext Ctx;
    Ctx.Seq = Iter;
    Ctx.Slot = 0;
    runIteration(TL, Ctx);
    if (Ctx.EndOfStream)
      break;
  }
  if (ReductionsOut) {
    ReductionsOut->clear();
    for (const auto &[PhiId, UpdId] : St.RedUpdateByPhi)
      (*ReductionsOut)[PhiId] = St.RedByUpdate.at(UpdId).merged();
  }
  return St.Mem;
}
