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
  Opcode Kind = Opcode::Add;
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
    switch (Kind) {
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
      switch (Kind) {
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

/// What a task does with an instruction when its walk reaches it.
enum class Role : std::uint8_t {
  Plain,           ///< evaluated by its owner
  Induction,       ///< recomputed by every task from the iteration index
  ReductionPhi,    ///< no value: the reduction lives in private partials
  ReductionUpdate, ///< accumulated into its owner's partial
  CarriedPhi,      ///< read by its owner from the value committed last
};

/// The lowering of one instruction, fixed when the loop is compiled
/// except for the values seedState and the carried-phi commits write.
struct InstPlan {
  Role R = Role::Plain;
  /// A Load, Store or Call charged to a critical section on its memory
  /// object instead of to the iteration's own cost.
  bool Critical = false;
  /// ReductionPhi, ReductionUpdate: index into ExecState::Reductions.
  unsigned Red = 0;
  /// Induction: the step value. ReductionUpdate: the non-phi operand.
  /// CarriedPhi: the value carried into the next iteration.
  ValueId Operand = NoValue;
  /// Induction: the value is Init + Step * Seq. CarriedPhi: Init at
  /// Seq 0, after that Last, once its owner has committed one.
  std::int64_t Init = 0, Step = 0, Last = 0;
  bool HasLast = false;
};

/// Shared execution state of one compiled loop (persists across scheme
/// switches, exactly like the program's heap does in the real system).
struct ExecState {
  const Function &F;
  Memory Mem;
  double WorkScale = 1.0;
  std::vector<InstPlan> Plan; ///< by instruction id
  std::vector<ReductionState> Reductions;
  std::vector<unsigned> CarriedPhis;           ///< instruction ids
  std::vector<const BasicBlock *> IPDomInLoop; ///< by block id

  /// The value frame: one slot per value id, and whether the running
  /// task has the value. One frame serves every task of the loop only
  /// because the host runs one functor at a time. Each iteration starts
  /// from the live-ins the preheader computed.
  std::vector<std::int64_t> Val, LiveIn;
  std::vector<char> Avail, LiveInAvail;
  std::vector<std::int64_t> Args; ///< a call's arguments

  explicit ExecState(const Function &F) : F(F) {}

  std::int64_t get(ValueId V) const {
    assert(Avail[V] && "value not available in this task");
    return Val[V];
  }
  void set(ValueId V, std::int64_t X) {
    Val[V] = X;
    Avail[V] = 1;
  }

  /// Evaluates one non-phi, non-terminator instruction into the frame.
  /// Returns the cycles it costs: its latency for a Load or Store, its
  /// latency scaled by WorkScale for a Call, nothing for arithmetic.
  sim::SimTime eval(const Instruction &I);
};

sim::SimTime ExecState::eval(const Instruction &I) {
  std::int64_t R = 0;
  sim::SimTime Lat = 0;
  switch (I.Op) {
  case Opcode::Const:
    R = I.Imm;
    break;
  case Opcode::Add:
    R = get(I.Uses[0]) + get(I.Uses[1]);
    break;
  case Opcode::Sub:
    R = get(I.Uses[0]) - get(I.Uses[1]);
    break;
  case Opcode::Mul:
    R = get(I.Uses[0]) * get(I.Uses[1]);
    break;
  case Opcode::Mod: {
    std::int64_t D = get(I.Uses[1]);
    assert(D > 0 && "mod by non-positive divisor");
    R = get(I.Uses[0]) % D;
    break;
  }
  case Opcode::Min:
    R = std::min(get(I.Uses[0]), get(I.Uses[1]));
    break;
  case Opcode::Max:
    R = std::max(get(I.Uses[0]), get(I.Uses[1]));
    break;
  case Opcode::CmpLt:
    R = get(I.Uses[0]) < get(I.Uses[1]) ? 1 : 0;
    break;
  case Opcode::Load:
    R = Mem.load(I.MemObject, I.Uses.empty() ? 0 : get(I.Uses[0]));
    Lat = I.Latency;
    break;
  case Opcode::Store:
    Mem.store(I.MemObject, I.Uses.size() < 2 ? 0 : get(I.Uses[0]),
              get(I.Uses.back()));
    return I.Latency;
  case Opcode::Call:
    Args.clear();
    for (ValueId U : I.Uses)
      Args.push_back(get(U));
    R = evalCall(I, Args, Mem);
    Lat = static_cast<sim::SimTime>(static_cast<double>(I.Latency) *
                                    WorkScale);
    break;
  case Opcode::Phi:
  case Opcode::Br:
  case Opcode::CondBr:
  case Opcode::Ret:
    assert(false && "phis and terminators are not evaluated here");
    return 0;
  }
  set(I.Def, R);
  return Lat;
}

/// Per-task lowering data captured by the task's functor.
struct TaskLower {
  std::shared_ptr<ExecState> St;
  bool IsHead = false;
  std::vector<char> Owned;                   ///< by instruction id
  std::vector<std::vector<ValueId>> InVals;  ///< per in-link payload
  std::vector<std::vector<ValueId>> OutVals; ///< per out-link payload
};

/// Adds \p Lat to the critical section on \p Obj among Crit[Base, end),
/// which stay in ascending object order: the order the worker runs them.
void addCritical(std::vector<rt::CriticalSection> &Crit, std::size_t Base,
                 int Obj, sim::SimTime Lat) {
  auto It = std::lower_bound(
      Crit.begin() + static_cast<std::ptrdiff_t>(Base), Crit.end(), Obj,
      [](const rt::CriticalSection &C, int O) { return C.LockId < O; });
  if (It != Crit.end() && It->LockId == Obj)
    It->Cycles += Lat;
  else
    Crit.insert(It, {Obj, Lat});
}

/// Executes iteration Ctx.Seq of this task's slice; fills cost, critical
/// sections, output payloads, and the end-of-stream flag.
void runIteration(const TaskLower &T, rt::IterationContext &Ctx) {
  ExecState &St = *T.St;
  const Loop &L = St.F.TheLoop;
  St.Val = St.LiveIn;
  St.Avail = St.LiveInAvail;

  // Ingest payloads (head tasks receive the raw work token instead).
  if (!T.IsHead) {
    assert(Ctx.In.size() == T.InVals.size() && "in-link payload mismatch");
    for (std::size_t I = 0; I < Ctx.In.size(); ++I) {
      const auto *Vals =
          static_cast<const std::vector<std::int64_t> *>(Ctx.In[I].Ref.get());
      assert(Vals && Vals->size() == T.InVals[I].size());
      for (std::size_t J = 0; J < T.InVals[I].size(); ++J)
        St.set(T.InVals[I][J], (*Vals)[J]);
    }
  }

  std::int64_t Seq = static_cast<std::int64_t>(Ctx.Seq);
  sim::SimTime Cost = 0;
  const std::size_t CritBase = Ctx.Criticals.size();

  const BasicBlock *B = L.Header;
  unsigned Guard = 0;
  while (true) {
    assert(++Guard < 100000 && "runaway iteration walk");
    for (const auto &IP : B->Insts) {
      const Instruction &I = *IP;
      if (I.isBranch())
        break;
      const InstPlan &P = St.Plan[I.Id];
      bool Mine = T.Owned[I.Id];
      switch (P.R) {
      case Role::Plain:
        // A value this task does not own arrives by payload if it needs
        // it.
        if (Mine) {
          sim::SimTime Lat = St.eval(I);
          if (P.Critical)
            addCritical(Ctx.Criticals, CritBase, I.MemObject, Lat);
          else
            Cost += Lat;
        }
        break;
      case Role::Induction:
        // Every task recomputes it from the iteration index (the relaxed
        // recurrence of Section 4.1).
        St.set(I.Def, P.Init + P.Step * Seq);
        if (Mine)
          Cost += I.Latency;
        break;
      case Role::ReductionPhi:
        break;
      case Role::ReductionUpdate:
        if (Mine) {
          St.Reductions[P.Red].apply(Ctx.Slot, St.get(P.Operand));
          Cost += I.Latency;
        }
        break;
      case Role::CarriedPhi:
        // Sequential task, iterations in order.
        if (Mine) {
          assert((Seq == 0 || P.HasLast) &&
                 "carried phi read before its owner committed a value");
          St.set(I.Def, Seq == 0 ? P.Init : P.Last);
          Cost += I.Latency;
        }
        break;
      }
    }

    const Instruction *Term = B->terminator();
    if (B == L.Tail) {
      // Uncounted loops: the head owning the exit branch ends the stream.
      if (T.Owned[Term->Id]) {
        if (St.get(Term->Uses[0]) == 0 && T.IsHead)
          Ctx.EndOfStream = true;
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
    ValueId Cond = Term->Uses[0];
    if (St.Avail[Cond]) {
      if (T.Owned[Term->Id])
        Cost += Term->Latency;
      B = St.Val[Cond] != 0 ? B->Succs[0] : B->Succs[1];
    } else {
      B = St.IPDomInLoop[B->Id];
      assert(B && "in-loop conditional without an in-loop join point");
    }
  }

  // Commit carried phis this task owns.
  for (unsigned Id : St.CarriedPhis) {
    if (!T.Owned[Id])
      continue;
    InstPlan &P = St.Plan[Id];
    assert(St.Avail[P.Operand] && "carried value not computed by its task");
    P.Last = St.Val[P.Operand];
    P.HasLast = true;
  }

  // Emit output payloads. A value defined on an untaken path is never
  // read downstream; it goes as 0.
  assert(Ctx.Out.size() == T.OutVals.size() && "out-link payload mismatch");
  for (std::size_t K = 0; K < T.OutVals.size(); ++K) {
    auto Vals = std::make_shared<std::vector<std::int64_t>>();
    Vals->reserve(T.OutVals[K].size());
    for (ValueId V : T.OutVals[K])
      Vals->push_back(St.Avail[V] ? St.Val[V] : 0);
    Ctx.Out[K].Ref = std::move(Vals);
  }

  Ctx.Cost = Cost;
}

/// Evaluates the preheader (the body of Tinit) with the loop body's
/// evaluator into the live-in template, and seeds the recurrences' and
/// carried phis' initial values from it.
void seedState(ExecState &St) {
  const Loop &L = St.F.TheLoop;
  St.Val.assign(static_cast<std::size_t>(St.F.numValues()), 0);
  St.Avail.assign(St.Val.size(), 0);
  if (L.Preheader)
    for (const auto &IP : L.Preheader->Insts)
      if (!IP->isBranch())
        St.eval(*IP);
  St.LiveIn = St.Val;
  St.LiveInAvail = St.Avail;

  for (const auto &IP : L.Header->Insts) {
    const Instruction &I = *IP;
    if (!I.isPhi())
      continue;
    assert(St.Avail[I.Uses[0]] && "phi initial value must be a live-in");
    std::int64_t Init = St.Val[I.Uses[0]];
    InstPlan &P = St.Plan[I.Id];
    switch (P.R) {
    case Role::Induction:
      assert(St.Avail[P.Operand] && "induction step must be a loop live-in");
      P.Init = Init;
      P.Step = St.Val[P.Operand];
      break;
    case Role::ReductionPhi:
      St.Reductions[P.Red].Init = Init;
      St.Reductions[P.Red].reset();
      break;
    default: // CarriedPhi
      P.Init = Init;
      P.HasLast = false;
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// CompiledLoop
//===----------------------------------------------------------------------===//

struct CompiledLoop::Impl {
  std::shared_ptr<ExecState> St;
  std::string Report;
};

CompiledLoop::CompiledLoop(const Function &F, AliasOracle AA,
                           std::uint64_t TripCount)
    : I(std::make_unique<Impl>()), F(F), Region(F.name()),
      TripCount(TripCount) {
  F.verify();
  P = std::make_unique<PDG>(F, AA);

  auto St = std::make_shared<ExecState>(F);
  I->St = St;

  // The role table: recurrences, then the remaining header phis, then
  // critical sections.
  std::vector<InstPlan> &Plan = St->Plan;
  Plan.resize(F.numInsts());
  for (const RecurrenceInfo &R : P->recurrences()) {
    if (R.IsInduction) {
      Plan[R.PhiId].R = Role::Induction;
      Plan[R.PhiId].Operand = R.StepValue;
      continue;
    }
    unsigned Red = static_cast<unsigned>(St->Reductions.size());
    St->Reductions.emplace_back().Kind = R.Kind;
    Plan[R.PhiId].R = Role::ReductionPhi;
    Plan[R.PhiId].Red = Red;
    const Instruction *Upd = F.instById(R.UpdateId);
    ValueId PhiV = F.instById(R.PhiId)->Def;
    Plan[R.UpdateId].R = Role::ReductionUpdate;
    Plan[R.UpdateId].Red = Red;
    Plan[R.UpdateId].Operand = Upd->Uses[0] == PhiV ? Upd->Uses[1]
                                                    : Upd->Uses[0];
  }
  for (const auto &IP : F.TheLoop.Header->Insts)
    if (IP->isPhi() && Plan[IP->Id].R == Role::Plain) {
      Plan[IP->Id].R = Role::CarriedPhi;
      Plan[IP->Id].Operand = IP->Uses[1];
      St->CarriedPhis.push_back(IP->Id);
    }
  // A commutative access is a critical section, except the load and
  // store of a privatized array reduction: they update the worker's own
  // copy, so they are plain compute. The host runs one functor at a time
  // and the loaded value feeds only the update, so updating shared memory
  // in place leaves what merging the copies at exit would.
  for (const auto &B : F.blocks())
    for (const auto &IP : B->Insts)
      Plan[IP->Id].Critical =
          IP->Commutative &&
          (IP->isMemory() || (IP->Op == Opcode::Call && IP->MemObject >= 0));
  for (const ArrayReductionInfo &A : P->arrayReductions())
    Plan[A.LoadId].Critical = Plan[A.StoreId].Critical = false;

  // Intra-loop immediate post-dominators for path skipping.
  {
    const BasicBlock *Sink = nullptr;
    for (const auto &B : F.blocks())
      if (B->Succs.empty())
        Sink = B.get();
    PostDominators PD(F, Sink);
    St->IPDomInLoop.assign(F.blocks().size(), nullptr);
    for (const BasicBlock *B : F.TheLoop.Blocks)
      St->IPDomInLoop[B->Id] = PD.ipdom(B);
  }

  seedState(*St);

  std::string &Rep = I->Report;
  Rep = "Nona compilation of '" + F.name() + "'\n";
  Rep += "  PDG: " + std::to_string(P->nodes().size()) + " nodes, " +
         std::to_string(P->edges().size()) + " edges, " +
         std::to_string(P->sccs().size()) + " SCCs, " +
         std::to_string(P->inhibitors().size()) +
         " non-removable carried deps\n";
  for (const ArrayReductionInfo &A : P->arrayReductions())
    Rep += "  Privatized: @m" + std::to_string(A.MemObject) + " " +
           opcodeName(A.Kind) + " reduction over " +
           std::to_string(A.Extent) + " entries\n";

  auto MakeVariantTask = [&](std::shared_ptr<TaskLower> TL, std::string Name,
                             rt::TaskType Type) {
    rt::Task T(std::move(Name), Type,
               [TL](rt::IterationContext &Ctx) { runIteration(*TL, Ctx); });
    // Every exiting worker of the task owning an array reduction merges
    // its private copy: one load and one store per entry.
    for (const ArrayReductionInfo &A : P->arrayReductions())
      if (TL->Owned[A.StoreId])
        T.FiniCost += static_cast<sim::SimTime>(A.Extent) *
                      (F.instById(A.LoadId)->Latency +
                       F.instById(A.StoreId)->Latency);
    return T;
  };

  // SEQ and DOANY run the whole body as one head task.
  auto Whole = std::make_shared<TaskLower>();
  Whole->St = St;
  Whole->IsHead = true;
  Whole->Owned.assign(F.numInsts(), 1);

  // --- SEQ variant (always) -------------------------------------------
  {
    rt::RegionDesc D;
    D.Name = F.name() + "-seq";
    D.S = rt::Scheme::Seq;
    D.Tasks.push_back(MakeVariantTask(Whole, "loop", rt::TaskType::Seq));
    Region.addVariant(std::move(D));
    Rep += "  SEQ: 1 task\n";
  }

  // --- DOANY variant (Section 4.3.1) ----------------------------------
  if (P->inhibitors().empty()) {
    rt::RegionDesc D;
    D.Name = F.name() + "-doany";
    D.S = rt::Scheme::DoAny;
    D.Tasks.push_back(MakeVariantTask(Whole, "doany", rt::TaskType::Par));
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
          if (St->Plan[From->Id].R != Role::Induction)
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
        for (unsigned Id : Plan.Tasks[T].InstIds)
          TL->Owned[Id] = 1;
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
  seedState(*I->St);
}

Memory &CompiledLoop::memory() { return I->St->Mem; }

std::int64_t CompiledLoop::reductionValue(unsigned PhiId) const {
  const ExecState &St = *I->St;
  assert(PhiId < St.Plan.size() && St.Plan[PhiId].R == Role::ReductionPhi &&
         "not a reduction phi");
  return St.Reductions[St.Plan[PhiId].Red].merged();
}

void CompiledLoop::setWorkScale(double S) {
  assert(S > 0);
  I->St->WorkScale = S;
}

std::string CompiledLoop::report() const { return I->Report; }

namespace {

/// The reference semantics of one non-phi, non-terminator instruction
/// over dense value slots.
void evalInst(const Instruction &I, std::vector<std::int64_t> &Val,
              Memory &Mem) {
  auto Get = [&](ValueId V) { return Val[static_cast<std::size_t>(V)]; };
  std::int64_t R = 0;
  switch (I.Op) {
  case Opcode::Const:
    R = I.Imm;
    break;
  case Opcode::Add:
    R = Get(I.Uses[0]) + Get(I.Uses[1]);
    break;
  case Opcode::Sub:
    R = Get(I.Uses[0]) - Get(I.Uses[1]);
    break;
  case Opcode::Mul:
    R = Get(I.Uses[0]) * Get(I.Uses[1]);
    break;
  case Opcode::Mod: {
    std::int64_t D = Get(I.Uses[1]);
    assert(D > 0 && "mod by non-positive divisor");
    R = Get(I.Uses[0]) % D;
    break;
  }
  case Opcode::Min:
    R = std::min(Get(I.Uses[0]), Get(I.Uses[1]));
    break;
  case Opcode::Max:
    R = std::max(Get(I.Uses[0]), Get(I.Uses[1]));
    break;
  case Opcode::CmpLt:
    R = Get(I.Uses[0]) < Get(I.Uses[1]) ? 1 : 0;
    break;
  case Opcode::Load:
    R = Mem.load(I.MemObject, I.Uses.empty() ? 0 : Get(I.Uses[0]));
    break;
  case Opcode::Store:
    Mem.store(I.MemObject, I.Uses.size() < 2 ? 0 : Get(I.Uses[0]),
              Get(I.Uses.back()));
    return;
  case Opcode::Call: {
    std::vector<std::int64_t> Args;
    for (ValueId U : I.Uses)
      Args.push_back(Get(U));
    R = evalCall(I, Args, Mem);
    break;
  }
  case Opcode::Phi:
  case Opcode::Br:
  case Opcode::CondBr:
  case Opcode::Ret:
    assert(false && "phis and terminators are not evaluated here");
    return;
  }
  Val[static_cast<std::size_t>(I.Def)] = R;
}

} // namespace

Memory CompiledLoop::interpret(
    const Function &F, std::uint64_t TripCount,
    std::map<unsigned, std::int64_t> *ReductionsOut) {
  F.verify();
  const Loop &L = F.TheLoop;
  Memory Mem;
  std::vector<std::int64_t> Val(static_cast<std::size_t>(F.numValues()), 0);
  auto Get = [&](ValueId V) { return Val[static_cast<std::size_t>(V)]; };
  auto EvalBlock = [&](const BasicBlock &B) {
    for (const auto &IP : B.Insts)
      if (!IP->isPhi() && !IP->isBranch())
        evalInst(*IP, Val, Mem);
  };

  if (L.Preheader)
    EvalBlock(*L.Preheader);
  // The header phis and, in the same order, the value each takes at the
  // next header entry.
  std::vector<const Instruction *> Phis;
  std::vector<std::int64_t> Carried;
  for (const auto &IP : L.Header->Insts)
    if (IP->isPhi()) {
      Phis.push_back(IP.get());
      Carried.push_back(Get(IP->Uses[0]));
    }

  for (std::uint64_t Iter = 0; Iter < TripCount; ++Iter) {
    for (std::size_t K = 0; K < Phis.size(); ++K)
      Val[static_cast<std::size_t>(Phis[K]->Def)] = Carried[K];
    const BasicBlock *B = L.Header;
    for (std::size_t Steps = 1;; ++Steps) {
      assert(Steps <= L.Blocks.size() && L.contains(B) &&
             "the body walk must reach the tail without leaving the loop");
      EvalBlock(*B);
      if (B == L.Tail)
        break;
      const Instruction *Term = B->terminator();
      B = Term->Op == Opcode::CondBr && Get(Term->Uses[0]) == 0
              ? B->Succs[1]
              : B->Succs[0];
    }
    for (std::size_t K = 0; K < Phis.size(); ++K)
      Carried[K] = Get(Phis[K]->Uses[1]);
    const Instruction *Back = L.Tail->terminator();
    const BasicBlock *Next =
        Get(Back->Uses[0]) != 0 ? L.Tail->Succs[0] : L.Tail->Succs[1];
    if (Next != L.Header)
      break;
  }

  if (ReductionsOut) {
    ReductionsOut->clear();
    for (std::size_t K = 0; K < Phis.size(); ++K)
      (*ReductionsOut)[Phis[K]->Id] = Carried[K];
  }
  return Mem;
}
