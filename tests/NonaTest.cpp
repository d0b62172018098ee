//===- NonaTest.cpp - Nona compiler tests ------------------------------------===//
//
// Tests the Chapter 4 compiler stack: IR structure, post-dominance and
// control dependence, PDG construction with relaxations, SCC
// condensation, DOANY applicability, PS-DSWP coalescing (Invariant
// 4.3.1), and — most importantly — semantic equivalence: the parallel
// executions produce exactly the memory and reduction results of the
// sequential reference interpretation, under every scheme and under
// random reconfiguration schedules.
//
//===----------------------------------------------------------------------===//

#include "ChaoticRun.h"
#include "ir/Dominators.h"
#include "nona/Programs.h"
#include "nona/Run.h"

#include <gtest/gtest.h>

using namespace parcae;
using namespace parcae::ir;
namespace rt = parcae::rt;

namespace {

/// Default DoP-1 config for a scheme of a compiled loop.
rt::RegionConfig configFor(CompiledLoop &CL, rt::Scheme S,
                           unsigned ParDoP) {
  rt::RegionConfig C;
  C.S = S;
  for (const rt::Task &T : CL.region().variant(S).Tasks)
    C.DoP.push_back(T.isParallel() ? ParDoP : 1);
  return C;
}

/// The instruction named \p Name (histogram's loop body is iv, hash, bin,
/// old, inc and newbin; its preheader holds the constant bins).
Instruction *instNamed(Function &F, const std::string &Name) {
  for (auto &B : F.blocks())
    for (auto &I : B->Insts)
      if (I->Name == Name)
        return I.get();
  ADD_FAILURE() << "no instruction named " << Name;
  return nullptr;
}

/// Emits an instruction in front of \p Before, in its block
/// (Function::emit appends at the end of the block).
Instruction *emitBefore(Function &F, Instruction *Before, Opcode Op,
                        std::vector<ValueId> Uses, std::string Name) {
  BasicBlock *B = Before->Parent;
  Instruction *I = F.emit(B, Op, std::move(Uses), std::move(Name));
  auto At = std::find_if(B->Insts.begin(), B->Insts.end(),
                         [&](const auto &P) { return P.get() == Before; });
  std::rotate(At, B->Insts.end() - 1, B->Insts.end());
  return I;
}

/// DOANY<6> over DOANY<1> on 8 cores.
double doAnySpeedup(CompiledLoop &CL) {
  auto T1 = runCompiled(CL, configFor(CL, rt::Scheme::DoAny, 1), 8);
  auto T6 = runCompiled(CL, configFor(CL, rt::Scheme::DoAny, 6), 8);
  return static_cast<double>(T1.Time) / static_cast<double>(T6.Time);
}

/// What the one task of \p S's variant charges: critical-section cycles
/// on object \p Obj for iteration 0, and its FiniCost.
struct TaskCharge {
  sim::SimTime Crit = 0;
  sim::SimTime Fini = 0;
};
TaskCharge chargeOf(CompiledLoop &CL, rt::Scheme S, int Obj) {
  CL.resetState();
  const rt::Task &T = CL.region().variant(S).Tasks.at(0);
  rt::IterationContext Ctx;
  T.Fn(Ctx);
  TaskCharge C;
  C.Fini = T.FiniCost;
  for (const rt::CriticalSection &CS : Ctx.Criticals)
    if (CS.LockId == Obj)
      C.Crit += CS.Cycles;
  return C;
}

} // namespace

TEST(IrTest, VecsumVerifiesAndPrints) {
  LoopProgram P = makeVecsum(10);
  P.F->verify();
  std::string S = P.F->print();
  EXPECT_NE(S.find("phi"), std::string::npos);
  EXPECT_NE(S.find("condbr"), std::string::npos);
}

TEST(IrTest, AllProgramsVerify) {
  for (auto &Make : benchmarkSuite(16))
    Make().F->verify();
}

TEST(PostDominatorsTest, BranchyDiamond) {
  LoopProgram P = makeBranchy(8);
  const Function &F = *P.F;
  const BasicBlock *Header = F.TheLoop.Header;
  const BasicBlock *Then = Header->Succs[0];
  const BasicBlock *Else = Header->Succs[1];
  const BasicBlock *Join = Then->Succs[0];
  const BasicBlock *Sink = F.TheLoop.Exit;
  PostDominators PD(F, Sink);
  EXPECT_EQ(PD.ipdom(Then), Join);
  EXPECT_EQ(PD.ipdom(Else), Join);
  EXPECT_TRUE(PD.postDominates(Join, Header));
  EXPECT_FALSE(PD.postDominates(Then, Header));
  auto Deps = PD.controlDependents(Header);
  EXPECT_NE(std::find(Deps.begin(), Deps.end(), Then), Deps.end());
  EXPECT_NE(std::find(Deps.begin(), Deps.end(), Else), Deps.end());
  EXPECT_EQ(std::find(Deps.begin(), Deps.end(), Join), Deps.end());
}

TEST(PdgTest, VecsumRecognizesInductionAndReduction) {
  LoopProgram P = makeVecsum(10);
  PDG G(*P.F, P.AA);
  ASSERT_EQ(G.recurrences().size(), 2u);
  unsigned Inductions = 0, Reductions = 0;
  for (const RecurrenceInfo &R : G.recurrences())
    (R.IsInduction ? Inductions : Reductions)++;
  EXPECT_EQ(Inductions, 1u);
  EXPECT_EQ(Reductions, 1u);
  // Everything carried is removable: no inhibitors.
  EXPECT_TRUE(G.inhibitors().empty());
}

TEST(PdgTest, ChaseHasSequentialTraversalScc) {
  LoopProgram P = makeChase(10);
  PDG G(*P.F, P.AA);
  EXPECT_FALSE(G.inhibitors().empty()) << "pointer chase must inhibit DOANY";
  bool FoundSeqScc = false;
  for (const PDG::SCC &S : G.sccs())
    if (S.Sequential && S.InstIds.size() >= 2)
      FoundSeqScc = true;
  EXPECT_TRUE(FoundSeqScc);
}

TEST(PdgTest, CommutativeAnnotationRelaxesHistogram) {
  LoopProgram P = makeHistogram(10, 8);
  PDG G(*P.F, P.AA);
  EXPECT_TRUE(G.inhibitors().empty())
      << "commutative bin updates must not inhibit parallelism";
  bool SawCommutativeCarried = false;
  for (const PDGEdge &E : G.edges())
    if (E.LoopCarried && E.Relaxation == Relax::Commutative)
      SawCommutativeCarried = true;
  EXPECT_TRUE(SawCommutativeCarried);
}

TEST(PdgTest, SharedWithoutAnnotationInhibits) {
  // Strip the commutative annotations off histogram: DOANY must reject.
  LoopProgram P = makeHistogram(10, 8);
  for (auto &B : P.F->blocks())
    for (auto &I : B->Insts)
      I->Commutative = false;
  PDG G(*P.F, P.AA);
  EXPECT_FALSE(G.inhibitors().empty());
}

TEST(PdgTest, HistogramBinsAreAnArrayReduction) {
  LoopProgram P = makeHistogram(10, 64);
  PDG G(*P.F, P.AA);
  ASSERT_EQ(G.arrayReductions().size(), 1u);
  const ArrayReductionInfo &A = G.arrayReductions()[0];
  EXPECT_EQ(A.MemObject, 2);
  EXPECT_EQ(A.Kind, Opcode::Add);
  EXPECT_EQ(A.Extent, 64);
  EXPECT_EQ(A.LoadId, instNamed(*P.F, "old")->Id);
  EXPECT_EQ(A.UpdateId, instNamed(*P.F, "inc")->Id);
  EXPECT_EQ(A.StoreId, instNamed(*P.F, "newbin")->Id);
}

TEST(PdgTest, CountedLoopControlIsRemovable) {
  LoopProgram P = makeSaxpy(10);
  PDG G(*P.F, P.AA);
  for (const PDGEdge &E : G.edges()) {
    if (E.Kind == DepKind::Control && E.LoopCarried) {
      EXPECT_TRUE(E.removable()) << "counted-loop control must relax";
    }
  }
}

TEST(PartitionTest, InvariantHoldsOnAllPrograms) {
  for (auto &Make : benchmarkSuite(16)) {
    LoopProgram P = Make();
    PDG G(*P.F, P.AA);
    PartitionPlan Plan = psdswpPartition(G);
    std::string Why;
    EXPECT_TRUE(checkCoalescenceInvariant(G, Plan, &Why))
        << P.Name << ": " << Why;
  }
}

TEST(PartitionTest, ChasePipelineShape) {
  LoopProgram P = makeChase(10);
  PDG G(*P.F, P.AA);
  PartitionPlan Plan = psdswpPartition(G);
  // Expect a pipeline with at least one sequential (traversal) task and
  // one parallel (payload) task.
  bool AnySeq = false, AnyPar = false;
  for (const TaskPlan &T : Plan.Tasks) {
    AnySeq |= !T.Parallel;
    AnyPar |= T.Parallel;
  }
  EXPECT_TRUE(AnySeq);
  EXPECT_TRUE(AnyPar);
  EXPECT_GE(Plan.Tasks.size(), 2u);
}

TEST(CompileTest, VariantsMatchAnalysis) {
  struct Expect {
    const char *Name;
    bool DoAny;
    bool PsDswp;
  };
  // Pure DOALL loops (vecsum, montecarlo) degenerate to a single
  // parallel task under PS-DSWP, so no pipeline variant is emitted;
  // seqchain pipelines its (tiny) store stage behind the serial chain —
  // structurally valid, and the run-time controller rejects it as
  // unprofitable.
  const Expect Cases[] = {
      {"vecsum", true, false},   {"saxpy", true, true},
      {"histogram", true, true}, {"montecarlo", true, false},
      {"chase", false, true},    {"branchy", true, true},
      {"seqchain", false, true}, {"minmax", true, false},
      {"dualpipe", false, true},
  };
  auto Suite = benchmarkSuite(16);
  for (std::size_t I = 0; I < Suite.size(); ++I) {
    LoopProgram P = Suite[I]();
    CompiledLoop CL(*P.F, P.AA, P.TripCount);
    EXPECT_EQ(CL.hasDoAny(), Cases[I].DoAny) << P.Name << "\n"
                                             << CL.report();
    EXPECT_EQ(CL.hasPsDswp(), Cases[I].PsDswp) << P.Name << "\n"
                                               << CL.report();
  }
}

TEST(CompileTest, ReportMentionsStructure) {
  LoopProgram P = makeChase(16);
  CompiledLoop CL(*P.F, P.AA, P.TripCount);
  std::string R = CL.report();
  EXPECT_NE(R.find("PDG"), std::string::npos);
  EXPECT_NE(R.find("PS-DSWP"), std::string::npos);
}

TEST(CompileTest, HistogramBinsArePrivatized) {
  LoopProgram P = makeHistogram(16, 64);
  CompiledLoop CL(*P.F, P.AA, P.TripCount);
  EXPECT_NE(CL.report().find("Privatized: @m2 add reduction over 64 entries"),
            std::string::npos)
      << CL.report();
  // The update is plain compute; every exiting worker merges 64 entries
  // at one 250-cycle load and one 250-cycle store each.
  const sim::SimTime Merge = 64 * 500;
  for (rt::Scheme S : {rt::Scheme::Seq, rt::Scheme::DoAny}) {
    TaskCharge C = chargeOf(CL, S, 2);
    EXPECT_EQ(C.Crit, 0u) << rt::schemeName(S);
    EXPECT_EQ(C.Fini, Merge) << rt::schemeName(S);
  }
  // Under PS-DSWP only the stage that owns the update merges.
  std::vector<sim::SimTime> Fini;
  for (const rt::Task &T : CL.region().variant(rt::Scheme::PsDswp).Tasks)
    if (T.FiniCost != 0)
      Fini.push_back(T.FiniCost);
  EXPECT_EQ(Fini, std::vector<sim::SimTime>{Merge});
}

TEST(CompileTest, MinAndMaxBinUpdatesArePrivatized) {
  for (Opcode Op : {Opcode::Min, Opcode::Max}) {
    LoopProgram P = makeHistogram(16, 64);
    instNamed(*P.F, "inc")->Op = Op;
    CompiledLoop CL(*P.F, P.AA, P.TripCount);
    ASSERT_EQ(CL.pdg().arrayReductions().size(), 1u) << opcodeName(Op);
    EXPECT_EQ(CL.pdg().arrayReductions()[0].Kind, Op);
    EXPECT_NE(CL.report().find(std::string("@m2 ") + opcodeName(Op)),
              std::string::npos)
        << CL.report();
    EXPECT_EQ(chargeOf(CL, rt::Scheme::DoAny, 2).Crit, 0u) << opcodeName(Op);
  }
}

TEST(CompileTest, ArrayReductionNearMissesStayCriticalSections) {
  // Each edit breaks one condition of ArrayReductionInfo. The bin update
  // then keeps running as a critical section on object 2 (load and store
  // latency, plus 250 cycles for a third access), no task merges
  // anything, and DOANY stays lock-bound.
  struct NearMiss {
    const char *What;
    std::function<void(LoopProgram &)> Edit;
    sim::SimTime Crit;
  };
  const NearMiss Cases[] = {
      {"loaded bin used a second time",
       [](LoopProgram &P) {
         // prev[i] = bins[b]++: the old count is recorded too.
         Function &F = *P.F;
         Instruction *Prev = emitBefore(
             F, F.TheLoop.Header->terminator(), Opcode::Store,
             {instNamed(F, "iv")->Def, instNamed(F, "old")->Def}, "prev");
         Prev->MemObject = 7;
         Prev->Latency = 100;
         P.AA.setClass(7, MemClass::IterationPrivate);
       },
       500},
      {"stored value is old * 1",
       [](LoopProgram &P) { instNamed(*P.F, "inc")->Op = Opcode::Mul; },
       500},
      {"a third access to the bins",
       [](LoopProgram &P) {
         Function &F = *P.F;
         Instruction *Peek =
             emitBefore(F, F.TheLoop.Header->terminator(), Opcode::Load,
                        {instNamed(F, "bin")->Def}, "peek");
         Peek->MemObject = 2;
         Peek->Latency = 250;
         Peek->Commutative = true;
       },
       750},
      {"index is the induction variable",
       [](LoopProgram &P) {
         ValueId IV = instNamed(*P.F, "iv")->Def;
         instNamed(*P.F, "old")->Uses = {IV};
         instNamed(*P.F, "newbin")->Uses[0] = IV;
       },
       500},
      {"index is hash mod a loop-variant divisor",
       [](LoopProgram &P) {
         Function &F = *P.F;
         Instruction *Bin = instNamed(F, "bin");
         Instruction *D = emitBefore(
             F, Bin, Opcode::Add,
             {instNamed(F, "iv")->Def, instNamed(F, "bins")->Def}, "div");
         Bin->Uses[1] = D->Def;
       },
       500},
  };
  for (const NearMiss &C : Cases) {
    LoopProgram P = makeHistogram(800, 64);
    C.Edit(P);
    P.F->verify();
    CompiledLoop CL(*P.F, P.AA, P.TripCount);
    EXPECT_TRUE(CL.pdg().arrayReductions().empty()) << C.What;
    EXPECT_EQ(CL.report().find("Privatized"), std::string::npos) << C.What;
    for (rt::Scheme S : {rt::Scheme::Seq, rt::Scheme::DoAny}) {
      TaskCharge T = chargeOf(CL, S, 2);
      EXPECT_EQ(T.Crit, C.Crit) << C.What << " under " << rt::schemeName(S);
      EXPECT_EQ(T.Fini, 0u) << C.What << " under " << rt::schemeName(S);
    }
    EXPECT_LT(doAnySpeedup(CL), 3.0) << C.What;
  }
}

//===----------------------------------------------------------------------===//
// Semantic equivalence
//===----------------------------------------------------------------------===//

namespace {

/// Runs one program under every variant and a chaotic schedule, checking
/// memory and reduction results against the sequential reference.
void checkSemantics(const std::function<LoopProgram()> &Make) {
  LoopProgram Ref = Make();
  std::map<unsigned, std::int64_t> RefReds;
  Memory RefMem = CompiledLoop::interpret(*Ref.F, Ref.TripCount, &RefReds);

  LoopProgram P = Make();
  CompiledLoop CL(*P.F, P.AA, P.TripCount);

  auto Check = [&](const char *What) {
    EXPECT_TRUE(CL.memory() == RefMem) << P.Name << " memory under " << What;
    for (unsigned Phi : P.ReductionPhis)
      EXPECT_EQ(CL.reductionValue(Phi), RefReds.at(Phi))
          << P.Name << " reduction under " << What;
  };

  // SEQ on the simulator.
  CompiledRunResult R =
      runCompiled(CL, configFor(CL, rt::Scheme::Seq, 1), 8);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.Retired, Ref.TripCount);
  Check("SEQ");

  if (CL.hasDoAny()) {
    R = runCompiled(CL, configFor(CL, rt::Scheme::DoAny, 6), 8);
    EXPECT_TRUE(R.Completed);
    Check("DOANY");
  }
  if (CL.hasPsDswp()) {
    R = runCompiled(CL, configFor(CL, rt::Scheme::PsDswp, 4), 8);
    EXPECT_TRUE(R.Completed);
    Check("PS-DSWP");
  }
  // Chaos: random DoP changes and scheme switches mid-run.
  R = runCompiledChaotic(CL, 8, /*Seed=*/0xC0FFEE);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.Retired, Ref.TripCount);
  Check("chaotic reconfiguration");
}

} // namespace

TEST(SemanticsTest, Vecsum) {
  checkSemantics([] { return makeVecsum(300); });
}
TEST(SemanticsTest, Saxpy) {
  checkSemantics([] { return makeSaxpy(300); });
}
TEST(SemanticsTest, Histogram) {
  checkSemantics([] { return makeHistogram(300, 16); });
}
TEST(SemanticsTest, MonteCarlo) {
  checkSemantics([] { return makeMonteCarlo(300); });
}
TEST(SemanticsTest, Chase) {
  checkSemantics([] { return makeChase(300); });
}
TEST(SemanticsTest, Branchy) {
  checkSemantics([] { return makeBranchy(300); });
}
TEST(SemanticsTest, Seqchain) {
  checkSemantics([] { return makeSeqchain(300); });
}
TEST(SemanticsTest, MinMax) {
  checkSemantics([] { return makeMinMax(300); });
}
TEST(SemanticsTest, DualPipe) {
  checkSemantics([] { return makeDualPipe(300); });
}
TEST(SemanticsTest, HistogramMinMaxBins) {
  for (Opcode Op : {Opcode::Min, Opcode::Max})
    checkSemantics([Op] {
      // bins[b] = op(bins[b], hash): a min or max array reduction.
      LoopProgram P = makeHistogram(300, 16);
      Instruction *Upd = instNamed(*P.F, "inc");
      Upd->Op = Op;
      Upd->Uses[1] = instNamed(*P.F, "hash")->Def;
      return P;
    });
}
TEST(SemanticsTest, PreheaderUsesAnyOpcode) {
  checkSemantics([] {
    // saxpy's scale becomes a live-in the preheader computes with Sub,
    // Mul and Min: min((bound - one) * a, 1000).
    LoopProgram P = makeSaxpy(300);
    Function &F = *P.F;
    Instruction *Br = F.TheLoop.Preheader->terminator();
    Instruction *D =
        emitBefore(F, Br, Opcode::Sub,
                   {instNamed(F, "bound")->Def, instNamed(F, "one")->Def}, "d");
    Instruction *M = emitBefore(F, Br, Opcode::Mul,
                                {D->Def, instNamed(F, "a")->Def}, "m");
    Instruction *Cap = emitBefore(F, Br, Opcode::Const, {}, "cap");
    Cap->Imm = 1000;
    Instruction *S =
        emitBefore(F, Br, Opcode::Min, {M->Def, Cap->Def}, "scale");
    instNamed(F, "y")->Uses[1] = S->Def;
    return P;
  });
}

//===----------------------------------------------------------------------===//
// Performance shape
//===----------------------------------------------------------------------===//

TEST(CompiledPerf, DoAnyScalesMonteCarlo) {
  LoopProgram P = makeMonteCarlo(800);
  CompiledLoop CL(*P.F, P.AA, P.TripCount);
  auto T1 = runCompiled(CL, configFor(CL, rt::Scheme::DoAny, 1), 8);
  auto T6 = runCompiled(CL, configFor(CL, rt::Scheme::DoAny, 6), 8);
  double Speedup =
      static_cast<double>(T1.Time) / static_cast<double>(T6.Time);
  EXPECT_GT(Speedup, 4.0) << CL.report();
}

TEST(CompiledPerf, DoAnyScalesHistogram) {
  // The bin updates are a privatized array reduction, not a critical
  // section, so DOANY scales like montecarlo's.
  LoopProgram P = makeHistogram(800, 64);
  CompiledLoop CL(*P.F, P.AA, P.TripCount);
  EXPECT_GT(doAnySpeedup(CL), 4.0) << CL.report();
}

TEST(PartitionTest, DualPipeIsANetwork) {
  // The Figure 7.7 shape: at least two sequential and two parallel
  // stages, in alternating pipeline order.
  LoopProgram P = makeDualPipe(16);
  PDG G(*P.F, P.AA);
  PartitionPlan Plan = psdswpPartition(G);
  unsigned Seq = 0, Par = 0;
  for (const TaskPlan &T : Plan.Tasks)
    (T.Parallel ? Par : Seq)++;
  EXPECT_GE(Seq, 2u) << "two carried chains -> two sequential stages";
  EXPECT_GE(Par, 1u);
  EXPECT_GE(Plan.Tasks.size(), 3u);
}

TEST(CompiledPerf, MinMaxReductionsMergeCorrectly) {
  LoopProgram P = makeMinMax(500);
  CompiledLoop CL(*P.F, P.AA, P.TripCount);
  std::map<unsigned, std::int64_t> Reds;
  LoopProgram Ref = makeMinMax(500);
  CompiledLoop::interpret(*Ref.F, Ref.TripCount, &Reds);
  runCompiled(CL, configFor(CL, rt::Scheme::DoAny, 7), 8);
  for (unsigned Phi : P.ReductionPhis)
    EXPECT_EQ(CL.reductionValue(Phi), Reds.at(Phi));
  // Sanity: lo <= hi and both came from real data.
  EXPECT_LT(CL.reductionValue(P.ReductionPhis[0]),
            CL.reductionValue(P.ReductionPhis[1]));
}

TEST(CompiledPerf, PipelineSpeedsUpChase) {
  LoopProgram P = makeChase(600);
  CompiledLoop CL(*P.F, P.AA, P.TripCount);
  auto Seq = runCompiled(CL, configFor(CL, rt::Scheme::Seq, 1), 8);
  auto Pipe = runCompiled(CL, configFor(CL, rt::Scheme::PsDswp, 5), 8);
  double Speedup =
      static_cast<double>(Seq.Time) / static_cast<double>(Pipe.Time);
  EXPECT_GT(Speedup, 2.5) << CL.report();
}

TEST(CompiledPerf, ControllerPicksParallelScheme) {
  LoopProgram P = makeMonteCarlo(30000);
  CompiledLoop CL(*P.F, P.AA, P.TripCount);
  ControlledRunResult R = runControlled(CL, 8);
  EXPECT_TRUE(R.Completed);
  EXPECT_NE(R.Final.S, rt::Scheme::Seq);
  EXPECT_GT(R.BestThroughput, R.SeqThroughput * 2);
}

namespace {
/// Trace entries of a controlled run that ran PS-DSWP.
unsigned psDswpEntries(const ControlledRunResult &R) {
  unsigned N = 0;
  for (const auto &E : R.Trace)
    N += E.C.S == rt::Scheme::PsDswp;
  return N;
}
} // namespace

TEST(CompiledPerf, LinearDoAnySkipsPsDswpSearch) {
  // These loops reach DOANY<16> at the rate their measured per-iteration
  // cost allows 16 threads. No PS-DSWP configuration can do better, so
  // the controller never calibrates one.
  const std::pair<const char *, std::function<LoopProgram()>> Loops[] = {
      {"saxpy", [] { return makeSaxpy(20000); }},
      {"histogram", [] { return makeHistogram(20000, 64); }},
      {"branchy", [] { return makeBranchy(20000); }},
  };
  for (const auto &[Name, Make] : Loops) {
    LoopProgram Ref = Make();
    Memory RefMem = CompiledLoop::interpret(*Ref.F, Ref.TripCount);
    LoopProgram P = Make();
    CompiledLoop CL(*P.F, P.AA, P.TripCount);
    ControlledRunResult R = runControlled(CL, 16);
    ASSERT_TRUE(R.Completed) << Name << ": " << R.Stall;
    EXPECT_EQ(R.Final.str(), "DOANY<16>") << Name;
    EXPECT_EQ(psDswpEntries(R), 0u) << Name;
    EXPECT_TRUE(CL.memory() == RefMem) << Name;
  }
}

TEST(CompiledPerf, LockBoundDoAnyStillSearchesPsDswp) {
  // With inc a Mul the bin update stays a critical section (see
  // CompileTest.ArrayReductionNearMissesStayCriticalSections). DOANY is
  // then lock-bound far below what its per-iteration cost would allow
  // 16 threads, so the bound rules nothing out and PS-DSWP is searched.
  auto Make = [] {
    LoopProgram P = makeHistogram(20000, 64);
    instNamed(*P.F, "inc")->Op = Opcode::Mul;
    return P;
  };
  LoopProgram Ref = Make();
  Memory RefMem = CompiledLoop::interpret(*Ref.F, Ref.TripCount);
  LoopProgram P = Make();
  CompiledLoop CL(*P.F, P.AA, P.TripCount);
  ControlledRunResult R = runControlled(CL, 16);
  ASSERT_TRUE(R.Completed) << R.Stall;
  EXPECT_GT(psDswpEntries(R), 0u);
  EXPECT_EQ(R.Final.str(), "DOANY<3>");
  EXPECT_TRUE(CL.memory() == RefMem);
}

TEST(CompiledPerf, ControllerKeepsSeqForSeqchain) {
  LoopProgram P = makeSeqchain(20000);
  CompiledLoop CL(*P.F, P.AA, P.TripCount);
  ControlledRunResult R = runControlled(CL, 8);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.Final.S, rt::Scheme::Seq);
}

TEST(CompiledPerf, ControlledDualPipeReachesBalancedConfig) {
  // From the default PS-DSWP<1,5,1,5>, the slower parallel stage climbs
  // to 7 and the other then climbs to 7 too, until the 16-thread budget
  // stops it. Neither task may descend once it has climbed: a descent
  // judged step by step against the previous window walked the first
  // task back to 5 and left four threads idle.
  LoopProgram Ref = makeDualPipe(3000);
  Memory RefMem = CompiledLoop::interpret(*Ref.F, Ref.TripCount);
  LoopProgram P = makeDualPipe(3000);
  CompiledLoop CL(*P.F, P.AA, P.TripCount);
  ControlledRunResult R = runControlled(CL, 16);
  ASSERT_TRUE(R.Completed) << R.Stall;
  EXPECT_TRUE(R.Stall.empty());
  EXPECT_TRUE(CL.memory() == RefMem);
  EXPECT_EQ(R.Final.str(), "PS-DSWP<1,7,1,7>");

  rt::RegionConfig Default = configFor(CL, rt::Scheme::PsDswp, 5);
  CompiledRunResult Static = runCompiled(CL, Default, 16);
  ASSERT_TRUE(Static.Completed) << Static.Stall;
  EXPECT_LT(R.Time, Static.Time)
      << "controlled run no faster than static " << Default.str();
}

TEST(CompiledPerf, CompletedRunTimeIsQueueDrainTime) {
  // The bounded helpers step the same events Simulator::run() would: a
  // completed run's Time is unchanged by the stall guard.
  LoopProgram P = makeChase(600);
  CompiledLoop CL(*P.F, P.AA, P.TripCount);
  rt::RegionConfig C = configFor(CL, rt::Scheme::PsDswp, 5);
  CompiledRunResult R = runCompiled(CL, C, 8);
  ASSERT_TRUE(R.Completed);

  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  rt::RuntimeCosts Costs;
  CL.resetState();
  auto Src = CL.makeSource();
  rt::RegionRunner Runner(M, Costs, CL.region(), *Src);
  Runner.start(C);
  Sim.run();
  EXPECT_EQ(R.Time, Sim.now());
  EXPECT_EQ(R.Retired, Runner.totalRetired());
}
