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
    CompilerOptions Opt;
    PartitionPlan Plan = psdswpPartition(G, Opt);
    std::string Why;
    EXPECT_TRUE(checkCoalescenceInvariant(G, Plan, &Why))
        << P.Name << ": " << Why;
  }
}

TEST(PartitionTest, ChasePipelineShape) {
  LoopProgram P = makeChase(10);
  PDG G(*P.F, P.AA);
  PartitionPlan Plan = psdswpPartition(G, CompilerOptions{});
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

TEST(PartitionTest, DualPipeIsANetwork) {
  // The Figure 7.7 shape: at least two sequential and two parallel
  // stages, in alternating pipeline order.
  LoopProgram P = makeDualPipe(16);
  PDG G(*P.F, P.AA);
  PartitionPlan Plan = psdswpPartition(G, CompilerOptions{});
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
