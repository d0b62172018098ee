//===- ControllerTest.cpp - Chapter 6 run-time controller tests ------------===//
//
// Tests of the closed-loop controller: sequential baseline, gradient
// ascent to the optimal DoP (Algorithm 4), profitability fallback to SEQ,
// workload-change re-calibration, resource-change adaptation, and the
// platform-wide daemon (Algorithm 5).
//
//===----------------------------------------------------------------------===//

#include "morta/Controller.h"
#include "morta/Platform.h"
#include "morta/RegionRunner.h"

#include <gtest/gtest.h>

#include <memory>

using namespace parcae;
using namespace parcae::rt;

namespace {

/// A DOANY region whose scalability saturates: each iteration computes
/// \p Cost cycles plus a \p Crit-cycle critical section, so throughput
/// stops improving near DoP = Cost/Crit + 1.
FlexibleRegion makeSaturatingDoAny(sim::SimTime Cost, sim::SimTime Crit) {
  FlexibleRegion R("doany");
  {
    RegionDesc D;
    D.Name = "doany-seq";
    D.S = Scheme::Seq;
    D.Tasks.emplace_back("work", TaskType::Seq,
                         [Cost, Crit](IterationContext &Ctx) {
                           Ctx.Cost = Cost + Crit;
                         });
    R.addVariant(std::move(D));
  }
  {
    RegionDesc D;
    D.Name = "doany-par";
    D.S = Scheme::DoAny;
    D.Tasks.emplace_back("work", TaskType::Par,
                         [Cost, Crit](IterationContext &Ctx) {
                           Ctx.Cost = Cost;
                           Ctx.Criticals.push_back({1, Crit});
                         });
    R.addVariant(std::move(D));
  }
  return R;
}

/// A region whose parallel variant is worse than sequential (massive
/// critical section), to exercise the profitability fallback.
FlexibleRegion makeUnprofitable() {
  FlexibleRegion R("unprofitable");
  {
    RegionDesc D;
    D.Name = "u-seq";
    D.S = Scheme::Seq;
    D.Tasks.emplace_back("work", TaskType::Seq,
                         [](IterationContext &Ctx) { Ctx.Cost = 10000; });
    R.addVariant(std::move(D));
  }
  {
    RegionDesc D;
    D.Name = "u-par";
    D.S = Scheme::DoAny;
    D.Tasks.emplace_back("work", TaskType::Par, [](IterationContext &Ctx) {
      Ctx.Cost = 1000;
      Ctx.Criticals.push_back({1, 11000}); // serializes worse than SEQ
    });
    R.addVariant(std::move(D));
  }
  return R;
}

struct ControllerHarness {
  sim::Simulator Sim;
  sim::Machine M;
  RuntimeCosts Costs;
  CountedWorkSource Src;

  ControllerHarness(unsigned Cores, std::uint64_t Iters = 1'000'000'000ull)
      : M(Sim, Cores), Src(Iters) {}
};

} // namespace

TEST(Controller, MeasuresSeqBaselineThenGoesParallel) {
  ControllerHarness H(8);
  FlexibleRegion Region = makeSaturatingDoAny(20000, 100);
  RegionRunner Runner(H.M, H.Costs, Region, H.Src);
  RegionController Ctrl(Runner);
  Ctrl.start(8);
  H.Sim.runUntil(200 * sim::MSec);

  EXPECT_EQ(Ctrl.state(), CtrlState::Monitor);
  EXPECT_GT(Ctrl.seqThroughput(), 0.0);
  EXPECT_EQ(Ctrl.bestConfig().S, Scheme::DoAny);
  EXPECT_GT(Ctrl.bestThroughput(), Ctrl.seqThroughput() * 2);
  // The trace must show INIT first, then calibration of the parallel
  // scheme (Figure 8.8's state banner).
  ASSERT_FALSE(Ctrl.trace().empty());
  EXPECT_EQ(Ctrl.trace().front().St, CtrlState::Init);
}

TEST(Controller, GradientAscentFindsSaturationPoint) {
  // Cost 20000, crit 5000: the critical section saturates throughput at
  // DoP ~ 5; more threads buy nothing and should not be kept.
  ControllerHarness H(16);
  FlexibleRegion Region = makeSaturatingDoAny(20000, 5000);
  RegionRunner Runner(H.M, H.Costs, Region, H.Src);
  RegionController Ctrl(Runner);
  Ctrl.start(16);
  H.Sim.runUntil(400 * sim::MSec);

  ASSERT_EQ(Ctrl.state(), CtrlState::Monitor);
  ASSERT_EQ(Ctrl.bestConfig().S, Scheme::DoAny);
  unsigned D = Ctrl.bestConfig().DoP[0];
  EXPECT_GE(D, 3u);
  EXPECT_LE(D, 8u) << "controller wasted threads beyond saturation";
}

TEST(Controller, NoDecreasingProbeAfterClimb) {
  // Cost 20000, crit 1800: DOANY calibrates at 8 and climbs to 12, where
  // 13 is not better. A task that has climbed reverts to its peak; only a
  // task whose first upward probe fails may try the decreasing side.
  ControllerHarness H(16);
  FlexibleRegion Region = makeSaturatingDoAny(20000, 1800);
  RegionRunner Runner(H.M, H.Costs, Region, H.Src);
  RegionController Ctrl(Runner);
  Ctrl.start(16);
  H.Sim.runUntil(400 * sim::MSec);

  ASSERT_EQ(Ctrl.state(), CtrlState::Monitor);
  bool Peaked = false;
  for (const auto &E : Ctrl.trace()) {
    if (E.St != CtrlState::Optimize || E.C.S != Scheme::DoAny)
      continue;
    if (E.C.DoP[0] == 12) {
      Peaked = true;
    } else if (Peaked) {
      EXPECT_GT(E.C.DoP[0], 12u)
          << "decreasing probe " << E.C.str() << " after the climb";
    }
  }
  EXPECT_TRUE(Peaked) << "the ascent never reached DOANY<12>";
  EXPECT_EQ(Ctrl.bestConfig().str(), "DOANY<12>");
}

TEST(Controller, UnprofitableParallelismRevertsToSeq) {
  ControllerHarness H(8);
  FlexibleRegion Region = makeUnprofitable();
  RegionRunner Runner(H.M, H.Costs, Region, H.Src);
  RegionController Ctrl(Runner);
  Ctrl.start(8);
  H.Sim.runUntil(300 * sim::MSec);

  EXPECT_EQ(Ctrl.state(), CtrlState::Monitor);
  EXPECT_EQ(Ctrl.bestConfig().S, Scheme::Seq);
  EXPECT_EQ(Runner.config().S, Scheme::Seq);
}

TEST(Controller, WorkloadChangeTriggersRecalibration) {
  ControllerHarness H(8);
  // Iteration cost is read through a shared knob the test flips mid-run.
  auto CostKnob = std::make_shared<sim::SimTime>(20000);
  FlexibleRegion Region("varying");
  {
    RegionDesc D;
    D.Name = "v-seq";
    D.S = Scheme::Seq;
    D.Tasks.emplace_back("work", TaskType::Seq, [CostKnob](
                                                    IterationContext &Ctx) {
      Ctx.Cost = *CostKnob;
    });
    Region.addVariant(std::move(D));
  }
  {
    RegionDesc D;
    D.Name = "v-par";
    D.S = Scheme::DoAny;
    D.Tasks.emplace_back("work", TaskType::Par, [CostKnob](
                                                    IterationContext &Ctx) {
      Ctx.Cost = *CostKnob;
      Ctx.Criticals.push_back({1, 200});
    });
    Region.addVariant(std::move(D));
  }
  RegionRunner Runner(H.M, H.Costs, Region, H.Src);
  RegionController Ctrl(Runner);
  Ctrl.start(8);
  H.Sim.runUntil(100 * sim::MSec);
  ASSERT_EQ(Ctrl.state(), CtrlState::Monitor);

  // Make every iteration 4x heavier: measured throughput drops by 4x,
  // well past the monitor threshold.
  *CostKnob = 80000;
  H.Sim.runUntil(300 * sim::MSec);
  bool SawRecalibrate = false;
  for (const auto &E : Ctrl.trace())
    if (E.At > 100 * sim::MSec && E.St == CtrlState::Calibrate)
      SawRecalibrate = true;
  EXPECT_TRUE(SawRecalibrate) << "monitor did not detect workload change";
  EXPECT_EQ(Ctrl.state(), CtrlState::Monitor);
}

TEST(Controller, BudgetDecreaseShrinksConfiguration) {
  ControllerHarness H(16);
  FlexibleRegion Region = makeSaturatingDoAny(40000, 100);
  RegionRunner Runner(H.M, H.Costs, Region, H.Src);
  RegionController Ctrl(Runner);
  Ctrl.start(16);
  H.Sim.runUntil(300 * sim::MSec);
  ASSERT_EQ(Ctrl.state(), CtrlState::Monitor);
  unsigned Before = Runner.config().totalThreads();
  EXPECT_GT(Before, 3u);

  Ctrl.setThreadBudget(3);
  H.Sim.runUntil(600 * sim::MSec);
  EXPECT_LE(Runner.config().totalThreads(), 3u);
  EXPECT_EQ(Ctrl.state(), CtrlState::Monitor);
}

TEST(Controller, BudgetIncreaseGrowsConfiguration) {
  ControllerHarness H(16);
  FlexibleRegion Region = makeSaturatingDoAny(40000, 100);
  RegionRunner Runner(H.M, H.Costs, Region, H.Src);
  RegionController Ctrl(Runner);
  Ctrl.start(4);
  H.Sim.runUntil(200 * sim::MSec);
  ASSERT_EQ(Ctrl.state(), CtrlState::Monitor);
  unsigned Before = Runner.config().totalThreads();
  EXPECT_LE(Before, 4u);

  Ctrl.setThreadBudget(12);
  H.Sim.runUntil(600 * sim::MSec);
  EXPECT_GT(Runner.config().totalThreads(), Before);
}

TEST(Controller, ConfigCacheReusedOnBudgetReturn) {
  ControllerHarness H(16);
  FlexibleRegion Region = makeSaturatingDoAny(40000, 100);
  RegionRunner Runner(H.M, H.Costs, Region, H.Src);
  RegionController Ctrl(Runner);
  Ctrl.start(8);
  H.Sim.runUntil(300 * sim::MSec);
  ASSERT_EQ(Ctrl.state(), CtrlState::Monitor);
  RegionConfig At8 = Runner.config();

  Ctrl.setThreadBudget(4);
  H.Sim.runUntil(600 * sim::MSec);
  std::size_t TraceLenBefore = Ctrl.trace().size();

  // Returning to budget 8 must hit the cache: straight to MONITOR with
  // the previously optimized configuration, no new OPTIMIZE phase.
  Ctrl.setThreadBudget(8);
  EXPECT_EQ(Runner.config(), At8);
  EXPECT_EQ(Ctrl.state(), CtrlState::Monitor);
  H.Sim.runUntil(650 * sim::MSec);
  for (std::size_t I = TraceLenBefore; I < Ctrl.trace().size(); ++I)
    EXPECT_NE(Ctrl.trace()[I].St, CtrlState::Optimize);
}

TEST(PlatformDaemon, SplitsBudgetAcrossPrograms) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 24);
  RuntimeCosts Costs;
  CountedWorkSource SrcA(1'000'000'000ull), SrcB(1'000'000'000ull);
  FlexibleRegion RegA = makeSaturatingDoAny(20000, 100);
  FlexibleRegion RegB = makeSaturatingDoAny(20000, 100);
  RegionRunner RunA(M, Costs, RegA, SrcA), RunB(M, Costs, RegB, SrcB);
  RegionController CtrlA(RunA), CtrlB(RunB);

  PlatformDaemon Daemon(24);
  Daemon.addProgram(CtrlA);
  EXPECT_EQ(Daemon.budgetOf(CtrlA), 24u);
  Daemon.addProgram(CtrlB);
  EXPECT_EQ(Daemon.budgetOf(CtrlA), 12u);
  EXPECT_EQ(Daemon.budgetOf(CtrlB), 12u);

  Sim.runUntil(400 * sim::MSec);
  EXPECT_EQ(CtrlA.state(), CtrlState::Monitor);
  EXPECT_EQ(CtrlB.state(), CtrlState::Monitor);
  EXPECT_LE(RunA.config().totalThreads() + RunB.config().totalThreads(),
            24u);
}

TEST(PlatformDaemon, SlackFlowsToSaturatedProgram) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 16);
  RuntimeCosts Costs;
  // Program A saturates early (heavy critical section); B scales freely.
  CountedWorkSource SrcA(1'000'000'000ull), SrcB(1'000'000'000ull);
  FlexibleRegion RegA = makeSaturatingDoAny(9000, 3000);
  FlexibleRegion RegB = makeSaturatingDoAny(40000, 50);
  RegionRunner RunA(M, Costs, RegA, SrcA), RunB(M, Costs, RegB, SrcB);
  RegionController CtrlA(RunA), CtrlB(RunB);

  PlatformDaemon Daemon(16);
  Daemon.addProgram(CtrlA);
  Daemon.addProgram(CtrlB);
  Sim.runUntil(800 * sim::MSec);

  // A should settle near its saturation (~4 threads), well under its even
  // share; the slack should raise B's budget above the even split.
  EXPECT_LT(RunA.config().totalThreads(), 8u);
  EXPECT_GT(CtrlB.threadBudget(), 8u);
}

TEST(PlatformDaemon, RemoveProgramRedistributes) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  RuntimeCosts Costs;
  CountedWorkSource SrcA(1'000'000'000ull), SrcB(1'000'000'000ull);
  FlexibleRegion RegA = makeSaturatingDoAny(20000, 100);
  FlexibleRegion RegB = makeSaturatingDoAny(20000, 100);
  RegionRunner RunA(M, Costs, RegA, SrcA), RunB(M, Costs, RegB, SrcB);
  RegionController CtrlA(RunA), CtrlB(RunB);

  PlatformDaemon Daemon(8);
  Daemon.addProgram(CtrlA);
  Daemon.addProgram(CtrlB);
  Sim.runUntil(100 * sim::MSec);
  Daemon.removeProgram(CtrlA);
  EXPECT_EQ(Daemon.budgetOf(CtrlB), 8u);
}
