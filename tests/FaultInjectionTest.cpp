//===- FaultInjectionTest.cpp - Edge cases and hostile schedules -------------===//
//
// Failure-injection and boundary tests for the flexible-execution
// machinery: empty regions, pause storms, pause-before-first-iteration,
// reconfiguration of completed regions, one-core machines, budget-1
// controllers, closed-empty work queues, and the unoptimized (Chapter 7
// switches off) protocol paths.
//
//===----------------------------------------------------------------------===//

#include "ChaoticRun.h"
#include "PullOne.h"
#include "core/Region.h"
#include "core/WorkSource.h"
#include "morta/Controller.h"
#include "morta/RegionRunner.h"
#include "morta/Watchdog.h"
#include "nona/Programs.h"
#include "nona/Run.h"
#include "sim/Faults.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>

using namespace parcae;
using namespace parcae::rt;
namespace ir = parcae::ir;

namespace {

FlexibleRegion makeSPS(std::vector<std::int64_t> *Tail = nullptr) {
  FlexibleRegion R("fault");
  RegionDesc D;
  D.Name = "fault-pipe";
  D.S = Scheme::PsDswp;
  D.Tasks.emplace_back("a", TaskType::Seq, [](IterationContext &C) {
    C.Cost = 1000;
    C.Out[0].Value = static_cast<std::int64_t>(C.Seq);
  });
  D.Tasks.emplace_back("b", TaskType::Par, [](IterationContext &C) {
    C.Cost = 9000;
    C.Out[0].Value = C.In[0].Value;
  });
  D.Tasks.emplace_back("c", TaskType::Seq, [Tail](IterationContext &C) {
    C.Cost = 800;
    if (Tail)
      Tail->push_back(C.In[0].Value);
  });
  D.Links.push_back({0, 1});
  D.Links.push_back({1, 2});
  R.addVariant(std::move(D));
  {
    RegionDesc S;
    S.Name = "fault-seq";
    S.S = Scheme::Seq;
    S.Tasks.emplace_back("all", TaskType::Seq, [Tail](IterationContext &C) {
      C.Cost = 10800;
      if (Tail)
        Tail->push_back(static_cast<std::int64_t>(C.Seq));
    });
    R.addVariant(std::move(S));
  }
  return R;
}

/// Computes one fixed burst, then finishes (for slice-boundary timing
/// tests that need an exact amount of work on a raw machine).
class OneBurst : public sim::ThreadBody {
public:
  explicit OneBurst(sim::SimTime Cycles) : Cycles(Cycles) {}
  sim::Action resume(sim::Machine &, sim::SimThread &) override {
    if (Done)
      return sim::Action::finish();
    Done = true;
    return sim::Action::compute(Cycles);
  }
  bool Done = false;
  sim::SimTime Cycles;
};

} // namespace

TEST(FaultInjection, ZeroIterationRegionCompletesImmediately) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  RuntimeCosts Costs;
  CountedWorkSource Src(0);
  FlexibleRegion Region = makeSPS();
  RegionRunner Runner(M, Costs, Region, Src);
  Runner.start(Region.unitConfig(Scheme::Seq));
  Sim.run();
  EXPECT_TRUE(Runner.completed());
  EXPECT_EQ(Runner.totalRetired(), 0u);
}

TEST(FaultInjection, ClosedEmptyQueueCompletes) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  RuntimeCosts Costs;
  QueueWorkSource Src;
  Src.close();
  FlexibleRegion Region = makeSPS();
  RegionRunner Runner(M, Costs, Region, Src);
  RegionConfig C;
  C.S = Scheme::PsDswp;
  C.DoP = {1, 3, 1};
  Runner.start(C);
  Sim.run();
  EXPECT_TRUE(Runner.completed());
  EXPECT_EQ(Runner.totalRetired(), 0u);
}

TEST(FaultInjection, PauseBeforeFirstIteration) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  RuntimeCosts Costs;
  CountedWorkSource Src(100);
  std::vector<std::int64_t> Tail;
  FlexibleRegion Region = makeSPS(&Tail);
  RegionRunner Runner(M, Costs, Region, Src);
  RegionConfig C;
  C.S = Scheme::PsDswp;
  C.DoP = {1, 4, 1};
  Runner.start(C);
  // Reconfigure at time zero, before any iteration ran.
  RegionConfig N = C;
  N.S = Scheme::Seq;
  N.DoP = {1};
  Runner.reconfigure(N);
  Sim.run();
  EXPECT_TRUE(Runner.completed());
  ASSERT_EQ(Tail.size(), 100u);
  for (std::int64_t I = 0; I < 100; ++I)
    EXPECT_EQ(Tail[static_cast<std::size_t>(I)], I);
}

TEST(FaultInjection, ReconfigureStorm) {
  // Coalesced, overlapping, and redundant reconfiguration requests must
  // neither deadlock nor corrupt the iteration stream.
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  RuntimeCosts Costs;
  CountedWorkSource Src(400);
  std::vector<std::int64_t> Tail;
  FlexibleRegion Region = makeSPS(&Tail);
  RegionRunner Runner(M, Costs, Region, Src);
  RegionConfig C;
  C.S = Scheme::PsDswp;
  C.DoP = {1, 2, 1};
  Runner.start(C);
  Rng R(99);
  for (int K = 0; K < 200; ++K) {
    bool SchemeSwitch = R.nextBool(0.3);
    RegionConfig N;
    if (SchemeSwitch) {
      N.S = Scheme::Seq;
      N.DoP = {1};
    } else {
      N.S = Scheme::PsDswp;
      N.DoP = {1, 1 + static_cast<unsigned>(R.nextBelow(6)), 1};
    }
    Sim.schedule(static_cast<sim::SimTime>(K) * 37 * sim::USec,
                 [&Runner, N = std::move(N)]() mutable {
                   if (!Runner.completed())
                     Runner.reconfigure(std::move(N));
                 });
  }
  Sim.run();
  EXPECT_TRUE(Runner.completed());
  ASSERT_EQ(Tail.size(), 400u);
  for (std::int64_t I = 0; I < 400; ++I)
    ASSERT_EQ(Tail[static_cast<std::size_t>(I)], I);
}

TEST(FaultInjection, PauseAfterCompletionIsNoOp) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  RuntimeCosts Costs;
  CountedWorkSource Src(10);
  FlexibleRegion Region = makeSPS();
  RegionRunner Runner(M, Costs, Region, Src);
  Runner.start(Region.unitConfig(Scheme::Seq));
  Sim.run();
  ASSERT_TRUE(Runner.completed());
  RegionConfig N;
  N.S = Scheme::PsDswp;
  N.DoP = {1, 4, 1};
  EXPECT_FALSE(Runner.reconfigure(N));
}

TEST(FaultInjection, SingleCoreMachineStillCorrect) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 1);
  RuntimeCosts Costs;
  CountedWorkSource Src(150);
  std::vector<std::int64_t> Tail;
  FlexibleRegion Region = makeSPS(&Tail);
  RegionRunner Runner(M, Costs, Region, Src);
  // A 6-thread pipeline on one core: pure time slicing.
  RegionConfig C;
  C.S = Scheme::PsDswp;
  C.DoP = {1, 4, 1};
  Runner.start(C);
  Sim.run();
  EXPECT_TRUE(Runner.completed());
  ASSERT_EQ(Tail.size(), 150u);
  for (std::int64_t I = 0; I < 150; ++I)
    EXPECT_EQ(Tail[static_cast<std::size_t>(I)], I);
}

TEST(FaultInjection, ControllerWithBudgetOne) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 2);
  RuntimeCosts Costs;
  CountedWorkSource Src(1'000'000'000ull);
  FlexibleRegion Region = makeSPS();
  RegionRunner Runner(M, Costs, Region, Src);
  RegionController Ctrl(Runner);
  Ctrl.start(1);
  Sim.runUntil(100 * sim::MSec);
  // With a single thread, nothing parallel is feasible; the controller
  // must stay sequential and keep making progress.
  EXPECT_EQ(Runner.config().totalThreads(), 1u);
  EXPECT_GT(Runner.totalRetired(), 100u);
}

TEST(FaultInjection, UnoptimizedProtocolStillCorrect) {
  // All Chapter 7 optimizations off: the full drain barrier and
  // per-iteration data management must still preserve semantics.
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  RuntimeCosts Costs;
  Costs.OptimizedDataManagement = false;
  Costs.OptimizedBarrier = false;
  Costs.OverlapReconfig = false;
  Costs.PrivatizedReductions = false;
  CountedWorkSource Src(2000);
  std::vector<std::int64_t> Tail;
  FlexibleRegion Region = makeSPS(&Tail);
  RegionRunner Runner(M, Costs, Region, Src);
  RegionConfig C;
  C.S = Scheme::PsDswp;
  C.DoP = {1, 3, 1};
  Runner.start(C);
  for (int K = 1; K <= 8; ++K)
    Sim.schedule(static_cast<sim::SimTime>(K) * 300 * sim::USec,
                 [&Runner, K] {
                   RegionConfig N;
                   N.S = Scheme::PsDswp;
                   N.DoP = {1, static_cast<unsigned>(1 + K % 5), 1};
                   if (!Runner.completed())
                     Runner.reconfigure(std::move(N));
                 });
  Sim.run();
  EXPECT_TRUE(Runner.completed());
  EXPECT_GT(Runner.fullPauses(), 0u) << "unoptimized mode must drain";
  ASSERT_EQ(Tail.size(), 2000u);
  for (std::int64_t I = 0; I < 2000; ++I)
    EXPECT_EQ(Tail[static_cast<std::size_t>(I)], I);
}

TEST(FaultInjection, ChaoticNonaRunsAcrossSuite) {
  // Every benchmark survives a randomized reconfiguration schedule with
  // bit-identical results (three seeds each).
  auto Suite = ir::benchmarkSuite(200);
  for (std::size_t B = 0; B < Suite.size(); ++B) {
    ir::LoopProgram Ref = Suite[B]();
    std::map<unsigned, std::int64_t> Reds;
    ir::Memory RefMem =
        ir::CompiledLoop::interpret(*Ref.F, Ref.TripCount, &Reds);
    for (std::uint64_t Seed : {1ull, 2ull, 3ull}) {
      ir::LoopProgram P = Suite[B]();
      ir::CompiledLoop CL(*P.F, P.AA, P.TripCount);
      ir::CompiledRunResult R = ir::runCompiledChaotic(CL, 8, Seed, 10);
      EXPECT_TRUE(R.Completed) << P.Name << " seed " << Seed;
      EXPECT_TRUE(CL.memory() == RefMem) << P.Name << " seed " << Seed;
      for (unsigned Phi : P.ReductionPhis)
        EXPECT_EQ(CL.reductionValue(Phi), Reds.at(Phi))
            << P.Name << " seed " << Seed;
    }
  }
}

TEST(FaultInjection, CoreOfflineMidOptimizeRecovers) {
  // Two cores die while the controller is mid-OPTIMIZE (the worst time:
  // it is actively probing DoPs). The watchdog must detect the capacity
  // drop, rescue any stranded worker, shrink the budget, and the run
  // must still emit the complete ordered stream.
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  RuntimeCosts Costs;
  CountedWorkSource Src(3000);
  std::vector<std::int64_t> Tail;
  FlexibleRegion Region = makeSPS(&Tail);
  RegionRunner Runner(M, Costs, Region, Src);
  RegionController Ctrl(Runner);
  Watchdog Dog(Ctrl);
  Ctrl.start(8);
  Dog.start();
  bool Killed = false;
  std::function<void()> Poll = [&] {
    if (!Killed && Ctrl.state() == CtrlState::Optimize) {
      Killed = true;
      M.offlineCore(6);
      M.offlineCore(7);
      return;
    }
    if (!Killed && !Runner.completed())
      Sim.schedule(100 * sim::USec, Poll);
  };
  Sim.schedule(100 * sim::USec, Poll);
  Sim.run();
  EXPECT_TRUE(Killed) << "controller never reached OPTIMIZE";
  EXPECT_TRUE(Runner.completed());
  EXPECT_EQ(M.onlineCores(), 6u);
  EXPECT_GE(Dog.detections(), 1u);
  EXPECT_LE(Ctrl.threadBudget(), 6u);
  ASSERT_EQ(Tail.size(), 3000u);
  for (std::int64_t I = 0; I < 3000; ++I)
    ASSERT_EQ(Tail[static_cast<std::size_t>(I)], I);
}

TEST(FaultInjection, StragglerTriggersMonitorRecalibration) {
  // Every core runs 4x dilated from 20 ms on: throughput collapses well
  // past the MONITOR drift threshold, so the controller must leave
  // MONITOR and re-calibrate for the degraded platform.
  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  sim::FaultPlan Plan;
  for (unsigned Core = 0; Core < 4; ++Core)
    Plan.addStraggler(Core, 20 * sim::MSec, 40 * sim::MSec, 4.0);
  M.installFaultPlan(std::move(Plan));
  RuntimeCosts Costs;
  CountedWorkSource Src(1'000'000'000ull);
  FlexibleRegion Region = makeSPS();
  RegionRunner Runner(M, Costs, Region, Src);
  RegionController Ctrl(Runner);
  Watchdog Dog(Ctrl);
  Ctrl.start(4);
  Dog.start();
  Sim.runUntil(60 * sim::MSec);
  bool SettledBefore = false, RecalibratedAfter = false;
  for (const RegionController::TraceEntry &E : Ctrl.trace()) {
    if (E.St == CtrlState::Monitor && E.At < 20 * sim::MSec)
      SettledBefore = true;
    if (E.St == CtrlState::Calibrate && E.At > 20 * sim::MSec)
      RecalibratedAfter = true;
  }
  EXPECT_TRUE(SettledBefore) << "controller never reached MONITOR";
  EXPECT_TRUE(RecalibratedAfter)
      << "straggler-induced drift never triggered re-calibration";
  EXPECT_GT(Runner.totalRetired(), 0u);
}

TEST(FaultInjection, TransientFaultRetriesPreserveExactlyOnce) {
  // Declared transient faults: those iterations retry (with backoff) and
  // then succeed; each runs its functor exactly once.
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  sim::FaultPlan Plan;
  Plan.addTransient("b", 10, 1);
  Plan.addTransient("b", 50, 2);
  Plan.addTransient("b", 51, 1);
  Plan.addTransient("b", 200, 3);
  M.installFaultPlan(std::move(Plan));
  RuntimeCosts Costs;
  CountedWorkSource Src(400);
  std::vector<std::int64_t> Tail;
  FlexibleRegion Region = makeSPS(&Tail);
  RegionRunner Runner(M, Costs, Region, Src);
  RegionConfig C;
  C.S = Scheme::PsDswp;
  C.DoP = {1, 3, 1};
  Runner.start(C);
  Sim.run();
  EXPECT_TRUE(Runner.completed());
  EXPECT_EQ(Runner.totalFaults(), 7u); // 1 + 2 + 1 + 3 attempts faulted
  EXPECT_EQ(Runner.totalEscalations(), 0u);
  ASSERT_EQ(Tail.size(), 400u);
  for (std::int64_t I = 0; I < 400; ++I)
    ASSERT_EQ(Tail[static_cast<std::size_t>(I)], I);
}

TEST(FaultInjection, TransientRetryExhaustionFallsBackToSeq) {
  // One iteration of the parallel task faults beyond the retry budget.
  // The escalation must reach the watchdog, which degrades the region to
  // its SEQ variant — whose task names dodge the fault — and the run
  // completes with nothing lost or duplicated.
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  sim::FaultPlan Plan;
  Plan.addTransient("b", 100, 1000); // effectively permanent
  M.installFaultPlan(std::move(Plan));
  RuntimeCosts Costs;
  CountedWorkSource Src(800);
  std::vector<std::int64_t> Tail;
  FlexibleRegion Region = makeSPS(&Tail);
  RegionRunner Runner(M, Costs, Region, Src);
  RegionController Ctrl(Runner);
  Watchdog Dog(Ctrl);
  Ctrl.start(8);
  Dog.start();
  Sim.run();
  EXPECT_TRUE(Runner.completed());
  EXPECT_GE(Runner.totalEscalations(), 1u);
  EXPECT_GE(Dog.escalationsHandled(), 1u);
  EXPECT_GE(Runner.recoveries(), 1u);
  EXPECT_GT(Runner.totalFaults(),
            static_cast<std::uint64_t>(Costs.MaxFaultRetries));
  ASSERT_EQ(Tail.size(), 800u);
  for (std::int64_t I = 0; I < 800; ++I)
    ASSERT_EQ(Tail[static_cast<std::size_t>(I)], I);
}

TEST(FaultInjection, ExactlyOnceAcrossAbortiveRecovery) {
  // Direct abortive recoveries mid-stream: in-flight iterations above
  // the commit frontier are killed and replayed; the tail stream must
  // come out complete and in order regardless.
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  RuntimeCosts Costs;
  CountedWorkSource Src(2000);
  std::vector<std::int64_t> Tail;
  FlexibleRegion Region = makeSPS(&Tail);
  RegionRunner Runner(M, Costs, Region, Src);
  RegionConfig C;
  C.S = Scheme::PsDswp;
  C.DoP = {1, 3, 1};
  Runner.start(C);
  for (sim::SimTime At : {2 * sim::MSec, 4 * sim::MSec})
    Sim.schedule(At, [&Runner, C] {
      if (!Runner.completed())
        Runner.recover(C);
    });
  Sim.run();
  EXPECT_TRUE(Runner.completed());
  EXPECT_EQ(Runner.recoveries(), 2u);
  ASSERT_EQ(Tail.size(), 2000u);
  for (std::int64_t I = 0; I < 2000; ++I)
    ASSERT_EQ(Tail[static_cast<std::size_t>(I)], I);
}

TEST(FaultInjection, IdenticalSeedsReplayIdentically) {
  // The acceptance bar for the fault model: with the same seed, a run
  // with stragglers, a core failure, transient faults, a controller, and
  // a watchdog reproduces the exact same event sequence.
  auto Run = [](std::uint64_t Seed) {
    sim::Simulator Sim;
    sim::Machine M(Sim, 8);
    sim::FaultPlan Plan;
    Plan.addStraggler(1, 1 * sim::MSec, 2 * sim::MSec, 3.0);
    Plan.addOffline(7, 3 * sim::MSec);
    Plan.scatterTransients(Seed, "b", 100, 1200, 25, 2);
    M.installFaultPlan(std::move(Plan));
    RuntimeCosts Costs;
    CountedWorkSource Src(1500);
    std::vector<std::int64_t> Tail;
    FlexibleRegion Region = makeSPS(&Tail);
    RegionRunner Runner(M, Costs, Region, Src);
    RegionController Ctrl(Runner);
    Watchdog Dog(Ctrl);
    Ctrl.start(8);
    Dog.start();
    Sim.run();
    EXPECT_TRUE(Runner.completed());
    EXPECT_EQ(Tail.size(), 1500u);
    return std::make_pair(Sim.eventsProcessed(), Tail);
  };
  auto A = Run(7), B = Run(7);
  EXPECT_EQ(A.first, B.first) << "event counts diverged under one seed";
  EXPECT_EQ(A.second, B.second);
}

TEST(FaultInjection, QueueSourceRewindReplaysSameItems) {
  QueueWorkSource Src;
  for (std::int64_t V = 10; V < 14; ++V) {
    Token T;
    T.Value = V;
    ASSERT_TRUE(Src.push(T));
  }
  Token T;
  ASSERT_EQ(pullOne(Src, T), WorkSource::Pull::Got);
  EXPECT_EQ(T.Value, 10);
  ASSERT_EQ(pullOne(Src, T), WorkSource::Pull::Got);
  ASSERT_EQ(pullOne(Src, T), WorkSource::Pull::Got);
  EXPECT_EQ(T.Value, 12);
  // Un-pull the last two: they must come back in the original order.
  ASSERT_TRUE(Src.rewind(2));
  ASSERT_EQ(pullOne(Src, T), WorkSource::Pull::Got);
  EXPECT_EQ(T.Value, 11);
  ASSERT_EQ(pullOne(Src, T), WorkSource::Pull::Got);
  EXPECT_EQ(T.Value, 12);
  // Deeper than the pull history: refuse (recovery then drains instead).
  EXPECT_FALSE(Src.rewind(5));
}

TEST(FaultInjection, CountedRewindPastStartRefusesCleanly) {
  // Rewinding deeper than the pull history must refuse (so recovery can
  // fall back to a drain), not wrap the cursor — with asserts on here and
  // with them compiled out in the release flavor (WorkSourceRelease).
  CountedWorkSource Src(10);
  Token T;
  ASSERT_EQ(pullOne(Src, T), WorkSource::Pull::Got);
  ASSERT_EQ(pullOne(Src, T), WorkSource::Pull::Got);
  ASSERT_EQ(pullOne(Src, T), WorkSource::Pull::Got);
  EXPECT_EQ(T.Value, 2);
  EXPECT_FALSE(Src.rewind(5));
  // The refused rewind left the cursor untouched.
  EXPECT_EQ(Src.remaining(), 7u);
  ASSERT_EQ(pullOne(Src, T), WorkSource::Pull::Got);
  EXPECT_EQ(T.Value, 3);
  // An in-range rewind still replays.
  EXPECT_TRUE(Src.rewind(2));
  ASSERT_EQ(pullOne(Src, T), WorkSource::Pull::Got);
  EXPECT_EQ(T.Value, 2);
}

TEST(FaultInjection, DomainEventOfflinesCoresAtomically) {
  // A failure domain takes all its cores at one virtual time.
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  sim::FaultPlan Plan;
  Plan.addDomain("rack0", {2, 3, 5}, 1 * sim::MSec);
  M.installFaultPlan(std::move(Plan));
  Sim.scheduleAt(1 * sim::MSec - 1, [&M] { EXPECT_EQ(M.onlineCores(), 8u); });
  Sim.scheduleAt(1 * sim::MSec + 1, [&M, &Sim] {
    EXPECT_EQ(M.onlineCores(), 5u);
    EXPECT_EQ(M.lastOfflineAt(), 1 * sim::MSec);
    (void)Sim;
  });
  Sim.run();
  EXPECT_EQ(M.onlineCores(), 5u);
  EXPECT_EQ(M.repairsApplied(), 0u);
}

TEST(FaultInjection, DomainRepairRestoresCapacity) {
  // A domain with a downtime window grows onlineCores() back at repair.
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  sim::FaultPlan Plan;
  Plan.addDomain("rack0", {2, 3, 5}, 1 * sim::MSec, /*Downtime=*/2 * sim::MSec);
  M.installFaultPlan(std::move(Plan));
  Sim.scheduleAt(2 * sim::MSec, [&M] { EXPECT_EQ(M.onlineCores(), 5u); });
  Sim.scheduleAt(3 * sim::MSec + 1, [&M] {
    EXPECT_EQ(M.onlineCores(), 8u);
    EXPECT_EQ(M.repairsApplied(), 3u);
    EXPECT_EQ(M.lastOnlineAt(), 3 * sim::MSec);
  });
  Sim.run();
  EXPECT_EQ(M.onlineCores(), 8u);
}

TEST(FaultInjection, ScatterDomainIsDeterministic) {
  // The seeded domain helper draws the same distinct cores for the same
  // seed — the property the check_resilience.sh seed sweep relies on.
  auto Draw = [](std::uint64_t Seed) {
    sim::FaultPlan Plan;
    Plan.scatterDomain(Seed, "s", /*NumCores=*/8, /*Size=*/3,
                       /*At=*/1 * sim::MSec, /*Downtime=*/1 * sim::MSec);
    return Plan.domains().at(0).Cores;
  };
  std::vector<unsigned> A = Draw(9), B = Draw(9);
  EXPECT_EQ(A, B);
  ASSERT_EQ(A.size(), 3u);
  for (std::size_t I = 0; I < A.size(); ++I) {
    EXPECT_LT(A[I], 8u);
    for (std::size_t J = I + 1; J < A.size(); ++J)
      EXPECT_NE(A[I], A[J]) << "domain cores must be distinct";
  }
}

TEST(FaultInjection, DomainWarningFiresAtLeadTimeBeforeTheFault) {
  // Warning > 0 announces the doomed domain at At - Warning, while its
  // cores are all still online — the window the checkpoint drain uses.
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  sim::FaultPlan Plan;
  Plan.addDomain("socket0", {2, 3}, /*At=*/2 * sim::MSec,
                 /*Downtime=*/1 * sim::MSec, /*Warning=*/500 * sim::USec);
  M.installFaultPlan(std::move(Plan));
  std::vector<sim::SimTime> WarnedAt;
  M.addDomainWarningListener([&](const sim::FailureDomainEvent &D) {
    WarnedAt.push_back(Sim.now());
    EXPECT_EQ(D.Name, "socket0");
    EXPECT_EQ(D.Cores, (std::vector<unsigned>{2, 3}));
    EXPECT_EQ(D.At, 2 * sim::MSec);
    EXPECT_EQ(M.onlineCores(), 8u) << "warning must precede the offline";
  });
  Sim.run();
  ASSERT_EQ(WarnedAt.size(), 1u);
  EXPECT_EQ(WarnedAt[0], 2 * sim::MSec - 500 * sim::USec);
  EXPECT_EQ(M.onlineCores(), 8u) << "domain repaired after its downtime";
  EXPECT_EQ(M.repairsApplied(), 2u);
}

TEST(FaultInjection, DomainWarningLongerThanLeadClampsToTimeZero) {
  // A warning reaching before t=0 is delivered immediately at t=0, not
  // dropped (the listener still gets its — shortened — head start).
  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  sim::FaultPlan Plan;
  Plan.addDomain("early", {1}, /*At=*/1 * sim::MSec,
                 /*Downtime=*/0, /*Warning=*/5 * sim::MSec);
  M.installFaultPlan(std::move(Plan));
  std::vector<sim::SimTime> WarnedAt;
  M.addDomainWarningListener(
      [&](const sim::FailureDomainEvent &) { WarnedAt.push_back(Sim.now()); });
  Sim.run();
  ASSERT_EQ(WarnedAt.size(), 1u);
  EXPECT_EQ(WarnedAt[0], 0u);
  EXPECT_EQ(M.onlineCores(), 3u);
}

TEST(FaultInjection, BudgetGrowsBackAfterRepair) {
  // The full grow-back spine: a domain burst takes three cores, the
  // watchdog shrinks the budget to the survivors, the repair returns
  // them, and the watchdog grows the budget back to the original grant —
  // with the output stream staying complete and ordered throughout.
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  sim::FaultPlan Plan;
  Plan.addDomain("socket0", {5, 6, 7}, 2 * sim::MSec + 130 * sim::USec,
                 /*Downtime=*/10 * sim::MSec);
  M.installFaultPlan(std::move(Plan));
  RuntimeCosts Costs;
  CountedWorkSource Src(1'000'000'000ull);
  std::vector<std::int64_t> Tail;
  FlexibleRegion Region = makeSPS(&Tail);
  RegionRunner Runner(M, Costs, Region, Src);
  RegionController Ctrl(Runner);
  Watchdog Dog(Ctrl);
  Ctrl.start(8);
  Dog.start();
  // Mid-outage: the budget is capped by the 5 surviving cores.
  Sim.scheduleAt(9 * sim::MSec, [&] {
    EXPECT_EQ(M.onlineCores(), 5u);
    EXPECT_EQ(Ctrl.threadBudget(), 5u);
    EXPECT_EQ(Ctrl.grantedBudget(), 8u);
  });
  Sim.runUntil(40 * sim::MSec);
  EXPECT_EQ(M.onlineCores(), 8u);
  EXPECT_EQ(M.repairsApplied(), 3u);
  EXPECT_GE(Dog.detections(), 1u);
  EXPECT_GE(Dog.growthsDetected(), 1u);
  EXPECT_EQ(Ctrl.threadBudget(), 8u) << "budget must grow back to the grant";
  ASSERT_GT(Tail.size(), 0u);
  for (std::size_t I = 0; I < Tail.size(); ++I)
    ASSERT_EQ(Tail[I], static_cast<std::int64_t>(I));
}

TEST(FaultInjection, OverlappingRecoveryWindowsCountPerFault) {
  // Two cores die far enough apart to be two watchdog detections, but
  // close enough that the second fault lands while the recovery from the
  // first is still in flight. Each fault must get its own recovery
  // window (and MTTR sample); the old single-clock behaviour folded the
  // burst into one completion.
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  RuntimeCosts Costs;
  Costs.OptimizedBarrier = false; // every reconfigure takes the full pause
  Costs.ReconfigCompute = 3 * sim::MSec; // long resume: faults overlap it
  CountedWorkSource Src(20000);
  std::vector<std::int64_t> Tail;
  FlexibleRegion Region = makeSPS(&Tail);
  RegionRunner Runner(M, Costs, Region, Src);
  RegionController Ctrl(Runner);
  Watchdog Dog(Ctrl);
  Ctrl.start(8);
  Dog.start();
  Sim.scheduleAt(2 * sim::MSec + 50 * sim::USec, [&M] { M.offlineCore(7); });
  Sim.scheduleAt(3 * sim::MSec + 100 * sim::USec, [&M] { M.offlineCore(6); });
  Sim.run();
  EXPECT_TRUE(Runner.completed());
  EXPECT_EQ(Dog.detections(), 2u);
  EXPECT_GE(Dog.recoveriesCompleted(), Dog.detections())
      << "a burst of faults must complete one recovery per fault";
  EXPECT_EQ(Dog.recoveriesPending(), 0u);
  ASSERT_EQ(Tail.size(), 20000u);
  for (std::int64_t I = 0; I < 20000; ++I)
    ASSERT_EQ(Tail[static_cast<std::size_t>(I)], I);
}

TEST(FaultInjection, LongTransitionDoesNotTripStallRecovery) {
  // A pause-drain-resume longer than the stall threshold must not leave
  // the watchdog's progress clock stale: the first iteration after the
  // resume would otherwise inherit the whole transition window and trip
  // a spurious abortive recovery.
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  RuntimeCosts Costs;
  Costs.OptimizedBarrier = false;
  Costs.OverlapReconfig = false; // the full 6 ms follows the drain
  Costs.ReconfigCompute = 6 * sim::MSec; // well past the 4 ms threshold
  CountedWorkSource Src(60);
  std::vector<std::int64_t> Tail;
  // Iterations take ~1 ms, so the first retire after the resume lands
  // several watchdog ticks later — plenty of time for a stale progress
  // clock (last bumped before the 6 ms pause) to misfire.
  FlexibleRegion Region("slow");
  {
    RegionDesc D;
    D.Name = "slow-pipe";
    D.S = Scheme::PsDswp;
    D.Tasks.emplace_back("a", TaskType::Seq, [](IterationContext &C) {
      C.Cost = 10 * sim::USec;
      C.Out[0].Value = static_cast<std::int64_t>(C.Seq);
    });
    D.Tasks.emplace_back("b", TaskType::Par, [](IterationContext &C) {
      C.Cost = 1 * sim::MSec;
      C.Out[0].Value = C.In[0].Value;
    });
    D.Tasks.emplace_back("c", TaskType::Seq, [&Tail](IterationContext &C) {
      C.Cost = 10 * sim::USec;
      Tail.push_back(C.In[0].Value);
    });
    D.Links.push_back({0, 1});
    D.Links.push_back({1, 2});
    Region.addVariant(std::move(D));
  }
  RegionRunner Runner(M, Costs, Region, Src);
  RegionController Ctrl(Runner); // never started: only the stall counter acts
  Watchdog Dog(Ctrl);
  RegionConfig C;
  C.S = Scheme::PsDswp;
  C.DoP = {1, 3, 1};
  Runner.start(C);
  Dog.start();
  Sim.scheduleAt(2 * sim::MSec, [&Runner] {
    RegionConfig N;
    N.S = Scheme::PsDswp;
    N.DoP = {1, 2, 1};
    Runner.reconfigure(std::move(N));
  });
  Sim.run();
  EXPECT_TRUE(Runner.completed());
  EXPECT_GE(Runner.fullPauses(), 1u);
  EXPECT_EQ(Dog.stallsDetected(), 0u)
      << "transition latency misread as a progress stall";
  ASSERT_EQ(Tail.size(), 60u);
  for (std::int64_t I = 0; I < 60; ++I)
    ASSERT_EQ(Tail[static_cast<std::size_t>(I)], I);
}

TEST(FaultInjection, WedgeRecoversByAbortiveReplay) {
  // A wedge in any stage, at any chunk size, is a progress stall: the
  // watchdog rescues, aborts the region, rewinds to the commit frontier
  // and replays. The wedge is one-shot, so the replay completes with the
  // stream exactly-once and in order.
  for (const char *Task : {"a", "b", "c"})
    for (std::uint64_t K : {1ull, 8ull, 32ull}) {
      SCOPED_TRACE(std::string("wedge in ") + Task + ", K=" +
                   std::to_string(K));
      sim::Simulator Sim;
      sim::Machine M(Sim, 8);
      sim::FaultPlan Plan;
      Plan.addWedge(Task, 3000);
      M.installFaultPlan(std::move(Plan));
      RuntimeCosts Costs;
      CountedWorkSource Src(4000);
      std::vector<std::int64_t> Tail;
      FlexibleRegion Region = makeSPS(&Tail);
      RegionRunner Runner(M, Costs, Region, Src);
      Runner.chunkPolicy().pin(K);
      RegionController Ctrl(Runner);
      Watchdog Dog(Ctrl);
      Ctrl.start(8);
      Dog.start();
      Sim.run();
      EXPECT_TRUE(Runner.completed());
      EXPECT_GE(Dog.stallsDetected(), 1u);
      EXPECT_GE(Runner.recoveries(), 1u);
      EXPECT_GE(Dog.recoveriesCompleted(), 1u);
      ASSERT_EQ(Tail.size(), 4000u);
      for (std::int64_t I = 0; I < 4000; ++I)
        ASSERT_EQ(Tail[static_cast<std::size_t>(I)], I);
    }
}

TEST(FaultInjection, StallReportNamesWedgedWorkerAndBlockedConsumer) {
  // With no watchdog, a wedged lane stops the region for good. The
  // bounded run gives up, and its stall report must say who is stuck:
  // the lane of "b" that owns iteration 300, blocked outside every
  // runtime wait, and the sequential tail "c", blocked receiving that
  // iteration's token on b->c.
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  sim::FaultPlan Plan;
  Plan.addWedge("b", 300);
  M.installFaultPlan(std::move(Plan));
  RuntimeCosts Costs;
  CountedWorkSource Src(1000);
  FlexibleRegion Region = makeSPS();
  RegionRunner Runner(M, Costs, Region, Src);
  RegionConfig C;
  C.S = Scheme::PsDswp;
  C.DoP = {1, 3, 1};
  Runner.start(C);
  EXPECT_FALSE(ir::runBounded(Sim, Runner));
  EXPECT_EQ(Runner.totalRetired(), 300u);
  std::string R = ir::stallReportOf(Runner);
  EXPECT_NE(R.find("worker b#0: blocked, wait none, cursor 300"),
            std::string::npos)
      << R;
  EXPECT_NE(R.find("worker c#0: blocked, wait channel (recv b->c), cursor "
                   "300"),
            std::string::npos)
      << R;
  EXPECT_NE(R.find("commit_frontier 300"), std::string::npos) << R;
}

TEST(FaultInjection, TwoWedgesRecoverByAbortiveReplay) {
  // Two tasks wedge a few iterations apart: the whole-region abortive
  // recovery clears both. The wedges are one-shot (consumed when they
  // fire), so the replay completes.
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  sim::FaultPlan Plan;
  Plan.addWedge("b", 3000);
  Plan.addWedge("c", 2995);
  M.installFaultPlan(std::move(Plan));
  RuntimeCosts Costs;
  CountedWorkSource Src(4000);
  std::vector<std::int64_t> Tail;
  FlexibleRegion Region = makeSPS(&Tail);
  RegionRunner Runner(M, Costs, Region, Src);
  RegionController Ctrl(Runner);
  Watchdog Dog(Ctrl);
  Ctrl.start(8);
  Dog.start();
  Sim.run();
  EXPECT_TRUE(Runner.completed());
  EXPECT_GE(Dog.stallsDetected(), 1u);
  EXPECT_GE(Runner.recoveries(), 1u);
  ASSERT_EQ(Tail.size(), 4000u);
  for (std::int64_t I = 0; I < 4000; ++I)
    ASSERT_EQ(Tail[static_cast<std::size_t>(I)], I);
}

TEST(FaultInjection, QueueFedWedgeRecoversOnlyByRewind) {
  // A wedged iteration never finishes, so a drain never completes: a
  // queue-fed region gets past a wedge only by the abortive recovery,
  // which returns the uncommitted items through the queue's pull history.
  // Over a queue that refuses to rewind, the region stays stalled.
  class NoRewindQueue : public QueueWorkSource {
  public:
    bool rewind(std::uint64_t) override { return false; }
  };
  for (bool Rewinds : {true, false}) {
    SCOPED_TRACE(Rewinds ? "rewinding queue" : "queue refusing rewind");
    sim::Simulator Sim;
    sim::Machine M(Sim, 8);
    sim::FaultPlan Plan;
    Plan.addWedge("b", 3000);
    M.installFaultPlan(std::move(Plan));
    RuntimeCosts Costs;
    QueueWorkSource Plain;
    NoRewindQueue Refusing;
    QueueWorkSource &Src = Rewinds ? Plain : Refusing;
    for (std::int64_t V = 0; V < 4000; ++V) {
      Token T;
      T.Value = V;
      ASSERT_TRUE(Src.push(T));
    }
    Src.close();
    std::vector<std::int64_t> Tail;
    FlexibleRegion Region = makeSPS(&Tail);
    RegionRunner Runner(M, Costs, Region, Src);
    RegionController Ctrl(Runner);
    Watchdog Dog(Ctrl);
    Ctrl.start(8);
    Dog.start();
    EXPECT_EQ(ir::runBounded(Sim, Runner), Rewinds);
    EXPECT_GE(Dog.stallsDetected(), 1u);
    if (!Rewinds) {
      EXPECT_EQ(Runner.recoveries(), 0u);
      EXPECT_LT(Tail.size(), 4000u);
      continue;
    }
    EXPECT_GE(Runner.recoveries(), 1u);
    ASSERT_EQ(Tail.size(), 4000u);
    for (std::int64_t I = 0; I < 4000; ++I)
      ASSERT_EQ(Tail[static_cast<std::size_t>(I)], I);
  }
}

TEST(FaultInjection, WedgeRecoveryReplaysIdentically) {
  // The acceptance bar extends to wedge recovery: with the same seed and
  // the same wedge, two runs — straggler, wedge, stall, abortive replay
  // and all — reproduce the exact same event sequence and output.
  auto Run = [] {
    sim::Simulator Sim;
    sim::Machine M(Sim, 8);
    sim::FaultPlan Plan;
    Plan.addStraggler(1, 1 * sim::MSec, 2 * sim::MSec, 3.0);
    Plan.addWedge("b", 3000);
    M.installFaultPlan(std::move(Plan));
    RuntimeCosts Costs;
    CountedWorkSource Src(4000);
    std::vector<std::int64_t> Tail;
    FlexibleRegion Region = makeSPS(&Tail);
    RegionRunner Runner(M, Costs, Region, Src);
    RegionController Ctrl(Runner);
    Watchdog Dog(Ctrl);
    Ctrl.start(8);
    Dog.start();
    Sim.run();
    EXPECT_TRUE(Runner.completed());
    EXPECT_GE(Runner.recoveries(), 1u);
    EXPECT_EQ(Tail.size(), 4000u);
    return std::make_pair(Sim.eventsProcessed(), Tail);
  };
  auto A = Run(), B = Run();
  EXPECT_EQ(A.first, B.first) << "event counts diverged across replays";
  EXPECT_EQ(A.second, B.second);
}

TEST(FaultInjection, RefusedRecoveryReportsStallOnce) {
  // A region whose tail is parallel cannot abort, so recovering from a
  // wedge there falls back to draining into the running configuration,
  // which the runner refuses. The wedged iteration never retires (the
  // region hangs), but the watchdog must report that stall once and leave
  // no recovery window open, not fire again on every stall threshold.
  for (std::uint64_t WedgeAt : {3000ull, 12000ull}) {
    SCOPED_TRACE("wedge at seq " + std::to_string(WedgeAt));
    sim::Simulator Sim;
    sim::Machine M(Sim, 8);
    sim::FaultPlan Plan;
    Plan.addWedge("w", WedgeAt);
    M.installFaultPlan(std::move(Plan));
    RuntimeCosts Costs;
    CountedWorkSource Src(20000);
    FlexibleRegion Region("doany");
    for (Scheme S : {Scheme::DoAny, Scheme::Seq}) {
      RegionDesc D;
      D.Name = S == Scheme::Seq ? "doany-seq" : "doany-par";
      D.S = S;
      D.Tasks.emplace_back(S == Scheme::Seq ? "s" : "w",
                           S == Scheme::Seq ? TaskType::Seq : TaskType::Par,
                           [](IterationContext &C) { C.Cost = 9000; });
      Region.addVariant(std::move(D));
    }
    RegionRunner Runner(M, Costs, Region, Src);
    RegionController Ctrl(Runner);
    Watchdog Dog(Ctrl);
    Ctrl.start(8);
    Dog.start();
    Sim.runUntil(500 * sim::MSec);
    EXPECT_FALSE(Runner.completed());
    EXPECT_EQ(Runner.totalRetired(), 19999u);
    EXPECT_EQ(Dog.stallsDetected(), 1u);
    EXPECT_EQ(Dog.recoveriesPending(), 0u);
    EXPECT_EQ(Runner.recoveries(), 0u);
  }
}

TEST(FaultInjection, WorkScaleChangeMidChaos) {
  // Workload variation during reconfiguration chaos: costs change but
  // semantics cannot.
  ir::LoopProgram Ref = ir::makeSaxpy(300);
  ir::Memory RefMem = ir::CompiledLoop::interpret(*Ref.F, Ref.TripCount);
  ir::LoopProgram P = ir::makeSaxpy(300);
  ir::CompiledLoop CL(*P.F, P.AA, P.TripCount);
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  RuntimeCosts Costs;
  CL.resetState();
  auto Src = CL.makeSource();
  RegionRunner Runner(M, Costs, CL.region(), *Src);
  RegionConfig C;
  C.S = Scheme::DoAny;
  C.DoP = {4};
  Runner.start(C);
  Sim.schedule(200 * sim::USec, [&CL] { CL.setWorkScale(5.0); });
  Sim.schedule(400 * sim::USec, [&Runner] {
    RegionConfig N;
    N.S = Scheme::DoAny;
    N.DoP = {7};
    Runner.reconfigure(std::move(N));
  });
  Sim.run();
  EXPECT_TRUE(Runner.completed());
  EXPECT_TRUE(CL.memory() == RefMem);
}

TEST(FaultInjection, DilationWindowOpensMidSlice) {
  // A straggler window that opens in the middle of a scheduled slice must
  // take effect at the boundary, not at the next slice. The machine
  // samples dilation once per slice, so slices are clamped to the next
  // window edge; without the clamp a 4 ms burst scheduled at time zero
  // would run entirely at nominal speed and finish at 4 ms even though
  // the core slows 4x from 2 ms onward.
  sim::Simulator Sim;
  sim::Machine M(Sim, 1);
  sim::FaultPlan Plan;
  Plan.addStraggler(0, 2 * sim::MSec, 4 * sim::MSec, 4.0);
  M.installFaultPlan(std::move(Plan));
  M.spawn("burst", std::make_unique<OneBurst>(4 * sim::MSec));
  Sim.run();
  // [0,2ms): 2 ms of work at 1x. [2ms,6ms): 1 ms of work at 4x (fills the
  // window). [6ms,7ms): the last 1 ms at nominal speed again.
  EXPECT_EQ(Sim.now(), 7 * sim::MSec);
}

TEST(FaultInjection, DilationWindowClosesMidSlice) {
  // The symmetric bug: a window that closes mid-slice must stop dilating
  // at its edge. Before the boundary clamp, a 2 ms burst started inside
  // a 4x window [0,3ms) was charged 8 ms of wall time even though the
  // core recovered at 3 ms.
  sim::Simulator Sim;
  sim::Machine M(Sim, 1);
  sim::FaultPlan Plan;
  Plan.addStraggler(0, 0, 3 * sim::MSec, 4.0);
  M.installFaultPlan(std::move(Plan));
  M.spawn("burst", std::make_unique<OneBurst>(2 * sim::MSec));
  Sim.run();
  // [0,3ms): 750 us of work at 4x fills the window exactly. The
  // remaining 1.25 ms runs at nominal speed: finish at 4.25 ms.
  EXPECT_EQ(Sim.now(), 4250 * sim::USec);
}

TEST(FaultInjection, PlacementPenaltyDeterministic) {
  // Slow-core avoidance is a pure function of virtual time: with the same
  // seed, two runs with avoidance on under scattered straggler windows
  // retire byte-identical output through an identical event sequence.
  auto Run = [](std::uint64_t Seed) {
    sim::Simulator Sim;
    sim::MachineConfig MC;
    MC.SlowCoreAvoidance = true;
    sim::Machine M(Sim, 8, MC);
    sim::FaultPlan Plan;
    Plan.scatterStragglers(Seed, 8, 12, 1 * sim::MSec, 40 * sim::MSec,
                           6 * sim::MSec, 8.0, 32.0);
    M.installFaultPlan(std::move(Plan));
    RuntimeCosts Costs;
    CountedWorkSource Src(1500);
    std::vector<std::int64_t> Tail;
    FlexibleRegion Region = makeSPS(&Tail);
    RegionRunner Runner(M, Costs, Region, Src);
    RegionController Ctrl(Runner); // never started: fixed config
    Watchdog Dog(Ctrl);
    RegionConfig C;
    C.S = Scheme::PsDswp;
    C.DoP = {1, 3, 1};
    Runner.start(C);
    Dog.start();
    Sim.run();
    EXPECT_TRUE(Runner.completed());
    EXPECT_EQ(Tail.size(), 1500u);
    return std::make_pair(Sim.eventsProcessed(), Tail);
  };
  auto A = Run(11), B = Run(11);
  EXPECT_EQ(A.first, B.first) << "event counts diverged under one seed";
  EXPECT_EQ(A.second, B.second);
}

TEST(FaultInjection, TarPitCoreRetiresInOrder) {
  // A 64x tar-pit core under slow-core avoidance and a watchdog: the
  // region still completes, and each sequence number reaches the tail
  // exactly once, in order.
  sim::Simulator Sim;
  sim::MachineConfig MC;
  MC.SlowCoreAvoidance = true;
  sim::Machine M(Sim, 4, MC);
  sim::FaultPlan Plan;
  // One tar-pit core, dilated hard for most of the run. Workers land on
  // cores in spawn order (a->0, b->1, c->2), so core 1 hosts the
  // 2 ms/iter Par stage when the window opens.
  Plan.addStraggler(1, 1 * sim::MSec, 200 * sim::MSec, 64.0);
  M.installFaultPlan(std::move(Plan));
  RuntimeCosts Costs;
  CountedWorkSource Src(80);
  std::vector<std::int64_t> Tail;
  // The Par stage dominates (2 ms/iter); the three workers leave a
  // healthy core free for placement to route around the tar pit.
  FlexibleRegion Region("tarpit");
  {
    RegionDesc D;
    D.Name = "tarpit-pipe";
    D.S = Scheme::PsDswp;
    D.Tasks.emplace_back("a", TaskType::Seq, [](IterationContext &C) {
      C.Cost = 10 * sim::USec;
      C.Out[0].Value = static_cast<std::int64_t>(C.Seq);
    });
    D.Tasks.emplace_back("b", TaskType::Par, [](IterationContext &C) {
      C.Cost = 2 * sim::MSec;
      C.Out[0].Value = C.In[0].Value;
    });
    D.Tasks.emplace_back("c", TaskType::Seq, [&Tail](IterationContext &C) {
      C.Cost = 10 * sim::USec;
      Tail.push_back(C.In[0].Value);
    });
    D.Links.push_back({0, 1});
    D.Links.push_back({1, 2});
    Region.addVariant(std::move(D));
  }
  RegionRunner Runner(M, Costs, Region, Src);
  RegionController Ctrl(Runner); // never started: watchdog acts alone
  WatchdogParams WP;
  WP.StallThreshold = 500 * sim::MSec; // keep abortive recovery out of play
  Watchdog Dog(Ctrl, WP);
  RegionConfig C;
  C.S = Scheme::PsDswp;
  C.DoP = {1, 1, 1};
  Runner.start(C);
  Dog.start();
  Sim.run();
  EXPECT_TRUE(Runner.completed());
  ASSERT_EQ(Tail.size(), 80u) << "an iteration was lost or committed twice";
  for (std::int64_t I = 0; I < 80; ++I)
    ASSERT_EQ(Tail[static_cast<std::size_t>(I)], I);
}
