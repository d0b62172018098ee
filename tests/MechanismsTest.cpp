//===- MechanismsTest.cpp - Mechanism behaviour tests -----------------------===//
//
// Tests the Section 6.3 mechanisms: WQT-H's hysteresis toggling,
// WQ-Linear's continuous DoP, SEDA's local growth, TB/TBF's proportional
// assignment and fusion, FDP's limiter feedback, and TPC's power capping.
//
//===----------------------------------------------------------------------===//

#include "mechanisms/LaneMechanisms.h"
#include "mechanisms/PipeMechanisms.h"
#include "workloads/Experiment.h"

#include <gtest/gtest.h>

using namespace parcae;
using namespace parcae::rt;

TEST(WqtH, TogglesOnQueueOccupancyWithHysteresis) {
  LaneConfig SeqMode{24, false, 1};
  LaneConfig ParMode{3, true, 8};
  WqtH M(/*Threshold=*/6, /*Non=*/3, /*Noff=*/3, SeqMode, ParMode);
  // Starts in SEQ mode; consistently light queue flips to PAR after Noff.
  std::optional<LaneConfig> C;
  for (int I = 0; I < 4 && !C; ++I)
    C = M.onDispatch(1);
  ASSERT_TRUE(C);
  EXPECT_TRUE(C->InnerParallel);
  EXPECT_EQ(C->L, 8u);
  // A single heavy observation must NOT flip back (hysteresis)...
  EXPECT_FALSE(M.onDispatch(10).has_value());
  // ...but Non consecutive heavy ones must.
  C.reset();
  for (int I = 0; I < 4 && !C; ++I)
    C = M.onDispatch(10);
  ASSERT_TRUE(C);
  EXPECT_FALSE(C->InnerParallel);
  EXPECT_EQ(C->K, 24u);
}

TEST(WqtH, MixedObservationsResetCounter) {
  WqtH M(6, 3, 3, {24, false, 1}, {3, true, 8});
  EXPECT_FALSE(M.onDispatch(1).has_value());
  EXPECT_FALSE(M.onDispatch(1).has_value());
  EXPECT_FALSE(M.onDispatch(10).has_value()); // resets the streak
  EXPECT_FALSE(M.onDispatch(1).has_value());
  EXPECT_FALSE(M.onDispatch(1).has_value());
  EXPECT_FALSE(M.onDispatch(1).has_value());
  EXPECT_TRUE(M.onDispatch(1).has_value()); // 4th consecutive light
}

TEST(WqLinear, DoPFallsLinearlyWithQueue) {
  WqLinear M(/*N=*/24, /*DPmax=*/8, /*DPmin=*/1, /*Qmax=*/14);
  LaneConfig AtZero = M.initialConfig();
  EXPECT_TRUE(AtZero.InnerParallel);
  EXPECT_EQ(AtZero.L, 8u);
  EXPECT_EQ(AtZero.K, 3u);
  auto AtHalf = M.onDispatch(7.0);
  ASSERT_TRUE(AtHalf);
  EXPECT_LT(AtHalf->L, 8u);
  EXPECT_GE(AtHalf->L, 4u);
  auto AtMax = M.onDispatch(14.0);
  ASSERT_TRUE(AtMax);
  EXPECT_FALSE(AtMax->InnerParallel); // DoP bottoms out at 1 => SEQ inner
  EXPECT_EQ(AtMax->K, 24u);
}

TEST(WqLinear, RespectsDPmin) {
  // bzip-style: inner parallelism only profitable from DoP 4 on; the
  // formula clamps at dPmin so configurations like <8,3> never appear.
  WqLinear M(24, 6, 4, 10);
  auto C = M.onDispatch(9.0);
  ASSERT_TRUE(C);
  EXPECT_GE(C->L, 4u);
}

TEST(WqLinear, NoChangeNoChurn) {
  WqLinear M(24, 8, 1, 14);
  (void)M.onDispatch(0.0);
  EXPECT_FALSE(M.onDispatch(0.1).has_value()); // same rounded config
}

namespace {

PipeMechView makeView(const RegionDesc &D, const RegionConfig &C,
                      std::vector<double> Exec, std::vector<double> Load,
                      double Thr, unsigned MaxThreads = 24) {
  PipeMechView V;
  V.Desc = &D;
  V.Config = &C;
  V.ExecTime = std::move(Exec);
  V.Load = std::move(Load);
  V.Throughput = Thr;
  V.MaxThreads = MaxThreads;
  return V;
}

} // namespace

TEST(Seda, GrowsStagesOverThreshold) {
  PipelineApp App = makeFerret();
  const RegionDesc &D = App.Region.variant(Scheme::PsDswp);
  RegionConfig C = evenConfig(App, Scheme::PsDswp, 2);
  SedaMechanism M(/*QueueThreshold=*/8);
  // Stage 4 (rank) is backed up.
  auto Out = M.decide(makeView(D, C, std::vector<double>(6, 1e6),
                               {0, 1, 2, 3, 20, 0}, 10));
  ASSERT_TRUE(Out);
  EXPECT_EQ(Out->DoP[4], 3u);
  EXPECT_EQ(Out->DoP[1], 2u); // others untouched
}

TEST(Tbf, ProportionalAssignment) {
  PipelineApp App = makeFerret();
  const RegionDesc &D = App.Region.variant(Scheme::PsDswp);
  RegionConfig C = evenConfig(App, Scheme::PsDswp, 2);
  TbfMechanism M(/*EnableFusion=*/false);
  // Exec times 60/80/70/150 ms for the four parallel stages.
  auto Out = M.decide(makeView(
      D, C, {8e6, 60e6, 80e6, 70e6, 150e6, 5e6}, std::vector<double>(6, 0),
      10));
  ASSERT_TRUE(Out);
  // rank (150 ms) gets the largest team.
  EXPECT_GT(Out->DoP[4], Out->DoP[1]);
  EXPECT_GT(Out->DoP[4], Out->DoP[3]);
  EXPECT_LE(Out->totalThreads(), 24u);
  EXPECT_EQ(Out->DoP[0], 1u);
  EXPECT_EQ(Out->DoP[5], 1u);
}

TEST(Tbf, FusionOnImbalance) {
  PipelineApp App = makeFerret();
  const RegionDesc &D = App.Region.variant(Scheme::PsDswp);
  RegionConfig C = evenConfig(App, Scheme::PsDswp, 2);
  TbfMechanism M(/*EnableFusion=*/true);
  // 60 vs 150 ms: imbalance 0.6 > 0.5 => fuse.
  auto Out = M.decide(makeView(
      D, C, {8e6, 60e6, 80e6, 70e6, 150e6, 5e6}, std::vector<double>(6, 0),
      10));
  ASSERT_TRUE(Out);
  EXPECT_EQ(Out->S, Scheme::Fused);
  EXPECT_EQ(Out->DoP.size(), 3u);
  EXPECT_EQ(Out->DoP[1], 22u);
}

TEST(Fdp, GrowsLimiterWhileImproving) {
  PipelineApp App = makeFerret();
  const RegionDesc &D = App.Region.variant(Scheme::PsDswp);
  RegionConfig C = evenConfig(App, Scheme::PsDswp, 1);
  FdpMechanism M;
  // First decision: grow the limiter (rank, worst capacity).
  auto Out1 =
      M.decide(makeView(D, C, {8e6, 60e6, 80e6, 70e6, 150e6, 5e6},
                        std::vector<double>(6, 0), 10));
  ASSERT_TRUE(Out1);
  EXPECT_EQ(Out1->DoP[4], 2u);
  // Throughput improved: keep growing.
  RegionConfig C2 = *Out1;
  auto Out2 =
      M.decide(makeView(D, C2, {8e6, 60e6, 80e6, 70e6, 150e6, 5e6},
                        std::vector<double>(6, 0), 12));
  ASSERT_TRUE(Out2);
  // Throughput flat: revert to the last improving config and move on to
  // probe the next-slowest stage.
  RegionConfig C3 = *Out2;
  auto Out3 =
      M.decide(makeView(D, C3, {8e6, 60e6, 80e6, 70e6, 150e6, 5e6},
                        std::vector<double>(6, 0), 12));
  ASSERT_TRUE(Out3);
  EXPECT_EQ(*Out3, C2); // reverted to the last improving config
  // The next decision probes a different stage: the failed stage (Out2
  // grew one stage without improvement) is exhausted and skipped.
  unsigned FailedStage = 0;
  for (unsigned T = 0; T < 6; ++T)
    if (Out2->DoP[T] != C2.DoP[T])
      FailedStage = T;
  auto Out4 = M.decide(makeView(D, C2, {8e6, 60e6, 80e6, 70e6, 150e6, 5e6},
                                std::vector<double>(6, 0), 12));
  ASSERT_TRUE(Out4);
  EXPECT_EQ(Out4->DoP[FailedStage], C2.DoP[FailedStage])
      << "exhausted stage re-probed";
  EXPECT_GT(Out4->totalThreads(), C2.totalThreads());
}

TEST(Tpc, BacksOffWhenOverBudget) {
  PipelineApp App = makeFerret();
  const RegionDesc &D = App.Region.variant(Scheme::PsDswp);
  RegionConfig C = evenConfig(App, Scheme::PsDswp, 4);
  TpcMechanism M;
  PipeMechView V = makeView(D, C, {8e6, 60e6, 80e6, 70e6, 150e6, 5e6},
                            std::vector<double>(6, 0), 10);
  V.PowerWatts = 790;
  V.PowerTargetWatts = 720;
  auto Out = M.decide(V);
  ASSERT_TRUE(Out);
  EXPECT_LT(Out->totalThreads(), C.totalThreads());
}

TEST(Tpc, GrowsWithinBudget) {
  PipelineApp App = makeFerret();
  const RegionDesc &D = App.Region.variant(Scheme::PsDswp);
  RegionConfig C = evenConfig(App, Scheme::PsDswp, 1);
  TpcMechanism M;
  PipeMechView V = makeView(D, C, {8e6, 60e6, 80e6, 70e6, 150e6, 5e6},
                            std::vector<double>(6, 0), 10);
  V.PowerWatts = 650;
  V.PowerTargetWatts = 720;
  auto Out = M.decide(V);
  ASSERT_TRUE(Out);
  EXPECT_GT(Out->totalThreads(), C.totalThreads());
}

TEST(EndToEnd, TbfBeatsStaticEvenOnFerret) {
  // The Table 8.5 property: TBF outperforms the static even distribution.
  PipelineRunSpec Even;
  Even.Requests = 1500;
  Even.Initial = evenConfig(makeFerret(), Scheme::PsDswp, 5); // 22 threads
  PipelineRunResult Base = runPipelineExperiment(makeFerret, Even);

  TbfMechanism Tbf(/*EnableFusion=*/true);
  PipelineRunSpec Spec;
  Spec.Requests = 1500;
  Spec.Initial = evenConfig(makeFerret(), Scheme::PsDswp, 5);
  Spec.Mech = &Tbf;
  PipelineRunResult R = runPipelineExperiment(makeFerret, Spec);

  EXPECT_GT(R.Server.ThroughputPerSec, Base.Server.ThroughputPerSec * 1.2);
}

TEST(EndToEnd, FdpImprovesDedup) {
  PipelineRunSpec Even;
  Even.Requests = 1200;
  Even.Initial = evenConfig(makeDedup(), Scheme::PsDswp, 7); // 23 threads
  PipelineRunResult Base = runPipelineExperiment(makeDedup, Even);

  FdpMechanism Fdp;
  PipelineRunSpec Spec;
  Spec.Requests = 1200;
  Spec.Initial = evenConfig(makeDedup(), Scheme::PsDswp, 7);
  Spec.Mech = &Fdp;
  PipelineRunResult R = runPipelineExperiment(makeDedup, Spec);

  EXPECT_GT(R.Server.ThroughputPerSec, Base.Server.ThroughputPerSec);
}

TEST(EndToEnd, TpcKeepsPowerNearTarget) {
  TpcMechanism Tpc;
  PipelineRunSpec Spec;
  Spec.Requests = 3000;
  Spec.Initial = evenConfig(makeFerret(), Scheme::PsDswp, 1);
  Spec.Mech = &Tpc;
  Spec.PowerTargetWatts = 0.9 * sim::PowerModel{}.peakWatts(24);
  PipelineRunResult R = runPipelineExperiment(makeFerret, Spec);

  // Steady-state power must respect the budget (within one thread's worth
  // of dynamic power, given the PDU's 13-samples-per-minute lag).
  double Budget = Spec.PowerTargetWatts;
  int Violations = 0, Samples = 0;
  for (const auto &S : R.Timeline) {
    if (S.At < 300 * sim::Sec || S.PowerWatts <= 0)
      continue; // let the controller converge
    ++Samples;
    if (S.PowerWatts > Budget + sim::PowerModel{}.PerCoreActiveWatts)
      ++Violations;
  }
  if (Samples > 0) {
    EXPECT_LT(static_cast<double>(Violations) / Samples, 0.2);
  }
}
