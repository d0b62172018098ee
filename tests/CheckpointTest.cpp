//===- CheckpointTest.cpp - Region checkpoint, restore, and migration ------===//
//
// Tests of the checkpoint subsystem: the versioned snapshot format
// (round trips, rejection of malformed input), the runner's cooperative
// quiesce and resume, the controller's cross-machine restore (no
// re-measurement, exactly-once output) and its refusal for a queue-fed
// region, the proactive drain off a doomed core set, and the bounded
// rewind history behind it all.
//
//===----------------------------------------------------------------------===//

#include "PullOne.h"
#include "checkpoint/Snapshot.h"
#include "core/Region.h"
#include "core/WorkSource.h"
#include "morta/Controller.h"
#include "morta/RegionRunner.h"
#include "sim/Faults.h"

#include <gtest/gtest.h>

#include <vector>

using namespace parcae;
using namespace parcae::rt;

namespace {

FlexibleRegion makeSPS(std::vector<std::int64_t> *Tail = nullptr) {
  FlexibleRegion R("ckpt");
  RegionDesc D;
  D.Name = "ckpt-pipe";
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
    S.Name = "ckpt-seq";
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

/// A populated snapshot exercising every serialized field.
ckpt::RegionSnapshot makeSnapshot() {
  ckpt::RegionSnapshot S;
  S.Region = "ckpt";
  S.Cursor = 1234;
  S.Retired = 1234;
  S.ChunkK = 8;
  S.Config = {Scheme::PsDswp, {1, 5, 1}};
  S.Ctrl.SeqThroughput = 92592.592592592594; // a non-round double
  S.Ctrl.Best = {Scheme::PsDswp, {1, 6, 1}};
  S.Ctrl.BestThr = 612244.89795918367;
  S.Ctrl.Cache.push_back({8, {Scheme::PsDswp, {1, 6, 1}}, 612244.9, false});
  S.Ctrl.Cache.push_back({4, {Scheme::PsDswp, {1, 2, 1}}, 201000.0, true});
  S.Source.Total = 20000;
  S.Source.Cursor = 1234;
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Snapshot format
//===----------------------------------------------------------------------===//

TEST(Checkpoint, SnapshotRoundTripIsByteIdentical) {
  ckpt::RegionSnapshot S = makeSnapshot();
  std::string Text = S.serialize();
  ckpt::RegionSnapshot Out;
  ASSERT_TRUE(ckpt::RegionSnapshot::deserialize(Text, Out));
  // serialize(deserialize(x)) == x: the byte-stability the determinism
  // sweep relies on, including %.17g doubles.
  EXPECT_EQ(Out.serialize(), Text);
  EXPECT_EQ(Out.Region, "ckpt");
  EXPECT_EQ(Out.Cursor, 1234u);
  EXPECT_EQ(Out.ChunkK, 8u);
  EXPECT_EQ(Out.Config.S, Scheme::PsDswp);
  EXPECT_EQ(Out.Config.DoP, (std::vector<unsigned>{1, 5, 1}));
  EXPECT_DOUBLE_EQ(Out.Ctrl.SeqThroughput, S.Ctrl.SeqThroughput);
  ASSERT_EQ(Out.Ctrl.Cache.size(), 2u);
  EXPECT_EQ(Out.Ctrl.Cache[1].Budget, 4u);
  EXPECT_TRUE(Out.Ctrl.Cache[1].Limited);
}

TEST(Checkpoint, DeserializeRejectsMalformedInput) {
  std::string Good = makeSnapshot().serialize();
  ckpt::RegionSnapshot Out;

  // Unknown version.
  std::string Bad = Good;
  Bad.replace(Bad.find(" v1"), 3, " v9");
  EXPECT_FALSE(ckpt::RegionSnapshot::deserialize(Bad, Out));

  // Truncation: every prefix must be refused, not half-parsed.
  EXPECT_FALSE(ckpt::RegionSnapshot::deserialize("", Out));
  EXPECT_FALSE(
      ckpt::RegionSnapshot::deserialize(Good.substr(0, Good.size() / 2), Out));
  EXPECT_FALSE(ckpt::RegionSnapshot::deserialize(
      Good.substr(0, Good.rfind("end")), Out));

  // A zero DoP entry is never a legal width schedule.
  Bad = Good;
  Bad.replace(Bad.find("config 2 3 1 5 1"), 16, "config 2 3 1 0 1");
  EXPECT_FALSE(ckpt::RegionSnapshot::deserialize(Bad, Out));

  // A chunk size of zero cannot be re-seeded.
  Bad = Good;
  Bad.replace(Bad.find("chunk_k 8"), 9, "chunk_k 0");
  EXPECT_FALSE(ckpt::RegionSnapshot::deserialize(Bad, Out));

  // Only a counted source is carried: a queue's state is not a format.
  Bad = Good;
  Bad.replace(Bad.find("source counted 20000 1234"), 25,
              "source queue 1 10 7 0");
  EXPECT_FALSE(ckpt::RegionSnapshot::deserialize(Bad, Out));
}

//===----------------------------------------------------------------------===//
// Runner quiesce / resume
//===----------------------------------------------------------------------===//

TEST(Checkpoint, RunnerCheckpointSuspendsAndResumesExactlyOnce) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  RuntimeCosts Costs;
  CountedWorkSource Src(3000);
  std::vector<std::int64_t> Tail;
  FlexibleRegion Region = makeSPS(&Tail);
  RegionRunner Runner(M, Costs, Region, Src);
  RegionConfig C;
  C.S = Scheme::PsDswp;
  C.DoP = {1, 3, 1};
  Runner.start(C);

  RunnerCheckpoint CP;
  bool Fired = false;
  Sim.schedule(2 * sim::MSec, [&] {
    ASSERT_TRUE(Runner.requestCheckpoint([&](const RunnerCheckpoint *P) {
      ASSERT_NE(P, nullptr);
      CP = *P;
      Fired = true;
    }));
    // Only one checkpoint may be pending at a time.
    EXPECT_FALSE(Runner.requestCheckpoint([](const RunnerCheckpoint *) {}));
  });
  Sim.runUntil(10 * sim::MSec);

  ASSERT_TRUE(Fired);
  EXPECT_TRUE(Runner.suspended());
  EXPECT_FALSE(Runner.completed());
  EXPECT_EQ(Runner.checkpoints(), 1u);
  // Quiesced: the cursor is the commit frontier — everything below it
  // retired, in order, and nothing above it ran.
  EXPECT_EQ(CP.Cursor, CP.Retired);
  EXPECT_EQ(CP.Cursor, Runner.totalRetired());
  ASSERT_EQ(Tail.size(), CP.Cursor);
  EXPECT_GT(CP.Cursor, 0u);
  EXPECT_LT(CP.Cursor, 3000u);

  // While suspended the region holds no execution and makes no progress.
  std::uint64_t AtSuspend = Runner.totalRetired();
  Sim.runUntil(15 * sim::MSec);
  EXPECT_EQ(Runner.totalRetired(), AtSuspend);

  Runner.resume(CP.Config, CP.Cursor);
  Sim.runUntil(sim::Sec);
  EXPECT_TRUE(Runner.completed());
  ASSERT_EQ(Tail.size(), 3000u);
  for (std::int64_t I = 0; I < 3000; ++I)
    ASSERT_EQ(Tail[static_cast<std::size_t>(I)], I);
}

TEST(Checkpoint, RequestAfterCompletionIsRefused) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  RuntimeCosts Costs;
  CountedWorkSource Src(50);
  FlexibleRegion Region = makeSPS();
  RegionRunner Runner(M, Costs, Region, Src);
  RegionConfig C;
  C.S = Scheme::PsDswp;
  C.DoP = {1, 2, 1};
  Runner.start(C);
  Sim.run();
  ASSERT_TRUE(Runner.completed());
  EXPECT_FALSE(Runner.requestCheckpoint([](const RunnerCheckpoint *) {
    FAIL() << "callback must not fire on a refused request";
  }));
}

TEST(Checkpoint, CompletionDuringQuiesceReportsNothingToMigrate) {
  // The pause bound can land past the last iteration: the region then
  // completes instead of suspending, and Done reports nullptr.
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  RuntimeCosts Costs;
  CountedWorkSource Src(40);
  std::vector<std::int64_t> Tail;
  FlexibleRegion Region = makeSPS(&Tail);
  RegionRunner Runner(M, Costs, Region, Src);
  RegionConfig C;
  C.S = Scheme::PsDswp;
  C.DoP = {1, 2, 1};
  Runner.start(C);
  bool SawNull = false;
  // Request once only a handful of iterations remain: the head has then
  // observed the source's End, so the pause bound covers the whole space
  // and the region completes instead of suspending. Poll for the moment
  // (backpressure paces the head, so a fixed time would race).
  std::function<void()> Poll = [&] {
    if (Runner.completed()) {
      ADD_FAILURE() << "region finished before a request landed";
      return;
    }
    if (Runner.totalRetired() >= 36) {
      ASSERT_TRUE(Runner.requestCheckpoint([&](const RunnerCheckpoint *P) {
        EXPECT_EQ(P, nullptr);
        SawNull = true;
      }));
      return;
    }
    Sim.schedule(5 * sim::USec, Poll);
  };
  Sim.schedule(5 * sim::USec, Poll);
  Sim.run();
  EXPECT_TRUE(Runner.completed());
  EXPECT_FALSE(Runner.suspended());
  EXPECT_TRUE(SawNull);
  EXPECT_EQ(Tail.size(), 40u);
}

//===----------------------------------------------------------------------===//
// Controller checkpoint / cross-machine restore
//===----------------------------------------------------------------------===//

TEST(Checkpoint, CrossMachineRestoreIsExactlyOnceAndMonitorOnly) {
  // Reference: one uninterrupted run.
  std::vector<std::int64_t> Reference;
  {
    sim::Simulator Sim;
    sim::Machine M(Sim, 8);
    RuntimeCosts Costs;
    CountedWorkSource Src(8000);
    FlexibleRegion Region = makeSPS(&Reference);
    RegionRunner Runner(M, Costs, Region, Src);
    RegionController Ctrl(Runner);
    Ctrl.start(8);
    Sim.runUntil(2 * sim::Sec);
    ASSERT_TRUE(Runner.completed());
    ASSERT_EQ(Reference.size(), 8000u);
  }

  // Machine A: controller-driven run, checkpointed mid-flight (the
  // region needs ~12 ms end to end, so 5 ms is safely mid-stream and
  // past INIT's sequential baseline).
  std::vector<std::int64_t> Tail;
  std::string Serialized;
  {
    sim::Simulator Sim;
    sim::Machine M(Sim, 8);
    RuntimeCosts Costs;
    CountedWorkSource Src(8000);
    FlexibleRegion Region = makeSPS(&Tail);
    RegionRunner Runner(M, Costs, Region, Src);
    RegionController Ctrl(Runner);
    Ctrl.start(8);
    Sim.schedule(5 * sim::MSec, [&] {
      ASSERT_TRUE(Ctrl.checkpointTo(
          [&](ckpt::RegionSnapshot S) { Serialized = S.serialize(); }));
    });
    Sim.runUntil(30 * sim::MSec);
    ASSERT_FALSE(Serialized.empty());
    EXPECT_TRUE(Runner.suspended());
    EXPECT_EQ(Ctrl.state(), CtrlState::Done) << "ticks must stop at A";
  }
  ASSERT_GT(Tail.size(), 0u);
  ASSERT_LT(Tail.size(), 8000u) << "checkpoint landed after completion";

  ckpt::RegionSnapshot S;
  ASSERT_TRUE(ckpt::RegionSnapshot::deserialize(Serialized, S));
  EXPECT_EQ(S.Cursor, Tail.size());
  EXPECT_GT(S.Ctrl.SeqThroughput, 0.0) << "learned baseline must travel";

  // Machine B: fresh world, restore, run to completion.
  {
    sim::Simulator Sim;
    sim::Machine M(Sim, 8);
    RuntimeCosts Costs;
    CountedWorkSource Src(0); // restoreState seeds it from the snapshot
    FlexibleRegion Region = makeSPS(&Tail);
    RegionRunner Runner(M, Costs, Region, Src);
    RegionController Ctrl(Runner);
    Ctrl.startFromSnapshot(8, S);
    Sim.runUntil(2 * sim::Sec);
    ASSERT_TRUE(Runner.completed());
    // No re-measurement on B: MONITOR (then Done) only.
    for (const RegionController::TraceEntry &E : Ctrl.trace())
      EXPECT_TRUE(E.St == CtrlState::Monitor || E.St == CtrlState::Done)
          << "restored controller re-entered " << ctrlStateName(E.St);
  }

  // Exactly-once across the migration: A's prefix + B's suffix is the
  // uninterrupted run, element for element.
  ASSERT_EQ(Tail.size(), Reference.size());
  EXPECT_EQ(Tail, Reference);
}

TEST(Checkpoint, QueueFedRegionRefusesCheckpoint) {
  // A queue's unpulled tail cannot be saved, so a snapshot would restore
  // an empty source and lose it. The controller refuses instead, and the
  // region runs on undisturbed.
  constexpr std::int64_t N = 3000;
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  RuntimeCosts Costs;
  QueueWorkSource Src;
  for (std::int64_t I = 0; I < N; ++I) {
    Token T;
    T.Value = I;
    ASSERT_TRUE(Src.push(T));
  }
  Src.close();
  std::vector<std::int64_t> Tail;
  FlexibleRegion Region = makeSPS(&Tail);
  RegionRunner Runner(M, Costs, Region, Src);
  RegionController Ctrl(Runner);
  Ctrl.start(8);
  bool Asked = false;
  Sim.schedule(2 * sim::MSec, [&] {
    ASSERT_FALSE(Runner.completed()) << "request must land mid-run";
    Asked = true;
    EXPECT_FALSE(Ctrl.checkpointTo([](ckpt::RegionSnapshot) {
      FAIL() << "a queue-fed region must not produce a snapshot";
    }));
  });
  Sim.runUntil(2 * sim::Sec);

  EXPECT_TRUE(Asked);
  EXPECT_TRUE(Runner.completed());
  EXPECT_EQ(Runner.checkpoints(), 0u);
  ASSERT_EQ(Tail.size(), static_cast<std::size_t>(N));
  for (std::int64_t I = 0; I < N; ++I)
    ASSERT_EQ(Tail[static_cast<std::size_t>(I)], I);
}

TEST(Checkpoint, DrainRestartMigratesOffDoomedCoresWithoutAborting) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  RuntimeCosts Costs;
  CountedWorkSource Src(6000);
  std::vector<std::int64_t> Tail;
  FlexibleRegion Region = makeSPS(&Tail);
  RegionRunner Runner(M, Costs, Region, Src);
  RegionController Ctrl(Runner);
  Ctrl.start(8);

  bool Resumed = false;
  // Mid-run: undrained, the region finishes at about 9.8 ms, and it has
  // settled in MONITOR with about half of its items retired by 5 ms.
  Sim.schedule(5 * sim::MSec, [&] {
    ASSERT_TRUE(Ctrl.drainRestart({4, 5, 6}, [&] { Resumed = true; }));
  });
  Sim.runUntil(2 * sim::Sec);

  EXPECT_TRUE(Resumed);
  EXPECT_TRUE(Runner.completed());
  // Proactive, not reactive: the quiesce kept every in-flight iteration.
  EXPECT_EQ(Runner.recoveries(), 0u);
  EXPECT_EQ(Runner.checkpoints(), 1u);
  EXPECT_EQ(M.onlineCores(), 5u);
  // The effective budget shrank to the survivors.
  EXPECT_LE(Ctrl.threadBudget(), 5u);
  ASSERT_EQ(Tail.size(), 6000u);
  for (std::int64_t I = 0; I < 6000; ++I)
    ASSERT_EQ(Tail[static_cast<std::size_t>(I)], I);
}

//===----------------------------------------------------------------------===//
// Bounded rewind history
//===----------------------------------------------------------------------===//

TEST(Checkpoint, RewindAtExactlyHistoryCapSucceeds) {
  constexpr std::size_t Cap = QueueWorkSource::historyCap();
  QueueWorkSource Src;
  for (std::size_t I = 0; I < Cap; ++I) {
    Token T;
    T.Value = static_cast<std::int64_t>(I);
    ASSERT_TRUE(Src.push(T));
  }
  Token Got;
  for (std::size_t I = 0; I < Cap; ++I)
    ASSERT_EQ(pullOne(Src, Got), WorkSource::Pull::Got);
  // Exactly at the cap: nothing evicted yet, the full history replays.
  EXPECT_EQ(Src.historyEvictions(), 0u);
  EXPECT_TRUE(Src.rewind(Cap));
  EXPECT_EQ(Src.size(), Cap);
  ASSERT_EQ(pullOne(Src, Got), WorkSource::Pull::Got);
  EXPECT_EQ(Got.Value, 0);
}

TEST(Checkpoint, RewindPastHistoryCapFailsAndCountsEvictions) {
  constexpr std::size_t Cap = QueueWorkSource::historyCap();
  QueueWorkSource Src;
  for (std::size_t I = 0; I < Cap + 3; ++I) {
    Token T;
    T.Value = static_cast<std::int64_t>(I);
    ASSERT_TRUE(Src.push(T));
  }
  Token Got;
  for (std::size_t I = 0; I < Cap + 3; ++I)
    ASSERT_EQ(pullOne(Src, Got), WorkSource::Pull::Got);
  // One past the cap per extra pull: the oldest entries fell off, and
  // the counter says so (the observability hook for a too-deep rewind).
  EXPECT_EQ(Src.historyEvictions(), 3u);
  EXPECT_FALSE(Src.rewind(Cap + 1)) << "history cannot replay past the cap";
  EXPECT_TRUE(Src.rewind(Cap));
  ASSERT_EQ(pullOne(Src, Got), WorkSource::Pull::Got);
  EXPECT_EQ(Got.Value, 3) << "the three oldest items were evicted";
}
