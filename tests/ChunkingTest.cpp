//===- ChunkingTest.cpp - Chunked claiming and the chunk-size policy --------===//
//
// Tests for the amortized hot path: batched claims from the work sources,
// the DCAFE-style chunk-size controller, and — the part that must not
// regress — the semantic guarantees under chunked execution: exactly-once
// across chunk boundaries when recovery rewinds to the commit frontier,
// pause bounds landing inside a claimed chunk, and deterministic replay.
//
//===----------------------------------------------------------------------===//

#include "PullOne.h"
#include "core/Chunking.h"
#include "core/Region.h"
#include "core/WorkSource.h"
#include "morta/RegionRunner.h"
#include "sim/Faults.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

using namespace parcae;
using namespace parcae::rt;

namespace {

FlexibleRegion makeSPS(std::vector<std::int64_t> *Tail = nullptr,
                       sim::SimTime MidCost = 9000) {
  FlexibleRegion R("chunked");
  RegionDesc D;
  D.Name = "chunked-pipe";
  D.S = Scheme::PsDswp;
  D.Tasks.emplace_back("a", TaskType::Seq, [](IterationContext &C) {
    C.Cost = 300;
    C.Out[0].Value = static_cast<std::int64_t>(C.Seq);
  });
  D.Tasks.emplace_back("b", TaskType::Par, [MidCost](IterationContext &C) {
    C.Cost = MidCost;
    C.Out[0].Value = C.In[0].Value;
  });
  D.Tasks.emplace_back("c", TaskType::Seq, [Tail](IterationContext &C) {
    C.Cost = 200;
    if (Tail)
      Tail->push_back(C.In[0].Value);
  });
  D.Links.push_back({0, 1});
  D.Links.push_back({1, 2});
  R.addVariant(std::move(D));
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// Batched claims from the work sources
//===----------------------------------------------------------------------===//

TEST(TryPullChunk, CountedSourceFullAndPartialChunks) {
  CountedWorkSource Src(10);
  std::vector<Token> Out;
  EXPECT_EQ(Src.tryPullChunk(8, Out), WorkSource::Pull::Got);
  EXPECT_EQ(Out.size(), 8u);
  EXPECT_EQ(Src.remaining(), 2u);
  // Fewer than Max left: a partial chunk, still Got.
  EXPECT_EQ(Src.tryPullChunk(8, Out), WorkSource::Pull::Got);
  EXPECT_EQ(Out.size(), 10u);
  // Exhausted.
  EXPECT_EQ(Src.tryPullChunk(8, Out), WorkSource::Pull::End);
  EXPECT_EQ(Out.size(), 10u);
}

TEST(TryPullChunk, CountedSourceRefillRunsOnlyWhenExhausted) {
  CountedWorkSource Src(4);
  unsigned Calls = 0;
  Src.Refill = [&] {
    if (++Calls == 1)
      Src.extend(3);
  };
  std::vector<Token> Out;
  // Items left: the pull never consults the hook.
  EXPECT_EQ(Src.tryPullChunk(8, Out), WorkSource::Pull::Got);
  EXPECT_EQ(Calls, 0u);
  // Exhausted: the hook extends, and the pull returns the new items,
  // numbered on from the old end.
  EXPECT_EQ(Src.tryPullChunk(8, Out), WorkSource::Pull::Got);
  EXPECT_EQ(Calls, 1u);
  ASSERT_EQ(Out.size(), 7u);
  EXPECT_EQ(Out.back().Value, 6);
  // Exhausted again and the hook declines: End.
  Token T;
  EXPECT_EQ(pullOne(Src, T), WorkSource::Pull::End);
  EXPECT_EQ(Calls, 2u);
}

TEST(TryPullChunk, CountedSourceHeldReportsWaitWhenExhausted) {
  CountedWorkSource Src(2);
  unsigned Calls = 0;
  Src.Refill = [&] { ++Calls; };
  Src.hold();
  std::vector<Token> Out;
  // Items left: a held source still hands them out.
  EXPECT_EQ(Src.tryPullChunk(8, Out), WorkSource::Pull::Got);
  EXPECT_EQ(Out.size(), 2u);
  // Exhausted, the hook declines, and the hold turns End into Wait.
  Token T;
  EXPECT_EQ(pullOne(Src, T), WorkSource::Pull::Wait);
  EXPECT_EQ(Src.tryPullChunk(8, Out), WorkSource::Pull::Wait);
  EXPECT_EQ(Calls, 2u);
  // Extended and released: the new items, numbered on.
  Src.extend(1);
  Src.release();
  EXPECT_EQ(pullOne(Src, T), WorkSource::Pull::Got);
  EXPECT_EQ(T.Value, 2);
  // The hook holds it again from inside the pull: Wait, not End.
  Src.Refill = [&] { Src.hold(); };
  EXPECT_EQ(pullOne(Src, T), WorkSource::Pull::Wait);
  // Released with nothing added: End, as a source never held.
  Src.Refill = nullptr;
  Src.release();
  EXPECT_EQ(Src.tryPullChunk(8, Out), WorkSource::Pull::End);
  EXPECT_EQ(Out.size(), 2u);
}

TEST(TryPullChunk, CountedSourceRewindRestoresChunk) {
  CountedWorkSource Src(20);
  std::vector<Token> Out;
  ASSERT_EQ(Src.tryPullChunk(16, Out), WorkSource::Pull::Got);
  EXPECT_EQ(Src.remaining(), 4u);
  // Give back the unstarted tail of the chunk.
  ASSERT_TRUE(Src.rewind(10));
  EXPECT_EQ(Src.remaining(), 14u);
  Out.clear();
  EXPECT_EQ(Src.tryPullChunk(32, Out), WorkSource::Pull::Got);
  EXPECT_EQ(Out.size(), 14u);
}

TEST(TryPullChunk, QueueSourceAppendsInFifoOrder) {
  QueueWorkSource Src;
  for (std::int64_t V = 0; V < 5; ++V) {
    Token T;
    T.Value = 100 + V;
    ASSERT_TRUE(Src.push(T));
  }
  std::vector<Token> Out;
  EXPECT_EQ(Src.tryPullChunk(3, Out), WorkSource::Pull::Got);
  ASSERT_EQ(Out.size(), 3u);
  for (std::int64_t I = 0; I < 3; ++I)
    EXPECT_EQ(Out[static_cast<std::size_t>(I)].Value, 100 + I);
  // Partial chunk: two items left, ask for eight.
  EXPECT_EQ(Src.tryPullChunk(8, Out), WorkSource::Pull::Got);
  ASSERT_EQ(Out.size(), 5u);
  EXPECT_EQ(Out[4].Value, 104);
  // Empty but open: Wait, and Out is untouched.
  EXPECT_EQ(Src.tryPullChunk(8, Out), WorkSource::Pull::Wait);
  EXPECT_EQ(Out.size(), 5u);
  // Closed and drained: End.
  Src.close();
  EXPECT_EQ(Src.tryPullChunk(8, Out), WorkSource::Pull::End);
}

TEST(TryPullChunk, QueueSourceChunkedPullsRewind) {
  QueueWorkSource Src;
  for (std::int64_t V = 0; V < 8; ++V) {
    Token T;
    T.Value = V;
    ASSERT_TRUE(Src.push(T));
  }
  std::vector<Token> Out;
  ASSERT_EQ(Src.tryPullChunk(6, Out), WorkSource::Pull::Got);
  ASSERT_EQ(Out.size(), 6u);
  // Rewind the last 4 of the chunk: they must be re-delivered in order.
  ASSERT_TRUE(Src.rewind(4));
  Out.clear();
  ASSERT_EQ(Src.tryPullChunk(16, Out), WorkSource::Pull::Got);
  ASSERT_EQ(Out.size(), 6u); // 4 rewound + 2 never pulled
  for (std::int64_t I = 0; I < 6; ++I)
    EXPECT_EQ(Out[static_cast<std::size_t>(I)].Value, 2 + I);
}

TEST(QueueWorkSource, PushOnClosedQueueReturnsFalse) {
  // Regression: push() used to assert !Closed, which vanishes in release
  // builds — a producer racing close() could smuggle items past the
  // end-of-stream consumers already observed.
  QueueWorkSource Src;
  Token T;
  T.Value = 1;
  ASSERT_TRUE(Src.push(T));
  Src.close();
  T.Value = 2;
  EXPECT_FALSE(Src.push(T)) << "closed queue must reject, not accept";
  EXPECT_EQ(Src.size(), 1u);
  EXPECT_EQ(Src.accepted(), 1u);
  // The queued item still drains, then the source ends.
  Token Got;
  EXPECT_EQ(pullOne(Src, Got), WorkSource::Pull::Got);
  EXPECT_EQ(Got.Value, 1);
  EXPECT_EQ(pullOne(Src, Got), WorkSource::Pull::End);
}

TEST(QueueWorkSource, PushOnFullQueueReturnsFalse) {
  QueueWorkSource Src(/*Capacity=*/2);
  Token T;
  EXPECT_TRUE(Src.push(T));
  EXPECT_TRUE(Src.push(T));
  EXPECT_FALSE(Src.push(T)) << "bounded queue must reject when full";
  EXPECT_EQ(Src.size(), 2u);
  EXPECT_EQ(Src.accepted(), 2u);
}

//===----------------------------------------------------------------------===//
// Chunk-size policy
//===----------------------------------------------------------------------===//

TEST(ChunkPolicy, GrowsUntilOverheadFractionMet) {
  ChunkPolicy P;
  EXPECT_EQ(P.current(), 1u);
  // Fixed overhead 400 cycles, work 1000/iter, target 5%: need K >= 8.
  P.retune(/*FixedOverhead=*/400, /*ExecPerIter=*/1000, /*Pressure=*/0.0);
  EXPECT_EQ(P.current(), 8u);
  // Coarse iterations need no chunking: K collapses to 1.
  P.retune(400, 1'000'000, 0.0);
  EXPECT_EQ(P.current(), 1u);
}

TEST(ChunkPolicy, CapsAtMaxK) {
  ChunkPolicy P;
  // Pathologically fine iterations: the cap bounds the rewind window.
  P.retune(/*FixedOverhead=*/10'000, /*ExecPerIter=*/10, /*Pressure=*/0.0);
  EXPECT_EQ(P.current(), ChunkPolicy::MaxK);
  // A restored K is clamped to the same range.
  P.seed(0);
  EXPECT_EQ(P.current(), ChunkPolicy::MinK);
  P.seed(1000);
  EXPECT_EQ(P.current(), ChunkPolicy::MaxK);
}

TEST(ChunkPolicy, QueuePressureShrinks) {
  ChunkPolicy P;
  P.retune(400, 1000, 0.0);
  ASSERT_EQ(P.current(), 8u);
  // Deep channel queues signal imbalance: halve, repeatedly.
  P.retune(400, 1000, 0.9);
  EXPECT_EQ(P.current(), 4u);
  P.retune(400, 1000, 0.9);
  EXPECT_EQ(P.current(), 2u);
}

TEST(ChunkPolicy, PinOverridesTuning) {
  ChunkPolicy P;
  P.pin(16);
  EXPECT_EQ(P.current(), 16u);
  P.retune(0, 1'000'000, 0.9); // would shrink without the pin
  EXPECT_EQ(P.current(), 16u);
  P.seed(32); // a restore does not override a pin either
  EXPECT_EQ(P.current(), 16u);
}

//===----------------------------------------------------------------------===//
// Semantics under chunked execution
//===----------------------------------------------------------------------===//

TEST(ChunkedExec, PinnedChunksPreserveOrderAndCount) {
  for (std::uint64_t K : {1ull, 4ull, 8ull}) {
    sim::Simulator Sim;
    sim::Machine M(Sim, 8);
    RuntimeCosts Costs;
    CountedWorkSource Src(500);
    std::vector<std::int64_t> Tail;
    FlexibleRegion Region = makeSPS(&Tail);
    RegionRunner Runner(M, Costs, Region, Src);
    Runner.chunkPolicy().pin(K);
    RegionConfig C;
    C.S = Scheme::PsDswp;
    C.DoP = {1, 3, 1};
    Runner.start(C);
    Sim.run();
    EXPECT_TRUE(Runner.completed());
    ASSERT_EQ(Tail.size(), 500u) << "K=" << K;
    for (std::int64_t I = 0; I < 500; ++I)
      ASSERT_EQ(Tail[static_cast<std::size_t>(I)], I) << "K=" << K;
  }
}

TEST(ChunkedExec, PauseMidChunkRewindsToBoundExactly) {
  // Pause while the head holds a part-executed chunk: the unstarted tail
  // of the chunk is given back to the source, the pause bound lands on
  // the last started iteration, and the drain retires exactly the bound.
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  RuntimeCosts Costs;
  CountedWorkSource Src(10'000);
  std::vector<std::int64_t> Tail;
  FlexibleRegion Region = makeSPS(&Tail);
  RegionRunner Runner(M, Costs, Region, Src);
  Runner.chunkPolicy().pin(8);
  RegionConfig C;
  C.S = Scheme::PsDswp;
  C.DoP = {1, 3, 1};
  // Reconfigure mid-stream: the pause protocol runs with chunking live.
  RegionConfig C2 = C;
  C2.DoP = {1, 5, 1};
  Runner.start(C);
  Sim.schedule(2 * sim::MSec, [&] {
    if (!Runner.completed())
      Runner.reconfigure(C2);
  });
  Sim.runUntil(400 * sim::MSec);
  EXPECT_TRUE(Runner.completed());
  // Exactly-once across give-back: the full space retires in order.
  ASSERT_EQ(Tail.size(), 10'000u);
  for (std::int64_t I = 0; I < 10'000; ++I)
    ASSERT_EQ(Tail[static_cast<std::size_t>(I)], I);
}

TEST(ChunkedExec, ExactlyOnceAcrossAbortiveRecoveryWithChunking) {
  // Abortive recovery kills workers mid-chunk; the source rewinds to the
  // commit frontier — which can sit anywhere inside a claimed chunk —
  // and the replay must neither drop nor duplicate an iteration.
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  RuntimeCosts Costs;
  CountedWorkSource Src(2000);
  std::vector<std::int64_t> Tail;
  FlexibleRegion Region = makeSPS(&Tail);
  RegionRunner Runner(M, Costs, Region, Src);
  Runner.chunkPolicy().pin(8);
  RegionConfig C;
  C.S = Scheme::PsDswp;
  C.DoP = {1, 3, 1};
  Runner.start(C);
  for (sim::SimTime At : {2 * sim::MSec, 5 * sim::MSec})
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

TEST(ChunkedExec, ControlActionsKeepChunkK) {
  // K changes only when it is retuned. An in-place DoP change, a switch
  // to SEQ, an abortive recovery and a checkpoint each leave the tuned K
  // as it was, and the checkpoint carries that K.
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  RuntimeCosts Costs;
  constexpr std::int64_t N = 8000;
  CountedWorkSource Src(N);
  std::vector<std::int64_t> Tail;
  FlexibleRegion Region = makeSPS(&Tail, /*MidCost=*/600);
  RegionDesc Seq;
  Seq.Name = "chunked-seq";
  Seq.S = Scheme::Seq;
  Seq.Tasks.emplace_back("all", TaskType::Seq, [&Tail](IterationContext &C) {
    C.Cost = 500; // fine-grained enough that SEQ also tunes K above 1
    Tail.push_back(static_cast<std::int64_t>(C.Seq));
  });
  Region.addVariant(std::move(Seq));
  RegionRunner Runner(M, Costs, Region, Src);
  ChunkPolicy &P = Runner.chunkPolicy();
  // Runs until Done() holds; false if the simulation ran dry first.
  auto RunUntil = [&](auto Done) {
    while (!Done() && Sim.runOne()) {
    }
    return Done();
  };
  // Runs past a few retunes and returns the K they left.
  auto Tuned = [&] {
    std::uint64_t Until = Runner.totalRetired() + 1000;
    RunUntil([&] { return Runner.totalRetired() >= Until; });
    return P.current();
  };
  auto Resumed = [&] { return !Runner.transitioning(); };
  Runner.start({Scheme::PsDswp, {1, 2, 1}});

  std::uint64_t K = Tuned();
  ASSERT_GT(K, 1u);
  ASSERT_TRUE(Runner.reconfigure({Scheme::PsDswp, {1, 3, 1}}));
  EXPECT_EQ(Runner.fullPauses(), 0u) << "expected an in-place DoP change";
  EXPECT_EQ(P.current(), K) << "in-place DoP change";

  K = Tuned();
  ASSERT_GT(K, 1u);
  ASSERT_TRUE(Runner.reconfigure({Scheme::Seq, {1}}));
  EXPECT_EQ(P.current(), K) << "switch to SEQ requested";
  ASSERT_TRUE(RunUntil(Resumed));
  EXPECT_EQ(P.current(), K) << "SEQ execution started";

  K = Tuned();
  ASSERT_GT(K, 1u);
  ASSERT_TRUE(Runner.recover(Runner.config()));
  EXPECT_EQ(Runner.recoveries(), 1u);
  EXPECT_EQ(P.current(), K) << "abortive recovery";
  ASSERT_TRUE(RunUntil(Resumed));
  EXPECT_EQ(P.current(), K) << "replay started";

  K = Tuned();
  ASSERT_GT(K, 1u);
  std::optional<RunnerCheckpoint> CP;
  ASSERT_TRUE(Runner.requestCheckpoint([&](const RunnerCheckpoint *C) {
    if (C)
      CP = *C;
  }));
  EXPECT_EQ(P.current(), K) << "checkpoint requested";
  ASSERT_TRUE(RunUntil([&] { return CP.has_value(); }));
  EXPECT_EQ(CP->ChunkK, K);
  EXPECT_EQ(P.current(), K) << "checkpoint taken";
  Runner.resume(CP->Config, CP->Cursor);
  Sim.run();
  EXPECT_TRUE(Runner.completed());
  ASSERT_EQ(Tail.size(), static_cast<std::size_t>(N));
  for (std::int64_t I = 0; I < N; ++I)
    ASSERT_EQ(Tail[static_cast<std::size_t>(I)], I);
}

TEST(ChunkedExec, AdaptiveChunkingReplaysDeterministically) {
  // Two seeded runs with the adaptive policy (not pinned), faults, and a
  // recovery must replay event-for-event: chunk retuning is driven by
  // virtual-time stats only, so it cannot introduce nondeterminism.
  auto Run = [] {
    sim::Simulator Sim;
    sim::Machine M(Sim, 8);
    sim::FaultPlan Plan;
    Plan.addStraggler(2, 1 * sim::MSec, 2 * sim::MSec, 2.0);
    Plan.scatterTransients(11, "b", 50, 900, 20, 2);
    M.installFaultPlan(std::move(Plan));
    RuntimeCosts Costs;
    CountedWorkSource Src(1200);
    std::vector<std::int64_t> Tail;
    FlexibleRegion Region = makeSPS(&Tail, /*MidCost=*/4000);
    RegionRunner Runner(M, Costs, Region, Src);
    RegionConfig C;
    C.S = Scheme::PsDswp;
    C.DoP = {1, 3, 1};
    Runner.start(C);
    Sim.schedule(3 * sim::MSec, [&Runner, C] {
      if (!Runner.completed())
        Runner.recover(C);
    });
    Sim.run();
    EXPECT_TRUE(Runner.completed());
    EXPECT_EQ(Tail.size(), 1200u);
    return std::make_pair(Sim.eventsProcessed(), Tail);
  };
  auto A = Run(), B = Run();
  EXPECT_EQ(A.first, B.first) << "event counts diverged between replays";
  EXPECT_EQ(A.second, B.second);
}

TEST(ChunkedExec, ChunkingReducesMeasuredOverhead) {
  // The point of the whole exercise: per-iteration overhead (hooks,
  // status polls, claims) drops with K, and throughput does not regress.
  auto OverheadPerIter = [](std::uint64_t K) {
    sim::Simulator Sim;
    sim::Machine M(Sim, 8);
    RuntimeCosts Costs;
    CountedWorkSource Src(2000);
    FlexibleRegion Region = makeSPS(nullptr, /*MidCost=*/600);
    RegionRunner Runner(M, Costs, Region, Src);
    Runner.chunkPolicy().pin(K);
    RegionConfig C;
    C.S = Scheme::PsDswp;
    C.DoP = {1, 2, 1};
    Runner.start(C);
    Sim.run();
    EXPECT_TRUE(Runner.completed());
    const RegionExec *E = Runner.exec();
    sim::SimTime Ovh = 0;
    for (unsigned T = 0; T < 3; ++T)
      Ovh += E->stats(T).OverheadTime;
    return static_cast<double>(Ovh) / 2000.0;
  };
  double At1 = OverheadPerIter(1);
  double At8 = OverheadPerIter(8);
  EXPECT_LT(At8, At1 / 3.0) << "K=8 should amortize the fixed costs";
}
