//===- ServeTest.cpp - Serving-layer tests ---------------------------------===//
//
// Tests of the open-loop serving layer: seeded arrival processes (Poisson,
// bursty, trace replay + CSV parsing), admission control, the ServeLoop
// broker end-to-end on a small machine, and the platform daemon's tenant
// interface — slack handoff, the ShrunkToFit oscillation guard, and the
// SLO arbitration pass (violator gains from meeter, hand-back on load
// drop) — plus the percentile-cache regression for the stats layer.
//
//===----------------------------------------------------------------------===//

#include "morta/Platform.h"
#include "serve/Admission.h"
#include "serve/Arrival.h"
#include "serve/ServeLoop.h"
#include "sim/Machine.h"
#include "support/Rng.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

using namespace parcae;
using namespace parcae::serve;

namespace {

//===----------------------------------------------------------------------===//
// Arrival processes
//===----------------------------------------------------------------------===//

/// Collects the first \p N delays of an arrival process, advancing a
/// virtual cursor the way ServeLoop does.
std::vector<sim::SimTime> firstDelays(ArrivalProcess &A, std::size_t N) {
  std::vector<sim::SimTime> Out;
  sim::SimTime Now = 0;
  for (std::size_t I = 0; I < N; ++I) {
    std::optional<sim::SimTime> D = A.nextDelay(Now);
    if (!D)
      break;
    Out.push_back(*D);
    Now += *D;
  }
  return Out;
}

TEST(Arrival, PoissonSameSeedSameDelays) {
  PoissonArrivals A(1000.0, 42), B(1000.0, 42), C(1000.0, 43);
  std::vector<sim::SimTime> Da = firstDelays(A, 200);
  std::vector<sim::SimTime> Db = firstDelays(B, 200);
  std::vector<sim::SimTime> Dc = firstDelays(C, 200);
  ASSERT_EQ(Da.size(), 200u);
  EXPECT_EQ(Da, Db);                   // same seed => same stream
  EXPECT_NE(Da, Dc);                   // different seed => different stream
  // Mean inter-arrival of a 1000/s process is 1 ms; 200 draws land well
  // within a factor of two.
  sim::SimTime Sum = 0;
  for (sim::SimTime D : Da)
    Sum += D;
  double MeanMs = sim::toSeconds(Sum / Da.size()) * 1e3;
  EXPECT_GT(MeanMs, 0.5);
  EXPECT_LT(MeanMs, 2.0);
}

TEST(Arrival, BurstyIsDeterministicAndDenserInBursts) {
  // Quiet 100/s vs burst 10000/s with 10 ms dwell times: the rate gap is
  // big enough that mean delay over many draws sits far from quiet-only.
  BurstyArrivals A(100.0, 10000.0, 0.01, 0.01, 7);
  BurstyArrivals B(100.0, 10000.0, 0.01, 0.01, 7);
  std::vector<sim::SimTime> Da = firstDelays(A, 500);
  std::vector<sim::SimTime> Db = firstDelays(B, 500);
  ASSERT_EQ(Da.size(), 500u);
  EXPECT_EQ(Da, Db);
  sim::SimTime Sum = 0;
  for (sim::SimTime D : Da)
    Sum += D;
  double MeanSec = sim::toSeconds(Sum / Da.size());
  // Far below the quiet-only mean (10 ms): bursts dominate the draw count.
  EXPECT_LT(MeanSec, 0.005);
}

TEST(Arrival, TraceEndsSkipsZeroRateAndLoops) {
  // 0.5 s of silence, then 0.5 s at 1000/s, not looping.
  std::vector<TraceSegment> Curve = {{0.5, 0.0}, {0.5, 1000.0}};
  TraceArrivals A(Curve, 42);
  sim::SimTime Now = 0;
  std::optional<sim::SimTime> First = A.nextDelay(Now);
  ASSERT_TRUE(First.has_value());
  // The first arrival clears the zero-rate segment entirely.
  EXPECT_GE(*First, sim::fromSeconds(0.5));
  std::size_t Count = 1;
  Now += *First;
  while (true) {
    std::optional<sim::SimTime> D = A.nextDelay(Now);
    if (!D)
      break;
    Now += *D;
    ++Count;
  }
  EXPECT_LE(Now, sim::fromSeconds(1.0)); // every arrival inside the curve
  EXPECT_GT(Count, 100u);                // ~500 expected at 1000/s for 0.5 s
  // The same curve looped keeps producing past the one-second boundary.
  TraceArrivals L(Curve, 42, /*Loop=*/true);
  std::vector<sim::SimTime> Dl = firstDelays(L, 2000);
  EXPECT_EQ(Dl.size(), 2000u);
}

TEST(Arrival, TraceCsvRoundTripsAndRejectsMalformed) {
  std::string Path = testing::TempDir() + "/serve_trace.csv";
  {
    std::ofstream F(Path);
    F << "# diurnal curve\n"
      << "0.5, 100\n"
      << "\n"
      << "1.5, 2500\n";
  }
  auto Curve = TraceArrivals::parseCsv(Path);
  ASSERT_TRUE(Curve.has_value());
  ASSERT_EQ(Curve->size(), 2u);
  EXPECT_DOUBLE_EQ((*Curve)[0].DurationSec, 0.5);
  EXPECT_DOUBLE_EQ((*Curve)[0].RatePerSec, 100.0);
  EXPECT_DOUBLE_EQ((*Curve)[1].DurationSec, 1.5);
  EXPECT_DOUBLE_EQ((*Curve)[1].RatePerSec, 2500.0);

  {
    std::ofstream F(Path);
    F << "0.5, 100\n"
      << "not-a-number, 5\n";
  }
  EXPECT_FALSE(TraceArrivals::parseCsv(Path).has_value());
  EXPECT_FALSE(TraceArrivals::parseCsv(Path + ".does-not-exist").has_value());
}

//===----------------------------------------------------------------------===//
// Admission policies
//===----------------------------------------------------------------------===//

TEST(Admission, DropTailBoundsTheQueue) {
  DropTailAdmission P;
  ServeRequest R;
  EXPECT_TRUE(P.admit(R, 0, 4));
  EXPECT_TRUE(P.admit(R, 3, 4));
  EXPECT_FALSE(P.admit(R, 4, 4));
  EXPECT_FALSE(P.shedAtDispatch(R, 100 * sim::Sec)); // never sheds
}

TEST(Admission, DeadlineEarlyDropShedsStaleRequests) {
  DeadlineEarlyDrop P(10 * sim::MSec);
  ServeRequest R;
  R.ArrivedAt = 5 * sim::MSec;
  EXPECT_FALSE(P.shedAtDispatch(R, R.ArrivedAt + 10 * sim::MSec));
  EXPECT_TRUE(P.shedAtDispatch(R, R.ArrivedAt + 10 * sim::MSec + 1));
  EXPECT_TRUE(P.admit(R, 0, 4)); // drop-tail at arrival
  EXPECT_FALSE(P.admit(R, 4, 4));
}

//===----------------------------------------------------------------------===//
// ServeLoop end-to-end
//===----------------------------------------------------------------------===//

/// A single-task DOANY service region: each request costs \p Cost cycles.
rt::FlexibleRegion makeServiceRegion(const std::string &Name,
                                     sim::SimTime Cost) {
  rt::FlexibleRegion R(Name);
  rt::RegionDesc D;
  D.Name = Name + "-par";
  D.S = rt::Scheme::DoAny;
  D.Tasks.emplace_back("work", rt::TaskType::Par,
                       [Cost](rt::IterationContext &Ctx) { Ctx.Cost = Cost; });
  R.addVariant(std::move(D));
  return R;
}

TEST(ServeLoop, InjectedRequestsCompleteWithLatencyStats) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(4);
  ServeLoop Serve(M, Costs, Daemon);

  RequestClassDesc D;
  D.Name = "svc";
  D.MakeRegion = [](const ServeRequest &) {
    return makeServiceRegion("svc", 60000);
  };
  D.ItersPerRequest = 4;
  D.Config = {rt::Scheme::DoAny, {2}};
  unsigned Idx = Serve.addClass(std::move(D));

  for (int I = 0; I < 8; ++I)
    EXPECT_TRUE(Serve.inject(Idx));
  Sim.run();

  const ServeLoop::ClassStats &S = Serve.stats(Idx);
  EXPECT_EQ(S.Arrived, 8u);
  EXPECT_EQ(S.Admitted, 8u);
  EXPECT_EQ(S.Completed, 8u);
  EXPECT_EQ(S.Rejected, 0u);
  EXPECT_EQ(S.Shed, 0u);
  EXPECT_EQ(S.TotalUs.count(), 8u);
  EXPECT_GT(S.ServiceUs.mean(), 0.0);        // service took virtual time
  EXPECT_GT(S.QueueWaitUs.max(), 0.0);       // 8 requests on <= 2 slots queued
  EXPECT_EQ(Serve.queueDepth(Idx), 0u);
  EXPECT_EQ(Serve.inService(Idx), 0u);
  EXPECT_GE(Serve.recentLatencySec(Idx, 95), 0.0); // probe has a signal
}

TEST(ServeLoop, BoundedQueueRejectsAtArrival) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 2);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(2);
  ServeLoop Serve(M, Costs, Daemon);

  RequestClassDesc D;
  D.Name = "tiny";
  D.MakeRegion = [](const ServeRequest &) {
    return makeServiceRegion("tiny", 60000);
  };
  D.Config = {rt::Scheme::DoAny, {2}};
  D.QueueCapacity = 1;
  unsigned Idx = Serve.addClass(std::move(D));

  // First arrival dispatches immediately (budget 2 => one 2-wide slot),
  // the second queues, the third finds the queue full.
  EXPECT_TRUE(Serve.inject(Idx));
  EXPECT_TRUE(Serve.inject(Idx));
  EXPECT_FALSE(Serve.inject(Idx));
  EXPECT_EQ(Serve.stats(Idx).Rejected, 1u);
  Sim.run();
  EXPECT_EQ(Serve.stats(Idx).Completed, 2u);
}

TEST(ServeLoop, OnRequestDoneSeesShedRequests) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 2);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(2);
  ServeLoop Serve(M, Costs, Daemon);

  RequestClassDesc D;
  D.Name = "dl";
  D.MakeRegion = [](const ServeRequest &) {
    return makeServiceRegion("dl", 500000); // 0.5 ms per iteration
  };
  D.Config = {rt::Scheme::DoAny, {2}};
  // Anything that waits at all is shed at dispatch.
  D.Policy = std::make_unique<DeadlineEarlyDrop>(0);
  unsigned Idx = Serve.addClass(std::move(D));

  unsigned Done = 0, Shed = 0;
  Serve.OnRequestDone = [&](const ServeRequest &R) {
    R.Shed ? ++Shed : ++Done;
  };
  for (int I = 0; I < 4; ++I)
    Serve.inject(Idx);
  Sim.run();
  EXPECT_EQ(Done, 1u);  // the head-of-line request never waited
  EXPECT_EQ(Shed, 3u);  // everything queued blew its deadline
  EXPECT_EQ(Serve.stats(Idx).Shed, 3u);
}

TEST(ServeLoop, OpenLoopArrivalsDrainDeterministically) {
  auto RunOnce = [](std::uint64_t Seed) {
    sim::Simulator Sim;
    sim::Machine M(Sim, 4);
    rt::RuntimeCosts Costs;
    rt::PlatformDaemon Daemon(4);
    ServeLoop Serve(M, Costs, Daemon);

    RequestClassDesc D;
    D.Name = "open";
    D.MakeRegion = [](const ServeRequest &) {
      return makeServiceRegion("open", 60000);
    };
    D.Config = {rt::Scheme::DoAny, {2}};
    unsigned Idx = Serve.addClass(std::move(D));
    Serve.startArrivals(Idx,
                        std::make_unique<PoissonArrivals>(2000.0, Seed));
    Sim.runUntil(100 * sim::MSec);
    Serve.stopArrivals(Idx);
    Sim.run();
    const ServeLoop::ClassStats &S = Serve.stats(Idx);
    EXPECT_EQ(S.Admitted, S.Completed + S.Shed);
    return std::make_tuple(S.Arrived, S.Completed,
                           S.TotalUs.percentile(95));
  };
  auto A = RunOnce(42), B = RunOnce(42), C = RunOnce(7);
  EXPECT_GT(std::get<0>(A), 100u); // ~200 arrivals in 100 ms at 2000/s
  EXPECT_EQ(A, B);                 // same seed => identical world
  EXPECT_NE(A, C);                 // different seed => different world
}

TEST(ServeLoop, DomainWarningMigratesInFlightRequestsDeterministically) {
  // A warned failure domain mid-overload: the loop checkpoints every
  // in-flight request region, offlines the doomed cores, and resumes the
  // survivors — and the whole story (per-class goodput, admitted/shed
  // counters, migration count) replays identically under one seed.
  auto RunOnce = [](std::uint64_t Seed) {
    sim::Simulator Sim;
    sim::Machine M(Sim, 4);
    sim::FaultPlan Plan;
    Plan.addDomain("socket1", {2, 3}, /*At=*/50 * sim::MSec,
                   /*Downtime=*/30 * sim::MSec, /*Warning=*/5 * sim::MSec);
    M.installFaultPlan(std::move(Plan));
    rt::RuntimeCosts Costs;
    rt::PlatformDaemon Daemon(4);
    ServeLoop Serve(M, Costs, Daemon);

    RequestClassDesc D;
    D.Name = "mig";
    D.MakeRegion = [](const ServeRequest &) {
      // 2 ms of work per request: at 2000/s the class is overloaded, so
      // the warning always finds requests in flight to migrate.
      return makeServiceRegion("mig", 500000);
    };
    D.ItersPerRequest = 4;
    D.Config = {rt::Scheme::DoAny, {2}};
    unsigned Idx = Serve.addClass(std::move(D));
    Serve.startArrivals(Idx, std::make_unique<PoissonArrivals>(2000.0, Seed));
    Sim.runUntil(100 * sim::MSec);
    Serve.stopArrivals(Idx);
    Sim.run();

    EXPECT_GT(Serve.migrations(), 0u) << "nothing was in flight at the drain";
    EXPECT_EQ(Serve.drainsCompleted(), 1u);
    EXPECT_FALSE(Serve.draining());
    EXPECT_EQ(M.onlineCores(), 4u) << "domain repaired after its downtime";
    const ServeLoop::ClassStats &S = Serve.stats(Idx);
    EXPECT_EQ(S.Admitted, S.Completed + S.Shed);
    return std::make_tuple(S.Arrived, S.Admitted, S.Rejected, S.Shed,
                           S.Completed, Serve.migrations(),
                           S.TotalUs.percentile(95));
  };
  auto A = RunOnce(42), B = RunOnce(42), C = RunOnce(7);
  EXPECT_GT(std::get<0>(A), 100u);
  EXPECT_EQ(A, B) << "same seed must replay the drain byte-identically";
  EXPECT_NE(A, C);
}

//===----------------------------------------------------------------------===//
// ServeLoop batching
//===----------------------------------------------------------------------===//

/// Injects one request per runner slot of a 4-core, DoAny@2 class (two
/// slots), so every request injected next waits in the queue.
void occupyEverySlot(ServeLoop &Serve, unsigned Idx) {
  for (int I = 0; I < 2; ++I)
    EXPECT_TRUE(Serve.inject(Idx));
  EXPECT_EQ(Serve.inService(Idx), 2u);
}

TEST(ServeLoopBatch, SizeTriggerClosesFullBatches) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(4);
  ServeLoop Serve(M, Costs, Daemon);

  RequestClassDesc D;
  D.Name = "sz";
  D.MakeRegion = [](const ServeRequest &) {
    return makeServiceRegion("sz", 60000);
  };
  D.ItersPerRequest = 4;
  D.Config = {rt::Scheme::DoAny, {2}};
  D.Batch.MaxBatch = 4;
  unsigned Idx = Serve.addClass(std::move(D));

  // The idle class dispatches its first two arrivals alone; the eight
  // behind them form the backlog the freed slots take four at a time.
  occupyEverySlot(Serve, Idx);
  for (int I = 0; I < 8; ++I)
    EXPECT_TRUE(Serve.inject(Idx));
  EXPECT_EQ(Serve.queueDepth(Idx), 8u);
  Sim.run();

  const BatchStats &B = Serve.batchStats(Idx);
  EXPECT_EQ(B.Batches, 4u);
  EXPECT_EQ(B.BatchedRequests, 10u);
  EXPECT_EQ(B.SizeCloses, 2u);
  EXPECT_EQ(B.Batches - B.SizeCloses, 2u) << "the two underfull singletons";
  EXPECT_EQ(B.TimerCloses, 0u);
  EXPECT_EQ(B.SloCloses, 0u);
  EXPECT_DOUBLE_EQ(B.OccupancyH.max(), 4.0);
  EXPECT_DOUBLE_EQ(B.requestsPerRegion(), 2.5);
  EXPECT_EQ(Serve.stats(Idx).Completed, 10u);
  EXPECT_EQ(Serve.inFlightRequests(Idx), 0u);
}

TEST(ServeLoopBatch, IdleClassDispatchesAtOnce) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(4);
  ServeLoop Serve(M, Costs, Daemon);

  RequestClassDesc D;
  D.Name = "idle";
  D.MakeRegion = [](const ServeRequest &) {
    return makeServiceRegion("idle", 60000);
  };
  D.ItersPerRequest = 4;
  D.Config = {rt::Scheme::DoAny, {2}};
  D.Slo = {95.0, 10 * sim::MSec};
  // The legacy wait-window fields are unread: a free slot never holds a
  // lone request back waiting for company.
  D.Batch = {8, 2 * sim::MSec, 0.5};
  unsigned Idx = Serve.addClass(std::move(D));

  EXPECT_TRUE(Serve.inject(Idx));
  EXPECT_EQ(Serve.queueDepth(Idx), 0u);
  EXPECT_EQ(Serve.inService(Idx), 1u);
  EXPECT_EQ(Serve.inFlightRequests(Idx), 1u);
  Sim.run();

  const ServeLoop::ClassStats &S = Serve.stats(Idx);
  EXPECT_EQ(S.Completed, 1u);
  EXPECT_EQ(S.QueueWaitUs.max(), 0.0) << "the request waited for a batch";
  const BatchStats &B = Serve.batchStats(Idx);
  EXPECT_EQ(B.Batches, 1u);
  EXPECT_EQ(B.SizeCloses, 0u);
  EXPECT_DOUBLE_EQ(B.OccupancyH.max(), 1.0);
}

TEST(ServeLoopBatch, AccessorsCountEveryAdmittedRequest) {
  // At any instant an admitted request is queued, in flight, completed
  // or shed, so queueDepth + inFlightRequests sees every open request. A
  // drain loop on the accessors (bench_serve's) relies on this: a request
  // they miss is never waited for, and never finalized.
  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(4);
  ServeLoop Serve(M, Costs, Daemon);

  RequestClassDesc D;
  D.Name = "acct";
  D.MakeRegion = [](const ServeRequest &) {
    return makeServiceRegion("acct", 500000);
  };
  D.ItersPerRequest = 4;
  D.Config = {rt::Scheme::DoAny, {2}};
  D.Policy = std::make_unique<DeadlineEarlyDrop>(10 * sim::MSec);
  // The wait-window fields are unread; a policy that honoured them would
  // hold requests outside both the queue and the in-flight batches.
  D.Batch = {4, 2 * sim::MSec, 0.5};
  unsigned Idx = Serve.addClass(std::move(D));
  Serve.startArrivals(Idx, std::make_unique<PoissonArrivals>(1500.0, 42));

  unsigned Probes = 0, Busy = 0;
  for (sim::SimTime T = 25 * sim::USec; T < 100 * sim::MSec;
       T += 50 * sim::USec)
    Sim.scheduleAt(T, [&] {
      const ServeLoop::ClassStats &S = Serve.stats(Idx);
      std::uint64_t Open = S.Admitted - S.Completed - S.Shed;
      std::uint64_t Seen = Serve.queueDepth(Idx) + Serve.inFlightRequests(Idx);
      EXPECT_EQ(Open, Seen) << "at t=" << Sim.now();
      ++Probes;
      Busy += Serve.inService(Idx) > 0;
    });
  Sim.runUntil(100 * sim::MSec);
  Serve.stopArrivals(Idx);
  Sim.run();
  EXPECT_EQ(Probes, 2000u);
  EXPECT_GT(Busy, Probes / 4) << "the probes saw too little in flight";
  EXPECT_GT(Serve.batchStats(Idx).requestsPerRegion(), 1.0)
      << "nothing coalesced";
  const ServeLoop::ClassStats &S = Serve.stats(Idx);
  EXPECT_EQ(S.Admitted, S.Completed + S.Shed);
}

TEST(ServeLoopBatch, MembersCompleteAtIterationWatermarks) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(4);
  ServeLoop Serve(M, Costs, Daemon);

  RequestClassDesc D;
  D.Name = "wm";
  D.MakeRegion = [](const ServeRequest &) {
    return makeServiceRegion("wm", 500000); // 0.5 ms per iteration
  };
  D.ItersPerRequest = 4;
  D.Config = {rt::Scheme::DoAny, {2}};
  D.Batch.MaxBatch = 4;
  unsigned Idx = Serve.addClass(std::move(D));

  // Requests 1 and 2 take the idle slots alone; 3..6 queue behind them
  // and start as one batch of four.
  occupyEverySlot(Serve, Idx);
  std::vector<sim::SimTime> Completions;
  std::vector<double> ServiceUs;
  Serve.OnRequestDone = [&](const ServeRequest &R) {
    if (R.Id <= 2)
      return;
    Completions.push_back(R.CompletedAt);
    ServiceUs.push_back(static_cast<double>(R.CompletedAt - R.StartedAt) /
                        1e3);
  };
  for (int I = 0; I < 4; ++I)
    EXPECT_TRUE(Serve.inject(Idx));
  Sim.run();

  // One batch of four, but four *distinct* per-request completions: each
  // member was attributed when the shared runner crossed its iteration
  // watermark, not when the whole batch turned around.
  ASSERT_EQ(Completions.size(), 4u);
  for (std::size_t I = 1; I < Completions.size(); ++I)
    EXPECT_LT(Completions[I - 1], Completions[I])
        << "members must complete at successive watermarks";
  const ServeLoop::ClassStats &S = Serve.stats(Idx);
  EXPECT_EQ(S.Completed, 6u);
  EXPECT_EQ(S.TotalUs.count(), 6u) << "one latency sample per request";
  // The first member's service time is roughly a quarter of the last's:
  // it did not pay for the whole batch.
  EXPECT_LT(ServiceUs.front() * 2, ServiceUs.back());
  EXPECT_EQ(Serve.batchStats(Idx).Batches, 3u);
  EXPECT_EQ(Serve.batchStats(Idx).SizeCloses, 1u);
}

TEST(ServeLoopBatch, BatchedDrainMigratesAllMembersDeterministically) {
  // The live-migration story with coalescing on: a migrated batch runner
  // carries every unfinished member request, and the whole world replays
  // byte-identically under one seed.
  auto RunOnce = [](std::uint64_t Seed) {
    sim::Simulator Sim;
    sim::Machine M(Sim, 4);
    sim::FaultPlan Plan;
    Plan.addDomain("socket1", {2, 3}, /*At=*/50 * sim::MSec,
                   /*Downtime=*/30 * sim::MSec, /*Warning=*/5 * sim::MSec);
    M.installFaultPlan(std::move(Plan));
    rt::RuntimeCosts Costs;
    rt::PlatformDaemon Daemon(4);
    ServeLoop Serve(M, Costs, Daemon);

    RequestClassDesc D;
    D.Name = "bmig";
    D.MakeRegion = [](const ServeRequest &) {
      return makeServiceRegion("bmig", 500000);
    };
    D.ItersPerRequest = 4;
    D.Config = {rt::Scheme::DoAny, {2}};
    D.Batch.MaxBatch = 4;
    unsigned Idx = Serve.addClass(std::move(D));
    Serve.startArrivals(Idx, std::make_unique<PoissonArrivals>(2000.0, Seed));
    Sim.runUntil(100 * sim::MSec);
    Serve.stopArrivals(Idx);
    Sim.run();

    EXPECT_GT(Serve.migrations(), 0u) << "nothing was in flight at the drain";
    EXPECT_EQ(Serve.drainsCompleted(), 1u);
    EXPECT_EQ(M.onlineCores(), 4u);
    const ServeLoop::ClassStats &S = Serve.stats(Idx);
    EXPECT_EQ(S.Admitted, S.Completed + S.Shed);
    const BatchStats &B = Serve.batchStats(Idx);
    EXPECT_GT(B.requestsPerRegion(), 1.0) << "nothing actually coalesced";
    return std::make_tuple(S.Arrived, S.Admitted, S.Rejected, S.Shed,
                           S.Completed, Serve.migrations(), B.Batches,
                           B.SizeCloses, S.TotalUs.percentile(95));
  };
  auto A = RunOnce(42), B = RunOnce(42), C = RunOnce(7);
  EXPECT_GT(std::get<0>(A), 100u);
  EXPECT_EQ(A, B) << "same seed must replay the batched drain identically";
  EXPECT_NE(A, C);
}

//===----------------------------------------------------------------------===//
// Serve-path regressions
//===----------------------------------------------------------------------===//

TEST(ServeLoop, OverlappingDomainWarningsBothDrain) {
  // Two failure domains whose warning windows overlap: the second
  // warning used to be silently dropped while the first drain was
  // active, hard-failing the second domain under running work. It must
  // queue and drain back-to-back instead.
  sim::Simulator Sim;
  sim::Machine M(Sim, 6);
  sim::FaultPlan Plan;
  Plan.addDomain("sockA", {4, 5}, /*At=*/20 * sim::MSec,
                 /*Downtime=*/30 * sim::MSec, /*Warning=*/5 * sim::MSec);
  // Warns 200 us after sockA, while sockA's drain is still waiting for
  // in-flight 2 ms iterations to retire.
  Plan.addDomain("sockB", {2, 3}, /*At=*/20 * sim::MSec + 200 * sim::USec,
                 /*Downtime=*/30 * sim::MSec, /*Warning=*/5 * sim::MSec);
  M.installFaultPlan(std::move(Plan));
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(6);
  ServeLoop Serve(M, Costs, Daemon);

  RequestClassDesc D;
  D.Name = "ovl";
  D.MakeRegion = [](const ServeRequest &) {
    return makeServiceRegion("ovl", 2000000); // 2 ms per iteration
  };
  D.ItersPerRequest = 16;
  D.Config = {rt::Scheme::DoAny, {2}};
  unsigned Idx = Serve.addClass(std::move(D));
  for (int I = 0; I < 6; ++I)
    EXPECT_TRUE(Serve.inject(Idx));

  // Probe between the two warnings' arrival and the first drain's end:
  // the first drain must still be active when the second warning lands,
  // otherwise this test is not exercising the overlap.
  Sim.schedule(15 * sim::MSec + 300 * sim::USec, [&] {
    EXPECT_TRUE(Serve.draining()) << "first drain already over: no overlap";
    EXPECT_EQ(Serve.drainsCompleted(), 0u);
  });
  Sim.run();

  EXPECT_EQ(Serve.drainsCompleted(), 2u)
      << "the overlapping warning was dropped";
  EXPECT_FALSE(Serve.draining());
  EXPECT_EQ(Serve.stats(Idx).Completed, 6u) << "requests lost in the drain";
  EXPECT_EQ(M.onlineCores(), 6u) << "domains repaired after downtime";
}

TEST(ServeLoop, RejectedRequestsReachOnRequestDone) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 2);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(2);
  ServeLoop Serve(M, Costs, Daemon);

  RequestClassDesc D;
  D.Name = "rej";
  D.MakeRegion = [](const ServeRequest &) {
    return makeServiceRegion("rej", 60000);
  };
  D.Config = {rt::Scheme::DoAny, {2}};
  D.QueueCapacity = 1;
  unsigned Idx = Serve.addClass(std::move(D));

  unsigned Done = 0, Rejected = 0;
  Serve.OnRequestDone = [&](const ServeRequest &R) {
    if (R.Rejected) {
      ++Rejected;
      EXPECT_EQ(R.CompletedAt, 0u) << "rejected requests never start";
      EXPECT_EQ(R.StartedAt, 0u);
    } else {
      ++Done;
    }
  };
  // First dispatches, second queues, third is refused — and the refusal
  // must reach the per-request observer (it used to vanish).
  EXPECT_TRUE(Serve.inject(Idx));
  EXPECT_TRUE(Serve.inject(Idx));
  EXPECT_FALSE(Serve.inject(Idx));
  EXPECT_EQ(Rejected, 1u);
  Sim.run();
  EXPECT_EQ(Done, 2u);
  EXPECT_EQ(Serve.stats(Idx).Rejected, 1u);
  EXPECT_EQ(Serve.stats(Idx).Completed, 2u);
}

TEST(ServeLoop, RecentLatencyProbeSelectsOncePerCompletion) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(4);
  ServeLoop Serve(M, Costs, Daemon);

  RequestClassDesc D;
  D.Name = "probe";
  D.MakeRegion = [](const ServeRequest &) {
    return makeServiceRegion("probe", 60000);
  };
  D.ItersPerRequest = 4;
  D.Config = {rt::Scheme::DoAny, {2}};
  unsigned Idx = Serve.addClass(std::move(D));

  for (int I = 0; I < 6; ++I)
    EXPECT_TRUE(Serve.inject(Idx));
  Sim.run();
  EXPECT_EQ(Serve.stats(Idx).Completed, 6u);

  // The arbiter probes the SLO window every tick; repeated probes with
  // no new completions must reuse one selection (it used to copy and
  // re-sort the whole window on every probe).
  EXPECT_EQ(Serve.recentProbeSelections(Idx), 0u);
  double P95 = Serve.recentLatencySec(Idx, 95);
  EXPECT_GT(P95, 0.0);
  // Every completion is still in the window: selection and the sorted
  // whole-run histogram agree on the nearest-rank value.
  EXPECT_NEAR(P95, Serve.stats(Idx).TotalUs.percentile(95) / 1e6, 1e-9);
  EXPECT_EQ(Serve.recentProbeSelections(Idx), 1u);
  for (int I = 0; I < 50; ++I)
    Serve.recentLatencySec(Idx, 95);
  EXPECT_EQ(Serve.recentProbeSelections(Idx), 1u)
      << "probes between completions re-selected the window";
  // Another percentile is one more selection.
  EXPECT_LE(Serve.recentLatencySec(Idx, 50), P95);
  EXPECT_EQ(Serve.recentProbeSelections(Idx), 2u);

  // A new completion dirties the window: exactly one more selection.
  EXPECT_TRUE(Serve.inject(Idx));
  Sim.run();
  Serve.recentLatencySec(Idx, 95);
  Serve.recentLatencySec(Idx, 95);
  EXPECT_EQ(Serve.recentProbeSelections(Idx), 3u);

  // Once the window ages out, the probe reports no signal (and has
  // nothing to select from).
  Sim.runUntil(Sim.now() + 200 * sim::MSec);
  EXPECT_LT(Serve.recentLatencySec(Idx, 95), 0.0);
  EXPECT_EQ(Serve.recentProbeSelections(Idx), 3u);
}

//===----------------------------------------------------------------------===//
// PlatformDaemon tenants and SLO arbitration
//===----------------------------------------------------------------------===//

/// A scriptable tenant: tests set its reported demand and SLO readings.
class FakeTenant : public rt::PlatformTenant {
public:
  explicit FakeTenant(std::string Name) : Name(std::move(Name)) {}

  const std::string &tenantName() const override { return Name; }
  void onBudget(unsigned B, bool First) override {
    Budget = B;
    if (First)
      ++FirstGrants;
  }
  unsigned threadsUsed() const override {
    return Used ? std::min(Used, Budget) : Budget;
  }
  bool wantsMore() const override { return WantsMore; }

  bool hasSlo() const override { return HasSlo; }
  double sloTargetSec() const override { return TargetSec; }
  double sloLatencySec() const override { return LatencySec; }

  std::string Name;
  unsigned Budget = 0;
  /// Thread demand; the report is capped at the grant like a real
  /// controller's (it cannot use threads it was not given). 0 reports
  /// the granted budget (steady full consumption).
  unsigned Used = 0;
  unsigned FirstGrants = 0;
  bool WantsMore = false;
  bool HasSlo = false;
  double TargetSec = 1.0;
  double LatencySec = -1.0;
};

TEST(PlatformTenants, SlackFlowsToHungryTenantAndStaysStable) {
  sim::Simulator Sim;
  rt::PlatformDaemon Daemon(8);
  FakeTenant Hungry("hungry"), Modest("modest");
  Hungry.Used = 100; // consumes whatever it is given and wants more
  Hungry.WantsMore = true;
  Modest.Used = 1; // needs a single thread
  Daemon.addTenant(Hungry);
  Daemon.addTenant(Modest);
  EXPECT_EQ(Hungry.FirstGrants, 1u);
  EXPECT_EQ(Hungry.Budget + Modest.Budget, 8u); // even split at add

  Daemon.startArbiter(Sim, sim::MSec);
  Sim.runUntil(2 * sim::MSec);
  EXPECT_EQ(Modest.Budget, 1u); // shrunk to its reported need
  EXPECT_EQ(Hungry.Budget, 7u); // slack handed to the saturated tenant

  // Extra ticks change nothing: the same poll readings must reach the
  // same partition (the arbiter is deterministic and idempotent).
  Sim.runUntil(10 * sim::MSec);
  Daemon.stopArbiter();
  EXPECT_EQ(Modest.Budget, 1u);
  EXPECT_EQ(Hungry.Budget, 7u);
}

TEST(PlatformTenants, ShrunkToFitGuardsOscillation) {
  sim::Simulator Sim;
  rt::PlatformDaemon Daemon(8);
  // Both claim they want more, but Small only ever uses one thread: after
  // the shrink it must not count as hungry again (Used >= Budget alone
  // would re-grow it every other tick).
  FakeTenant Big("big"), Small("small");
  Big.Used = 4;
  Big.WantsMore = true;
  Small.Used = 1;
  Small.WantsMore = true;
  Daemon.addTenant(Big);
  Daemon.addTenant(Small);

  Daemon.startArbiter(Sim, sim::MSec);
  Sim.runUntil(2 * sim::MSec);
  EXPECT_EQ(Small.Budget, 1u);
  std::vector<unsigned> SmallBudgets;
  for (int T = 0; T < 6; ++T) {
    Sim.runUntil(Sim.now() + sim::MSec);
    SmallBudgets.push_back(Small.Budget);
  }
  Daemon.stopArbiter();
  for (unsigned B : SmallBudgets)
    EXPECT_EQ(B, 1u) << "budget oscillated after shrink-to-fit";
}

TEST(PlatformTenants, SloViolatorGainsFromMeeterThenHandsBack) {
  sim::Simulator Sim;
  rt::PlatformDaemon Daemon(8);
  FakeTenant Viol("viol"), Meet("meet");
  Viol.HasSlo = true;
  Viol.TargetSec = 1.0;
  Viol.LatencySec = 2.0; // ratio 2.0: violating
  Meet.HasSlo = true;
  Meet.TargetSec = 1.0;
  Meet.LatencySec = 0.2; // ratio 0.2: donor headroom
  Daemon.addTenant(Viol);
  Daemon.addTenant(Meet);
  ASSERT_EQ(Viol.Budget, 4u);

  Daemon.startArbiter(Sim, sim::MSec);
  // One thread per tick flows meet -> viol until the donor is at the
  // minimum budget.
  Sim.runUntil(10 * sim::MSec + sim::USec);
  EXPECT_EQ(Viol.Budget, 7u);
  EXPECT_EQ(Meet.Budget, 1u);
  const auto &T1 = Daemon.sloTransfers();
  ASSERT_EQ(T1.size(), 3u);
  for (const auto &T : T1) {
    EXPECT_EQ(T.From, "meet");
    EXPECT_EQ(T.To, "viol");
    EXPECT_EQ(T.Threads, 1u);
    EXPECT_STREQ(T.Why, "violation");
  }
  EXPECT_GT(T1.back().At, T1.front().At); // stamped with arbiter time

  // Load drops: the gainer now has ample headroom and returns its loans
  // one per tick to the lender.
  Viol.LatencySec = 0.3; // ratio 0.3 <= return headroom
  Sim.runUntil(20 * sim::MSec);
  Daemon.stopArbiter();
  EXPECT_EQ(Viol.Budget, 4u);
  EXPECT_EQ(Meet.Budget, 4u);
  const auto &T2 = Daemon.sloTransfers();
  ASSERT_EQ(T2.size(), 6u);
  for (std::size_t I = 3; I < 6; ++I) {
    EXPECT_EQ(T2[I].From, "viol");
    EXPECT_EQ(T2[I].To, "meet");
    EXPECT_STREQ(T2[I].Why, "return");
  }
}

TEST(PlatformTenants, NoSloDataMeansNoTransfers) {
  sim::Simulator Sim;
  rt::PlatformDaemon Daemon(8);
  // One tenant violating, the other carrying an SLO but with no latency
  // signal yet: nobody qualifies as a donor, so nothing moves.
  FakeTenant Viol("viol"), Fresh("fresh");
  Viol.HasSlo = true;
  Viol.TargetSec = 1.0;
  Viol.LatencySec = 5.0;
  Fresh.HasSlo = true;
  Fresh.TargetSec = 1.0;
  Fresh.LatencySec = -1.0; // no data
  Daemon.addTenant(Viol);
  Daemon.addTenant(Fresh);

  Daemon.startArbiter(Sim, sim::MSec);
  Sim.runUntil(5 * sim::MSec);
  Daemon.stopArbiter();
  EXPECT_TRUE(Daemon.sloTransfers().empty());
  EXPECT_EQ(Viol.Budget, 4u);
  EXPECT_EQ(Fresh.Budget, 4u);
}

TEST(PlatformTenants, NoSloTenantIsThePreferredDonor) {
  sim::Simulator Sim;
  rt::PlatformDaemon Daemon(9);
  FakeTenant Viol("viol"), Meet("meet"), Plain("plain");
  Viol.HasSlo = true;
  Viol.TargetSec = 1.0;
  Viol.LatencySec = 3.0;
  Meet.HasSlo = true;
  Meet.TargetSec = 1.0;
  Meet.LatencySec = 0.1;
  Daemon.addTenant(Viol);
  Daemon.addTenant(Meet);
  Daemon.addTenant(Plain);

  Daemon.startArbiter(Sim, sim::MSec);
  Sim.runUntil(sim::MSec + sim::USec);
  Daemon.stopArbiter();
  ASSERT_FALSE(Daemon.sloTransfers().empty());
  // Threads without an SLO attached are taken before squeezing a tenant
  // that is merely meeting its own target.
  EXPECT_EQ(Daemon.sloTransfers().front().From, "plain");
  EXPECT_EQ(Daemon.sloTransfers().front().To, "viol");
}

//===----------------------------------------------------------------------===//
// Percentile cache regression
//===----------------------------------------------------------------------===//

TEST(Stats, PercentileCacheSortsOncePerMutation) {
  SampleSet S;
  for (int I = 100; I > 0; --I)
    S.add(I);
  EXPECT_EQ(S.sortsPerformed(), 0u);
  EXPECT_DOUBLE_EQ(S.percentile(50), 50.0);
  EXPECT_EQ(S.sortsPerformed(), 1u);
  // The serving layer polls p50/p95/p99 every arbiter tick: repeated
  // queries between mutations must reuse the sorted view.
  for (int I = 0; I < 50; ++I) {
    S.percentile(50);
    S.percentile(95);
    S.percentile(99);
  }
  EXPECT_EQ(S.sortsPerformed(), 1u);

  S.add(1000.0); // mutation invalidates the cache...
  EXPECT_DOUBLE_EQ(S.percentile(100), 1000.0);
  EXPECT_EQ(S.sortsPerformed(), 2u);

  S.decimate(); // ...and so does decimation
  S.percentile(95);
  EXPECT_EQ(S.sortsPerformed(), 3u);
  S.percentile(95);
  EXPECT_EQ(S.sortsPerformed(), 3u);
}

TEST(Stats, SelectPercentileMatchesSortedPercentile) {
  // Nearest rank makes selection exact: every percentile of every size
  // agrees with the sorted set, duplicates included.
  Rng R(7);
  for (std::size_t N : {1u, 2u, 3u, 10u, 511u, 512u}) {
    SampleSet S;
    std::vector<double> V;
    for (std::size_t I = 0; I < N; ++I) {
      double X = static_cast<double>(R.nextBelow(50));
      S.add(X);
      V.push_back(X);
    }
    for (double P : {0.0, 1.0, 33.3, 50.0, 95.0, 99.0, 99.9, 100.0}) {
      std::vector<double> Copy = V;
      EXPECT_EQ(selectPercentile(Copy, P), S.percentile(P))
          << "n=" << N << " p=" << P;
    }
  }
  std::vector<double> Empty;
  EXPECT_EQ(selectPercentile(Empty, 95), 0.0);
}

TEST(Stats, HistogramExposesPercentileSorts) {
  Histogram H;
  for (int I = 0; I < 1000; ++I)
    H.add(I);
  H.p50();
  H.p95();
  H.p99();
  EXPECT_EQ(H.percentileSorts(), 1u);
  H.add(0.5);
  H.p95();
  EXPECT_EQ(H.percentileSorts(), 2u);
}

} // namespace
