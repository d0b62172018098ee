//===- ServeTest.cpp - Serving-layer tests ---------------------------------===//
//
// Tests of the open-loop serving layer: seeded arrival processes (Poisson
// and trace replay), admission control, the ServeLoop
// broker end-to-end on a small machine (runner widths fitted to the
// class's thread grant, warm runners taking queued batches in place, dry
// runners stealing the oldest half of a sibling's unclaimed members, and
// idle runners parking until a dispatch of their width wakes them,
// included), and the platform daemon's tenant
// interface — slack handoff, the ShrunkToFit oscillation guard, the
// demand path that hands unassigned threads to a queued arrival, and the
// SLO arbitration pass (violator gains from meeter, hand-back on load
// drop, the looser target giving way to the tighter one, a backlogged
// tighter target taking its shortfall before it violates) — plus the
// percentile-cache regression for the stats layer.
//
//===----------------------------------------------------------------------===//

#include "morta/Platform.h"
#include "serve/Admission.h"
#include "serve/Arrival.h"
#include "serve/ServeLoop.h"
#include "sim/Machine.h"
#include "support/RankedSamples.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
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

TEST(Arrival, TraceEndsSkipsZeroRate) {
  // 0.5 s of silence, then 0.5 s at 1000/s.
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

/// A single-task DOANY service region: each iteration costs \p Cost
/// cycles, and each worker pays \p ContextLoad once at launch.
rt::FlexibleRegion makeServiceRegion(const std::string &Name,
                                     sim::SimTime Cost,
                                     sim::SimTime ContextLoad = 0) {
  rt::FlexibleRegion R(Name);
  rt::RegionDesc D;
  D.Name = Name + "-par";
  D.S = rt::Scheme::DoAny;
  D.Tasks.emplace_back("work", rt::TaskType::Par,
                       [Cost](rt::IterationContext &Ctx) { Ctx.Cost = Cost; });
  D.Tasks.back().InitCost = ContextLoad;
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

/// A DoAny@2 service class of 32 iterations of 60 us each.
RequestClassDesc fitClass() {
  RequestClassDesc D;
  D.Name = "fit";
  D.MakeRegion = [](const ServeRequest &) {
    return makeServiceRegion("fit", 60000);
  };
  D.ItersPerRequest = 32;
  D.Config = {rt::Scheme::DoAny, {2}};
  return D;
}

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
  // behind them form the backlog the two warm runners take in place,
  // four at a time.
  occupyEverySlot(Serve, Idx);
  for (int I = 0; I < 8; ++I)
    EXPECT_TRUE(Serve.inject(Idx));
  EXPECT_EQ(Serve.queueDepth(Idx), 8u);
  Sim.run();

  const BatchStats &B = Serve.batchStats(Idx);
  EXPECT_EQ(B.Batches, 2u);
  EXPECT_EQ(B.InPlaceBatches, 2u);
  EXPECT_EQ(B.BatchedRequests, 10u);
  EXPECT_EQ(B.SizeCloses, 2u);
  EXPECT_EQ(B.formed() - B.SizeCloses, 2u) << "the two underfull singletons";
  EXPECT_EQ(B.TimerCloses, 0u);
  EXPECT_EQ(B.SloCloses, 0u);
  EXPECT_DOUBLE_EQ(B.OccupancyH.max(), 4.0);
  EXPECT_DOUBLE_EQ(B.requestsPerRegion(), 5.0);
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
  EXPECT_GT(Serve.batchStats(Idx).InPlaceBatches, 0u)
      << "no batch was taken in place: the probes never crossed a refill";
  EXPECT_GT(Serve.batchStats(Idx).Wakes, 0u)
      << "no parked runner woke: the probes never crossed a park and wake";
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

  // Requests 1 and 2 take the idle slots alone; 3..6 queue behind them.
  // The first runner to run dry takes them in place as one batch of
  // four and claims request 3's first iterations. The second runs dry
  // just after with nothing queued and steals the oldest half of the
  // three unclaimed members, rounded up: requests 4 and 5. The first
  // runner keeps 3 and 6.
  occupyEverySlot(Serve, Idx);
  std::map<std::uint64_t, sim::SimTime> Done;
  std::map<std::uint64_t, sim::SimTime> Started;
  Serve.OnRequestDone = [&](const ServeRequest &R) {
    if (R.Id <= 2)
      return;
    EXPECT_TRUE(Done.emplace(R.Id, R.CompletedAt).second)
        << "request " << R.Id << " finished twice";
    Started[R.Id] = R.StartedAt;
  };
  for (int I = 0; I < 4; ++I)
    EXPECT_TRUE(Serve.inject(Idx));
  Sim.run();

  // One batch of four, but four per-request completions: each member was
  // attributed when its runner crossed the member's iteration watermark,
  // not when the whole batch turned around. Each runner completes its
  // two members at successive watermarks, one request's work (four
  // 0.5 ms iterations over two workers) apart, and the two runners do
  // so in step.
  ASSERT_EQ(Done.size(), 4u);
  EXPECT_EQ(Done[3], 2015280u);
  EXPECT_EQ(Done[4], 2015280u);
  EXPECT_EQ(Done[5], 3015420u);
  EXPECT_EQ(Done[6], 3015420u);
  EXPECT_LT(Done[3], Done[6]) << "the victim's members must complete at"
                                 " successive watermarks";
  EXPECT_LT(Done[4], Done[5]) << "the thief's members must complete at"
                                 " successive watermarks";
  for (std::uint64_t Id = 4; Id <= 6; ++Id)
    EXPECT_EQ(Started[Id], Started[3]) << "taken as one batch";
  const ServeLoop::ClassStats &S = Serve.stats(Idx);
  EXPECT_EQ(S.Completed, 6u);
  EXPECT_EQ(S.TotalUs.count(), 6u) << "one latency sample per request";
  // No member paid for the whole batch: each runner's first member was
  // served in one request's work, its second in two.
  EXPECT_EQ((Done[3] - Started[3]) * 2, Done[6] - Started[6]);
  EXPECT_EQ((Done[4] - Started[4]) * 2, Done[5] - Started[5]);
  const BatchStats &B = Serve.batchStats(Idx);
  EXPECT_EQ(B.Batches, 2u);
  EXPECT_EQ(B.InPlaceBatches, 1u);
  EXPECT_EQ(B.SizeCloses, 1u);
  EXPECT_EQ(B.Steals, 1u);
  EXPECT_EQ(B.StolenRequests, 2u);
}

/// One `steal` trace instant: its class, members moved, and the victim's
/// and thief's dispatch serials.
struct StealInstant {
  std::string Class;
  std::uint64_t Members = 0, Victim = 0, Thief = 0;
};

std::vector<StealInstant> stealInstants(const telemetry::TraceRecorder &Rec) {
  std::vector<StealInstant> Out;
  for (const telemetry::TraceEvent &E : Rec.events()) {
    if (E.Name != "steal")
      continue;
    StealInstant S;
    for (const telemetry::TraceArg &A : E.Args) {
      if (A.Key == "class")
        S.Class = A.Str;
      else if (A.Key == "members")
        S.Members = static_cast<std::uint64_t>(A.Num);
      else if (A.Key == "victim")
        S.Victim = static_cast<std::uint64_t>(A.Num);
      else if (A.Key == "thief")
        S.Thief = static_cast<std::uint64_t>(A.Num);
    }
    Out.push_back(S);
  }
  return Out;
}

/// A 0.5 ms-per-iteration, four-iteration, DoAny@2 class batching up to 8.
RequestClassDesc stealClass() {
  RequestClassDesc D = fitClass();
  D.Name = "steal";
  D.MakeRegion = [](const ServeRequest &) {
    return makeServiceRegion("steal", 500000);
  };
  D.ItersPerRequest = 4;
  D.Batch.MaxBatch = 8;
  return D;
}

TEST(ServeLoopBatch, DryRunnerStealsOldestUnclaimedMembers) {
  // Three runners on six cores, started 0.2 ms apart, each with one
  // request of four 0.5 ms iterations. Runner A runs dry first and takes
  // requests 4..7 in place; runner B runs dry next and takes 8..12. Each
  // starts claiming its first new member at once. Runner C runs dry with
  // nothing queued: A holds three unclaimed members (5, 6, 7), B four
  // (9..12), but A holds the oldest, so A is the victim. C takes the
  // oldest half of A's three, rounded up: 5 and 6. Request 4, whose
  // iterations A has begun, never moves.
  telemetry::TraceRecorder Rec;
  telemetry::setRecorder(&Rec);
  sim::Simulator Sim;
  sim::Machine M(Sim, 6);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(6);
  ServeLoop Serve(M, Costs, Daemon);
  unsigned Idx = Serve.addClass(stealClass());
  std::map<std::uint64_t, ServeRequest> Done;
  Serve.OnRequestDone = [&](const ServeRequest &R) {
    EXPECT_TRUE(Done.emplace(R.Id, R).second)
        << "request " << R.Id << " finished twice";
  };
  auto InjectAt = [&](sim::SimTime At, int N) {
    Sim.scheduleAt(At, [&Serve, Idx, N] {
      for (int I = 0; I < N; ++I)
        EXPECT_TRUE(Serve.inject(Idx));
    });
  };
  InjectAt(0, 1);                // 1 -> A
  InjectAt(200 * sim::USec, 1);  // 2 -> B
  InjectAt(400 * sim::USec, 1);  // 3 -> C
  InjectAt(500 * sim::USec, 4);  // 4..7 queue for A
  InjectAt(1100 * sim::USec, 5); // 8..12 queue for B
  Sim.run();
  telemetry::setRecorder(nullptr);

  const ServeLoop::ClassStats &S = Serve.stats(Idx);
  const BatchStats &B = Serve.batchStats(Idx);
  EXPECT_EQ(S.Admitted, 12u);
  EXPECT_EQ(S.Admitted, S.Completed + S.Shed);
  EXPECT_EQ(Serve.inFlightRequests(Idx), 0u);
  EXPECT_EQ(B.Batches, 3u);
  EXPECT_EQ(B.InPlaceBatches, 2u);
  ASSERT_EQ(Done.size(), 12u);
  std::vector<StealInstant> Log = stealInstants(Rec);
  ASSERT_FALSE(Log.empty()) << "no runner stole";
  EXPECT_EQ(Log.size(), B.Steals);
  std::uint64_t Moved = 0;
  for (const StealInstant &St : Log) {
    EXPECT_EQ(St.Class, "steal");
    EXPECT_GT(St.Members, 0u) << "a steal moved no member";
    EXPECT_NE(St.Victim, St.Thief);
    Moved += St.Members;
  }
  EXPECT_EQ(Moved, B.StolenRequests);
  // The first steal: C (serial 2) from A (serial 0), not from B (serial
  // 1, more unclaimed members but younger ones), ceil(3 / 2) members.
  EXPECT_EQ(Log.front().Thief, 2u);
  EXPECT_EQ(Log.front().Victim, 0u);
  EXPECT_EQ(Log.front().Members, 2u);
  // 4, claimed before the steal, completes on A at A's next watermark,
  // first of A's batch; C serves 5 and 6 at its successive watermarks,
  // so 7, which A kept, completes before 6 instead of two requests'
  // work after it.
  for (std::uint64_t Id = 5; Id <= 7; ++Id)
    EXPECT_LT(Done[4].CompletedAt, Done[Id].CompletedAt) << "request " << Id;
  EXPECT_LT(Done[5].CompletedAt, Done[6].CompletedAt);
  EXPECT_LT(Done[7].CompletedAt, Done[6].CompletedAt);
  for (const auto &[Id, R] : Done)
    EXPECT_TRUE(R.completed()) << "request " << Id;
}

TEST(ServeLoopBatch, RunnerOverItsGrantDrainsInsteadOfStealing) {
  // Two runners on four cores, started 0.2 ms apart. The first runs dry
  // and takes requests 3..6 in place; the second runs dry next with
  // nothing queued. With its grant intact it steals two of the first
  // runner's three unclaimed members. When a second class registers
  // first, halving the grant (4 -> 2), the class holds more than its
  // grant: the dry runner drains instead, so the shrunk grant gets its
  // threads back, and the first runner serves its batch alone.
  for (bool Shrink : {false, true}) {
    SCOPED_TRACE(Shrink ? "grant shrunk" : "grant intact");
    sim::Simulator Sim;
    sim::Machine M(Sim, 4);
    rt::RuntimeCosts Costs;
    rt::PlatformDaemon Daemon(4);
    ServeLoop Serve(M, Costs, Daemon);
    RequestClassDesc D = stealClass();
    D.Batch.MaxBatch = 4;
    unsigned Idx = Serve.addClass(std::move(D));
    Sim.scheduleAt(0, [&] { EXPECT_TRUE(Serve.inject(Idx)); });
    Sim.scheduleAt(200 * sim::USec, [&] { EXPECT_TRUE(Serve.inject(Idx)); });
    Sim.scheduleAt(500 * sim::USec, [&] {
      for (int I = 0; I < 4; ++I)
        EXPECT_TRUE(Serve.inject(Idx));
    });
    if (Shrink)
      Sim.scheduleAt(1100 * sim::USec, [&] {
        RequestClassDesc Other = fitClass();
        Other.Name = "other";
        Serve.addClass(std::move(Other));
        EXPECT_EQ(Serve.budgetOf(Idx), 2u);
        EXPECT_EQ(Serve.threadsHeld(Idx), 4u);
      });
    // Sampled every 10 us until the work is done: the class's runners in
    // service while members of the first runner's batch are unfinished.
    unsigned MinInService = 2;
    while (Serve.stats(Idx).Completed < 6 && Sim.now() < 20 * sim::MSec) {
      Sim.runUntil(Sim.now() + 10 * sim::USec);
      if (Sim.now() > 1500 * sim::USec && Serve.inFlightRequests(Idx) >= 2)
        MinInService = std::min(MinInService, Serve.inService(Idx));
    }
    Sim.run();
    const BatchStats &B = Serve.batchStats(Idx);
    const ServeLoop::ClassStats &S = Serve.stats(Idx);
    EXPECT_EQ(S.Completed, 6u);
    EXPECT_EQ(S.Admitted, S.Completed + S.Shed);
    EXPECT_EQ(B.InPlaceBatches, 1u);
    if (Shrink) {
      EXPECT_EQ(B.Steals, 0u) << "a runner over its grant stole";
      EXPECT_EQ(MinInService, 1u) << "the dry runner did not drain";
      EXPECT_EQ(Serve.parkedRunners(Idx), 1u) << "only the first runner"
                                                 " outlives its work";
    } else {
      EXPECT_EQ(B.Steals, 1u);
      EXPECT_EQ(B.StolenRequests, 2u);
      EXPECT_EQ(MinInService, 2u);
      EXPECT_EQ(Serve.parkedRunners(Idx), 2u);
    }
  }
}

/// The batched live-migration scenario: 2000/s of 4-member batches on a
/// 4-core machine whose socket1 domain (cores 2, 3) warns at 45 ms and
/// fails at 50 ms. \p Done, when set, sees every finished request.
/// Returns the run's outcome counters for same-seed comparison.
auto runBatchedDrain(std::uint64_t Seed,
                     std::function<void(const ServeRequest &)> Done = {}) {
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
  Serve.OnRequestDone = std::move(Done);
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
}

TEST(ServeLoopBatch, BatchedDrainMigratesAllMembersDeterministically) {
  // The live-migration story with coalescing on: a migrated batch runner
  // carries every unfinished member request, and the whole world replays
  // byte-identically under one seed.
  auto A = runBatchedDrain(42), B = runBatchedDrain(42),
       C = runBatchedDrain(7);
  EXPECT_GT(std::get<0>(A), 100u);
  EXPECT_EQ(A, B) << "same seed must replay the batched drain identically";
  EXPECT_NE(A, C);
}

TEST(ServeLoopBatch, MigrateInstantsNameUnfinishedMembers) {
  // Each migrate instant names the oldest request its runner still
  // serves. A member completed at a watermark before the drain is
  // finished (and released), so naming it would misreport the migration.
  for (std::uint64_t Seed : {42u, 7u}) {
    telemetry::TraceRecorder Rec;
    telemetry::setRecorder(&Rec);
    // Request id -> trace length when it completed.
    std::map<std::uint64_t, std::size_t> DoneAt;
    runBatchedDrain(Seed, [&](const ServeRequest &R) {
      if (R.completed())
        DoneAt[R.Id] = Rec.size();
    });
    telemetry::setRecorder(nullptr);

    unsigned Migrates = 0;
    const std::vector<telemetry::TraceEvent> &Events = Rec.events();
    for (std::size_t I = 0; I < Events.size(); ++I) {
      if (Events[I].Name != "migrate")
        continue;
      ++Migrates;
      auto Arg = std::find_if(
          Events[I].Args.begin(), Events[I].Args.end(),
          [](const telemetry::TraceArg &A) { return A.Key == "request"; });
      ASSERT_NE(Arg, Events[I].Args.end());
      auto Id = static_cast<std::uint64_t>(Arg->Num);
      auto It = DoneAt.find(Id);
      ASSERT_NE(It, DoneAt.end()) << "migrated request " << Id
                                  << " never completed (seed " << Seed << ")";
      EXPECT_GT(It->second, I) << "migrate instant names request " << Id
                               << ", which had already completed (seed "
                               << Seed << ")";
    }
    EXPECT_GT(Migrates, 0u) << "no migrate instant traced (seed " << Seed
                            << ")";
  }
}

TEST(ServeLoopBatch, WarmRunnerTakesQueuedBatchInPlace) {
  // Both runners busy with singletons and eight requests queued: each
  // runner whose work runs dry takes the next four into its own region.
  // Only the two singletons pay for a region, thread spawns and the
  // 0.5 ms context load; the in-place members' warm workers carry on.
  constexpr sim::SimTime ContextLoad = 500 * sim::USec;
  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(4);
  ServeLoop Serve(M, Costs, Daemon);

  unsigned Regions = 0;
  RequestClassDesc D;
  D.Name = "warm";
  D.MakeRegion = [&Regions, ContextLoad](const ServeRequest &) {
    ++Regions;
    return makeServiceRegion("warm", 20000, ContextLoad);
  };
  D.ItersPerRequest = 4;
  D.Config = {rt::Scheme::DoAny, {2}};
  D.Batch.MaxBatch = 4;
  unsigned Idx = Serve.addClass(std::move(D));

  std::map<std::uint64_t, unsigned> Finished;
  std::map<std::uint64_t, sim::SimTime> Service;
  Serve.OnRequestDone = [&](const ServeRequest &R) {
    ++Finished[R.Id];
    if (R.completed())
      Service[R.Id] = R.CompletedAt - R.StartedAt;
  };
  occupyEverySlot(Serve, Idx);
  for (int I = 0; I < 8; ++I)
    EXPECT_TRUE(Serve.inject(Idx));

  // Every admitted request is queued, in flight, completed or shed at
  // every instant, refills included.
  unsigned Probes = 0;
  for (sim::SimTime T = 5 * sim::USec; T < 2 * sim::MSec; T += 5 * sim::USec)
    Sim.scheduleAt(T, [&] {
      const ServeLoop::ClassStats &S = Serve.stats(Idx);
      EXPECT_EQ(S.Admitted - S.Completed - S.Shed,
                Serve.queueDepth(Idx) + Serve.inFlightRequests(Idx))
          << "at t=" << Sim.now();
      ++Probes;
    });
  Sim.run();

  EXPECT_EQ(Probes, 399u);
  EXPECT_EQ(Regions, 2u) << "a queued batch started a new region";
  const BatchStats &B = Serve.batchStats(Idx);
  EXPECT_EQ(B.Batches, 2u);
  EXPECT_EQ(B.InPlaceBatches, 2u);
  EXPECT_EQ(Serve.stats(Idx).Completed, 10u);
  EXPECT_EQ(Serve.stats(Idx).Shed, 0u);
  ASSERT_EQ(Finished.size(), 10u);
  for (const auto &[Id, Count] : Finished)
    EXPECT_EQ(Count, 1u) << "request " << Id << " finished twice";
  for (const auto &[Id, T] : Service) {
    if (Id <= 2)
      EXPECT_GE(T, ContextLoad) << "cold request " << Id;
    else
      EXPECT_LT(T, ContextLoad) << "in-place request " << Id
                                << " paid a context load";
  }
}

TEST(ServeLoopBatch, RunnerOverItsGrantDoesNotRefill) {
  // The grant halves (4 -> 2) under backlog when a second class
  // registers. Warm runners refilling forever would keep all four
  // threads for as long as requests queue; a runner over its class's
  // grant drains instead, so the shrunk grant gets its threads back.
  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(4);
  ServeLoop Serve(M, Costs, Daemon);
  RequestClassDesc D = fitClass();
  D.ItersPerRequest = 4;
  D.Batch.MaxBatch = 4;
  unsigned Idx = Serve.addClass(std::move(D));
  occupyEverySlot(Serve, Idx);
  for (int I = 0; I < 60; ++I)
    EXPECT_TRUE(Serve.inject(Idx));
  ASSERT_EQ(Serve.threadsHeld(Idx), 4u);

  constexpr sim::SimTime ShrinkAt = 100 * sim::USec;
  Sim.scheduleAt(ShrinkAt, [&] {
    RequestClassDesc Other = fitClass();
    Other.Name = "other";
    Serve.addClass(std::move(Other));
  });
  sim::SimTime FitAt = 0;
  unsigned HeldAfter = 0;
  while (Serve.queueDepth(Idx) > 0 && Sim.now() < 50 * sim::MSec) {
    Sim.runUntil(Sim.now() + 10 * sim::USec);
    if (Sim.now() <= ShrinkAt)
      continue;
    ASSERT_EQ(Serve.budgetOf(Idx), 2u);
    if (!FitAt && Serve.threadsHeld(Idx) <= 2)
      FitAt = Sim.now();
    if (FitAt)
      HeldAfter = std::max(HeldAfter, Serve.threadsHeld(Idx));
  }
  ASSERT_NE(FitAt, 0u) << "the class kept the threads of its shrunk grant"
                          " while requests queued";
  EXPECT_LT(FitAt - ShrinkAt, sim::MSec);
  EXPECT_LE(HeldAfter, 2u);
  Sim.run();
  EXPECT_EQ(Serve.stats(Idx).Completed, 62u);
}

TEST(ServeLoopBatch, GrantRemainderRefitsInsteadOfRefilling) {
  // The grant grows 4 -> 5 under backlog, by less than one runner's
  // width. Two warm 2-wide runners refilling forever would hold it as 4
  // while requests queue; with a remainder below one runner's width,
  // a dry runner drains instead and pump re-fits it 3 wide.
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(8);
  ServeLoop Serve(M, Costs, Daemon);
  RequestClassDesc D = fitClass();
  D.ItersPerRequest = 4;
  D.Batch.MaxBatch = 4;
  unsigned Idx = Serve.addClass(std::move(D));
  // An idle class whose one runner is 3 wide: it registers at half the
  // machine, and the arbiter's shrink-to-fit hands its fourth thread to
  // the backlogged class.
  RequestClassDesc Idle = fitClass();
  Idle.Name = "idle";
  Idle.Config = {rt::Scheme::DoAny, {3}};
  Serve.addClass(std::move(Idle));
  ASSERT_EQ(Serve.budgetOf(Idx), 4u);
  for (int I = 0; I < 60; ++I)
    EXPECT_TRUE(Serve.inject(Idx));
  ASSERT_EQ(Serve.threadsHeld(Idx), 4u);

  Daemon.startArbiter(Sim, sim::MSec);
  sim::SimTime GrewAt = 0, FitAt = 0;
  while (Serve.queueDepth(Idx) > 0 && Sim.now() < 50 * sim::MSec) {
    Sim.runUntil(Sim.now() + 10 * sim::USec);
    if (!GrewAt && Serve.budgetOf(Idx) == 5)
      GrewAt = Sim.now();
    if (!FitAt && Serve.threadsHeld(Idx) == 5)
      FitAt = Sim.now();
  }
  Daemon.stopArbiter();
  Sim.run();
  ASSERT_NE(GrewAt, 0u) << "the grant never grew to 5";
  ASSERT_NE(FitAt, 0u) << "warm 2-wide runners held the 5-thread grant as 4"
                          " while requests queued";
  EXPECT_LT(FitAt - GrewAt, sim::MSec);
  EXPECT_EQ(Serve.stats(Idx).Completed, 60u);
}

//===----------------------------------------------------------------------===//
// ServeLoop parked runners
//===----------------------------------------------------------------------===//

/// fitClass() batching up to 4 per runner, each runner's workers paying
/// \p ContextLoad once, and \p Regions counting the regions built.
RequestClassDesc parkingClass(unsigned &Regions,
                              sim::SimTime ContextLoad = 0) {
  RequestClassDesc D = fitClass();
  D.MakeRegion = [&Regions, ContextLoad](const ServeRequest &) {
    ++Regions;
    return makeServiceRegion("fit", 60000, ContextLoad);
  };
  D.Batch.MaxBatch = 4;
  return D;
}

TEST(ServeLoopBatch, ParkedRunnerServesNextRequestWithoutSpinUp) {
  // One request, an idle gap, then a second request. The first runner's
  // work runs dry with nothing queued, so it parks instead of draining;
  // the second request wakes it, and its warm workers skip the region
  // build, the thread spawns and the 0.5 ms context load.
  constexpr sim::SimTime ContextLoad = 500 * sim::USec;
  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(4);
  ServeLoop Serve(M, Costs, Daemon);
  unsigned Regions = 0;
  RequestClassDesc D = parkingClass(Regions, ContextLoad);
  D.ItersPerRequest = 4;
  unsigned Idx = Serve.addClass(std::move(D));

  std::vector<ServeRequest> Done;
  Serve.OnRequestDone = [&](const ServeRequest &R) { Done.push_back(R); };
  EXPECT_TRUE(Serve.inject(Idx));
  Sim.run();
  ASSERT_EQ(Done.size(), 1u);
  EXPECT_EQ(Serve.parkedRunners(Idx), 1u);

  Sim.scheduleAt(Sim.now() + 10 * sim::MSec,
                 [&] { EXPECT_TRUE(Serve.inject(Idx)); });
  Sim.run();
  ASSERT_EQ(Done.size(), 2u);
  EXPECT_EQ(Regions, 1u) << "the second request built a region";
  EXPECT_EQ(Serve.batchStats(Idx).Wakes, 1u);
  sim::SimTime Cold = Done[0].CompletedAt - Done[0].StartedAt;
  sim::SimTime Warm = Done[1].CompletedAt - Done[1].StartedAt;
  EXPECT_GE(Cold, ContextLoad);
  EXPECT_LT(Warm, ContextLoad) << "the woken runner paid a context load";
  // Four iterations of 60 us over two workers, plus the wake itself.
  EXPECT_LT(Warm, 2 * 60 * sim::USec + 10 * sim::USec);
}

TEST(ServeLoopBatch, ParkedRunnerHoldsNoThreads) {
  // Four runners park after their requests. Parked, they hold no thread,
  // serve no request and occupy no core, so their class reports one
  // runner's worth of demand and a backlogged second class is granted
  // every other thread of the machine, and keeps all of them busy.
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(8);
  ServeLoop Serve(M, Costs, Daemon);
  unsigned Regions = 0;
  unsigned Idx = Serve.addClass(parkingClass(Regions));
  ASSERT_EQ(Serve.budgetOf(Idx), 8u);
  for (int I = 0; I < 4; ++I)
    EXPECT_TRUE(Serve.inject(Idx));
  EXPECT_EQ(Serve.threadsHeld(Idx), 8u);
  Sim.run();
  EXPECT_EQ(Serve.stats(Idx).Completed, 4u);
  EXPECT_EQ(Serve.parkedRunners(Idx), 4u);
  EXPECT_EQ(Serve.threadsHeld(Idx), 0u);
  EXPECT_EQ(Serve.inService(Idx), 0u);
  EXPECT_EQ(Serve.inFlightRequests(Idx), 0u);
  EXPECT_EQ(M.busyCores(), 0u);

  RequestClassDesc Other = fitClass();
  Other.Name = "other";
  unsigned OtherIdx = Serve.addClass(std::move(Other));
  for (int I = 0; I < 40; ++I)
    Serve.inject(OtherIdx);
  Daemon.startArbiter(Sim, sim::MSec);
  unsigned MaxBusy = 0;
  for (sim::SimTime T = Sim.now(); Sim.now() < T + 5 * sim::MSec;) {
    Sim.runUntil(Sim.now() + 10 * sim::USec);
    MaxBusy = std::max(MaxBusy, M.busyCores());
  }
  EXPECT_EQ(Serve.budgetOf(Idx), 2u) << "the parked class kept its threads";
  EXPECT_EQ(Serve.budgetOf(OtherIdx), 6u);
  EXPECT_EQ(Serve.threadsHeld(OtherIdx), 6u);
  EXPECT_EQ(MaxBusy, 6u);
  EXPECT_EQ(Serve.parkedRunners(Idx), 4u);
  Daemon.stopArbiter();
  Sim.run();
  EXPECT_EQ(Serve.stats(OtherIdx).Completed, 40u);
}

TEST(ServeLoopBatch, WakeFitsTheGrantWidth) {
  // Three 2-wide runners park. Their class is shrunk to fit one runner,
  // then three requests in one event grow its grant to 7: the first two
  // wake two of the parked runners and leave a 3-thread remainder. Pump
  // builds a 3-wide runner for the third request instead of waking the
  // third 2-wide one, so the class holds its whole grant.
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(8);
  ServeLoop Serve(M, Costs, Daemon);
  unsigned Regions = 0;
  unsigned Idx = Serve.addClass(parkingClass(Regions));
  for (int I = 0; I < 3; ++I)
    EXPECT_TRUE(Serve.inject(Idx));
  Sim.run();
  ASSERT_EQ(Serve.parkedRunners(Idx), 3u);
  ASSERT_EQ(Regions, 3u);

  // An idle 1-wide class: the first tick shrinks both classes to one
  // runner's worth (2 and 1), leaving five threads unassigned.
  RequestClassDesc Idle = fitClass();
  Idle.Name = "idle";
  Idle.Config = {rt::Scheme::DoAny, {1}};
  Serve.addClass(std::move(Idle));
  Daemon.startArbiter(Sim, sim::MSec);
  Sim.runUntil(Sim.now() + 1500 * sim::USec);
  ASSERT_EQ(Serve.budgetOf(Idx), 2u);

  unsigned HeldAfter = 0, BudgetAfter = 0;
  Sim.schedule(0, [&] {
    for (int I = 0; I < 3; ++I)
      EXPECT_TRUE(Serve.inject(Idx));
    HeldAfter = Serve.threadsHeld(Idx);
    BudgetAfter = Serve.budgetOf(Idx);
  });
  Sim.runUntil(Sim.now() + 1);
  EXPECT_EQ(BudgetAfter, 7u);
  EXPECT_EQ(HeldAfter, 7u) << "a parked runner narrower than the remainder"
                              " took it";
  EXPECT_EQ(Regions, 4u);
  EXPECT_EQ(Serve.batchStats(Idx).Wakes, 2u);
  EXPECT_EQ(Serve.parkedRunners(Idx), 1u);
  Daemon.stopArbiter();
  Sim.run();
  EXPECT_EQ(Serve.stats(Idx).Completed, 6u);
}

TEST(ServeLoopBatch, DomainWarningClosesParkedRunners) {
  // Two runners park early. Shortly before socket1 (cores 2 and 3) warns,
  // a request wakes one of them. The warning closes the other: it
  // completes with no member and is reaped, and only the woken runner's
  // member migrates. When the drain is done no runner is parked, so none
  // can wake onto the doomed domain; the migrated runner parks again
  // once its member is done, on the surviving cores.
  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  sim::FaultPlan Plan;
  Plan.addDomain("socket1", {2, 3}, /*At=*/50 * sim::MSec,
                 /*Downtime=*/30 * sim::MSec, /*Warning=*/5 * sim::MSec);
  M.installFaultPlan(std::move(Plan));
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(4);
  ServeLoop Serve(M, Costs, Daemon);
  unsigned Regions = 0;
  unsigned Idx = Serve.addClass(parkingClass(Regions));
  std::map<std::uint64_t, unsigned> Finished;
  Serve.OnRequestDone = [&](const ServeRequest &R) {
    EXPECT_TRUE(R.completed()) << "request " << R.Id;
    ++Finished[R.Id];
  };

  for (int I = 0; I < 2; ++I)
    EXPECT_TRUE(Serve.inject(Idx));
  Sim.runUntil(44500 * sim::USec);
  ASSERT_EQ(Serve.parkedRunners(Idx), 2u);
  EXPECT_TRUE(Serve.inject(Idx)); // ~1 ms of work: in flight at 45 ms
  EXPECT_EQ(Serve.parkedRunners(Idx), 1u);
  EXPECT_EQ(Serve.inService(Idx), 1u);

  while (Serve.drainsCompleted() == 0 && Sim.now() < 50 * sim::MSec)
    Sim.runUntil(Sim.now() + sim::USec);
  ASSERT_EQ(Serve.drainsCompleted(), 1u);
  EXPECT_EQ(Serve.parkedRunners(Idx), 0u) << "a parked runner outlived the"
                                             " warning";
  EXPECT_EQ(Serve.migrations(), 1u) << "only the woken runner's member";
  EXPECT_EQ(Serve.inService(Idx), 1u);

  Sim.scheduleAt(60 * sim::MSec, [&] { EXPECT_TRUE(Serve.inject(Idx)); });
  Sim.run();
  EXPECT_EQ(M.onlineCores(), 4u);
  EXPECT_EQ(Regions, 2u);
  EXPECT_EQ(Serve.batchStats(Idx).Wakes, 2u);
  EXPECT_EQ(Serve.parkedRunners(Idx), 1u);
  const ServeLoop::ClassStats &S = Serve.stats(Idx);
  EXPECT_EQ(S.Completed, 4u);
  ASSERT_EQ(Finished.size(), 4u);
  for (const auto &[Id, Count] : Finished)
    EXPECT_EQ(Count, 1u) << "request " << Id << " finished twice";
  EXPECT_EQ(Serve.inFlightRequests(Idx), 0u);
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

TEST(ServeLoop, RecentLatencyProbeMatchesHistogramAndAgesOut) {
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

  double P95 = Serve.recentLatencySec(Idx, 95);
  EXPECT_GT(P95, 0.0);
  // Every completion is still in the window: the ranked window and the
  // sorted whole-run histogram agree on the nearest-rank value.
  EXPECT_NEAR(P95, Serve.stats(Idx).TotalUs.percentile(95) / 1e6, 1e-9);
  EXPECT_LE(Serve.recentLatencySec(Idx, 50), P95);

  // A new completion joins the window; the probe still matches.
  EXPECT_TRUE(Serve.inject(Idx));
  Sim.run();
  EXPECT_NEAR(Serve.recentLatencySec(Idx, 95),
              Serve.stats(Idx).TotalUs.percentile(95) / 1e6, 1e-9);

  // Once the window ages out, the probe reports no signal.
  Sim.runUntil(Sim.now() + 200 * sim::MSec);
  EXPECT_LT(Serve.recentLatencySec(Idx, 95), 0.0);
}

TEST(ServeLoop, QueuedArrivalTakesUnassignedThreadsAtOnce) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(8);
  ServeLoop Serve(M, Costs, Daemon);

  auto Class = [](const char *Name) {
    RequestClassDesc D;
    D.Name = Name;
    D.MakeRegion = [Name](const ServeRequest &) {
      return makeServiceRegion(Name, 60000);
    };
    D.ItersPerRequest = 32; // about 1 ms on one 2-wide runner
    D.Config = {rt::Scheme::DoAny, {2}};
    return D;
  };
  unsigned Api = Serve.addClass(Class("api"));
  unsigned Batch = Serve.addClass(Class("batch"));
  ASSERT_EQ(Serve.budgetOf(Api), 4u);

  // Idle, both classes report one runner's worth: the first tick shrinks
  // each to fit and leaves half the machine unassigned.
  Daemon.startArbiter(Sim, sim::MSec);
  Sim.runUntil(2 * sim::MSec + 500 * sim::USec);
  ASSERT_EQ(Serve.budgetOf(Api), 2u);
  ASSERT_EQ(Serve.budgetOf(Batch), 2u);

  // Two api requests in one event, halfway between ticks: the first
  // takes the class's only slot, the second queues and must be handed
  // the unassigned threads within the same arrival.
  std::vector<ServeRequest> Done;
  Serve.OnRequestDone = [&](const ServeRequest &R) { Done.push_back(R); };
  unsigned BudgetAfter = 0;
  Sim.schedule(0, [&] {
    EXPECT_TRUE(Serve.inject(Api));
    EXPECT_TRUE(Serve.inject(Api));
    BudgetAfter = Serve.budgetOf(Api);
  });
  Sim.runUntil(10 * sim::MSec);
  Daemon.stopArbiter();
  Sim.run();

  EXPECT_GT(BudgetAfter, 2u);
  ASSERT_EQ(Done.size(), 2u);
  for (const ServeRequest &R : Done) {
    EXPECT_EQ(R.StartedAt, R.ArrivedAt) << "request " << R.Id << " queued";
    EXPECT_EQ(R.ArrivedAt, 2 * sim::MSec + 500 * sim::USec);
  }
  EXPECT_EQ(Serve.stats(Api).QueueWaitUs.max(), 0.0);
}

TEST(ServeLoop, BackloggedClassMeetingItsSloReachesDemandInOneTick) {
  // Deadline-monotonic grants: a class with the tighter SLO that has to
  // queue takes the threads it needs from the looser class at the next
  // arbiter tick, while it still meets its SLO, instead of queueing until
  // its latency violates.
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(8);
  ServeLoop Serve(M, Costs, Daemon);

  RequestClassDesc A = fitClass();
  A.Name = "api";
  A.Slo = {95.0, 10 * sim::MSec};
  unsigned Api = Serve.addClass(std::move(A));
  RequestClassDesc B;
  B.Name = "bulk";
  B.MakeRegion = [](const ServeRequest &) {
    return makeServiceRegion("bulk", 150000);
  };
  B.ItersPerRequest = 64; // about 4.8 ms on one 2-wide runner
  B.Config = {rt::Scheme::DoAny, {2}};
  B.Slo = {95.0, 60 * sim::MSec};
  unsigned Bulk = Serve.addClass(std::move(B));

  // A bulk backlog takes every thread idle api does not need: the first
  // tick shrinks api to one runner's worth and hands the rest to bulk.
  for (int I = 0; I < 10; ++I)
    EXPECT_TRUE(Serve.inject(Bulk));
  Daemon.startArbiter(Sim, sim::MSec);
  Sim.runUntil(2 * sim::MSec + 500 * sim::USec);
  ASSERT_EQ(Serve.budgetOf(Api), 2u);
  ASSERT_EQ(Serve.budgetOf(Bulk), 6u);

  // Three api requests in one event: one starts, two queue, so api needs
  // three runners (6 threads). No thread is unassigned, so the arrival's
  // demand report moves nothing.
  std::vector<ServeRequest> Done;
  Serve.OnRequestDone = [&](const ServeRequest &R) {
    if (R.ClassIdx == Api)
      Done.push_back(R);
  };
  Sim.schedule(0, [&] {
    for (int I = 0; I < 3; ++I)
      EXPECT_TRUE(Serve.inject(Api));
  });
  Sim.runUntil(2 * sim::MSec + 600 * sim::USec);
  ASSERT_EQ(Serve.queueDepth(Api), 2u);
  ASSERT_EQ(Serve.budgetOf(Api), 2u);

  // The next tick grants api its demand while it meets its SLO, and both
  // queued requests start then.
  Sim.runUntil(3 * sim::MSec + sim::USec);
  EXPECT_EQ(Serve.budgetOf(Api), 6u);
  EXPECT_EQ(Serve.budgetOf(Bulk), 2u);
  EXPECT_EQ(Serve.queueDepth(Api), 0u);
  ASSERT_EQ(Daemon.sloTransfers().size(), 4u);
  for (const auto &T : Daemon.sloTransfers()) {
    EXPECT_EQ(T.From, "bulk");
    EXPECT_EQ(T.To, "api");
    EXPECT_EQ(T.Why, rt::PlatformDaemon::SloReason::Backlog);
    EXPECT_EQ(T.At, 3 * sim::MSec);
  }

  Daemon.stopArbiter();
  Sim.run();
  ASSERT_EQ(Done.size(), 3u);
  unsigned StartedAtTick = 0;
  for (const ServeRequest &R : Done) {
    EXPECT_LE(R.totalLatency(), 10 * sim::MSec) << "request " << R.Id;
    StartedAtTick += R.StartedAt == 3 * sim::MSec;
  }
  EXPECT_EQ(StartedAtTick, 2u);
  EXPECT_EQ(Serve.stats(Bulk).Completed, 10u);
}

//===----------------------------------------------------------------------===//
// ServeLoop runner widths fitted to the grant
//===----------------------------------------------------------------------===//

TEST(ServeLoop, LoneRequestFillsAnOddGrant) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(3);
  ServeLoop Serve(M, Costs, Daemon);
  unsigned Idx = Serve.addClass(fitClass());
  ASSERT_EQ(Serve.budgetOf(Idx), 3u);

  std::vector<ServeRequest> Done;
  Serve.OnRequestDone = [&](const ServeRequest &R) { Done.push_back(R); };
  EXPECT_TRUE(Serve.inject(Idx));
  EXPECT_EQ(Serve.threadsHeld(Idx), 3u) << "the third thread was stranded";
  Sim.run();
  EXPECT_EQ(Serve.threadsHeld(Idx), 0u);
  ASSERT_EQ(Done.size(), 1u);
  // Three workers split 32 iterations 11/11/10; two would need 16 each.
  sim::SimTime Service = Done[0].CompletedAt - Done[0].StartedAt;
  EXPECT_GE(Service, 11 * 60 * sim::USec);
  EXPECT_LT(Service, 16 * 60 * sim::USec) << "the request ran 2 wide";
}

TEST(ServeLoop, OneThreadGrantRunsOneThreadWide) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(1);
  ServeLoop Serve(M, Costs, Daemon);
  unsigned Idx = Serve.addClass(fitClass());
  ASSERT_EQ(Serve.budgetOf(Idx), 1u);

  for (int I = 0; I < 3; ++I)
    EXPECT_TRUE(Serve.inject(Idx));
  unsigned MaxHeld = 0, MaxBusy = 0;
  while ((Serve.queueDepth(Idx) || Serve.inService(Idx)) &&
         Sim.now() < 100 * sim::MSec) {
    MaxHeld = std::max(MaxHeld, Serve.threadsHeld(Idx));
    MaxBusy = std::max(MaxBusy, M.busyCores());
    Sim.runUntil(Sim.now() + 10 * sim::USec);
  }
  EXPECT_EQ(MaxHeld, 1u);
  EXPECT_EQ(MaxBusy, 1u) << "a 2-wide runner ran on a 1-thread grant";
  EXPECT_EQ(Serve.stats(Idx).Completed, 3u);
}

TEST(ServeLoop, UnbatchedClassStartsOneRegionPerRequest) {
  // MaxBatch = 1 keeps the pre-batching broker: under backlog every
  // request still starts its own region, and no runner refills.
  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(4);
  ServeLoop Serve(M, Costs, Daemon);
  unsigned Regions = 0;
  RequestClassDesc D = fitClass();
  D.MakeRegion = [&Regions](const ServeRequest &) {
    ++Regions;
    return makeServiceRegion("fit", 60000);
  };
  unsigned Idx = Serve.addClass(std::move(D));
  for (int I = 0; I < 10; ++I)
    EXPECT_TRUE(Serve.inject(Idx));
  EXPECT_EQ(Serve.queueDepth(Idx), 8u);
  Sim.run();

  EXPECT_EQ(Regions, 10u);
  const BatchStats &B = Serve.batchStats(Idx);
  EXPECT_EQ(B.Batches, 10u);
  EXPECT_EQ(B.InPlaceBatches, 0u);
  EXPECT_EQ(B.SizeCloses, 10u) << "singletons count as full batches of one";
  EXPECT_EQ(Serve.stats(Idx).Completed, 10u);
}

TEST(ServeLoop, DemandCountsThreadsHeld) {
  // A lone request on a 3-thread grant holds all three. Reported as one
  // 2-wide runner, the arbiter's shrink-to-fit would cut the grant to 2
  // under the running request; reported as threads held, it stays 3.
  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(3);
  ServeLoop Serve(M, Costs, Daemon);
  unsigned Idx = Serve.addClass(fitClass());
  Daemon.startArbiter(Sim, 100 * sim::USec);
  EXPECT_TRUE(Serve.inject(Idx));
  unsigned MinBudget = Serve.budgetOf(Idx);
  while (Serve.inService(Idx) && Sim.now() < 100 * sim::MSec) {
    Sim.runUntil(Sim.now() + 10 * sim::USec);
    if (Serve.inService(Idx))
      MinBudget = std::min(MinBudget, Serve.budgetOf(Idx));
  }
  Daemon.stopArbiter();
  Sim.run();
  EXPECT_EQ(MinBudget, 3u);
  EXPECT_EQ(Serve.stats(Idx).Completed, 1u);
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
    if (Demand)
      return Demand;
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
  /// Uncapped thread demand, reported as is when nonzero (a serving
  /// class with a backlog needs more threads than its grant); it takes
  /// precedence over Used.
  unsigned Demand = 0;
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

TEST(PlatformTenants, SloViolatorGainsFromLooserTargetThenShrinksToFit) {
  sim::Simulator Sim;
  rt::PlatformDaemon Daemon(8);
  FakeTenant Viol("viol"), Meet("meet");
  Viol.HasSlo = true;
  Viol.TargetSec = 1.0;
  Viol.LatencySec = 2.0; // ratio 2.0: violating
  Meet.HasSlo = true;
  Meet.TargetSec = 2.0; // looser: the violator's donor
  Meet.LatencySec = 0.4; // ratio 0.2: meeting
  Viol.WantsMore = true;
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
  }
  EXPECT_GT(T1.back().At, T1.front().At); // stamped with arbiter time

  // Load drops: the former violator needs 4 threads and meets its SLO,
  // and the donor can use more. Algorithm 5 shrinks the violator to its
  // need and gives the slack to the donor on the next tick; the split
  // then holds. Nothing returns the loans a second time.
  Viol.Used = 4;
  Viol.WantsMore = false;
  Viol.LatencySec = 0.3;
  Meet.WantsMore = true;
  for (unsigned Tick = 11; Tick <= 20; ++Tick) {
    Sim.runUntil(Tick * sim::MSec + sim::USec);
    EXPECT_EQ(Viol.Budget, 4u) << "tick " << Tick;
    EXPECT_EQ(Meet.Budget, 4u) << "tick " << Tick;
  }
  Daemon.stopArbiter();
  EXPECT_EQ(Daemon.sloTransfers().size(), 3u);
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
  Meet.TargetSec = 2.0; // looser, so a donor too
  Meet.LatencySec = 0.2;
  Viol.WantsMore = true;
  Daemon.addTenant(Viol);
  Daemon.addTenant(Meet);
  Daemon.addTenant(Plain);

  Daemon.startArbiter(Sim, sim::MSec);
  Sim.runUntil(sim::MSec + sim::USec);
  Daemon.stopArbiter();
  ASSERT_FALSE(Daemon.sloTransfers().empty());
  // Threads without an SLO attached are taken before squeezing a tenant
  // with a looser target.
  EXPECT_EQ(Daemon.sloTransfers().front().From, "plain");
  EXPECT_EQ(Daemon.sloTransfers().front().To, "viol");
}

TEST(PlatformTenants, TighterTargetTakesFromLooserViolator) {
  // Both violate, so neither has headroom to give: the looser target is
  // the last-resort donor of the tighter one, and never the reverse.
  auto Violate = [](FakeTenant &T, double Target) {
    T.HasSlo = true;
    T.WantsMore = true;
    T.TargetSec = Target;
    T.LatencySec = 2 * Target; // ratio 2.0
  };
  {
    sim::Simulator Sim;
    rt::PlatformDaemon Daemon(8);
    FakeTenant Tight("tight"), Loose("loose");
    Violate(Tight, 0.010);
    Violate(Loose, 0.060);
    Daemon.addTenant(Loose);
    Daemon.addTenant(Tight);
    ASSERT_EQ(Tight.Budget, 4u);

    Daemon.startArbiter(Sim, sim::MSec);
    for (unsigned Tick = 1; Tick <= 3; ++Tick) {
      Sim.runUntil(Tick * sim::MSec + sim::USec);
      EXPECT_EQ(Tight.Budget, 4u + Tick);
      EXPECT_EQ(Loose.Budget, 4u - Tick);
    }
    // The looser tenant is at the minimum budget; more ticks move
    // nothing, in either direction, while both still violate.
    Sim.runUntil(10 * sim::MSec);
    Daemon.stopArbiter();
    EXPECT_EQ(Tight.Budget, 7u);
    EXPECT_EQ(Loose.Budget, 1u);
    ASSERT_EQ(Daemon.sloTransfers().size(), 3u);
    for (const auto &T : Daemon.sloTransfers()) {
      EXPECT_EQ(T.From, "loose");
      EXPECT_EQ(T.To, "tight");
    }
  }
  {
    // Equal targets: neither is looser, so neither donates.
    sim::Simulator Sim;
    rt::PlatformDaemon Daemon(8);
    FakeTenant A("a"), B("b");
    Violate(A, 0.010);
    Violate(B, 0.010);
    Daemon.addTenant(A);
    Daemon.addTenant(B);
    Daemon.startArbiter(Sim, sim::MSec);
    Sim.runUntil(5 * sim::MSec);
    Daemon.stopArbiter();
    EXPECT_TRUE(Daemon.sloTransfers().empty());
    EXPECT_EQ(A.Budget, 4u);
    EXPECT_EQ(B.Budget, 4u);
  }
}

TEST(PlatformTenants, ViolatorThatCannotUseThreadsTakesNone) {
  sim::Simulator Sim;
  rt::PlatformDaemon Daemon(8);
  // The violator has nothing it could run on another thread (a serving
  // class with an empty queue and a free slot): a looser-target donor
  // stands by, but no thread moves.
  FakeTenant Viol("viol"), Meet("meet");
  Viol.HasSlo = true;
  Viol.TargetSec = 1.0;
  Viol.LatencySec = 2.0;
  Viol.WantsMore = false;
  Meet.HasSlo = true;
  Meet.TargetSec = 2.0;
  Meet.LatencySec = 0.4;
  Daemon.addTenant(Viol);
  Daemon.addTenant(Meet);

  Daemon.startArbiter(Sim, sim::MSec);
  Sim.runUntil(5 * sim::MSec);
  Daemon.stopArbiter();
  EXPECT_TRUE(Daemon.sloTransfers().empty());
  EXPECT_EQ(Viol.Budget, 4u);
  EXPECT_EQ(Meet.Budget, 4u);
}

TEST(PlatformTenants, BackloggedTightTargetTakesShortfallBeforeViolating) {
  sim::Simulator Sim;
  rt::PlatformDaemon Daemon(16);
  // Both meet their targets, but the tight one has work queued that its
  // grant cannot start. It takes its whole shortfall from the looser
  // target at the next tick, before its latency crosses the target.
  FakeTenant Tight("tight"), Loose("loose");
  Tight.HasSlo = true;
  Tight.TargetSec = 0.010;
  Tight.LatencySec = 0.005; // ratio 0.5: meeting
  Tight.WantsMore = true;
  Tight.Demand = 12;
  Loose.HasSlo = true;
  Loose.TargetSec = 0.060;
  Loose.LatencySec = 0.030; // meeting too
  Daemon.addTenant(Tight);
  Daemon.addTenant(Loose);
  ASSERT_EQ(Tight.Budget, 8u);

  Daemon.startArbiter(Sim, sim::MSec);
  Sim.runUntil(sim::MSec + sim::USec);
  EXPECT_EQ(Tight.Budget, 12u) << "the shortfall took more than one tick";
  EXPECT_EQ(Loose.Budget, 4u);
  ASSERT_EQ(Daemon.sloTransfers().size(), 4u); // one record per thread
  for (const auto &T : Daemon.sloTransfers()) {
    EXPECT_EQ(T.From, "loose");
    EXPECT_EQ(T.To, "tight");
    EXPECT_EQ(T.Why, rt::PlatformDaemon::SloReason::Backlog);
    EXPECT_EQ(T.At, sim::MSec);
  }

  // A need past what the looser tenant can give: it gives down to the
  // minimum budget, again in one tick, and later ticks move nothing.
  Tight.Demand = 20;
  Sim.runUntil(2 * sim::MSec + sim::USec);
  EXPECT_EQ(Tight.Budget, 15u);
  EXPECT_EQ(Loose.Budget, 1u);
  Sim.runUntil(6 * sim::MSec);
  Daemon.stopArbiter();
  EXPECT_EQ(Tight.Budget, 15u);
  EXPECT_EQ(Loose.Budget, 1u);
  EXPECT_EQ(Daemon.sloTransfers().size(), 7u);
}

TEST(PlatformTenants, BacklogTakesNothingFromEqualOrTighterTarget) {
  // A backlogged tenant that meets its target takes only from looser
  // targets. An equal or tighter target keeps its threads.
  sim::Simulator Sim;
  rt::PlatformDaemon Daemon(12);
  FakeTenant Mid("mid"), Equal("equal"), Tighter("tighter"), Loose("loose");
  auto Slo = [](FakeTenant &T, double Target, double Ratio) {
    T.HasSlo = true;
    T.TargetSec = Target;
    T.LatencySec = Ratio * Target;
  };
  Slo(Mid, 0.010, 0.5);
  Mid.WantsMore = true;
  Mid.Demand = 12;
  Slo(Equal, 0.010, 0.1);
  Slo(Tighter, 0.005, 0.1);
  Slo(Loose, 0.060, 0.1);
  for (FakeTenant *T : {&Mid, &Equal, &Tighter, &Loose})
    Daemon.addTenant(*T);
  ASSERT_EQ(Mid.Budget, 3u);

  Daemon.startArbiter(Sim, sim::MSec);
  Sim.runUntil(5 * sim::MSec);
  Daemon.stopArbiter();
  EXPECT_EQ(Mid.Budget, 5u);
  EXPECT_EQ(Loose.Budget, 1u);
  EXPECT_EQ(Equal.Budget, 3u);
  EXPECT_EQ(Tighter.Budget, 3u);
  ASSERT_EQ(Daemon.sloTransfers().size(), 2u);
  for (const auto &T : Daemon.sloTransfers()) {
    EXPECT_EQ(T.From, "loose");
    EXPECT_EQ(T.At, sim::MSec);
  }
}

TEST(PlatformTenants, LooserViolatorNeverTakesFromTighterTarget) {
  // A looser target that violates while a tighter one is backlogged but
  // meeting its target gets nothing from it: threads flow only toward
  // the tighter deadline, so the two never trade a thread back and forth
  // tick after tick.
  sim::Simulator Sim;
  rt::PlatformDaemon Daemon(16);
  FakeTenant Tight("tight"), Loose("loose");
  Tight.HasSlo = true;
  Tight.TargetSec = 0.010;
  Tight.LatencySec = 0.002; // ratio 0.2: meeting
  Tight.WantsMore = true;
  Tight.Demand = 12;
  Loose.HasSlo = true;
  Loose.TargetSec = 0.060;
  Loose.LatencySec = 0.120; // ratio 2.0: violating
  Loose.WantsMore = true;
  Daemon.addTenant(Tight);
  Daemon.addTenant(Loose);
  ASSERT_EQ(Loose.Budget, 8u);

  Daemon.startArbiter(Sim, sim::MSec);
  unsigned LooseBudget = Loose.Budget;
  for (unsigned Tick = 1; Tick <= 10; ++Tick) {
    Sim.runUntil(Tick * sim::MSec + sim::USec);
    EXPECT_LE(Loose.Budget, LooseBudget) << "tick " << Tick;
    LooseBudget = Loose.Budget;
  }
  Daemon.stopArbiter();
  ASSERT_FALSE(Daemon.sloTransfers().empty());
  for (const auto &T : Daemon.sloTransfers()) {
    EXPECT_EQ(T.From, "loose");
    EXPECT_EQ(T.To, "tight");
  }
}

TEST(PlatformTenants, BacklogRuleSkipsSloFreeAndIdleTenants) {
  // The backlog rule serves latency promises: a tenant with no SLO gets
  // threads only through Algorithm 5's slack (not from another SLO-free
  // tenant), and an SLO tenant that does not want more (nothing queued)
  // takes nothing, whatever need it reports. Once it wants more, it
  // takes its shortfall at the next tick, SLO-free donors first, ties
  // to the larger budget.
  sim::Simulator Sim;
  rt::PlatformDaemon Daemon(16);
  FakeTenant Plain("plain"), Other("other"), Idle("idle"), Loose("loose");
  Plain.WantsMore = true;
  Plain.Demand = 8;
  Idle.HasSlo = true;
  Idle.TargetSec = 0.010;
  Idle.LatencySec = 0.002;
  Idle.Demand = 6;
  Loose.HasSlo = true;
  Loose.TargetSec = 0.060;
  Loose.LatencySec = 0.006;
  for (FakeTenant *T : {&Plain, &Other, &Idle, &Loose})
    Daemon.addTenant(*T);

  Daemon.startArbiter(Sim, sim::MSec);
  Sim.runUntil(5 * sim::MSec + sim::USec);
  EXPECT_TRUE(Daemon.sloTransfers().empty());
  for (FakeTenant *T : {&Plain, &Other, &Idle, &Loose})
    EXPECT_EQ(T->Budget, 4u) << T->Name;

  Idle.WantsMore = true;
  Sim.runUntil(6 * sim::MSec + sim::USec);
  Daemon.stopArbiter();
  EXPECT_EQ(Idle.Budget, 6u);
  EXPECT_EQ(Plain.Budget, 3u);
  EXPECT_EQ(Other.Budget, 3u);
  EXPECT_EQ(Loose.Budget, 4u);
  const auto &T = Daemon.sloTransfers();
  ASSERT_EQ(T.size(), 2u);
  EXPECT_EQ(T[0].From, "plain");
  EXPECT_EQ(T[1].From, "other");
  for (const auto &X : T) {
    EXPECT_EQ(X.To, "idle");
    EXPECT_EQ(X.Why, rt::PlatformDaemon::SloReason::Backlog);
  }
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

TEST(Stats, RankedSamplesMatchSortedPercentile) {
  // Nearest rank makes the order statistic exact: every percentile of
  // every size agrees with the sorted set, duplicates included, and
  // still does once the older half is erased by key (the SLO window
  // expires its oldest completions).
  Rng R(7);
  const double Ps[] = {0.0, 1.0, 33.3, 50.0, 95.0, 99.0, 99.9, 100.0};
  for (std::size_t N : {1u, 2u, 3u, 10u, 511u, 512u}) {
    SampleSet S, Newer;
    RankedSamples T;
    std::vector<RankedSamples::Key> Keys;
    for (std::size_t I = 0; I < N; ++I) {
      double X = static_cast<double>(R.nextBelow(50));
      S.add(X);
      if (I >= N / 2)
        Newer.add(X);
      Keys.push_back(T.insert(X));
    }
    for (double P : Ps)
      EXPECT_EQ(T.percentile(P), S.percentile(P)) << "n=" << N << " p=" << P;
    for (std::size_t I = 0; I < N / 2; ++I)
      T.erase(Keys[I]);
    ASSERT_EQ(T.size(), Newer.count());
    for (double P : Ps)
      EXPECT_EQ(T.percentile(P), Newer.percentile(P))
          << "after erasing, n=" << N << " p=" << P;
  }
  RankedSamples Empty;
  EXPECT_EQ(Empty.percentile(95), 0.0);
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
