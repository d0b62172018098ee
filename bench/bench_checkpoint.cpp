//===- bench_checkpoint.cpp - Region checkpoint, restore, and migration ----===//
//
// The checkpoint/restore subsystem end to end, in three scenarios:
//
// Default — hot restart across machines:
//
//   * machine A runs the 3-stage pipeline under the full controller until
//     35 ms, then checkpoints: the region quiesces under the pause/
//     give-back discipline, the snapshot (work cursor, source state,
//     enforced config, learned controller memory, chunk K) serializes to
//     text, and machine A is torn down;
//   * the snapshot round-trips through deserialize/re-serialize
//     byte-identically;
//   * machine B — a fresh simulator — restores it: the controller seeds
//     MONITOR straight from the snapshot (no INIT/CALIBRATE/OPTIMIZE) and
//     the region resumes at the cursor;
//   * the combined A+B retired output is compared element for element
//     against an uninterrupted reference run: exactly-once across the
//     migration.
//
// --drain — proactive migration off a doomed failure domain:
//
//   * a socket event takes cores 4-6 at 40 ms, announced 6 ms ahead
//     (sim/Faults.h Warning lead time), and repairs after 30 ms;
//   * the watchdog reacts to the warning by checkpointing the region,
//     offlining the doomed cores while the region holds no thread, and
//     resuming on the survivors — zero aborted iterations, zero stranded
//     threads, versus the reactive rescue + abort path of
//     bench_resilience;
//   * the budget shrinks across the drain and grows back after repair.
//
// --serve — live migration under open-loop traffic:
//
//   * two request classes on a 16-core machine (bench_serve's shape), a
//     3-core domain warning mid-overload;
//   * the serve loop checkpoints every in-flight request region, holds
//     dispatch, offlines the domain, and resumes each request where it
//     left off; admission and completion keep flowing throughout.
//
// Everything is seeded and virtual-time-driven: the same --seed gives
// byte-identical stdout and Chrome trace (scripts/check_checkpoint.sh
// asserts this over a seed sweep, plus the checkpoint/restore/migrate
// trace landmarks).
//
//===----------------------------------------------------------------------===//

#include "BenchFlags.h"
#include "checkpoint/Snapshot.h"
#include "core/Region.h"
#include "morta/Controller.h"
#include "morta/Platform.h"
#include "morta/Watchdog.h"
#include "serve/ServeLoop.h"
#include "sim/Faults.h"
#include "support/Rng.h"
#include "telemetry/ChromeTrace.h"

#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

using namespace parcae;
using namespace parcae::rt;
namespace sim = parcae::sim;

namespace {

constexpr std::uint64_t NumIters = 20000;
constexpr sim::SimTime CheckpointAt = 35 * sim::MSec;
constexpr sim::SimTime DomainAt = 40 * sim::MSec + 130 * sim::USec;
constexpr sim::SimTime DomainDowntime = 30 * sim::MSec;
constexpr sim::SimTime DomainWarning = 6 * sim::MSec;

double us(sim::SimTime T) { return static_cast<double>(T) / sim::USec; }

/// The pipeline under test (bench_resilience's shape): the tail pushes
/// every iteration's payload into \p Tail so output completeness and
/// ordering are checkable across a migration.
FlexibleRegion makeRegion(std::vector<std::int64_t> *Tail) {
  FlexibleRegion R("ckpt");
  {
    RegionDesc D;
    D.Name = "ckpt-pipe";
    D.S = Scheme::PsDswp;
    D.Tasks.emplace_back("produce", TaskType::Seq, [](IterationContext &C) {
      C.Cost = 1500;
      C.Out[0].Value = static_cast<std::int64_t>(C.Seq);
    });
    D.Tasks.emplace_back("work", TaskType::Par, [](IterationContext &C) {
      C.Cost = 24000;
      C.Out[0].Value = C.In[0].Value;
    });
    D.Tasks.emplace_back("commit", TaskType::Seq,
                         [Tail](IterationContext &C) {
                           C.Cost = 1000;
                           Tail->push_back(C.In[0].Value);
                         });
    D.Links.push_back({0, 1});
    D.Links.push_back({1, 2});
    R.addVariant(std::move(D));
  }
  {
    RegionDesc D;
    D.Name = "ckpt-seq";
    D.S = Scheme::Seq;
    D.Tasks.emplace_back("all", TaskType::Seq, [Tail](IterationContext &C) {
      C.Cost = 26500;
      Tail->push_back(static_cast<std::int64_t>(C.Seq));
    });
    R.addVariant(std::move(D));
  }
  return R;
}

bool Ok = true;
void check(bool Cond, const char *What) {
  if (!Cond) {
    std::printf("   FAIL: %s\n", What);
    Ok = false;
  }
}

//===----------------------------------------------------------------------===//
// Default mode: checkpoint on machine A, restore on machine B
//===----------------------------------------------------------------------===//

/// One uninterrupted run; returns the retired tail and completion time.
std::vector<std::int64_t> referenceRun(sim::SimTime *DoneAt) {
  std::vector<std::int64_t> Tail;
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  FlexibleRegion Region = makeRegion(&Tail);
  CountedWorkSource Src(NumIters);
  RuntimeCosts Costs;
  RegionRunner Runner(M, Costs, Region, Src);
  RegionController Ctrl(Runner);
  Runner.OnComplete = [&] { *DoneAt = Sim.now(); };
  Ctrl.start(8);
  Sim.runUntil(2 * sim::Sec);
  check(Runner.completed(), "reference run did not complete");
  return Tail;
}

int runMigrate(std::uint64_t Seed) {
  std::printf("== Checkpoint: hot restart — checkpoint machine A at"
              " %.0f ms, restore on machine B (seed=%llu) ==\n\n",
              us(CheckpointAt) / 1000.0,
              static_cast<unsigned long long>(Seed));

  sim::SimTime RefDoneAt = 0;
  std::vector<std::int64_t> Reference = referenceRun(&RefDoneAt);
  std::printf("   reference: completed at %.2f ms, %zu iterations"
              " retired\n",
              us(RefDoneAt) / 1000.0, Reference.size());

  // --- Machine A: run, checkpoint, tear down ---------------------------
  std::vector<std::int64_t> Tail;
  std::string Serialized;
  sim::SimTime QuiesceLatency = 0;
  unsigned CacheEntries = 0;
  {
    sim::Simulator Sim;
    sim::Machine M(Sim, 8);
    FlexibleRegion Region = makeRegion(&Tail);
    CountedWorkSource Src(NumIters);
    RuntimeCosts Costs;
    RegionRunner Runner(M, Costs, Region, Src);
    RegionController Ctrl(Runner);
    Ctrl.start(8);

    sim::SimTime RequestedAt = 0;
    Sim.scheduleAt(CheckpointAt, [&] {
      RequestedAt = Sim.now();
      bool Accepted = Ctrl.checkpointTo([&](ckpt::RegionSnapshot S) {
        QuiesceLatency = Sim.now() - RequestedAt;
        CacheEntries = static_cast<unsigned>(S.Ctrl.Cache.size());
        Serialized = S.serialize();
      });
      check(Accepted, "checkpoint request refused");
    });
    Sim.runUntil(CheckpointAt + 10 * sim::MSec);

    check(!Serialized.empty(), "no snapshot was captured");
    check(Runner.suspended(), "runner not suspended after the checkpoint");
    check(Ctrl.state() == CtrlState::Done,
          "controller not done after handing the region off");
    std::printf("   machine A: checkpointed %llu/%llu iterations at"
                " %.2f ms (quiesce %.0f us, %u checkpoint(s), snapshot"
                " %zu bytes, %u cached config(s))\n",
                static_cast<unsigned long long>(Runner.totalRetired()),
                static_cast<unsigned long long>(NumIters),
                us(CheckpointAt) / 1000.0, us(QuiesceLatency),
                Runner.checkpoints(), Serialized.size(), CacheEntries);
  } // machine A (simulator, machine, runner, controller) torn down

  // --- The wire format round-trips byte-identically --------------------
  ckpt::RegionSnapshot S;
  check(ckpt::RegionSnapshot::deserialize(Serialized, S),
        "snapshot failed to deserialize");
  check(S.serialize() == Serialized,
        "serialize/deserialize/serialize round trip not byte-identical");
  check(S.Cursor == Tail.size(),
        "snapshot cursor does not match the retired output");
  check(S.Ctrl.SeqThroughput > 0,
        "snapshot carries no sequential baseline");
  std::printf("   snapshot: region '%s', cursor %llu, config %s, chunk"
              " K=%llu; round trip byte-identical\n",
              S.Region.c_str(), static_cast<unsigned long long>(S.Cursor),
              S.Config.str().c_str(),
              static_cast<unsigned long long>(S.ChunkK));

  // --- Machine B: fresh simulator, restore, run to completion ----------
  sim::SimTime DoneAt = 0;
  {
    sim::Simulator Sim;
    sim::Machine M(Sim, 8);
    FlexibleRegion Region = makeRegion(&Tail);
    CountedWorkSource Src(0); // restoreState rewinds it to the snapshot
    RuntimeCosts Costs;
    RegionRunner Runner(M, Costs, Region, Src);
    RegionController Ctrl(Runner);
    Runner.OnComplete = [&] { DoneAt = Sim.now(); };
    Ctrl.startFromSnapshot(8, S);
    Sim.runUntil(2 * sim::Sec);

    check(Runner.completed(), "restored region did not complete");
    // No re-measurement: the restored controller only ever monitors.
    bool MonitorOnly = true;
    for (const RegionController::TraceEntry &E : Ctrl.trace())
      if (E.St != CtrlState::Monitor && E.St != CtrlState::Done)
        MonitorOnly = false;
    check(MonitorOnly,
          "restored controller re-entered a measurement state");
    std::printf("   machine B: restored at cursor %llu, completed at"
                " %.2f ms under %s (controller states: MONITOR only)\n",
                static_cast<unsigned long long>(S.Cursor),
                us(DoneAt) / 1000.0, Runner.config().str().c_str());
  }

  // --- Exactly-once across the migration -------------------------------
  check(Tail.size() == Reference.size(),
        "migrated output incomplete or duplicated");
  if (Tail.size() == Reference.size())
    for (std::size_t I = 0; I < Tail.size(); ++I)
      if (Tail[I] != Reference[I]) {
        check(false, "migrated output diverges from the reference");
        std::printf("         first divergence at index %zu: got %lld,"
                    " want %lld\n",
                    I, static_cast<long long>(Tail[I]),
                    static_cast<long long>(Reference[I]));
        break;
      }
  std::printf("   output: %zu iterations, identical to the uninterrupted"
              " reference\n",
              Tail.size());
  return 0;
}

//===----------------------------------------------------------------------===//
// --drain: watchdog-driven migration off a warned failure domain
//===----------------------------------------------------------------------===//

int runDrain(std::uint64_t Seed) {
  std::printf("== Checkpoint: warning drain — 3-core domain announced"
              " %.0f ms ahead, watchdog migrates proactively (seed=%llu)"
              " ==\n\n",
              us(DomainWarning) / 1000.0,
              static_cast<unsigned long long>(Seed));

  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  sim::FaultPlan Plan;
  Plan.addStraggler(/*Core=*/1, /*At=*/20 * sim::MSec,
                    /*Duration=*/15 * sim::MSec, /*Dilation=*/4.0);
  Plan.addDomain("socket1", {4, 5, 6}, DomainAt, DomainDowntime,
                 DomainWarning);
  // Gentle transients (single failure each, well inside the retry
  // budget): the drain path must stay abort-free.
  Plan.scatterTransients(Seed, "work", /*SeqBegin=*/2000, /*SeqEnd=*/18000,
                         /*Count=*/40, /*MaxFailCount=*/1);
  M.installFaultPlan(std::move(Plan));

  std::vector<std::int64_t> Tail;
  FlexibleRegion Region = makeRegion(&Tail);
  CountedWorkSource Src(NumIters);
  RuntimeCosts Costs;
  RegionRunner Runner(M, Costs, Region, Src);
  RegionController Ctrl(Runner);
  Watchdog Dog(Ctrl);

  sim::SimTime DoneAt = 0;
  Runner.OnComplete = [&] { DoneAt = Sim.now(); };
  Ctrl.start(8);
  Dog.start();

  std::vector<unsigned> BudgetSteps{Ctrl.threadBudget()};
  std::function<void()> BudgetTick = [&] {
    if (Ctrl.threadBudget() != BudgetSteps.back())
      BudgetSteps.push_back(Ctrl.threadBudget());
    if (!Runner.completed())
      Sim.schedule(250 * sim::USec, BudgetTick);
  };
  Sim.schedule(250 * sim::USec, BudgetTick);

  Sim.runUntil(2 * sim::Sec);

  unsigned Shrinks = 0, Grows = 0;
  for (std::size_t I = 1; I < BudgetSteps.size(); ++I)
    (BudgetSteps[I] < BudgetSteps[I - 1] ? Shrinks : Grows)++;

  check(Runner.completed(), "region did not complete");
  check(Tail.size() == NumIters, "tail output incomplete or duplicated");
  for (std::size_t I = 0; I < Tail.size(); ++I)
    if (Tail[I] != static_cast<std::int64_t>(I)) {
      check(false, "tail output out of order");
      break;
    }
  check(Dog.drainsStarted() >= 1, "watchdog never started a drain");
  check(Dog.drainsCompleted() >= 1, "warning drain never completed");
  check(Runner.checkpoints() >= 1, "region was never checkpointed");
  // The whole point of the warning: nothing aborted, nothing stranded.
  check(Runner.recoveries() == 0,
        "proactive drain must not abort the region");
  check(Dog.threadsRescued() == 0,
        "proactive drain must strand no thread");
  check(Dog.detections() == 0,
        "the announced failure must not register as a detection");
  check(Runner.totalFaults() > 0, "no transient fault was ever injected");
  check(Shrinks >= 1, "thread budget never shrank across the drain");
  check(Grows >= 1, "thread budget never grew back after repair");
  check(M.onlineCores() == 8, "expected all 8 cores back after repair");
  check(DoneAt > DomainAt + DomainDowntime,
        "run finished before the repair: grow-back unexercised");

  std::printf("   completed at %.2f ms; %llu/%llu iterations retired\n",
              us(DoneAt) / 1000.0,
              static_cast<unsigned long long>(Runner.totalRetired()),
              static_cast<unsigned long long>(NumIters));
  std::printf("   drain: %u started, %u completed, warning-to-resumed"
              " %.0f us, %u checkpoint(s)\n",
              Dog.drainsStarted(), Dog.drainsCompleted(),
              us(Dog.lastDrainLatency()), Runner.checkpoints());
  std::printf("   aborts avoided: %u abortive recovery(s), %u thread(s)"
              " rescued, %u capacity-drop detection(s)\n",
              Runner.recoveries(), Dog.threadsRescued(), Dog.detections());
  std::printf("   budget:");
  for (std::size_t I = 0; I < BudgetSteps.size(); ++I)
    std::printf("%s%u", I == 0 ? " " : " -> ", BudgetSteps[I]);
  std::printf(" (%u shrink(s), %u grow(s)); %u/8 cores online, %u"
              " repaired\n",
              Shrinks, Grows, M.onlineCores(), M.repairsApplied());
  std::printf("   faults: %llu transient attempt(s), %llu escalation(s),"
              " %u growth detection(s)\n",
              static_cast<unsigned long long>(Runner.totalFaults()),
              static_cast<unsigned long long>(Runner.totalEscalations()),
              Dog.growthsDetected());
  return 0;
}

//===----------------------------------------------------------------------===//
// --serve: live migration of per-request regions under open-loop load
//===----------------------------------------------------------------------===//

FlexibleRegion makeServiceRegion(const char *Name, sim::SimTime CostPerIter) {
  FlexibleRegion R(Name);
  RegionDesc D;
  D.Name = std::string(Name) + "-par";
  D.S = Scheme::DoAny;
  D.Tasks.emplace_back("work", TaskType::Par,
                       [CostPerIter](IterationContext &Ctx) {
                         Ctx.Cost = CostPerIter;
                       });
  R.addVariant(std::move(D));
  return R;
}

int runServe(std::uint64_t Seed) {
  using namespace parcae::serve;
  constexpr sim::SimTime PhaseLen = 200 * sim::MSec;
  constexpr sim::SimTime WarnAtDomain = 300 * sim::MSec + 130 * sim::USec;

  std::printf("== Checkpoint: live migration — 2 serve classes on 16"
              " cores, 3-core domain warned mid-overload (seed=%llu)"
              " ==\n\n",
              static_cast<unsigned long long>(Seed));

  sim::Simulator Sim;
  sim::Machine M(Sim, 16);
  sim::FaultPlan Plan;
  Plan.addDomain("socket1", {12, 13, 14}, WarnAtDomain,
                 /*Downtime=*/100 * sim::MSec, /*Warning=*/5 * sim::MSec);
  M.installFaultPlan(std::move(Plan));

  RuntimeCosts Costs;
  PlatformDaemon Daemon(16);
  ServeLoop Serve(M, Costs, Daemon);

  RequestClassDesc Api;
  Api.Name = "api";
  Api.MakeRegion = [](const ServeRequest &) {
    return makeServiceRegion("api", 60000);
  };
  Api.ItersPerRequest = 32;
  Api.Config = {Scheme::DoAny, {2}};
  Api.QueueCapacity = 512;
  Api.Slo = {95.0, 10 * sim::MSec};
  Api.Policy = std::make_unique<DeadlineEarlyDrop>(10 * sim::MSec);
  unsigned ApiIdx = Serve.addClass(std::move(Api));

  RequestClassDesc Batch;
  Batch.Name = "batch";
  Batch.MakeRegion = [](const ServeRequest &) {
    return makeServiceRegion("batch", 150000);
  };
  Batch.ItersPerRequest = 64;
  Batch.Config = {Scheme::DoAny, {2}};
  Batch.QueueCapacity = 256;
  Batch.Slo = {95.0, 60 * sim::MSec};
  unsigned BatchIdx = Serve.addClass(std::move(Batch));

  std::uint64_t CompletedBeforeWarn = 0, CompletedAfterResume = 0;
  Serve.OnRequestDone = [&](const ServeRequest &R) {
    if (R.Shed || R.Rejected)
      return; // rejected requests have no CompletedAt to bucket
    if (R.CompletedAt < WarnAtDomain - 5 * sim::MSec)
      ++CompletedBeforeWarn;
    else if (R.CompletedAt > WarnAtDomain)
      ++CompletedAfterResume;
  };

  Rng Root(Seed);
  std::uint64_t ApiSeed = Root.next(), BatchSeed = Root.next();
  Serve.startArrivals(ApiIdx,
                      std::make_unique<TraceArrivals>(
                          std::vector<TraceSegment>{
                              {0.2, 1500.0}, {0.2, 8000.0}, {0.2, 1500.0}},
                          ApiSeed));
  Serve.startArrivals(BatchIdx,
                      std::make_unique<TraceArrivals>(
                          std::vector<TraceSegment>{{0.6, 300.0}},
                          BatchSeed));
  Daemon.startArbiter(Sim, sim::MSec);

  Sim.runUntil(3 * PhaseLen);
  while ((Serve.queueDepth(ApiIdx) || Serve.inService(ApiIdx) ||
          Serve.queueDepth(BatchIdx) || Serve.inService(BatchIdx)) &&
         Sim.now() < 2 * sim::Sec)
    Sim.runUntil(Sim.now() + 5 * sim::MSec);
  Daemon.stopArbiter();

  const ServeLoop::ClassStats &ApiSt = Serve.stats(ApiIdx);
  const ServeLoop::ClassStats &BatchSt = Serve.stats(BatchIdx);
  std::printf(" class | arrived admitted rejected  shed  done | p95ms\n");
  std::printf(" ------+--------------------------------------+------\n");
  const ServeLoop::ClassStats *Sts[2] = {&ApiSt, &BatchSt};
  const char *Names[2] = {"api", "batch"};
  for (int Cls = 0; Cls < 2; ++Cls)
    std::printf(" %-5s | %7llu %8llu %8llu %5llu %5llu | %5.2f\n",
                Names[Cls],
                static_cast<unsigned long long>(Sts[Cls]->Arrived),
                static_cast<unsigned long long>(Sts[Cls]->Admitted),
                static_cast<unsigned long long>(Sts[Cls]->Rejected),
                static_cast<unsigned long long>(Sts[Cls]->Shed),
                static_cast<unsigned long long>(Sts[Cls]->Completed),
                Sts[Cls]->TotalUs.percentile(95) / 1e3);

  check(Serve.migrations() > 0,
        "no in-flight request was migrated off the domain");
  check(Serve.drainsCompleted() >= 1, "serve drain never completed");
  check(!Serve.draining(), "drain hold never released");
  check(CompletedBeforeWarn > 0, "no request completed before the warning");
  check(CompletedAfterResume > 0,
        "no request completed after the migration");
  check(ApiSt.Completed > 0 && BatchSt.Completed > 0,
        "a class starved across the drain");
  check(Serve.queueDepth(ApiIdx) == 0 && Serve.inService(ApiIdx) == 0 &&
            Serve.queueDepth(BatchIdx) == 0 &&
            Serve.inService(BatchIdx) == 0,
        "run did not drain");
  check(M.onlineCores() == 16, "expected all 16 cores back after repair");

  std::printf("\n   migration: %llu request region(s) migrated, %u"
              " drain(s) completed\n",
              static_cast<unsigned long long>(Serve.migrations()),
              Serve.drainsCompleted());
  std::printf("   traffic: %llu completion(s) before the warning, %llu"
              " after the migration; drained at %.2f ms\n",
              static_cast<unsigned long long>(CompletedBeforeWarn),
              static_cast<unsigned long long>(CompletedAfterResume),
              us(Sim.now()) / 1000.0);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  bench::BenchFlags Flags =
      bench::BenchFlags::parse(Argc, Argv, {"--drain", "--serve"});
  telemetry::TraceFile Trace(Flags.TracePath);
  bool Drain = false, ServeMode = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--drain") == 0)
      Drain = true;
    if (std::strcmp(Argv[I], "--serve") == 0)
      ServeMode = true;
  }

  if (Drain)
    runDrain(Flags.Seed);
  else if (ServeMode)
    runServe(Flags.Seed);
  else
    runMigrate(Flags.Seed);

  std::printf("\nCHECKPOINT: %s\n", Ok ? "OK" : "FAIL");
  return Ok ? 0 : 1;
}
