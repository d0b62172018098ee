//===- bench_serve.cpp - Open-loop serving under load phases ---------------===//
//
// The serving layer end to end: two request classes on a 16-core machine,
// arbitrated by the platform daemon with latency SLOs.
//
//   * "api"   — light requests (32 x 60k-cycle iterations, DoAny@2) with
//               a tight SLO (p95 <= 10 ms) and deadline-aware early-drop
//               admission. Its arrival rate steps through three phases:
//               under-load -> overload -> recovery.
//   * "batch" — heavy requests (64 x 150k-cycle iterations, DoAny@2) with
//               a loose SLO (p95 <= 60 ms) and drop-tail admission, at a
//               steady Poisson-like rate throughout.
//
// Under overload the api class cannot meet demand inside its fair share:
// the daemon's SLO pass moves budget from the (SLO-meeting) batch class
// to the violating api class, the early-drop policy sheds requests whose
// queue wait already blew the deadline, and goodput holds instead of
// collapsing. When the load drops, Algorithm 5's shrink-to-fit returns
// the won budget: api shrinks to its need and batch takes the slack.
//
// The run prints a per-phase latency/goodput table, the SLO budget-
// transfer timeline (counted per phase), and a SERVE: OK/FAIL verdict;
// --json emits the machine-readable summary scripts/bench_json.sh
// collects. Everything is seeded and virtual-time-driven: the same --seed
// gives byte-identical output (scripts/check_serve.sh asserts this over a
// seed sweep).
//
// --batch runs the same seeded scenario twice — unbatched baseline, then
// with per-class BatchPolicy coalescing, warm refill, stealing and
// parking — and reports the goodput speedup, the under-load latency gain
// and region spin-up amortization side by side, with per-request latency
// percentiles attributed from inside the batches (never per-batch
// numbers). scripts/check_serve.sh batch gates the speedup, the
// under-load p50, the in-place, parked-runner and steal counts and the
// batched run's determinism.
//
//===----------------------------------------------------------------------===//

#include "BenchFlags.h"
#include "morta/Platform.h"
#include "serve/ServeLoop.h"
#include "sim/Faults.h"
#include "support/Stats.h"
#include "telemetry/ChromeTrace.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace parcae;
using namespace parcae::rt;
using namespace parcae::serve;

namespace {

/// A single-stage DOANY service region: every iteration costs a fixed
/// number of cycles, and each worker pays \p ContextLoad once at launch
/// (Tinit: loading the request's context/model state — the per-region
/// cold-start that batching amortizes across member requests). Reuses
/// \p Name across requests so telemetry keeps one process track per
/// class.
FlexibleRegion makeServiceRegion(const char *Name, sim::SimTime CostPerIter,
                                 sim::SimTime ContextLoad) {
  FlexibleRegion R(Name);
  RegionDesc D;
  D.Name = std::string(Name) + "-par";
  D.S = Scheme::DoAny;
  D.Tasks.emplace_back("work", TaskType::Par,
                       [CostPerIter](IterationContext &Ctx) {
                         Ctx.Cost = CostPerIter;
                       });
  D.Tasks.back().InitCost = ContextLoad;
  R.addVariant(std::move(D));
  return R;
}

constexpr sim::SimTime PhaseLen = 300 * sim::MSec;
constexpr int NumPhases = 3;
const char *PhaseNames[NumPhases] = {"under", "overload", "recovery"};

int phaseOf(sim::SimTime At) {
  int P = static_cast<int>(At / PhaseLen);
  return P < NumPhases ? P : NumPhases - 1;
}

/// Per-class, per-arrival-phase accounting (requests are attributed to
/// the phase they arrived in, wherever they finish).
struct Bucket {
  std::uint64_t Completed = 0;
  std::uint64_t Shed = 0;
  std::uint64_t Violations = 0;
  SampleSet TotalMs;

  double goodputPerSec() const {
    return static_cast<double>(Completed) / sim::toSeconds(PhaseLen);
  }
};

/// Cumulative arrival-side counters snapshotted at each phase boundary.
struct Snapshot {
  std::uint64_t Arrived = 0;
  std::uint64_t Admitted = 0;
  std::uint64_t Rejected = 0;
  unsigned Budget = 0;
  unsigned Held = 0; ///< threads the class's runners hold
};

double ms(sim::SimTime T) { return static_cast<double>(T) / sim::MSec; }

/// Everything one scenario run produces that the A/B report (and the
/// JSON emitter) needs after the simulator is gone.
struct ScenarioOut {
  Bucket Buckets[2][NumPhases];
  Snapshot Snaps[2][NumPhases];
  std::size_t TransferCount = 0;
  std::uint64_t ToApi = 0;
  BatchStats BStats[2]; ///< per class; singletons count as batches of 1
  bool Ok = true;       ///< the unbatched verdict (SERVE: OK)
  bool UnderViol = false;
  bool Drained = false;
};

/// One full three-phase run. \p Batched switches the per-class
/// BatchPolicy on; everything else — seeds, machine, load — is
/// identical, so an unbatched/batched pair is a true A/B at equal seeds.
/// Prints the header, per-phase table, and SLO timeline; the SERVE
/// verdict is printed (and enforced) only for the unbatched baseline,
/// whose load story it describes.
///
/// \p Straggler turns core 0 into a 32x tar pit for the whole overload
/// phase: 0 = healthy machine, 1 = dilated core with the mitigation off
/// (every dispatch to core 0 strands a worker for a wall quantum), 2 =
/// dilated core with slow-core-aware placement on (the rate sensor
/// penalizes core 0 after its first overstayed slice and dispatch routes
/// around it). A 1/2 pair at equal seeds is the goodput-recovery A/B.
ScenarioOut runScenario(std::uint64_t Seed, bool Batched, int Straggler = 0) {
  std::printf("== Serve: open-loop serving, 2 classes on a 16-core machine"
              " (seed=%llu) ==\n",
              static_cast<unsigned long long>(Seed));
  std::printf("   api:   32 x 60k-cycle DoAny@2 + 0.5 ms context load, SLO p95 <="
              " 10.0 ms,"
              " deadline-early-drop, queue 512\n");
  std::printf("   batch: 64 x 150k-cycle DoAny@2 + 0.5 ms context load, SLO p95 <="
              " 60.0 ms,"
              " drop-tail, queue 256\n");
  std::printf("   load:  api 1500/s -> 8000/s -> 1500/s (300 ms phases);"
              " batch steady 300/s\n");
  if (Batched)
    std::printf("   batching: api max 8, batch max 4, work-conserving (a"
                " runner the grant has room for takes the queued backlog"
                " at once), warm refill (a runner whose work runs dry"
                " takes the next queued batch in place), parking (an idle"
                " runner parks, holding no thread, until a dispatch of its"
                " width wakes it)\n");
  if (Straggler)
    std::printf("   straggler: core 0 dilated 32x across the overload"
                " phase, 15-thread grant (1 core of headroom), slow-core"
                " avoidance %s\n",
                Straggler == 2 ? "ON" : "OFF");
  std::printf("\n");

  sim::Simulator Sim;
  sim::MachineConfig MC;
  MC.SlowCoreAvoidance = Straggler == 2;
  sim::Machine M(Sim, 16, MC);
  if (Straggler) {
    sim::FaultPlan Plan;
    Plan.addStraggler(/*Core=*/0, /*At=*/PhaseLen, /*Duration=*/PhaseLen,
                      /*Dilation=*/32.0);
    M.installFaultPlan(std::move(Plan));
  }
  RuntimeCosts Costs;
  // Straggler mode grants one core of headroom: at a full 16-on-16 grant
  // the dilated core is never free, so a work-conserving dispatcher has
  // no choice to make and routing around the tar pit is impossible by
  // construction. One spare core is exactly the slack avoidance needs.
  PlatformDaemon Daemon(Straggler ? 15 : 16);
  ServeLoop Serve(M, Costs, Daemon);

  RequestClassDesc Api;
  Api.Name = "api";
  Api.MakeRegion = [](const ServeRequest &) {
    return makeServiceRegion("api", 60000, 500 * sim::USec);
  };
  Api.ItersPerRequest = 32;
  Api.Config = {Scheme::DoAny, {2}};
  Api.QueueCapacity = 512;
  Api.Slo = {95.0, 10 * sim::MSec};
  // Shed requests whose queue wait already ate the whole SLO budget:
  // under overload latency saturates near the target (instead of growing
  // without bound) while excess arrivals are dropped.
  Api.Policy = std::make_unique<DeadlineEarlyDrop>(10 * sim::MSec);
  if (Batched)
    Api.Batch.MaxBatch = 8;
  unsigned ApiIdx = Serve.addClass(std::move(Api));

  RequestClassDesc Batch;
  Batch.Name = "batch";
  Batch.MakeRegion = [](const ServeRequest &) {
    return makeServiceRegion("batch", 150000, 500 * sim::USec);
  };
  Batch.ItersPerRequest = 64;
  Batch.Config = {Scheme::DoAny, {2}};
  Batch.QueueCapacity = 256;
  Batch.Slo = {95.0, 60 * sim::MSec};
  if (Batched)
    Batch.Batch.MaxBatch = 4;
  unsigned BatchIdx = Serve.addClass(std::move(Batch));
  const unsigned ClassIdx[2] = {ApiIdx, BatchIdx};

  ScenarioOut Out;
  auto &Buckets = Out.Buckets;
  Serve.OnRequestDone = [&](const ServeRequest &R) {
    if (R.Rejected)
      return; // refused at arrival: counted via the Rejected snapshots
    int Cls = R.ClassIdx == ApiIdx ? 0 : 1;
    Bucket &B = Buckets[Cls][phaseOf(R.ArrivedAt)];
    if (R.Shed) {
      ++B.Shed;
      return;
    }
    ++B.Completed;
    B.TotalMs.add(ms(R.totalLatency()));
    sim::SimTime Target = Cls == 0 ? 10 * sim::MSec : 60 * sim::MSec;
    if (R.totalLatency() > Target)
      ++B.Violations;
  };

  // Boundary snapshots of the arrival-side counters, budgets and held
  // threads: Snaps[c][p] holds class c's values at the END of phase p.
  auto &Snaps = Out.Snaps;
  for (int P = 0; P < NumPhases; ++P) {
    Sim.schedule(static_cast<sim::SimTime>(P + 1) * PhaseLen, [&, P] {
      for (int Cls = 0; Cls < 2; ++Cls) {
        const ServeLoop::ClassStats &St = Serve.stats(ClassIdx[Cls]);
        Snaps[Cls][P] = {St.Arrived, St.Admitted, St.Rejected,
                         Serve.budgetOf(ClassIdx[Cls]),
                         Serve.threadsHeld(ClassIdx[Cls])};
      }
    });
  }

  // Arrival processes: a rate-curve replay for the phased api load and a
  // single steady segment for batch. Per-class seeds split off the run
  // seed so adding a class never perturbs another's stream.
  Rng Root(Seed);
  std::uint64_t ApiSeed = Root.next(), BatchSeed = Root.next();
  Serve.startArrivals(
      ApiIdx, std::make_unique<TraceArrivals>(
                  std::vector<TraceSegment>{
                      {0.3, 1500.0}, {0.3, 8000.0}, {0.3, 1500.0}},
                  ApiSeed));
  Serve.startArrivals(BatchIdx,
                      std::make_unique<TraceArrivals>(
                          std::vector<TraceSegment>{{0.9, 300.0}}, BatchSeed));

  // The straggler A/B isolates the *placement* effect: the SLO arbiter's
  // budget transfers react to the tar pit too and would redistribute the
  // pain across classes differently on each side, confounding the
  // comparison. Registration-time rebalance still hands out demand-driven
  // budgets; only the periodic SLO pass is off.
  if (!Straggler)
    Daemon.startArbiter(Sim, sim::MSec);

  Sim.runUntil(NumPhases * PhaseLen);
  // Drain: arrivals have ended; keep simulating until every queued and
  // in-service request finished (bounded, in case of a pile-up).
  while ((Serve.queueDepth(ApiIdx) || Serve.inService(ApiIdx) ||
          Serve.queueDepth(BatchIdx) || Serve.inService(BatchIdx)) &&
         Sim.now() < 2 * sim::Sec)
    Sim.runUntil(Sim.now() + 5 * sim::MSec);
  Daemon.stopArbiter();

  // --- Per-phase latency/goodput table ---------------------------------
  std::printf(" class | phase    | arrived admit  rej shed  done |"
              " goodput/s |   p50ms   p95ms   p99ms | viol\n");
  std::printf(" ------+----------+-------------------------------+"
              "-----------+-------------------------+-----\n");
  for (int Cls = 0; Cls < 2; ++Cls) {
    const char *Name = Cls == 0 ? "api" : "batch";
    for (int P = 0; P < NumPhases; ++P) {
      Snapshot Prev = P > 0 ? Snaps[Cls][P - 1] : Snapshot{};
      const Snapshot &Cur = Snaps[Cls][P];
      const Bucket &B = Buckets[Cls][P];
      std::printf(" %-5s | %-8s | %7llu %5llu %4llu %4llu %5llu |"
                  " %9.1f | %7.2f %7.2f %7.2f | %4llu\n",
                  Name, PhaseNames[P],
                  static_cast<unsigned long long>(Cur.Arrived - Prev.Arrived),
                  static_cast<unsigned long long>(Cur.Admitted -
                                                  Prev.Admitted),
                  static_cast<unsigned long long>(Cur.Rejected -
                                                  Prev.Rejected),
                  static_cast<unsigned long long>(B.Shed),
                  static_cast<unsigned long long>(B.Completed),
                  B.goodputPerSec(), B.TotalMs.percentile(50),
                  B.TotalMs.percentile(95), B.TotalMs.percentile(99),
                  static_cast<unsigned long long>(B.Violations));
    }
  }

  // --- SLO budget-transfer timeline ------------------------------------
  // Counted by the phase each transfer lands in (drain time counts as
  // recovery), so stdout shows whether loans come in overload or after,
  // and by reason: how many threads a backlogged class took while it
  // still met its SLO (the rest went to violators).
  const auto &Transfers = Daemon.sloTransfers();
  std::uint64_t ToApi = 0, ByBacklog = 0, ByPhase[NumPhases] = {};
  for (const auto &T : Transfers) {
    if (T.To == "api")
      ++ToApi;
    if (T.Why == PlatformDaemon::SloReason::Backlog)
      ++ByBacklog;
    ++ByPhase[phaseOf(T.At)];
  }
  std::printf("\n   slo timeline: %zu transfer(s), %llu toward api",
              Transfers.size(), static_cast<unsigned long long>(ToApi));
  // The straggler A/B runs no SLO pass, so it has no reasons to split.
  if (!Straggler)
    std::printf(", %llu by backlog",
                static_cast<unsigned long long>(ByBacklog));
  std::printf("; by phase: %s %llu, %s %llu, %s %llu",
              PhaseNames[0], static_cast<unsigned long long>(ByPhase[0]),
              PhaseNames[1], static_cast<unsigned long long>(ByPhase[1]),
              PhaseNames[2], static_cast<unsigned long long>(ByPhase[2]));
  if (!Transfers.empty())
    std::printf("; first %.2f ms, last %.2f ms", ms(Transfers.front().At),
                ms(Transfers.back().At));
  std::printf("\n");
  std::printf("   budgets at phase ends: api %u/%u/%u, batch %u/%u/%u\n",
              Snaps[0][0].Budget, Snaps[0][1].Budget, Snaps[0][2].Budget,
              Snaps[1][0].Budget, Snaps[1][1].Budget, Snaps[1][2].Budget);
  std::printf("   threads held at phase ends: api %u/%u/%u, batch %u/%u/%u\n",
              Snaps[0][0].Held, Snaps[0][1].Held, Snaps[0][2].Held,
              Snaps[1][0].Held, Snaps[1][1].Held, Snaps[1][2].Held);
  // Only batching classes park runners.
  auto Parked = [&](unsigned Idx) {
    return Batched ? " parked=" + std::to_string(Serve.parkedRunners(Idx))
                   : std::string();
  };
  std::printf("   drained at %.2f ms (api q=%zu active=%u%s, batch q=%zu"
              " active=%u%s)\n\n",
              ms(Sim.now()), Serve.queueDepth(ApiIdx),
              Serve.inService(ApiIdx), Parked(ApiIdx).c_str(),
              Serve.queueDepth(BatchIdx), Serve.inService(BatchIdx),
              Parked(BatchIdx).c_str());

  Out.TransferCount = Transfers.size();
  Out.ToApi = ToApi;
  Out.BStats[0] = Serve.batchStats(ApiIdx);
  Out.BStats[1] = Serve.batchStats(BatchIdx);
  Out.UnderViol =
      Buckets[0][0].Violations != 0 || Buckets[1][0].Violations != 0;
  Out.Drained = Serve.queueDepth(ApiIdx) == 0 && Serve.inService(ApiIdx) == 0 &&
                Serve.queueDepth(BatchIdx) == 0 &&
                Serve.inService(BatchIdx) == 0;

  if (Batched || Straggler)
    return Out; // the A/B report carries the verdict

  // --- Verdict (unbatched baseline) ------------------------------------
  bool Ok = true;
  auto Check = [&](bool Cond, const char *Msg) {
    if (!Cond) {
      Ok = false;
      std::printf("   CHECK FAIL: %s\n", Msg);
    }
  };
  Check(!Out.UnderViol, "SLO violations in the under-load phase");
  std::uint64_t OverloadDropped =
      Buckets[0][1].Shed + (Snaps[0][1].Rejected - Snaps[0][0].Rejected);
  Check(OverloadDropped > 0, "overload phase shed no load");
  Check(Buckets[0][1].goodputPerSec() >=
            0.8 * Buckets[0][0].goodputPerSec(),
        "overload goodput collapsed below 80% of under-load");
  Check(ToApi > 0, "no SLO-driven budget transfer toward the api class");
  Check(Out.Drained, "run did not drain");
  std::printf("SERVE: %s\n", Ok ? "OK" : "FAIL");
  Out.Ok = Ok;
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  bench::BenchFlags Flags =
      bench::BenchFlags::parse(Argc, Argv, {"--batch", "--straggler"});
  bool BatchMode = false, StragglerMode = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--batch") == 0)
      BatchMode = true;
    if (std::strcmp(Argv[I], "--straggler") == 0)
      StragglerMode = true;
  }
  telemetry::TraceFile Trace(Flags.TracePath);
  std::uint64_t Seed = Flags.Seed;

  if (StragglerMode) {
    // Goodput-recovery A/B: the same seeded overload with core 0 dilated,
    // mitigation off then on. The gate is the overload-phase api goodput
    // won back by routing around the tar pit.
    ScenarioOut SA = runScenario(Seed, /*Batched=*/false, /*Straggler=*/1);
    std::printf("=== A/B: same seed rerun with slow-core avoidance ===\n\n");
    ScenarioOut SB = runScenario(Seed, /*Batched=*/false, /*Straggler=*/2);

    double GA = SA.Buckets[0][1].goodputPerSec();
    double GB = SB.Buckets[0][1].goodputPerSec();
    double Recovery = GA > 0 ? GB / GA : 0.0;
    // Completions rise under mitigation, so compare violation *rates*:
    // absolute counts grow with the denominator.
    auto ViolRate = [](const Bucket &B) {
      return B.Completed ? static_cast<double>(B.Violations) /
                               static_cast<double>(B.Completed)
                         : 0.0;
    };
    double VA = ViolRate(SA.Buckets[0][1]), VB = ViolRate(SB.Buckets[0][1]);
    std::printf("   api overload goodput: %.1f -> %.1f req/s (%.2fx"
                " recovered), p95 %.2f -> %.2f ms, viol rate %.3f ->"
                " %.3f\n",
                GA, GB, Recovery, SA.Buckets[0][1].TotalMs.percentile(95),
                SB.Buckets[0][1].TotalMs.percentile(95), VA, VB);

    bool SOk = true;
    auto SCheck = [&](bool Cond, const char *Msg) {
      if (!Cond) {
        SOk = false;
        std::printf("   STRAGGLER CHECK FAIL: %s\n", Msg);
      }
    };
    SCheck(Recovery >= 1.05, "avoidance won back less than 5% goodput");
    SCheck(VB <= VA + 0.02,
           "avoidance worsened the overload SLO violation rate");
    SCheck(SA.Drained && SB.Drained, "a straggler run did not drain");
    std::printf("STRAGGLER: %s\n", SOk ? "OK" : "FAIL");

    if (Flags.JsonPath) {
      std::FILE *J = std::fopen(Flags.JsonPath, "w");
      if (!J) {
        std::fprintf(stderr, "cannot write %s\n", Flags.JsonPath);
        return 1;
      }
      std::fprintf(J,
                   "{\"bench\": \"serve\", \"mode\": \"straggler\","
                   " \"seed\": %llu,"
                   " \"overload_goodput_base\": %.1f,"
                   " \"overload_goodput_mitigated\": %.1f,"
                   " \"recovery\": %.4f, \"ok\": %s}\n",
                   static_cast<unsigned long long>(Seed), GA, GB, Recovery,
                   SOk ? "true" : "false");
      std::fclose(J);
    }
    return SOk ? 0 : 1;
  }

  ScenarioOut A = runScenario(Seed, /*Batched=*/false);
  bool Ok = A.Ok;

  ScenarioOut B;
  double Speedup = 0.0, P50Ratio = 0.0;
  bool BatchOk = true;
  if (BatchMode) {
    std::printf("=== A/B: same seed rerun with batched dispatch ===\n\n");
    B = runScenario(Seed, /*Batched=*/true);

    // --- Spin-up amortization report -----------------------------------
    const char *Names[2] = {"api", "batch"};
    for (int Cls = 0; Cls < 2; ++Cls) {
      const BatchStats &U = A.BStats[Cls], &Bt = B.BStats[Cls];
      std::printf("   %-5s regions: %llu -> %llu (%.2f req/region, %llu"
                  " batches in place, %llu by parked runners; %llu steals"
                  " moved %llu requests; full %llu underfull %llu;"
                  " occupancy mean %.2f max %.0f)\n",
                  Names[Cls], static_cast<unsigned long long>(U.Batches),
                  static_cast<unsigned long long>(Bt.Batches),
                  Bt.requestsPerRegion(),
                  static_cast<unsigned long long>(Bt.InPlaceBatches),
                  static_cast<unsigned long long>(Bt.Wakes),
                  static_cast<unsigned long long>(Bt.Steals),
                  static_cast<unsigned long long>(Bt.StolenRequests),
                  static_cast<unsigned long long>(Bt.SizeCloses),
                  static_cast<unsigned long long>(Bt.formed() - Bt.SizeCloses),
                  Bt.OccupancyH.mean(), Bt.OccupancyH.max());
    }
    // Work-conserving dispatch sizes batches by the backlog, so the
    // under-load phase runs mostly singletons; parked runners serve them
    // without spin-up, so they must beat the unbatched latency.
    double P50A = A.Buckets[0][0].TotalMs.percentile(50);
    double P50B = B.Buckets[0][0].TotalMs.percentile(50);
    P50Ratio = P50A > 0 ? P50B / P50A : 0.0;
    std::printf("   api under-load p50: %.2f ms -> %.2f ms (%.2fx of"
                " unbatched, limit 0.80x)\n",
                P50A, P50B, P50Ratio);
    // Per-request latency attributed from inside the batches: the p95 a
    // member experienced, not the p95 of whole-batch turnaround.
    std::printf("   api overload per-request p95: %.2f ms -> %.2f ms"
                " (batched, watermark-attributed)\n",
                A.Buckets[0][1].TotalMs.percentile(95),
                B.Buckets[0][1].TotalMs.percentile(95));
    Speedup = A.Buckets[0][1].goodputPerSec() > 0
                  ? B.Buckets[0][1].goodputPerSec() /
                        A.Buckets[0][1].goodputPerSec()
                  : 0.0;
    std::printf("   batch goodput speedup: %.2fx (api overload %.1f ->"
                " %.1f req/s)\n",
                Speedup, A.Buckets[0][1].goodputPerSec(),
                B.Buckets[0][1].goodputPerSec());

    auto BCheck = [&](bool Cond, const char *Msg) {
      if (!Cond) {
        BatchOk = false;
        std::printf("   BATCH CHECK FAIL: %s\n", Msg);
      }
    };
    BCheck(Speedup >= 1.3, "batched overload goodput below 1.3x baseline");
    BCheck(P50Ratio > 0 && P50Ratio <= 0.8,
           "batched under-load api p50 above 0.8x unbatched");
    BCheck(!B.UnderViol, "batched run has under-load SLO violations");
    BCheck(B.Drained, "batched run did not drain");
    BCheck(B.BStats[0].requestsPerRegion() > 1.5,
           "api batches did not amortize region spin-up");
    BCheck(B.Buckets[0][1].TotalMs.count() == B.Buckets[0][1].Completed,
           "per-request latency samples missing inside batches");
    std::printf("BATCH: %s\n", BatchOk ? "OK" : "FAIL");
    Ok = Ok && BatchOk;
  }

  if (Flags.JsonPath) {
    std::FILE *J = std::fopen(Flags.JsonPath, "w");
    if (!J) {
      std::fprintf(stderr, "cannot write %s\n", Flags.JsonPath);
      return 1;
    }
    std::fprintf(J, "{\n  \"bench\": \"serve\",\n  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(Seed));
    std::fprintf(J, "  \"classes\": [\n");
    for (int Cls = 0; Cls < 2; ++Cls) {
      std::fprintf(J, "    {\"name\": \"%s\", \"phases\": [\n",
                   Cls == 0 ? "api" : "batch");
      for (int P = 0; P < NumPhases; ++P) {
        const Bucket &Bk = A.Buckets[Cls][P];
        std::fprintf(
            J,
            "      {\"name\": \"%s\", \"completed\": %llu, \"shed\": %llu,"
            " \"goodput_per_sec\": %.1f, \"p95_ms\": %.3f,"
            " \"violations\": %llu}%s\n",
            PhaseNames[P], static_cast<unsigned long long>(Bk.Completed),
            static_cast<unsigned long long>(Bk.Shed), Bk.goodputPerSec(),
            Bk.TotalMs.percentile(95),
            static_cast<unsigned long long>(Bk.Violations),
            P + 1 < NumPhases ? "," : "");
      }
      std::fprintf(J, "    ]}%s\n", Cls == 0 ? "," : "");
    }
    std::fprintf(J, "  ],\n  \"slo_transfers\": %zu,\n", A.TransferCount);
    if (BatchMode) {
      std::fprintf(J,
                   "  \"batch\": {\"speedup_overload_api\": %.3f,"
                   " \"under_load_p50_ratio\": %.3f, \"classes\": [\n",
                   Speedup, P50Ratio);
      const char *Names[2] = {"api", "batch"};
      for (int Cls = 0; Cls < 2; ++Cls) {
        const BatchStats &Bt = B.BStats[Cls];
        std::fprintf(
            J,
            "    {\"name\": \"%s\", \"batches\": %llu,"
            " \"in_place_batches\": %llu, \"wakes\": %llu,"
            " \"steals\": %llu, \"stolen_requests\": %llu,"
            " \"requests_per_region\": %.3f, \"full_batches\": %llu,"
            " \"underfull_batches\": %llu,"
            " \"overload_goodput_per_sec\": %.1f,"
            " \"overload_p95_ms\": %.3f}%s\n",
            Names[Cls], static_cast<unsigned long long>(Bt.Batches),
            static_cast<unsigned long long>(Bt.InPlaceBatches),
            static_cast<unsigned long long>(Bt.Wakes),
            static_cast<unsigned long long>(Bt.Steals),
            static_cast<unsigned long long>(Bt.StolenRequests),
            Bt.requestsPerRegion(),
            static_cast<unsigned long long>(Bt.SizeCloses),
            static_cast<unsigned long long>(Bt.formed() - Bt.SizeCloses),
            B.Buckets[Cls][1].goodputPerSec(),
            B.Buckets[Cls][1].TotalMs.percentile(95),
            Cls == 0 ? "," : "");
      }
      std::fprintf(J, "  ]},\n");
    }
    std::fprintf(J, "  \"ok\": %s\n}\n", Ok ? "true" : "false");
    std::fclose(J);
  }
  return Ok ? 0 : 1;
}
