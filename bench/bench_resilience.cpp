//===- bench_resilience.cpp - Fault model + Morta recovery end to end ---------===//
//
// The resilience scenarios the fault model exists for: a 3-stage pipeline
// on an 8-core machine that, mid-run, degrades and (in the burst
// scenario) heals again.
//
// Default scenario — independent permanent failures:
//
//   * a straggler: core 1 runs 4x dilated for 15 ms starting at 20 ms;
//   * permanent core failures: cores 5 and 6 go offline at 40/42 ms,
//     stranding whatever was running on them;
//   * transient task faults: ~40 iterations of the parallel stage fault
//     (up to twice each) before succeeding, exercising the retry path.
//
// Burst scenario (--burst) — a correlated failure domain plus repair:
//
//   * the same straggler and transient faults;
//   * a socket event ("socket1") takes cores 4, 5, and 6 atomically at
//     40 ms, and the domain is repaired after a 30 ms downtime window.
//
// Wedge scenario (--wedge) — a hang with no capacity change:
//
//   * the same straggler and transient faults;
//   * the head task wedges in user code right before claiming iteration
//     7000; the watchdog's stall detector notices, and the abortive
//     recovery rewinds to the commit frontier and replays.
//
// The watchdog detects the capacity drop, rescues the stranded threads,
// and shrinks the controller's thread budget (degrading the DoP); in the
// burst scenario it then detects the capacity growth at repair and grows
// the budget back, re-selecting the richer cached configuration. Either
// way the run completes with the full output stream intact and in order
// — the exactly-once guarantee across stragglers, retries, recoveries,
// and repair.
//
// Everything is seeded and virtual-time-driven, so the same --seed gives
// a byte-identical stdout and Chrome trace across runs (this is what
// scripts/check_resilience.sh asserts, including a multi-seed sweep of
// the burst scenario).
//
//===----------------------------------------------------------------------===//

#include "BenchFlags.h"
#include "core/Region.h"
#include "decima/Monitor.h"
#include "morta/Controller.h"
#include "morta/Watchdog.h"
#include "sim/Faults.h"
#include "support/Rng.h"
#include "telemetry/ChromeTrace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <vector>

using namespace parcae;
using namespace parcae::rt;
namespace sim = parcae::sim;

namespace {

constexpr std::uint64_t NumIters = 20000;
constexpr sim::SimTime BurstAt = 40 * sim::MSec + 130 * sim::USec;
constexpr sim::SimTime BurstDowntime = 30 * sim::MSec;
constexpr std::uint64_t WedgeSeq = 7000;

/// The pipeline under test. The tail pushes every iteration's payload
/// into \p Tail, so output completeness and ordering are checkable. The
/// SEQ variant's task is named "all": transient faults bound to "work"
/// cannot follow the region into its degraded form.
FlexibleRegion makeRegion(std::vector<std::int64_t> *Tail) {
  FlexibleRegion R("resil");
  {
    RegionDesc D;
    D.Name = "resil-pipe";
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
    D.Name = "resil-seq";
    D.S = Scheme::Seq;
    D.Tasks.emplace_back("all", TaskType::Seq, [Tail](IterationContext &C) {
      C.Cost = 26500;
      Tail->push_back(static_cast<std::int64_t>(C.Seq));
    });
    R.addVariant(std::move(D));
  }
  return R;
}

sim::FaultPlan makePlan(std::uint64_t Seed, bool Burst, bool Wedge) {
  sim::FaultPlan Plan;
  Plan.addStraggler(/*Core=*/1, /*At=*/20 * sim::MSec,
                    /*Duration=*/15 * sim::MSec, /*Dilation=*/4.0);
  if (Wedge) {
    // The head task wedges in user code right before claiming WedgeSeq:
    // no core fails and no capacity changes, so only the stall detector
    // notices; the abortive recovery rewinds to the commit frontier and
    // replays.
    Plan.addWedge("produce", WedgeSeq);
    Plan.scatterTransients(Seed, "work", /*SeqBegin=*/2000,
                           /*SeqEnd=*/18000, /*Count=*/40,
                           /*MaxFailCount=*/2);
    return Plan;
  }
  if (Burst) {
    // A correlated burst: one socket event takes three cores atomically
    // (offset from the watchdog's 250 us tick grid, like the offlines
    // below), then a repair returns them after the downtime window.
    Plan.addDomain("socket1", {4, 5, 6}, BurstAt, BurstDowntime);
  } else {
    // Offset from the watchdog's 250 us tick grid so the measured
    // detection latency is the real phase lag, not zero.
    Plan.addOffline(/*Core=*/5, /*At=*/40 * sim::MSec + 130 * sim::USec);
    Plan.addOffline(/*Core=*/6, /*At=*/42 * sim::MSec + 130 * sim::USec);
  }
  Plan.scatterTransients(Seed, "work", /*SeqBegin=*/2000, /*SeqEnd=*/18000,
                         /*Count=*/40, /*MaxFailCount=*/2);
  return Plan;
}

double us(sim::SimTime T) { return static_cast<double>(T) / sim::USec; }

// --- Straggler A/B scenario (--straggler) -------------------------------
//
// The same pipeline under a seeded hail of straggler windows (16-48x
// dilation scattered across all 8 cores), run twice in-process from the
// same plan: once with slow-core avoidance off (baseline: affinity keeps
// re-landing workers on dilated cores) and once with slow-core-aware
// placement on. A fixed PS-DSWP<1,5,1> schedule (no controller, no
// watchdog) keeps the comparison about placement, not configuration
// search or recovery. The makespan ratio is the gate.

constexpr sim::SimTime StragglerMaxWindow = 12 * sim::MSec;

struct StragglerOutcome {
  sim::SimTime Makespan = 0;
  double P95GapUs = 0;     ///< p95 inter-retirement gap
  bool Ok = true;
};

sim::FaultPlan makeStragglerPlan(std::uint64_t Seed) {
  sim::FaultPlan Plan;
  Plan.scatterStragglers(Seed, /*NumCores=*/8, /*Count=*/24,
                         /*From=*/5 * sim::MSec, /*To=*/150 * sim::MSec,
                         /*Duration=*/StragglerMaxWindow,
                         /*MinDilation=*/16.0, /*MaxDilation=*/48.0);
  return Plan;
}

StragglerOutcome runStraggler(std::uint64_t Seed, bool Mitigate) {
  sim::Simulator Sim;
  sim::MachineConfig MC;
  MC.SlowCoreAvoidance = Mitigate;
  sim::Machine M(Sim, 8, MC);
  M.installFaultPlan(makeStragglerPlan(Seed));

  std::vector<std::int64_t> Tail;
  FlexibleRegion Region = makeRegion(&Tail);
  CountedWorkSource Src(NumIters);
  RuntimeCosts Costs;
  RegionRunner Runner(M, Costs, Region, Src);

  StragglerOutcome Out;
  std::vector<sim::SimTime> Gaps;
  sim::SimTime LastRetireAt = 0;
  Runner.OnProgress = [&](std::uint64_t) {
    Gaps.push_back(Sim.now() - LastRetireAt);
    LastRetireAt = Sim.now();
  };
  Runner.OnComplete = [&] { Out.Makespan = Sim.now(); };

  Runner.start({Scheme::PsDswp, {1, 5, 1}});
  Sim.runUntil(4 * sim::Sec);

  if (!Runner.completed())
    Out.Ok = false;
  if (Tail.size() != NumIters)
    Out.Ok = false;
  else
    for (std::size_t I = 0; I < Tail.size(); ++I)
      if (Tail[I] != static_cast<std::int64_t>(I)) {
        Out.Ok = false;
        break;
      }
  if (!Gaps.empty()) {
    std::sort(Gaps.begin(), Gaps.end());
    Out.P95GapUs = us(Gaps[std::min(Gaps.size() - 1, Gaps.size() * 95 / 100)]);
  }
  return Out;
}

int runStragglerMode(const bench::BenchFlags &Flags) {
  std::uint64_t Seed = Flags.Seed;
  std::printf("== Resilience: straggler avoidance A/B, 8-core pipeline"
              " under scattered 16-48x dilation windows (seed=%llu) ==\n\n",
              static_cast<unsigned long long>(Seed));
  std::printf("   plan: 24 window(s) of %.0f ms across 8 cores, fixed"
              " PS-DSWP<1,5,1>\n\n",
              us(StragglerMaxWindow) / 1000.0);

  StragglerOutcome Base = runStraggler(Seed, /*Mitigate=*/false);
  StragglerOutcome Mit = runStraggler(Seed, /*Mitigate=*/true);

  bool Ok = true;
  auto Fail = [&Ok](const char *What) {
    std::printf("   FAIL: %s\n", What);
    Ok = false;
  };

  double Improvement = Mit.Makespan > 0
                           ? static_cast<double>(Base.Makespan) /
                                 static_cast<double>(Mit.Makespan)
                           : 0.0;
  double P95Improvement =
      Mit.P95GapUs > 0 ? Base.P95GapUs / Mit.P95GapUs : 0.0;

  std::printf("-- A/B --\n");
  std::printf("%14s %14s %14s\n", "", "makespan(ms)", "p95 gap(us)");
  std::printf("%14s %14.2f %14.0f\n", "baseline", us(Base.Makespan) / 1000.0,
              Base.P95GapUs);
  std::printf("%14s %14.2f %14.0f\n", "mitigated", us(Mit.Makespan) / 1000.0,
              Mit.P95GapUs);
  std::printf("   improvement: %.2fx makespan, %.2fx p95 retire gap\n",
              Improvement, P95Improvement);

  std::printf("\n-- verdict --\n");
  if (!Base.Ok)
    Fail("baseline run lost or reordered output");
  if (!Mit.Ok)
    Fail("mitigated run lost or reordered output (exactly-once broken)");
  if (Improvement < 1.15)
    Fail("makespan improvement below the 1.15x gate");

  if (Flags.JsonPath) {
    std::FILE *J = std::fopen(Flags.JsonPath, "w");
    if (!J) {
      std::fprintf(stderr, "cannot write %s\n", Flags.JsonPath);
      return 1;
    }
    std::fprintf(J,
                 "{\"bench\":\"resilience\",\"mode\":\"straggler\","
                 "\"seed\":%llu,\"makespan_base_us\":%.1f,"
                 "\"makespan_mitigated_us\":%.1f,\"improvement\":%.4f,"
                 "\"p95_gap_base_us\":%.1f,\"p95_gap_mitigated_us\":%.1f,"
                 "\"p95_improvement\":%.4f,\"ok\":%s}\n",
                 static_cast<unsigned long long>(Seed), us(Base.Makespan),
                 us(Mit.Makespan), Improvement, Base.P95GapUs, Mit.P95GapUs,
                 P95Improvement, Ok ? "true" : "false");
    std::fclose(J);
    std::printf("   wrote %s\n", Flags.JsonPath);
  }

  std::printf("\nRESILIENCE: %s\n", Ok ? "OK" : "FAIL");
  return Ok ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  bench::BenchFlags Flags =
      bench::BenchFlags::parse(Argc, Argv, {"--burst", "--wedge", "--straggler"});
  telemetry::TraceFile Trace(Flags.TracePath);
  std::uint64_t Seed = Flags.Seed;
  bool Burst = false, Wedge = false, Straggler = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--burst") == 0)
      Burst = true;
    if (std::strcmp(Argv[I], "--wedge") == 0)
      Wedge = true;
    if (std::strcmp(Argv[I], "--straggler") == 0)
      Straggler = true;
  }

  if (Straggler)
    return runStragglerMode(Flags);

  if (Wedge)
    std::printf("== Resilience: 8-core pipeline under straggler + wedged"
                " head task + transient faults (seed=%llu) ==\n",
                static_cast<unsigned long long>(Seed));
  else if (Burst)
    std::printf("== Resilience: 8-core pipeline under straggler + 3-core"
                " domain burst + repair + transient faults (seed=%llu) ==\n",
                static_cast<unsigned long long>(Seed));
  else
    std::printf("== Resilience: 8-core pipeline under straggler + 2 core"
                " failures + transient faults (seed=%llu) ==\n",
                static_cast<unsigned long long>(Seed));

  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  M.installFaultPlan(makePlan(Seed, Burst, Wedge));
  std::printf("   fault plan: %zu straggler window(s), %zu core"
              " offline(s), %zu domain(s), %zu transient fault(s), %zu"
              " wedge(s)\n\n",
              M.faultPlan()->stragglers().size(),
              M.faultPlan()->numOfflineEvents(),
              M.faultPlan()->domains().size(),
              M.faultPlan()->numTransients(), M.faultPlan()->wedges().size());

  std::vector<std::int64_t> Tail;
  FlexibleRegion Region = makeRegion(&Tail);
  CountedWorkSource Src(NumIters);
  RuntimeCosts Costs;
  RegionRunner Runner(M, Costs, Region, Src);
  RegionController Ctrl(Runner);
  Watchdog Dog(Ctrl);

  Decima Sensors;
  registerFaultFeatures(Sensors, M);
  FeatureSampler Sampler(Sim, Sensors,
                         {"OnlineCores", "StrandedThreads", "RepairedCores"});

  sim::SimTime DoneAt = 0;
  Runner.OnComplete = [&] {
    DoneAt = Sim.now();
    Sampler.stop();
  };

  Ctrl.start(8);
  Dog.start();
  Sampler.start();

  // Budget timeline: every change of the controller's effective thread
  // budget, sampled on the watchdog's own grid. The burst scenario
  // asserts a shrink at the domain event and a grow-back after repair.
  std::vector<unsigned> BudgetSteps{Ctrl.threadBudget()};
  std::function<void()> BudgetTick = [&] {
    if (Ctrl.threadBudget() != BudgetSteps.back())
      BudgetSteps.push_back(Ctrl.threadBudget());
    if (!Runner.completed())
      Sim.schedule(250 * sim::USec, BudgetTick);
  };
  Sim.schedule(250 * sim::USec, BudgetTick);

  // Progress timeline: windowed throughput + machine capacity every 5 ms.
  std::printf("-- timeline (5 ms windows) --\n");
  std::printf("%8s %10s %12s %7s %9s %7s\n", "t(ms)", "retired", "win it/s",
              "online", "stranded", "budget");
  std::uint64_t LastRetired = 0;
  std::function<void()> TimelineTick = [&] {
    std::uint64_t Retired = Runner.totalRetired();
    double Rate = static_cast<double>(Retired - LastRetired) /
                  sim::toSeconds(5 * sim::MSec);
    LastRetired = Retired;
    std::printf("%8.1f %10llu %12.0f %7u %9u %7u\n", us(Sim.now()) / 1000.0,
                static_cast<unsigned long long>(Retired), Rate,
                M.onlineCores(), M.strandedThreads(), Ctrl.threadBudget());
    if (!Runner.completed())
      Sim.schedule(5 * sim::MSec, TimelineTick);
  };
  Sim.schedule(5 * sim::MSec, TimelineTick);

  Sim.runUntil(2 * sim::Sec);

  // --- Verification -----------------------------------------------------
  bool Ok = true;
  auto Fail = [&Ok](const char *What) {
    std::printf("   FAIL: %s\n", What);
    Ok = false;
  };

  unsigned Shrinks = 0, Grows = 0;
  for (std::size_t I = 1; I < BudgetSteps.size(); ++I)
    (BudgetSteps[I] < BudgetSteps[I - 1] ? Shrinks : Grows)++;

  std::printf("\n-- verdict --\n");
  if (!Runner.completed())
    Fail("region did not complete");
  if (Tail.size() != NumIters)
    Fail("tail output incomplete or duplicated");
  for (std::size_t I = 0; I < Tail.size(); ++I)
    if (Tail[I] != static_cast<std::int64_t>(I)) {
      Fail("tail output out of order");
      std::printf("         first bad index %zu: got %lld\n", I,
                  static_cast<long long>(Tail[I]));
      break;
    }
  if (!Wedge && Dog.detections() < 1)
    Fail("watchdog never detected the capacity drop");
  if (Runner.totalFaults() == 0)
    Fail("no transient fault was ever injected");
  if (Dog.recoveriesCompleted() < 1)
    Fail("no recovery completed (MTTR never measured)");
  if (Wedge) {
    if (M.onlineCores() != 8)
      Fail("no core failed: all 8 cores must still be online");
    if (Dog.stallsDetected() < 1)
      Fail("watchdog never detected the wedge as a stall");
    if (Runner.recoveries() < 1)
      Fail("wedge never cleared by an abortive recovery");
  } else if (Burst) {
    if (M.onlineCores() != 8)
      Fail("expected all 8 cores back online after repair");
    if (M.repairsApplied() != 3)
      Fail("expected exactly 3 repaired cores");
    if (Dog.growthsDetected() < 1)
      Fail("watchdog never detected the capacity growth");
    if (Shrinks < 1)
      Fail("thread budget never shrank on the domain burst");
    if (Grows < 1)
      Fail("thread budget never grew back after repair");
    if (Ctrl.threadBudget() != 8)
      Fail("thread budget did not return to the full grant");
    if (DoneAt <= BurstAt + BurstDowntime)
      Fail("run finished before the repair: grow-back path unexercised");
  } else {
    if (M.onlineCores() != 6)
      Fail("expected exactly 6 surviving cores");
  }

  std::printf("   completed at %.2f ms; %llu/%llu iterations retired\n",
              us(DoneAt) / 1000.0,
              static_cast<unsigned long long>(Runner.totalRetired()),
              static_cast<unsigned long long>(NumIters));
  std::printf("   capacity: %u/8 cores online, %u repaired, %u thread(s)"
              " rescued\n",
              M.onlineCores(), M.repairsApplied(), Dog.threadsRescued());
  std::printf("   budget:");
  for (std::size_t I = 0; I < BudgetSteps.size(); ++I)
    std::printf("%s%u", I == 0 ? " " : " -> ", BudgetSteps[I]);
  std::printf(" (%u shrink(s), %u grow(s))\n", Shrinks, Grows);
  std::printf("   watchdog: %u detection(s), %u growth(s), %u stall(s), %u"
              " escalation(s), %u recovery(s) completed\n",
              Dog.detections(), Dog.growthsDetected(), Dog.stallsDetected(),
              Dog.escalationsHandled(), Dog.recoveriesCompleted());
  std::printf("   latency: detection %.0f us, growth %.0f us, MTTR %.0f us\n",
              us(Dog.lastDetectionLatency()), us(Dog.lastGrowthLatency()),
              us(Dog.lastMttr()));
  std::printf("   faults: %llu transient attempt(s) faulted, %llu"
              " escalation(s)\n",
              static_cast<unsigned long long>(Runner.totalFaults()),
              static_cast<unsigned long long>(Runner.totalEscalations()));
  std::printf("   runner: %u reconfiguration(s), %u full pause(s), %u"
              " abortive recovery(s)\n",
              Runner.reconfigurations(), Runner.fullPauses(),
              Runner.recoveries());
  std::printf("   decima: %llu platform-feature samples\n",
              static_cast<unsigned long long>(Sampler.samplesTaken()));

  std::printf("\nRESILIENCE: %s\n", Ok ? "OK" : "FAIL");
  return Ok ? 0 : 1;
}
