//===- PipelineFaults.cpp - pipeline-faults: recovery under a fault plan --===//
//
// bench_resilience's produce -> work -> commit pipeline on 8 cores under
// RegionController + Watchdog, with speculative re-issue and slow-core
// avoidance on and warning drains at their default (on). A closed loop
// of Iters items whose work costs are drawn from the seed. The seeded
// fault plan on machine A holds scattered straggler windows, a warned
// 3-core failure domain that is repaired, an unwarned permanent core loss
// and scattered transient faults. At HopAt the region hops machines the
// way bench_checkpoint does it: checkpointTo -> serialize -> deserialize
// -> startFromSnapshot on a fresh machine B, which sees the same
// transient faults but no stragglers. The committed tail must be every
// item once, in order, across faults and the hop.
//
// The fault timeline keeps the controller's own search out of the seed's
// reach: scattered straggler windows elsewhere made it settle anywhere
// from PS-DSWP<1,2,1> to <1,6,1> and swung makespan by 30% between seeds.
// Stragglers fall inside the domain outage, so they can only corrupt the
// budget-5 cache entry, which machine B never uses; the core loss comes
// 10 ms before the hop because the budget-7 search it triggers is bimodal.
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "checkpoint/Snapshot.h"
#include "core/Region.h"
#include "morta/Controller.h"
#include "morta/Watchdog.h"
#include "sim/Faults.h"
#include "sim/Power.h"
#include "support/Rng.h"

#include <cstdio>

using namespace parcae;
using namespace parcae::rt;
using namespace perfbench;

namespace {

constexpr std::uint64_t Iters = 400000;
/// Per-item work cycles are uniform in [MinWork, MaxWork].
constexpr sim::SimTime MinWork = 20000, MaxWork = 28000;
constexpr sim::SimTime ProduceCost = 1500, CommitCost = 1000;
constexpr unsigned Cores = 8;
constexpr sim::SimTime Slice = 50 * sim::MSec;
/// Machine A checkpoints the region here (its own clock).
constexpr sim::SimTime HopAt = 450 * sim::MSec;
/// Either machine failing to finish its part by this time fails the run.
constexpr sim::SimTime Cap = 10 * sim::Sec;
constexpr sim::SimTime DomainAt = 120 * sim::MSec + 130 * sim::USec;
constexpr sim::SimTime OfflineAt = 440 * sim::MSec + 130 * sim::USec;

/// bench_resilience's pipeline over per-item work costs \p Work. Head and
/// tail stamp every item's virtual produce and commit times; WorkCalls
/// counts work-functor calls (re-executions and speculative clones
/// included).
struct Pipeline {
  const std::vector<sim::SimTime> &Work;
  std::vector<std::int64_t> Tail;
  std::vector<sim::SimTime> ProducedAt;
  std::vector<double> LatencyMs;
  std::uint64_t WorkCalls = 0;
  FlexibleRegion Region{"resil"};

  explicit Pipeline(const std::vector<sim::SimTime> &Work)
      : Work(Work), ProducedAt(Iters) {
    Tail.reserve(Iters);
    LatencyMs.reserve(Iters);
    RegionDesc D;
    D.Name = "resil-pipe";
    D.S = Scheme::PsDswp;
    D.Tasks.emplace_back("produce", TaskType::Seq, [this](IterationContext &C) {
      Span S("produce", Layer::Apps);
      C.Cost = ProduceCost;
      C.Out[0].Value = static_cast<std::int64_t>(C.Seq);
      ProducedAt[C.Seq] = C.Now;
    });
    D.Tasks.emplace_back("work", TaskType::Par, [this](IterationContext &C) {
      Span S("work", Layer::Apps);
      ++WorkCalls;
      C.Cost = this->Work[C.Seq];
      C.Out[0].Value = C.In[0].Value;
    });
    D.Tasks.emplace_back("commit", TaskType::Seq, [this](IterationContext &C) {
      Span S("commit", Layer::Apps);
      C.Cost = CommitCost;
      Tail.push_back(C.In[0].Value);
      LatencyMs.push_back(ms(C.Now - ProducedAt[C.Seq]));
    });
    D.Links.push_back({0, 1});
    D.Links.push_back({1, 2});
    Region.addVariant(std::move(D));

    RegionDesc Seq;
    Seq.Name = "resil-seq";
    Seq.S = Scheme::Seq;
    Seq.Tasks.emplace_back("all", TaskType::Seq, [this](IterationContext &C) {
      Span S("all", Layer::Apps);
      ++WorkCalls;
      C.Cost = ProduceCost + this->Work[C.Seq] + CommitCost;
      Tail.push_back(static_cast<std::int64_t>(C.Seq));
      LatencyMs.push_back(ms(C.Cost));
    });
    Region.addVariant(std::move(Seq));
  }
};

WatchdogParams watchdogParams() {
  WatchdogParams WP;
  WP.Speculate = true;
  WP.SpecStallThreshold = 500 * sim::USec;
  WP.SpecAgeThreshold = 250 * sim::USec;
  return WP;
}

sim::MachineConfig machineConfig() {
  sim::MachineConfig MC;
  MC.SlowCoreAvoidance = true;
  return MC;
}

/// Morta counters of one machine's part of the run.
struct Counters {
  unsigned Detections = 0, Drains = 0, Speculations = 0, Rescued = 0,
           Recoveries = 0, TaskRestarts = 0;
  sim::SimTime Mttr = 0, DrainLatency = 0;

  void add(const Watchdog &Dog, const RegionRunner &Runner) {
    Detections += Dog.detections();
    Drains += Dog.drainsCompleted();
    Speculations += Dog.speculationsIssued();
    Rescued += Dog.threadsRescued();
    Recoveries += Runner.recoveries();
    TaskRestarts += Runner.taskRestarts();
    Mttr = std::max(Mttr, Dog.lastMttr());
    DrainLatency = std::max(DrainLatency, Dog.lastDrainLatency());
  }
};

class PipelineFaults : public Workload {
public:
  void prepare(std::uint64_t Seed) override {
    Rng R(Seed);
    std::uint64_t SeedA = R.next(), SeedT = R.next(), SeedD = R.next();
    Work.resize(Iters);
    SeqWork = 0;
    for (sim::SimTime &W : Work) {
      W = MinWork + R.nextBelow(MaxWork - MinWork + 1);
      SeqWork += ProduceCost + W + CommitCost;
    }
    PlanA = sim::FaultPlan();
    PlanA.scatterStragglers(SeedA, Cores, /*Count=*/8, DomainAt + 5 * sim::MSec,
                            DomainAt + 50 * sim::MSec, 12 * sim::MSec, 8.0,
                            32.0);
    PlanA.scatterDomain(SeedD, "socket", Cores, /*Size=*/3, DomainAt,
                        /*Downtime=*/60 * sim::MSec,
                        /*Warning=*/6 * sim::MSec);
    // The unwarned loss hits a core outside the warned domain.
    const std::vector<unsigned> &Dom = PlanA.domains().back().Cores;
    unsigned Lost = static_cast<unsigned>(R.nextBelow(Cores));
    while (std::find(Dom.begin(), Dom.end(), Lost) != Dom.end())
      Lost = (Lost + 1) % Cores;
    PlanA.addOffline(Lost, OfflineAt);
    PlanB = sim::FaultPlan();
    for (sim::FaultPlan *Plan : {&PlanA, &PlanB})
      Plan->scatterTransients(SeedT, "work", 2000, Iters - 2000,
                              /*Count=*/80, /*MaxFailCount=*/1);
  }

  PassResult run() override;

private:
  std::vector<sim::SimTime> Work;
  sim::SimTime SeqWork = 0; ///< cycles of every item run sequentially
  sim::FaultPlan PlanA, PlanB;
};

PassResult PipelineFaults::run() {
  PassResult P;
  Pipeline Pipe(Work);
  Counters C;
  double Joules = 0;
  std::string Wire;
  sim::SimTime QuiescedAt = 0, QuiesceLatency = 0, DoneAtB = 0;

  // --- Machine A: run under faults, then checkpoint ----------------------
  {
    Span Run("machine_a", Layer::Bench);
    sim::Simulator Sim;
    sim::Machine M(Sim, Cores, machineConfig());
    M.installFaultPlan(PlanA);
    sim::EnergyMeter Meter(M, sim::PowerModel{});
    CountedWorkSource Src(Iters);
    RuntimeCosts Costs;
    RegionRunner Runner(M, Costs, Pipe.Region, Src);
    RegionController Ctrl(Runner);
    Watchdog Dog(Ctrl, watchdogParams());
    Ctrl.start(Cores);
    Dog.start();
    bool Accepted = false;
    Sim.scheduleAt(HopAt, [&] {
      Accepted = Ctrl.checkpointTo([&](ckpt::RegionSnapshot S) {
        QuiescedAt = Sim.now();
        QuiesceLatency = QuiescedAt - HopAt;
        Span Ser("serialize", Layer::Checkpoint);
        Wire = S.serialize();
      });
    });
    runCapped(Sim, Cap, Slice,
              [&] { return !Wire.empty() || Runner.completed(); });
    P.check(Accepted, "machine A refused the checkpoint request");
    P.check(!Wire.empty(), "machine A never produced a snapshot");
    C.add(Dog, Runner);
    Joules += Meter.joules();
    P.addSim(Sim, M);
    P.Report.push_back("machine A: " + Runner.config().str() + " at the hop, " +
                       std::to_string(Runner.totalRetired()) +
                       " items committed, budget " +
                       std::to_string(Ctrl.threadBudget()));
  }

  // --- The wire format round-trips byte-identically ----------------------
  ckpt::RegionSnapshot Snap;
  {
    Span S("deserialize", Layer::Checkpoint);
    P.check(ckpt::RegionSnapshot::deserialize(Wire, Snap),
            "snapshot failed to deserialize");
  }
  {
    Span S("serialize", Layer::Checkpoint);
    P.check(Snap.serialize() == Wire,
            "serialize -> deserialize -> serialize is not byte-identical");
  }
  P.check(Snap.Cursor == Pipe.Tail.size(),
          "snapshot cursor does not match the committed tail");

  // --- Machine B: fresh simulator, restore, finish -----------------------
  if (!Wire.empty()) {
    Span Run("machine_b", Layer::Bench);
    sim::Simulator Sim;
    sim::Machine M(Sim, Cores, machineConfig());
    M.installFaultPlan(PlanB);
    sim::EnergyMeter Meter(M, sim::PowerModel{});
    CountedWorkSource Src(0); // restoreState rewinds it to the snapshot
    RuntimeCosts Costs;
    RegionRunner Runner(M, Costs, Pipe.Region, Src);
    RegionController Ctrl(Runner);
    Watchdog Dog(Ctrl, watchdogParams());
    Runner.OnComplete = [&] { DoneAtB = Sim.now(); };
    {
      Span S("start_from_snapshot", Layer::Morta);
      Ctrl.startFromSnapshot(Cores, Snap);
    }
    Dog.start();
    runCapped(Sim, Cap, Slice, [&] { return Runner.completed(); });
    P.check(Runner.completed(), "restored region did not complete in time");
    P.Report.push_back("machine B: " + Runner.config().str() + " at the end, " +
                       std::to_string(Runner.reconfigurations()) +
                       " reconfiguration(s)");
    C.add(Dog, Runner);
    Joules += Meter.joules();
    P.addSim(Sim, M);
  }

  // --- Exactly-once, in order, across faults and the hop ----------------
  // Failed items: never committed, committed again, or committed after a
  // later item.
  P.Attempted = Iters;
  std::vector<bool> Seen(Iters);
  std::int64_t Highest = -1;
  for (std::int64_t V : Pipe.Tail) {
    if (V < 0 || V >= static_cast<std::int64_t>(Iters) || Seen[V]) {
      ++P.Failed;
      continue;
    }
    Seen[V] = true;
    if (V < Highest)
      ++P.Failed;
    Highest = std::max(Highest, V);
  }
  P.Failed += std::count(Seen.begin(), Seen.end(), false);
  P.check(P.Failed == 0, "committed tail lost, duplicated or reordered items");
  P.check(C.Drains >= 1, "no warned drain completed");
  P.check(C.Detections >= 1, "the watchdog never detected the core loss");

  double Makespan = ms(QuiescedAt + DoneAtB);
  std::vector<double> Lat = Pipe.LatencyMs;
  P.Outcomes["makespan_ms"] = Makespan;
  P.Outcomes["speedup_vs_seq"] = ms(SeqWork) / Makespan;
  P.Outcomes["goodput_rps"] = static_cast<double>(Iters) / (Makespan / 1e3);
  P.Outcomes["energy_mj_per_op"] =
      Joules * 1000.0 / static_cast<double>(Iters);
  P.Outcomes["p50_ms"] = percentile(Lat, 50);
  P.Outcomes["p99_ms"] = percentile(Lat, 99);

  P.Layers["morta.detections"] = C.Detections;
  P.Layers["morta.mttr_ms"] = ms(C.Mttr);
  P.Layers["morta.drains"] = C.Drains;
  P.Layers["morta.drain_latency_ms"] = ms(C.DrainLatency);
  P.Layers["morta.speculations"] = C.Speculations;
  P.Layers["morta.recoveries"] = C.Recoveries;
  P.Layers["morta.task_restarts"] = C.TaskRestarts;
  P.Layers["morta.rescued_threads"] = C.Rescued;
  P.Layers["checkpoint.bytes"] = static_cast<double>(Wire.size());
  P.Layers["checkpoint.quiesce_ms"] = ms(QuiesceLatency);
  P.Layers["apps.reexec_frac"] =
      static_cast<double>(Pipe.WorkCalls - std::min(Pipe.WorkCalls, Iters)) /
      static_cast<double>(Iters);

  char Line[256];
  std::snprintf(Line, sizeof(Line),
                "makespan %.3f ms (hop at %.3f ms, snapshot %zu bytes,"
                " quiesce %.3f ms); speedup over sequential work %.3fx",
                Makespan, ms(QuiescedAt), Wire.size(), ms(QuiesceLatency),
                P.Outcomes["speedup_vs_seq"]);
  P.Report.push_back(Line);
  std::snprintf(Line, sizeof(Line),
                "watchdog: %u detection(s), %u drain(s), %u speculation(s),"
                " %u recovery(s), %u rescued; fail_frac %llu/%llu",
                C.Detections, C.Drains, C.Speculations, C.Recoveries,
                C.Rescued, static_cast<unsigned long long>(P.Failed),
                static_cast<unsigned long long>(P.Attempted));
  P.Report.push_back(Line);
  std::snprintf(Line, sizeof(Line),
                "item latency p50 %.4f ms p99 %.4f ms (n=%zu)",
                P.Outcomes["p50_ms"], P.Outcomes["p99_ms"], Lat.size());
  P.Report.push_back(Line);
  return P;
}

} // namespace

std::unique_ptr<Workload> perfbench::makePipelineFaults() {
  return std::make_unique<PipelineFaults>();
}
