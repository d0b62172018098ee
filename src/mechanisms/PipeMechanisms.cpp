//===- PipeMechanisms.cpp - Mechanisms for pipeline apps -------------------===//

#include "mechanisms/PipeMechanisms.h"

#include <algorithm>
#include <cmath>

using namespace parcae::rt;
namespace sim = parcae::sim;

PipeMechanism::~PipeMechanism() = default;

namespace {

/// TBF fuses the pipeline when the fastest parallel stage's per-iteration
/// time is below this fraction of the slowest's (1 - min/max above it).
constexpr double FusionImbalance = 0.5;

/// Iterations a decision window must retire before MechanismDriver decides.
constexpr std::uint64_t MinWindowIters = 24;

/// Parallel-task indices of the current variant.
std::vector<unsigned> parallelTasks(const PipeMechView &V) {
  std::vector<unsigned> Par;
  for (unsigned T = 0; T < V.Desc->numTasks(); ++T)
    if (V.Desc->Tasks[T].isParallel())
      Par.push_back(T);
  return Par;
}

/// The LIMITER: the parallel task with the lowest service capacity
/// DoP / execTime (iterations per cycle the team can sustain), skipping
/// tasks in \p Exclude.
int limiterTask(const PipeMechView &V,
                const std::vector<unsigned> &Exclude = {}) {
  int Lim = -1;
  double Worst = 0;
  for (unsigned T : parallelTasks(V)) {
    if (std::find(Exclude.begin(), Exclude.end(), T) != Exclude.end())
      continue;
    double Exec = V.ExecTime[T];
    if (Exec <= 0)
      continue;
    double Capacity = static_cast<double>(V.Config->DoP[T]) / Exec;
    if (Lim < 0 || Capacity < Worst) {
      Lim = static_cast<int>(T);
      Worst = Capacity;
    }
  }
  return Lim;
}

/// The parallel task with the most capacity slack and DoP > 1 (candidate
/// to donate a thread).
int slackestTask(const PipeMechView &V) {
  int Best = -1;
  double Most = 0;
  for (unsigned T : parallelTasks(V)) {
    if (V.Config->DoP[T] <= 1)
      continue;
    double Exec = V.ExecTime[T] > 0 ? V.ExecTime[T] : 1;
    double Capacity = static_cast<double>(V.Config->DoP[T]) / Exec;
    if (Best < 0 || Capacity > Most) {
      Best = static_cast<int>(T);
      Most = Capacity;
    }
  }
  return Best;
}

} // namespace

std::optional<RegionConfig> SedaMechanism::decide(const PipeMechView &V) {
  RegionConfig C = *V.Config;
  bool Changed = false;
  for (unsigned T : parallelTasks(V)) {
    if (V.Load[T] > QueueThreshold && C.DoP[T] < MaxPerStage) {
      ++C.DoP[T];
      Changed = true;
    }
  }
  if (!Changed)
    return {};
  return C;
}

std::optional<RegionConfig> TbfMechanism::decide(const PipeMechView &V) {
  std::vector<unsigned> Par = parallelTasks(V);
  if (Par.empty())
    return {};

  // Fusion check: service-time imbalance beyond the threshold collapses
  // the pipeline (switch to the Fused variant) — Section 6.3.2.
  if (EnableFusion && !Fused && V.Config->S == Scheme::PsDswp) {
    double MinE = 0, MaxE = 0;
    bool Have = false;
    for (unsigned T : Par) {
      if (V.ExecTime[T] <= 0)
        continue;
      if (!Have) {
        MinE = MaxE = V.ExecTime[T];
        Have = true;
        continue;
      }
      MinE = std::min(MinE, V.ExecTime[T]);
      MaxE = std::max(MaxE, V.ExecTime[T]);
    }
    if (Have && MaxE > 0 && (1.0 - MinE / MaxE) > FusionImbalance) {
      Fused = true;
      RegionConfig C;
      C.S = Scheme::Fused;
      // One thread per sequential end, the rest in the fused middle.
      C.DoP = {1, std::max(1u, V.MaxThreads - 2), 1};
      return C;
    }
  }

  // Proportional assignment: DoP_i proportional to exec time (slower
  // tasks get more threads), as in the Figure 5.9 mechanism.
  unsigned SeqCount = V.Desc->numTasks() - static_cast<unsigned>(Par.size());
  unsigned Avail = V.MaxThreads > SeqCount ? V.MaxThreads - SeqCount
                                           : static_cast<unsigned>(Par.size());
  double Total = 0;
  for (unsigned T : Par)
    Total += std::max(V.ExecTime[T], 1.0);
  RegionConfig C = *V.Config;
  unsigned Assigned = 0;
  for (unsigned T : Par) {
    double Share = std::max(V.ExecTime[T], 1.0) / Total;
    unsigned D = std::max(
        1u, static_cast<unsigned>(Share * static_cast<double>(Avail) + 0.5));
    C.DoP[T] = D;
    Assigned += D;
  }
  // Trim overshoot from the largest assignments.
  while (Assigned > Avail) {
    unsigned *MaxD = nullptr;
    for (unsigned T : Par)
      if (C.DoP[T] > 1 && (!MaxD || C.DoP[T] > *MaxD))
        MaxD = &C.DoP[T];
    if (!MaxD)
      break;
    --*MaxD;
    --Assigned;
  }
  if (C == *V.Config)
    return {};
  return C;
}

std::optional<RegionConfig> FdpMechanism::decide(const PipeMechView &V) {
  if (Stable)
    return {};
  if (Probing) {
    Probing = false;
    if (V.Throughput > LastThroughput * 1.02) {
      // The grant helped: lock it in and retry every task again.
      LastThroughput = V.Throughput;
      LastConfig = *V.Config;
      Exhausted.clear();
    } else {
      // No improvement: revert and move on to the next-slowest task.
      if (ProbedTask >= 0)
        Exhausted.push_back(static_cast<unsigned>(ProbedTask));
      if (!(LastConfig == *V.Config))
        return LastConfig;
    }
  } else {
    LastThroughput = V.Throughput;
    LastConfig = *V.Config;
  }

  int Lim = limiterTask(V, Exhausted);
  if (Lim < 0) {
    Stable = true; // every stage's probe failed
    return {};
  }
  RegionConfig C = *V.Config;
  if (C.totalThreads() < V.MaxThreads) {
    ++C.DoP[static_cast<unsigned>(Lim)];
  } else {
    // No free threads: take one from the most slack task (the paper's
    // FDP time-multiplexes the two fastest tasks on one thread).
    int Donor = slackestTask(V);
    if (Donor < 0 || Donor == Lim) {
      Stable = true;
      return {};
    }
    --C.DoP[static_cast<unsigned>(Donor)];
    ++C.DoP[static_cast<unsigned>(Lim)];
  }
  ProbedTask = Lim;
  Probing = true;
  return C;
}

std::optional<RegionConfig> TpcMechanism::decide(const PipeMechView &V) {
  bool OverBudget =
      V.PowerTargetWatts > 0 && V.PowerWatts > V.PowerTargetWatts;

  if (OverBudget) {
    // Back off: drop one thread from the most slack task; remember the
    // best in-budget configuration seen so far.
    Stable = false;
    Probing = false;
    RegionConfig C = *V.Config;
    int Donor = slackestTask(V);
    if (Donor >= 0 && C.DoP[static_cast<unsigned>(Donor)] > 1) {
      --C.DoP[static_cast<unsigned>(Donor)];
      return C;
    }
    if (BestThroughput > 0 && !(BestWithinBudget == *V.Config))
      return BestWithinBudget;
    return {};
  }

  // Within budget: record, then keep growing the LIMITER while both the
  // throughput improves and the budget holds (closed loop on both).
  if (V.Throughput > BestThroughput) {
    BestThroughput = V.Throughput;
    BestWithinBudget = *V.Config;
  }
  if (Stable) {
    // The controller monitors continuously (Section 6.3.3): while power
    // headroom remains, periodically re-open the search — workload
    // changes or earlier noisy probes may have left throughput on the
    // table.
    if (++StableWindows >= 6 &&
        (V.PowerTargetWatts <= 0 || V.PowerWatts < V.PowerTargetWatts)) {
      Stable = false;
      StableWindows = 0;
      Exhausted.clear();
    }
    return {};
  }
  if (Probing) {
    Probing = false;
    if (V.Throughput > LastThroughput * 1.01) {
      LastThroughput = V.Throughput;
      LastConfig = *V.Config;
      Exhausted.clear();
    } else {
      if (ProbedTask >= 0)
        Exhausted.push_back(static_cast<unsigned>(ProbedTask));
      if (!(LastConfig == *V.Config))
        return LastConfig;
    }
  } else {
    LastThroughput = V.Throughput;
    LastConfig = *V.Config;
  }
  int Lim = limiterTask(V, Exhausted);
  if (Lim < 0) {
    Stable = true;
    return {};
  }
  RegionConfig C = *V.Config;
  if (C.totalThreads() >= V.MaxThreads) {
    Stable = true;
    return {};
  }
  ++C.DoP[static_cast<unsigned>(Lim)];
  ProbedTask = Lim;
  Probing = true;
  return C;
}

MechanismDriver::MechanismDriver(RegionRunner &Runner, PipeMechanism &Mech,
                                 unsigned MaxThreads, sim::SimTime Period)
    : Runner(Runner), Mech(Mech), MaxThreads(MaxThreads), Period(Period) {}

void MechanismDriver::start(RegionConfig Initial) {
  Runner.start(std::move(Initial));
  Window.mark(Runner.totalRetired(), Runner.machine().sim().now());
  if (RegionExec *E = Runner.exec()) {
    TaskWindows.assign(E->numTasks(), TaskWindow());
    for (unsigned T = 0; T < E->numTasks(); ++T)
      TaskWindows[T].mark(*E, T);
  }
  Runner.machine().sim().schedule(Period, [this] { tick(); });
}

void MechanismDriver::tick() {
  sim::Simulator &Sim = Runner.machine().sim();
  if (Runner.completed())
    return;
  RegionExec *E = Runner.exec();
  if (!E || Runner.transitioning()) {
    Sim.schedule(Period, [this] { tick(); });
    return;
  }
  // Decision quality needs a statistically meaningful window: wait until
  // enough iterations retired (low-throughput regions get longer windows).
  if (Window.progress(Runner.totalRetired()) < MinWindowIters) {
    Sim.schedule(Period, [this] { tick(); });
    return;
  }

  PipeMechView V;
  V.Now = Sim.now();
  V.MaxThreads = MaxThreads;
  V.Throughput = Window.rate(Runner.totalRetired(), Sim.now());
  V.Config = &Runner.config();
  V.Desc = &Runner.region().variant(Runner.config().S);
  if (TaskWindows.size() != E->numTasks())
    TaskWindows.assign(E->numTasks(), TaskWindow());
  V.ExecTime.resize(E->numTasks());
  V.Load.resize(E->numTasks());
  for (unsigned T = 0; T < E->numTasks(); ++T) {
    V.ExecTime[T] = TaskWindows[T].execTime(*E, T);
    if (V.ExecTime[T] <= 0)
      V.ExecTime[T] = Decima::getExecTime(*E, T);
    V.Load[T] = E->loadOf(T);
  }
  V.PowerWatts = Pdu ? Pdu->lastSample() : 0;
  V.PowerTargetWatts = PowerTarget;

  Timeline.push_back({Sim.now(), V.Throughput, V.PowerWatts, *V.Config});

  if (SettleSkip) {
    // The window right after a reconfiguration still carries the old
    // configuration's in-flight iterations; discard it and re-anchor.
    SettleSkip = false;
  } else if (auto C = Mech.decide(V)) {
    ++Decisions;
    Runner.reconfigure(std::move(*C));
    SettleSkip = true;
  }

  // Re-anchor the windows for the next period.
  Window.mark(Runner.totalRetired(), Sim.now());
  if (RegionExec *E2 = Runner.exec())
    if (TaskWindows.size() == E2->numTasks())
      for (unsigned T = 0; T < E2->numTasks(); ++T)
        TaskWindows[T].mark(*E2, T);
  Sim.schedule(Period, [this] { tick(); });
}
