//===- Monitor.h - The Decima monitor ---------------------------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decima measures resource availability and system performance to detect
/// change in the environment (Chapter 6). Two halves:
///
///  * Application features: per-task execution time and workload, fed by
///    the begin/end hooks Nona inserts (Section 4.7) — in this
///    reproduction, the TaskStats counters RegionExec accumulates.
///  * Platform features: a registry of named callbacks ("SystemPower",
///    "Temperature", ...) that mechanism developers register
///    (Figure 5.8's registerCB/getValue API).
///
/// ThroughputWindow/TaskWindow turn the monotone counters into windowed
/// rates, tolerating the counter resets that scheme switches cause.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_DECIMA_MONITOR_H
#define PARCAE_DECIMA_MONITOR_H

#include "morta/RegionExec.h"
#include "sim/Simulator.h"
#include "sim/Time.h"
#include "telemetry/Telemetry.h"

#include <cassert>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace parcae::rt {

/// Platform-feature registry (the mechanism developer API of Figure 5.8).
class Decima {
public:
  /// Registers a platform feature; replaces any previous callback.
  void registerFeature(const std::string &Feature,
                       std::function<double()> GetValue) {
    assert(GetValue && "feature callback required");
    Features[Feature] = std::move(GetValue);
  }

  bool hasFeature(const std::string &Feature) const {
    return Features.count(Feature) != 0;
  }

  /// Reads the current value of a registered feature.
  double getValue(const std::string &Feature) const {
    auto It = Features.find(Feature);
    assert(It != Features.end() && "unregistered platform feature");
    return It->second();
  }

  /// Reads a feature that may not be registered on this platform —
  /// mechanisms probe optional sensors ("Temperature", "SystemPower")
  /// whose presence is workload- and machine-dependent.
  std::optional<double> tryGetValue(const std::string &Feature) const {
    auto It = Features.find(Feature);
    if (It == Features.end())
      return std::nullopt;
    return It->second();
  }

  /// Average execution (compute) time per iteration of a task, in cycles —
  /// the paper's Parcae::getExecTime.
  static double getExecTime(const RegionExec &R, unsigned TaskIdx) {
    const TaskStats &S = R.stats(TaskIdx);
    if (S.Iterations == 0)
      return 0.0;
    return static_cast<double>(S.ComputeTime) /
           static_cast<double>(S.Iterations);
  }

  /// Average Morta/Decima machinery time per iteration of a task, in
  /// cycles (hooks, status polls, activation loop). The chunking policy
  /// and the overheads bench read this to see what amortization buys.
  static double getOverheadTime(const RegionExec &R, unsigned TaskIdx) {
    const TaskStats &S = R.stats(TaskIdx);
    if (S.Iterations == 0)
      return 0.0;
    return static_cast<double>(S.OverheadTime) /
           static_cast<double>(S.Iterations);
  }

  /// Average cycles one iteration of a task occupies its thread: compute
  /// plus communication plus Morta/Decima overhead. The controller's
  /// search bound divides the thread budget by this.
  static double getIterationCost(const RegionExec &R, unsigned TaskIdx) {
    const TaskStats &S = R.stats(TaskIdx);
    if (S.Iterations == 0)
      return 0.0;
    return static_cast<double>(S.ComputeTime + S.CommTime + S.OverheadTime) /
           static_cast<double>(S.Iterations);
  }

  /// Current workload on a task — the paper's Parcae::getLoad.
  static double getLoad(const RegionExec &R, unsigned TaskIdx) {
    return R.loadOf(TaskIdx);
  }

private:
  std::map<std::string, std::function<double()>> Features;
};

/// Registers the fault-model platform features against \p M:
/// "OnlineCores" (cores currently operational — drops on failures and
/// grows back on repairs, so its sampled series is the full capacity
/// timeline), "StrandedThreads" (threads held hostage by failed cores),
/// and "RepairedCores" (cores re-onlined by repair events so far).
/// Mechanisms and the resilience bench sample these like any other
/// platform sensor.
inline void registerFaultFeatures(Decima &D, sim::Machine &M) {
  D.registerFeature("OnlineCores",
                    [&M] { return static_cast<double>(M.onlineCores()); });
  D.registerFeature("StrandedThreads",
                    [&M] { return static_cast<double>(M.strandedThreads()); });
  D.registerFeature("RepairedCores",
                    [&M] { return static_cast<double>(M.repairsApplied()); });
}

/// Periodically samples a set of named platform features into the trace
/// (as counter tracks) and the metrics registry (as gauges). Features not
/// registered on this platform are skipped — their presence is workload-
/// and machine-dependent, so the sampler probes with tryGetValue.
class FeatureSampler {
public:
  FeatureSampler(sim::Simulator &Sim, const Decima &D,
                 std::vector<std::string> Features,
                 sim::SimTime Period = 100 * sim::USec)
      : Sim(Sim), D(D), Features(std::move(Features)), Period(Period) {
    Tel = telemetry::recorder();
    if (Tel) {
      Tel->bindClock(Sim);
      TelPid = Tel->processFor("decima");
      Tel->nameThread(TelPid, 0, "features");
    }
  }

  /// Takes the first sample now and re-arms every period until stop().
  void start() {
    assert(!Running && "sampler already running");
    Running = true;
    sampleOnce();
    arm();
  }

  void stop() { Running = false; }

  /// Samples every present feature immediately (also usable standalone).
  void sampleOnce() {
    for (const std::string &F : Features) {
      std::optional<double> V = D.tryGetValue(F);
      if (!V)
        continue;
      ++Samples;
      if (Tel) {
        Tel->counter(TelPid, 0, "decima", F, *V);
        Tel->metrics().gauge("decima." + F).set(*V);
        Tel->metrics().histogram("decima." + F + ".dist").add(*V);
      }
    }
  }

  std::uint64_t samplesTaken() const { return Samples; }

private:
  void arm() {
    Sim.schedule(Period, [this] {
      if (!Running)
        return;
      sampleOnce();
      arm();
    });
  }

  sim::Simulator &Sim;
  const Decima &D;
  std::vector<std::string> Features;
  sim::SimTime Period;
  bool Running = false;
  std::uint64_t Samples = 0;

  // Telemetry (null when tracing is off).
  telemetry::TraceRecorder *Tel = nullptr;
  std::uint32_t TelPid = 0;
};

/// Windowed rate from a monotone counter: iterations per second between
/// mark() and sample(). Handles counter resets (value decreases) by
/// restarting the window.
class ThroughputWindow {
public:
  void mark(std::uint64_t Count, sim::SimTime Now) {
    StartCount = Count;
    StartTime = Now;
  }

  /// Iterations elapsed since the mark (0 after a counter reset).
  std::uint64_t progress(std::uint64_t Count) const {
    return Count >= StartCount ? Count - StartCount : 0;
  }

  /// Iterations per second since the mark.
  double rate(std::uint64_t Count, sim::SimTime Now) const {
    if (Now <= StartTime || Count <= StartCount)
      return 0.0;
    return static_cast<double>(Count - StartCount) /
           sim::toSeconds(Now - StartTime);
  }

  sim::SimTime startTime() const { return StartTime; }

private:
  std::uint64_t StartCount = 0;
  sim::SimTime StartTime = 0;
};

/// Per-task compute-time sampling used by the pipeline mechanisms that
/// rank tasks (TB/TBF, FDP, TPC).
class TaskWindow {
public:
  /// Re-anchors the window at the task's current counters.
  void mark(const RegionExec &R, unsigned TaskIdx) {
    Iters = R.stats(TaskIdx).Iterations;
    Compute = R.stats(TaskIdx).ComputeTime;
  }

  /// Average compute cycles per iteration since the mark.
  double execTime(const RegionExec &R, unsigned TaskIdx) const {
    const TaskStats &S = R.stats(TaskIdx);
    if (S.Iterations <= Iters || S.ComputeTime < Compute)
      return 0.0;
    return static_cast<double>(S.ComputeTime - Compute) /
           static_cast<double>(S.Iterations - Iters);
  }

private:
  std::uint64_t Iters = 0;
  sim::SimTime Compute = 0;
};

} // namespace parcae::rt

#endif // PARCAE_DECIMA_MONITOR_H
