//===- PipeMechanisms.h - Mechanisms for pipeline apps ----------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "Maximize Throughput with N threads [, P Watts]" mechanisms of
/// Sections 6.3.2 and 6.3.3, targeting pipeline applications:
///
///  * SEDA   — each stage locally grows its DoP when its input queue
///             exceeds a threshold (open loop, no global budget view).
///  * TB/TBF — Throughput Balance (with Fusion): assigns each parallel
///             task a DoP proportional to its measured per-iteration
///             execution time under the global budget; TBF additionally
///             switches to the fused variant when stage service times are
///             imbalanced by more than the fusion threshold.
///  * FDP    — Feedback-Directed Pipelining: closed loop; repeatedly
///             grants one more thread to the LIMITER (slowest) stage
///             while overall throughput improves.
///  * TPC    — Throughput/Power Controller: FDP-style growth gated by a
///             power budget read from the (rate-limited) PDU sampler;
///             backs off when power overshoots.
///
/// A MechanismDriver samples Decima windows periodically, invokes the
/// mechanism, and applies configuration changes through the RegionRunner.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_MECHANISMS_PIPEMECHANISMS_H
#define PARCAE_MECHANISMS_PIPEMECHANISMS_H

#include "decima/Monitor.h"
#include "morta/RegionRunner.h"
#include "sim/Power.h"

#include <optional>
#include <vector>

namespace parcae::rt {

/// What a mechanism sees at each decision point.
struct PipeMechView {
  sim::SimTime Now = 0;
  unsigned MaxThreads = 0;
  /// Region iterations per second over the last window.
  double Throughput = 0;
  /// Per task (current variant): average compute cycles per iteration
  /// over the window, and current input-queue occupancy.
  std::vector<double> ExecTime;
  std::vector<double> Load;
  const RegionConfig *Config = nullptr;
  const RegionDesc *Desc = nullptr;
  /// Last PDU power sample and the administrator's target (TPC only).
  double PowerWatts = 0;
  double PowerTargetWatts = 0;
};

/// Decides pipeline configurations from windowed observations.
class PipeMechanism {
public:
  virtual ~PipeMechanism();
  virtual const char *name() const = 0;
  virtual std::optional<RegionConfig> decide(const PipeMechView &V) = 0;
};

/// SEDA (30 LoC in the paper): local queue-threshold growth.
class SedaMechanism : public PipeMechanism {
public:
  SedaMechanism(double QueueThreshold = 8, unsigned MaxPerStage = 24)
      : QueueThreshold(QueueThreshold), MaxPerStage(MaxPerStage) {}
  const char *name() const override { return "SEDA"; }
  std::optional<RegionConfig> decide(const PipeMechView &V) override;

private:
  double QueueThreshold;
  unsigned MaxPerStage;
};

/// TB / TBF (89 LoC in the paper): global proportional assignment, with
/// optional task fusion.
class TbfMechanism : public PipeMechanism {
public:
  explicit TbfMechanism(bool EnableFusion) : EnableFusion(EnableFusion) {}
  const char *name() const override { return EnableFusion ? "TBF" : "TB"; }
  std::optional<RegionConfig> decide(const PipeMechView &V) override;

private:
  bool EnableFusion;
  bool Fused = false;
};

/// FDP (94 LoC in the paper): grow the LIMITER while throughput improves.
class FdpMechanism : public PipeMechanism {
public:
  const char *name() const override { return "FDP"; }
  std::optional<RegionConfig> decide(const PipeMechView &V) override;

private:
  double LastThroughput = 0;
  RegionConfig LastConfig;
  bool Probing = false;
  bool Stable = false;
  int ProbedTask = -1;
  std::vector<unsigned> Exhausted; ///< tasks whose last probe failed
};

/// TPC (154 LoC in the paper): maximize throughput under a power budget.
class TpcMechanism : public PipeMechanism {
public:
  const char *name() const override { return "TPC"; }
  std::optional<RegionConfig> decide(const PipeMechView &V) override;

private:
  double LastThroughput = 0;
  RegionConfig LastConfig;
  RegionConfig BestWithinBudget;
  double BestThroughput = 0;
  bool Probing = false;
  bool Stable = false;
  int ProbedTask = -1;
  unsigned StableWindows = 0; ///< windows spent latched stable
  std::vector<unsigned> Exhausted; ///< tasks whose last probe failed
};

/// Periodically samples the region and applies mechanism decisions.
class MechanismDriver {
public:
  MechanismDriver(RegionRunner &Runner, PipeMechanism &Mech,
                  unsigned MaxThreads, sim::SimTime Period);

  /// Launches the region under \p Initial and starts the decision loop.
  void start(RegionConfig Initial);

  /// Supplies power readings for TPC.
  void setPowerSource(const sim::PduSampler *Pdu, double TargetWatts) {
    this->Pdu = Pdu;
    PowerTarget = TargetWatts;
  }

  unsigned decisions() const { return Decisions; }

  /// Timeline of (time, throughput, power) per window, for the Figure
  /// 8.6 / 8.7 plots.
  struct Sample {
    sim::SimTime At;
    double Throughput;
    double PowerWatts;
    RegionConfig Config;
  };
  const std::vector<Sample> &timeline() const { return Timeline; }

private:
  void tick();

  RegionRunner &Runner;
  PipeMechanism &Mech;
  unsigned MaxThreads;
  sim::SimTime Period;
  const sim::PduSampler *Pdu = nullptr;
  double PowerTarget = 0;
  ThroughputWindow Window;
  std::vector<TaskWindow> TaskWindows;
  unsigned Decisions = 0;
  bool SettleSkip = false;
  std::vector<Sample> Timeline;
};

} // namespace parcae::rt

#endif // PARCAE_MECHANISMS_PIPEMECHANISMS_H
