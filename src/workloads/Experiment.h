//===- Experiment.h - Reusable experiment harnesses -------------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end experiment drivers shared by the unit tests and the
/// table/figure benchmarks: the Chapter 8 methodology (Poisson arrivals
/// at a load factor relative to the platform's maximum sustainable
/// throughput, M = 500 requests, mean response time over completed
/// requests) packaged as functions.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_WORKLOADS_EXPERIMENT_H
#define PARCAE_WORKLOADS_EXPERIMENT_H

#include "apps/LaneApps.h"
#include "apps/PipelineApps.h"
#include "mechanisms/LaneMechanisms.h"
#include "mechanisms/PipeMechanisms.h"
#include "sim/Power.h"
#include "workloads/LoadGen.h"

#include <functional>
#include <memory>

namespace parcae::rt {

/// Result of one server run.
struct ServerRunResult {
  ResponseStats Resp;
  double MeanResponseSec = 0;
  double ThroughputPerSec = 0; ///< completed requests / makespan
  sim::SimTime Makespan = 0;
  unsigned Reconfigurations = 0;
};

/// Maximum sustainable throughput of a lane app on \p Cores cores: the
/// paper's M/T with every request processed sequentially, all lanes busy.
double laneMaxThroughput(const LaneAppParams &P, unsigned Cores);

/// Runs a lane app under \p Mech at \p LoadFactor (fraction of the
/// maximum sustainable throughput) with \p Requests Poisson arrivals.
ServerRunResult runLaneExperiment(const LaneAppParams &P, LaneMechanism &Mech,
                                  unsigned Cores, double LoadFactor,
                                  std::uint64_t Requests = 500,
                                  std::uint64_t Seed = 1);

/// Configuration for a pipeline-app run.
struct PipelineRunSpec {
  unsigned Cores = 24;
  double ArrivalsPerSec = 1e9; ///< effectively saturated by default
  std::uint64_t Requests = 2000;
  std::uint64_t Seed = 1;
  /// Optional mechanism; when null the run is static under Initial.
  PipeMechanism *Mech = nullptr;
  RegionConfig Initial;
  sim::SimTime MechPeriod = 200 * sim::MSec;
  /// Optional power budget for TPC (watts); 0 disables power modelling.
  double PowerTargetWatts = 0;
  sim::PowerModel Power;
  /// Scheduler/cache costs of the machine (per-app cache-refill cost).
  sim::MachineConfig MC;
};

/// Result of a pipeline-app run.
struct PipelineRunResult {
  ServerRunResult Server;
  std::vector<MechanismDriver::Sample> Timeline;
  double MeanPowerWatts = 0;
  double EnergyJoules = 0;
};

/// Runs a pipeline app (builds a fresh region via \p Make each call).
PipelineRunResult
runPipelineExperiment(const std::function<PipelineApp()> &Make,
                      const PipelineRunSpec &Spec);

} // namespace parcae::rt

#endif // PARCAE_WORKLOADS_EXPERIMENT_H
