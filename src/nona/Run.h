//===- Run.h - Executing compiled loops on the simulator --------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by tests and benchmarks: run a Nona-compiled loop to
/// completion under a fixed configuration, under a random reconfiguration
/// schedule (for semantics checks), or under the Morta run-time
/// controller (for the Section 8.3 experiments).
///
/// Every helper terminates: a run that retires nothing for one second of
/// virtual time before completing stops there and reports
/// Completed = false (Time is then when it gave up). A completed run's
/// Time is the moment its event queue drained.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_NONA_RUN_H
#define PARCAE_NONA_RUN_H

#include "morta/Controller.h"
#include "nona/Compile.h"

#include <cstdint>
#include <vector>

namespace parcae::ir {

struct CompiledRunResult {
  sim::SimTime Time = 0;
  bool Completed = false;
  std::uint64_t Retired = 0;
};

/// Runs a compiled loop to completion under a fixed configuration.
/// Resets loop state first.
CompiledRunResult runCompiled(CompiledLoop &CL, rt::RegionConfig C,
                              unsigned Cores,
                              const rt::RuntimeCosts &Costs = {});

/// Runs a compiled loop to completion while applying a random schedule of
/// in-place DoP changes and full scheme switches (semantics stress).
CompiledRunResult runCompiledChaotic(CompiledLoop &CL, unsigned Cores,
                                     std::uint64_t Seed,
                                     unsigned Reconfigs = 12);

struct ControlledRunResult {
  sim::SimTime Time = 0;
  bool Completed = false;
  rt::RegionConfig Final;
  double SeqThroughput = 0;
  double BestThroughput = 0;
  std::vector<rt::RegionController::TraceEntry> Trace;
};

/// Runs a compiled loop under the Chapter 6 run-time controller.
ControlledRunResult runControlled(CompiledLoop &CL, unsigned Budget,
                                  rt::ControllerParams P = {});

} // namespace parcae::ir

#endif // PARCAE_NONA_RUN_H
