//===- Run.h - Executing compiled loops on the simulator --------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by tests and benchmarks: run a Nona-compiled loop to
/// completion under a fixed configuration, or under the Morta run-time
/// controller (for the Section 8.3 experiments). The tests' random
/// reconfiguration schedule is built on these (tests/ChaoticRun.h).
///
/// Every helper terminates: a run that retires nothing for one second of
/// virtual time before completing stops there and reports
/// Completed = false (Time is then when it gave up, and Stall says where
/// the region stood). A completed run's Time is the moment its event
/// queue drained.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_NONA_RUN_H
#define PARCAE_NONA_RUN_H

#include "morta/Controller.h"
#include "nona/Compile.h"

#include <cstdint>
#include <string>
#include <vector>

namespace parcae::ir {

/// Steps \p Sim until its event queue drains, exactly as
/// Simulator::run() does, unless \p Runner retires nothing for one
/// second of virtual time before completing. Returns whether the runner
/// completed. The helpers below all run this way; tests that set up their
/// own runner (a pinned chunk size, a custom reconfiguration schedule)
/// call it directly.
bool runBounded(sim::Simulator &Sim, const rt::RegionRunner &Runner);

/// Where \p Runner's region stands (RegionExec::stallReport), or empty
/// once it has completed.
std::string stallReportOf(const rt::RegionRunner &Runner);

struct CompiledRunResult {
  sim::SimTime Time = 0;
  bool Completed = false;
  std::uint64_t Retired = 0;
  /// Set when Completed = false: stallReportOf() at the moment the run
  /// gave up.
  std::string Stall;
};

/// Runs a compiled loop to completion under a fixed configuration.
/// Resets loop state first.
CompiledRunResult runCompiled(CompiledLoop &CL, rt::RegionConfig C,
                              unsigned Cores,
                              const rt::RuntimeCosts &Costs = {});

struct ControlledRunResult {
  sim::SimTime Time = 0;
  bool Completed = false;
  rt::RegionConfig Final;
  double SeqThroughput = 0;
  double BestThroughput = 0;
  std::vector<rt::RegionController::TraceEntry> Trace;
  /// Set when Completed = false, as in CompiledRunResult.
  std::string Stall;
};

/// Runs a compiled loop under the Chapter 6 run-time controller.
ControlledRunResult runControlled(CompiledLoop &CL, unsigned Budget);

} // namespace parcae::ir

#endif // PARCAE_NONA_RUN_H
