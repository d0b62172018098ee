//===- Workload.h - The benchmark's workload interface ----------*- C++ -*-===//
//
// Part of the Parcae reproduction's benchmark (perfbench/NOTES.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A workload builds its inputs from a seed (prepare(), the timed set-up)
/// and then runs one deterministic pass of simulations over them (run(),
/// the timed part). Everything a pass reports in virtual time must repeat
/// exactly across passes; main.cpp checks that and times the passes.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_PERFBENCH_WORKLOAD_H
#define PARCAE_PERFBENCH_WORKLOAD_H

#include "Trace.h"

#include "sim/Machine.h"
#include "sim/Simulator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// What one pass produced. Every number here is virtual-time (or a count)
/// and therefore repeats exactly for a fixed seed.
struct PassResult {
  /// End-to-end outcomes of the modelled system, by metric name.
  std::map<std::string, double> Outcomes;
  /// Per-layer counters measured from the library's public accessors.
  std::map<std::string, double> Layers;
  /// The workload's operations and those that failed (fail_frac).
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  /// Correctness violations; any entry fails the run.
  std::vector<std::string> Errors;
  /// Human-readable report lines (printed once, before the result).
  std::vector<std::string> Report;

  // Simulator totals over every simulation of the pass.
  std::uint64_t Events = 0;
  std::uint64_t WheelHits = 0;
  std::uint64_t HeapHits = 0;
  double BusyCoreNs = 0;  ///< integral of busy cores over virtual time
  double CoreNs = 0;      ///< cores x virtual time simulated

  /// Folds one finished simulation into the simulator totals.
  void addSim(const parcae::sim::Simulator &Sim,
              const parcae::sim::Machine &M) {
    auto Q = Sim.queueStats();
    Events += Sim.eventsProcessed();
    WheelHits += Q.WheelHits;
    HeapHits += Q.HeapHits;
    BusyCoreNs += static_cast<double>(M.busyCoreTime());
    CoreNs += static_cast<double>(M.numCores()) *
              static_cast<double>(Sim.now());
  }

  void check(bool Cond, const std::string &What) {
    if (!Cond)
      Errors.push_back(What);
  }
};

class Workload {
public:
  virtual ~Workload() = default;
  /// Builds every input of a pass from \p Seed, replacing earlier ones.
  virtual void prepare(std::uint64_t Seed) = 0;
  /// One pass over the prepared inputs.
  virtual PassResult run() = 0;
  /// The correctness reference, computed once and kept out of the timed
  /// passes (nona-suite interprets its loops; the others need nothing).
  virtual void buildReference() {}
};

std::unique_ptr<Workload> makeServeLadder();
std::unique_ptr<Workload> makeNonaSuite();
std::unique_ptr<Workload> makePipelineFaults();

/// Drives \p Sim in runUntil slices of \p Slice, one span each, until
/// \p Done() or virtual time \p Cap: a run that stalls ends at the cap.
template <typename DoneFn>
void runCapped(parcae::sim::Simulator &Sim, parcae::sim::SimTime Cap,
               parcae::sim::SimTime Slice, DoneFn Done) {
  while (!Done() && Sim.now() < Cap) {
    Span S("run_until", Layer::Sim);
    Sim.runUntil(std::min(Sim.now() + Slice, Cap));
  }
}

/// Nearest-rank percentile of \p V (sorted in place); NaN when empty.
inline double percentile(std::vector<double> &V, double P) {
  if (V.empty())
    return std::numeric_limits<double>::quiet_NaN();
  std::sort(V.begin(), V.end());
  std::size_t Rank = static_cast<std::size_t>(
      std::ceil(P / 100.0 * static_cast<double>(V.size())));
  return V[Rank == 0 ? 0 : std::min(Rank, V.size()) - 1];
}

inline double ms(parcae::sim::SimTime T) {
  return static_cast<double>(T) / static_cast<double>(parcae::sim::MSec);
}

} // namespace perfbench

#endif // PARCAE_PERFBENCH_WORKLOAD_H
