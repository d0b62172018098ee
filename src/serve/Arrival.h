//===- Arrival.h - Open-loop arrival processes ------------------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded arrival processes for the serving layer: requests arrive whether
/// or not capacity is free (open loop), which is what separates a serving
/// benchmark from the closed-loop trip-counted runs everywhere else in the
/// repo. Two generators:
///
///  * PoissonArrivals — constant-rate memoryless arrivals (Chapter 8's
///    load generator);
///  * TraceArrivals   — a piecewise-constant rate replay that ends at the
///    last segment boundary (the benches' under-load, overload and
///    recovery phases).
///
/// All randomness comes from a caller-provided seed and all time is the
/// simulator's virtual clock, so a replay with the same seed is
/// byte-identical — the determinism invariant check_serve.sh asserts.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_SERVE_ARRIVAL_H
#define PARCAE_SERVE_ARRIVAL_H

#include "sim/Time.h"
#include "support/Rng.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace parcae::serve {

/// A source of request arrival times, driven by virtual time.
class ArrivalProcess {
public:
  virtual ~ArrivalProcess();

  /// Delay from \p Now until the next arrival, or nullopt when the
  /// process has ended (a finite trace ran out). Called once per arrival
  /// with the previous arrival's timestamp, so implementations may keep
  /// an internal cursor anchored at \p Now.
  virtual std::optional<sim::SimTime> nextDelay(sim::SimTime Now) = 0;
};

/// Constant-rate Poisson arrivals: exponential inter-arrival times with
/// mean 1/rate.
class PoissonArrivals : public ArrivalProcess {
public:
  PoissonArrivals(double RatePerSec, std::uint64_t Seed);

  std::optional<sim::SimTime> nextDelay(sim::SimTime Now) override;

private:
  double MeanSec;
  Rng R;
};

/// One piece of a piecewise-constant rate curve.
struct TraceSegment {
  double DurationSec = 0;
  double RatePerSec = 0;
};

/// Replays a rate curve: Poisson arrivals whose rate steps through
/// \p Segments. Zero-rate segments generate nothing; the process ends at
/// the last segment boundary.
class TraceArrivals : public ArrivalProcess {
public:
  TraceArrivals(std::vector<TraceSegment> Segments, std::uint64_t Seed);

  std::optional<sim::SimTime> nextDelay(sim::SimTime Now) override;

private:
  std::vector<TraceSegment> Segments;
  Rng R;
  bool Primed = false;
  std::size_t Seg = 0;
  sim::SimTime SegEndAt = 0;
};

} // namespace parcae::serve

#endif // PARCAE_SERVE_ARRIVAL_H
