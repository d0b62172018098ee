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
/// repo. Three generators:
///
///  * PoissonArrivals — constant-rate memoryless arrivals (Chapter 8's
///    load generator);
///  * BurstyArrivals  — a two-state Markov-modulated Poisson process
///    (quiet/burst) with exponential dwell times;
///  * TraceArrivals   — a piecewise-constant rate replay (e.g. a diurnal
///    curve loaded from CSV), optionally looping.
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
#include <memory>
#include <optional>
#include <string>
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

/// Two-state Markov-modulated Poisson process: a quiet state at
/// \p QuietRate and a burst state at \p BurstRate, with exponentially
/// distributed dwell times in each. At a state boundary the pending
/// inter-arrival draw is discarded and redrawn at the new rate — legal
/// because the exponential is memoryless, and it keeps the generator
/// exactly one Rng stream regardless of where boundaries fall.
class BurstyArrivals : public ArrivalProcess {
public:
  BurstyArrivals(double QuietRate, double BurstRate, double MeanQuietSec,
                 double MeanBurstSec, std::uint64_t Seed);

  std::optional<sim::SimTime> nextDelay(sim::SimTime Now) override;

private:
  double QuietRate, BurstRate;
  double MeanQuietSec, MeanBurstSec;
  Rng R;
  bool Burst = false;
  bool Primed = false;
  sim::SimTime StateEndAt = 0;
};

/// One piece of a piecewise-constant rate curve.
struct TraceSegment {
  double DurationSec = 0;
  double RatePerSec = 0;
};

/// Replays a rate curve (e.g. a diurnal profile): Poisson arrivals whose
/// rate steps through \p Segments. Zero-rate segments generate nothing;
/// with \p Loop the curve repeats forever, otherwise the process ends at
/// the last segment boundary. A curve with no positive-rate segment ends
/// there too, looped or not: it would never produce an arrival.
class TraceArrivals : public ArrivalProcess {
public:
  TraceArrivals(std::vector<TraceSegment> Segments, std::uint64_t Seed,
                bool Loop = false);

  std::optional<sim::SimTime> nextDelay(sim::SimTime Now) override;

  /// Parses a rate-curve CSV: one `duration_sec,rate_per_sec` pair per
  /// line, `#` comments and blank lines ignored. Returns nullopt (and
  /// not a partial curve) on any malformed line.
  static std::optional<std::vector<TraceSegment>>
  parseCsv(const std::string &Path);

  const std::vector<TraceSegment> &segments() const { return Segments; }

private:
  std::vector<TraceSegment> Segments;
  Rng R;
  bool Loop;
  bool Primed = false;
  std::size_t Seg = 0;
  sim::SimTime SegEndAt = 0;
};

} // namespace parcae::serve

#endif // PARCAE_SERVE_ARRIVAL_H
