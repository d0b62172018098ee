//===- Stats.h - Online and windowed statistics -----------------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statistics helpers used by Decima (moving-average task throughput), the
/// mechanisms (smoothed load), and the benchmark harnesses (means and
/// percentiles of response times).
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_SUPPORT_STATS_H
#define PARCAE_SUPPORT_STATS_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace parcae {

/// Accumulates count/mean/min/max/variance in O(1) space (Welford).
class OnlineStats {
public:
  void add(double X);

  std::size_t count() const { return N; }
  bool empty() const { return N == 0; }
  double mean() const { return N ? Mean : 0.0; }
  double min() const { return N ? Min : 0.0; }
  double max() const { return N ? Max : 0.0; }
  /// Population variance; zero for fewer than two samples.
  double variance() const { return N > 1 ? M2 / static_cast<double>(N) : 0.0; }
  double stddev() const;
  double sum() const { return Mean * static_cast<double>(N); }

private:
  std::size_t N = 0;
  double Mean = 0.0;
  double M2 = 0.0;
  double Min = 0.0;
  double Max = 0.0;
};

/// Exponentially weighted moving average, as used by the TBF and FDP
/// mechanisms to smooth per-task throughput samples (Section 6.3).
class MovingAverage {
public:
  /// \p Alpha is the weight of the newest sample, in (0, 1].
  explicit MovingAverage(double Alpha = 0.25) : Alpha(Alpha) {
    assert(Alpha > 0 && Alpha <= 1 && "alpha must be in (0, 1]");
  }

  void add(double X) {
    if (!Seeded) {
      Value = X;
      Seeded = true;
      return;
    }
    Value = Alpha * X + (1 - Alpha) * Value;
  }

  bool seeded() const { return Seeded; }
  double value() const { return Seeded ? Value : 0.0; }
  void reset() { Seeded = false; Value = 0.0; }

private:
  double Alpha;
  double Value = 0.0;
  bool Seeded = false;
};

/// Zero-based index of the nearest-rank percentile \p P in [0, 100] among
/// \p N > 0 ordered samples.
std::size_t nearestRankIndex(std::size_t N, double P);

/// Holds all samples; answers percentile queries. Used only by benchmark
/// harnesses, where sample counts are small.
class SampleSet {
public:
  void add(double X) {
    Samples.push_back(X);
    SortedValid = false;
  }
  std::size_t count() const { return Samples.size(); }
  bool empty() const { return Samples.empty(); }
  double mean() const;
  /// Nearest-rank percentile; \p P in [0, 100] (validated before any
  /// early-out, so an out-of-range P is caught even on an empty set).
  double percentile(double P) const;
  double min() const { return percentile(0); }
  double max() const { return percentile(100); }
  /// Drops every other recorded sample (bounds memory on long runs).
  void decimate();

  /// Times percentile() actually sorted (a cache rebuild). Regression
  /// tests pin the caching contract with this: repeated queries between
  /// mutations must not re-sort.
  std::uint64_t sortsPerformed() const { return Sorts; }

private:
  std::vector<double> Samples;
  /// Sorted view of Samples, built lazily on the first percentile query
  /// and reused until the next mutation — a query per histogram metric
  /// would otherwise re-sort the full set every time.
  mutable std::vector<double> Sorted;
  mutable bool SortedValid = false;
  mutable std::uint64_t Sorts = 0;
};

/// Percentile histogram: O(1) moments plus recorded samples for p50/p95/p99
/// queries. Beyond \p MaxSamples the recorded set is decimated (every other
/// sample kept), so memory stays bounded while the tail percentiles remain
/// representative. Used by the telemetry metrics registry.
class Histogram {
public:
  explicit Histogram(std::size_t MaxSamples = 1u << 16)
      : MaxSamples(MaxSamples) {
    assert(MaxSamples >= 2 && "histogram needs room for samples");
  }

  void add(double X);

  std::size_t count() const { return Stats.count(); }
  bool empty() const { return Stats.empty(); }
  double mean() const { return Stats.mean(); }
  double min() const { return Stats.min(); }
  double max() const { return Stats.max(); }
  double stddev() const { return Stats.stddev(); }

  /// Nearest-rank percentile over the recorded samples; \p P in [0, 100].
  double percentile(double P) const { return Samples.percentile(P); }
  double p50() const { return percentile(50); }
  double p95() const { return percentile(95); }
  double p99() const { return percentile(99); }

  /// 1 while every sample is still recorded; doubles per decimation.
  std::uint64_t sampleStride() const { return Stride; }

  /// Sorts the underlying sample set performed for percentile queries;
  /// stays flat across repeated p50/p95/p99 calls between adds (the
  /// serving layer polls percentiles every arbiter tick).
  std::uint64_t percentileSorts() const { return Samples.sortsPerformed(); }

private:
  OnlineStats Stats;
  SampleSet Samples;
  std::size_t MaxSamples;
  std::uint64_t Stride = 1;  ///< record every Stride-th sample
  std::uint64_t SinceLast = 0;
};

} // namespace parcae

#endif // PARCAE_SUPPORT_STATS_H
