//===- Metrics.h - Named counters, gauges, and histograms -------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A registry of named metrics, snapshotable at any virtual time:
///
///  * Counter   — monotone uint64 ("runner.full_pauses");
///  * Gauge     — last-written double ("decima.SystemPower");
///  * Histogram — recorded samples with p50/p95/p99 (support/Stats.h),
///                e.g. the controller's measured throughputs.
///
/// Metric objects have stable addresses once created, so hot paths look a
/// metric up once and cache the pointer; the per-event cost is then one
/// increment.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_TELEMETRY_METRICS_H
#define PARCAE_TELEMETRY_METRICS_H

#include "sim/Time.h"
#include "support/Stats.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace parcae::telemetry {

/// Monotone event count.
class Counter {
public:
  void add(std::uint64_t Delta = 1) { V += Delta; }
  std::uint64_t value() const { return V; }

private:
  std::uint64_t V = 0;
};

/// Last-written value of a sampled quantity.
class Gauge {
public:
  void set(double X) { V = X; }
  double value() const { return V; }

private:
  double V = 0.0;
};

/// One row of a metrics snapshot.
struct MetricRow {
  enum class Kind { Counter, Gauge, Histogram };
  Kind K;
  std::string Name;
  double Value = 0.0; ///< counter value / gauge value / histogram count
  // Histogram-only fields.
  double Mean = 0.0, P50 = 0.0, P95 = 0.0, P99 = 0.0, Min = 0.0, Max = 0.0;
};

/// A point-in-time view of every registered metric.
struct MetricsSnapshot {
  sim::SimTime At = 0;
  std::vector<MetricRow> Rows;

  /// Flat text dump, one metric per line (the "metrics text" exporter).
  std::string text() const;
};

/// Registry of named metrics. Lookup creates on first use; returned
/// references stay valid for the registry's lifetime.
class MetricsRegistry {
public:
  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  Histogram &histogram(const std::string &Name);

  /// Snapshot of all metrics at virtual time \p Now, rows sorted by name.
  MetricsSnapshot snapshot(sim::SimTime Now) const;

  bool empty() const {
    return Counters.empty() && Gauges.empty() && Histograms.empty();
  }
  void clear();

private:
  template <class T> struct Named {
    std::string Name;
    std::unique_ptr<T> M;
  };
  // Linear lookup: registries hold tens of metrics and hot paths cache
  // the returned pointer, so the lookup runs once per metric per run.
  std::vector<Named<Counter>> Counters;
  std::vector<Named<Gauge>> Gauges;
  std::vector<Named<Histogram>> Histograms;
};

} // namespace parcae::telemetry

#endif // PARCAE_TELEMETRY_METRICS_H
