//===- LoadGen.h - Open-loop load generation and response stats -*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The load generator of Chapter 8: "the arrival of tasks was simulated
/// using a task queuing thread that enqueues tasks to a work queue
/// according to a Poisson distribution. The average arrival rate
/// determines the load factor on the system. A load factor of 1.0
/// corresponds to an average arrival rate equal to the maximum throughput
/// sustainable by the system." This file provides that Poisson generator,
/// the per-request record response times are measured from, and the
/// response-time aggregation the Figures 8.1-8.5 harnesses print.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_WORKLOADS_LOADGEN_H
#define PARCAE_WORKLOADS_LOADGEN_H

#include "core/Types.h"
#include "core/WorkSource.h"
#include "sim/Simulator.h"
#include "support/Rng.h"
#include "support/Stats.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace parcae::rt {

/// One user request (a video to transcode, a query to answer, ...).
struct Request {
  std::uint64_t Id = 0;
  sim::SimTime EnqueueTime = 0;
  sim::SimTime CompleteTime = 0;
  /// Application-specific work size (e.g. total transcode cycles).
  sim::SimTime Work = 0;
  /// Inner iterations (frames / blocks / tiles) left to finish; the tail
  /// stage decrements it and stamps CompleteTime at zero.
  std::uint64_t UnitsRemaining = 0;

  bool completed() const { return CompleteTime != 0; }
  sim::SimTime responseTime() const {
    assert(completed() && "request not finished");
    return CompleteTime - EnqueueTime;
  }
};

/// Pushes \p Count requests into a QueueWorkSource with exponentially
/// distributed inter-arrival times (a Poisson arrival process), then
/// closes the queue.
class PoissonLoadGen {
public:
  /// \p MakeWork assigns per-request work (may randomize); receives the
  /// request being created.
  PoissonLoadGen(sim::Simulator &Sim, QueueWorkSource &Queue,
                 double ArrivalsPerSec, std::uint64_t Count,
                 std::uint64_t Seed,
                 std::function<void(Request &, Rng &)> MakeWork);

  /// Starts the arrival process.
  void start();

  const std::vector<std::shared_ptr<Request>> &requests() const {
    return Requests;
  }
  std::uint64_t dropped() const { return Dropped; }

private:
  void arrive();

  sim::Simulator &Sim;
  QueueWorkSource &Queue;
  double MeanInterArrivalSec;
  std::uint64_t Count;
  Rng R;
  std::function<void(Request &, Rng &)> MakeWork;
  std::vector<std::shared_ptr<Request>> Requests;
  std::uint64_t Generated = 0;
  std::uint64_t Dropped = 0;
};

/// Aggregates response times over a set of requests.
struct ResponseStats {
  std::uint64_t Completed = 0;
  std::uint64_t Pending = 0;
  SampleSet ResponseSec;

  static ResponseStats
  collect(const std::vector<std::shared_ptr<Request>> &Requests);

  double meanResponseSec() const { return ResponseSec.mean(); }
  double p95ResponseSec() const { return ResponseSec.percentile(95); }
};

} // namespace parcae::rt

#endif // PARCAE_WORKLOADS_LOADGEN_H
