//===- Batch.h - Request batching policy for the serve broker ---*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dynamic batching for ServeLoop: a per-class BatchPolicy lets the
/// broker coalesce queued requests into one shared region/runner so the
/// per-request spin-up cost (FlexibleRegion + RegionRunner construction
/// and the per-worker context load) amortizes across the batch.
///
/// Dispatch is work-conserving: a batch never waits to fill. Whenever a
/// runner slot is free, the requests queued at that moment (up to
/// MaxBatch) start at once as one batch, so batch size follows the
/// backlog — singletons on an idle class, full batches under saturation.
///
/// Completion stays per-request: the batch runner's commit-frontier
/// progress hook attributes each member at its iteration watermark, so
/// latency histograms and SLO accounting never see per-batch numbers.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_SERVE_BATCH_H
#define PARCAE_SERVE_BATCH_H

#include "sim/Time.h"
#include "support/Stats.h"

#include <cstdint>

namespace parcae::serve {

/// Per-class batching knobs. MaxBatch <= 1 disables coalescing: every
/// request dispatches as a singleton, byte-identical to the unbatched
/// broker.
struct BatchPolicy {
  /// Most members per batch. <= 1 turns batching off.
  unsigned MaxBatch = 1;
  /// Unread: batches no longer wait for members. Kept, with
  /// SloCloseFraction, only so aggregate initializers written for the
  /// old wait-window policy ({MaxBatch, MaxWait, SloCloseFraction}) still
  /// compile; to be dropped with the next benchmark revision.
  sim::SimTime MaxWait = 0;
  /// Unread; see MaxWait.
  double SloCloseFraction = 0.5;

  bool enabled() const { return MaxBatch > 1; }
};

/// Per-class batching statistics. Singleton dispatches count as full
/// batches of one while batching is disabled — the spin-up amortization
/// report reads Batches as "regions started".
struct BatchStats {
  std::uint64_t Batches = 0;          ///< batches dispatched (== runners)
  std::uint64_t BatchedRequests = 0;  ///< member requests across them
  /// Batches dispatched full (MaxBatch members); the other
  /// Batches - SizeCloses started underfull from a shorter backlog.
  std::uint64_t SizeCloses = 0;
  /// Always 0: the wait-window and SLO-pressure closes are gone. Kept for
  /// readers of the old counters until the next benchmark revision.
  std::uint64_t TimerCloses = 0;
  std::uint64_t SloCloses = 0; ///< always 0; see TimerCloses
  Histogram OccupancyH;        ///< members per dispatched batch

  /// Requests served per region spin-up — the amortization factor.
  double requestsPerRegion() const {
    return Batches ? static_cast<double>(BatchedRequests) /
                         static_cast<double>(Batches)
                   : 0.0;
  }
};

} // namespace parcae::serve

#endif // PARCAE_SERVE_BATCH_H
