//===- Batch.h - Request batching policy for the serve broker ---*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dynamic batching for ServeLoop: a per-class BatchPolicy lets the
/// broker coalesce queued requests into one shared region/runner so the
/// spin-up cost (FlexibleRegion + RegionRunner construction, thread
/// spawns and the per-worker context load) amortizes across requests.
///
/// Dispatch is work-conserving: a batch never waits to fill. Whenever
/// the class's grant has room for another runner, the requests queued
/// at that moment (up to MaxBatch) start at once as one batch, so batch
/// size follows the backlog — singletons on an idle class, full batches
/// under saturation — while runner width follows the grant.
///
/// Runners stay warm: when a runner's work runs dry while requests are
/// queued, it takes the next batch (up to MaxBatch) into the same region
/// and its workers carry on, so spin-up is paid once per runner, not
/// once per batch. With nothing queued it steals: it takes the oldest
/// half, rounded up, of the unclaimed members of the sibling runner that
/// holds the class's oldest unclaimed member. With nothing to steal it
/// parks: its workers block on its held source, its threads go back to
/// the class's grant, and the next dispatch of exactly its width wakes
/// it with a batch instead of building a region. A runner drains instead
/// (taking, stealing and parking nothing) while a domain drain holds
/// dispatch, while its class holds more threads than its grant, and
/// while requests queue and the grant has a remainder below one runner's
/// width that only a re-fitted runner could use.
///
/// Completion stays per-request: the runner's commit-frontier progress
/// hook attributes each member at its iteration watermark, so latency
/// histograms and SLO accounting never see per-batch numbers.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_SERVE_BATCH_H
#define PARCAE_SERVE_BATCH_H

#include "sim/Time.h"
#include "support/Stats.h"

#include <cstdint>

namespace parcae::serve {

/// Per-class batching knobs. MaxBatch <= 1 disables coalescing, warm
/// refill, stealing and parking: every request dispatches as a singleton
/// region, byte-identical to the unbatched broker.
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
/// report reads Batches as "regions started". A batch a warm or woken
/// parked runner takes in place counts in InPlaceBatches, not Batches,
/// and like a dispatched one in BatchedRequests, SizeCloses and
/// OccupancyH. A steal is not a batch: it counts in Steals and
/// StolenRequests only.
struct BatchStats {
  std::uint64_t Batches = 0;          ///< batches dispatched (== runners)
  std::uint64_t InPlaceBatches = 0;   ///< batches taken by warm runners
  /// Of InPlaceBatches, those a parked runner woke to take.
  std::uint64_t Wakes = 0;
  std::uint64_t BatchedRequests = 0;  ///< member requests across both
  /// Steals by runners whose work ran dry with nothing queued, and the
  /// member requests they moved between runners.
  std::uint64_t Steals = 0;
  std::uint64_t StolenRequests = 0;
  /// Batches formed full (MaxBatch members); the other
  /// formed() - SizeCloses started underfull from a shorter backlog.
  std::uint64_t SizeCloses = 0;
  /// Always 0: the wait-window and SLO-pressure closes are gone. Kept for
  /// readers of the old counters until the next benchmark revision.
  std::uint64_t TimerCloses = 0;
  std::uint64_t SloCloses = 0; ///< always 0; see TimerCloses
  /// Members per batch formed: count, mean, min and max. No reader needs
  /// its percentiles, and a kept sample per batch would grow with every
  /// batch a warm runner takes.
  OnlineStats OccupancyH;

  /// Every batch formed: dispatched on a new region or taken in place.
  std::uint64_t formed() const { return Batches + InPlaceBatches; }

  /// Requests served per region spin-up — the amortization factor.
  double requestsPerRegion() const {
    return Batches ? static_cast<double>(BatchedRequests) /
                         static_cast<double>(Batches)
                   : 0.0;
  }
};

} // namespace parcae::serve

#endif // PARCAE_SERVE_BATCH_H
