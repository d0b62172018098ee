//===- Chunking.h - Adaptive iteration-chunk sizing -------------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The chunk-size policy behind chunked claiming: instead of paying the
/// claim + Decima hook + get_status() + channel-send tax on every
/// iteration, workers claim K iterations per interaction and pay the
/// fixed costs once per chunk, making per-iteration overhead O(1/K).
/// Section 8.3.6 argues these overheads are small relative to iteration
/// work; chunking is how the runtime makes that hold even for
/// fine-grained loops.
///
/// K is tuned online, DCAFE-style: grow K while the measured fixed
/// overhead is a large fraction of per-iteration work, shrink it when
/// channel queues deepen (load imbalance: big chunks route long runs of
/// iterations to one consumer slot). Around a pause/drain K degrades to
/// the minimum so a reconfiguration never waits on a worker draining a
/// deep chunk — reconfigure latency (Fig. 8.6) and the commit-frontier
/// exactly-once guarantees are preserved at chunk size 1 semantics.
///
/// The policy's K is the region-wide upper bound. Like DCAFE, which
/// chunks only as far as dependences allow, each task then gets at most
/// what its channels allow (RegionExec::chunkKFor): the head's K
/// contiguous claims, or a non-head slot's cost group of K iterations
/// spaced width apart, must span at most half of each out-link's window.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_CORE_CHUNKING_H
#define PARCAE_CORE_CHUNKING_H

#include "sim/Time.h"

#include <algorithm>
#include <cstdint>

namespace parcae::rt {

/// Online chunk-size controller. One instance per region, owned by the
/// RegionRunner so the learned K survives reconfigurations.
class ChunkPolicy {
public:
  struct Params {
    std::uint64_t MinK = 1;
    /// Cap keeps rewind windows and per-chunk drain obligations small.
    std::uint64_t MaxK = 32;
    /// Target: fixed overhead at most this fraction of chunk work.
    double TargetOverheadFrac = 0.05;
    /// Shrink K when any channel's occupancy exceeds this fraction of
    /// its admission window (queue-delay growth = imbalance signal).
    double PressureShrinkAbove = 0.5;
  };

  ChunkPolicy() = default;
  explicit ChunkPolicy(Params P) : P(P) {}

  /// Chunk size workers should claim right now.
  std::uint64_t current() const { return Pinned ? PinnedK : K; }

  /// Fixes K (benchmark A/B runs); retune/degrade become no-ops.
  void pin(std::uint64_t Fixed) {
    Pinned = true;
    PinnedK = std::max<std::uint64_t>(Fixed, 1);
  }
  void unpin() { Pinned = false; }
  bool pinned() const { return Pinned; }

  /// Pause/drain entry point: collapse to the minimum so the drain
  /// obligation is one iteration deep per worker. The pre-collapse K is
  /// remembered (lastLearned) so recovery and checkpoint/restore can
  /// re-seed the policy instead of re-learning from 1.
  void degradeForPause() {
    if (Pinned)
      return;
    if (K != P.MinK)
      LastLearned = K;
    K = P.MinK;
  }

  /// Re-seeds K (clamped to [MinK, MaxK]); a no-op while pinned. Used
  /// after recovery and on checkpoint restore so a region resumes with
  /// the chunk size it had already learned.
  void seed(std::uint64_t NewK) {
    if (Pinned)
      return;
    K = std::clamp(NewK, P.MinK, P.MaxK);
    if (K != P.MinK)
      LastLearned = K;
  }

  /// Last K the policy learned before a degradeForPause collapsed it
  /// (MinK until anything beyond the minimum was ever learned).
  std::uint64_t lastLearned() const { return LastLearned; }

  /// Forgets the learned K. The runner calls this when a new execution
  /// starts under a scheme with no recorded K, so a value learned under
  /// a *different* scheme is never misattributed to this one.
  void forgetLearned() { LastLearned = P.MinK; }

  /// One tuning step from fresh measurements:
  ///  \p FixedOverhead  cycles of per-claim fixed cost (hooks, status
  ///                    query, channel send setup);
  ///  \p ExecPerIter    cycles of useful work per iteration (the
  ///                    bottleneck task's mean);
  ///  \p Pressure       max channel occupancy / admission window in [0,1].
  void retune(sim::SimTime FixedOverhead, sim::SimTime ExecPerIter,
              double Pressure) {
    if (Pinned)
      return;
    if (Pressure > P.PressureShrinkAbove) {
      K = std::max(P.MinK, K / 2);
      return;
    }
    if (ExecPerIter <= 0)
      return;
    // Overhead fraction at chunk size k is Fixed / (k * ExecPerIter);
    // the smallest power of two meeting the target is ideal — powers of
    // two keep chunk boundaries stable as K drifts.
    double Ideal = static_cast<double>(FixedOverhead) /
                   (P.TargetOverheadFrac * static_cast<double>(ExecPerIter));
    std::uint64_t Want = 1;
    while (static_cast<double>(Want) < Ideal && Want < P.MaxK)
      Want <<= 1;
    K = std::clamp(Want, P.MinK, P.MaxK);
  }

  const Params &params() const { return P; }

private:
  Params P;
  std::uint64_t K = 1;
  std::uint64_t LastLearned = 1;
  bool Pinned = false;
  std::uint64_t PinnedK = 1;
};

} // namespace parcae::rt

#endif // PARCAE_CORE_CHUNKING_H
