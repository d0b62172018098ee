//===- Link.h - Point-to-point inter-task communication ---------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inter-task communication channel set MTCG inserts between pipeline
/// stages (Section 4.5.3). A Link connects a producer task to a consumer
/// task; it holds one buffer per consumer thread slot, and iteration i's
/// token is routed to slot (i mod p) where p is the consumer's DoP *for
/// that iteration* as recorded in the consumer's WidthSchedule — the
/// iteration-count handoff of Section 7.2 that keeps routing consistent
/// across DoP changes.
///
/// Buffers are ordered by iteration index, and a consumer asks for exactly
/// its next expected iteration, so FIFO order per slot holds even when
/// several producer threads feed one slot. Producers are admission-limited
/// to a window above the consumer's slowest outstanding iteration, which
/// models bounded queues and guarantees deadlock freedom: the token the
/// lowest outstanding iteration needs is always admissible.
///
/// That argument has a precondition: the producer must be offering that
/// token. A worker that buffers a cost group's output tokens and flushes
/// them link by link can block on one link, beyond its window, while it
/// holds the very token a consumer of another link waits for. So one
/// group's buffered tokens must span at most half the window, which
/// RegionExec::chunkKFor enforces: K contiguous iterations for the head,
/// (K-1)*width+1 sequence numbers for a non-head task of that width.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_CORE_LINK_H
#define PARCAE_CORE_LINK_H

#include "core/Types.h"
#include "core/WidthSchedule.h"
#include "sim/Machine.h"

#include <cstdint>
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace parcae::rt {

/// A set of point-to-point channels from one task to its consumer.
class Link {
public:
  /// \p Consumer is the consumer task's DoP schedule, which routes tokens.
  /// \p MaxWidth bounds the consumer's DoP; \p Window is the admission
  /// window (how far production may run ahead of the slowest consumer).
  Link(std::string Name, const WidthSchedule &Consumer, unsigned MaxWidth,
       std::uint64_t Window);

  /// Attempts to enqueue \p T. Fails (returns false) when T.Seq is beyond
  /// the admission window; block on spaceAvail() and retry.
  bool trySend(const Token &T);

  /// Batched transfer: enqueues a prefix of \p Toks (ascending Seq) and
  /// returns how many were accepted. Zero means even the first token is
  /// beyond the admission window — block on spaceAvail() and retry with
  /// the remainder. One batched call models one channel interaction, so
  /// chunked producers pay the fixed send cost once per chunk.
  std::size_t trySendBatch(const Token *Toks, std::size_t N);

  /// Attempts to dequeue the token of iteration \p Seq for consumer slot
  /// \p Slot. Fails when it has not arrived yet; block on dataAvail(Slot).
  bool tryRecv(unsigned Slot, std::uint64_t Seq, Token &Out);

  /// Signalled when the admission window may have advanced.
  sim::Waitable &spaceAvail() { return SpaceAvail; }
  /// Signalled when a token arrives for \p Slot.
  sim::Waitable &dataAvail(unsigned Slot);

  /// Raises the low-water mark: the smallest iteration any active consumer
  /// slot still expects. Monotone; wakes blocked producers.
  void setLowWater(std::uint64_t Seq);
  std::uint64_t lowWater() const { return LowWater; }

  /// Total buffered tokens (the consumer task's queue occupancy, which is
  /// what its default LoadCB reports).
  std::size_t buffered() const { return TotalBuffered; }
  std::size_t bufferedFor(unsigned Slot) const;

  const std::string &name() const { return Name; }
  std::uint64_t window() const { return Window; }
  /// The admission window in force: the base window, widened to twice
  /// the consumer's current width so a wide consumer keeps every slot
  /// busy.
  std::uint64_t effectiveWindow() const {
    return std::max<std::uint64_t>(
        Window, 2 * static_cast<std::uint64_t>(Consumer.currentWidth()));
  }

private:
  std::string Name;
  const WidthSchedule &Consumer;
  std::uint64_t Window;
  std::uint64_t LowWater = 0;
  std::size_t TotalBuffered = 0;
  std::vector<std::map<std::uint64_t, Token>> Buffers;
  std::vector<std::unique_ptr<sim::Waitable>> DataAvail;
  sim::Waitable SpaceAvail;
};

} // namespace parcae::rt

#endif // PARCAE_CORE_LINK_H
