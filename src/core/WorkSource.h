//===- WorkSource.h - Where a region's iterations come from -----*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The head task of a region claims its work from a WorkSource, up to K
/// items per claim: a bounded work queue fed by a load generator for the
/// server applications (Chapter 2's video transcoding work queue), or a
/// plain iteration count for batch loops. The source survives
/// reconfigurations and scheme switches, so no work is lost when Morta
/// pauses a region. A counted source can also be refilled from inside a
/// pull, held open so its pullers block until it is extended, or shrunk
/// by its unclaimed tail (the serve broker's warm, parked and stealing
/// runners). Only a counted source can be
/// checkpointed: its state is two integers, while a queue's unpulled
/// tail lives with its producer.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_CORE_WORKSOURCE_H
#define PARCAE_CORE_WORKSOURCE_H

#include "core/Types.h"
#include "sim/Machine.h"

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

namespace parcae::rt {

/// Portable snapshot of a counted work source, captured at a quiesced
/// point and replayed by restoreState() on a fresh counted source —
/// possibly on a different simulated machine. Pull history is *not*
/// carried across a restore: a restored region starts replay exactly at
/// the cursor, so there is nothing behind it to rewind into.
struct WorkSourceState {
  std::uint64_t Total = 0;  ///< the iteration count N
  std::uint64_t Cursor = 0; ///< the next index
};

/// Abstract source of work items for a region's head task.
class WorkSource {
public:
  enum class Pull {
    Got,  ///< an item was returned
    Wait, ///< nothing available now; block on readyEvent()
    End   ///< the source is exhausted; the region completes
  };

  virtual ~WorkSource();

  /// Captures the source's replayable state into \p Out. Returns false
  /// when this source kind cannot be snapshotted (the default; only a
  /// counted source can).
  virtual bool saveState(WorkSourceState &Out) const {
    (void)Out;
    return false;
  }

  /// Re-seeds this source from a state captured by saveState(). Returns
  /// false when this source cannot be restored or has already been
  /// pulled from.
  virtual bool restoreState(const WorkSourceState &S) {
    (void)S;
    return false;
  }

  /// Attempts to pull up to \p Max items in one claim, appending them to
  /// \p Out: the head task's only pull. Returns Got when at least one
  /// item was appended (possibly fewer than \p Max — a partial chunk,
  /// not an error), Wait when nothing is available now, End when the
  /// source is exhausted. One claim pays the fixed claiming cost once
  /// however many items it returns; this is what makes chunked execution
  /// O(1/K) in overhead.
  virtual Pull tryPullChunk(std::uint64_t Max, std::vector<Token> &Out) = 0;

  /// Signalled when a Wait result may have turned into Got or End.
  virtual sim::Waitable &readyEvent() = 0;

  /// Instantaneous load (queue occupancy); what the head task's default
  /// LoadCB reports to the mechanisms.
  virtual double load() const = 0;

  /// Un-pulls the last \p Count items so they are delivered again, in the
  /// original order. The abortive recovery path rewinds the source to the
  /// commit frontier before restarting a region. Returns false when the
  /// source cannot replay that far (recovery then falls back to a drain).
  virtual bool rewind(std::uint64_t Count) { return Count == 0; }
};

/// A bounded work queue: the server-application source. The load generator
/// pushes items; closing the queue ends the region once drained.
class QueueWorkSource : public WorkSource {
public:
  explicit QueueWorkSource(std::size_t Capacity = 1u << 20)
      : Capacity(Capacity) {}

  Pull tryPullChunk(std::uint64_t Max, std::vector<Token> &Out) override;
  sim::Waitable &readyEvent() override { return Ready; }
  double load() const override { return static_cast<double>(Items.size()); }
  bool rewind(std::uint64_t Count) override;

  /// Enqueues a work item. Returns false when the queue is full or
  /// closed (the item is dropped; the caller may count it as a rejected
  /// request). A closed queue rejecting instead of asserting matters in
  /// release builds, where a racing producer must not smuggle items past
  /// the end-of-stream the consumers already observed.
  bool push(Token Item);

  /// No more items will arrive; the region ends when the queue drains.
  void close();

  std::size_t size() const { return Items.size(); }
  bool closed() const { return Closed; }
  /// Total items ever accepted.
  std::uint64_t accepted() const { return Accepted; }

  /// Items dropped from the rewind history because HistoryCap forced a
  /// pop_front. Non-zero means a rewind (or a checkpoint replay) deeper
  /// than the cap would silently fail — the observability hook for that.
  std::uint64_t historyEvictions() const { return HistoryEvictions; }

  /// Deepest rewind the history can ever serve.
  static constexpr std::size_t historyCap() { return HistoryCap; }

private:
  void evictHistory();

  std::size_t Capacity;
  std::deque<Token> Items;
  bool Closed = false;
  std::uint64_t Accepted = 0;
  std::uint64_t HistoryEvictions = 0;
  sim::Waitable Ready;
  /// Recently pulled items, newest last, kept for rewind(). Bounded: a
  /// rewind deeper than the history fails (recovery drains instead).
  std::deque<Token> History;
  static constexpr std::size_t HistoryCap = 4096;
};

/// A fixed number of iterations: the batch-loop source used by
/// Nona-compiled programs. Pulls are free; ends after N items, unless a
/// refill hook extends it first or a hold keeps it open (the serve
/// broker's warm and parked runners). Items carry no payload, so the
/// unclaimed tail can move between sources (shrink, extend).
class CountedWorkSource : public WorkSource {
public:
  explicit CountedWorkSource(std::uint64_t N) : N(N) {}

  Pull tryPullChunk(std::uint64_t Max, std::vector<Token> &Out) override;
  sim::Waitable &readyEvent() override { return Ready; }
  double load() const override {
    return static_cast<double>(N - Next);
  }
  bool saveState(WorkSourceState &Out) const override {
    Out = {N, Next};
    return true;
  }
  bool restoreState(const WorkSourceState &S) override {
    if (Next != 0)
      return false;
    N = S.Total;
    Next = S.Cursor;
    Ready.notifyAll();
    return true;
  }

  std::uint64_t remaining() const { return N - Next; }

  /// Extends the iteration count by \p More. Pullers blocked on a held
  /// source see the new items once release() wakes them.
  void extend(std::uint64_t More) { N += More; }

  /// Takes back the last \p Less unclaimed items (the serve broker moves
  /// them to another runner's source by extend()). A shrink below the
  /// claim cursor is refused, leaving the count alone, instead of
  /// asserted: the same hardening as rewind().
  bool shrink(std::uint64_t Less) {
    if (Less > N - Next)
      return false;
    N -= Less;
    return true;
  }

  /// Holds the source open: while held, a pull that finds it exhausted,
  /// even after the refill hook ran, returns Wait instead of End, so the
  /// pullers block on readyEvent() instead of finishing. A source that is
  /// never held ends exactly as a plain count.
  void hold() { Held = true; }
  /// Clears the hold and wakes the blocked pullers: they pull whatever
  /// extend() added, or End.
  void release() {
    Held = false;
    Ready.notifyAll();
  }

  /// Refill hook: a pull that finds the source exhausted calls it once,
  /// just before it would return End (Wait while held), inside the
  /// puller's own step (same virtual instant, no event). If the hook
  /// extend()ed the source the pull returns Got instead; if it hold()s
  /// it, Wait. Null (the default) keeps the plain count; a pull that
  /// finds items left never calls it.
  std::function<void()> Refill;

  /// Counted pulls carry no payload, so rewinding is just moving the
  /// cursor back. A rewind deeper than the pull history is refused
  /// instead of asserted: in release builds the assert would vanish and
  /// Next would wrap; returning false lets recovery fall back to a drain
  /// (the same hardening as QueueWorkSource::push).
  bool rewind(std::uint64_t Count) override {
    if (Count > Next)
      return false;
    Next -= Count;
    if (Count > 0)
      Ready.notifyAll();
    return true;
  }

private:
  /// True when the source is exhausted even after the refill hook ran.
  bool exhausted() {
    if (Next < N)
      return false;
    if (Refill)
      Refill();
    return Next >= N;
  }

  std::uint64_t N;
  std::uint64_t Next = 0;
  bool Held = false;
  sim::Waitable Ready;
};

} // namespace parcae::rt

#endif // PARCAE_CORE_WORKSOURCE_H
