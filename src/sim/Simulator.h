//===- Simulator.h - Discrete-event simulation core -------------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The discrete-event core: a virtual clock and an ordered event queue.
/// Everything above it (cores, threads, channels, Morta's controller
/// timers) is driven by events scheduled here. Events fire in (time,
/// schedule order), so whole-system runs are deterministic.
///
/// The queue is one binary heap of trivially copyable {time, seq, slot}
/// entries ordered by (time, seq); a zero delay is an entry at now().
///
/// The core is allocation-free in steady state: callbacks are held in
/// small-buffer EventFn cells inside a chunked slab whose addresses are
/// stable (so a handler runs in place while scheduling more events), and
/// the heap is a reused vector. Whole-system runs execute millions of
/// events, so this is the hottest host-side path.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_SIM_SIMULATOR_H
#define PARCAE_SIM_SIMULATOR_H

#include "sim/EventFn.h"
#include "sim/Time.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace parcae::sim {

/// Discrete-event simulator: a clock plus an ordered event queue.
class Simulator {
public:
  /// Kept only because perfbench reads it for its `sim.heap_hits` and
  /// `sim.wheel_hit_frac` metrics; drop all three together.
  struct QueueStats {
    std::uint64_t HeapHits = 0;  ///< always eventsProcessed()
    std::uint64_t WheelHits = 0; ///< always 0
  };

  /// Current virtual time.
  SimTime now() const { return Now; }

  /// Schedules \p Fn to run \p Delay after the current time. The callable
  /// is constructed directly in its slab slot.
  template <typename F> void schedule(SimTime Delay, F &&Fn) {
    scheduleAt(Now + Delay, std::forward<F>(Fn));
  }

  /// Schedules \p Fn at absolute time \p At (>= now()).
  template <typename F> void scheduleAt(SimTime At, F &&Fn) {
    static_assert(std::is_invocable_r_v<void, std::decay_t<F> &>,
                  "event callback must be callable as void()");
    assert(At >= Now && "cannot schedule an event in the past");
    std::uint32_t S = grabSlot();
    slot(S).assign(std::forward<F>(Fn));
    Heap.push_back(Scheduled{At, NextSeq++, S});
    std::push_heap(Heap.begin(), Heap.end(), Later{});
  }

  /// Runs the next event, if any. Returns false when the queue is empty.
  bool runOne();

  /// Runs until the event queue drains or stop() is called.
  void run();

  /// Runs events with timestamps <= \p Deadline; leaves later events queued
  /// and advances the clock to \p Deadline. After a stop() the clock stays
  /// at the stopping event's time, so work still due then stays runnable.
  void runUntil(SimTime Deadline);

  /// Makes run() and runUntil() return after the current event.
  void stop() { Stopped = true; }

  /// Total number of events executed (sanity metric for tests).
  std::uint64_t eventsProcessed() const { return EventsProcessed; }

  bool empty() const { return Heap.empty(); }

  /// Pre-sizes the heap and the callback slab (steady state then never
  /// allocates as long as at most \p Events are outstanding at once).
  void reserve(std::size_t Events);

  /// See QueueStats.
  QueueStats queueStats() const { return {EventsProcessed, 0}; }

  /// Livelock guard: aborting after this many consecutive events at one
  /// virtual instant. Unlike the seed's assert, this check is always on —
  /// a model bug that spins at a single timestamp would otherwise hang
  /// release builds silently. Tests lower it to exercise the diagnostic.
  void setSameTimeLimit(std::uint64_t Limit) { SameTimeLimit = Limit; }
  std::uint64_t sameTimeLimit() const { return SameTimeLimit; }

  /// Test-only: pre-positions the wrapping schedule counter so the seq
  /// wrap tie-break is exercisable without 2^32 schedules. Requires an
  /// empty queue (a wrap with events pending would reorder them).
  void primeSeqCounterForTest(std::uint32_t Seq) {
    assert(empty() && "cannot re-seed the seq counter with events pending");
    NextSeq = Seq;
  }

private:
  /// Heap entry: trivially copyable, 16 bytes, so sift operations are
  /// plain moves with no callback relocation. Seq is a wrapping 32-bit
  /// schedule counter: it only breaks ties between events at the same
  /// virtual instant, and two same-instant events coexisting in the
  /// queue are always far fewer than 2^31 schedules apart, so the
  /// wrap-safe signed-difference compare below orders them correctly.
  struct Scheduled {
    SimTime At;
    std::uint32_t Seq;
    std::uint32_t Slot;
  };
  /// True when A was scheduled after B (wrap-safe; see Scheduled::Seq).
  static bool seqAfter(std::uint32_t A, std::uint32_t B) {
    return static_cast<std::int32_t>(A - B) > 0;
  }
  /// Earliest time first; FIFO within a timestamp. A functor (not a
  /// function pointer) so the heap sift loops inline the comparison.
  struct Later {
    bool operator()(const Scheduled &A, const Scheduled &B) const {
      if (A.At != B.At)
        return A.At > B.At;
      return seqAfter(A.Seq, B.Seq);
    }
  };

  // Callback slab: fixed-size chunks, so slot addresses stay stable while
  // the slab grows — a running handler may schedule (and thus grow the
  // slab) without relocating itself. Freed slots recycle via FreeSlots.
  static constexpr std::size_t ChunkShift = 8; // 256 events per chunk
  static constexpr std::size_t ChunkMask = (std::size_t{1} << ChunkShift) - 1;
  EventFn &slot(std::uint32_t S) {
    return Pool[S >> ChunkShift][S & ChunkMask];
  }
  static constexpr std::uint32_t NoSlot = ~std::uint32_t{0};
  std::uint32_t grabSlot() {
    if (FreeHead != NoSlot) {
      std::uint32_t S = FreeHead;
      FreeHead = slot(S).scratch();
      return S;
    }
    if ((PoolSize >> ChunkShift) == Pool.size())
      Pool.push_back(std::make_unique<EventFn[]>(ChunkMask + 1));
    return static_cast<std::uint32_t>(PoolSize++);
  }
  /// Returns an (empty) slot to the free list, threaded through the dead
  /// callback's storage.
  void freeSlot(std::uint32_t S) {
    slot(S).scratch() = FreeHead;
    FreeHead = S;
  }

  [[noreturn]] void diagnoseLivelock() const;

  SimTime Now = 0;
  std::uint64_t SameTimeCount = 0;
  std::uint64_t SameTimeLimit = 20'000'000;
  std::uint32_t NextSeq = 0;
  std::uint64_t EventsProcessed = 0;
  bool Stopped = false;
  std::vector<Scheduled> Heap;
  std::vector<std::unique_ptr<EventFn[]>> Pool;
  std::size_t PoolSize = 0;
  std::uint32_t FreeHead = NoSlot;
};

} // namespace parcae::sim

#endif // PARCAE_SIM_SIMULATOR_H
