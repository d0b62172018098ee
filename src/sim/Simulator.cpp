//===- Simulator.cpp - Discrete-event simulation core ----------------------===//

#include "sim/Simulator.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

using namespace parcae::sim;

void Simulator::reserve(std::size_t Events) {
  Heap.reserve(Events);
  Ring.reserve(Events);
  std::size_t Chunks = (Events + ChunkMask) >> ChunkShift;
  Pool.reserve(Chunks);
  while (Pool.size() < Chunks)
    Pool.push_back(std::make_unique<EventFn[]>(ChunkMask + 1));
}

std::uint32_t Simulator::popHeap() {
  std::pop_heap(Heap.begin(), Heap.end(), Later{});
  std::uint32_t S = Heap.back().Slot;
  Heap.pop_back();
  ++HeapHits;
  return S;
}

bool Simulator::popDueNow(std::uint32_t &OutSlot) {
  // Heap entries due now were scheduled before the clock reached Now, and
  // ring entries at Now, so the heap's go first.
  if (!Heap.empty() && Heap.front().At == Now) {
    OutSlot = popHeap();
    return true;
  }
  if (RingHead == Ring.size())
    return false;
  OutSlot = Ring[RingHead].Slot;
  if (++RingHead == Ring.size()) {
    Ring.clear();
    RingHead = 0;
  }
  ++RingHits;
  return true;
}

bool Simulator::nextPendingTime(SimTime &T) const {
  if (RingHead < Ring.size()) {
    T = Now;
    return true;
  }
  if (Heap.empty())
    return false;
  T = Heap.front().At;
  return true;
}

bool Simulator::runOne() {
  std::uint32_t Slot;
  if (popDueNow(Slot)) {
    // Guard against model bugs that spin forever at one virtual instant.
    // Always on: in release builds an assert would vanish and the run
    // would hang without a diagnostic.
    if (++SameTimeCount >= SameTimeLimit)
      diagnoseLivelock();
  } else {
    // Nothing is due now, so the ring is empty and the heap top is the
    // next event: advance the clock to it.
    if (Heap.empty())
      return false;
    assert(Heap.front().At > Now && "event queue went backwards");
    Now = Heap.front().At;
    SameTimeCount = 0;
    Slot = popHeap();
  }
  ++EventsProcessed;
  // Invoked in place: chunk addresses are stable, so the handler may
  // schedule (growing the slab or recycling other slots) while running.
  // This slot is only recycled after the callback is destroyed.
  EventFn &Fn = slot(Slot);
  Fn();
  Fn.reset();
  freeSlot(Slot);
  return true;
}

void Simulator::diagnoseLivelock() const {
  std::fprintf(stderr,
               "parcae sim: event livelock: %" PRIu64
               " consecutive events at t=%" PRIu64
               " ns without the clock advancing (%" PRIu64
               " events processed in total); a thread body or timer is "
               "re-scheduling itself with zero delay\n",
               SameTimeCount, static_cast<std::uint64_t>(Now),
               EventsProcessed);
  std::fprintf(stderr, "  queue: ring=%zu heap=%zu pending\n",
               Ring.size() - RingHead, Heap.size());
  // The next few (time, seq) pairs in firing order: the heap's entries
  // due now, the ring, then the rest of the heap. A same-time spin shows
  // up as a run of equal timestamps with climbing seqs, naming exactly
  // which schedules keep the clock pinned.
  constexpr int MaxShown = 6;
  int Shown = 0;
  auto Show = [&Shown](SimTime At, std::uint32_t Seq) {
    std::fprintf(stderr, " (t=%" PRIu64 ", seq=%" PRIu32 ")",
                 static_cast<std::uint64_t>(At), Seq);
    ++Shown;
  };
  std::vector<Scheduled> H = Heap;
  auto ShowHeap = [&](bool DueNowOnly) {
    while (Shown < MaxShown && !H.empty() &&
           (!DueNowOnly || H.front().At == Now)) {
      Show(H.front().At, H.front().Seq);
      std::pop_heap(H.begin(), H.end(), Later{});
      H.pop_back();
    }
  };
  std::fprintf(stderr, "  next pending:");
  ShowHeap(/*DueNowOnly=*/true);
  for (std::size_t I = RingHead; I < Ring.size() && Shown < MaxShown; ++I)
    Show(Now, Ring[I].Seq);
  ShowHeap(/*DueNowOnly=*/false);
  std::fprintf(stderr, "%s\n", Shown == 0 ? " <none>" : "");
  std::abort();
}

void Simulator::run() {
  Stopped = false;
  while (!Stopped && runOne())
    ;
}

void Simulator::runUntil(SimTime Deadline) {
  Stopped = false;
  SimTime T = 0;
  while (!Stopped && nextPendingTime(T) && T <= Deadline)
    runOne();
  // Only a run that left nothing due at or before the deadline may move
  // the clock there: after a stop(), work due before the deadline would
  // otherwise be stranded in the past.
  if (!Stopped && Now < Deadline)
    Now = Deadline;
}
