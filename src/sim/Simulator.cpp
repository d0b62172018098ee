//===- Simulator.cpp - Discrete-event simulation core ----------------------===//

#include "sim/Simulator.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

using namespace parcae::sim;

void Simulator::reserve(std::size_t Events) {
  Heap.reserve(Events);
  std::size_t Chunks = (Events + ChunkMask) >> ChunkShift;
  Pool.reserve(Chunks);
  while (Pool.size() < Chunks)
    Pool.push_back(std::make_unique<EventFn[]>(ChunkMask + 1));
}

bool Simulator::runOne() {
  if (Heap.empty())
    return false;
  if (Heap.front().At == Now) {
    // Guard against model bugs that spin forever at one virtual instant.
    // Always on: in release builds an assert would vanish and the run
    // would hang without a diagnostic. Counted before the pop, so the
    // dump still lists the spinning event.
    if (++SameTimeCount >= SameTimeLimit)
      diagnoseLivelock();
  } else {
    assert(Heap.front().At > Now && "event queue went backwards");
    Now = Heap.front().At;
    SameTimeCount = 0;
  }
  std::pop_heap(Heap.begin(), Heap.end(), Later{});
  std::uint32_t Slot = Heap.back().Slot;
  Heap.pop_back();
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
  std::fprintf(stderr, "  queue: heap=%zu pending\n", Heap.size());
  // The next few (time, seq) pairs in firing order. A same-time spin
  // shows up as a run of equal timestamps with climbing seqs, naming
  // exactly which schedules keep the clock pinned.
  constexpr int MaxShown = 6;
  std::vector<Scheduled> H = Heap;
  std::fprintf(stderr, "  next pending:");
  for (int Shown = 0; Shown < MaxShown && !H.empty(); ++Shown) {
    std::fprintf(stderr, " (t=%" PRIu64 ", seq=%" PRIu32 ")",
                 static_cast<std::uint64_t>(H.front().At), H.front().Seq);
    std::pop_heap(H.begin(), H.end(), Later{});
    H.pop_back();
  }
  std::fprintf(stderr, "\n");
  std::abort();
}

void Simulator::run() {
  Stopped = false;
  while (!Stopped && runOne())
    ;
}

void Simulator::runUntil(SimTime Deadline) {
  Stopped = false;
  while (!Stopped && !Heap.empty() && Heap.front().At <= Deadline)
    runOne();
  // Only a run that left nothing due at or before the deadline may move
  // the clock there: after a stop(), work due before the deadline would
  // otherwise be stranded in the past.
  if (!Stopped && Now < Deadline)
    Now = Deadline;
}
