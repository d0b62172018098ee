//===- BoundedQueue.h - Blocking bounded FIFO queues ------------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded FIFO with Waitables for "not empty" and "not full", used by
/// the Machine tests' producer/consumer fixtures. (The runtime's
/// channels between pipeline stages are core/Link.) Push/pop are
/// non-blocking; thread bodies block on the waitables and re-try, which
/// matches the poll-style Machine contract.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_TESTS_BOUNDEDQUEUE_H
#define PARCAE_TESTS_BOUNDEDQUEUE_H

#include "sim/Machine.h"

#include <cassert>
#include <cstddef>
#include <deque>
#include <utility>

namespace parcae::sim {

/// Bounded FIFO queue of T with wakeup conditions.
template <typename T> class BoundedQueue {
public:
  /// Three-way pop outcome, distinguishing "try again later" from "the
  /// producer is gone" so shutdown does not strand blocked consumers.
  enum class PopResult { Got, Empty, Closed };

  explicit BoundedQueue(std::size_t Capacity = 32) : Capacity(Capacity) {
    assert(Capacity > 0 && "queue capacity must be positive");
  }

  /// Appends \p Item if there is room; wakes one blocked consumer (a
  /// single push can satisfy only a single pop, so waking the whole herd
  /// would just have the rest re-check and re-block). Rejects the item
  /// once the queue is closed.
  bool tryPush(T Item) {
    if (Shut || Items.size() >= Capacity)
      return false;
    Items.push_back(std::move(Item));
    NotEmpty.notifyOne();
    return true;
  }

  /// Pops the oldest item into \p Out; wakes one blocked producer (one
  /// freed slot admits one push).
  bool tryPop(T &Out) {
    if (Items.empty())
      return false;
    Out = std::move(Items.front());
    Items.pop_front();
    NotFull.notifyOne();
    return true;
  }

  /// Shutdown-aware pop: Got with an item, Empty while the producer may
  /// still push (block on notEmpty() and re-try), Closed when the queue
  /// was closed and has drained — the consumer's signal to exit.
  PopResult pop(T &Out) {
    if (tryPop(Out))
      return PopResult::Got;
    return Shut ? PopResult::Closed : PopResult::Empty;
  }

  /// Closes the queue: no further pushes are accepted, and both waitables
  /// fire so consumers blocked on notEmpty() (and producers on notFull())
  /// wake up and observe the shutdown instead of sleeping forever.
  void close() {
    if (Shut)
      return;
    Shut = true;
    NotEmpty.notifyAll();
    NotFull.notifyAll();
  }

  bool closed() const { return Shut; }

  /// Reads the oldest item without removing it.
  const T &front() const {
    assert(!Items.empty() && "front() on empty queue");
    return Items.front();
  }

  std::size_t size() const { return Items.size(); }
  std::size_t capacity() const { return Capacity; }
  bool empty() const { return Items.empty(); }
  bool full() const { return Items.size() >= Capacity; }

  /// Signalled whenever an item is pushed.
  Waitable &notEmpty() { return NotEmpty; }
  /// Signalled whenever an item is popped.
  Waitable &notFull() { return NotFull; }

  /// Drops all queued items (used when a region is torn down).
  void clear() {
    Items.clear();
    NotFull.notifyAll();
  }

private:
  std::size_t Capacity;
  std::deque<T> Items;
  bool Shut = false;
  Waitable NotEmpty;
  Waitable NotFull;
};

} // namespace parcae::sim

#endif // PARCAE_TESTS_BOUNDEDQUEUE_H
