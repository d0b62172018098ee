//===- Worker.h - The Morta worker loop (Algorithm 2) -----------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One worker thread executing instances of one task slot. The control
/// logic is the paper's Algorithm 2, expressed as the explicit state
/// machine the simulated Machine requires: fetch the next instance (claim
/// an iteration from the work source for the head task, or compute the
/// next owned iteration from the task's WidthSchedule otherwise), receive
/// inputs, run the functor, charge compute, run critical sections, send
/// outputs, and loop — until the instance space is bounded by a pause or
/// the end of work, at which point the worker flushes, pays its FiniCB
/// and barrier costs, and exits with task_paused or task_complete.
///
/// Iterations are processed in chunks of K (core/Chunking.h): the head
/// claims K items per source interaction, and all workers pay the Decima
/// hook, get_status() poll, and per-channel transfer costs once per chunk
/// instead of once per iteration. A non-head worker's chunk is a cost
/// group of K of its own iterations, which lie width apart in sequence
/// space, so its K is also divided by its task's width
/// (RegionExec::chunkKFor). Output tokens are batched per out-link and
/// flushed at chunk boundaries. While a pause is pending chunkKFor hands
/// every task 1, and a pausing head gives unstarted chunk items back to
/// the source when they are the contiguous tail of the claim space — so
/// reconfigure latency and the exactly-once guarantees match
/// chunk-size-1 semantics.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_MORTA_WORKER_H
#define PARCAE_MORTA_WORKER_H

#include "core/Task.h"
#include "core/Types.h"
#include "morta/RegionExec.h"
#include "sim/Machine.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

namespace parcae::rt {

/// The worker's reusable iteration context.
using WorkerContext = IterationContext;

/// ThreadBody for one (task, slot) pair.
class Worker : public sim::ThreadBody {
public:
  Worker(RegionExec &R, unsigned TaskIdx, unsigned Slot,
         std::uint64_t CursorFrom);

  sim::Action resume(sim::Machine &M, sim::SimThread &T) override;

  unsigned taskIdx() const { return TaskIdx; }
  unsigned slot() const { return Slot; }

  /// Smallest iteration this worker may still need tokens for; feeds the
  /// links' low-water marks.
  std::uint64_t lowBound() const { return InIteration ? Cursor : CursorFrom; }

private:
  friend class RegionExec;

  /// Which runtime wait the worker last blocked in; stallReport() prints
  /// it. A Blocked thread whose last wait is a runtime wait (channel,
  /// source, retry, lock) waits on someone else, while a Blocked thread
  /// with WaitKind::None is blocked outside every runtime wait — wedged
  /// in user code.
  enum class WaitKind { None, Channel, Source, Retry, Lock };

  enum class State {
    Init,        ///< pay Tinit and spawn costs
    Fetch,       ///< find/claim the next instance or detect pause/end
    Recv,        ///< receive one input token per in-link
    Backoff,     ///< transient fault: wait out the retry backoff
    Critical,    ///< acquire/run/release critical sections
    Send,        ///< flush batched output tokens per out-link
    IterDone,    ///< bookkeeping, then loop to Fetch
    Finish,      ///< pay FiniCB/merge/barrier costs
    Exit         ///< leave the machine
  };

  sim::Action stepFetch();
  /// Wedge injection before iteration \p Seq starts (no token consumed,
  /// no functor run): true when the worker is, or now becomes, wedged.
  bool wedgedBefore(std::uint64_t Seq);
  sim::Action stepSend();
  sim::Action beginIteration(Token Item);
  sim::Action runFunctor(sim::Machine &M);
  /// Exits with status \p S, flushing buffered sends first if any.
  sim::Action finishWith(TaskStatus S);
  /// The actual exit costs, once buffers are clean.
  sim::Action doFinish(TaskStatus S);
  bool anyBuffered() const;

  RegionExec &R;
  unsigned TaskIdx;
  unsigned Slot;
  const Task &T;
  bool IsHead;
  bool IsTail;

  State St = State::Init;
  std::uint64_t CursorFrom; ///< first iteration index not yet owned
  std::uint64_t Cursor = 0; ///< iteration currently in flight
  bool InIteration = false;

  WorkerContext Ctx;
  std::size_t NextIn = 0;   ///< next in-link to receive from
  std::size_t NextOut = 0;  ///< next out-link to flush
  std::size_t NextCrit = 0; ///< next critical section to run
  bool CritHeld = false;
  bool UsedReduction = false; ///< privatized reduction state to merge
  sim::SimTime PendingCost = 0; ///< extra cost injected by reconfigurations
  TaskStatus ExitStatus = TaskStatus::Complete;

  // --- Chunked claiming / batched communication ------------------------
  std::vector<Token> Chunk;     ///< head: claimed items not yet started
  std::size_t ChunkNext = 0;    ///< head: next unstarted index in Chunk
  std::uint64_t ChunkStart = 0; ///< head: seq of Chunk[0]
  /// Iterations left in the current chunk (a non-head worker's cost
  /// group), including the one in flight.
  std::uint64_t ChunkIters = 0;
  /// Current iteration is its chunk's first: it pays the per-chunk fixed
  /// costs (Decima hooks, status query, full per-transfer channel cost).
  bool ChunkHead = true;
  std::vector<std::vector<Token>> SendBufs; ///< per out-link, ascending Seq
  bool FlushAll = false;       ///< this Send pass flushes every buffer
  /// Set for a flush pass not tied to an iteration (emptying buffers
  /// before blocking idle); Send returns to this state instead of
  /// IterDone.
  std::optional<State> FlushResume;
  std::optional<TaskStatus> PendingFinish; ///< exit after buffers flush
  /// One opportunistic pre-idle flush per blocking episode (prevents a
  /// zero-cost Fetch/Send spin when the window is also full).
  bool IdleFlushDone = false;

  /// The worker's simulated thread; RegionExec::abort() terminates it.
  sim::SimThread *Thread = nullptr;

  WaitKind LastWait = WaitKind::None;
  /// Wedge injection (Machine::takeWedge): the worker hangs in user code,
  /// blocked forever on a waitable nothing ever notifies.
  bool Wedged = false;
  sim::Waitable WedgeHang;

  /// This task's planned transient faults, looked up once at
  /// construction (null: none planned).
  const sim::TransientFaults *Transients;
  // Transient-fault retry state. Attempt counts tries of the current
  // iteration; it resets when a new iteration is claimed, so the functor
  // runs exactly once per iteration — on the first non-faulting attempt.
  unsigned Attempt = 0;
  bool BackoffArmed = false;
  sim::SimTime RetryAt = 0;
  /// Shared with the pending backoff timer: the worker may be terminated
  /// and its body released (Machine recycles finished threads) before
  /// the timer fires.
  std::shared_ptr<sim::Waitable> RetryEvent;
};

} // namespace parcae::rt

#endif // PARCAE_MORTA_WORKER_H
