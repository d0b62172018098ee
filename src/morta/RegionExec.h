//===- RegionExec.h - Flexible execution of one parallel region -*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes one parallelization (RegionDesc) of a region on the simulated
/// machine under a parallelism configuration, with the full flexible
/// execution protocol of the paper:
///
///  * Workers implement Algorithm 2: fetch an instance, run one iteration,
///    return task_iterating / task_paused / task_complete, and synchronize
///    at the region barrier when pausing or completing.
///  * The head (master) task claims iterations from the region's
///    WorkSource; pause signals bound the claimed iteration space exactly
///    like the master's get_status() check at the top of each iteration
///    (Section 4.6), and every other task drains all iterations below the
///    bound before pausing — the channel-flush of the pause protocol.
///  * DoP-only reconfigurations can be applied in place via the
///    iteration-count handoff of Section 7.2 (optimized barrier): the
///    consumer-side channel width switches from m to n exactly at the
///    master iteration count I, preserving round-robin order (Figure 7.5).
///  * Scheme switches and unoptimized mode use the full pause-drain-resume
///    path, whose cost the Chapter 7 ablation measures.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_MORTA_REGIONEXEC_H
#define PARCAE_MORTA_REGIONEXEC_H

#include "core/Chunking.h"
#include "core/Costs.h"
#include "core/Link.h"
#include "core/Lock.h"
#include "core/Region.h"
#include "core/Task.h"
#include "core/WidthSchedule.h"
#include "core/WorkSource.h"
#include "sim/Machine.h"
#include "telemetry/Telemetry.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace parcae::rt {

class Worker;

/// Per-task counters Decima reads (Section 4.7's hooks feed these).
struct TaskStats {
  std::uint64_t Iterations = 0;
  sim::SimTime ComputeTime = 0;
  sim::SimTime CommTime = 0;
  /// Morta/Decima machinery cycles (hooks, status queries, activation
  /// loop): the overhead Section 8.3.6 argues is small — and chunking
  /// amortizes. Distinct from CommTime, which channel batching shrinks.
  sim::SimTime OverheadTime = 0;
};

/// Runs one RegionDesc under one configuration until the work source ends
/// or a pause drains it.
class RegionExec {
public:
  /// \p StartSeq is the first iteration index this execution will claim
  /// (nonzero when resuming after a reconfiguration or scheme switch).
  RegionExec(sim::Machine &M, const RuntimeCosts &Costs,
             const RegionDesc &Desc, WorkSource &Source, RegionConfig Config,
             std::uint64_t StartSeq = 0);
  ~RegionExec();
  RegionExec(const RegionExec &) = delete;
  RegionExec &operator=(const RegionExec &) = delete;

  /// Spawns the initial workers.
  void start();

  // --- Morta-facing control -------------------------------------------

  /// Signals the master to pause; all tasks drain iterations below the
  /// bound and exit. OnQuiescent fires when the last worker leaves.
  void requestPause();

  /// Applies a DoP-only change in place (optimized barrier, Section 7.2).
  /// Requires the optimized-barrier cost switch and the same scheme.
  void reconfigureInPlace(const std::vector<unsigned> &NewDoP);

  /// True when a DoP-only switch to \p NewDoP can avoid the full barrier.
  bool canReconfigureInPlace() const;

  bool completed() const { return Completed; }
  bool pauseRequested() const { return PauseBound != NoSeq; }

  /// Master iteration count: the next iteration index the head will claim.
  std::uint64_t nextSeq() const { return NextSeq; }

  /// First iteration this execution claimed.
  std::uint64_t startSeq() const { return StartSeq; }

  // --- Fault recovery (Morta watchdog) --------------------------------

  /// Iterations whose side effects are durable: every iteration below the
  /// frontier has been emitted by the sequential tail in order. Work in
  /// [frontier, nextSeq()) is in flight and safe to re-execute after an
  /// abort — the basis of the exactly-once guarantee.
  std::uint64_t commitFrontier() const { return CommitFrontier; }

  /// Abortive recovery applies only when the tail is sequential: a
  /// parallel tail commits out of order, so in-flight iterations may have
  /// already emitted and re-running them would duplicate side effects.
  bool canAbort() const {
    return Started && !Completed && !Desc.Tasks.back().isParallel();
  }

  /// Kills every worker immediately (no drain). In-flight iterations are
  /// discarded; the caller rewinds the work source to commitFrontier()
  /// and starts a fresh execution there. Neither OnQuiescent nor
  /// OnComplete fires.
  void abort();

  /// Transient fault attempts observed in this execution.
  std::uint64_t faultsInjected() const { return FaultsInjected; }
  /// Faults whose retries exhausted Costs.MaxFaultRetries.
  std::uint64_t escalations() const { return Escalations; }

  /// Fires (once) when a transient fault exhausts its retry budget; the
  /// watchdog degrades the region (typically to SEQ, whose distinct task
  /// names dodge the planned fault).
  std::function<void(unsigned TaskIdx)> OnFaultEscalation;

  const RegionConfig &config() const { return Config; }
  const RegionDesc &desc() const { return Desc; }

  /// Fires when all workers have exited after a pause (drained state).
  std::function<void()> OnQuiescent;
  /// Fires when the region completes (work source exhausted and drained).
  std::function<void()> OnComplete;
  /// Fires after each retirement with the execution's cumulative retired
  /// count (the tail's commit progress). Left null on the hot path by
  /// default; the serve broker uses it for per-request completion
  /// attribution inside a batched region.
  std::function<void(std::uint64_t Retired)> OnProgress;

  // --- Decima-facing monitoring ---------------------------------------

  const TaskStats &stats(unsigned TaskIdx) const {
    assert(TaskIdx < Stats.size());
    return Stats[TaskIdx];
  }

  /// Iterations fully retired (seen by the tail task).
  std::uint64_t iterationsRetired() const { return IterationsRetired; }

  /// Workload on a task: its LoadCB if registered, the work-queue
  /// occupancy for the head, or the input-channel occupancy otherwise.
  double loadOf(unsigned TaskIdx) const;

  unsigned numTasks() const { return Desc.numTasks(); }
  sim::Machine &machine() { return M; }
  const RuntimeCosts &costs() const { return Costs; }

  // --- Chunked claiming -----------------------------------------------

  /// Installs the chunk-size policy (owned by the RegionRunner so the
  /// tuned K survives reconfigurations). Null — the default for
  /// directly constructed executions — means chunk size 1, i.e. the
  /// classic one-claim-per-iteration protocol.
  void setChunkPolicy(ChunkPolicy *P) { Chunking = P; }

  /// Deepest channel occupancy as a fraction of its admission window;
  /// the policy's load-imbalance shrink signal.
  double maxLinkPressure() const;

  // --- Observability --------------------------------------------------

  /// A snapshot of where the region stands, for explaining a run that
  /// stopped retiring. The first line gives the claim frontier
  /// (nextSeq), the pause and end bounds, the commit frontier and the
  /// chunk K per task. Then one line per live worker: task and slot,
  /// thread state, last runtime wait (and the channel it names), cursor,
  /// cost-group iterations left, and the unsent tokens per out-link as
  /// first..last seq. Then one line per link: low water, admission
  /// window and occupancy.
  std::string stallReport() const;

private:
  /// Chunk size task \p TaskIdx should use for its next chunk: the
  /// policy's K, clamped so the chunk's buffered tokens span at most half
  /// of each out-link's window (a non-head task's K is divided by its
  /// width), and degraded to 1 while a pause is draining.
  std::uint64_t chunkKFor(unsigned TaskIdx) const;

  /// Returns the head's last \p Count claimed-but-unstarted iterations
  /// to the source and lowers NextSeq (and a pending PauseBound) to
  /// match. Only legal when those iterations are the contiguous tail of
  /// the claim space — the caller checks. Returns false when the source
  /// cannot replay them (the worker drains the chunk instead).
  bool giveBackChunk(std::uint64_t Count);

private:
  friend class Worker;

  /// Worker callbacks.
  void onWorkerExit(Worker *W, TaskStatus Status);
  void updateLowWater(unsigned TaskIdx);
  void retireIteration(unsigned TaskIdx);
  /// One DCAFE-style tuning step of the chunk policy from live stats.
  void retuneChunking();
  /// Records a transient fault attempt; escalates past the retry budget.
  void noteFault(unsigned TaskIdx, std::uint64_t Seq, unsigned Attempt);
  /// Advances the commit frontier after the sequential tail emits \p Seq.
  void noteTailCommit(std::uint64_t Seq) {
    if (Seq + 1 > CommitFrontier)
      CommitFrontier = Seq + 1;
  }
  /// Telemetry hook after a task finishes one iteration: samples the
  /// per-task iteration counter (every 64th to bound trace size).
  void noteIteration(unsigned TaskIdx) {
    if (Tel && (Stats[TaskIdx].Iterations & 63) == 0)
      Tel->counter(TelPid, 1 + TaskIdx, "task",
                   "iters:" + Desc.Tasks[TaskIdx].name(),
                   static_cast<double>(Stats[TaskIdx].Iterations));
  }
  SimLock &lockFor(int LockId);

  /// Spawns a worker for (\p TaskIdx, \p Slot).
  void spawnWorker(unsigned TaskIdx, unsigned Slot, std::uint64_t CursorFrom);

  std::vector<Link *> &inLinks(unsigned TaskIdx) { return InLinks[TaskIdx]; }
  std::vector<Link *> &outLinks(unsigned TaskIdx) { return OutLinks[TaskIdx]; }

  sim::Machine &M;
  const RuntimeCosts &Costs;
  const RegionDesc &Desc;
  WorkSource &Source;
  RegionConfig Config;

  /// Next iteration the head claims; bounds below refer to this space.
  std::uint64_t NextSeq;
  /// Iterations >= PauseBound are not executed in this exec (NoSeq: none).
  std::uint64_t PauseBound = NoSeq;
  /// Set when the source ends: iterations >= EndBound do not exist.
  std::uint64_t EndBound = NoSeq;
  /// Signalled whenever PauseBound or EndBound changes.
  sim::Waitable BoundEvent;

  std::vector<WidthSchedule> Schedules;           // one per task
  std::vector<std::unique_ptr<Link>> Links;       // storage
  std::vector<std::vector<Link *>> InLinks;       // per task
  std::vector<std::vector<Link *>> OutLinks;      // per task
  std::map<int, std::unique_ptr<SimLock>> Locks;  // DOANY critical sections
  std::vector<TaskStats> Stats;

  std::vector<std::vector<Worker *>> ActiveByTask; // live workers per task
  std::vector<std::vector<bool>> HasWorker;        // per task per slot
  unsigned ActiveWorkers = 0;
  bool Started = false;
  bool Completed = false;
  bool Aborted = false;
  std::uint64_t IterationsRetired = 0;
  std::uint64_t StartSeq = 0;
  std::uint64_t CommitFrontier = 0;
  /// Chunk-size policy (null = chunk size 1). Retuned every
  /// RetunePeriod retirements, piggybacked on retireIteration so tuning
  /// needs no timer and dies with the workers.
  ChunkPolicy *Chunking = nullptr;
  static constexpr std::uint64_t RetunePeriod = 256;
  std::uint64_t FaultsInjected = 0;
  std::uint64_t Escalations = 0;
  bool EscalationFired = false;

  // Telemetry (null when tracing is off).
  telemetry::TraceRecorder *Tel = nullptr;
  std::uint32_t TelPid = 0;
  telemetry::Counter *RetiredMetric = nullptr;
};

} // namespace parcae::rt

#endif // PARCAE_MORTA_REGIONEXEC_H
