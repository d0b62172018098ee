//===- Costs.h - Run-time overhead model ------------------------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// All run-time overheads of flexible execution, in cycles (1 GHz ns).
/// Chapter 7 of the paper names these overheads and presents optimizations
/// that almost completely eliminate each; the boolean switches below select
/// the unoptimized or optimized implementation and drive the Chapter 7
/// ablation benchmark. Those switches and ReconfigCompute are the only
/// settable values; every other cost is a fixed constant.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_CORE_COSTS_H
#define PARCAE_CORE_COSTS_H

#include "sim/Time.h"

namespace parcae::rt {

/// Overheads of the Morta/Decima machinery and their Chapter 7 switches.
struct RuntimeCosts {
  /// Sending / receiving one token over a point-to-point channel: the
  /// fixed per-transfer cost (synchronization, wakeup, cache handoff).
  static constexpr sim::SimTime CommSend = 120;
  static constexpr sim::SimTime CommRecv = 120;
  /// Marginal cost of each additional token in a batched transfer. A
  /// chunked worker moves K tokens per channel interaction and pays
  /// CommSend/CommRecv once plus CommPerToken for the K-1 extras, so
  /// per-iteration communication overhead is O(1/K) + CommPerToken.
  static constexpr sim::SimTime CommPerToken = 20;
  /// One Decima begin/end hook pair (two rdtsc reads, Section 8.3.6).
  static constexpr sim::SimTime HookCost = 40;
  /// One Task::getStatus() query against Morta.
  static constexpr sim::SimTime StatusQuery = 30;
  /// Per-iteration save+reload of cross-iteration register/stack state
  /// through the heap (Section 4.5.2) when the Section 7.1 hoisting
  /// optimization is off. With hoisting on, it is paid once per
  /// activation instead of once per iteration.
  static constexpr sim::SimTime HeapSpill = 220;
  /// Per-iteration yield to the task-activation loop (Algorithm 2) when
  /// Section 7.1 control-flow optimization is off.
  static constexpr sim::SimTime TaskActivation = 150;
  /// Executing a task's Tinit (reload loop-invariant live-ins) at every
  /// launch or resumption.
  static constexpr sim::SimTime InitCost = 3 * sim::USec;
  /// Thread launch cost when (re)spawning a worker.
  static constexpr sim::SimTime ThreadSpawn = 12 * sim::USec;
  /// Core optimization routine that picks the next configuration.
  sim::SimTime ReconfigCompute = 60 * sim::USec;
  /// Synchronizing one task at the region barrier.
  static constexpr sim::SimTime BarrierCost = 1 * sim::USec;
  /// Entering/leaving a critical section (uncontended lock cost).
  static constexpr sim::SimTime LockCost = 80;
  /// Merging one thread's privatized reduction state (Section 7.4).
  static constexpr sim::SimTime ReduceMergeCost = 400;

  // --- Fault handling (sim/Faults.h, the Morta recovery path) ----------
  /// Cycles burned by an execution attempt that raises a transient fault
  /// before the fault surfaces (detection is cheap; the work is wasted).
  static constexpr sim::SimTime FaultAttemptCost = 500;
  /// First retry backoff after a transient fault; doubles per attempt.
  static constexpr sim::SimTime FaultRetryBackoff = 20 * sim::USec;
  /// Backoff ceiling for the exponential schedule.
  static constexpr sim::SimTime FaultRetryBackoffMax = 320 * sim::USec;
  /// Retries before a transient fault escalates to the watchdog, which
  /// degrades the region (typically to SEQ) rather than spinning forever.
  static constexpr unsigned MaxFaultRetries = 5;

  /// Section 7.1: hoist cross-iteration load/save out of the loop.
  bool OptimizedDataManagement = true;
  /// Section 7.2: drain-free DoP changes via iteration-count handoff
  /// instead of a full pipeline-drain barrier.
  bool OptimizedBarrier = true;
  /// Section 7.3: overlap the optimization routine with the drain.
  bool OverlapReconfig = true;
  /// Section 7.4: privatize-and-merge reductions instead of a critical
  /// section per iteration.
  bool PrivatizedReductions = true;
};

} // namespace parcae::rt

#endif // PARCAE_CORE_COSTS_H
