//===- Admission.h - Admission control for the serving layer ----*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Admission control for ServeLoop's bounded per-class queues. A policy is
/// consulted twice per request: at arrival (admit into the queue, or
/// reject) and at dispatch (serve, or shed a request whose queue wait
/// already makes its deadline unmeetable — serving it would waste capacity
/// on a response the client gave up on). Drop-tail is the baseline;
/// DeadlineEarlyDrop is what keeps goodput from collapsing under overload.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_SERVE_ADMISSION_H
#define PARCAE_SERVE_ADMISSION_H

#include "sim/Time.h"

#include <cstddef>
#include <cstdint>

namespace parcae::serve {

/// One request's lifecycle record. Timestamps are virtual; a zero
/// CompletedAt means still in flight (or shed).
struct ServeRequest {
  std::uint64_t Id = 0;
  unsigned ClassIdx = 0;
  sim::SimTime ArrivedAt = 0;
  sim::SimTime StartedAt = 0;   ///< dispatch time (0: never dispatched)
  sim::SimTime CompletedAt = 0; ///< service completion (0: not completed)
  bool Shed = false;            ///< dropped at dispatch by the policy
  bool Rejected = false;        ///< refused at arrival (queue full)

  bool completed() const { return CompletedAt != 0; }
  sim::SimTime totalLatency() const { return CompletedAt - ArrivedAt; }
};

/// Decides which requests enter the queue and which still deserve service
/// when they reach its head.
class AdmissionPolicy {
public:
  virtual ~AdmissionPolicy();

  virtual const char *policyName() const = 0;

  /// Arrival-time decision: admit \p R into a queue currently holding
  /// \p QueueDepth of \p Capacity requests?
  virtual bool admit(const ServeRequest &R, std::size_t QueueDepth,
                     std::size_t Capacity) = 0;

  /// Dispatch-time decision: shed \p R instead of serving it at \p Now?
  virtual bool shedAtDispatch(const ServeRequest &R, sim::SimTime Now) {
    (void)R;
    (void)Now;
    return false;
  }
};

/// Baseline: admit while the queue has room, serve everything admitted.
class DropTailAdmission : public AdmissionPolicy {
public:
  const char *policyName() const override { return "drop-tail"; }
  bool admit(const ServeRequest &, std::size_t QueueDepth,
             std::size_t Capacity) override {
    return QueueDepth < Capacity;
  }
};

/// Drop-tail at arrival plus deadline-aware early drop at dispatch: a
/// request whose queue wait already exceeds \p MaxQueueWait is shed
/// rather than served — under overload this spends capacity on requests
/// that can still meet their SLO.
class DeadlineEarlyDrop : public AdmissionPolicy {
public:
  explicit DeadlineEarlyDrop(sim::SimTime MaxQueueWait)
      : MaxQueueWait(MaxQueueWait) {}

  const char *policyName() const override { return "deadline-early-drop"; }
  bool admit(const ServeRequest &, std::size_t QueueDepth,
             std::size_t Capacity) override {
    return QueueDepth < Capacity;
  }
  bool shedAtDispatch(const ServeRequest &R, sim::SimTime Now) override {
    return Now - R.ArrivedAt > MaxQueueWait;
  }

private:
  sim::SimTime MaxQueueWait;
};

} // namespace parcae::serve

#endif // PARCAE_SERVE_ADMISSION_H
