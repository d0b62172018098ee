//===- Watchdog.h - Morta's liveness watchdog -------------------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The failure-detection half of Morta's recovery story. The controller's
/// own measurement loop only advances when iterations retire, so a dead
/// core that strands a worker stalls the pipeline *and* the controller —
/// nobody is left to notice. The watchdog is the independent observer: a
/// periodic tick that
///
///  * polls machine capacity and, when cores have gone offline, rescues
///    stranded threads and shrinks the controller's thread budget
///    (graceful degradation to a lower DoP, or SEQ);
///  * detects capacity *growth* (a repair returned cores) and grows the
///    thread budget back, so the controller re-selects — from its
///    per-budget cache when possible — the richer configuration;
///  * watches region progress and, when nothing retires for a stall
///    threshold with work in flight, takes the one stall path: rescue
///    stranded threads, then the whole-region abortive recovery, which
///    kills every worker, rewinds the source to the commit frontier and
///    resumes there;
///  * degrades the region to SEQ (when it has a SEQ variant) once a
///    transient fault exhausts its retry budget, side-stepping the
///    poisoned configuration;
///  * drains the region off the doomed cores when a failure domain
///    announces itself ahead of time;
///  * records detection latency and MTTR (fault time -> first iteration
///    retired after recovery) as metrics histograms.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_MORTA_WATCHDOG_H
#define PARCAE_MORTA_WATCHDOG_H

#include "morta/Controller.h"
#include "sim/Time.h"
#include "telemetry/Telemetry.h"

#include <cstdint>
#include <deque>

namespace parcae::rt {

/// Tunables of the liveness watchdog.
struct WatchdogParams {
  /// No retired iteration for this long (with work in flight and no
  /// transition in progress) counts as a stall.
  sim::SimTime StallThreshold = 4 * sim::MSec;
  /// Unread: the watchdog re-issues nothing, since slow-core-aware
  /// placement (MachineConfig::SlowCoreAvoidance) is the one straggler
  /// response. Kept only because perfbench sets them; drop them with its
  /// `morta.speculations` metric.
  bool Speculate = false;
  sim::SimTime SpecStallThreshold = 1 * sim::MSec;
  sim::SimTime SpecAgeThreshold = 500 * sim::USec;
};

/// Periodic liveness monitor driving Morta's recovery paths.
class Watchdog {
public:
  Watchdog(RegionController &Ctrl, WatchdogParams P = {});

  /// Arms the periodic tick and hooks fault escalations. Call after the
  /// controller has started.
  void start();

  // --- Counters (bench/test-facing) -----------------------------------

  /// Capacity drops detected (one per tick that saw fewer online cores).
  unsigned detections() const { return Detections; }
  /// Capacity growths detected (one per tick that saw more online cores).
  unsigned growthsDetected() const { return Growths; }
  /// Progress stalls detected. A stall whose recovery the runner refuses
  /// counts once: the next one needs an iteration to retire first.
  unsigned stallsDetected() const { return Stalls; }
  /// Retry-budget escalations handled.
  unsigned escalationsHandled() const { return EscalationsHandled; }
  /// Recoveries whose completion (first retire after the fault) was seen.
  /// Each fault opens its own recovery window, so a burst of faults
  /// counts one completion (and one MTTR sample) per fault.
  unsigned recoveriesCompleted() const { return RecoveriesCompleted; }
  /// Recovery windows opened but not yet completed.
  unsigned recoveriesPending() const {
    return static_cast<unsigned>(RecoveryWindows.size());
  }
  /// Stranded threads rescued in total.
  unsigned threadsRescued() const { return Rescued; }
  /// Always 0: nothing is re-issued, placement alone answers a slow
  /// core. Kept only because perfbench reads it for its
  /// `morta.speculations` metric; drop both together.
  unsigned speculationsIssued() const { return 0; }
  /// Proactive drains started on a failure-domain warning.
  unsigned drainsStarted() const { return DrainsStarted; }
  /// Drains that completed (region resumed on the survivors).
  unsigned drainsCompleted() const { return DrainsCompleted; }
  /// Warning-to-resumed latency of the most recent completed drain.
  sim::SimTime lastDrainLatency() const { return LastDrainLatency; }

  /// Latency of the most recent capacity-drop detection (fault to tick).
  sim::SimTime lastDetectionLatency() const { return LastDetectionLatency; }
  /// Latency of the most recent capacity-growth detection (repair to tick).
  sim::SimTime lastGrowthLatency() const { return LastGrowthLatency; }
  /// Most recent mean-time-to-recovery (fault to first retire after).
  sim::SimTime lastMttr() const { return LastMttr; }

private:
  /// Polling period. Detection latency is at most one period.
  static constexpr sim::SimTime Period = 250 * sim::USec;

  void tick();
  void onEscalation(unsigned TaskIdx);
  void onDomainWarning(const sim::FailureDomainEvent &D);
  /// Opens a recovery window clocked from \p FaultAt. Windows stack: a
  /// new fault during a running recovery gets its own window, so bursts
  /// are not folded into one MTTR sample.
  void beginRecoveryClock(sim::SimTime FaultAt);

  RegionController &Ctrl;
  RegionRunner &Runner;
  sim::Machine &M;
  WatchdogParams P;

  bool Started = false;
  unsigned KnownOnline = 0;
  std::uint64_t LastRetired = 0;
  sim::SimTime LastProgressAt = 0;
  /// The last stall's recovery was refused: report no further stall
  /// until an iteration retires.
  bool StallRefused = false;

  /// One open MTTR clock per outstanding fault, oldest first. A window
  /// completes at the first retire after its fault (outside a
  /// transition); overlapping faults complete separately.
  struct RecoveryWindow {
    sim::SimTime StartAt = 0;
    std::uint64_t RetiredAtFault = 0;
  };
  std::deque<RecoveryWindow> RecoveryWindows;

  unsigned Detections = 0;
  unsigned Growths = 0;
  unsigned Stalls = 0;
  unsigned EscalationsHandled = 0;
  unsigned RecoveriesCompleted = 0;
  unsigned Rescued = 0;
  sim::SimTime LastDetectionLatency = 0;
  sim::SimTime LastGrowthLatency = 0;
  sim::SimTime LastMttr = 0;
  unsigned DrainsStarted = 0;
  unsigned DrainsCompleted = 0;
  bool DrainActive = false;
  sim::SimTime DrainWarnedAt = 0;
  sim::SimTime LastDrainLatency = 0;

  // Telemetry (null when tracing is off).
  telemetry::TraceRecorder *Tel = nullptr;
  std::uint32_t TelPid = 0;
};

} // namespace parcae::rt

#endif // PARCAE_MORTA_WATCHDOG_H
