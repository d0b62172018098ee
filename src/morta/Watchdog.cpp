//===- Watchdog.cpp - Morta's liveness watchdog ----------------------------===//

#include "morta/Watchdog.h"

#include <cassert>

using namespace parcae::rt;

Watchdog::Watchdog(RegionController &Ctrl, WatchdogParams P)
    : Ctrl(Ctrl), Runner(Ctrl.runner()), M(Runner.machine()), P(P) {
  Tel = telemetry::recorder();
  if (Tel) {
    TelPid = Tel->processFor(Runner.region().name());
    Tel->nameThread(TelPid, telemetry::TidWatchdog, "watchdog");
  }
}

void Watchdog::start() {
  assert(!Started && "watchdog already started");
  Started = true;
  KnownOnline = M.onlineCores();
  LastRetired = Runner.totalRetired();
  LastProgressAt = M.sim().now();
  Runner.OnFaultEscalation = [this](unsigned TaskIdx) {
    onEscalation(TaskIdx);
  };
  M.addDomainWarningListener(
      [this](const sim::FailureDomainEvent &D) { onDomainWarning(D); });
  M.sim().schedule(Period, [this] { tick(); });
}

void Watchdog::onDomainWarning(const sim::FailureDomainEvent &D) {
  if (Runner.completed() || Runner.suspended() || DrainActive)
    return;
  ++DrainsStarted;
  DrainActive = true;
  DrainWarnedAt = M.sim().now();
  if (Tel) {
    Tel->metrics().counter("watchdog.drains").add();
    Tel->instant(TelPid, telemetry::TidWatchdog, "watchdog", "watchdog_drain",
                 {telemetry::TraceArg::str("domain", D.Name),
                  telemetry::TraceArg::num("cores", D.Cores.size()),
                  telemetry::TraceArg::num("lead_us",
                                           sim::toSeconds(D.Warning) * 1e6)});
  }
  bool Accepted = Ctrl.drainRestart(D.Cores, [this] {
    DrainActive = false;
    ++DrainsCompleted;
    LastDrainLatency = M.sim().now() - DrainWarnedAt;
    // The proactive offline is our own doing, not a failure to detect;
    // and the drain window must not read as a progress stall.
    KnownOnline = M.onlineCores();
    LastRetired = Runner.totalRetired();
    LastProgressAt = M.sim().now();
    if (Tel) {
      Tel->metrics()
          .histogram("watchdog.drain_latency_us")
          .add(sim::toSeconds(LastDrainLatency) * 1e6);
      Tel->instant(
          TelPid, telemetry::TidWatchdog, "watchdog", "watchdog_drain_done",
          {telemetry::TraceArg::num("online", M.onlineCores()),
           telemetry::TraceArg::num("latency_us",
                                    sim::toSeconds(LastDrainLatency) * 1e6)});
    }
  });
  if (!Accepted)
    DrainActive = false;
}

void Watchdog::beginRecoveryClock(sim::SimTime FaultAt) {
  // Every fault gets its own window. Folding overlapping faults into one
  // clock (the old behaviour) under-counted recoveriesCompleted() and
  // produced a single stretched MTTR sample — exactly what a correlated
  // burst of failures produces.
  RecoveryWindows.push_back({FaultAt, Runner.totalRetired()});
}

void Watchdog::onEscalation(unsigned TaskIdx) {
  ++EscalationsHandled;
  if (Tel) {
    Tel->metrics().counter("watchdog.escalations").add();
    Tel->instant(TelPid, telemetry::TidWatchdog, "watchdog",
                 "watchdog_escalation",
                 {telemetry::TraceArg::num("task", TaskIdx)});
  }
  beginRecoveryClock(M.sim().now());
  // Degrade to SEQ when the region has it: its distinct task names dodge
  // a fault bound to a parallel task.
  RegionConfig C = Runner.region().hasVariant(Scheme::Seq)
                       ? Runner.region().unitConfig(Scheme::Seq)
                       : Runner.config();
  // The escalation fires from inside a worker's resume(); aborting that
  // worker's own thread mid-resume would corrupt the slice bookkeeping.
  // Defer the recovery to a fresh simulator event.
  M.sim().schedule(0, [this, C = std::move(C)] {
    if (!Runner.completed())
      Ctrl.forceRecover(C);
  });
}

void Watchdog::tick() {
  if (Runner.completed())
    return; // disarm: the region is done

  sim::SimTime Now = M.sim().now();

  // 1. Capacity: cores went offline since the last tick. Rescue stranded
  // threads onto the survivors, then shrink the controller's budget so it
  // re-optimizes (degradation ladder: lower DoP, ultimately SEQ).
  unsigned Online = M.onlineCores();
  if (Online < KnownOnline) {
    ++Detections;
    LastDetectionLatency = Now - M.lastOfflineAt();
    unsigned R = M.rescueStranded();
    Rescued += R;
    if (Tel) {
      Tel->metrics().counter("watchdog.detections").add();
      Tel->metrics()
          .histogram("watchdog.detect_latency_us")
          .add(sim::toSeconds(LastDetectionLatency) * 1e6);
      Tel->instant(TelPid, telemetry::TidWatchdog, "watchdog",
                   "watchdog_detect",
                   {telemetry::TraceArg::num("online", Online),
                    telemetry::TraceArg::num("was", KnownOnline),
                    telemetry::TraceArg::num("rescued", R)});
    }
    beginRecoveryClock(M.lastOfflineAt());
    KnownOnline = Online;
    Ctrl.onCapacityChange(Online);
  } else if (Online > KnownOnline) {
    // Capacity grew: a repair returned cores. Grow the thread budget back
    // so the controller re-selects (from its per-budget cache when it has
    // one) the configuration for the richer machine.
    ++Growths;
    LastGrowthLatency = Now - M.lastOnlineAt();
    if (Tel) {
      Tel->metrics().counter("watchdog.growths").add();
      Tel->metrics()
          .histogram("watchdog.grow_latency_us")
          .add(sim::toSeconds(LastGrowthLatency) * 1e6);
      Tel->instant(TelPid, telemetry::TidWatchdog, "watchdog",
                   "watchdog_grow",
                   {telemetry::TraceArg::num("online", Online),
                    telemetry::TraceArg::num("was", KnownOnline)});
    }
    KnownOnline = Online;
    Ctrl.onCapacityChange(Online);
  }

  // 2. Progress stall: work is in flight, yet nothing has retired for the
  // stall threshold. Rescue stranded threads and take the whole-region
  // abortive recovery: kill every worker, rewind to the commit frontier,
  // resume there. The *resume window* of a transition (execution torn
  // down, restart timer armed) is automatic progress — nothing can retire
  // and nothing can be repaired, and charging it to the stall clock would
  // make the first iteration after a long reconfiguration inherit the
  // whole transition window. A *draining* transition is not: a wedged
  // worker never sees the pause bound, so the drain itself can wedge —
  // the stall clock must keep running or the watchdog never notices.
  std::uint64_t Retired = Runner.totalRetired();
  if (Retired != LastRetired)
    StallRefused = false;
  if (Runner.transitioning() && !Runner.exec()) {
    LastProgressAt = Now;
    LastRetired = Retired;
  } else if (Retired != LastRetired) {
    LastRetired = Retired;
    LastProgressAt = Now;
  } else if (!StallRefused && Runner.exec() &&
             Now - LastProgressAt >= P.StallThreshold) {
    const RegionExec *E = Runner.exec();
    bool InFlight = E->nextSeq() > E->startSeq() + E->iterationsRetired();
    if (InFlight) {
      ++Stalls;
      if (Tel) {
        Tel->metrics().counter("watchdog.stalls").add();
        Tel->instant(
            TelPid, telemetry::TidWatchdog, "watchdog", "watchdog_stall",
            {telemetry::TraceArg::num("stalled_us",
                                      sim::toSeconds(Now - LastProgressAt) *
                                          1e6)});
      }
      Rescued += M.rescueStranded();
      beginRecoveryClock(LastProgressAt);
      LastProgressAt = Now; // re-arm: do not refire every tick
      if (!Ctrl.forceRecover(Runner.config())) {
        // Refused: a region that cannot abort falls back to draining into
        // the running configuration, which is no switch. Nothing will
        // recover, so drop the window just opened and stay quiet until
        // an iteration retires.
        RecoveryWindows.pop_back();
        StallRefused = true;
      }
    }
  }

  // 3. MTTR: a recovery window completes when the first iteration retires
  // after the fault that opened it. Windows are ordered by fault time, so
  // completions pop from the front; a burst that opened several windows
  // yields one completion and one MTTR sample per fault.
  while (!RecoveryWindows.empty() && !Runner.transitioning() &&
         Runner.totalRetired() > RecoveryWindows.front().RetiredAtFault) {
    const RecoveryWindow &W = RecoveryWindows.front();
    ++RecoveriesCompleted;
    LastMttr = Now - W.StartAt;
    RecoveryWindows.pop_front();
    if (Tel) {
      Tel->metrics().counter("watchdog.recoveries").add();
      Tel->metrics()
          .histogram("watchdog.mttr_us")
          .add(sim::toSeconds(LastMttr) * 1e6);
      Tel->instant(TelPid, telemetry::TidWatchdog, "watchdog",
                   "watchdog_recovered",
                   {telemetry::TraceArg::num("mttr_us",
                                             sim::toSeconds(LastMttr) * 1e6)});
    }
  }

  M.sim().schedule(Period, [this] { tick(); });
}
