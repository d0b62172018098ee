//===- Faults.h - Deterministic fault injection for the machine -*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic, seeded fault plan the simulated Machine consults. The
/// paper's central claim — Morta can "cut short running tasks and replace
/// them with functionally equivalent tasks better suited to the current
/// execution environment" — is only exercised when the environment
/// degrades, so the plan models the three failure classes a shared
/// production platform exhibits:
///
///  * Stragglers: a core runs dilated (e.g. 4x cycle time) over a window
///    of virtual time — thermal throttling, a noisy co-tenant.
///  * Core offlining: a core fails permanently at a point in time. The
///    thread running on it is *stranded* (held hostage) until Morta's
///    watchdog rescues it — exactly the stall a dead core causes.
///  * Transient task faults: a specific dynamic task instance raises a
///    fault instead of completing for its first FailCount attempts; Morta
///    retries with bounded exponential backoff.
///  * Failure domains: a named set of cores (a socket, a rack slot) fails
///    together at one virtual time — the correlated burst real platforms
///    exhibit — optionally coming back after a downtime window.
///  * Repairs: a previously failed core re-onlines at a point in time,
///    returning capacity the watchdog grows the thread budget back into.
///
/// Everything is declared up front (or scattered from a seed), so an
/// identical plan reproduces a byte-identical event sequence.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_SIM_FAULTS_H
#define PARCAE_SIM_FAULTS_H

#include "sim/Time.h"

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace parcae::sim {

/// A core that runs slow over [At, At + Duration): every compute cycle
/// takes Dilation wall cycles.
struct StragglerFault {
  unsigned Core = 0;
  SimTime At = 0;
  SimTime Duration = 0;
  double Dilation = 1.0;
};

/// A core that fails permanently at time At.
struct OfflineFault {
  unsigned Core = 0;
  SimTime At = 0;
};

/// A correlated burst: every core of a named domain fails atomically at
/// time At. Downtime == 0 models a permanent loss; otherwise the whole
/// domain is repaired (cores re-onlined) at At + Downtime. Warning > 0
/// models an advance notice (a thermal alarm, a maintenance drain): the
/// machine announces the doomed domain at At - Warning, giving the
/// runtime a window to checkpoint and migrate regions off it instead of
/// absorbing the abort.
struct FailureDomainEvent {
  std::string Name;
  std::vector<unsigned> Cores;
  SimTime At = 0;
  SimTime Downtime = 0;
  SimTime Warning = 0;
};

/// A single core re-onlining at time At (repairing an earlier offline).
struct RepairEvent {
  unsigned Core = 0;
  SimTime At = 0;
};

/// A task instance (identified by task name and region-global iteration
/// index) whose first FailCount execution attempts fault.
struct TransientFault {
  std::string Task;
  std::uint64_t Seq = 0;
  unsigned FailCount = 1;
};

/// A task instance that wedges: the worker about to run it hangs forever
/// (stuck in user code, never returning to the runtime) instead of
/// executing. Unlike a transient fault there is no retry path — only the
/// watchdog's abortive recovery can clear it, and only in a region with a
/// sequential tail: a parallel-tail region cannot abort
/// (RegionExec::canAbort), so a wedge there is not recovered. A wedge
/// fires at most once: the replay re-executes the iteration normally.
struct WedgeFault {
  std::string Task;
  std::uint64_t Seq = 0;
};

/// The full fault schedule of one run. Value-semantic: the Machine takes a
/// copy at installFaultPlan(), so one plan can drive many runs.
class FaultPlan {
public:
  FaultPlan() = default;

  /// Dilates \p Core by \p Dilation (>= 1) over [At, At + Duration).
  void addStraggler(unsigned Core, SimTime At, SimTime Duration,
                    double Dilation);

  /// Permanently offlines \p Core at time \p At.
  void addOffline(unsigned Core, SimTime At);

  /// Fails every core of \p Cores atomically at time \p At (a socket or
  /// rack event). With \p Downtime > 0 the domain is repaired — all its
  /// cores re-onlined — at At + Downtime. With \p Warning > 0 the machine
  /// announces the event at At - Warning (clamped to time 0) via its
  /// domain-warning listeners.
  void addDomain(std::string Name, std::vector<unsigned> Cores, SimTime At,
                 SimTime Downtime = 0, SimTime Warning = 0);

  /// Re-onlines \p Core at time \p At (repairs an earlier offline).
  void addRepair(unsigned Core, SimTime At);

  /// Adds a failure domain of \p Size distinct cores drawn deterministically
  /// from [0, NumCores) using \p Seed — the seeded counterpart of
  /// addDomain, mirroring scatterTransients.
  void scatterDomain(std::uint64_t Seed, std::string Name, unsigned NumCores,
                     unsigned Size, SimTime At, SimTime Downtime = 0,
                     SimTime Warning = 0);

  /// Makes the first \p FailCount attempts of (\p Task, \p Seq) fault.
  void addTransient(std::string Task, std::uint64_t Seq,
                    unsigned FailCount = 1);

  /// Wedges the worker that fetches iteration \p Seq of \p Task: it hangs
  /// in user code until terminated (fires once; see Machine::takeWedge).
  void addWedge(std::string Task, std::uint64_t Seq);

  /// Scatters \p Count transient faults over iterations [SeqBegin, SeqEnd)
  /// of \p Task, deterministically from \p Seed. Each fault's FailCount is
  /// uniform in [1, MaxFailCount].
  void scatterTransients(std::uint64_t Seed, const std::string &Task,
                         std::uint64_t SeqBegin, std::uint64_t SeqEnd,
                         unsigned Count, unsigned MaxFailCount = 1);

  /// Scatters \p Count straggler windows over cores [0, NumCores) and start
  /// times [From, To), deterministically from \p Seed. Each window lasts
  /// \p Duration and dilates by a factor uniform in
  /// [MinDilation, MaxDilation].
  void scatterStragglers(std::uint64_t Seed, unsigned NumCores, unsigned Count,
                         SimTime From, SimTime To, SimTime Duration,
                         double MinDilation, double MaxDilation);

  /// Dilation factor of \p Core at time \p Now (1.0 = nominal). Overlapping
  /// windows combine with max — a throttled core runs at the worst active
  /// dilation, it does not compound — so the result is always >= 1 and never
  /// exceeds the largest declared window.
  double dilation(unsigned Core, SimTime Now) const;

  /// Next time strictly after \p Now at which \p Core's dilation factor can
  /// change (a straggler window opening or closing). Returns 0 when no
  /// boundary lies ahead. The Machine clamps compute slices to this so each
  /// slice runs under one constant dilation (piecewise-exact stragglers).
  SimTime nextDilationBoundary(unsigned Core, SimTime Now) const;

  /// Attempts of (\p Task, \p Seq) that fault before one succeeds.
  unsigned transientFailCount(const std::string &Task,
                              std::uint64_t Seq) const;

  /// True when the plan wedges iteration \p Seq of \p Task.
  bool wedgeAt(const std::string &Task, std::uint64_t Seq) const;

  const std::vector<StragglerFault> &stragglers() const { return Stragglers; }
  const std::vector<OfflineFault> &offlines() const { return Offlines; }
  const std::vector<FailureDomainEvent> &domains() const { return Domains; }
  const std::vector<RepairEvent> &repairs() const { return Repairs; }
  const std::vector<WedgeFault> &wedges() const { return Wedges; }
  std::size_t numTransients() const { return Transients.size(); }

  /// Cores the plan ever offlines, counting each domain member (a core may
  /// be counted twice if named by both an OfflineFault and a domain).
  std::size_t numOfflineEvents() const;

  bool empty() const {
    return Stragglers.empty() && Offlines.empty() && Transients.empty() &&
           Domains.empty() && Repairs.empty() && Wedges.empty();
  }

private:
  std::vector<StragglerFault> Stragglers;
  std::vector<OfflineFault> Offlines;
  std::vector<FailureDomainEvent> Domains;
  std::vector<RepairEvent> Repairs;
  std::vector<WedgeFault> Wedges;
  std::map<std::pair<std::string, std::uint64_t>, unsigned> Transients;
};

} // namespace parcae::sim

#endif // PARCAE_SIM_FAULTS_H
