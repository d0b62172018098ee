//===- Platform.h - Platform-wide Morta daemon ------------------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The platform-wide run-time system of Section 6.4.3 (Algorithm 5): a
/// daemon that partitions the machine's hardware threads across the
/// flexible parallel programs currently executing. Each program's own
/// controller optimizes within its budget and reports back the number of
/// threads its optimal configuration actually uses; the daemon hands the
/// slack to programs that consumed their full share, and re-partitions on
/// program launch and termination.
///
/// Extended beyond the paper for serving mode: the daemon arbitrates
/// abstract *tenants* (PlatformTenant), of which a RegionController is one
/// kind and a ServeLoop request class another. A tenant may carry a
/// latency SLO (p-th percentile of response time <= target); a periodic
/// arbiter tick then reallocates budget from SLO-meeting tenants to
/// SLO-violating ones under overload — latency, not just reported thread
/// need, becomes a first-class arbitration goal. Every SLO-driven
/// transfer is recorded in a budget timeline and traced.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_MORTA_PLATFORM_H
#define PARCAE_MORTA_PLATFORM_H

#include "morta/Controller.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace parcae::rt {

/// What the daemon needs from an arbitrated tenant. A tenant is anything
/// that consumes a thread budget: a RegionController-driven program
/// (adapted internally by addProgram) or a serving-layer request class.
class PlatformTenant {
public:
  virtual ~PlatformTenant();

  /// Stable name, used in telemetry and the SLO-transfer timeline.
  virtual const std::string &tenantName() const = 0;

  /// The daemon granted \p Budget threads. \p First is true for the
  /// grant delivered at registration (a controller tenant starts its
  /// program then).
  virtual void onBudget(unsigned Budget, bool First) = 0;

  /// Threads the tenant currently needs/uses; 0 means "unknown yet"
  /// (the daemon then neither shrinks nor grows it). Polled on every
  /// arbiter tick; controller tenants report the value of their last
  /// OPTIMIZE pass instead, preserving Algorithm 5's event-driven flow.
  virtual unsigned threadsUsed() const = 0;

  /// True when more threads than the current budget would help (the
  /// paper's "consumed its entire share" condition).
  virtual bool wantsMore() const = 0;

  // --- Optional latency SLO -------------------------------------------

  /// True when this tenant carries a latency SLO.
  virtual bool hasSlo() const { return false; }
  /// SLO target in seconds at sloPercentile().
  virtual double sloTargetSec() const { return 0.0; }
  /// Percentile the SLO is stated over (e.g. 95).
  virtual double sloPercentile() const { return 95.0; }
  /// Measured latency at sloPercentile() over a recent window, in
  /// seconds; negative when no data has been observed yet.
  virtual double sloLatencySec() const { return -1.0; }
};

/// Platform-wide thread-budget arbiter (Algorithm 5 + SLO arbitration).
class PlatformDaemon {
public:
  explicit PlatformDaemon(unsigned TotalThreads);
  ~PlatformDaemon(); // out-of-line: adapters are incomplete here

  /// Registers a program (its controller). Budgets of all tenants are
  /// re-partitioned; the new program's controller is started, the others
  /// are notified of their reduced share.
  void addProgram(RegionController &C);

  /// Unregisters a terminated program and redistributes its threads.
  void removeProgram(RegionController &C);

  /// Registers a tenant directly (the serving layer's path). The tenant
  /// must outlive its registration.
  void addTenant(PlatformTenant &T);

  /// Unregisters a tenant and redistributes its threads.
  void removeTenant(PlatformTenant &T);

  /// Starts the periodic arbiter: every \p Period the daemon polls each
  /// tenant's thread need, runs the Algorithm 5 rebalance, and then the
  /// SLO pass (transfers from SLO-meeting to SLO-violating tenants and
  /// the reverse hand-back when load drops). The daemon must outlive the
  /// simulator run; stopArbiter() halts rescheduling.
  void startArbiter(sim::Simulator &Sim, sim::SimTime Period = sim::MSec);
  void stopArbiter() { ArbiterOn = false; }

  unsigned totalThreads() const { return TotalThreads; }
  unsigned numPrograms() const {
    return static_cast<unsigned>(Programs.size());
  }

  /// The current budget assigned to a registered program.
  unsigned budgetOf(const RegionController &C) const;
  /// The current budget assigned to a registered tenant.
  unsigned budgetOf(const PlatformTenant &T) const;

  /// One SLO-driven budget move (the budget-timeline telemetry record).
  struct SloTransfer {
    sim::SimTime At;
    std::string From, To;
    unsigned Threads;
    /// "violation" (meeting -> violating) or "return" (hand-back).
    const char *Why;
  };
  /// Every SLO-driven transfer so far, in time order.
  const std::vector<SloTransfer> &sloTransfers() const { return Transfers; }

private:
  /// Adapts a RegionController to the tenant interface (Algorithm 5's
  /// original clients). Owned by the daemon for the registration's life.
  class ControllerTenant;

  struct Entry {
    PlatformTenant *T;
    /// Non-null for controller tenants (addProgram bookkeeping).
    RegionController *Ctrl;
    unsigned Budget;       ///< threads assigned by the daemon
    unsigned Used;         ///< threads the optimal config uses (0: unknown)
    /// The daemon shrank this tenant's budget to its reported optimum;
    /// it is not "hungry" again until it reports a different need (this
    /// breaks grow/shrink oscillation through the config cache).
    bool ShrunkToFit = false;
    /// Net threads gained (+) or lent (-) through SLO transfers; drives
    /// the hand-back when load drops.
    int SloNet = 0;
  };

  void registerEntry(Entry E, PlatformTenant &Newcomer);
  void unregisterEntry(std::size_t Idx);
  void partition();
  void onOptimized(PlatformTenant *T, unsigned Used);
  void rebalance();
  void rebalanceOnce();
  void arbiterTick(sim::Simulator &Sim, sim::SimTime Period);
  /// One SLO pass: hand-backs first, then meeting->violating transfers.
  void sloRebalanceOnce();
  /// Telemetry: one repartition instant carrying every tenant's budget.
  void traceBudgets(const char *Why);

  unsigned TotalThreads;
  std::vector<Entry> Programs;
  std::vector<std::unique_ptr<ControllerTenant>> Adapters;
  std::vector<SloTransfer> Transfers;
  bool InRebalance = false;
  bool RebalancePending = false;
  bool ArbiterOn = false;
  /// The arbiter's clock (null until startArbiter); stamps the transfer
  /// timeline.
  sim::Simulator *ArbSim = nullptr;

  // Telemetry (null when tracing is off).
  telemetry::TraceRecorder *Tel = nullptr;
  std::uint32_t TelPid = 0;
};

} // namespace parcae::rt

#endif // PARCAE_MORTA_PLATFORM_H
