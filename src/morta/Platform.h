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
/// arbiter tick then reallocates budget toward SLO tenants — latency, not
/// just reported thread need, becomes a first-class arbitration goal.
/// Threads go to the tighter deadline first (deadline-monotonic): an SLO
/// tenant that wants more takes from SLO-free tenants, then from looser
/// targets, never from an equal or tighter one. While it meets its target
/// it takes its whole shortfall in one tick, before it violates; while it
/// violates, one thread per tick. A tenant whose need drops gives the won
/// threads back the way every tenant does, through Algorithm 5's
/// shrink-to-fit. Every SLO-driven transfer is recorded, with its reason,
/// in a budget timeline and traced. A serving tenant that has to queue
/// work reports it at once (reportDemand), the way a controller reports
/// its optimum, so unassigned threads reach it without waiting for the
/// tick.
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
  /// arbiter tick and reportDemand(); controller tenants report the value
  /// of their last OPTIMIZE pass instead, preserving Algorithm 5's
  /// event-driven flow.
  virtual unsigned threadsUsed() const = 0;

  /// True when more threads than the current budget would help (the
  /// paper's "consumed its entire share" condition).
  virtual bool wantsMore() const = 0;

  // --- Optional latency SLO -------------------------------------------

  /// True when this tenant carries a latency SLO.
  virtual bool hasSlo() const { return false; }
  /// SLO target in seconds at the SLO's percentile.
  virtual double sloTargetSec() const { return 0.0; }
  /// Measured latency at the SLO's percentile over a recent window, in
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
  /// tenant's thread need, runs the Algorithm 5 rebalance (which also
  /// shrinks a former violator back to its need when load drops), and
  /// then the SLO pass (transfers toward violating and backlogged SLO
  /// tenants). The daemon must outlive the simulator run; stopArbiter()
  /// halts rescheduling.
  void startArbiter(sim::Simulator &Sim, sim::SimTime Period = sim::MSec);
  void stopArbiter() { ArbiterOn = false; }

  /// A tenant has to queue work now: pull every tenant's need and run the
  /// Algorithm 5 rebalance at once, as a controller's OPTIMIZE report
  /// does, instead of waiting for the next tick. Does nothing unless the
  /// arbiter is running and no rebalance is in progress.
  void reportDemand();

  unsigned totalThreads() const { return TotalThreads; }

  /// The current budget assigned to a registered program.
  unsigned budgetOf(const RegionController &C) const;

  /// Why the SLO pass moved a thread (traced as "violation" or
  /// "backlog").
  enum class SloReason : std::uint8_t {
    Violation, ///< the recipient's latency exceeds its target
    Backlog,   ///< the recipient meets its target but queues work
  };

  /// One SLO-driven move of one thread from a donor to an SLO tenant (the
  /// budget-timeline telemetry record).
  struct SloTransfer {
    sim::SimTime At;
    std::string From, To;
    SloReason Why;
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
  };

  void registerEntry(Entry E, PlatformTenant &Newcomer);
  void unregisterEntry(std::size_t Idx);
  void partition();
  void onOptimized(PlatformTenant *T, unsigned Used);
  /// Refreshes every tenant's reported need from threadsUsed(), resetting
  /// the shrink-to-fit damping where it changed.
  void pullDemand();
  /// \p Why names the trigger in the repartition trace.
  void rebalance(const char *Why = "rebalance");
  void rebalanceOnce(const char *Why);
  void arbiterTick(sim::Simulator &Sim, sim::SimTime Period);
  /// One SLO pass: each SLO tenant that wants more takes threads from
  /// SLO-free tenants, then looser targets (loosest first); its whole
  /// shortfall while it meets its target, one thread while it violates.
  void sloRebalanceOnce();
  /// Telemetry: one repartition instant carrying every tenant's budget.
  void traceBudgets(const char *Why);

  unsigned TotalThreads;
  std::vector<Entry> Programs;
  std::vector<std::unique_ptr<ControllerTenant>> Adapters;
  std::vector<SloTransfer> Transfers;
  /// rebalanceOnce's working sets, kept across calls: the demand path
  /// runs it on every queued arrival. rebalance() never nests it.
  std::vector<Entry *> Hungry, Notify;
  std::vector<unsigned> NewBudget;
  /// sloRebalanceOnce's working set, kept across ticks likewise: the
  /// tenants whose budget moved.
  std::vector<Entry *> Changed;
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
