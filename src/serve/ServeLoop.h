//===- ServeLoop.h - Open-loop request broker -------------------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer's request broker: maps each admitted request of a
/// registered RequestClass to its own flexible-region execution, tracks
/// queue/service/total latency per request, and registers each class as a
/// PlatformTenant so the platform daemon arbitrates thread budgets — and
/// latency SLOs — across classes.
///
/// Flow per class:
///
///   ArrivalProcess -> admission (bounded queue, pluggable policy)
///                  -> work-conserving dispatch: whenever one of the
///                     budget/threads-per-request runner slots is free,
///                     the queued backlog (up to BatchPolicy::MaxBatch
///                     requests) starts at once as one shared region
///                  -> completion stamps + histograms + SLO window,
///                     attributed per request at iteration watermarks.
///
/// Every admitted request is therefore queued, in flight, completed or
/// shed: Admitted - Completed - Shed == queueDepth + inFlightRequests.
///
/// The class's tenant reports its live thread demand (queue + in-service)
/// to the daemon and exposes its windowed SLO latency; the daemon's SLO
/// pass then moves budget toward violating classes under overload.
///
/// Everything runs on the simulator's virtual clock from caller-provided
/// seeds, so a same-seed replay is byte-identical.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_SERVE_SERVELOOP_H
#define PARCAE_SERVE_SERVELOOP_H

#include "core/Costs.h"
#include "core/Region.h"
#include "core/WorkSource.h"
#include "morta/Platform.h"
#include "morta/RegionRunner.h"
#include "serve/Admission.h"
#include "serve/Arrival.h"
#include "serve/Batch.h"
#include "sim/Faults.h"
#include "sim/Machine.h"
#include "support/Stats.h"

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace parcae::serve {

/// A latency service-level objective: percentile(\p Percentile) of total
/// request latency must stay at or below \p Target.
struct SloSpec {
  double Percentile = 95.0;
  sim::SimTime Target = 0; ///< 0 = no SLO
  bool enabled() const { return Target > 0; }
};

/// Everything needed to serve one class of requests.
struct RequestClassDesc {
  std::string Name;
  /// Builds the per-request region. Regions should reuse the class name
  /// so telemetry maps every request of a class onto one process track.
  std::function<rt::FlexibleRegion(const ServeRequest &)> MakeRegion;
  /// Iterations each request's region executes.
  std::uint64_t ItersPerRequest = 1;
  /// Configuration each per-request runner starts under; its
  /// totalThreads() is the class's threads-per-request.
  rt::RegionConfig Config;
  std::size_t QueueCapacity = 256;
  SloSpec Slo;
  /// Admission policy; DropTailAdmission when null.
  std::unique_ptr<AdmissionPolicy> Policy;
  /// Request coalescing; the default (MaxBatch = 1) dispatches every
  /// request as its own region, the pre-batching behavior.
  BatchPolicy Batch;
};

/// Open-loop request broker over one simulated machine.
class ServeLoop {
public:
  ServeLoop(sim::Machine &M, const rt::RuntimeCosts &Costs,
            rt::PlatformDaemon &Daemon);
  ~ServeLoop();
  ServeLoop(const ServeLoop &) = delete;
  ServeLoop &operator=(const ServeLoop &) = delete;

  /// Registers a request class (and its daemon tenant). Returns the
  /// class index used by every other accessor.
  unsigned addClass(RequestClassDesc Desc);

  /// Starts (or replaces) the open-loop arrival process for a class.
  void startArrivals(unsigned Idx, std::unique_ptr<ArrivalProcess> A);
  /// Stops generating arrivals for a class (in-flight work completes).
  void stopArrivals(unsigned Idx);

  /// Injects a single arrival now (tests drive admission directly).
  /// Returns false when the request was rejected.
  bool inject(unsigned Idx);

  /// Per-class serving statistics. Latency histograms are in
  /// microseconds of virtual time.
  struct ClassStats {
    std::uint64_t Arrived = 0;
    std::uint64_t Admitted = 0;
    std::uint64_t Rejected = 0; ///< refused at arrival (queue full)
    std::uint64_t Shed = 0;     ///< dropped at dispatch (deadline policy)
    std::uint64_t Completed = 0;
    std::uint64_t SloViolations = 0; ///< completions over the SLO target
    Histogram QueueWaitUs;
    Histogram ServiceUs;
    Histogram TotalUs;
  };

  unsigned numClasses() const { return static_cast<unsigned>(Classes.size()); }
  const std::string &className(unsigned Idx) const;
  const ClassStats &stats(unsigned Idx) const;
  /// Batch dispatch statistics (singleton dispatches count as batches
  /// of one, so Batches always equals regions spun up for the class).
  const BatchStats &batchStats(unsigned Idx) const;
  std::size_t queueDepth(unsigned Idx) const;
  /// In-flight batches (each holds one region/runner; a batch may carry
  /// up to BatchPolicy::MaxBatch member requests).
  unsigned inService(unsigned Idx) const;
  /// Member requests across all in-flight batches not yet completed.
  std::uint64_t inFlightRequests(unsigned Idx) const;
  /// The class's current daemon budget (threads).
  unsigned budgetOf(unsigned Idx) const;

  /// Latency at percentile \p P in seconds over the recent-completions
  /// window, floored by the current head-of-line queue wait so overload
  /// is visible even while completions are being shed; negative when the
  /// class has no signal yet.
  double recentLatencySec(unsigned Idx, double P) const;

  /// Percentile selections the recent-latency probe performed for this
  /// class: stays flat across repeated same-percentile probes between
  /// completions (regression tests pin this).
  std::uint64_t recentProbeSelections(unsigned Idx) const;

  /// Fires once per finished request (completed, shed, or rejected) —
  /// benches use it to bucket requests into load phases by arrival
  /// time. Rejected requests carry Rejected = true and no timestamps
  /// beyond ArrivedAt.
  std::function<void(const ServeRequest &)> OnRequestDone;

  // --- Drain / migration (failure-domain warnings) ---------------------

  /// In-flight request regions migrated off a doomed failure domain.
  std::uint64_t migrations() const { return Migrations; }
  /// Warning drains completed (all in-flight requests checkpointed,
  /// doomed cores offlined, everything resumed on the survivors).
  unsigned drainsCompleted() const { return DrainsCompleted; }
  /// True between a domain warning and the migration completing; new
  /// dispatches are held (arrivals still queue and admission still runs).
  bool draining() const { return DrainActive; }

private:
  class ClassTenant;

  /// One in-flight batch execution (a singleton batch when batching is
  /// off): the member requests share one region/runner fed by a counted
  /// source of ItersPerRequest x Members.size() iterations. Address-
  /// stable (held by unique pointer): the runner references Region and
  /// Source by address.
  struct InFlight {
    std::vector<std::shared_ptr<ServeRequest>> Members;
    /// Members already completed at an iteration watermark; members
    /// [Attributed, size) are still in flight. The last member is
    /// always attributed at the runner's completion, so a singleton
    /// batch behaves exactly like the pre-batching broker.
    std::size_t Attributed = 0;
    rt::FlexibleRegion Region;
    std::unique_ptr<rt::CountedWorkSource> Source;
    std::unique_ptr<rt::RegionRunner> Runner;

    explicit InFlight(rt::FlexibleRegion R) : Region(std::move(R)) {}
  };

  struct ClassState {
    RequestClassDesc Desc;
    std::unique_ptr<ClassTenant> Tenant;
    std::unique_ptr<ArrivalProcess> Arrivals;
    std::uint64_t ArrivalEpoch = 0; ///< invalidates stale arrival events
    std::deque<std::shared_ptr<ServeRequest>> Queue;
    std::vector<std::unique_ptr<InFlight>> Active;
    unsigned Budget = 1;
    ClassStats Stats;
    BatchStats BStats;
    /// (completion time, total latency in seconds) of recent
    /// completions: the SLO probe's window. Time-bounded so the signal
    /// decays when load changes — a count-bounded window would keep
    /// reading overload-era latencies long after recovery. mutable:
    /// probes prune expired entries from const accessors.
    static constexpr sim::SimTime RecentWindow = 150 * sim::MSec;
    static constexpr std::size_t RecentCap = 512;
    mutable std::deque<std::pair<sim::SimTime, double>> RecentSec;
    /// The last probe's answer: percentile RecentP of the window,
    /// selected (not sorted) from a scratch copy. Reused until the window
    /// changes or another percentile is asked for, so the arbiter's
    /// per-tick probes between completions cost nothing. mutable for the
    /// same reason as RecentSec.
    mutable std::vector<double> RecentScratch;
    mutable double RecentP = -1.0;
    mutable double RecentValue = 0.0;
    mutable bool RecentDirty = true;
    mutable std::uint64_t RecentSelections = 0;
  };

  void scheduleArrival(unsigned Idx);
  void arrive(unsigned Idx);
  /// Fills every free runner slot from the queue (work-conserving).
  void pump(unsigned Idx);
  /// Starts \p B as one region on a free slot and records its batch.
  void dispatch(unsigned Idx, std::vector<std::shared_ptr<ServeRequest>> B);
  /// Watermark attribution: completes every member whose iteration
  /// watermark the batch's retire count crossed (all but the last
  /// member, which completes with the runner).
  void onBatchProgress(unsigned Idx, InFlight *F, std::uint64_t Retired);
  /// Stamps one member completed now and feeds histograms, SLO
  /// accounting, the recent-latency window, and OnRequestDone.
  void completeMember(unsigned Idx, ServeRequest &R);
  void finish(unsigned Idx, InFlight *F);
  void finalize(unsigned Idx, const ServeRequest &R);
  unsigned slotsFor(const ClassState &C) const;
  void onDomainWarning(const sim::FailureDomainEvent &D);
  /// Every in-flight request quiesced: offline the doomed cores, resume
  /// each suspended runner on the survivors, release the dispatch hold.
  void finishDrain();

  sim::Machine &M;
  sim::Simulator &Sim;
  const rt::RuntimeCosts &Costs;
  rt::PlatformDaemon &Daemon;
  std::vector<std::unique_ptr<ClassState>> Classes;
  /// Runners whose OnComplete fired this event; destroyed one event
  /// later (a runner cannot be destroyed from inside its own callback).
  std::vector<std::unique_ptr<InFlight>> Reap;
  bool ReapScheduled = false;
  std::uint64_t NextId = 1;

  // Drain state. While DrainActive, dispatch is held; suspended runners
  // cannot complete, so the InFlight pointers collected here stay valid
  // until finishDrain() resumes them (a runner that completes before
  // quiescing reports a null checkpoint and is reaped normally).
  struct MigratingRequest {
    unsigned ClassIdx = 0;
    InFlight *F = nullptr;
    rt::RunnerCheckpoint CP;
  };
  bool DrainActive = false;
  unsigned DrainPending = 0; ///< checkpoint callbacks outstanding
  sim::SimTime DrainStartAt = 0;
  std::vector<unsigned> DrainCores;
  std::vector<MigratingRequest> DrainMigrations;
  /// Domain warnings announced while a drain was already active: run
  /// one at a time after finishDrain(), instead of silently dropping
  /// them (which would hard-offline the second domain under running
  /// work and abort its requests).
  std::deque<sim::FailureDomainEvent> PendingWarnings;
  std::uint64_t Migrations = 0;
  unsigned DrainsCompleted = 0;

  // Telemetry (null when tracing is off).
  telemetry::TraceRecorder *Tel = nullptr;
  std::uint32_t TelPid = 0;
  telemetry::Counter *CntAdmitted = nullptr;
  telemetry::Counter *CntRejected = nullptr;
  telemetry::Counter *CntShed = nullptr;
  telemetry::Counter *CntMigrated = nullptr;
};

} // namespace parcae::serve

#endif // PARCAE_SERVE_SERVELOOP_H
