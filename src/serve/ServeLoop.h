//===- ServeLoop.h - Open-loop request broker -------------------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer's request broker: runs the admitted requests of each
/// registered RequestClass on flexible-region executions, tracks
/// queue/service/total latency per request, and registers each class as a
/// PlatformTenant so the platform daemon arbitrates thread budgets — and
/// latency SLOs — across classes.
///
/// Flow per class:
///
///   ArrivalProcess -> admission (bounded queue, pluggable policy)
///                  -> work-conserving dispatch: whenever the class's
///                     daemon grant has room for another runner, the
///                     queued backlog (up to BatchPolicy::MaxBatch
///                     requests) starts at once as one shared region;
///                     runner widths fit the grant exactly (Config-wide,
///                     the last one absorbing the remainder, one narrower
///                     runner on a grant below Config)
///                  -> warm refill (batching classes only): a runner whose
///                     work runs dry while requests queue takes the next
///                     batch into the same region, so spin-up is paid once
///                     per runner, not once per batch
///                  -> steal (batching classes only): a runner whose work
///                     runs dry with nothing queued takes the oldest half
///                     (rounded up) of the unclaimed members of the
///                     sibling runner holding the class's oldest
///                     unclaimed member, so members already pulled into
///                     one runner start in arrival order instead of
///                     waiting behind it
///                  -> park and wake (batching classes only): a runner
///                     whose work runs dry with nothing queued and
///                     nothing to steal parks instead of draining. Its
///                     workers block on its held source, its threads go
///                     back to the grant, and the next dispatch of its
///                     exact width wakes it instead of building a region
///                  -> completion stamps + histograms + SLO window,
///                     attributed per request at iteration watermarks.
///
/// Every admitted request is therefore queued, in flight, completed or
/// shed: Admitted - Completed - Shed == queueDepth + inFlightRequests.
///
/// A domain warning first closes every parked runner (it completes with
/// no member and is reaped), so none wakes onto a doomed domain. A
/// ServeLoop may be destroyed while runners are parked: their workers
/// then stay blocked in the Machine, on a source destroyed with the loop,
/// and nothing is left that can wake them.
///
/// The class's tenant reports its live thread demand (threads its
/// runners hold + Config-wide runners for the queue) to the daemon and
/// exposes its windowed SLO latency; the daemon's SLO pass then moves
/// budget toward violating classes under overload. An arrival that has
/// to queue asks the daemon to re-partition at once
/// (PlatformDaemon::reportDemand) instead of waiting for its next tick.
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
#include "support/RankedSamples.h"
#include "support/Stats.h"

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
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
  /// Builds a runner's region (called with its first request). Regions
  /// should reuse the class name so telemetry maps every request of a
  /// class onto one process track.
  std::function<rt::FlexibleRegion(const ServeRequest &)> MakeRegion;
  /// Iterations each request takes on its runner.
  std::uint64_t ItersPerRequest = 1;
  /// Configuration each per-request runner starts under. It must have
  /// exactly one task (every class in the repo is DoAny<2>): its DoP is
  /// the class's full runner width, which dispatch narrows or widens so
  /// the class's runners fill its daemon grant exactly.
  rt::RegionConfig Config;
  std::size_t QueueCapacity = 256;
  SloSpec Slo;
  /// Admission policy; DropTailAdmission when null.
  std::unique_ptr<AdmissionPolicy> Policy;
  /// Request coalescing, warm refill, stealing and parking; the default
  /// (MaxBatch = 1) dispatches every request as its own region, the
  /// pre-batching behavior.
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

  const ClassStats &stats(unsigned Idx) const;
  /// Batch statistics. Singleton dispatches count as batches of one, so
  /// Batches always equals regions spun up for the class; batches a warm
  /// or parked runner took in place count in InPlaceBatches instead, and
  /// members a dry runner stole count in Steals and StolenRequests only.
  const BatchStats &batchStats(unsigned Idx) const;
  std::size_t queueDepth(unsigned Idx) const;
  /// In-flight runners, each holding its threads and one region (a
  /// batching class's runner carries up to BatchPolicy::MaxBatch member
  /// requests per batch it took). Parked runners are not counted: a
  /// drain loop on this accessor ends once every request is finished.
  unsigned inService(unsigned Idx) const;
  /// Parked runners: idle, holding no thread, waiting for a dispatch of
  /// their width.
  unsigned parkedRunners(unsigned Idx) const;
  /// Member requests not yet completed across all runners, parked ones
  /// included (a runner parks while its last member may still run).
  std::uint64_t inFlightRequests(unsigned Idx) const;
  /// The class's current daemon budget (threads).
  unsigned budgetOf(unsigned Idx) const;
  /// Threads the class's in-flight runners were started with: at most
  /// the budget, unless the daemon shrank it under running work. Parked
  /// runners hold none.
  unsigned threadsHeld(unsigned Idx) const;

  /// Latency at percentile \p P in seconds over the recent-completions
  /// window, floored by the current head-of-line queue wait so overload
  /// is visible even while completions are being shed; negative when the
  /// class has no signal yet.
  double recentLatencySec(unsigned Idx, double P) const;

  /// Fires once per finished request (completed, shed, or rejected) —
  /// benches use it to bucket requests into load phases by arrival
  /// time. Rejected requests carry Rejected = true and no timestamps
  /// beyond ArrivedAt. It may fire from inside a runner's own step, at
  /// that step's virtual instant: a watermark completion, or a shed or
  /// completion during a warm refill (a worker's pull).
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

  struct InFlight;
  /// Runners in one state, in the order they entered it. An InFlight
  /// keeps its own node (Pos), so moving it between lists is a splice.
  using RunnerList = std::list<std::unique_ptr<InFlight>>;

  /// One in-flight runner (a singleton batch when batching is off): the
  /// member requests share one region/runner fed by a counted source of
  /// ItersPerRequest iterations per member it holds or has completed. A
  /// batching class's runner appends each batch it takes in place
  /// (refill(), wake()) and each run of members it steals, and gives up
  /// its unclaimed members to a thief (steal()). Address-stable (held by
  /// unique pointer): the runner references Region and Source by address.
  struct InFlight {
    /// The unfinished members in iteration order: each member's
    /// ItersPerRequest iterations follow its predecessor's. A member is
    /// released as soon as it is attributed, so a long-lived warm runner
    /// holds only the requests it still serves.
    std::deque<std::shared_ptr<ServeRequest>> Members;
    /// Members completed and released so far: the runner's k-th member
    /// overall (k from 0) completes once it retired (k + 1) x
    /// ItersPerRequest iterations. An active runner's last member is
    /// attributed at the runner's completion, so a singleton batch
    /// behaves exactly like the pre-batching broker; a parked runner,
    /// which never completes, attributes it at its watermark.
    std::uint64_t Attributed = 0;
    rt::FlexibleRegion Region;
    std::unique_ptr<rt::CountedWorkSource> Source;
    std::unique_ptr<rt::RegionRunner> Runner;
    unsigned Threads = 0; ///< the runner's width (its one task's DoP)
    /// Active: in ClassState::Active, its Threads counted in Held.
    /// Parked: in the Parked bucket of its width, its source held.
    /// Closing: parked until a domain warning released it; in Closing
    /// until it completes.
    enum class Phase { Active, Parked, Closing } State = Phase::Active;
    RunnerList::iterator Pos; ///< this runner's node in its state's list
    std::uint64_t Serial = 0; ///< dispatch order over the loop's runners

    explicit InFlight(rt::FlexibleRegion R) : Region(std::move(R)) {}
  };

  struct ClassState {
    RequestClassDesc Desc;
    std::unique_ptr<ClassTenant> Tenant;
    std::unique_ptr<ArrivalProcess> Arrivals;
    std::uint64_t ArrivalEpoch = 0; ///< invalidates stale arrival events
    std::deque<std::shared_ptr<ServeRequest>> Queue;
    RunnerList Active;
    /// Parked runners indexed by width, so a wake finds one of exactly
    /// the width pump would build without a scan; each bucket oldest
    /// (lowest Serial) first, the one pump wakes.
    std::vector<RunnerList> Parked;
    RunnerList Closing;
    unsigned Budget = 1;
    unsigned Held = 0; ///< sum of Active runners' Threads
    ClassStats Stats;
    BatchStats BStats;
    /// (completion time, key of its total latency in RecentRanked) of
    /// recent completions, oldest first: the SLO probe's window.
    /// Time-bounded so the signal decays when load changes — a
    /// count-bounded window would keep reading overload-era latencies
    /// long after recovery. mutable: probes prune expired entries from
    /// const accessors.
    static constexpr sim::SimTime RecentWindow = 150 * sim::MSec;
    static constexpr std::size_t RecentCap = 512;
    mutable std::deque<std::pair<sim::SimTime, RankedSamples::Key>> RecentSec;
    /// The window's latencies in seconds, ranked: a probe reads its
    /// percentile in O(log n).
    mutable RankedSamples RecentRanked;

    /// Drops the oldest completion from the window.
    void dropOldestRecent() const {
      RecentRanked.erase(RecentSec.front().second);
      RecentSec.pop_front();
    }
  };

  void scheduleArrival(unsigned Idx);
  void arrive(unsigned Idx);
  /// Starts queued requests on the grant's free threads
  /// (work-conserving), fitting runner widths to the grant.
  void pump(unsigned Idx);
  /// Moves the next batch off the class queue onto \p Out: up to
  /// MaxBatch requests, shedding stale ones on the way (shedAtDispatch),
  /// each stamped started now. Returns how many it appended.
  std::size_t takeBatch(unsigned Idx,
                        std::deque<std::shared_ptr<ServeRequest>> &Out);
  /// Counts a batch of \p Size members, dispatched on a new region or
  /// taken \p InPlace by a warm runner, in the class's BatchStats.
  void recordBatch(unsigned Idx, std::size_t Size, bool InPlace);
  /// Starts \p B as one region \p Width threads wide and records its
  /// batch.
  void dispatch(unsigned Idx, std::deque<std::shared_ptr<ServeRequest>> B,
                unsigned Width);
  /// The refill hook of a batching class's runner, called when its work
  /// runs dry: takes the next queued batch into the same region, or
  /// steals when there is none, or parks the runner when there is
  /// nothing to steal either, unless the runner must drain instead so its
  /// threads can be re-fitted.
  void refill(unsigned Idx, InFlight *F);
  /// Moves the oldest half, rounded up, of the unclaimed members of the
  /// active runner holding the class's oldest unclaimed member (the first
  /// in Active on a tie) onto \p F, iterations included. Returns false
  /// when no active runner has an unclaimed member.
  bool steal(unsigned Idx, InFlight *F);
  /// Holds \p F's source and moves it, and its threads, out of service.
  void park(unsigned Idx, InFlight *F);
  /// Gives the parked \p F the next queued batch and puts it back in
  /// service; it stays parked if every request popped was shed.
  void wake(unsigned Idx, InFlight &F);
  /// Watermark attribution: completes every member whose iteration
  /// watermark the runner's retire count crossed (an active runner's
  /// last member excepted: it completes with the runner).
  void onBatchProgress(unsigned Idx, InFlight *F, std::uint64_t Retired);
  /// Stamps one member completed now and feeds histograms, SLO
  /// accounting, the recent-latency window, and OnRequestDone.
  void completeMember(unsigned Idx, ServeRequest &R);
  void finish(unsigned Idx, InFlight *F);
  void finalize(unsigned Idx, const ServeRequest &R);
  void onDomainWarning(const sim::FailureDomainEvent &D);
  /// One runner the drain waits for (a checkpoint or a closed parked
  /// runner) is done; the last one finishes the drain.
  void drainStepDone();
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
  RunnerList Reap;
  bool ReapScheduled = false;
  std::uint64_t NextId = 1;
  std::uint64_t NextSerial = 0;

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
  /// Checkpoint callbacks and closed parked runners outstanding.
  unsigned DrainPending = 0;
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
