//===- Machine.h - Simulated multicore machine ------------------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simulated shared-memory multicore: N cores, cooperative threads, an
/// OS-style ready queue with quantum-based time slicing and context-switch
/// costs. This substitutes for the paper's 8-core Xeon E5310 and 24-core
/// Xeon X7460 evaluation machines (the host container has a single CPU, so
/// real threads cannot express parallelism).
///
/// Threads are written as explicit state machines: a ThreadBody's resume()
/// is called whenever the thread holds a core and has finished its previous
/// action, and returns the next action — compute for some cycles, block on
/// a Waitable, or finish. Blocking is poll-style: a woken thread must
/// re-check its condition, so spurious wakeups are harmless.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_SIM_MACHINE_H
#define PARCAE_SIM_MACHINE_H

#include "sim/Faults.h"
#include "sim/Simulator.h"
#include "sim/Time.h"
#include "telemetry/Telemetry.h"

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace parcae::sim {

class Machine;
class SimThread;

/// A condition threads can block on. Wakeups are level-triggered from the
/// thread's point of view: the woken body re-checks its condition and may
/// block again.
///
/// Waiter entries carry the block epoch they were registered under
/// (SimThread::BlockSeq), so an entry left behind by a blockAny that was
/// satisfied through the *other* waitable is recognizably stale. That
/// makes notifyOne() lost-wakeup-safe: it skips stale entries until it
/// finds a thread that is still blocked on this registration, so a
/// single-consumer notification is never swallowed by a ghost.
///
/// Stale entries are dropped when their waitable next notifies, and also
/// when the waiter list is about to grow: a waitable that is rarely
/// notified (a bound that seldom changes, the second half of every
/// blockAny) would otherwise keep one ghost per block forever. Dropping
/// only invalid entries keeps the valid ones in order, so wake order is
/// unchanged.
class Waitable {
public:
  Waitable() = default;
  Waitable(const Waitable &) = delete;
  Waitable &operator=(const Waitable &) = delete;

  /// Wakes every validly waiting thread.
  void notifyAll();
  /// Wakes the longest-waiting valid thread, if any. Use when at most one
  /// waiter can make progress (e.g. one queue slot freed); waking the
  /// whole herd only to have all but one re-block inflates event counts.
  void notifyOne();
  bool hasWaiters() const { return !Waiters.empty(); }
  /// Registered entries, stale ones included.
  std::size_t size() const { return Waiters.size(); }

private:
  friend class Machine;
  struct Waiter {
    SimThread *T;
    std::uint64_t Seq; ///< T->BlockSeq at registration time
  };
  static bool valid(const Waiter &W);
  /// Registers \p T under its current block epoch, compacting stale
  /// entries first when the list is full.
  void add(SimThread *T);
  std::vector<Waiter> Waiters;
};

/// What a thread does next, as reported by ThreadBody::resume().
struct Action {
  enum class Kind { Compute, Block, Finish };
  Kind K;
  SimTime Cycles = 0;
  Waitable *W = nullptr;
  /// Optional second wakeup source (e.g. "new work OR pause signal").
  Waitable *W2 = nullptr;
  /// Cores this compute occupies (a gang: the thread's own core plus
  /// Gang-1 reserved helpers, modelling an inner thread team).
  unsigned Gang = 1;

  static Action compute(SimTime Cycles) {
    return Action{Kind::Compute, Cycles, nullptr, nullptr, 1};
  }
  /// Occupies \p Cores cores for \p Cycles; blocks until that many cores
  /// are simultaneously available.
  static Action gangCompute(unsigned Cores, SimTime Cycles) {
    return Action{Kind::Compute, Cycles, nullptr, nullptr, Cores};
  }
  static Action block(Waitable &W) {
    return Action{Kind::Block, 0, &W, nullptr, 1};
  }
  static Action blockAny(Waitable &W, Waitable &W2) {
    return Action{Kind::Block, 0, &W, &W2, 1};
  }
  static Action finish() {
    return Action{Kind::Finish, 0, nullptr, nullptr, 1};
  }
};

/// The behaviour of a simulated thread.
class ThreadBody {
public:
  virtual ~ThreadBody();
  /// Called when the thread holds a core and its previous action completed.
  /// Returns the next action.
  virtual Action resume(Machine &M, SimThread &T) = 0;
};

/// Stranded: the thread's core went offline mid-slice; it holds no core
/// and cannot run again until Machine::rescueStranded() re-queues it —
/// the genuine stall a dead core causes, which the Morta watchdog must
/// detect and repair.
enum class ThreadState { Ready, Running, Blocked, Stranded, Finished };

/// One simulated software thread.
///
/// The machine recycles thread records: once a finished (or terminated)
/// thread can no longer be reached, its body is destroyed and the record
/// is reused by a later spawn(). A SimThread pointer is therefore only
/// meaningful while the thread is alive and during the event in which it
/// finished; id() is never reused.
class SimThread {
public:
  const std::string &name() const { return Name; }
  /// Spawn-order number, unique over the machine's lifetime.
  std::uint64_t id() const { return Id; }
  ThreadState state() const { return State; }
  Machine &machine() const { return *M; }
  /// Signalled (notifyAll) when the thread finishes.
  Waitable &exitEvent() { return ExitEvent; }

private:
  friend class Machine;
  friend class Waitable;
  explicit SimThread(Machine &M) : M(&M) {}
  /// Starts a new incarnation in this record: a fresh thread, except that
  /// BlockSeq carries on, so waiter entries a previous incarnation left
  /// behind can never validate against this one.
  void reincarnate(std::uint64_t NewId, std::string NewName,
                   std::unique_ptr<ThreadBody> NewBody);

  Machine *M;
  std::uint64_t Id = 0;
  std::string Name;
  std::unique_ptr<ThreadBody> Body;
  Waitable ExitEvent;
  ThreadState State = ThreadState::Ready;
  /// Incremented each time the thread blocks; waiter entries older than
  /// the current value are stale (see Waitable). Monotone across the
  /// record's incarnations.
  std::uint64_t BlockSeq = 0;
  SimTime RemainingBurst = 0;
  int CoreIdx = -1;
  unsigned GangHold = 0; ///< helper cores reserved for the current burst
  // A gang compute that could not reserve its helpers yet; retried when
  // the thread next gets a core (resume() must not be re-invoked).
  unsigned PendingGang = 0;
  SimTime PendingGangCycles = 0;
};

/// Costs of the simulated OS scheduler.
struct MachineConfig {
  /// Scheduling quantum; slices never exceed this.
  SimTime Quantum = 4 * MSec;
  /// Core-occupancy cost paid when a core switches to a different thread.
  SimTime CtxSwitchCost = 5 * USec;
  /// Additional core-occupancy cost on a switch, modelling the incoming
  /// thread's cold-cache refill. Application-dependent: near zero for
  /// compute-bound code, multiple milliseconds for memory-bound code
  /// whose working set exceeds its cache share under oversubscription
  /// (how dedup loses throughput under OS load balancing, Table 8.5).
  SimTime CacheRefillCost = 0;

  // --- Slow-core avoidance (straggler-aware placement) -----------------

  /// When on, dispatch prefers cores whose observed service rate is within
  /// Machine::SlowCoreThreshold of nominal; a penalized core becomes
  /// last-resort rather than an equal peer. Off by default: legacy
  /// scenarios keep byte-identical schedules.
  bool SlowCoreAvoidance = false;
};

/// The simulated multicore machine.
class Machine {
public:
  Machine(Simulator &Sim, unsigned NumCores, MachineConfig Cfg = {});
  ~Machine();
  Machine(const Machine &) = delete;
  Machine &operator=(const Machine &) = delete;

  Simulator &sim() { return Sim; }
  unsigned numCores() const { return static_cast<unsigned>(Cores.size()); }

  /// Creates a thread; it becomes ready immediately. The machine owns it.
  SimThread *spawn(std::string Name, std::unique_ptr<ThreadBody> Body);

  /// Number of cores currently occupied (running a slice or reserved as
  /// gang helpers).
  unsigned busyCores() const { return BusyCount; }

  /// Integral over time of the number of busy cores (core-nanoseconds).
  SimTime busyCoreTime() const;

  /// Number of spawned threads that have not finished.
  unsigned threadsAlive() const { return AliveCount; }

  /// Thread records held: live threads, finished ones whose body is not
  /// yet released, and free records awaiting reuse. Follows the peak
  /// number of threads alive at once, not the number ever spawned.
  std::size_t threadRecords() const { return Threads.size(); }

  // --- Fault model (sim/Faults.h) --------------------------------------

  /// Installs a fault plan: offline and domain events (and each domain's
  /// repair after its downtime) are scheduled on the simulator, straggler
  /// windows dilate slices, and workers query transient faults via
  /// transientsOf(). Call before the run starts.
  void installFaultPlan(FaultPlan Plan);
  const FaultPlan *faultPlan() const { return Plan ? &*Plan : nullptr; }

  /// Cores still operational (numCores() minus offlined ones).
  unsigned onlineCores() const { return OnlineCount; }

  /// Permanently fails a core. A thread running on it is stranded (state
  /// ThreadState::Stranded) with its slice's completed work credited; it
  /// stays stranded until rescueStranded().
  void offlineCore(unsigned CoreIdx);

  /// Fails every core of a domain atomically at the current time (one
  /// burst, one topology notification after the last member).
  void offlineDomain(const FailureDomainEvent &D);

  /// Registers a listener fired when a failure domain with a Warning
  /// lead time announces itself (at D.At - D.Warning): the runtime's
  /// window to checkpoint and migrate regions off the doomed cores.
  /// Listeners are multicast in registration order.
  void addDomainWarningListener(
      std::function<void(const FailureDomainEvent &)> L) {
    DomainWarningListeners.push_back(std::move(L));
  }

  /// Repairs a failed core: re-admits it into slice scheduling and the
  /// capacity counts. A no-op on a core that is already online.
  void onlineCore(unsigned CoreIdx);

  /// Repairs applied so far (onlineCore calls that re-admitted a core).
  unsigned repairsApplied() const { return RepairedCount; }

  /// Virtual time of the most recent onlineCore() (watchdog growth
  /// detection latency is measured against this).
  SimTime lastOnlineAt() const { return LastOnlineAt; }

  /// Threads currently stranded on failed cores.
  unsigned strandedThreads() const { return StrandedCount; }

  /// Re-queues every stranded thread on the surviving cores, in spawn
  /// order, resuming the interrupted burst where it stopped. Returns how
  /// many were rescued.
  unsigned rescueStranded();

  /// Kills a thread in any state: its core (if running) is freed, gang
  /// reservations are released, and it counts as finished. Used by the
  /// abortive recovery path that cuts short in-flight iterations.
  void terminate(SimThread *T);

  /// Virtual time of the most recent offlineCore() (watchdog detection
  /// latency is measured against this).
  SimTime lastOfflineAt() const { return LastOfflineAt; }

  /// Transient-fault query for workers: \p Task's planned transient
  /// faults, or null when it has none (or no plan is installed). The
  /// table lives as long as the machine.
  const TransientFaults *transientsOf(const std::string &Task) const {
    return Plan ? Plan->transientsOf(Task) : nullptr;
  }

  /// Consuming wedge query: true the first time it is called for a
  /// (\p Task, \p Seq) the plan wedges, false ever after. Consumption is
  /// what lets the replacement worker (or an abortive-recovery replay)
  /// re-execute the iteration without wedging again.
  bool takeWedge(const std::string &Task, std::uint64_t Seq);

  // --- Slow-core avoidance (per-core effective service rate) -----------

  /// Observed effective service rate of \p CoreIdx: an EWMA over finished
  /// slices of work-cycles-per-wall-cycle, so 1.0 means nominal and 0.25
  /// means the core runs 4x dilated. An estimate older than
  /// RateSampleTtl reads as 1.0 (the core is re-probed).
  double coreRate(unsigned CoreIdx) const;

  /// True when slow-core avoidance is on and \p CoreIdx is online with an
  /// effective rate below SlowCoreThreshold.
  bool corePenalized(unsigned CoreIdx) const;

  /// Online cores currently penalized (always 0 with avoidance off).
  unsigned penalizedCores() const;

  /// Minimum effective rate across online cores (1.0 on an idle or
  /// healthy machine); traced as the `machine.core_rate` gauge.
  double minCoreRate() const;

private:
  friend class Waitable;

  static constexpr std::uint64_t NoThread = ~std::uint64_t{0};

  /// A core whose effective rate (1.0 = nominal) falls below this fraction
  /// is penalized in placement.
  static constexpr double SlowCoreThreshold = 0.75;
  /// EWMA time constant for per-core rate samples: one slice's weight is
  /// proportional to its wall time, saturating at RateTau.
  static constexpr SimTime RateTau = 1 * MSec;
  /// A rate estimate older than this reads as nominal again, so a slow
  /// core that went idle (nothing scheduled on it to re-measure) is
  /// re-probed instead of shunned forever.
  static constexpr SimTime RateSampleTtl = 15 * MSec;

  struct Core {
    SimThread *Running = nullptr;
    /// id() of the thread that last ran here (affinity and switch cost).
    /// An id, not a pointer: thread records are reused.
    std::uint64_t LastThreadId = NoThread;
    bool Offline = false;
    /// Slice epoch: incremented whenever the in-flight end-of-slice event
    /// must be cancelled (offline strands the runner, terminate kills it).
    /// The scheduled endSlice carries the epoch it was armed under and
    /// no-ops on mismatch — scheduled events cannot be unscheduled.
    std::uint64_t Epoch = 0;
    // Metadata of the in-flight slice, for crediting partial work when a
    // fault interrupts it.
    SimTime SliceAt = 0;       ///< absolute start time
    SimTime SliceOverhead = 0; ///< switch overhead before work begins
    SimTime SliceWork = 0;     ///< work cycles this slice covers
    double SliceDilation = 1.0;
    /// EWMA of observed service rate (work/wall, 1.0 = nominal), updated
    /// at each slice end; stale past RateSampleTtl (see coreRate()).
    double Rate = 1.0;
    SimTime RateSampledAt = 0;
    /// Placement-penalty state as of the last rate sample, kept only to
    /// emit core_penalized / core_recovered transitions exactly once.
    bool PenalizedMark = false;
  };

  void wake(SimThread *T);
  void dispatch();
  void tryAssign();
  /// Folds one finished slice's observed rate into the core's EWMA and
  /// emits penalty-transition telemetry.
  void noteSliceRate(unsigned CoreIdx);
  void startSlice(unsigned CoreIdx, SimThread *T);
  bool tryReserveGang(SimThread *T, unsigned Gang, SimTime Cycles);
  void endSlice(unsigned CoreIdx, SimThread *T, SimTime SliceLen,
                std::uint64_t Epoch);
  void releaseGangHold(SimThread *T);
  /// Queues a finished or terminated thread for release.
  void retire(SimThread *T);
  /// Releases the bodies of threads retired before the current event and
  /// puts their records on the free list. The event of death is exempt,
  /// because a body may be retired from inside its own resume().
  void releaseRetired();
  void setBusyCount(unsigned N);
  void emitBusySample();
  /// Records the capacity timeline: an online_cores counter sample at
  /// every topology change (both directions).
  void emitCapacitySample();

  Simulator &Sim;
  MachineConfig Cfg;
  std::vector<Core> Cores;
  std::deque<SimThread *> ReadyQueue;
  std::vector<std::unique_ptr<SimThread>> Threads;
  /// Dead threads in order of death, each with the event it died in.
  std::vector<std::pair<SimThread *, std::uint64_t>> Retired;
  std::vector<SimThread *> FreeThreads;
  std::uint64_t NextThreadId = 0;
  unsigned BusyCount = 0;    ///< occupied cores: running + gang-reserved
  unsigned Reserved = 0;     ///< gang helper cores currently reserved
  Waitable GangAvail;        ///< signalled when occupied cores decrease
  unsigned AliveCount = 0;
  unsigned OnlineCount = 0;  ///< cores not offlined by a fault
  unsigned StrandedCount = 0;
  unsigned RepairedCount = 0; ///< cores re-onlined by repair events
  SimTime LastOfflineAt = 0;
  SimTime LastOnlineAt = 0;
  std::optional<FaultPlan> Plan;
  std::vector<std::function<void(const FailureDomainEvent &)>>
      DomainWarningListeners;
  /// Wedges already consumed by takeWedge (each fires at most once).
  std::set<std::pair<std::string, std::uint64_t>> FiredWedges;
  bool InDispatch = false;
  bool DispatchPending = false;
  // Busy-core-time integral bookkeeping.
  mutable SimTime BusyIntegral = 0;
  mutable SimTime BusyIntegralLast = 0;
  // Telemetry (null when tracing is off; every emission is one pointer
  // test on the hot path then).
  telemetry::TraceRecorder *Tel = nullptr;
  std::uint32_t TelPid = 0;
  telemetry::Counter *CtxSwitchMetric = nullptr;
  telemetry::Counter *SliceMetric = nullptr;
  telemetry::Gauge *CoreRateMetric = nullptr;
  /// Open core-occupancy span per core: consecutive slices of one thread
  /// coalesce into a single span (a trace event per quantum would flood).
  std::vector<SimThread *> TelCoreSpan;
  /// Last busy_cores value emitted; sampled at settled dispatch points
  /// and rate-limited to one sample per gate interval of virtual time.
  unsigned TelBusyEmitted = ~0u;
  SimTime TelBusyLastTs = 0;
  bool TelBusyFlushArmed = false;
};

} // namespace parcae::sim

#endif // PARCAE_SIM_MACHINE_H
