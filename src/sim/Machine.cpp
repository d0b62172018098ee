//===- Machine.cpp - Simulated multicore machine ---------------------------===//

#include "sim/Machine.h"

#include <algorithm>

using namespace parcae::sim;

ThreadBody::~ThreadBody() = default;

bool Waitable::valid(const Waiter &W) {
  return W.T->State == ThreadState::Blocked && W.T->BlockSeq == W.Seq;
}

void Waitable::add(SimThread *T) {
  if (Waiters.size() == Waiters.capacity()) {
    std::erase_if(Waiters, [](const Waiter &W) { return !valid(W); });
    // Still more than half full: grow now, so the next compaction is at
    // least as many adds away as this one scanned (amortized O(1)).
    if (2 * Waiters.size() > Waiters.capacity())
      Waiters.reserve(2 * Waiters.capacity());
  }
  Waiters.push_back({T, T->BlockSeq});
}

void Waitable::notifyAll() {
  std::vector<Waiter> Woken;
  Woken.swap(Waiters);
  for (const Waiter &W : Woken)
    if (valid(W))
      W.T->machine().wake(W.T);
}

void Waitable::notifyOne() {
  // Discard stale entries until a thread still blocked on this
  // registration is found; wake only it. Entries from a satisfied
  // blockAny would otherwise absorb the single notification.
  while (!Waiters.empty()) {
    Waiter W = Waiters.front();
    Waiters.erase(Waiters.begin());
    if (valid(W)) {
      W.T->machine().wake(W.T);
      return;
    }
  }
}

Machine::Machine(Simulator &Sim, unsigned NumCores, MachineConfig Cfg)
    : Sim(Sim), Cfg(Cfg), Cores(NumCores), OnlineCount(NumCores) {
  assert(NumCores > 0 && "machine needs at least one core");
  Tel = telemetry::recorder();
  if (Tel) {
    Tel->bindClock(Sim);
    TelPid = Tel->processFor("machine");
    for (unsigned I = 0; I < NumCores; ++I)
      Tel->nameThread(TelPid, I, "core " + std::to_string(I));
    CtxSwitchMetric = &Tel->metrics().counter("machine.ctx_switches");
    SliceMetric = &Tel->metrics().counter("machine.slices");
    CoreRateMetric = &Tel->metrics().gauge("machine.core_rate");
    CoreRateMetric->set(1.0);
    TelCoreSpan.assign(NumCores, nullptr);
  }
}

Machine::~Machine() {
  // Surface the simulator's event count in the metrics dump, and freeze
  // the recorder's time. Done here, not in TraceFile's destructor: the
  // machine is destroyed while its simulator is still alive, whereas the
  // recorder outlives both and stamps the dump with its own now().
  if (Tel) {
    Tel->captureSimEvents(Sim);
    Tel->releaseClock(Sim);
  }
}

void SimThread::reincarnate(std::uint64_t NewId, std::string NewName,
                            std::unique_ptr<ThreadBody> NewBody) {
  Id = NewId;
  Name = std::move(NewName);
  Body = std::move(NewBody);
  State = ThreadState::Ready;
  RemainingBurst = 0;
  CoreIdx = -1;
  GangHold = 0;
  PendingGang = 0;
  PendingGangCycles = 0;
}

SimThread *Machine::spawn(std::string Name, std::unique_ptr<ThreadBody> Body) {
  assert(Body && "spawn() requires a body");
  releaseRetired();
  SimThread *T;
  if (FreeThreads.empty()) {
    Threads.push_back(std::unique_ptr<SimThread>(new SimThread(*this)));
    T = Threads.back().get();
  } else {
    T = FreeThreads.back();
    FreeThreads.pop_back();
  }
  T->reincarnate(NextThreadId++, std::move(Name), std::move(Body));
  ++AliveCount;
  ReadyQueue.push_back(T);
  dispatch();
  return T;
}

void Machine::retire(SimThread *T) {
  Retired.emplace_back(T, Sim.eventsProcessed());
}

void Machine::releaseRetired() {
  std::uint64_t Event = Sim.eventsProcessed();
  std::size_t N = 0;
  // Retired is in order of death, so this event's deaths are a suffix.
  for (; N < Retired.size() && Retired[N].second != Event; ++N) {
    SimThread *T = Retired[N].first;
    assert(T->State == ThreadState::Finished && !T->ExitEvent.hasWaiters());
    T->Body.reset();
    FreeThreads.push_back(T);
  }
  Retired.erase(Retired.begin(),
                Retired.begin() + static_cast<std::ptrdiff_t>(N));
}

SimTime Machine::busyCoreTime() const {
  // Fold in the interval since the last busy-count change.
  BusyIntegral += static_cast<SimTime>(BusyCount) *
                  (Sim.now() - BusyIntegralLast);
  BusyIntegralLast = Sim.now();
  return BusyIntegral;
}

void Machine::setBusyCount(unsigned N) {
  busyCoreTime(); // settle the integral at the old count
  BusyCount = N;
}

void Machine::wake(SimThread *T) {
  if (T->State != ThreadState::Blocked)
    return; // already woken through another waitable
  T->State = ThreadState::Ready;
  ReadyQueue.push_back(T);
  dispatch();
}

void Machine::dispatch() {
  if (InDispatch) {
    DispatchPending = true;
    return;
  }
  InDispatch = true;
  do {
    DispatchPending = false;
    tryAssign();
  } while (DispatchPending);
  InDispatch = false;
  // The busy count is sampled here, once it has settled: the transient
  // dip-and-recover of an end-slice/start-slice pair at one timestamp
  // would otherwise flood the trace with a counter event per quantum.
  if (Tel)
    emitBusySample();
}

void Machine::emitBusySample() {
  // One sample per gate interval of virtual time: workers blocking
  // between iterations make the settled count oscillate far faster than
  // any viewer needs. A suppressed change arms a one-shot flush, so the
  // series still lands on the final value once the burst passes.
  static constexpr SimTime Gate = 20 * USec;
  if (BusyCount == TelBusyEmitted)
    return;
  SimTime Now = Sim.now();
  if (TelBusyEmitted != ~0u && Now < TelBusyLastTs + Gate) {
    if (!TelBusyFlushArmed) {
      TelBusyFlushArmed = true;
      Sim.schedule(TelBusyLastTs + Gate - Now, [this] {
        TelBusyFlushArmed = false;
        emitBusySample();
      });
    }
    return;
  }
  TelBusyEmitted = BusyCount;
  TelBusyLastTs = Now;
  Tel->counter(TelPid, 0, "machine", "busy_cores", BusyCount);
}

void Machine::tryAssign() {
  while (!ReadyQueue.empty()) {
    SimThread *T = ReadyQueue.front();
    // Gang reservations keep some idle cores unavailable; offlined cores
    // no longer count as capacity at all.
    if (BusyCount >= OnlineCount)
      return;
    // Find a free core, preferring the one the thread last ran on so that
    // a thread running alone never pays switch costs. With slow-core
    // avoidance on, a core observed running dilated is last-resort: any
    // healthy core outranks it (even at the price of a context switch),
    // and affinity only breaks ties within each class. Penalized cores
    // still run work when nothing else is free — placement stays
    // work-conserving, and using them is also what re-probes their rate.
    int Free = -1;
    int FreeRank = 4;
    for (unsigned I = 0; I < Cores.size(); ++I) {
      if (Cores[I].Running || Cores[I].Offline)
        continue;
      bool Affine = Cores[I].LastThreadId == T->Id;
      int Rank = (Cfg.SlowCoreAvoidance && corePenalized(I))
                     ? (Affine ? 2 : 3)
                     : (Affine ? 0 : 1);
      if (Rank < FreeRank) {
        FreeRank = Rank;
        Free = static_cast<int>(I);
        if (Rank == 0)
          break;
      }
    }
    if (Free < 0)
      return; // all cores busy
    ReadyQueue.pop_front();
    startSlice(static_cast<unsigned>(Free), T);
  }
}

void Machine::startSlice(unsigned CoreIdx, SimThread *T) {
  Core &C = Cores[CoreIdx];
  assert(!C.Running && "core already busy");
  assert(T->State == ThreadState::Ready && "thread not ready");

  // A gang compute that previously failed to reserve helpers is retried
  // before asking the body for anything new.
  if (T->PendingGang > 0 && T->RemainingBurst == 0) {
    if (!tryReserveGang(T, T->PendingGang, T->PendingGangCycles))
      return;
    T->PendingGang = 0;
  }

  // If the previous burst is exhausted, ask the body for the next action.
  // Zero-cost computes are folded into the loop; a livelock guard catches
  // bodies that spin without consuming time.
  unsigned Spins = 0;
  while (T->RemainingBurst == 0) {
    Action A = T->Body->resume(*this, *T);
    switch (A.K) {
    case Action::Kind::Compute:
      if (A.Gang > 1) {
        if (!tryReserveGang(T, A.Gang, A.Cycles)) {
          T->PendingGang = A.Gang;
          T->PendingGangCycles = A.Cycles;
          return;
        }
      } else {
        T->RemainingBurst = A.Cycles;
      }
      if (A.Cycles == 0 && ++Spins > 1000000)
        assert(false && "thread body livelock: endless zero-cost computes");
      break;
    case Action::Kind::Block:
      assert(A.W && "block action requires a waitable");
      T->State = ThreadState::Blocked;
      // A thread may sit in several waiter lists; wake() is idempotent and
      // entries from earlier block epochs are discarded when their
      // waitable next notifies or its list next grows.
      ++T->BlockSeq;
      A.W->add(T);
      if (A.W2)
        A.W2->add(T);
      return; // core stays free; caller keeps assigning
    case Action::Kind::Finish:
      T->State = ThreadState::Finished;
      assert(AliveCount > 0);
      --AliveCount;
      if (Tel) {
        // Close the thread's occupancy span; it will never run again.
        for (unsigned I = 0; I < TelCoreSpan.size(); ++I)
          if (TelCoreSpan[I] == T) {
            Tel->end(TelPid, I, "core", T->name());
            TelCoreSpan[I] = nullptr;
          }
      }
      T->ExitEvent.notifyAll();
      retire(T);
      return;
    }
  }

  T->State = ThreadState::Running;
  T->CoreIdx = static_cast<int>(CoreIdx);
  C.Running = T;
  setBusyCount(BusyCount + 1);

  SimTime Overhead = (C.LastThreadId != NoThread && C.LastThreadId != T->Id)
                         ? Cfg.CtxSwitchCost + Cfg.CacheRefillCost
                         : 0;
  SimTime SliceLen = std::min(T->RemainingBurst, Cfg.Quantum);
  // A straggling core stretches the slice's wall time: every work cycle
  // takes Dilation cycles, though only SliceLen cycles of work complete.
  // The factor is sampled where the work begins (after the switch
  // overhead) and the slice is clamped to the next straggler-window
  // boundary, so each slice runs under one constant factor and a window
  // opening or closing mid-slice takes effect on time (piecewise-exact),
  // the same way offline/domain events already bound slices.
  SimTime WorkStart = Sim.now() + Overhead;
  double Dilation = Plan ? Plan->dilation(CoreIdx, WorkStart) : 1.0;
  if (Plan)
    if (SimTime Boundary = Plan->nextDilationBoundary(CoreIdx, WorkStart)) {
      SimTime Span = Boundary - WorkStart;
      SimTime MaxWork =
          Dilation > 1.0
              ? static_cast<SimTime>(static_cast<double>(Span) / Dilation)
              : Span;
      // Never clamp to zero work: a boundary nearer than one dilated
      // cycle still admits one cycle, bounding the error at one cycle
      // while guaranteeing progress.
      SliceLen = std::min(SliceLen, std::max<SimTime>(MaxWork, 1));
    }
  // The quantum timer is a *wall-clock* preemption: it does not slow
  // down with a dilated core, so a slice never occupies a straggling
  // core for more than about one quantum of wall time. This is what
  // lets the rate sensor re-sample (and the dispatcher route around) a
  // slow core during a long straggler window rather than only at its
  // close.
  if (Dilation > 1.0) {
    SimTime MaxWork =
        static_cast<SimTime>(static_cast<double>(Cfg.Quantum) / Dilation);
    SliceLen = std::min(SliceLen, std::max<SimTime>(MaxWork, 1));
  }
  SimTime Wall =
      Dilation > 1.0
          ? static_cast<SimTime>(static_cast<double>(SliceLen) * Dilation)
          : SliceLen;
  C.SliceAt = Sim.now();
  C.SliceOverhead = Overhead;
  C.SliceWork = SliceLen;
  C.SliceDilation = Dilation;
  std::uint64_t Epoch = ++C.Epoch;
  if (Tel) {
    SliceMetric->add();
    if (Overhead > 0) {
      CtxSwitchMetric->add();
      Tel->instant(TelPid, CoreIdx, "machine", "ctx_switch",
                   {telemetry::TraceArg::num(
                       "cost_us", toSeconds(Overhead) * 1e6)});
    }
    // One span per occupancy epoch: back-to-back slices of the same
    // thread on the same core continue the open span.
    if (TelCoreSpan[CoreIdx] != T) {
      if (TelCoreSpan[CoreIdx])
        Tel->end(TelPid, CoreIdx, "core", TelCoreSpan[CoreIdx]->name());
      Tel->begin(TelPid, CoreIdx, "core", T->name());
      TelCoreSpan[CoreIdx] = T;
    }
  }
  Sim.schedule(Overhead + Wall, [this, CoreIdx, T, SliceLen, Epoch] {
    endSlice(CoreIdx, T, SliceLen, Epoch);
  });
}

/// Reserves Gang-1 helper cores and arms the burst, or blocks the thread
/// on GangAvail. Returns true on success.
bool Machine::tryReserveGang(SimThread *T, unsigned Gang, SimTime Cycles) {
  assert(Gang <= Cores.size() && "gang larger than the machine");
  assert(Cycles > 0 && "gang computes must consume time");
  if (BusyCount + Gang > Cores.size()) {
    T->State = ThreadState::Blocked;
    ++T->BlockSeq;
    GangAvail.add(T);
    return false;
  }
  Reserved += Gang - 1;
  T->GangHold = Gang - 1;
  setBusyCount(BusyCount + (Gang - 1));
  T->RemainingBurst = Cycles;
  return true;
}

void Machine::endSlice(unsigned CoreIdx, SimThread *T, SimTime SliceLen,
                       std::uint64_t Epoch) {
  Core &C = Cores[CoreIdx];
  if (C.Epoch != Epoch)
    return; // slice cancelled: its thread was stranded or terminated
  assert(C.Running == T && "slice ended on wrong core");
  noteSliceRate(CoreIdx);
  C.Running = nullptr;
  C.LastThreadId = T->Id;
  setBusyCount(BusyCount - 1);
  // Any freed capacity may unblock a waiting gang.
  if (GangAvail.hasWaiters())
    GangAvail.notifyAll();

  assert(T->RemainingBurst >= SliceLen);
  T->RemainingBurst -= SliceLen;
  if (T->RemainingBurst == 0 && T->GangHold > 0)
    releaseGangHold(T);
  T->State = ThreadState::Ready;
  T->CoreIdx = -1;
  ReadyQueue.push_back(T);
  dispatch();
}

void Machine::noteSliceRate(unsigned CoreIdx) {
  Core &C = Cores[CoreIdx];
  SimTime Now = Sim.now();
  // One slice contributes its wall time's worth of evidence, saturating
  // at a full replacement after RateTau of continuous observation.
  SimTime Wall = static_cast<SimTime>(static_cast<double>(C.SliceWork) *
                                      C.SliceDilation);
  double Alpha =
      std::min(1.0, static_cast<double>(Wall) / static_cast<double>(RateTau));
  double Prev = Now - C.RateSampledAt > RateSampleTtl ? 1.0 : C.Rate;
  C.Rate = Prev + Alpha * (1.0 / C.SliceDilation - Prev);
  C.RateSampledAt = Now;
  if (!Cfg.SlowCoreAvoidance)
    return;
  bool Pen = C.Rate < SlowCoreThreshold;
  if (Pen == C.PenalizedMark)
    return;
  C.PenalizedMark = Pen;
  if (Tel) {
    CoreRateMetric->set(minCoreRate());
    Tel->metrics()
        .counter(Pen ? "machine.cores_penalized" : "machine.cores_recovered")
        .add();
    Tel->instant(TelPid, CoreIdx, "machine",
                 Pen ? "core_penalized" : "core_recovered",
                 {telemetry::TraceArg::num("rate", C.Rate),
                  telemetry::TraceArg::num("penalized",
                                           static_cast<double>(
                                               penalizedCores()))});
  }
}

double Machine::coreRate(unsigned CoreIdx) const {
  assert(CoreIdx < Cores.size());
  const Core &C = Cores[CoreIdx];
  // A stale estimate reads as nominal: an idle core cannot re-measure
  // itself, so after the TTL it gets the benefit of the doubt.
  if (Sim.now() - C.RateSampledAt > RateSampleTtl)
    return 1.0;
  return C.Rate;
}

bool Machine::corePenalized(unsigned CoreIdx) const {
  return Cfg.SlowCoreAvoidance && !Cores[CoreIdx].Offline &&
         coreRate(CoreIdx) < SlowCoreThreshold;
}

unsigned Machine::penalizedCores() const {
  if (!Cfg.SlowCoreAvoidance)
    return 0;
  unsigned N = 0;
  for (unsigned I = 0; I < Cores.size(); ++I)
    if (corePenalized(I))
      ++N;
  return N;
}

double Machine::minCoreRate() const {
  double Min = 1.0;
  for (unsigned I = 0; I < Cores.size(); ++I)
    if (!Cores[I].Offline)
      Min = std::min(Min, coreRate(I));
  return Min;
}

void Machine::releaseGangHold(SimThread *T) {
  assert(T->GangHold > 0);
  assert(Reserved >= T->GangHold);
  Reserved -= T->GangHold;
  setBusyCount(BusyCount - T->GangHold);
  T->GangHold = 0;
  GangAvail.notifyAll();
}

void Machine::installFaultPlan(FaultPlan NewPlan) {
  assert(!Plan && "a fault plan is already installed");
  Plan = std::move(NewPlan);
  for (const OfflineFault &F : Plan->offlines()) {
    assert(F.Core < Cores.size() && "offline fault names a missing core");
    Sim.scheduleAt(F.At, [this, Core = F.Core] { offlineCore(Core); });
  }
  for (const FailureDomainEvent &D : Plan->domains()) {
    for (unsigned Core : D.Cores) {
      (void)Core;
      assert(Core < Cores.size() && "domain names a missing core");
    }
    Sim.scheduleAt(D.At, [this, &D] { offlineDomain(D); });
    if (D.Warning > 0) {
      SimTime WarnAt = D.Warning >= D.At ? 0 : D.At - D.Warning;
      Sim.scheduleAt(WarnAt, [this, &D] {
        if (Tel) {
          Tel->metrics().counter("machine.faults.domain_warnings").add();
          Tel->instant(TelPid, 0, "machine", "fault_domain_warning",
                       {telemetry::TraceArg::str("domain", D.Name),
                        telemetry::TraceArg::num(
                            "cores", static_cast<double>(D.Cores.size())),
                        telemetry::TraceArg::num(
                            "lead_us", toSeconds(D.Warning) * 1e6)});
        }
        for (const auto &L : DomainWarningListeners)
          L(D);
      });
    }
    if (D.Downtime > 0)
      Sim.scheduleAt(D.At + D.Downtime, [this, &D] {
        for (unsigned Core : D.Cores)
          onlineCore(Core);
      });
  }
  if (Tel)
    for (const StragglerFault &S : Plan->stragglers()) {
      assert(S.Core < Cores.size() && "straggler names a missing core");
      Sim.scheduleAt(S.At, [this, S] {
        Tel->instant(TelPid, S.Core, "machine", "fault_straggler",
                     {telemetry::TraceArg::num("dilation", S.Dilation),
                      telemetry::TraceArg::num(
                          "duration_us", toSeconds(S.Duration) * 1e6)});
      });
    }
}

void Machine::offlineCore(unsigned CoreIdx) {
  assert(CoreIdx < Cores.size());
  Core &C = Cores[CoreIdx];
  if (C.Offline)
    return;
  assert(OnlineCount > 1 && "cannot offline the last core");
  C.Offline = true;
  --OnlineCount;
  LastOfflineAt = Sim.now();
  if (SimThread *T = C.Running) {
    // Credit the work the interrupted slice completed before the failure;
    // the rest of the burst resumes after rescue.
    SimTime Ran = Sim.now() - C.SliceAt;
    SimTime Done = 0;
    if (Ran > C.SliceOverhead)
      Done = std::min(
          static_cast<SimTime>(static_cast<double>(Ran - C.SliceOverhead) /
                               C.SliceDilation),
          C.SliceWork);
    assert(T->RemainingBurst >= Done);
    T->RemainingBurst -= Done;
    ++C.Epoch; // cancel the in-flight endSlice
    C.Running = nullptr;
    C.LastThreadId = T->Id;
    T->State = ThreadState::Stranded;
    T->CoreIdx = -1;
    ++StrandedCount;
    // Gang helpers stay reserved: the stranded burst still owns them and
    // completes on rescue.
    setBusyCount(BusyCount - 1);
  }
  if (Tel) {
    Tel->metrics().counter("machine.faults.offline").add();
    Tel->instant(TelPid, CoreIdx, "machine", "fault_offline",
                 {telemetry::TraceArg::num("online", OnlineCount),
                  telemetry::TraceArg::num("stranded", StrandedCount)});
    if (TelCoreSpan[CoreIdx]) {
      Tel->end(TelPid, CoreIdx, "core", TelCoreSpan[CoreIdx]->name());
      TelCoreSpan[CoreIdx] = nullptr;
    }
    emitCapacitySample();
  }
  dispatch();
}

void Machine::offlineDomain(const FailureDomainEvent &D) {
  if (Tel)
    Tel->instant(TelPid, 0, "machine", "fault_domain",
                 {telemetry::TraceArg::str("domain", D.Name),
                  telemetry::TraceArg::num(
                      "cores", static_cast<double>(D.Cores.size()))});
  for (unsigned Core : D.Cores)
    offlineCore(Core);
}

void Machine::onlineCore(unsigned CoreIdx) {
  assert(CoreIdx < Cores.size());
  Core &C = Cores[CoreIdx];
  if (!C.Offline)
    return; // never failed (or already repaired): nothing to re-admit
  C.Offline = false;
  ++OnlineCount;
  ++RepairedCount;
  LastOnlineAt = Sim.now();
  if (Tel) {
    Tel->metrics().counter("machine.repairs").add();
    Tel->instant(TelPid, CoreIdx, "machine", "repair_online",
                 {telemetry::TraceArg::num("online", OnlineCount)});
    emitCapacitySample();
  }
  // Ready threads queued behind the reduced capacity can use the core now.
  dispatch();
}

void Machine::emitCapacitySample() {
  Tel->counter(TelPid, 0, "machine", "online_cores", OnlineCount);
}

unsigned Machine::rescueStranded() {
  std::vector<SimThread *> All;
  if (StrandedCount > 0)
    for (const auto &TP : Threads)
      if (TP->State == ThreadState::Stranded)
        All.push_back(TP.get());
  assert(All.size() == StrandedCount &&
         "stranded-count bookkeeping diverged");
  // Records are reused, so record order is not spawn order: re-queue in
  // id (spawn) order to keep the schedule independent of reuse.
  std::sort(All.begin(), All.end(), [](const SimThread *A, const SimThread *B) {
    return A->Id < B->Id;
  });
  for (SimThread *T : All) {
    T->State = ThreadState::Ready;
    ReadyQueue.push_back(T);
  }
  StrandedCount = 0;
  unsigned N = static_cast<unsigned>(All.size());
  if (N > 0) {
    if (Tel) {
      Tel->metrics().counter("machine.faults.rescued").add(N);
      Tel->instant(TelPid, 0, "machine", "rescue",
                   {telemetry::TraceArg::num("threads", N)});
    }
    dispatch();
  }
  return N;
}

bool Machine::takeWedge(const std::string &Task, std::uint64_t Seq) {
  if (!Plan || !Plan->wedgeAt(Task, Seq))
    return false;
  if (!FiredWedges.insert({Task, Seq}).second)
    return false; // already fired once: the retry runs normally
  if (Tel) {
    Tel->metrics().counter("machine.faults.wedges").add();
    Tel->instant(TelPid, 0, "machine", "fault_wedge",
                 {telemetry::TraceArg::str("task", Task),
                  telemetry::TraceArg::num("seq", static_cast<double>(Seq))});
  }
  return true;
}

void Machine::terminate(SimThread *T) {
  if (T->State == ThreadState::Finished)
    return;
  switch (T->State) {
  case ThreadState::Running: {
    Core &C = Cores[static_cast<unsigned>(T->CoreIdx)];
    assert(C.Running == T);
    ++C.Epoch; // cancel the in-flight endSlice
    C.Running = nullptr;
    C.LastThreadId = T->Id;
    setBusyCount(BusyCount - 1);
    break;
  }
  case ThreadState::Stranded:
    assert(StrandedCount > 0);
    --StrandedCount;
    break;
  case ThreadState::Ready: {
    // Leave the ready queue now: the record may be reused before the
    // queue would reach this entry.
    auto It = std::find(ReadyQueue.begin(), ReadyQueue.end(), T);
    if (It != ReadyQueue.end())
      ReadyQueue.erase(It);
    break;
  }
  case ThreadState::Blocked:
    // Stale waiter-list entries are discarded when the waitable next
    // notifies (wake() ignores non-Blocked threads).
    break;
  case ThreadState::Finished:
    break;
  }
  if (T->GangHold > 0)
    releaseGangHold(T);
  T->State = ThreadState::Finished;
  T->RemainingBurst = 0;
  T->PendingGang = 0;
  T->CoreIdx = -1;
  assert(AliveCount > 0);
  --AliveCount;
  if (Tel)
    for (unsigned I = 0; I < TelCoreSpan.size(); ++I)
      if (TelCoreSpan[I] == T) {
        Tel->end(TelPid, I, "core", T->name());
        TelCoreSpan[I] = nullptr;
      }
  T->ExitEvent.notifyAll();
  retire(T);
  if (GangAvail.hasWaiters())
    GangAvail.notifyAll();
  dispatch();
}
