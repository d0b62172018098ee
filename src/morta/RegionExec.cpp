//===- RegionExec.cpp - Flexible execution of one parallel region ----------===//

#include "morta/RegionExec.h"

#include "morta/Worker.h"

#include <algorithm>

using namespace parcae::rt;

namespace {
/// Upper bound on any task's DoP (sized for oversubscription experiments
/// that run 24 threads per stage on a 24-core machine).
constexpr unsigned MaxWidth = 64;
/// Base channel admission window: how many iterations production may run
/// ahead of the slowest consumer (the bounded-queue depth). The effective
/// window grows with the consumer's DoP; see Link::effectiveWindow.
constexpr std::uint64_t LinkWindow = 16;
} // namespace

RegionExec::RegionExec(sim::Machine &M, const RuntimeCosts &Costs,
                       const RegionDesc &Desc, WorkSource &Source,
                       RegionConfig Config, std::uint64_t StartSeq)
    : M(M), Costs(Costs), Desc(Desc), Source(Source),
      Config(std::move(Config)), NextSeq(StartSeq), StartSeq(StartSeq),
      CommitFrontier(StartSeq) {
  Desc.verify();
  assert(this->Config.S == Desc.S && "config scheme must match the variant");
  assert(this->Config.DoP.size() == Desc.Tasks.size() &&
         "config needs one DoP per task");

  Schedules.reserve(Desc.Tasks.size());
  for (unsigned I = 0; I < Desc.numTasks(); ++I) {
    unsigned D = this->Config.DoP[I];
    assert(D >= 1 && D <= MaxWidth && "DoP out of range");
    assert((Desc.Tasks[I].isParallel() || D == 1) &&
           "sequential tasks have DoP 1");
    Schedules.emplace_back(D);
  }

  InLinks.resize(Desc.numTasks());
  OutLinks.resize(Desc.numTasks());
  for (const LinkDesc &L : Desc.Links) {
    auto Ch = std::make_unique<Link>(
        Desc.Tasks[L.From].name() + "->" + Desc.Tasks[L.To].name(),
        Schedules[L.To], MaxWidth, LinkWindow);
    Ch->setLowWater(StartSeq);
    OutLinks[L.From].push_back(Ch.get());
    InLinks[L.To].push_back(Ch.get());
    Links.push_back(std::move(Ch));
  }

  Stats.resize(Desc.numTasks());
  ActiveByTask.resize(Desc.numTasks());
  HasWorker.assign(Desc.numTasks(), std::vector<bool>(MaxWidth, false));
  LastBeat.assign(Desc.numTasks(), M.sim().now());

#if PARCAE_TELEMETRY_ENABLED
  Tel = telemetry::recorder();
  if (Tel) {
    TelPid = Tel->processFor(Desc.Name);
    Tel->nameThread(TelPid, telemetry::TidExec, "exec");
    for (unsigned T = 0; T < Desc.numTasks(); ++T)
      Tel->nameThread(TelPid, 1 + T, "task " + Desc.Tasks[T].name());
    RetiredMetric = &Tel->metrics().counter("exec." + Desc.Name + ".retired");
  }
#endif
}

RegionExec::~RegionExec() = default;

void RegionExec::start() {
  assert(!Started && "region already started");
  Started = true;
  PARCAE_TRACE(Tel, begin(TelPid, telemetry::TidExec, "exec", Config.str(),
                          {telemetry::TraceArg::num(
                              "start_seq", static_cast<double>(NextSeq))}));
  for (unsigned T = 0; T < Desc.numTasks(); ++T)
    for (unsigned S = 0; S < Config.DoP[T]; ++S)
      spawnWorker(T, S, NextSeq);
}

Worker *RegionExec::spawnWorker(unsigned TaskIdx, unsigned Slot,
                                std::uint64_t CursorFrom,
                                std::vector<std::vector<Token>> *Salvage,
                                const Worker *CloneOf) {
  assert(!HasWorker[TaskIdx][Slot] && "slot already has a worker");
  auto Body = std::make_unique<Worker>(*this, TaskIdx, Slot, CursorFrom);
  Worker *W = Body.get();
  if (Salvage) {
    assert(Salvage->size() == W->SendBufs.size());
    W->SendBufs = std::move(*Salvage);
  }
  if (CloneOf) {
    // Speculative clone: inherit the in-flight iteration wholesale —
    // received inputs, the functor's staged outputs, the chunk claim —
    // and arm the resume-at-compute path. Installed before M.spawn, which
    // dispatches synchronously.
    W->SpecResume = true;
    W->SpecCost = CloneOf->Ctx.Cost;
    W->Ctx = CloneOf->Ctx;
    W->Cursor = CloneOf->Cursor;
    W->InIteration = true;
    W->UsedReduction = CloneOf->UsedReduction;
    W->Chunk = CloneOf->Chunk;
    W->ChunkNext = CloneOf->ChunkNext;
    W->ChunkStart = CloneOf->ChunkStart;
    W->ChunkIters = CloneOf->ChunkIters;
    W->ChunkHead = CloneOf->ChunkHead;
  }
  ActiveByTask[TaskIdx].push_back(W);
  HasWorker[TaskIdx][Slot] = true;
  ++ActiveWorkers;
  W->Thread = M.spawn(Desc.Name + "/" + Desc.Tasks[TaskIdx].name() + "#" +
                          std::to_string(Slot),
                      std::move(Body));
  return W;
}

void RegionExec::noteFault(unsigned TaskIdx, std::uint64_t Seq,
                           unsigned Attempt) {
  ++FaultsInjected;
  beat(TaskIdx); // a faulting task is still live, just unlucky
  if (Tel) {
    Tel->metrics().counter("exec." + Desc.Name + ".faults").add();
    Tel->instant(TelPid, 1 + TaskIdx, "fault", "task_fault",
                 {telemetry::TraceArg::num("seq", static_cast<double>(Seq)),
                  telemetry::TraceArg::num("attempt", Attempt)});
  }
  if (Attempt > Costs.MaxFaultRetries) {
    ++Escalations;
    if (!EscalationFired) {
      EscalationFired = true;
      PARCAE_TRACE(Tel, instant(TelPid, 1 + TaskIdx, "fault",
                                "fault_escalation",
                                {telemetry::TraceArg::num(
                                    "seq", static_cast<double>(Seq))}));
      if (OnFaultEscalation)
        OnFaultEscalation(TaskIdx);
    }
  }
}

void RegionExec::abort() {
  assert(canAbort() && "abort requires a sequential tail");
  Aborted = true;
  if (Chunking)
    Chunking->degradeForPause(); // resume cautiously after recovery
  PARCAE_TRACE(Tel, instant(TelPid, telemetry::TidExec, "exec", "abort",
                            {telemetry::TraceArg::num(
                                 "frontier",
                                 static_cast<double>(CommitFrontier)),
                             telemetry::TraceArg::num(
                                 "next_seq", static_cast<double>(NextSeq))}));
  PARCAE_TRACE(Tel, end(TelPid, telemetry::TidExec, "exec", Config.str(),
                        {telemetry::TraceArg::str("exit", "aborted")}));
  // Kill without onWorkerExit: no respawns, no quiescence callbacks.
  // Terminated threads never resume, so the dead Worker bodies are never
  // re-entered; the Machine releases them after this event.
  for (auto &List : ActiveByTask) {
    for (Worker *W : List)
      M.terminate(W->Thread);
    List.clear();
  }
  for (auto &Row : HasWorker)
    Row.assign(Row.size(), false);
  ActiveWorkers = 0;
}

RegionExec::BlameVerdict RegionExec::blameScan(sim::SimTime Now,
                                               sim::SimTime Threshold,
                                               sim::SimTime Margin) const {
  BlameVerdict V;
  // A culprit worker is one that cannot make progress on its own: its
  // thread is stranded on a dead core, or blocked outside every runtime
  // wait — the signature of code wedged between fetch and functor.
  // Threads blocked in a channel/source/retry/lock wait are *victims* of
  // someone else's stall and must not be blamed.
  struct TaskCulprit {
    bool Any = false;
    sim::SimTime OldestBeat = 0;
  };
  std::vector<TaskCulprit> Per(Desc.numTasks());
  for (unsigned T = 0; T < Desc.numTasks(); ++T)
    for (const Worker *W : ActiveByTask[T]) {
      if (!W->Thread)
        continue;
      sim::ThreadState S = W->Thread->state();
      bool Culprit = S == sim::ThreadState::Stranded ||
                     (S == sim::ThreadState::Blocked &&
                      W->LastWait == Worker::WaitKind::None);
      if (!Culprit)
        continue;
      ++V.CulpritWorkers;
      TaskCulprit &C = Per[T];
      if (!C.Any || W->LastBeatAt < C.OldestBeat)
        C.OldestBeat = W->LastBeatAt;
      C.Any = true;
    }

  // Oldest culprit task wins the blame; the runner-up decides ambiguity.
  // Several culprit workers of the *same* task are not ambiguous — one
  // restart covers them all.
  bool HaveBest = false, HaveSecond = false;
  unsigned BestT = 0;
  sim::SimTime BestBeat = 0, SecondBeat = 0;
  for (unsigned T = 0; T < Desc.numTasks(); ++T) {
    if (!Per[T].Any)
      continue;
    ++V.CulpritTasks;
    if (!HaveBest || Per[T].OldestBeat < BestBeat) {
      if (HaveBest) {
        SecondBeat = HaveSecond ? std::min(SecondBeat, BestBeat) : BestBeat;
        HaveSecond = true;
      }
      BestT = T;
      BestBeat = Per[T].OldestBeat;
      HaveBest = true;
    } else if (!HaveSecond || Per[T].OldestBeat < SecondBeat) {
      SecondBeat = Per[T].OldestBeat;
      HaveSecond = true;
    }
  }
  if (!HaveBest)
    return V;
  V.TaskIdx = BestT;
  V.OldestBeat = BestBeat;
  if (Now - BestBeat < Threshold)
    return V; // not silent long enough to convict
  if (HaveSecond && SecondBeat - BestBeat < Margin)
    return V; // a second task is almost as silent: ambiguous
  V.Blamed = true;
  return V;
}

RegionExec::RestartResult RegionExec::restartTask(unsigned TaskIdx) {
  assert(TaskIdx < Desc.numTasks());
  RestartResult Res;
  if (!Started || Completed)
    return Res;

  // Stranded threads of this task resume their interrupted burst in
  // place: rescue is the whole repair for them.
  std::vector<sim::SimThread *> Stranded;
  for (Worker *W : ActiveByTask[TaskIdx])
    if (W->Thread && W->Thread->state() == sim::ThreadState::Stranded)
      Stranded.push_back(W->Thread);
  Res.Rescued = M.rescueStranded(Stranded);

  // Wedged workers (blocked outside every runtime wait) are terminated
  // and respawned at their current position. Snapshot first: give-back,
  // terminate, and spawn all dispatch, which can synchronously resume
  // other workers and mutate the active lists.
  std::vector<Worker *> Wedged;
  for (Worker *W : ActiveByTask[TaskIdx])
    if (W->Thread && W->Thread->state() == sim::ThreadState::Blocked &&
        W->LastWait == Worker::WaitKind::None)
      Wedged.push_back(W);

  for (Worker *W : Wedged) {
    // Wedges fire strictly before the iteration starts, so the worker
    // has consumed nothing its replacement cannot re-derive. (NextIn may
    // be a nonzero residue of the previous, fully completed iteration —
    // it is only reset when the next Recv begins.)
    assert(!W->InIteration &&
           "wedged worker consumed state it cannot give back");
    // A wedged head holding unstarted chunk items must return them to
    // the source, or terminating it would orphan those iterations. That
    // is only history-consistent for the contiguous tail of the claim
    // space; otherwise skip this worker and let the caller fall back.
    if (W->taskIdx() == 0 && W->ChunkNext < W->Chunk.size()) {
      std::uint64_t Remaining = W->Chunk.size() - W->ChunkNext;
      bool ContigTail = W->ChunkStart + W->Chunk.size() == NextSeq;
      if (!ContigTail || !giveBackChunk(Remaining))
        continue;
      W->Chunk.clear();
      W->ChunkNext = 0;
    }
    // Delist before anything that can dispatch: reentrant callbacks must
    // never observe the half-dead worker.
    auto &List = ActiveByTask[TaskIdx];
    auto It = std::find(List.begin(), List.end(), W);
    assert(It != List.end());
    List.erase(It);
    assert(HasWorker[TaskIdx][W->slot()]);
    HasWorker[TaskIdx][W->slot()] = false;
    assert(ActiveWorkers > 0);
    --ActiveWorkers;
    // Salvage produced-but-unsent output tokens; they are below the
    // frontier of what downstream has seen and must not be lost. The
    // Machine keeps a terminated thread's body until the event ends, so
    // the move would be safe after terminate too — but take it first for
    // clarity.
    std::vector<std::vector<Token>> Salvage = std::move(W->SendBufs);
    unsigned Slot = W->slot();
    std::uint64_t CursorFrom = W->CursorFrom;
    M.terminate(W->Thread);
    spawnWorker(TaskIdx, Slot, CursorFrom, &Salvage);
    ++Res.Restarted;
  }

  if (Res.Restarted > 0 || Res.Rescued > 0) {
    updateLowWater(TaskIdx);
    // Refresh the task heartbeat: the replacement starts its silence
    // clock now, not at its predecessor's last sign of life.
    beat(TaskIdx);
    PARCAE_TRACE(
        Tel, instant(TelPid, telemetry::TidExec, "exec", "task_restart",
                     {telemetry::TraceArg::str("task",
                                               Desc.Tasks[TaskIdx].name()),
                      telemetry::TraceArg::num("restarted", Res.Restarted),
                      telemetry::TraceArg::num("rescued", Res.Rescued)}));
  }
  return Res;
}

RegionExec::SpeculateResult
RegionExec::speculateLaggard(sim::SimTime Now, sim::SimTime AgeThreshold) {
  SpeculateResult Res;
  if (!Started || Completed)
    return Res;
  // The laggard is the in-flight worker holding the oldest iteration —
  // the one every retirement past the commit frontier ultimately waits on.
  Worker *Lag = nullptr;
  for (auto &List : ActiveByTask)
    for (Worker *W : List)
      if (W->InIteration && (!Lag || W->Cursor < Lag->Cursor))
        Lag = W;
  if (!Lag)
    return Res;
  // Re-issue only a laggard that is (a) mid main-compute — the functor has
  // already run, so the clone can re-pay the charge without re-running it,
  // and no lock or channel interaction is in flight — (b) actually running
  // on a penalized core (a healthy-core laggard is just slow work; cloning
  // it buys nothing), (c) silent past the age threshold, and (d) not a
  // gang compute (helper reservations are not clonable).
  if (Lag->St != Worker::State::Compute || Lag->CritHeld)
    return Res;
  if (Lag->Ctx.Gang > 1)
    return Res;
  if (!Lag->Thread || Lag->Thread->state() != sim::ThreadState::Running)
    return Res;
  int CoreIdx = Lag->Thread->coreIdx();
  if (CoreIdx < 0 || !M.corePenalized(static_cast<unsigned>(CoreIdx)))
    return Res;
  if (Now - Lag->LastBeatAt < AgeThreshold)
    return Res;

  unsigned TaskIdx = Lag->taskIdx();
  unsigned Slot = Lag->slot();
  std::uint64_t Seq = Lag->Cursor;

  // From here this mirrors restartTask: delist the loser before anything
  // that can dispatch, salvage its unsent outputs, cancel its in-flight
  // slice (terminate bumps the core's slice epoch, so the queued endSlice
  // no-ops), and install the clone's state before its thread can run. A
  // terminated thread never resumes, so the loser can never reach
  // IterDone: the clone's retirement is the only one.
  auto &List = ActiveByTask[TaskIdx];
  auto It = std::find(List.begin(), List.end(), Lag);
  assert(It != List.end());
  List.erase(It);
  assert(HasWorker[TaskIdx][Slot]);
  HasWorker[TaskIdx][Slot] = false;
  assert(ActiveWorkers > 0);
  --ActiveWorkers;
  std::vector<std::vector<Token>> Salvage = std::move(Lag->SendBufs);
  std::uint64_t CursorFrom = Lag->CursorFrom;
  M.terminate(Lag->Thread);
  spawnWorker(TaskIdx, Slot, CursorFrom, &Salvage, Lag);
  ++Speculations;
  updateLowWater(TaskIdx);
  beat(TaskIdx);
  if (Tel) {
    Tel->metrics().counter("exec." + Desc.Name + ".speculations").add();
    Tel->instant(TelPid, telemetry::TidExec, "exec", "speculate",
                 {telemetry::TraceArg::str("task", Desc.Tasks[TaskIdx].name()),
                  telemetry::TraceArg::num("seq", static_cast<double>(Seq)),
                  telemetry::TraceArg::num("core", CoreIdx)});
  }
  Res.Issued = true;
  Res.TaskIdx = TaskIdx;
  Res.Seq = Seq;
  return Res;
}

void RegionExec::requestPause() {
  if (PauseBound != NoSeq || Completed)
    return;
  // Collapse chunking first: the drain obligation must not include
  // deep chunks claimed after this point, and workers holding chunks
  // give the unstarted tail back (Worker::stepFetch).
  if (Chunking)
    Chunking->degradeForPause();
  PauseBound = NextSeq;
  PARCAE_TRACE(Tel, instant(TelPid, telemetry::TidExec, "exec", "pause",
                            {telemetry::TraceArg::num(
                                "bound", static_cast<double>(PauseBound))}));
  BoundEvent.notifyAll();
}

bool RegionExec::canReconfigureInPlace() const {
  return Costs.OptimizedBarrier && !pauseRequested() && !Completed && Started;
}

void RegionExec::reconfigureInPlace(const std::vector<unsigned> &NewDoP) {
  assert(canReconfigureInPlace() && "in-place reconfiguration not possible");
  assert(NewDoP.size() == Desc.Tasks.size() && "one DoP per task");

  // The iteration-count handoff of Section 7.2: iterations before B keep
  // the old routing; iterations from B on use the new widths.
  std::uint64_t B = NextSeq;
  for (unsigned T = 0; T < Desc.numTasks(); ++T) {
    unsigned D = NewDoP[T];
    assert(D >= 1 && D <= MaxWidth && "DoP out of range");
    assert((Desc.Tasks[T].isParallel() || D == 1) &&
           "sequential tasks have DoP 1");
    Schedules[T].append(B, D);
    // Sequential tasks briefly synchronize to update their channel-width
    // view (Section 7.2.2); model this as one barrier cost on their next
    // iteration.
    if (!Desc.Tasks[T].isParallel())
      for (Worker *W : ActiveByTask[T])
        W->PendingCost += Costs.BarrierCost;
    for (unsigned S = 0; S < D; ++S)
      if (!HasWorker[T][S])
        spawnWorker(T, S, B);
    // Slots with S >= D retire on their own when they drain their pre-B
    // iterations (their next owned iteration becomes NoSeq).
  }
  Config.DoP = NewDoP;
  PARCAE_TRACE(Tel,
               instant(TelPid, telemetry::TidExec, "exec",
                       "reconfigure_in_place",
                       {telemetry::TraceArg::str("config", Config.str()),
                        telemetry::TraceArg::num("handoff_seq",
                                                 static_cast<double>(B))}));
  // Wake workers blocked on iterations the new routing reassigned; they
  // re-derive their cursor from the updated schedule.
  BoundEvent.notifyAll();
}

void RegionExec::onWorkerExit(Worker *W, TaskStatus Status) {
  unsigned T = W->taskIdx();
  auto &List = ActiveByTask[T];
  auto It = std::find(List.begin(), List.end(), W);
  assert(It != List.end() && "worker exited twice");
  List.erase(It);
  assert(HasWorker[T][W->slot()]);
  HasWorker[T][W->slot()] = false;
  assert(ActiveWorkers > 0);
  --ActiveWorkers;
  updateLowWater(T);

  // A reconfiguration may have made this slot live again between the
  // worker's retirement decision and its exit; respawn so no iteration is
  // orphaned.
  std::uint64_t Next = W->taskIdx() == 0
                           ? NoSeq
                           : Schedules[T].firstSeqFor(W->slot(), W->CursorFrom);
  std::uint64_t Bound = std::min(PauseBound, EndBound);
  if (Next != NoSeq && (Bound == NoSeq || Next < Bound)) {
    spawnWorker(T, W->slot(), W->CursorFrom);
    return;
  }
  (void)Status;

  if (ActiveWorkers == 0) {
    if (EndBound != NoSeq && EndBound <= PauseBound) {
      Completed = true;
      PARCAE_TRACE(Tel, end(TelPid, telemetry::TidExec, "exec", Config.str(),
                            {telemetry::TraceArg::str("exit", "complete")}));
      if (OnComplete)
        OnComplete();
    } else {
      PARCAE_TRACE(Tel, end(TelPid, telemetry::TidExec, "exec", Config.str(),
                            {telemetry::TraceArg::str("exit", "quiescent")}));
      if (OnQuiescent)
        OnQuiescent();
    }
  }
}

void RegionExec::updateLowWater(unsigned TaskIdx) {
  if (InLinks[TaskIdx].empty())
    return;
  const auto &List = ActiveByTask[TaskIdx];
  if (List.empty())
    return;
  std::uint64_t Min = NoSeq;
  for (const Worker *W : List)
    Min = std::min(Min, W->lowBound());
  for (Link *L : InLinks[TaskIdx])
    L->setLowWater(Min);
}

void RegionExec::retireIteration(unsigned TaskIdx) {
  (void)TaskIdx;
  ++IterationsRetired;
  if (Tel) {
    RetiredMetric->add();
    if ((IterationsRetired & 63) == 0)
      Tel->counter(TelPid, telemetry::TidExec, "exec", "retired",
                   static_cast<double>(IterationsRetired));
  }
  if (Chunking && (IterationsRetired % RetunePeriod) == 0 &&
      PauseBound == NoSeq)
    retuneChunking();
  if (OnProgress)
    OnProgress(IterationsRetired);
}

void RegionExec::retuneChunking() {
  // Per-iteration work estimate: the slowest task dominates chunk
  // latency, but the *cheapest* task has the worst overhead ratio, so
  // tune against it — that is where amortization buys the most.
  sim::SimTime ExecPerIter = 0;
  for (const TaskStats &S : Stats) {
    if (S.Iterations == 0)
      continue;
    sim::SimTime Mean = S.ComputeTime / S.Iterations;
    if (ExecPerIter == 0 || Mean < ExecPerIter)
      ExecPerIter = Mean;
  }
  sim::SimTime Fixed = Costs.HookCost + Costs.StatusQuery +
                       (Links.empty() ? 0 : Costs.CommSend);
  Chunking->retune(Fixed, ExecPerIter, maxLinkPressure());
}

double RegionExec::maxLinkPressure() const {
  double Max = 0;
  for (const auto &L : Links) {
    double P = static_cast<double>(L->buffered()) /
               static_cast<double>(L->window());
    Max = std::max(Max, P);
  }
  return Max;
}

std::uint64_t RegionExec::chunkKFor(unsigned TaskIdx) const {
  std::uint64_t K = Chunking ? Chunking->current() : 1;
  if (K <= 1)
    return 1;
  // Degrade to classic per-iteration claiming while a drain is pending:
  // the pause protocol's latency bound assumes one-deep obligations.
  if (PauseBound != NoSeq)
    return 1;
  // One cost group's buffered tokens must span at most half of each
  // out-link's window, or the flush can stall on a consumer that is
  // waiting for a token the group holds back (see Link.h). The head
  // claims contiguous iterations, so K of them span K sequence numbers;
  // a non-head slot owns every width-th iteration, so K of its own span
  // (K-1)*width+1.
  std::uint64_t Stride = TaskIdx == 0 ? 1 : Schedules[TaskIdx].currentWidth();
  for (const Link *L : OutLinks[TaskIdx])
    K = std::min(K, std::max<std::uint64_t>(1, L->window() / 2 / Stride));
  return K;
}

std::string RegionExec::stallReport() const {
  auto SeqStr = [](std::uint64_t S) {
    return S == NoSeq ? std::string("-") : std::to_string(S);
  };
  auto WaitName = [](Worker::WaitKind K) {
    switch (K) {
    case Worker::WaitKind::None:
      return "none";
    case Worker::WaitKind::Channel:
      return "channel";
    case Worker::WaitKind::Source:
      return "source";
    case Worker::WaitKind::Retry:
      return "retry";
    case Worker::WaitKind::Lock:
      return "lock";
    }
    return "?";
  };
  auto ThreadName = [](const sim::SimThread *T) {
    switch (T ? T->state() : sim::ThreadState::Finished) {
    case sim::ThreadState::Ready:
      return "ready";
    case sim::ThreadState::Running:
      return "running";
    case sim::ThreadState::Blocked:
      return "blocked";
    case sim::ThreadState::Stranded:
      return "stranded";
    case sim::ThreadState::Finished:
      return "finished";
    }
    return "?";
  };

  std::string Out = Desc.Name + " " + Config.str() + ": next_seq " +
                    SeqStr(NextSeq) + ", pause_bound " + SeqStr(PauseBound) +
                    ", end_bound " + SeqStr(EndBound) + ", commit_frontier " +
                    std::to_string(CommitFrontier) + ", retired " +
                    std::to_string(IterationsRetired) + ", chunk_k";
  for (unsigned T = 0; T < Desc.numTasks(); ++T)
    Out += (T ? "," : " ") + std::to_string(chunkKFor(T));
  Out += '\n';

  for (unsigned T = 0; T < Desc.numTasks(); ++T)
    for (const Worker *W : ActiveByTask[T]) {
      Out += "  worker " + Desc.Tasks[T].name() + "#" +
             std::to_string(W->slot()) + ": " + ThreadName(W->Thread) +
             ", wait " + WaitName(W->LastWait);
      // A channel wait names the link: the one being received from in
      // Recv, the one being flushed in Send.
      if (W->LastWait == Worker::WaitKind::Channel) {
        if (W->St == Worker::State::Recv && W->NextIn < InLinks[T].size())
          Out += " (recv " + InLinks[T][W->NextIn]->name() + ")";
        else if (W->St == Worker::State::Send &&
                 W->NextOut < OutLinks[T].size())
          Out += " (send " + OutLinks[T][W->NextOut]->name() + ")";
      }
      Out += ", cursor " + std::to_string(W->Cursor) +
             (W->InIteration ? "" : " (between iterations)") +
             ", chunk_iters " + std::to_string(W->ChunkIters);
      for (std::size_t L = 0; L < W->SendBufs.size(); ++L) {
        const std::vector<Token> &Buf = W->SendBufs[L];
        if (Buf.empty())
          continue;
        Out += ", unsent " + OutLinks[T][L]->name() + " " +
               std::to_string(Buf.front().Seq) + ".." +
               std::to_string(Buf.back().Seq) + " (" +
               std::to_string(Buf.size()) + ")";
      }
      Out += '\n';
    }

  for (const auto &L : Links)
    Out += "  link " + L->name() + ": low_water " +
           std::to_string(L->lowWater()) + ", window " +
           std::to_string(L->effectiveWindow()) + ", buffered " +
           std::to_string(L->buffered()) + "\n";
  return Out;
}

bool RegionExec::giveBackChunk(std::uint64_t Count) {
  assert(Count > 0 && Count <= NextSeq - StartSeq);
  if (!Source.rewind(Count))
    return false;
  NextSeq -= Count;
  // A pause bound above the shrunk claim space would leave consumers
  // waiting for iterations that no longer exist in this execution.
  if (PauseBound != NoSeq && PauseBound > NextSeq)
    PauseBound = NextSeq;
  BoundEvent.notifyAll();
  PARCAE_TRACE(Tel, instant(TelPid, telemetry::TidExec, "exec",
                            "chunk_give_back",
                            {telemetry::TraceArg::num(
                                 "count", static_cast<double>(Count)),
                             telemetry::TraceArg::num(
                                 "next_seq", static_cast<double>(NextSeq))}));
  return true;
}

SimLock &RegionExec::lockFor(int LockId) {
  auto &Slot = Locks[LockId];
  if (!Slot)
    Slot = std::make_unique<SimLock>();
  return *Slot;
}

double RegionExec::loadOf(unsigned TaskIdx) const {
  assert(TaskIdx < Desc.numTasks());
  const Task &T = Desc.Tasks[TaskIdx];
  if (T.LoadCB)
    return T.LoadCB();
  if (TaskIdx == 0)
    return Source.load();
  double Sum = 0;
  for (const Link *L : InLinks[TaskIdx])
    Sum += static_cast<double>(L->buffered());
  return Sum;
}
