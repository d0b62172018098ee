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

  Tel = telemetry::recorder();
  if (Tel) {
    TelPid = Tel->processFor(Desc.Name);
    Tel->nameThread(TelPid, telemetry::TidExec, "exec");
    for (unsigned T = 0; T < Desc.numTasks(); ++T)
      Tel->nameThread(TelPid, 1 + T, "task " + Desc.Tasks[T].name());
    RetiredMetric = &Tel->metrics().counter("exec." + Desc.Name + ".retired");
  }
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

void RegionExec::spawnWorker(unsigned TaskIdx, unsigned Slot,
                             std::uint64_t CursorFrom) {
  assert(!HasWorker[TaskIdx][Slot] && "slot already has a worker");
  auto Body = std::make_unique<Worker>(*this, TaskIdx, Slot, CursorFrom);
  Worker *W = Body.get();
  ActiveByTask[TaskIdx].push_back(W);
  HasWorker[TaskIdx][Slot] = true;
  ++ActiveWorkers;
  W->Thread = M.spawn(Desc.Name + "/" + Desc.Tasks[TaskIdx].name() + "#" +
                          std::to_string(Slot),
                      std::move(Body));
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

void RegionExec::requestPause() {
  if (PauseBound != NoSeq || Completed)
    return;
  // From here on every task claims one iteration at a time
  // (chunkKFor), and a head holding a chunk gives its unstarted tail
  // back (Worker::stepFetch), so the drain obligation stays one deep.
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
