//===- Worker.cpp - The Morta worker loop (Algorithm 2) --------------------===//

#include "morta/Worker.h"

#include <algorithm>

using namespace parcae::rt;
using parcae::sim::Action;

Worker::Worker(RegionExec &R, unsigned TaskIdx, unsigned Slot,
               std::uint64_t CursorFrom)
    : R(R), TaskIdx(TaskIdx), Slot(Slot), T(R.Desc.Tasks[TaskIdx]),
      IsHead(TaskIdx == 0), IsTail(TaskIdx + 1 == R.Desc.numTasks()),
      CursorFrom(CursorFrom), Transients(R.machine().transientsOf(T.name())) {
  SendBufs.resize(R.outLinks(TaskIdx).size());
}

bool Worker::anyBuffered() const {
  for (const auto &Buf : SendBufs)
    if (!Buf.empty())
      return true;
  return false;
}

Action Worker::resume(sim::Machine &M, sim::SimThread &) {
  const RuntimeCosts &C = R.Costs;
  switch (St) {
  case State::Init:
    St = State::Fetch;
    return Action::compute(C.ThreadSpawn + C.InitCost + T.InitCost);

  case State::Fetch:
    return stepFetch();

  case State::Recv: {
    auto &In = R.inLinks(TaskIdx);
    if (NextIn < In.size()) {
      // Nothing received yet: the iteration may have been invalidated by
      // a newly set bound (its tokens will never be produced) or
      // reassigned to another slot by an in-place reconfiguration (stale
      // cursor). Re-derive from Fetch in either case. Once the first
      // token has arrived, the iteration is committed to this slot and
      // all remaining tokens are guaranteed to come.
      if (NextIn == 0) {
        std::uint64_t B = std::min(R.PauseBound, R.EndBound);
        bool OutOfBounds = B != NoSeq && Cursor >= B;
        bool Stale =
            R.Schedules[TaskIdx].firstSeqFor(Slot, CursorFrom) != Cursor;
        if (OutOfBounds || Stale) {
          InIteration = false;
          St = State::Fetch;
          return Action::compute(0);
        }
      }
      Token Tok;
      if (!In[NextIn]->tryRecv(Slot, Cursor, Tok)) {
        // Before going idle, push out any batched output tokens once —
        // downstream should not wait on tokens this worker is merely
        // sitting on. Best effort: the pass never blocks on a full
        // window, and runs at most once per blocking episode.
        if (NextIn == 0 && !IdleFlushDone && anyBuffered()) {
          IdleFlushDone = true;
          FlushResume = State::Recv;
          FlushAll = true;
          St = State::Send;
          NextOut = 0;
          return Action::compute(0);
        }
        IdleFlushDone = false;
        LastWait = WaitKind::Channel;
        return Action::blockAny(In[NextIn]->dataAvail(Slot), R.BoundEvent);
      }
      Ctx.In.push_back(std::move(Tok));
      ++NextIn;
      // The chunk's first iteration pays the full per-transfer cost; the
      // rest ride the batched transfer at the marginal per-token rate.
      sim::SimTime RC = ChunkHead ? C.CommRecv : C.CommPerToken;
      R.Stats[TaskIdx].CommTime += RC;
      return Action::compute(RC);
    }
    // All inputs in hand: run the functor and charge its cost.
    return runFunctor(M);
  }

  case State::Backoff: {
    // A transient fault was injected; wait out the exponential backoff,
    // then retry the attempt. The functor has NOT run (faults fire before
    // it), so retrying cannot duplicate side effects.
    sim::SimTime Now = M.sim().now();
    if (!BackoffArmed) {
      BackoffArmed = true;
      if (!RetryEvent)
        RetryEvent = std::make_shared<sim::Waitable>();
      M.sim().schedule(RetryAt > Now ? RetryAt - Now : 0,
                       [Ev = RetryEvent] { Ev->notifyAll(); });
    }
    if (Now < RetryAt) {
      LastWait = WaitKind::Retry;
      return Action::block(*RetryEvent);
    }
    BackoffArmed = false;
    return runFunctor(M);
  }

  case State::Critical: {
    if (NextCrit < Ctx.Criticals.size()) {
      const CriticalSection &CS = Ctx.Criticals[NextCrit];
      SimLock &L = R.lockFor(CS.LockId);
      if (!CritHeld) {
        if (!L.tryAcquire()) {
          LastWait = WaitKind::Lock;
          return Action::block(L.released());
        }
        CritHeld = true;
        R.Stats[TaskIdx].ComputeTime += CS.Cycles;
        return Action::compute(C.LockCost + CS.Cycles);
      }
      L.release();
      CritHeld = false;
      ++NextCrit;
      return Action::compute(0);
    }
    // Stage this iteration's outputs into the per-link batch buffers;
    // the Send pass decides which buffers are ripe for a flush.
    {
      auto &Out = R.outLinks(TaskIdx);
      for (std::size_t I = 0; I < Out.size(); ++I)
        SendBufs[I].push_back(std::move(Ctx.Out[I]));
    }
    FlushAll = ChunkIters <= 1; // chunk ends with this iteration
    St = State::Send;
    NextOut = 0;
    return Action::compute(0);
  }

  case State::Send:
    return stepSend();

  case State::IterDone:
    ++R.Stats[TaskIdx].Iterations;
    R.noteIteration(TaskIdx);
    if (IsTail)
      R.retireIteration(TaskIdx);
    InIteration = false;
    CursorFrom = Cursor + 1;
    R.updateLowWater(TaskIdx);
    if (ChunkIters > 0)
      --ChunkIters;
    IdleFlushDone = false;
    St = State::Fetch;
    return Action::compute(0);

  case State::Finish:
    St = State::Exit;
    R.onWorkerExit(this, ExitStatus);
    return Action::finish();

  case State::Exit:
    break;
  }
  assert(false && "worker resumed in a terminal state");
  return Action::finish();
}

Action Worker::stepFetch() {
  if (IsHead) {
    // Unstarted items of the current chunk come first.
    if (ChunkNext < Chunk.size()) {
      std::uint64_t Bound = std::min(R.PauseBound, R.EndBound);
      std::uint64_t SeqNext = ChunkStart + ChunkNext;
      std::uint64_t Remaining = Chunk.size() - ChunkNext;
      // Give-back is only history-consistent when the unstarted items
      // are the contiguous tail of the claim space: then this worker's
      // pulls were the source's last pulls and rewind() returns exactly
      // these items.
      bool ContigTail = ChunkStart + Chunk.size() == R.NextSeq;
      // Items at/beyond the bound must not run. Only the end of the
      // stream can cut a chunk — a pause bound is set at the claim
      // frontier, above every claimed seq.
      bool Cut = Bound != NoSeq && SeqNext >= Bound;
      // Shedding: a pausing or retiring worker hands its unstarted tail
      // back so the drain is as short as with chunk size 1 (this is what
      // keeps reconfigure latency flat as K grows).
      bool Shed = R.PauseBound != NoSeq ||
                  Slot >= R.Schedules[TaskIdx].currentWidth();
      if (((Cut || Shed) && ContigTail && R.giveBackChunk(Remaining)) ||
          Cut) {
        // Given back — or beyond end-of-stream with later claims in the
        // way, in which case the items describe iterations that do not
        // exist and are dropped.
        Chunk.clear();
        ChunkNext = 0;
        ChunkIters = 0;
      }
      if (ChunkNext < Chunk.size()) {
        if (wedgedBefore(ChunkStart + ChunkNext))
          return Action::block(WedgeHang);
        Cursor = ChunkStart + ChunkNext;
        ChunkHead = false;
        Token Item = std::move(Chunk[ChunkNext]);
        ++ChunkNext;
        return beginIteration(std::move(Item));
      }
    }

    // Recompute: a give-back above may have just clamped the bounds.
    std::uint64_t Bound = std::min(R.PauseBound, R.EndBound);
    // A head slot whose slot index fell out of the current DoP retires.
    if (Slot >= R.Schedules[TaskIdx].currentWidth())
      return finishWith(TaskStatus::Paused);
    if (Bound != NoSeq && R.NextSeq >= Bound)
      return finishWith(R.EndBound <= R.PauseBound ? TaskStatus::Complete
                                                   : TaskStatus::Paused);
    std::uint64_t K = R.chunkKFor(TaskIdx);
    if (Bound != NoSeq)
      K = std::min(K, Bound - R.NextSeq);
    Chunk.clear();
    ChunkNext = 0;
    switch (R.Source.tryPullChunk(std::max<std::uint64_t>(K, 1), Chunk)) {
    case WorkSource::Pull::Wait:
      // Going idle: opportunistically push out batched tokens first so
      // downstream is not starved by a quiet source (at most one pass
      // per idle episode; the pass never blocks on a full window).
      if (!IdleFlushDone && anyBuffered()) {
        IdleFlushDone = true;
        FlushResume = State::Fetch;
        FlushAll = true;
        St = State::Send;
        NextOut = 0;
        return Action::compute(0);
      }
      IdleFlushDone = false;
      LastWait = WaitKind::Source;
      return Action::blockAny(R.Source.readyEvent(), R.BoundEvent);
    case WorkSource::Pull::End:
      if (R.EndBound == NoSeq) {
        R.EndBound = R.NextSeq;
        R.BoundEvent.notifyAll();
      }
      return finishWith(TaskStatus::Complete);
    case WorkSource::Pull::Got:
      break;
    }
    ChunkStart = R.NextSeq;
    R.NextSeq += Chunk.size();
    ChunkIters = Chunk.size();
    ChunkHead = true;
    Cursor = ChunkStart;
    // Wedge check on the fresh claim, with ChunkNext still 0: the whole
    // chunk is unstarted.
    if (wedgedBefore(ChunkStart))
      return Action::block(WedgeHang);
    Token Item = std::move(Chunk.front());
    ChunkNext = 1;
    return beginIteration(std::move(Item));
  }

  std::uint64_t Bound = std::min(R.PauseBound, R.EndBound);
  Cursor = R.Schedules[TaskIdx].firstSeqFor(Slot, CursorFrom);
  if (Cursor == NoSeq)
    return finishWith(TaskStatus::Paused); // slot retired by DoP decrease
  if (Bound != NoSeq && Cursor >= Bound)
    return finishWith(R.EndBound <= R.PauseBound ? TaskStatus::Complete
                                                 : TaskStatus::Paused);
  // Wedge check before any token is received.
  if (wedgedBefore(Cursor))
    return Action::block(WedgeHang);
  // Non-head tasks chunk purely for cost grouping: every K-th owned
  // iteration opens a new cost group and pays the per-chunk fixed costs.
  // K is width-clamped so the group's tokens fit in half a window.
  if (ChunkIters == 0) {
    ChunkIters = R.chunkKFor(TaskIdx);
    ChunkHead = true;
  } else {
    ChunkHead = false;
  }
  InIteration = true;
  Ctx.In.clear();
  NextIn = 0;
  St = State::Recv;
  return Action::compute(0);
}

bool Worker::wedgedBefore(std::uint64_t Seq) {
  if (!Wedged && R.machine().takeWedge(T.name(), Seq))
    Wedged = true;
  if (Wedged)
    LastWait = WaitKind::None;
  return Wedged;
}

Action Worker::beginIteration(Token Item) {
  InIteration = true;
  Ctx.In.clear();
  Ctx.In.push_back(std::move(Item));
  NextIn = 0;
  assert(R.inLinks(TaskIdx).empty() && "head task cannot have in-links");
  return runFunctor(R.machine());
}

Action Worker::stepSend() {
  const RuntimeCosts &C = R.Costs;
  auto &Out = R.outLinks(TaskIdx);
  // An opportunistic pre-idle pass must not trade one block for another;
  // a finish-flush must drain and may block.
  bool BestEffort = FlushResume.has_value() && !PendingFinish;
  while (NextOut < Out.size()) {
    auto &Buf = SendBufs[NextOut];
    // Tokens at/beyond the end of the stream will never be claimed —
    // consumers drain strictly below the bound. Ascending Seq makes the
    // dead tokens a droppable suffix.
    if (R.EndBound != NoSeq)
      while (!Buf.empty() && Buf.back().Seq >= R.EndBound)
        Buf.pop_back();
    std::uint64_t FlushAt =
        std::max<std::uint64_t>(1, Out[NextOut]->window() / 2);
    bool Ripe = !Buf.empty() &&
                (FlushAll || PendingFinish || Buf.size() >= FlushAt);
    if (!Ripe) {
      ++NextOut;
      continue;
    }
    std::size_t Sent = Out[NextOut]->trySendBatch(Buf.data(), Buf.size());
    if (Sent == 0) {
      if (BestEffort) {
        ++NextOut; // window full; leave the buffer for a later pass
        continue;
      }
      LastWait = WaitKind::Channel;
      return Action::block(Out[NextOut]->spaceAvail());
    }
    Buf.erase(Buf.begin(), Buf.begin() + static_cast<std::ptrdiff_t>(Sent));
    // One batched transfer: fixed cost once, marginal cost per extra.
    sim::SimTime Cost =
        C.CommSend + static_cast<sim::SimTime>(Sent - 1) * C.CommPerToken;
    R.Stats[TaskIdx].CommTime += Cost;
    if (Buf.empty())
      ++NextOut;
    return Action::compute(Cost); // pay the transfer, continue the pass
  }
  FlushAll = false;
  if (PendingFinish) {
    TaskStatus S = *PendingFinish;
    PendingFinish.reset();
    FlushResume.reset();
    return doFinish(S);
  }
  if (FlushResume) {
    St = *FlushResume;
    FlushResume.reset();
    return Action::compute(0);
  }
  St = State::IterDone;
  return Action::compute(0);
}

Action Worker::runFunctor(sim::Machine &M) {
  const RuntimeCosts &C = R.Costs;
  // Transient fault injection: the plan says the first FailCount attempts
  // of this (task, seq) fault before the functor runs. Burn the attempt
  // cost, back off exponentially, retry. The functor only ever executes
  // on the first non-faulting attempt — exactly once per iteration.
  unsigned FailCount = 0;
  if (Transients) {
    auto It = Transients->find(Cursor);
    if (It != Transients->end())
      FailCount = It->second;
  }
  if (Attempt < FailCount) {
    ++Attempt;
    R.noteFault(TaskIdx, Cursor, Attempt);
    unsigned Shift = std::min(Attempt - 1, 16u);
    sim::SimTime Backoff =
        std::min(C.FaultRetryBackoff << Shift, C.FaultRetryBackoffMax);
    RetryAt = M.sim().now() + C.FaultAttemptCost + Backoff;
    BackoffArmed = false;
    St = State::Backoff;
    return Action::compute(C.FaultAttemptCost);
  }
  Attempt = 0;
  Ctx.Seq = Cursor;
  Ctx.Slot = Slot;
  Ctx.Now = M.sim().now();
  Ctx.Cost = 0;
  Ctx.Gang = 1;
  Ctx.EndOfStream = false;
  Ctx.Criticals.clear();
  Ctx.Out.assign(R.outLinks(TaskIdx).size(), Token{});
  for (Token &O : Ctx.Out)
    O.Seq = Cursor;

  T.Fn(Ctx);
  // The functor's side effects are now durable. For a sequential tail
  // they happened in iteration order, so the commit frontier advances
  // HERE — an abort landing between the functor and IterDone must not
  // re-execute this iteration (that would duplicate the side effects).
  if (IsTail && !T.isParallel())
    R.noteTailCommit(Cursor);

  if (Ctx.EndOfStream) {
    // The loop's own exit condition fired: no iteration beyond this one.
    assert(IsHead && "only the head task can end the stream");
    if (Cursor + 1 < R.EndBound) {
      R.EndBound = Cursor + 1;
      R.BoundEvent.notifyAll();
    }
  }

  if (T.Reduction) {
    if (C.PrivatizedReductions)
      UsedReduction = true; // local accumulation, merged at exit
    else
      Ctx.Criticals.push_back(*T.Reduction);
  }
  NextCrit = 0;
  CritHeld = false;

  // Fixed Morta/Decima machinery costs are paid once per chunk, by its
  // first iteration; at chunk size 1 every iteration is a chunk head and
  // this degenerates to the classic per-iteration accounting.
  sim::SimTime Overhead = 0;
  if (ChunkHead) {
    Overhead += C.HookCost;
    if (IsHead)
      Overhead += C.StatusQuery; // master's per-chunk get_status()
  }
  if (!C.OptimizedDataManagement) {
    Overhead += C.TaskActivation; // yield to the task-activation loop
    if (T.type() == TaskType::Seq)
      Overhead += C.HeapSpill; // save/reload cross-iteration state
  }
  sim::SimTime Total = Ctx.Cost + Overhead + PendingCost;
  PendingCost = 0;
  R.Stats[TaskIdx].ComputeTime += Ctx.Cost;
  R.Stats[TaskIdx].OverheadTime += Overhead;
  St = State::Critical;
  if (Ctx.Gang > 1)
    return Action::gangCompute(Ctx.Gang, Total);
  return Action::compute(Total);
}

Action Worker::finishWith(TaskStatus S) {
  if (anyBuffered()) {
    // Flush batched tokens first: every buffered token below the bound
    // has a consumer draining toward it.
    PendingFinish = S;
    FlushAll = true;
    St = State::Send;
    NextOut = 0;
    return Action::compute(0);
  }
  return doFinish(S);
}

Action Worker::doFinish(TaskStatus S) {
  const RuntimeCosts &C = R.Costs;
  ExitStatus = S;
  St = State::Finish;
  sim::SimTime Cost = T.FiniCost + C.BarrierCost;
  if (UsedReduction)
    Cost += C.ReduceMergeCost;
  return Action::compute(Cost);
}
