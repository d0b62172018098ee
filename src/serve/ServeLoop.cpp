//===- ServeLoop.cpp - Open-loop request broker ----------------------------===//

#include "serve/ServeLoop.h"

#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cmath>
#include <iterator>

using namespace parcae;
using namespace parcae::serve;

//===----------------------------------------------------------------------===//
// ClassTenant: one request class as seen by the platform daemon
//===----------------------------------------------------------------------===//

class ServeLoop::ClassTenant : public rt::PlatformTenant {
public:
  ClassTenant(ServeLoop &S, unsigned Idx) : S(S), Idx(Idx) {}

  const std::string &tenantName() const override {
    return S.Classes[Idx]->Desc.Name;
  }

  void onBudget(unsigned Budget, bool /*First*/) override {
    S.Classes[Idx]->Budget = std::max(1u, Budget);
    S.pump(Idx);
  }

  /// Live demand in threads: the threads the in-service runners hold
  /// (parked ones hold none) plus one Config-wide runner per batch the
  /// queued requests would form, floored at one runner (an idle class
  /// keeps enough to serve the next arrival without a round trip through
  /// the daemon).
  /// Deliberately NOT capped at the budget: demand above the budget is
  /// exactly the daemon's hunger signal.
  unsigned threadsUsed() const override {
    const ClassState &C = *S.Classes[Idx];
    std::uint64_t Per = C.Desc.Config.totalThreads();
    std::uint64_t MaxB = std::max(1u, C.Desc.Batch.MaxBatch);
    std::uint64_t Waiting = C.Queue.size();
    std::uint64_t Demand =
        std::max(C.Held + (Waiting + MaxB - 1) / MaxB * Per, Per);
    return static_cast<unsigned>(std::min<std::uint64_t>(Demand, 1u << 20));
  }

  bool wantsMore() const override {
    const ClassState &C = *S.Classes[Idx];
    return !C.Queue.empty() || C.Held > C.Budget;
  }

  bool hasSlo() const override {
    return S.Classes[Idx]->Desc.Slo.enabled();
  }
  double sloTargetSec() const override {
    return sim::toSeconds(S.Classes[Idx]->Desc.Slo.Target);
  }
  double sloLatencySec() const override {
    return S.recentLatencySec(Idx, S.Classes[Idx]->Desc.Slo.Percentile);
  }

private:
  ServeLoop &S;
  unsigned Idx;
};

//===----------------------------------------------------------------------===//
// ServeLoop
//===----------------------------------------------------------------------===//

ServeLoop::ServeLoop(sim::Machine &M, const rt::RuntimeCosts &Costs,
                     rt::PlatformDaemon &Daemon)
    : M(M), Sim(M.sim()), Costs(Costs), Daemon(Daemon) {
  Tel = telemetry::recorder();
  if (Tel) {
    TelPid = Tel->processFor("serve");
    CntAdmitted = &Tel->metrics().counter("serve.admitted");
    CntRejected = &Tel->metrics().counter("serve.rejected");
    CntShed = &Tel->metrics().counter("serve.shed");
    CntMigrated = &Tel->metrics().counter("serve.migrations");
  }
  // Proactively migrate in-flight request regions off a failure domain
  // when the machine announces it ahead of time. The listener outlives
  // nothing: the loop and the machine share the benchmark's scope, and
  // warnings only fire while the simulator runs.
  M.addDomainWarningListener(
      [this](const sim::FailureDomainEvent &D) { onDomainWarning(D); });
}

ServeLoop::~ServeLoop() {
  for (auto &C : Classes) {
    C->Arrivals.reset();
    ++C->ArrivalEpoch;
    if (C->Tenant)
      Daemon.removeTenant(*C->Tenant);
  }
}

unsigned ServeLoop::addClass(RequestClassDesc Desc) {
  assert(Desc.MakeRegion && "request class needs a region factory");
  assert(Desc.ItersPerRequest > 0 && "requests need at least one iteration");
  assert(Desc.QueueCapacity > 0 && "admit queue needs capacity");
  assert(Desc.Config.DoP.size() == 1 && Desc.Config.DoP[0] > 0 &&
         "a request class runs one task; pump() fits its DoP to the grant");
  if (!Desc.Policy)
    Desc.Policy = std::make_unique<DropTailAdmission>();

  unsigned Idx = static_cast<unsigned>(Classes.size());
  auto C = std::make_unique<ClassState>();
  C->Desc = std::move(Desc);
  C->Tenant = std::make_unique<ClassTenant>(*this, Idx);
  Classes.push_back(std::move(C));
  // Registration immediately grants a budget (onBudget -> pump).
  Daemon.addTenant(*Classes[Idx]->Tenant);
  return Idx;
}

void ServeLoop::startArrivals(unsigned Idx,
                              std::unique_ptr<ArrivalProcess> A) {
  assert(Idx < Classes.size() && A && "bad arrival registration");
  ClassState &C = *Classes[Idx];
  C.Arrivals = std::move(A);
  ++C.ArrivalEpoch;
  scheduleArrival(Idx);
}

void ServeLoop::stopArrivals(unsigned Idx) {
  assert(Idx < Classes.size());
  Classes[Idx]->Arrivals.reset();
  ++Classes[Idx]->ArrivalEpoch;
}

void ServeLoop::scheduleArrival(unsigned Idx) {
  ClassState &C = *Classes[Idx];
  std::optional<sim::SimTime> D = C.Arrivals->nextDelay(Sim.now());
  if (!D) {
    C.Arrivals.reset(); // a finite trace ended
    return;
  }
  std::uint64_t Epoch = C.ArrivalEpoch;
  Sim.schedule(*D, [this, Idx, Epoch] {
    ClassState &C = *Classes[Idx];
    if (Epoch != C.ArrivalEpoch || !C.Arrivals)
      return; // stopArrivals()/startArrivals() superseded this event
    arrive(Idx);
    scheduleArrival(Idx);
  });
}

bool ServeLoop::inject(unsigned Idx) {
  assert(Idx < Classes.size());
  std::uint64_t Admitted = Classes[Idx]->Stats.Admitted;
  arrive(Idx);
  return Classes[Idx]->Stats.Admitted != Admitted;
}

void ServeLoop::arrive(unsigned Idx) {
  ClassState &C = *Classes[Idx];
  ++C.Stats.Arrived;
  auto Req = std::make_shared<ServeRequest>();
  Req->Id = NextId++;
  Req->ClassIdx = Idx;
  Req->ArrivedAt = Sim.now();
  if (!C.Desc.Policy->admit(*Req, C.Queue.size(), C.Desc.QueueCapacity)) {
    ++C.Stats.Rejected;
    if (CntRejected)
      CntRejected->add();
    // Rejected requests finish here: mark and finalize them so
    // per-request observers see every arrival's outcome (shed requests
    // already flow through finalize; silently dropping rejections made
    // observers undercount).
    Req->Rejected = true;
    finalize(Idx, *Req);
    return;
  }
  ++C.Stats.Admitted;
  if (CntAdmitted)
    CntAdmitted->add();
  C.Queue.push_back(std::move(Req));
  pump(Idx);
  // The request had to queue: report the backlog now, so threads no
  // class is using reach this one within the arrival, not at the next
  // arbiter tick.
  if (!C.Queue.empty())
    Daemon.reportDemand();
}

void ServeLoop::pump(unsigned Idx) {
  if (DrainActive)
    return; // dispatch held: finishDrain() pumps every class
  ClassState &C = *Classes[Idx];
  unsigned Per = C.Desc.Config.totalThreads();
  // Work-conserving: while the grant has room for a Config-wide runner
  // (or the class runs nothing) and requests wait, the backlog present
  // now starts at once as one region. Batch size follows the backlog — a
  // singleton on an idle class, MaxBatch under saturation — and no
  // thread of the grant sits idle waiting for a batch to fill. Widths
  // fit the grant: the last runner it allows absorbs the remainder that
  // cannot form another (15 -> 2+2+2+2+2+2+3), and a grant narrower than
  // Config runs one runner that narrow. The oldest parked runner of
  // exactly that width takes the batch instead of a new region; only an
  // exact match, so the grant stays fitted.
  while (!C.Queue.empty()) {
    unsigned Free = C.Budget > C.Held ? C.Budget - C.Held : 0;
    if (Free < Per && !C.Active.empty())
      break;
    unsigned Width = Free < 2 * Per ? Free : Per;
    if (Width < C.Parked.size() && !C.Parked[Width].empty()) {
      wake(Idx, *C.Parked[Width].front());
      continue;
    }
    std::deque<std::shared_ptr<ServeRequest>> B;
    if (takeBatch(Idx, B) > 0)
      dispatch(Idx, std::move(B), Width);
  }
}

std::size_t
ServeLoop::takeBatch(unsigned Idx,
                     std::deque<std::shared_ptr<ServeRequest>> &Out) {
  ClassState &C = *Classes[Idx];
  unsigned MaxB = std::max(1u, C.Desc.Batch.MaxBatch);
  std::size_t Taken = 0;
  while (Taken < MaxB && !C.Queue.empty()) {
    std::shared_ptr<ServeRequest> Req = std::move(C.Queue.front());
    C.Queue.pop_front();
    if (C.Desc.Policy->shedAtDispatch(*Req, Sim.now())) {
      Req->Shed = true;
      ++C.Stats.Shed;
      if (CntShed)
        CntShed->add();
      finalize(Idx, *Req);
      continue;
    }
    Req->StartedAt = Sim.now();
    Out.push_back(std::move(Req));
    ++Taken;
  }
  return Taken;
}

void ServeLoop::recordBatch(unsigned Idx, std::size_t Size, bool InPlace) {
  ClassState &C = *Classes[Idx];
  if (InPlace)
    ++C.BStats.InPlaceBatches;
  else
    ++C.BStats.Batches;
  C.BStats.BatchedRequests += Size;
  C.BStats.OccupancyH.add(static_cast<double>(Size));
  if (Size >= C.Desc.Batch.MaxBatch)
    ++C.BStats.SizeCloses;
  // Trace only real coalescing: a singleton-per-request stream would
  // double the unbatched trace volume for no information.
  if (C.Desc.Batch.enabled())
    PARCAE_TRACE(Tel,
                 instant(TelPid, 0, "serve", "batch_close",
                         {telemetry::TraceArg::str("class", C.Desc.Name),
                          telemetry::TraceArg::num("size", Size),
                          telemetry::TraceArg::num("in_place", InPlace)}));
}

void ServeLoop::dispatch(unsigned Idx,
                         std::deque<std::shared_ptr<ServeRequest>> B,
                         unsigned Width) {
  ClassState &C = *Classes[Idx];
  assert(!B.empty() && "dispatching an empty batch");
  recordBatch(Idx, B.size(), /*InPlace=*/false);
  auto F = std::make_unique<InFlight>(C.Desc.MakeRegion(*B.front()));
  F->Members = std::move(B);
  F->Source = std::make_unique<rt::CountedWorkSource>(
      C.Desc.ItersPerRequest * F->Members.size());
  F->Runner =
      std::make_unique<rt::RegionRunner>(M, Costs, F->Region, *F->Source);
  InFlight *Fp = F.get();
  F->Runner->OnComplete = [this, Idx, Fp] { finish(Idx, Fp); };
  // A batching class's runner may take more batches in place, so it
  // needs the refill hook and per-member watermarks even when it starts
  // as a singleton; an unbatched class keeps one region per request and
  // its hot path free of the per-retirement callback.
  if (C.Desc.Batch.enabled()) {
    Fp->Source->Refill = [this, Idx, Fp] { refill(Idx, Fp); };
    F->Runner->OnProgress = [this, Idx, Fp](std::uint64_t Retired) {
      onBatchProgress(Idx, Fp, Retired);
    };
  }
  F->Threads = Width;
  C.Held += Width;
  C.Active.push_back(std::move(F));
  Fp->Pos = std::prev(C.Active.end());
  Fp->Serial = NextSerial++;
  rt::RegionConfig Cfg = C.Desc.Config;
  Cfg.DoP[0] = Width;
  Fp->Runner->start(std::move(Cfg));
}

void ServeLoop::refill(unsigned Idx, InFlight *F) {
  // Called from inside a worker's pull, at the instant the runner's work
  // runs dry. Taking the next batch here keeps the region and its warm
  // workers: no new region, thread spawn or context load. With nothing
  // to take, the runner steals from a sibling, and with nothing to steal
  // it parks, keeping its workers for a later batch. Three cases refuse
  // all three, so the runner drains and is reaped as before:
  //  * a domain drain holds dispatch;
  //  * the class holds more than its grant: a shrunk grant must get its
  //    threads back;
  //  * requests queue and the grant has a remainder below one runner's
  //    width: only pump's re-fitted runner can use it (warm 2-wide
  //    runners would otherwise hold a 15-thread grant as 14 for as long
  //    as the backlog lasts).
  // A parked runner's other workers land here too: they keep its hold
  // and block. A closed runner's workers pull End.
  if (F->State != InFlight::Phase::Active)
    return;
  ClassState &C = *Classes[Idx];
  if (DrainActive || C.Held > C.Budget)
    return;
  unsigned Free = C.Budget - C.Held;
  if (!C.Queue.empty() && Free > 0 && Free < C.Desc.Config.totalThreads())
    return;
  std::size_t Taken = takeBatch(Idx, F->Members);
  if (Taken == 0) {
    // Nothing queued, or every request popped was shed.
    if (!steal(Idx, F))
      park(Idx, F);
    return;
  }
  recordBatch(Idx, Taken, /*InPlace=*/true);
  F->Source->extend(C.Desc.ItersPerRequest * Taken);
  // The runner's last member so far waited for the runner's completion;
  // no longer last, it completes now if its watermark already passed.
  onBatchProgress(Idx, F, F->Runner->totalRetired());
}

bool ServeLoop::steal(unsigned Idx, InFlight *F) {
  // A runner's members cover consecutive iteration ranges in deque order,
  // and its workers claim iterations in order, so its unclaimed members
  // are the last remaining() / ItersPerRequest of its deque, oldest
  // first. The victim holds the class's oldest unclaimed member; the
  // thief, whose work ran dry, takes the oldest half of the victim's
  // unclaimed members, rounded up, onto the end of its own. Both keep
  // consecutive ranges, so watermark attribution is unchanged, and no
  // member with a claimed iteration moves.
  ClassState &C = *Classes[Idx];
  std::uint64_t Per = C.Desc.ItersPerRequest;
  InFlight *Victim = nullptr;
  std::size_t U = 0; // the victim's unclaimed members
  sim::SimTime OldestAt = 0;
  for (const auto &R : C.Active) {
    auto RU = static_cast<std::size_t>(R->Source->remaining() / Per);
    assert(RU <= R->Members.size() && "more unclaimed iterations than members");
    if (RU == 0)
      continue;
    sim::SimTime At = R->Members[R->Members.size() - RU]->ArrivedAt;
    if (!Victim || At < OldestAt) {
      Victim = R.get();
      U = RU;
      OldestAt = At;
    }
  }
  if (!Victim)
    return false;
  // The thief's own work ran dry, so it is never the victim.
  std::size_t Take = (U + 1) / 2;
  [[maybe_unused]] bool Shrunk = Victim->Source->shrink(Per * Take);
  assert(Shrunk && Victim != F && "stole claimed iterations");
  auto From = Victim->Members.end() - static_cast<std::ptrdiff_t>(U);
  auto To = From + static_cast<std::ptrdiff_t>(Take);
  F->Members.insert(F->Members.end(), std::make_move_iterator(From),
                    std::make_move_iterator(To));
  Victim->Members.erase(From, To);
  F->Source->extend(Per * Take);
  ++C.BStats.Steals;
  C.BStats.StolenRequests += Take;
  PARCAE_TRACE(Tel, instant(TelPid, 0, "serve", "steal",
                            {telemetry::TraceArg::str("class", C.Desc.Name),
                             telemetry::TraceArg::num("members", Take),
                             telemetry::TraceArg::num("victim", Victim->Serial),
                             telemetry::TraceArg::num("thief", F->Serial)}));
  // As after a refill: the thief's last member so far is no longer last.
  onBatchProgress(Idx, F, F->Runner->totalRetired());
  return true;
}

void ServeLoop::park(unsigned Idx, InFlight *F) {
  // Called from inside the pull that found the work done; the hold makes
  // that pull, and every later one, return Wait. The threads leave Held
  // at once, while another worker may still run the last member's final
  // iterations: the grant gets them back as the runner goes idle.
  ClassState &C = *Classes[Idx];
  F->Source->hold();
  C.Held -= F->Threads;
  if (C.Parked.size() <= F->Threads)
    C.Parked.resize(F->Threads + 1);
  // Oldest first, so the same few runners keep taking the work and the
  // rest stay parked.
  RunnerList &Bucket = C.Parked[F->Threads];
  auto At = Bucket.begin();
  while (At != Bucket.end() && (*At)->Serial < F->Serial)
    ++At;
  Bucket.splice(At, C.Active, F->Pos);
  F->State = InFlight::Phase::Parked;
  // Parked, the runner never completes: its last member completes at its
  // watermark, now if that has already passed.
  onBatchProgress(Idx, F, F->Runner->totalRetired());
}

void ServeLoop::wake(unsigned Idx, InFlight &F) {
  ClassState &C = *Classes[Idx];
  std::size_t Taken = takeBatch(Idx, F.Members);
  if (Taken == 0)
    return; // every request popped was shed: the queue is empty
  recordBatch(Idx, Taken, /*InPlace=*/true);
  ++C.BStats.Wakes;
  C.Active.splice(C.Active.end(), C.Parked[F.Threads], F.Pos);
  F.State = InFlight::Phase::Active;
  C.Held += F.Threads;
  F.Source->extend(C.Desc.ItersPerRequest * Taken);
  // Last: the blocked workers may run at once, inside this call.
  F.Source->release();
}

void ServeLoop::onBatchProgress(unsigned Idx, InFlight *F,
                                std::uint64_t Retired) {
  // The runner's k-th member is complete once it retired (k + 1) x
  // iters-per-request iterations. An active runner's last member waits
  // for the runner's own completion (which includes the final drain) or
  // for a refill to queue members behind it, matching the singleton
  // path; a parked runner never completes, so its last member completes
  // at its watermark too. Crossings are idempotent: an abortive recovery
  // may replay iterations and repeat watermarks, but Attributed only
  // advances.
  const ClassState &C = *Classes[Idx];
  std::uint64_t Per = C.Desc.ItersPerRequest;
  std::size_t Keep = F->State == InFlight::Phase::Active ? 1 : 0;
  while (F->Members.size() > Keep && Retired >= (F->Attributed + 1) * Per) {
    completeMember(Idx, *F->Members.front());
    F->Members.pop_front();
    ++F->Attributed;
  }
}

void ServeLoop::completeMember(unsigned Idx, ServeRequest &R) {
  ClassState &C = *Classes[Idx];
  R.CompletedAt = Sim.now();

  double QueueUs = static_cast<double>(R.StartedAt - R.ArrivedAt) / 1e3;
  double ServiceUs = static_cast<double>(R.CompletedAt - R.StartedAt) / 1e3;
  C.Stats.QueueWaitUs.add(QueueUs);
  C.Stats.ServiceUs.add(ServiceUs);
  C.Stats.TotalUs.add(QueueUs + ServiceUs);
  ++C.Stats.Completed;
  if (C.Desc.Slo.enabled() && R.totalLatency() > C.Desc.Slo.Target)
    ++C.Stats.SloViolations;

  C.RecentSec.emplace_back(
      R.CompletedAt, C.RecentRanked.insert(sim::toSeconds(R.totalLatency())));
  while (C.RecentSec.size() > ClassState::RecentCap ||
         (!C.RecentSec.empty() &&
          C.RecentSec.front().first + ClassState::RecentWindow <
              R.CompletedAt))
    C.dropOldestRecent();

  finalize(Idx, R);
}

void ServeLoop::finish(unsigned Idx, InFlight *F) {
  ClassState &C = *Classes[Idx];
  // Everything the watermarks did not already attribute — always at
  // least the last member — completes with the runner.
  for (const auto &Req : F->Members)
    completeMember(Idx, *Req);
  F->Members.clear();

  // OnComplete fires from inside the runner's own execution: move the
  // whole in-flight record to the reap list and destroy it (and refill
  // the freed threads) one event later. A held source never ends, so
  // only an active or a closed parked runner completes.
  assert(F->State != InFlight::Phase::Parked && "a parked runner completed");
  if (F->State == InFlight::Phase::Active) {
    C.Held -= F->Threads;
    Reap.splice(Reap.end(), C.Active, F->Pos);
  } else {
    Reap.splice(Reap.end(), C.Closing, F->Pos);
    // A domain drain waits for the runners it closed.
    Sim.schedule(0, [this] { drainStepDone(); });
  }
  if (!ReapScheduled) {
    ReapScheduled = true;
    Sim.schedule(0, [this] {
      ReapScheduled = false;
      Reap.clear();
      for (unsigned I = 0; I < Classes.size(); ++I)
        pump(I);
    });
  }
}

void ServeLoop::onDomainWarning(const sim::FailureDomainEvent &D) {
  if (DrainActive) {
    // A second domain warned while the first drain is still quiescing.
    // Dropping it would leave that domain's cores busy when they fail;
    // queue it and run the drain back-to-back from finishDrain().
    PendingWarnings.push_back(D);
    return;
  }
  DrainActive = true;
  DrainStartAt = Sim.now();
  DrainCores = D.Cores;
  DrainMigrations.clear();
  DrainPending = 0;
  PARCAE_TRACE(
      Tel, instant(TelPid, 0, "serve", "serve_drain",
                   {telemetry::TraceArg::str("domain", D.Name),
                    telemetry::TraceArg::num("cores", D.Cores.size())}));
  // Close every parked runner first: released, it pulls End, completes
  // with no member left to migrate and is reaped, so none can wake onto
  // the doomed domain. The drain waits for each, since a worker may still
  // be running its last member's final iterations on a doomed core.
  // Released last: a released runner may complete inside release().
  std::vector<InFlight *> Closed;
  for (auto &C : Classes)
    for (RunnerList &Bucket : C->Parked) {
      for (auto &FP : Bucket) {
        FP->State = InFlight::Phase::Closing;
        Closed.push_back(FP.get());
      }
      C->Closing.splice(C->Closing.end(), Bucket);
    }
  DrainPending += static_cast<unsigned>(Closed.size());
  for (InFlight *F : Closed)
    F->Source->release();
  // Checkpoint every in-flight request region. Suspended runners hold no
  // thread, so once the last one quiesces the doomed cores are idle.
  for (unsigned Idx = 0; Idx < Classes.size(); ++Idx) {
    for (auto &FP : Classes[Idx]->Active) {
      InFlight *F = FP.get();
      bool Ok = F->Runner->requestCheckpoint(
          [this, Idx, F](const rt::RunnerCheckpoint *CP) {
            if (CP)
              DrainMigrations.push_back({Idx, F, *CP});
            // else: completed before quiescing — reaped normally.
            drainStepDone();
          });
      if (Ok)
        ++DrainPending;
    }
  }
  if (DrainPending == 0)
    finishDrain();
}

void ServeLoop::drainStepDone() {
  assert(DrainPending > 0);
  if (--DrainPending == 0)
    finishDrain();
}

void ServeLoop::finishDrain() {
  // Everything is quiesced: retire the doomed cores with nothing running
  // on them, then resume each suspended request where it left off.
  for (unsigned Core : DrainCores)
    M.offlineCore(Core);
  for (MigratingRequest &Mg : DrainMigrations) {
    Mg.F->Runner->resume(Mg.CP.Config, Mg.CP.Cursor);
    // A migrated runner carries every still-unfinished member request;
    // the instant names the oldest of them. A runner whose only member
    // was stolen before its workers claimed any of it carries none.
    if (Mg.F->Members.empty())
      continue;
    Migrations += Mg.F->Members.size();
    if (CntMigrated)
      CntMigrated->add();
    PARCAE_TRACE(
        Tel, instant(TelPid, 0, "serve", "migrate",
                     {telemetry::TraceArg::str("class",
                                               Classes[Mg.ClassIdx]->Desc.Name),
                      telemetry::TraceArg::num("request",
                                               Mg.F->Members.front()->Id),
                      telemetry::TraceArg::num("members",
                                               Mg.F->Members.size()),
                      telemetry::TraceArg::num("cursor", Mg.CP.Cursor)}));
  }
  ++DrainsCompleted;
  PARCAE_TRACE(
      Tel,
      instant(TelPid, 0, "serve", "serve_drain_done",
              {telemetry::TraceArg::num("migrated", DrainMigrations.size()),
               telemetry::TraceArg::num(
                   "latency_us",
                   sim::toSeconds(Sim.now() - DrainStartAt) * 1e6)}));
  if (Tel)
    Tel->metrics()
        .histogram("serve.drain_latency_us")
        .add(sim::toSeconds(Sim.now() - DrainStartAt) * 1e6);
  DrainMigrations.clear();
  DrainCores.clear();
  DrainActive = false;
  if (!PendingWarnings.empty()) {
    // A warning arrived mid-drain: start its drain immediately instead
    // of pumping, so nothing new lands on the next doomed domain.
    sim::FailureDomainEvent Next = std::move(PendingWarnings.front());
    PendingWarnings.pop_front();
    onDomainWarning(Next);
    return;
  }
  for (unsigned I = 0; I < Classes.size(); ++I)
    pump(I);
}

void ServeLoop::finalize(unsigned Idx, const ServeRequest &R) {
  (void)Idx;
  if (OnRequestDone)
    OnRequestDone(R);
}

const ServeLoop::ClassStats &ServeLoop::stats(unsigned Idx) const {
  assert(Idx < Classes.size());
  return Classes[Idx]->Stats;
}

std::size_t ServeLoop::queueDepth(unsigned Idx) const {
  assert(Idx < Classes.size());
  return Classes[Idx]->Queue.size();
}

unsigned ServeLoop::inService(unsigned Idx) const {
  assert(Idx < Classes.size());
  return static_cast<unsigned>(Classes[Idx]->Active.size());
}

unsigned ServeLoop::parkedRunners(unsigned Idx) const {
  assert(Idx < Classes.size());
  std::size_t N = 0;
  for (const RunnerList &Bucket : Classes[Idx]->Parked)
    N += Bucket.size();
  return static_cast<unsigned>(N);
}

unsigned ServeLoop::budgetOf(unsigned Idx) const {
  assert(Idx < Classes.size());
  return Classes[Idx]->Budget;
}

unsigned ServeLoop::threadsHeld(unsigned Idx) const {
  assert(Idx < Classes.size());
  return Classes[Idx]->Held;
}

double ServeLoop::recentLatencySec(unsigned Idx, double P) const {
  assert(Idx < Classes.size());
  const ClassState &C = *Classes[Idx];
  while (!C.RecentSec.empty() &&
         C.RecentSec.front().first + ClassState::RecentWindow < Sim.now())
    C.dropOldestRecent();
  double Lat = C.RecentSec.empty() ? -1.0 : C.RecentRanked.percentile(P);
  // Floor by the head-of-line wait: when requests wait faster than they
  // finish, the queue itself is the latency signal.
  if (!C.Queue.empty())
    Lat = std::max(Lat,
                   sim::toSeconds(Sim.now() - C.Queue.front()->ArrivedAt));
  return Lat;
}

const BatchStats &ServeLoop::batchStats(unsigned Idx) const {
  assert(Idx < Classes.size());
  return Classes[Idx]->BStats;
}

std::uint64_t ServeLoop::inFlightRequests(unsigned Idx) const {
  assert(Idx < Classes.size());
  const ClassState &C = *Classes[Idx];
  std::uint64_t N = 0;
  auto Count = [&N](const RunnerList &L) {
    for (const auto &F : L)
      N += F->Members.size();
  };
  Count(C.Active);
  for (const RunnerList &Bucket : C.Parked)
    Count(Bucket);
  Count(C.Closing);
  return N;
}
