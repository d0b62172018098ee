//===- ServeLoop.cpp - Open-loop request broker ----------------------------===//

#include "serve/ServeLoop.h"

#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cmath>

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

  /// Live demand in threads: in-service batches plus the runners the
  /// queued requests would need once coalesced, each worth one runner
  /// configuration, floored at one runner (an idle class keeps enough
  /// to serve the next arrival without a round trip through the daemon).
  /// Deliberately NOT capped at the budget: demand above the budget is
  /// exactly the daemon's hunger signal.
  unsigned threadsUsed() const override {
    const ClassState &C = *S.Classes[Idx];
    std::uint64_t Per = std::max(1u, C.Desc.Config.totalThreads());
    std::uint64_t MaxB = std::max(1u, C.Desc.Batch.MaxBatch);
    std::uint64_t Waiting = C.Queue.size();
    std::uint64_t Runners = C.Active.size() + (Waiting + MaxB - 1) / MaxB;
    std::uint64_t Demand = std::max(Runners * Per, Per);
    return static_cast<unsigned>(std::min<std::uint64_t>(Demand, 1u << 20));
  }

  bool wantsMore() const override {
    const ClassState &C = *S.Classes[Idx];
    unsigned Per = std::max(1u, C.Desc.Config.totalThreads());
    return !C.Queue.empty() ||
           C.Active.size() * static_cast<std::uint64_t>(Per) > C.Budget;
  }

  bool hasSlo() const override {
    return S.Classes[Idx]->Desc.Slo.enabled();
  }
  double sloTargetSec() const override {
    return sim::toSeconds(S.Classes[Idx]->Desc.Slo.Target);
  }
  double sloPercentile() const override {
    return S.Classes[Idx]->Desc.Slo.Percentile;
  }
  double sloLatencySec() const override {
    return S.recentLatencySec(Idx, sloPercentile());
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
}

unsigned ServeLoop::slotsFor(const ClassState &C) const {
  unsigned Per = std::max(1u, C.Desc.Config.totalThreads());
  return std::max(1u, C.Budget / Per);
}

void ServeLoop::pump(unsigned Idx) {
  if (DrainActive)
    return; // dispatch held: finishDrain() pumps every class
  ClassState &C = *Classes[Idx];
  unsigned MaxB = std::max(1u, C.Desc.Batch.MaxBatch);
  // Work-conserving: while a runner slot is free and requests wait, the
  // backlog present now starts at once as one region. Batch size follows
  // the backlog — a singleton on an idle class, MaxB under saturation —
  // and no slot ever sits empty waiting for a batch to fill.
  while (!C.Queue.empty() && C.Active.size() < slotsFor(C)) {
    std::vector<std::shared_ptr<ServeRequest>> B;
    while (B.size() < MaxB && !C.Queue.empty()) {
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
      B.push_back(std::move(Req));
    }
    if (!B.empty())
      dispatch(Idx, std::move(B));
  }
}

void ServeLoop::dispatch(unsigned Idx,
                         std::vector<std::shared_ptr<ServeRequest>> B) {
  ClassState &C = *Classes[Idx];
  assert(!B.empty() && "dispatching an empty batch");
  ++C.BStats.Batches;
  C.BStats.BatchedRequests += B.size();
  C.BStats.OccupancyH.add(static_cast<double>(B.size()));
  if (B.size() >= C.Desc.Batch.MaxBatch)
    ++C.BStats.SizeCloses;
  // Trace only real coalescing: a singleton-per-request stream would
  // double the unbatched trace volume for no information.
  if (C.Desc.Batch.enabled())
    PARCAE_TRACE(Tel,
                 instant(TelPid, 0, "serve", "batch_close",
                         {telemetry::TraceArg::str("class", C.Desc.Name),
                          telemetry::TraceArg::num("size", B.size())}));
  for (auto &Req : B)
    Req->StartedAt = Sim.now();
  auto F = std::make_unique<InFlight>(C.Desc.MakeRegion(*B.front()));
  F->Members = std::move(B);
  F->Source = std::make_unique<rt::CountedWorkSource>(
      C.Desc.ItersPerRequest * F->Members.size());
  F->Runner =
      std::make_unique<rt::RegionRunner>(M, Costs, F->Region, *F->Source);
  InFlight *Fp = F.get();
  F->Runner->OnComplete = [this, Idx, Fp] { finish(Idx, Fp); };
  // Watermark attribution only matters for real batches; singletons
  // keep the hot path free of the per-retirement callback.
  if (Fp->Members.size() > 1)
    F->Runner->OnProgress = [this, Idx, Fp](std::uint64_t Retired) {
      onBatchProgress(Idx, Fp, Retired);
    };
  C.Active.push_back(std::move(F));
  Fp->Runner->start(C.Desc.Config);
}

void ServeLoop::onBatchProgress(unsigned Idx, InFlight *F,
                                std::uint64_t Retired) {
  // Member i is complete once the batch retired (i + 1) x iters-per-
  // request iterations. The last member waits for the runner's own
  // completion (which includes the final drain), matching the singleton
  // path. Crossings are idempotent: an abortive recovery may replay
  // iterations and repeat watermarks, but Attributed only advances.
  const ClassState &C = *Classes[Idx];
  std::uint64_t Per = C.Desc.ItersPerRequest;
  while (F->Attributed + 1 < F->Members.size() &&
         Retired >= (F->Attributed + 1) * Per) {
    completeMember(Idx, *F->Members[F->Attributed]);
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

  C.RecentSec.emplace_back(R.CompletedAt, sim::toSeconds(R.totalLatency()));
  while (C.RecentSec.size() > ClassState::RecentCap ||
         (!C.RecentSec.empty() &&
          C.RecentSec.front().first + ClassState::RecentWindow <
              R.CompletedAt))
    C.RecentSec.pop_front();
  C.RecentDirty = true;

  finalize(Idx, R);
}

void ServeLoop::finish(unsigned Idx, InFlight *F) {
  ClassState &C = *Classes[Idx];
  // Everything the watermarks did not already attribute — always at
  // least the last member — completes with the runner.
  for (std::size_t I = F->Attributed; I < F->Members.size(); ++I)
    completeMember(Idx, *F->Members[I]);
  F->Attributed = F->Members.size();

  // OnComplete fires from inside the runner's own execution: move the
  // whole in-flight record to the reap list and destroy it (and refill
  // the freed slot) one event later.
  auto It = std::find_if(C.Active.begin(), C.Active.end(),
                         [F](const auto &P) { return P.get() == F; });
  assert(It != C.Active.end() && "completion for an unknown batch");
  Reap.push_back(std::move(*It));
  C.Active.erase(It);
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
            assert(DrainPending > 0);
            if (--DrainPending == 0)
              finishDrain();
          });
      if (Ok)
        ++DrainPending;
    }
  }
  if (DrainPending == 0)
    finishDrain();
}

void ServeLoop::finishDrain() {
  // Everything is quiesced: retire the doomed cores with nothing running
  // on them, then resume each suspended request where it left off.
  for (unsigned Core : DrainCores)
    M.offlineCore(Core);
  for (MigratingRequest &Mg : DrainMigrations) {
    Mg.F->Runner->resume(Mg.CP.Config, Mg.CP.Cursor);
    // A migrated batch carries every still-unfinished member request.
    Migrations += Mg.F->Members.size() - Mg.F->Attributed;
    if (CntMigrated)
      CntMigrated->add();
    PARCAE_TRACE(
        Tel, instant(TelPid, 0, "serve", "migrate",
                     {telemetry::TraceArg::str("class",
                                               Classes[Mg.ClassIdx]->Desc.Name),
                      telemetry::TraceArg::num("request",
                                               Mg.F->Members.front()->Id),
                      telemetry::TraceArg::num("members",
                                               Mg.F->Members.size() -
                                                   Mg.F->Attributed),
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

const std::string &ServeLoop::className(unsigned Idx) const {
  assert(Idx < Classes.size());
  return Classes[Idx]->Desc.Name;
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

unsigned ServeLoop::budgetOf(unsigned Idx) const {
  assert(Idx < Classes.size());
  return Classes[Idx]->Budget;
}

double ServeLoop::recentLatencySec(unsigned Idx, double P) const {
  assert(Idx < Classes.size());
  const ClassState &C = *Classes[Idx];
  while (!C.RecentSec.empty() &&
         C.RecentSec.front().first + ClassState::RecentWindow < Sim.now()) {
    C.RecentSec.pop_front();
    C.RecentDirty = true;
  }
  double Lat = -1.0;
  if (!C.RecentSec.empty()) {
    // The arbiter probes every tick. Select only when the window changed
    // (or a different percentile is asked for): a linear nth_element
    // over a scratch copy, not a sort — the percentile is nearest-rank,
    // so selection returns the same value (pinned by
    // recentProbeSelections()).
    if (C.RecentDirty || P != C.RecentP) {
      C.RecentScratch.clear();
      for (const auto &E : C.RecentSec)
        C.RecentScratch.push_back(E.second);
      C.RecentValue = selectPercentile(C.RecentScratch, P);
      C.RecentP = P;
      C.RecentDirty = false;
      ++C.RecentSelections;
    }
    Lat = C.RecentValue;
  }
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
  std::uint64_t N = 0;
  for (const auto &F : Classes[Idx]->Active)
    N += F->Members.size() - F->Attributed;
  return N;
}

std::uint64_t ServeLoop::recentProbeSelections(unsigned Idx) const {
  assert(Idx < Classes.size());
  return Classes[Idx]->RecentSelections;
}
