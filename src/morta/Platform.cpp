//===- Platform.cpp - Platform-wide Morta daemon ---------------------------===//

#include "morta/Platform.h"

#include <algorithm>

using namespace parcae::rt;

namespace {
// Tunables of the SLO arbitration pass.
/// A donor with an SLO must sit at or below this fraction of its target
/// to give a thread away (headroom so the transfer does not immediately
/// create a second violator).
constexpr double DonorHeadroom = 0.75;
/// A tenant that gained SLO budget returns it once its latency falls to
/// or below this fraction of its target (load dropped).
constexpr double ReturnHeadroom = 0.5;
/// Minimum budget any tenant is left with after donating.
constexpr unsigned MinBudget = 1;
} // namespace

PlatformTenant::~PlatformTenant() = default;

/// Adapts a RegionController to the tenant interface. The adapter owns
/// the controller's OnOptimized hook for the registration's lifetime and
/// caches the last reported thread need, so the daemon's polling path
/// sees exactly what Algorithm 5's event-driven path reported.
class PlatformDaemon::ControllerTenant : public PlatformTenant {
public:
  ControllerTenant(PlatformDaemon &D, RegionController &C)
      : D(D), C(C), Name(C.runner().region().name()) {
    C.OnOptimized = [this](unsigned Used) {
      LastReported = Used;
      this->D.onOptimized(this, Used);
    };
  }
  ~ControllerTenant() override { C.OnOptimized = nullptr; }

  const std::string &tenantName() const override { return Name; }

  void onBudget(unsigned Budget, bool First) override {
    // Start the newcomer under its assigned budget; re-budget on every
    // later grant.
    if (First && C.state() == CtrlState::Init && C.threadBudget() == 1 &&
        C.trace().empty())
      C.start(Budget);
    else
      C.setThreadBudget(Budget);
  }

  unsigned threadsUsed() const override { return LastReported; }
  bool wantsMore() const override { return C.budgetLimited(); }

  RegionController &ctrl() { return C; }

private:
  PlatformDaemon &D;
  RegionController &C;
  std::string Name;
  unsigned LastReported = 0;
};

PlatformDaemon::PlatformDaemon(unsigned TotalThreads)
    : TotalThreads(TotalThreads) {
  assert(TotalThreads >= 1 && "platform needs at least one thread");
  Tel = telemetry::recorder();
  if (Tel) {
    TelPid = Tel->processFor("platform");
    Tel->nameThread(TelPid, 0, "daemon");
  }
}

PlatformDaemon::~PlatformDaemon() = default;

void PlatformDaemon::traceBudgets(const char *Why) {
  if (!Tel)
    return;
  std::vector<telemetry::TraceArg> Args;
  Args.push_back(telemetry::TraceArg::str("why", Why));
  Args.push_back(telemetry::TraceArg::num(
      "tenants", static_cast<double>(Programs.size())));
  unsigned Committed = 0;
  for (std::size_t I = 0; I < Programs.size(); ++I) {
    const std::string &Name = Programs[I].T->tenantName();
    Args.push_back(telemetry::TraceArg::num("budget:" + Name,
                                            Programs[I].Budget));
    Committed += Programs[I].Budget;
    Tel->counter(TelPid, 0, "platform", "budget:" + Name,
                 Programs[I].Budget);
  }
  Args.push_back(telemetry::TraceArg::num("committed", Committed));
  Tel->instant(TelPid, 0, "platform", "repartition", std::move(Args));
  Tel->metrics().counter("platform.repartitions").add();
}

void PlatformDaemon::registerEntry(Entry E, PlatformTenant &Newcomer) {
  Programs.push_back(E);
  partition();
  traceBudgets("add_tenant");
  for (Entry &P : Programs)
    P.T->onBudget(P.Budget, P.T == &Newcomer);
}

void PlatformDaemon::unregisterEntry(std::size_t Idx) {
  Programs.erase(Programs.begin() + static_cast<std::ptrdiff_t>(Idx));
  if (Programs.empty())
    return;
  partition();
  traceBudgets("remove_tenant");
  for (Entry &E : Programs)
    E.T->onBudget(E.Budget, false);
}

void PlatformDaemon::addProgram(RegionController &C) {
  Adapters.push_back(std::make_unique<ControllerTenant>(*this, C));
  registerEntry({Adapters.back().get(), &C, 0, 0}, *Adapters.back());
}

void PlatformDaemon::removeProgram(RegionController &C) {
  auto It = std::find_if(Programs.begin(), Programs.end(),
                         [&](const Entry &E) { return E.Ctrl == &C; });
  assert(It != Programs.end() && "program not registered");
  PlatformTenant *T = It->T;
  unregisterEntry(static_cast<std::size_t>(It - Programs.begin()));
  Adapters.erase(std::find_if(Adapters.begin(), Adapters.end(),
                              [&](const auto &A) { return A.get() == T; }));
}

void PlatformDaemon::addTenant(PlatformTenant &T) {
  registerEntry({&T, nullptr, 0, 0}, T);
}

void PlatformDaemon::removeTenant(PlatformTenant &T) {
  auto It = std::find_if(Programs.begin(), Programs.end(),
                         [&](const Entry &E) { return E.T == &T; });
  assert(It != Programs.end() && "tenant not registered");
  unregisterEntry(static_cast<std::size_t>(It - Programs.begin()));
}

unsigned PlatformDaemon::budgetOf(const RegionController &C) const {
  for (const Entry &E : Programs)
    if (E.Ctrl == &C)
      return E.Budget;
  assert(false && "program not registered");
  return 0;
}

unsigned PlatformDaemon::budgetOf(const PlatformTenant &T) const {
  for (const Entry &E : Programs)
    if (E.T == &T)
      return E.Budget;
  assert(false && "tenant not registered");
  return 0;
}

void PlatformDaemon::partition() {
  // Even split; remainder goes to the earliest-registered tenants.
  unsigned N = static_cast<unsigned>(Programs.size());
  unsigned Share = std::max(1u, TotalThreads / N);
  unsigned Rem = TotalThreads > Share * N ? TotalThreads - Share * N : 0;
  for (Entry &E : Programs) {
    E.Budget = Share + (Rem > 0 ? 1 : 0);
    if (Rem > 0)
      --Rem;
    E.Used = 0;
    E.ShrunkToFit = false;
    E.SloNet = 0;
  }
}

void PlatformDaemon::onOptimized(PlatformTenant *T, unsigned Used) {
  for (Entry &E : Programs) {
    if (E.T != T)
      continue;
    if (E.Used != Used)
      E.ShrunkToFit = false; // a genuinely new need resets the damping
    E.Used = Used;
  }
  rebalance();
}

void PlatformDaemon::rebalance() {
  // onBudget can synchronously re-enter through OnOptimized (a
  // config-cache hit reports immediately); coalesce nested requests.
  if (InRebalance) {
    RebalancePending = true;
    return;
  }
  InRebalance = true;
  unsigned Rounds = 0;
  do {
    RebalancePending = false;
    rebalanceOnce();
    assert(++Rounds < 1000 && "platform rebalance did not converge");
  } while (RebalancePending);
  InRebalance = false;
}

void PlatformDaemon::rebalanceOnce() {
  // Algorithm 5: shrink each tenant that reported needing fewer threads
  // than its budget, collect the slack, and hand it to tenants that
  // consumed their entire share (they may benefit from more).
  std::vector<Entry *> Hungry;
  unsigned Committed = 0;
  std::vector<unsigned> NewBudget(Programs.size());
  for (std::size_t I = 0; I < Programs.size(); ++I) {
    Entry &E = Programs[I];
    NewBudget[I] = E.Budget;
    if (E.Used > 0 && E.Used < E.Budget) {
      NewBudget[I] = E.Used;
      E.ShrunkToFit = true;
    }
    Committed += NewBudget[I];
    if (E.Used > 0 && E.Used >= E.Budget && E.T->wantsMore() &&
        !E.ShrunkToFit)
      Hungry.push_back(&E);
  }
  unsigned Slack = TotalThreads > Committed ? TotalThreads - Committed : 0;
  if (Slack > 0 && !Hungry.empty()) {
    unsigned Each = Slack / static_cast<unsigned>(Hungry.size());
    unsigned Rem = Slack - Each * static_cast<unsigned>(Hungry.size());
    for (Entry *E : Hungry) {
      std::size_t I = static_cast<std::size_t>(E - Programs.data());
      NewBudget[I] += Each + (Rem > 0 ? 1 : 0);
      if (Rem > 0)
        --Rem;
    }
  }
  std::vector<Entry *> Notify;
  for (std::size_t I = 0; I < Programs.size(); ++I) {
    Entry &E = Programs[I];
    if (NewBudget[I] == E.Budget)
      continue;
    bool Grew = NewBudget[I] > E.Budget;
    E.Budget = NewBudget[I];
    if (Grew) {
      E.Used = 0; // will re-report after re-optimizing with more threads
      E.ShrunkToFit = false;
    }
    Notify.push_back(&E);
  }
  if (!Notify.empty())
    traceBudgets("rebalance");
  for (Entry *E : Notify)
    E->T->onBudget(E->Budget, false);
}

void PlatformDaemon::startArbiter(sim::Simulator &Sim, sim::SimTime Period) {
  assert(Period > 0 && "arbiter period must be positive");
  if (ArbiterOn)
    return;
  ArbiterOn = true;
  ArbSim = &Sim;
  Sim.schedule(Period, [this, &Sim, Period] { arbiterTick(Sim, Period); });
}

void PlatformDaemon::arbiterTick(sim::Simulator &Sim, sim::SimTime Period) {
  if (!ArbiterOn)
    return;
  // Pull phase: refresh every tenant's reported need (controller tenants
  // return their last OPTIMIZE report, serving tenants their live
  // demand), mirroring onOptimized's damping reset.
  for (Entry &E : Programs) {
    unsigned U = E.T->threadsUsed();
    if (U != E.Used) {
      E.ShrunkToFit = false;
      E.Used = U;
    }
  }
  rebalance();
  sloRebalanceOnce();
  Sim.schedule(Period, [this, &Sim, Period] { arbiterTick(Sim, Period); });
}

void PlatformDaemon::sloRebalanceOnce() {
  if (Programs.size() < 2)
    return;
  sim::SimTime Now = ArbSim ? ArbSim->now() : 0;
  // Latency-to-target ratio per tenant; negative = no SLO or no data.
  std::vector<double> Ratio(Programs.size(), -1.0);
  for (std::size_t I = 0; I < Programs.size(); ++I) {
    const PlatformTenant *T = Programs[I].T;
    if (!T->hasSlo())
      continue;
    double Target = T->sloTargetSec();
    double Lat = T->sloLatencySec();
    assert(Target > 0 && "SLO tenant must carry a positive target");
    if (Lat >= 0)
      Ratio[I] = Lat / Target;
  }

  std::vector<Entry *> Changed;
  auto moveThread = [&](std::size_t From, std::size_t To, const char *Why) {
    Entry &D = Programs[From], &V = Programs[To];
    --D.Budget;
    ++V.Budget;
    --D.SloNet;
    ++V.SloNet;
    // The donor was shrunk by fiat, not by its own report: damp its
    // hunger so the classic pass does not immediately claw the thread
    // back; the recipient re-plans for the bigger share.
    D.ShrunkToFit = true;
    V.Used = 0;
    V.ShrunkToFit = false;
    Transfers.push_back(
        {Now, D.T->tenantName(), V.T->tenantName(), 1, Why});
    if (Tel) {
      Tel->instant(TelPid, 0, "platform", "slo_transfer",
                   {telemetry::TraceArg::str("from", D.T->tenantName()),
                    telemetry::TraceArg::str("to", V.T->tenantName()),
                    telemetry::TraceArg::str("why", Why),
                    telemetry::TraceArg::num("threads", 1)});
      Tel->metrics().counter("platform.slo_transfers").add();
    }
    if (std::find(Changed.begin(), Changed.end(), &D) == Changed.end())
      Changed.push_back(&D);
    if (std::find(Changed.begin(), Changed.end(), &V) == Changed.end())
      Changed.push_back(&V);
  };

  // Hand-back pass: a tenant that gained SLO budget and now sits
  // comfortably inside its target (load dropped) returns one thread per
  // tick to the most SLO-indebted lender.
  for (std::size_t I = 0; I < Programs.size(); ++I) {
    Entry &E = Programs[I];
    if (E.SloNet <= 0 || E.Budget <= MinBudget)
      continue;
    if (Ratio[I] < 0 || Ratio[I] > ReturnHeadroom)
      continue;
    std::size_t Lender = Programs.size();
    int MostLent = 0;
    for (std::size_t J = 0; J < Programs.size(); ++J)
      if (J != I && Programs[J].SloNet < MostLent) {
        MostLent = Programs[J].SloNet;
        Lender = J;
      }
    if (Lender < Programs.size())
      moveThread(I, Lender, "return");
  }

  // Violation pass: each SLO-violating tenant takes one thread per tick
  // from the best donor — tenants without an SLO first (they promised no
  // latency), then SLO tenants with the most headroom.
  for (std::size_t I = 0; I < Programs.size(); ++I) {
    if (Ratio[I] <= 1.0) // meeting, no data, or no SLO
      continue;
    std::size_t Donor = Programs.size();
    double DonorKey = 0;
    for (std::size_t J = 0; J < Programs.size(); ++J) {
      if (J == I || Programs[J].Budget <= MinBudget)
        continue;
      const PlatformTenant *T = Programs[J].T;
      double Key;
      if (!T->hasSlo())
        Key = -1.0; // best donors: no latency promise
      else if (Ratio[J] >= 0 && Ratio[J] <= DonorHeadroom)
        Key = Ratio[J];
      else
        continue; // violating, near target, or no data: not a donor
      if (Donor == Programs.size() || Key < DonorKey ||
          (Key == DonorKey && Programs[J].Budget > Programs[Donor].Budget))
        Donor = J, DonorKey = Key;
    }
    if (Donor < Programs.size())
      moveThread(Donor, I, "violation");
  }

  if (Changed.empty())
    return;
  traceBudgets("slo_transfer");
  // Notifications may synchronously re-enter rebalance (config-cache
  // hits report immediately); coalesce exactly like rebalance() does.
  bool Reenter = !InRebalance;
  InRebalance = true;
  for (Entry *E : Changed)
    E->T->onBudget(E->Budget, false);
  if (Reenter) {
    InRebalance = false;
    if (RebalancePending)
      rebalance();
  }
}
