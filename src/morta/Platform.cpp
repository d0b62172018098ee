//===- Platform.cpp - Platform-wide Morta daemon ---------------------------===//

#include "morta/Platform.h"

#include <algorithm>
#include <limits>

using namespace parcae::rt;

namespace {
/// Minimum budget any tenant is left with after donating.
constexpr unsigned MinBudget = 1;

/// The `why` an slo_transfer trace instant carries.
const char *reasonName(PlatformDaemon::SloReason R) {
  return R == PlatformDaemon::SloReason::Violation ? "violation" : "backlog";
}
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

void PlatformDaemon::pullDemand() {
  // Controller tenants return their last OPTIMIZE report, serving tenants
  // their live demand; mirrors onOptimized's damping reset.
  for (Entry &E : Programs) {
    unsigned U = E.T->threadsUsed();
    if (U != E.Used) {
      E.ShrunkToFit = false;
      E.Used = U;
    }
  }
}

void PlatformDaemon::reportDemand() {
  if (!ArbiterOn || InRebalance)
    return;
  pullDemand();
  rebalance("demand");
}

void PlatformDaemon::rebalance(const char *Why) {
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
    rebalanceOnce(Why);
    assert(++Rounds < 1000 && "platform rebalance did not converge");
  } while (RebalancePending);
  InRebalance = false;
}

void PlatformDaemon::rebalanceOnce(const char *Why) {
  // Algorithm 5: shrink each tenant that reported needing fewer threads
  // than its budget, collect the slack, and hand it to tenants that
  // consumed their entire share (they may benefit from more).
  Hungry.clear();
  Notify.clear();
  NewBudget.resize(Programs.size());
  unsigned Committed = 0;
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
    traceBudgets(Why);
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
  // The tick keeps its pull beside reportDemand: queued arrivals fire only
  // while some class is backlogged, so without the tick a class that
  // went idle would keep its budget until another class queues.
  pullDemand();
  rebalance();
  sloRebalanceOnce();
  Sim.schedule(Period, [this, &Sim, Period] { arbiterTick(Sim, Period); });
}

void PlatformDaemon::sloRebalanceOnce() {
  if (Programs.size() < 2)
    return;
  sim::SimTime Now = ArbSim ? ArbSim->now() : 0;
  Changed.clear();
  auto moveThread = [&](std::size_t From, std::size_t To, SloReason Why) {
    Entry &D = Programs[From], &V = Programs[To];
    --D.Budget;
    ++V.Budget;
    // The donor was shrunk by fiat, not by its own report: damp its
    // hunger so the classic pass does not immediately claw the thread
    // back; the recipient re-plans for the bigger share.
    D.ShrunkToFit = true;
    V.Used = 0;
    V.ShrunkToFit = false;
    Transfers.push_back({Now, D.T->tenantName(), V.T->tenantName(), Why});
    if (Tel) {
      Tel->instant(TelPid, 0, "platform", "slo_transfer",
                   {telemetry::TraceArg::str("from", D.T->tenantName()),
                    telemetry::TraceArg::str("to", V.T->tenantName()),
                    telemetry::TraceArg::str("why", reasonName(Why))});
      Tel->metrics().counter("platform.slo_transfers").add();
    }
    if (std::find(Changed.begin(), Changed.end(), &D) == Changed.end())
      Changed.push_back(&D);
    if (std::find(Changed.begin(), Changed.end(), &V) == Changed.end())
      Changed.push_back(&V);
  };
  // The donor to a tenant with target Target: tenants without an SLO
  // first (they promised no latency), then looser targets, loosest first;
  // ties to the larger budget. An equal or tighter target never donates
  // (the recipient among them), and nobody donates below MinBudget.
  // Returns Programs.size() when none may.
  constexpr double NoSlo = std::numeric_limits<double>::infinity();
  auto bestDonor = [&](double Target) {
    std::size_t Donor = Programs.size();
    double Best = 0;
    for (std::size_t J = 0; J < Programs.size(); ++J) {
      const PlatformTenant *D = Programs[J].T;
      double DT = D->hasSlo() ? D->sloTargetSec() : NoSlo;
      if (DT <= Target || Programs[J].Budget <= MinBudget)
        continue;
      if (Donor == Programs.size() || DT > Best ||
          (DT == Best && Programs[J].Budget > Programs[Donor].Budget))
        Donor = J, Best = DT;
    }
    return Donor;
  };

  // Each SLO tenant that wants more, in registration order, takes threads
  // from its donors. While it meets its target (or has no data yet) it
  // takes its whole shortfall, threadsUsed() - Budget and at least one
  // thread, before it violates instead of one thread per tick after.
  // While it violates it takes one thread per tick: a violating serving
  // class's queue term (a new runner per batch) over-counts its need, and
  // taking the shortfall then measured less goodput on serve-ladder. A
  // tenant that does not want more (a serving class with nothing queued
  // and its runners within its grant) cannot get faster with more budget,
  // and Algorithm 5 would shrink the grant back on the next tick.
  for (std::size_t I = 0; I < Programs.size(); ++I) {
    const PlatformTenant *T = Programs[I].T;
    if (!T->hasSlo() || !T->wantsMore())
      continue;
    double Target = T->sloTargetSec();
    assert(Target > 0 && "SLO tenant must carry a positive target");
    double Lat = T->sloLatencySec(); // negative: no data yet
    bool Violating = Lat >= 0 && Lat / Target > 1.0;
    unsigned Used = T->threadsUsed(), Budget = Programs[I].Budget;
    unsigned Take = Violating || Used <= Budget ? 1 : Used - Budget;
    for (; Take > 0; --Take) {
      std::size_t Donor = bestDonor(Target);
      if (Donor == Programs.size())
        break;
      moveThread(Donor, I,
                 Violating ? SloReason::Violation : SloReason::Backlog);
    }
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
