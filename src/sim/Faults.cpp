//===- Faults.cpp - Deterministic fault injection for the machine ----------===//

#include "sim/Faults.h"

#include "support/Rng.h"

#include <algorithm>
#include <cassert>

using namespace parcae::sim;

void FaultPlan::addStraggler(unsigned Core, SimTime At, SimTime Duration,
                             double Dilation) {
  assert(Dilation >= 1.0 && "stragglers run slower, not faster");
  assert(Duration > 0 && "straggler window must be non-empty");
  Stragglers.push_back({Core, At, Duration, Dilation});
}

void FaultPlan::addOffline(unsigned Core, SimTime At) {
  Offlines.push_back({Core, At});
}

void FaultPlan::addDomain(std::string Name, std::vector<unsigned> Cores,
                          SimTime At, SimTime Downtime, SimTime Warning) {
  assert(!Cores.empty() && "a failure domain holds at least one core");
  Domains.push_back({std::move(Name), std::move(Cores), At, Downtime, Warning});
}

void FaultPlan::scatterDomain(std::uint64_t Seed, std::string Name,
                              unsigned NumCores, unsigned Size, SimTime At,
                              SimTime Downtime, SimTime Warning) {
  assert(Size >= 1 && Size <= NumCores && "domain size must fit the machine");
  // Partial Fisher-Yates over the core indices: the first Size entries are
  // a uniform distinct sample, fully determined by the seed.
  std::vector<unsigned> All(NumCores);
  for (unsigned I = 0; I < NumCores; ++I)
    All[I] = I;
  Rng R(Seed);
  for (unsigned I = 0; I < Size; ++I) {
    unsigned J = I + static_cast<unsigned>(R.nextBelow(NumCores - I));
    std::swap(All[I], All[J]);
  }
  All.resize(Size);
  addDomain(std::move(Name), std::move(All), At, Downtime, Warning);
}

std::size_t FaultPlan::numTransients() const {
  std::size_t N = 0;
  for (const auto &[Task, Faults] : Transients)
    N += Faults.size();
  return N;
}

std::size_t FaultPlan::numOfflineEvents() const {
  std::size_t N = Offlines.size();
  for (const FailureDomainEvent &D : Domains)
    N += D.Cores.size();
  return N;
}

void FaultPlan::addTransient(std::string Task, std::uint64_t Seq,
                             unsigned FailCount) {
  assert(FailCount >= 1 && "a transient fault fails at least once");
  Transients[std::move(Task)][Seq] = FailCount;
}

void FaultPlan::addWedge(std::string Task, std::uint64_t Seq) {
  Wedges.push_back({std::move(Task), Seq});
}

void FaultPlan::scatterTransients(std::uint64_t Seed, const std::string &Task,
                                  std::uint64_t SeqBegin, std::uint64_t SeqEnd,
                                  unsigned Count, unsigned MaxFailCount) {
  assert(SeqBegin < SeqEnd && "empty scatter range");
  assert(MaxFailCount >= 1);
  Rng R(Seed);
  for (unsigned I = 0; I < Count; ++I) {
    std::uint64_t Seq = SeqBegin + R.nextBelow(SeqEnd - SeqBegin);
    unsigned Fails = 1 + static_cast<unsigned>(R.nextBelow(MaxFailCount));
    addTransient(Task, Seq, Fails);
  }
}

void FaultPlan::scatterStragglers(std::uint64_t Seed, unsigned NumCores,
                                  unsigned Count, SimTime From, SimTime To,
                                  SimTime Duration, double MinDilation,
                                  double MaxDilation) {
  assert(NumCores > 0 && "scatter needs at least one core");
  assert(From < To && "empty scatter window");
  assert(MinDilation >= 1.0 && MinDilation <= MaxDilation);
  Rng R(Seed);
  for (unsigned I = 0; I < Count; ++I) {
    unsigned Core = static_cast<unsigned>(R.nextBelow(NumCores));
    SimTime At = From + R.nextBelow(To - From);
    double Dilation = R.nextRealInRange(MinDilation, MaxDilation);
    addStraggler(Core, At, Duration, Dilation);
  }
}

double FaultPlan::dilation(unsigned Core, SimTime Now) const {
  // Overlapping windows do not compound: the core runs at the worst active
  // dilation (two 4x windows give 4x, not 16x).
  double F = 1.0;
  for (const StragglerFault &S : Stragglers)
    if (S.Core == Core && Now >= S.At && Now < S.At + S.Duration)
      F = std::max(F, S.Dilation);
  return F;
}

SimTime FaultPlan::nextDilationBoundary(unsigned Core, SimTime Now) const {
  SimTime Next = 0;
  for (const StragglerFault &S : Stragglers) {
    if (S.Core != Core)
      continue;
    for (SimTime Edge : {S.At, S.At + S.Duration})
      if (Edge > Now && (Next == 0 || Edge < Next))
        Next = Edge;
  }
  return Next;
}

unsigned FaultPlan::transientFailCount(const std::string &Task,
                                       std::uint64_t Seq) const {
  const TransientFaults *T = transientsOf(Task);
  if (!T)
    return 0;
  auto It = T->find(Seq);
  return It == T->end() ? 0 : It->second;
}

const TransientFaults *FaultPlan::transientsOf(const std::string &Task) const {
  auto It = Transients.find(Task);
  return It == Transients.end() ? nullptr : &It->second;
}

bool FaultPlan::wedgeAt(const std::string &Task, std::uint64_t Seq) const {
  for (const WedgeFault &W : Wedges)
    if (W.Seq == Seq && W.Task == Task)
      return true;
  return false;
}
