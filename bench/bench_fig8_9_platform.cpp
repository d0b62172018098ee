//===- bench_fig8_9_platform.cpp - Figure 8.9 ---------------------------------===//
//
// The platform-wide Morta daemon optimizing two Nona-compiled programs
// simultaneously (Section 8.3.4, Figure 8.9 and Algorithm 5). Program A
// (seqchain) is a serial call chain: the profitability check keeps it at
// SEQ, so one thread is all it can use. Program B (montecarlo) scales.
// The daemon splits the 24 threads evenly, then reclaims A's slack and
// hands it to B.
//
//===----------------------------------------------------------------------===//

#include "morta/Platform.h"
#include "nona/Programs.h"
#include "nona/Run.h"
#include "support/Table.h"

#include <cstdio>

using namespace parcae;
using namespace parcae::ir;
namespace rt = parcae::rt;
namespace sim = parcae::sim;

int main() {
  sim::Simulator Sim;
  sim::Machine M(Sim, 24);
  rt::RuntimeCosts Costs;

  LoopProgram PA = makeSeqchain(4000000);
  LoopProgram PB = makeMonteCarlo(4000000);
  CompiledLoop CA(*PA.F, PA.AA, PA.TripCount);
  CompiledLoop CB(*PB.F, PB.AA, PB.TripCount);
  CA.resetState();
  CB.resetState();
  auto SrcA = CA.makeSource();
  auto SrcB = CB.makeSource();
  rt::RegionRunner RunA(M, Costs, CA.region(), *SrcA);
  rt::RegionRunner RunB(M, Costs, CB.region(), *SrcB);
  rt::RegionController CtrlA(RunA), CtrlB(RunB);

  rt::PlatformDaemon Daemon(24);
  std::printf("== Figure 8.9: platform-wide optimization of two programs"
              " ==\n\n");
  std::printf("t=0: seqchain launches alone (budget 24)\n");
  Daemon.addProgram(CtrlA);
  Sim.runUntil(100 * sim::MSec);
  Daemon.addProgram(CtrlB);
  std::printf("t=100ms: montecarlo launches; budgets re-partitioned to"
              " %u/%u\n\n",
              Daemon.budgetOf(CtrlA), Daemon.budgetOf(CtrlB));

  Table T({"time(ms)", "A state", "A config", "A budget", "B state",
           "B config", "B budget", "busy cores"});
  for (int Ms = 120; Ms <= 900; Ms += 60) {
    Sim.runUntil(static_cast<sim::SimTime>(Ms) * sim::MSec);
    T.addRow({Table::num(static_cast<long long>(Ms)),
              rt::ctrlStateName(CtrlA.state()), RunA.config().str(),
              Table::num(static_cast<long long>(Daemon.budgetOf(CtrlA))),
              rt::ctrlStateName(CtrlB.state()), RunB.config().str(),
              Table::num(static_cast<long long>(Daemon.budgetOf(CtrlB))),
              Table::num(static_cast<long long>(M.busyCores()))});
  }
  T.print();
  std::printf("\n(expected: seqchain's serial chain keeps it at SEQ<1>;"
              " the daemon reclaims its slack and montecarlo's budget"
              " grows past the even 12/12 split)\n");
  return 0;
}
