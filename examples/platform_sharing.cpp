//===- platform_sharing.cpp - Two programs sharing a machine ------------------===//
//
// The platform-wide execution model of Chapter 3 (Figure 3.1): program P1
// runs alone on the whole machine; P2 launches mid-run; the Morta daemon
// re-partitions the hardware threads and both programs adapt — P1's
// controller shrinks its configuration instead of oversubscribing, and
// when P2's own optimum turns out to need fewer threads than its share,
// the daemon hands the slack back (Algorithm 5).
//
// Run: ./build/examples/example_platform_sharing
//
//===----------------------------------------------------------------------===//

#include "morta/Platform.h"
#include "nona/Programs.h"
#include "nona/Run.h"

#include <cstdio>

using namespace parcae;
using namespace parcae::ir;
namespace rt = parcae::rt;
namespace sim = parcae::sim;

int main() {
  sim::Simulator Sim;
  sim::Machine M(Sim, 16);
  rt::RuntimeCosts Costs;

  // P1: scalable Monte-Carlo pricing. P2: seqchain, a serial call chain
  // whose controller keeps it at SEQ: one thread is all it can use.
  LoopProgram P1 = makeMonteCarlo(3000000);
  LoopProgram P2 = makeSeqchain(3000000);
  CompiledLoop C1(*P1.F, P1.AA, P1.TripCount);
  CompiledLoop C2(*P2.F, P2.AA, P2.TripCount);
  C1.resetState();
  C2.resetState();
  auto S1 = C1.makeSource();
  auto S2 = C2.makeSource();
  rt::RegionRunner R1(M, Costs, C1.region(), *S1);
  rt::RegionRunner R2(M, Costs, C2.region(), *S2);
  rt::RegionController Ctl1(R1), Ctl2(R2);
  rt::PlatformDaemon Daemon(16);

  Daemon.addProgram(Ctl1);
  std::printf("t=0      P1 (montecarlo) launches: budget %u\n",
              Daemon.budgetOf(Ctl1));
  Sim.runUntil(80 * sim::MSec);
  std::printf("t=80ms   P1 settled on %s\n", R1.config().str().c_str());

  Daemon.addProgram(Ctl2);
  std::printf("t=80ms   P2 (seqchain) launches: budgets %u / %u\n",
              Daemon.budgetOf(Ctl1), Daemon.budgetOf(Ctl2));

  for (int Ms = 160; Ms <= 640; Ms += 160) {
    Sim.runUntil(static_cast<sim::SimTime>(Ms) * sim::MSec);
    std::printf("t=%-3dms  P1 %s (budget %u) | P2 %s (budget %u) | %u/16"
                " cores busy\n",
                Ms, R1.config().str().c_str(), Daemon.budgetOf(Ctl1),
                R2.config().str().c_str(), Daemon.budgetOf(Ctl2),
                M.busyCores());
  }
  std::printf("\nP2 stays at SEQ (serial call chain); the daemon"
              " reclaims its slack for P1.\n");
  return 0;
}
