//===- Run.cpp - Executing compiled loops on the simulator -------------------===//

#include "nona/Run.h"

#include "support/Rng.h"

using namespace parcae::ir;
namespace rt = parcae::rt;
namespace sim = parcae::sim;

namespace {

/// Virtual time without a single retirement after which an unfinished
/// run counts as stalled (a stalled controller would otherwise tick
/// forever).
constexpr sim::SimTime StallLimit = 1 * sim::Sec;

} // namespace

bool parcae::ir::runBounded(sim::Simulator &Sim,
                            const rt::RegionRunner &Runner) {
  std::uint64_t Retired = Runner.totalRetired();
  sim::SimTime MovedAt = Sim.now();
  while (Sim.runOne()) {
    if (Runner.completed())
      continue;
    if (Runner.totalRetired() != Retired) {
      Retired = Runner.totalRetired();
      MovedAt = Sim.now();
    } else if (Sim.now() - MovedAt >= StallLimit) {
      return false;
    }
  }
  return Runner.completed();
}

std::string parcae::ir::stallReportOf(const rt::RegionRunner &Runner) {
  if (Runner.completed())
    return "";
  if (const rt::RegionExec *E = Runner.exec())
    return E->stallReport();
  return "no execution: the region is between a drain and its resume\n";
}

CompiledRunResult parcae::ir::runCompiled(CompiledLoop &CL,
                                          rt::RegionConfig C, unsigned Cores,
                                          const rt::RuntimeCosts &Costs) {
  sim::Simulator Sim;
  sim::Machine M(Sim, Cores);
  CL.resetState();
  auto Src = CL.makeSource();
  rt::RegionRunner Runner(M, Costs, CL.region(), *Src);
  Runner.start(std::move(C));
  runBounded(Sim, Runner);
  CompiledRunResult R;
  R.Time = Sim.now();
  R.Completed = Runner.completed();
  R.Retired = Runner.totalRetired();
  R.Stall = stallReportOf(Runner);
  return R;
}

CompiledRunResult parcae::ir::runCompiledChaotic(CompiledLoop &CL,
                                                 unsigned Cores,
                                                 std::uint64_t Seed,
                                                 unsigned Reconfigs) {
  sim::Simulator Sim;
  sim::Machine M(Sim, Cores);
  rt::RuntimeCosts Costs;
  CL.resetState();
  auto Src = CL.makeSource();
  rt::RegionRunner Runner(M, Costs, CL.region(), *Src);

  // Candidate configurations across every variant the loop exposes.
  parcae::Rng R0(Seed);
  std::vector<rt::RegionConfig> Configs;
  for (const rt::RegionDesc &V : CL.region().variants()) {
    for (unsigned Rep = 0; Rep < 4; ++Rep) {
      rt::RegionConfig C;
      C.S = V.S;
      for (const rt::Task &T : V.Tasks)
        C.DoP.push_back(T.isParallel()
                            ? 1 + static_cast<unsigned>(R0.nextBelow(
                                      std::min(Cores, 8u)))
                            : 1);
      Configs.push_back(std::move(C));
    }
  }
  assert(!Configs.empty());

  Runner.start(Configs[R0.nextBelow(Configs.size())]);
  // Spread reconfigurations over the expected run.
  for (unsigned K = 1; K <= Reconfigs; ++K) {
    rt::RegionConfig C = Configs[R0.nextBelow(Configs.size())];
    Sim.schedule(static_cast<sim::SimTime>(K) * 400 * sim::USec,
                 [&Runner, C = std::move(C)]() mutable {
                   if (!Runner.completed())
                     Runner.reconfigure(std::move(C));
                 });
  }
  runBounded(Sim, Runner);
  CompiledRunResult R;
  R.Time = Sim.now();
  R.Completed = Runner.completed();
  R.Retired = Runner.totalRetired();
  R.Stall = stallReportOf(Runner);
  return R;
}

ControlledRunResult parcae::ir::runControlled(CompiledLoop &CL,
                                              unsigned Budget,
                                              rt::ControllerParams P) {
  sim::Simulator Sim;
  sim::Machine M(Sim, Budget);
  rt::RuntimeCosts Costs;
  CL.resetState();
  auto Src = CL.makeSource();
  rt::RegionRunner Runner(M, Costs, CL.region(), *Src);
  rt::RegionController Ctrl(Runner, P);
  Ctrl.start(Budget);
  runBounded(Sim, Runner);
  ControlledRunResult R;
  R.Time = Sim.now();
  R.Completed = Runner.completed();
  R.Final = Runner.config();
  R.SeqThroughput = Ctrl.seqThroughput();
  R.BestThroughput = Ctrl.bestThroughput();
  R.Trace = Ctrl.trace();
  R.Stall = stallReportOf(Runner);
  return R;
}
