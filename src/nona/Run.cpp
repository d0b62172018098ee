//===- Run.cpp - Executing compiled loops on the simulator -------------------===//

#include "nona/Run.h"

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

ControlledRunResult parcae::ir::runControlled(CompiledLoop &CL,
                                              unsigned Budget) {
  sim::Simulator Sim;
  sim::Machine M(Sim, Budget);
  rt::RuntimeCosts Costs;
  CL.resetState();
  auto Src = CL.makeSource();
  rt::RegionRunner Runner(M, Costs, CL.region(), *Src);
  rt::RegionController Ctrl(Runner);
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
