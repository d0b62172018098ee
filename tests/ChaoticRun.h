//===- ChaoticRun.h - A compiled loop under random reconfiguration -*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The semantics stress the Nona tests share: run a compiled loop to
/// completion while a seeded schedule switches its scheme and DoP. Only
/// tests use it, so it lives beside them, not in the library.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_TESTS_CHAOTICRUN_H
#define PARCAE_TESTS_CHAOTICRUN_H

#include "nona/Run.h"
#include "support/Rng.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace parcae::ir {

/// Runs a compiled loop to completion (runBounded) while applying a
/// seeded schedule of \p Reconfigs in-place DoP changes and full scheme
/// switches, one every 400 us, across every variant the loop exposes.
/// Resets loop state first.
inline CompiledRunResult runCompiledChaotic(CompiledLoop &CL, unsigned Cores,
                                            std::uint64_t Seed,
                                            unsigned Reconfigs = 12) {
  sim::Simulator Sim;
  sim::Machine M(Sim, Cores);
  rt::RuntimeCosts Costs;
  CL.resetState();
  auto Src = CL.makeSource();
  rt::RegionRunner Runner(M, Costs, CL.region(), *Src);

  // Candidate configurations across every variant the loop exposes.
  Rng R0(Seed);
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

} // namespace parcae::ir

#endif // PARCAE_TESTS_CHAOTICRUN_H
